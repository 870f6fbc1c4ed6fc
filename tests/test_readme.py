"""README's Python examples run as written and print what they say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_every_python_block_runs():
    blocks = python_blocks()
    assert len(blocks) == 2
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        printed.append(out.getvalue().splitlines())
    # the library example: the descendent bracket [e1,e2,e1] = 2 e3 and
    # H^1 of rbo3_P at weight 1
    assert printed == [[], [
        "(0, 1, 0, ((2, 2),))",
        "CohomologyResult(degree=1, dim_cocycles=6, dim_coboundaries=1, dim_H=5, sign_convention=None, sign_audit=())",
    ]]
