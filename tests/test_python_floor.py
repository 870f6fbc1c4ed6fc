"""The package parses as the oldest Python that pyproject.toml declares.

``ast.parse`` with ``feature_version`` rejects syntax newer than the
given version, such as ``except*`` (3.11) or a ``type`` alias (3.12),
so a file that parses here does not fail to import on 3.10 for its
syntax.  It does not check the standard library names a file uses."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)


def test_the_floor_is_the_declared_one():
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert tuple(map(int, declared.groups())) == FLOOR


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "triplekit").glob("*.py")), ids=lambda p: p.name)
def test_every_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_the_floor_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
