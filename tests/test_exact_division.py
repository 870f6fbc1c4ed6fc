"""No code in the package divides with ``/``.

Integral scalars are plain ints, and ``a / b`` of two ints is a float,
which would end exactness without an error.  Every quotient therefore
goes through ``linalg.exact_div``, which divides through ``Fraction``
and has no ``/`` of its own, so the package holds no ``ast.Div`` at
all: not in ``a / b``, not in ``a /= b``, and not in path joins either
(those use ``joinpath``).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "triplekit"


def true_divisions(source: str, filename: str = "<string>"):
    """(line, column) of every ``/`` and ``/=`` in ``source``."""
    return sorted(
        (node.lineno, node.col_offset)
        for node in ast.walk(ast.parse(source, filename=filename))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


def test_scan_finds_both_forms():
    source = "def f(a, b):\n    c = a / b\n    c /= 2\n    return c // 2, '1/2'\n"
    assert true_divisions(source) == [(2, 8), (3, 4)]


def test_package_has_no_true_division():
    found = [
        f"{path.name}:{line}:{col}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, col in true_divisions(path.read_text(encoding="utf-8"), str(path))
    ]
    assert found == [], f"divide scalars with linalg.exact_div, not '/': {found}"
