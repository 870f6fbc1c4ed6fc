"""No code in the package asks ``json`` for an indented document.

``json.dump`` and ``json.dumps`` use the C encoder only when ``indent``
is None; with an indent they run the pure-Python encoder, several times
slower on a large cochain.  The package writes every document through
``fileio.dump_json``, which lays out the indent itself around the C
encoders, so no ``json.dump``/``json.dumps`` call in it passes
``indent=``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "triplekit"


def indented_dumps(source: str, filename: str = "<string>"):
    """(line, column) of every ``json.dump``/``json.dumps`` call, or a
    call of a bare ``dump``/``dumps``, that passes ``indent=``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("dump", "dumps") and any(k.arg == "indent" for k in node.keywords):
            found.append((node.lineno, node.col_offset))
    return sorted(found)


def test_scan_finds_both_calls():
    source = (
        "import json\n"
        "a = json.dumps(x, sort_keys=True, indent=2)\n"
        "json.dump(x, fh, indent=None)\n"
        "b = dumps(x, indent=4)\n"
        "c = json.dumps(x, sort_keys=True)\n"
    )
    assert indented_dumps(source) == [(2, 4), (3, 0), (4, 4)]


def test_package_writes_no_indented_json():
    found = [
        f"{path.name}:{line}:{col}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, col in indented_dumps(path.read_text(encoding="utf-8"), str(path))
    ]
    assert found == [], f"write documents with fileio.dump_json, not json.dumps(..., indent=): {found}"
