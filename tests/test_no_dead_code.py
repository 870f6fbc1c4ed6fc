"""Every public function and method of the package has a caller.

A name counts as used when some ``Name``, ``Attribute`` or import alias
node names it in the package (outside ``__init__.py``, whose re-exports
call nothing), the tests or the benchmark harness.  Strings do not
count, so a name that is only listed, looked up or documented is dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "triplekit"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def defined_public_callables():
    """(module, qualified name, bare name) of every module-level function
    and every method of a module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            members = [(node, "")]
            if isinstance(node, ast.ClassDef):
                members = [(item, f"{node.name}.") for item in node.body]
            for item, prefix in members:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield path.stem, prefix + item.name, item.name


def referenced_names():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in sources:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    names.add(node.asname)
    return names


def test_every_public_callable_has_a_caller():
    used = referenced_names()
    dead = [
        f"{module}.{qualname}"
        for module, qualname, name in defined_public_callables()
        if name not in used
    ]
    assert dead == [], f"public functions nobody names: {dead}"
