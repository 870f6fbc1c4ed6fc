"""Every function and method of the package has a caller.

A name counts as used when some ``Name``, ``Attribute`` or import alias
node names it in the package (outside ``__init__.py``, whose re-exports
call nothing), the tests or the benchmark harness, outside the body of
its own definition.  Strings do not count, so a name that is only
listed, looked up or documented is dead.  Private helpers are held to
the same rule as public functions, so a helper whose last caller goes
is caught; dunder methods, which Python calls by protocol, are not.
Likewise every name a module imports is named in that module, so an
import whose last use goes is caught.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "triplekit"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def named(node):
    """The names an AST node refers to."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.rsplit(".", 1)[-1]] + ([node.asname] if node.asname else [])
    return []


def defined_callables():
    """(module, qualified name, definition node) of every module-level
    function and every method of a module-level class, dunders aside."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path).body:
            members = [(node, "")]
            if isinstance(node, ast.ClassDef):
                members = [(item, f"{node.name}.") for item in node.body]
            for item, prefix in members:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                    yield path.stem, prefix + item.name, item


def referenced_names():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return Counter(name for path in sources for node in ast.walk(parse(path)) for name in named(node))


def dead(private):
    used = referenced_names()
    return [
        f"{module}.{qualname}"
        for module, qualname, item in defined_callables()
        if item.name.startswith("_") == private
        # a recursive call is no caller
        and used[item.name] <= sum(named(node).count(item.name) for node in ast.walk(item))
    ]


def test_every_public_callable_has_a_caller():
    assert dead(private=False) == [], "public functions nobody names"


def test_every_private_callable_has_a_caller():
    assert dead(private=True) == [], "private functions nobody names"


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        bound = {
            alias.asname or alias.name.split(".")[0]
            for node in imports if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(bound - used)]
    assert unused == [], "imported names the module never uses"
