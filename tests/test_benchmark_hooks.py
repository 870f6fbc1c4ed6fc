"""The benchmark's traced run (``perfbench/layertrace.py``) wraps names
of triplekit from outside; a refactor must keep every name it relies on.
These tests only read the benchmark's files."""

import importlib
import importlib.util
import inspect
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"

# Functions whose calls or inclusive time the benchmark reports by name.
COUNTED = (
    ("cohomology", "coboundary"),
    ("cohomology", "induced_rep"),
    ("cohomology", "complex_audit"),
    ("rota_baxter", "check_rbo"),
)


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_exist():
    layertrace = load_layertrace()
    for layer in layertrace.LAYERS:
        importlib.import_module(f"triplekit.{layer}")
    for layer, methods in layertrace.METHODS.items():
        module = importlib.import_module(f"triplekit.{layer}")
        for cls_name, method in methods:
            cls = getattr(module, cls_name, None)
            assert cls is not None, f"triplekit.{layer}.{cls_name} is gone"
            # the tracer replaces the attribute defined on the class itself
            assert method in vars(cls), f"triplekit.{layer}.{cls_name}.{method} is gone"


def test_counted_functions_stay_public():
    for layer, name in COUNTED:
        module = importlib.import_module(f"triplekit.{layer}")
        fn = vars(module).get(name)
        assert inspect.isfunction(fn), f"triplekit.{layer}.{name} is not a module function"
        assert fn.__module__ == module.__name__, f"{name} is not defined in triplekit.{layer}"
