"""The benchmark's traced run (``perfbench/layertrace.py``) wraps names
of triplekit from outside; a refactor must keep every name it relies on
and every call shape it measures, and every job the benchmark draws
must keep the exit code and stdout recorded in
``perfbench/expected.json``.  These tests read the benchmark's files
and run its jobs; they change none of them."""

import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"
RUN = ROOT / "perfbench" / "run.py"

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


@pytest.mark.parametrize("workload", ["cohomology", "deformations"])
def test_traced_run_stays_correct(workload):
    # the traced run measures elimination inputs from the call arguments
    # (a Matrix first, or from_spanning's vectors and ambient dimension)
    # and reads cochain_space_basis(...).vectors as dense tuples
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--trace", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result


@pytest.mark.parametrize("workload", ["cohomology", "deformations"])
def test_every_recorded_job_variant_prints_the_same_bytes(workload, tmp_path, monkeypatch):
    # every job any seed can draw, run in-process as the benchmark runs
    # it, against its recorded exit code and stdout digest, keyed as the
    # benchmark keys them
    from triplekit import cli

    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts perfbench/ first
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up
    spec.loader.exec_module(run)
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))["jobs"]
    jobs = run.workloads.build_all_variants(workload, tmp_path)
    assert jobs
    for job in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(job.argv))
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
        assert [code, digest] == expected.get(run.job_key(job)), job.label
        assert run.independent_check(job, buf.getvalue()), job.label
