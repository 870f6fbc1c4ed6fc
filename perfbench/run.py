"""Benchmark for the triplekit command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --record      # rewrite perfbench/expected.json

One process runs one workload as a closed loop with a single client:
the jobs of the workload's list run one after another, in-process,
through ``triplekit.cli.main(argv)`` with stdout captured.  One whole
pass over the list comes first; rounds over the list then repeat until
``--seconds`` have elapsed, starting only jobs that still end in time.
Round ``r`` runs each job, back to back up to ``ROUND_JOB_REPEATS``
times, while its runs so far total less than ``r * ROUND_JOB_SECONDS``:
the time left after the first pass is shared about equally between the
jobs, so short and middling jobs are timed many times and the longest
ones are not repeated at their expense.

Timings are reported in reference seconds.  The host this benchmark was
written on (a 2-vCPU VM) changes speed by up to 1.7x within minutes,
through contention the guest cannot see (no steal time), so the same
code measured raw spreads by 30% from one run to the next.  A
fixed calibration probe (``probe``: exact elimination on a rational
matrix, standard library only, so no change to triplekit moves it) runs
from a timer signal every ``PROBE_EVERY_S`` seconds, also in the middle
of a job.  Each measured duration leaves out the probes that ran during
it and is scaled by ``REF_PROBE_S`` over the mean of those probes and
the nearest one on either side: it reads as the seconds the work would
take where the probe takes ``REF_PROBE_S``.  The raw medians and the
probe's median are printed on the info line.  Per-layer metrics are raw
seconds, from runs without the probe.

Set-up (importing the package, generating the seeded inputs and writing
them as JSON) runs ``SETUP_REPEATS`` times; ``setup_s`` is its median.

Every job is checked: its exit code and the sha256 of its stdout must
match ``expected.json``, recorded from every input variant any seed can
draw; coh basis dimensions must match their closed form and fixture
cohomology dimensions must match the known values.  A failing job is
never retried.

``--trace 0`` prints the end-to-end metrics.  ``ok_share`` is one minus
the error rate (failed jobs over jobs run): end-to-end metrics must
never be 0, and the error rate is 0 whenever every job is right.  ``--trace 1`` runs one
untraced pass, then wraps the layers (see layertrace.py) and reports
per-layer metrics per traced pass (whole passes, at least one, within
``--seconds``), with the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
workload's input properties and run details.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 5
ROUND_JOB_SECONDS = 0.2
ROUND_JOB_REPEATS = 8
TAIL_BEYOND = 10
PROBE_EVERY_S = 0.5
PROBE_SIZE = 24
# About the probe's time on the 2.0 GHz Xeon vCPU the benchmark was
# written on; any fixed value would do, it only sets the scale.
REF_PROBE_S = 0.025

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (the benchmark's own module, next to this file)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def purge_package() -> None:
    for key in [k for k in sys.modules if k == "triplekit" or k.startswith("triplekit.")]:
        del sys.modules[key]


def setup_once(workload: str, seed: int, directory: Path, calibration):
    """Import triplekit afresh, generate and write the inputs, timed as
    "setup"; returns (cli module, jobs, operator dims)."""
    purge_package()
    shutil.rmtree(directory, ignore_errors=True)
    mark = calibration.mark()
    import triplekit.cli as cli

    jobs, dims = workloads.build_jobs(workload, directory, seed)
    calibration.record("setup", mark)
    return cli, jobs, dims


def job_key(job) -> str:
    """Digest of the argv with each input path replaced by its bytes'
    digest, so keys do not depend on where the checkout lives."""
    files = {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in job.inputs}
    tokens = [f"file:{files[t]}" if t in files else t for t in job.argv]
    return hashlib.sha256(json.dumps(tokens).encode("utf-8")).hexdigest()


def run_job(cli, job, calibration, key):
    """Runs one job, timed under ``key``: (exit code or None if it
    raised, stdout text, seconds)."""
    buf = io.StringIO()
    mark = calibration.mark()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(job.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a job that raises is a failed job, not a crashed benchmark
        code = None
    return code, buf.getvalue(), calibration.record(key, mark)


def independent_check(job, stdout: str) -> bool:
    if not job.check:
        return True
    kind, want = job.check
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    if kind == "dims":
        return (data.get("dim_Z"), data.get("dim_B"), data.get("dim_H")) == want
    if kind == "basis_dim":
        return data.get("dim") == want
    raise ValueError(kind)


def job_ok(job, key, expected, code, stdout) -> bool:
    want = expected.get(key)
    if code is None or want is None:
        return False
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    return [code, digest] == want and independent_check(job, stdout)


def probe() -> float:
    """Seconds to row-reduce a fixed PROBE_SIZE x PROBE_SIZE matrix of
    Fractions, the kind of work triplekit's exact linear algebra does."""
    n = PROBE_SIZE
    start = time.perf_counter()
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return time.perf_counter() - start


class Calibration:
    """Measured durations, and the probes that ran around them."""

    def __init__(self):
        self.probes = []  # probe seconds, in the order they ran
        self.spent = 0.0  # seconds spent in probes
        self.measured = []  # (key, seconds, probes before it, probes by its end)

    def _probe(self, *_signal) -> None:
        seconds = probe()
        self.probes.append(seconds)
        self.spent += seconds

    @contextlib.contextmanager
    def probing(self):
        """Probes now, every PROBE_EVERY_S seconds while inside, and on
        leaving."""
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._probe()

    def mark(self):
        return len(self.probes), self.spent, time.perf_counter()

    def record(self, key, mark) -> float:
        """Ends the measurement begun at ``mark``; returns its seconds
        without the probes that ran during it."""
        count, spent, start = mark
        seconds = time.perf_counter() - start - (self.spent - spent)
        self.measured.append((key, seconds, count, len(self.probes)))
        return seconds

    def scaled(self) -> dict:
        """{key: [reference seconds of each measurement, in order]}."""
        out = {}
        for key, seconds, first, last in self.measured:
            around = self.probes[max(first - 1, 0):last + 1]
            out.setdefault(key, []).append(seconds * REF_PROBE_S / statistics.mean(around))
        return out

    def raw(self) -> dict:
        out = {}
        for key, seconds, _, _ in self.measured:
            out.setdefault(key, []).append(seconds)
        return out


@dataclass
class Pass:
    """Results of one pass over the job list."""

    wall: float
    latencies: list
    oks: list
    codes: list
    outputs: list


def run_pass(cli, jobs, keys, expected, calibration, tracer=None) -> Pass:
    latencies, oks, codes, outputs = [], [], [], []
    start = time.perf_counter()
    for index, (job, key) in enumerate(zip(jobs, keys)):
        if tracer is not None:
            tracer.job_id = index
        code, stdout, seconds = run_job(cli, job, calibration, index)
        latencies.append(seconds)
        oks.append(job_ok(job, key, expected, code, stdout))
        codes.append(code)
        outputs.append(stdout)
    return Pass(time.perf_counter() - start, latencies, oks, codes, outputs)


def run_timed(cli, jobs, keys, expected, seconds, calibration) -> tuple[Pass, list]:
    """One whole pass, then rounds over the list (see the module
    docstring) until ``seconds`` have elapsed since the start.  A job is
    started only if a run as long as its last one still ends in time, so
    a run ends near ``seconds`` however long a pass is.  Latencies go to
    ``calibration``; returns the first pass and the check result of every
    job run."""
    start = time.perf_counter()
    first = run_pass(cli, jobs, keys, expected, calibration)
    last = list(first.latencies)
    total = list(first.latencies)
    oks = list(first.oks)

    def fits(index):
        return time.perf_counter() - start + last[index] <= seconds

    share = 0.0
    while any(fits(index) for index in range(len(jobs))):
        share += ROUND_JOB_SECONDS
        for index, (job, key) in enumerate(zip(jobs, keys)):
            for _ in range(ROUND_JOB_REPEATS):
                if total[index] >= share or not fits(index):
                    break
                code, stdout, elapsed = run_job(cli, job, calibration, index)
                last[index] = elapsed
                total[index] += elapsed
                oks.append(job_ok(job, key, expected, code, stdout))
    return first, oks


def run_traced(cli, jobs, keys, expected, seconds, calibration, tracer) -> list[Pass]:
    """Whole traced passes, at least one, while another as long as the
    last still ends within ``seconds`` of the start."""
    start = time.perf_counter()
    passes = [run_pass(cli, jobs, keys, expected, calibration, tracer)]
    while time.perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(run_pass(cli, jobs, keys, expected, calibration, tracer))
    return passes


def tail(values: list[float]):
    """The highest percentile with at least TAIL_BEYOND values beyond
    it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n


def input_properties(jobs, first: Pass) -> dict:
    """Properties of the inputs, read from the jobs and the outputs of
    those that passed their checks."""
    def outputs(prefix):
        for job, code, out, ok in zip(jobs, first.codes, first.outputs, first.oks):
            if ok and " ".join(job.argv[:2]) == prefix:
                yield job, code, out

    cocycle = [code == 0 for _, code, _ in outputs("coh cocycle")]
    trivial = [
        json.loads(out).get("trivial") is True
        for job, _, out in outputs("def trivial") if "--strict" not in job.argv
    ]
    sweeps = [json.loads(out) for _, _, out in outputs("rbo equivalence")]
    tried = sum(s["trials"] for s in sweeps)
    return {
        "jobs": len(jobs),
        "deformations.cocycle_share": sum(cocycle) / len(cocycle) if cocycle else 0.0,
        "trivial_share": sum(trivial) / len(trivial) if trivial else 0.0,
        "properties.operator_share": sum(s["operators_found"] for s in sweeps) / tried if tried else 0.0,
    }


def end_to_end(calibration, n_jobs, oks):
    """Each job's latency is the median of its runs in reference
    seconds.  wall_s is the sum of these over the list, job_p50_s their
    median and job_tail_s their tail, so its percentile depends only on
    the list length."""
    scaled, raw = calibration.scaled(), calibration.raw()
    per_job = [statistics.median(scaled[i]) for i in range(n_jobs)]
    tail_value, percentile = tail(per_job)
    attempted = len(oks)
    failed = sum(not ok for ok in oks)
    metrics = {
        "setup_s": (statistics.median(scaled["setup"]), "s"),
        "wall_s": (sum(per_job), "s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_tail_s": (tail_value, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
    }
    details = {
        "tail_percentile": percentile,
        "tail_jobs": len(per_job),
        "error_rate": failed / attempted,
        "runs_per_job": [min(len(scaled[i]) for i in range(n_jobs)), max(len(scaled[i]) for i in range(n_jobs))],
        "raw_wall_s": sum(statistics.median(raw[i]) for i in range(n_jobs)),
        "raw_setup_s": statistics.median(raw["setup"]),
        "probe_median_s": statistics.median(calibration.probes),
    }
    return metrics, details, attempted, failed


def per_layer(tracer, traced_passes, untraced_wall, props, jobs) -> tuple[dict, dict]:
    from layertrace import LAYERS

    n = len(traced_passes)
    self_s, layer_calls, calls, incl = tracer.layer_totals()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / n, "s")
        metrics[f"{layer}.calls"] = (layer_calls.get(layer, 0) / n, "count")
    for name, metric in (
        ("cohomology.coboundary", "cohomology.coboundary_calls"),
        ("cohomology.induced_rep", "cohomology.induced_rep_calls"),
        ("rota_baxter.check_rbo", "rota_baxter.check_rbo_calls"),
        ("representations.theta_vec", "representations.theta_vec_calls"),
        ("lts.bracket_eval", "lts.bracket_eval_calls"),
        ("linalg.apply", "linalg.apply_calls"),
    ):
        metrics[metric] = (calls.get(name, 0) / n, "count")
    metrics["cohomology.audit_s"] = (incl.get("cohomology.complex_audit", 0.0) / n, "s")
    metrics["linalg.elim_calls"] = (tracer.elim_calls / n, "count")
    metrics["linalg.elim_entries"] = (tracer.elim_entries / n, "count")
    metrics["linalg.max_elim_entries"] = (tracer.max_elim_entries, "count")
    metrics["linalg.elim_nnz_ratio"] = (
        tracer.elim_nonzeros / tracer.elim_entries if tracer.elim_entries else 0.0, "ratio"
    )
    metrics["fileio.bytes_out"] = (tracer.bytes_out / n, "bytes")
    metrics["properties.operator_share"] = (props["properties.operator_share"], "ratio")
    metrics["deformations.cocycle_share"] = (props["deformations.cocycle_share"], "ratio")
    traced_wall = statistics.median(p.wall for p in traced_passes)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    by_job = tracer.calls_by_job("cohomology.coboundary")
    details = {
        "traced_passes": n,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "spans": len(tracer.start),
        "coboundary_calls_by_job": {
            jobs[j].label: c // n for j, c in sorted(by_job.items()) if j >= 0
        },
        "self_share": {
            layer: s / sum(self_s.values()) for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1])
        },
    }
    return metrics, details


def measure(workload: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "triplekit" / "cli.py").is_file():
        fail(f"triplekit sources not found under {SRC}")
    if not EXPECTED.is_file():
        fail(f"expected outputs not found at {EXPECTED}")
    sys.path.insert(0, str(SRC))
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["jobs"]
    directory = OUT / "inputs" / workload
    calibration = Calibration()
    with calibration.probing():
        for _ in range(SETUP_REPEATS):
            cli, jobs, dims = setup_once(workload, seed, directory, calibration)
        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            fail(f"imported triplekit from {cli.__file__}, not from {SRC}")
        keys = [job_key(job) for job in jobs]
        if not traced:
            first, oks = run_timed(cli, jobs, keys, expected, seconds, calibration)

    if not traced:
        metrics, details, attempted, failed = end_to_end(calibration, len(jobs), oks)
        props = input_properties(jobs, first)
    else:
        from layertrace import Tracer

        start = time.perf_counter()
        untraced = run_pass(cli, jobs, keys, expected, calibration)
        tracer = Tracer()
        tracer.install()
        left = seconds - (time.perf_counter() - start)
        passes = run_traced(cli, jobs, keys, expected, left, calibration, tracer)
        props = input_properties(jobs, passes[0])
        metrics, details = per_layer(tracer, passes, untraced.wall, props, jobs)
        passes.append(untraced)
        attempted = sum(len(p.oks) for p in passes)
        failed = sum(not ok for p in passes for ok in p.oks)
        tracer.write(OUT / f"spans-{workload}.jsonl.gz", [job.label for job in jobs])

    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_samples_s": calibration.raw()["setup"],
        "inputs": {**props, "operator_dims": dims},
        **details,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def record() -> int:
    """Run every job variant any seed can draw and store its exit code
    and stdout digest.  Refuses to record a job that raises or fails an
    independent check."""
    sys.path.insert(0, str(SRC))
    import triplekit.cli as cli

    calibration = Calibration()
    table = {}
    for workload in workloads.WORKLOADS:
        directory = OUT / "record" / workload
        shutil.rmtree(directory, ignore_errors=True)
        jobs = workloads.build_all_variants(workload, directory)
        for job in jobs:
            code, stdout, _ = run_job(cli, job, calibration, job.label)
            if code is None or not independent_check(job, stdout):
                fail(f"cannot record {job.label}: exit {code}, output {stdout[:200]!r}")
            table[job_key(job)] = [code, hashlib.sha256(stdout.encode("utf-8")).hexdigest()]
        print(f"{workload}: {len(jobs)} job variants", file=sys.stderr)
    EXPECTED.write_text(json.dumps({"jobs": table}, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
