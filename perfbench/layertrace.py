"""Outside-in tracing of triplekit's layers for the benchmark's traced run.

The program has no spans of its own yet, so the benchmark records them
from outside: every public function of each layer module is replaced
by a wrapper, in every ``triplekit`` module namespace that holds it
(the CLI and ``deformations`` import names from other modules).  A few
methods that do a layer's work are wrapped on their class as well.
Accessors such as ``Matrix.column`` or ``Cochain.value`` stay
unwrapped.

The functions in ``COUNT_ONLY`` are counted but get no span: each call
does a few microseconds of work inside a loop of another layer, so a
span would cost as much as the work it measures, and their time counts
toward the loop that drives them.  ``Matrix.apply`` is among them: it
is the arithmetic of the coboundary and contraction loops.

Spans (name, start, end, parent, job) are kept in flat arrays in memory
and written once, at the end.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = (
    "cli", "fileio", "lts", "representations", "rota_baxter",
    "properties", "cohomology", "deformations", "linalg",
)

METHODS = {
    "linalg": (("Matrix", "apply"), ("SubspaceBasis", "from_spanning")),
    "lts": (("LieTripleSystem", "bracket_eval"),),
    "representations": (
        ("RepresentationData", "theta_vec"),
        ("RepresentationData", "d_vec"),
        ("RepresentationData", "d_basis"),
    ),
}

COUNT_ONLY = {
    "linalg.apply", "linalg.vec_is_zero", "linalg.vec_add", "linalg.vec_sub",
    "linalg.vec_scale", "linalg.basis_vector", "linalg.zero_vector",
    "linalg.scalar_vector", "linalg.parse_scalar", "linalg.format_scalar",
    "cohomology.flat_arg_index",
}

# Exact eliminations, whose input matrix is measured from the call arguments.
ELIMINATIONS = ("rank", "kernel_basis", "solve", "invert", "from_spanning")

# Time spent measuring elimination inputs; a span of its own so that it
# is not charged to the caller's self time.
STATS_SPAN = "trace.elim_stats"


def _nonzeros(rows) -> int:
    return sum(1 for row in rows for x in row if x)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counted: list[int] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack = [-1]
        self.job_id = -1
        self.elim_calls = 0
        self.elim_entries = 0
        self.elim_nonzeros = 0
        self.max_elim_entries = 0
        self.bytes_out = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.counted.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _elimination(self, func: str, args):
        """Record the shape and nonzeros of the matrix entering an
        elimination; returns the arguments, with a generator of spanning
        vectors materialized so the call still sees every vector."""
        idx = self._open(self._id(STATS_SPAN))
        if func == "from_spanning":
            vectors = args[1] if isinstance(args[1], (list, tuple)) else list(args[1])
            args = (args[0], vectors) + tuple(args[2:])
            entries, nnz = len(vectors) * args[2], _nonzeros(vectors)
        else:
            m = args[0]
            entries, nnz = m.rows * m.cols, _nonzeros(m.entries)
            if func == "solve":
                entries += m.rows
                nnz += sum(1 for x in args[1] if x)
        self.elim_calls += 1
        self.elim_entries += entries
        self.elim_nonzeros += nnz
        self.max_elim_entries = max(self.max_elim_entries, entries)
        self._close(idx)
        return args

    def wrap(self, name: str, fn):
        nid = self._id(name)
        layer, func = name.split(".", 1)
        elimination = layer == "linalg" and func in ELIMINATIONS
        counts_bytes = name == "fileio.dump_json"
        if name in COUNT_ONLY:
            counted = self.counted

            def count(*args, **kwargs):
                counted[nid] += 1
                return fn(*args, **kwargs)

            traced = count
        else:
            traced = self._span_wrapper(nid, fn, func if elimination else None, counts_bytes)
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _span_wrapper(self, nid: int, fn, elimination, counts_bytes):
        def traced(*args, **kwargs):
            if elimination:
                args = self._elimination(elimination, args)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts_bytes:
                self.bytes_out += len(result.encode("utf-8"))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer module, in every
        triplekit namespace that binds it, and the methods in METHODS."""
        package = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == "triplekit" or key.startswith("triplekit."))
        ]
        for layer in LAYERS:
            mod = sys.modules[f"triplekit.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", obj)
                for holder in package:
                    if vars(holder).get(attr) is obj:
                        setattr(holder, attr, traced)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(f"{layer}.{meth}", raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(f"{layer}.{meth}", raw))

    # -- analysis -----------------------------------------------------------

    def layer_totals(self):
        """(self seconds, calls) per layer, plus per-name calls and
        inclusive seconds."""
        n = len(self.start)
        self_time = [0.0] * n
        for i in range(n):
            dur = self.end[i] - self.start[i]
            self_time[i] += dur
            p = self.parent[i]
            if p >= 0:
                self_time[p] -= dur
        layer_of = [name.split(".", 1)[0] for name in self.names]
        per_layer_self: dict[str, float] = {}
        per_layer_calls: dict[str, int] = {}
        name_calls = list(self.counted)
        name_incl = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            layer = layer_of[nid]
            per_layer_self[layer] = per_layer_self.get(layer, 0.0) + self_time[i]
            name_calls[nid] += 1
            name_incl[nid] += self.end[i] - self.start[i]
        for nid, name in enumerate(self.names):
            if name != STATS_SPAN:
                layer = layer_of[nid]
                per_layer_calls[layer] = per_layer_calls.get(layer, 0) + name_calls[nid]
        calls = dict(zip(self.names, name_calls))
        incl = dict(zip(self.names, name_incl))
        return per_layer_self, per_layer_calls, calls, incl

    def calls_by_job(self, name: str) -> dict[int, int]:
        nid = self._ids.get(name)
        out: dict[int, int] = {}
        for i in range(len(self.name)):
            if self.name[i] == nid:
                out[self.job[i]] = out.get(self.job[i], 0) + 1
        return out

    def write(self, path, job_labels) -> None:
        """Spans as gzip-compressed JSON lines: a header naming the span
        names and jobs, then one [name, start, end, parent, job] per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({
                "fields": ["name", "start", "end", "parent", "job"],
                "names": self.names,
                "jobs": job_labels,
            }) + "\n")
            for i in range(len(self.start)):
                out.write(f"[{self.name[i]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]},{self.job[i]}]\n")
