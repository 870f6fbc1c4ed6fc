"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench -q

They cover: the shortest run (one pass) of every workload prints every
metric BENCHMARK.json declares, with its unit, and fails no job; the
input generator is deterministic per seed; and the fixture cohomology
dimensions that the benchmark checks on every run agree with an
assembly from the raw fixture files and sympy ranks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = ROOT / ".perfbench_out" / "test"


def bench(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reduced_run_reports_every_declared_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        info, result = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared
        if trace == 0:
            assert info["error_rate"] == 0
            assert result["metrics"]["ok_share"]["value"] == 1.0


def _generate(workload: str, seed: int, name: str):
    directory = SCRATCH / name / workload
    shutil.rmtree(directory, ignore_errors=True)
    jobs, _ = workloads.build_jobs(workload, directory, seed)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    argv = [tuple(Path(a).name if a.startswith(str(directory)) else a for a in j.argv) for j in jobs]
    return files, argv


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    sys.path.insert(0, str(ROOT / "src"))
    first = _generate(workload, 7, "a")
    assert _generate(workload, 7, "b") == first
    assert _generate(workload, 8, "c") != first


# ---------------------------------------------------------------------------
# independent cohomology dimensions, from the raw fixture JSON and sympy


def _raw_operator(name: str):
    """(d, dp, bracket of L, bracket of L', theta, T, weight) as plain
    dicts of Fractions, read without triplekit's loaders."""
    data = json.loads((ROOT / "src" / "triplekit" / "fixtures" / f"{name}.json").read_text())
    rep = data["action"]["representation"]

    def brackets(alg):
        out = {}
        for item in alg["brackets"]:
            i, j, k = (a - 1 for a in item["args"])
            for l, v in item["value"].items():
                out[(i, j, k, int(l) - 1)] = Fraction(v)
                out[(j, i, k, int(l) - 1)] = -Fraction(v)
        return out

    d, dp = rep["algebra"]["dim"], data["action"]["target"]["dim"]
    theta = {}
    for item in rep.get("theta", []):
        i, j = (a - 1 for a in item["args"])
        theta[(i, j)] = [[Fraction(x) for x in row] for row in item["matrix"]]
    T = [[Fraction(x) for x in row] for row in data["T"]]
    return d, dp, brackets(rep["algebra"]), brackets(data["action"]["target"]), theta, T, Fraction(data["weight"])


def _operator_complex(name: str):
    """Structure maps of the operator complex, written out from the
    definitions: the descendent bracket on L' and its representation
    theta_T, D_T on L."""
    d, dp, br, brp, theta, T, lam = _raw_operator(name)

    def tri(table, n, x, y, z):
        out = [Fraction(0)] * n
        for (i, j, k, l), c in table.items():
            if x[i] and y[j] and z[k]:
                out[l] += c * x[i] * y[j] * z[k]
        return out

    def th(x, y, u):  # theta(x, y) u for x, y in L and u in L'
        out = [Fraction(0)] * dp
        for (i, j), mat in theta.items():
            c = x[i] * y[j]
            if c:
                for r in range(dp):
                    out[r] += c * sum(mat[r][s] * u[s] for s in range(dp))
        return out

    def D(x, y, u):
        a, b = th(y, x, u), th(x, y, u)
        return [p - q for p, q in zip(a, b)]

    def Tm(u):
        return [sum(T[r][s] * u[s] for s in range(dp)) for r in range(d)]

    e = lambda n, i: [Fraction(int(t == i)) for t in range(n)]
    Tcol = [Tm(e(dp, u)) for u in range(dp)]
    bracket_T = {}
    for u, v, w in product(range(dp), repeat=3):
        t1 = D(Tcol[u], Tcol[v], e(dp, w))
        t2 = th(Tcol[v], Tcol[w], e(dp, u))
        t3 = th(Tcol[u], Tcol[w], e(dp, v))
        lp = tri(brp, dp, e(dp, u), e(dp, v), e(dp, w))
        bracket_T[(u, v, w)] = [t1[l] + t2[l] - t3[l] + lam * lp[l] for l in range(dp)]
    theta_T = {}
    for u, v in product(range(dp), repeat=2):
        cols = []
        for x in range(d):
            a = tri(br, d, e(d, x), Tcol[u], Tcol[v])
            inner = [p - q for p, q in zip(D(e(d, x), Tcol[u], e(dp, v)), th(e(d, x), Tcol[v], e(dp, u)))]
            ti = Tm(inner)
            cols.append([a[l] - ti[l] for l in range(d)])
        theta_T[(u, v)] = cols  # cols[x] = theta_T(u, v) e_x
    return d, dp, br, bracket_T, theta_T, D, Tm


def _coboundary_rows(deg, d, dp, bracket_T, theta_T):
    """Sparse matrix of d: C^deg -> C^(deg+2) with the printed D-sum sign
    (-1)^(i+1); columns index (args, l) of the cochain, rows the image."""
    n = (deg + 1) // 2

    def col(args, l):
        idx = 0
        for a in args:
            idx = idx * dp + a
        return idx * d + l

    def D_T(u, v):
        return [[theta_T[(v, u)][x][l] - theta_T[(u, v)][x][l] for l in range(d)] for x in range(d)]

    rows = []
    for args in product(range(dp), repeat=deg + 2):
        terms = [(theta_T[(args[-2], args[-1])], args[:-2], 1),
                 (theta_T[(args[-3], args[-1])], args[:-3] + (args[-2],), -1)]
        for i in range(1, n + 1):
            terms.append((D_T(args[2 * i - 2], args[2 * i - 1]), args[:2 * i - 2] + args[2 * i:], 1 if i % 2 else -1))
        for l in range(d):
            row = {}
            for mat, fargs, sign in terms:
                for x in range(d):
                    if mat[x][l]:
                        key = col(fargs, x)
                        row[key] = row.get(key, 0) + sign * mat[x][l]
            for i in range(1, n + 1):
                reduced = list(args[:2 * i - 2] + args[2 * i:])
                sign = -1 if (i + n + 1) % 2 else 1
                for jpos in range(2 * i, deg + 2):
                    w = bracket_T[(args[2 * i - 2], args[2 * i - 1], args[jpos])]
                    for src, c in enumerate(w):
                        if c:
                            red = list(reduced)
                            red[jpos - 2] = src
                            key = col(red, l)
                            row[key] = row.get(key, 0) + sign * c
            rows.append(row)
    return rows


def _constraint_rows(d, dp):
    """Skew in the first two slots and zero cyclic sum, per target coordinate."""
    def col(a, b, c, l):
        return ((a * dp + b) * dp + c) * d + l

    rows = []
    for a, b, c in product(range(dp), repeat=3):
        for l in range(d):
            skew = {col(a, b, c, l): 1}
            skew[col(b, a, c, l)] = skew.get(col(b, a, c, l), 0) + 1
            cyc = {}
            for key in (col(a, b, c, l), col(b, c, a, l), col(c, a, b, l)):
                cyc[key] = cyc.get(key, 0) + 1
            rows += [skew, cyc]
    return rows


def _rank(rows, ncols):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def qq(v):
        v = Fraction(v)
        return QQ(v.numerator, v.denominator)

    nonzero = ({c: qq(v) for c, v in row.items() if v} for row in rows)
    sparse = dict(enumerate(row for row in nonzero if row))  # DomainMatrix rejects empty rows
    return DomainMatrix(sparse, (len(rows), ncols), QQ).rank()


@pytest.mark.parametrize("name", workloads.FIXTURES)
def test_fixture_cohomology_dims_match_sympy(name):
    pytest.importorskip("sympy")
    d, dp, br, bracket_T, theta_T, D, Tm = _operator_complex(name)
    c1, c3 = dp * d, dp ** 3 * d
    d1 = _coboundary_rows(1, d, dp, bracket_T, theta_T)
    d3 = _coboundary_rows(3, d, dp, bracket_T, theta_T)
    rank_d1 = _rank(d1, c1)

    # delta X (v) = T D(X) v - [X, T v] on wedge coordinates X = e_i ^ e_j
    e = lambda n, i: [Fraction(int(t == i)) for t in range(n)]
    wedge = []
    for i, j in ((i, j) for i in range(d) for j in range(i + 1, d)):
        column = []
        for v in range(dp):
            a = Tm(D(e(d, i), e(d, j), e(dp, v)))
            Tv = Tm(e(dp, v))
            b = [sum(c * Tv[k] for (p, q, k, l2), c in br.items() if (p, q, l2) == (i, j, l)) for l in range(d)]
            column += [x - y for x, y in zip(a, b)]
        wedge.append(column)
    rank_wedge = _rank([{k: col[r] for k, col in enumerate(wedge)} for r in range(c1)], len(wedge))
    assert (c1 - rank_d1, rank_wedge, c1 - rank_d1 - rank_wedge) == workloads.FIXTURE_DIMS[(name, 1)]

    constraints = _constraint_rows(d, dp)
    dim_c3 = c3 - _rank(constraints, c3)
    dim_z3 = c3 - _rank(d3 + constraints, c3)
    assert dim_c3 == workloads.basis_dim_closed_form(3, dp, d)
    assert (dim_z3, rank_d1, dim_z3 - rank_d1) == workloads.FIXTURE_DIMS[(name, 3)]
