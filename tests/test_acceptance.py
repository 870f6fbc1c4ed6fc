"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Everything here is exact rational arithmetic, so every comparison is
equality; there are no tolerances to tune.  Run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion lines as they stream.
"""

import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from triplekit.cohomology import (
    Cochain,
    OperatorComplex,
    cochain_from_map,
    cochain_map_p,
    cochain_to_map,
    coboundary,
    cohomology_group,
    complex_audit,
    delta_wedge,
    one_cocycle_check,
    unflatten_cochain,
    zero_cochain,
)
from triplekit.deformations import (
    InfinitesimalDeformation,
    check_deformation,
    check_equivalence,
    deformation_cocycle_class,
    find_equivalence_witness,
)
from triplekit.fileio import algebra_to_json, dump_json, load_algebra, load_rbo, rbo_to_json
from triplekit.fixtures import FIXTURES, fixture_path
from triplekit.linalg import Matrix, SubspaceBasis, basis_vector
from triplekit.lts import HomomorphismCandidate, center, is_homomorphism, is_subsystem, verify_lts
from triplekit.properties import random_integer_matrix
from triplekit.representations import (
    adjoint_representation,
    self_action,
    semidirect_product,
    verify_action,
    verify_representation,
)
from triplekit.rota_baxter import (
    RBOHomomorphism,
    RelativeRBO,
    check_rbo,
    check_rbo_all_weights,
    check_rbo_homomorphism,
    descendent_lts,
    graph_subsystem,
    is_nijenhuis,
    is_rbo,
    nijenhuis_lift,
)

import dense_oracle
from conftest import SEEDS, elementary_cochain, known_operator_pool
from test_deformations import interpolated_coefficients

F = Fraction


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {desc}")
        raise
    print(f"criterion {num:2d} PASS  {desc}")


def span(dim, *indices):
    return SubspaceBasis.from_spanning([basis_vector(dim, i) for i in indices], dim)


# ---------------------------------------------------------------------------
# shared sweep used by criteria 5 and 6


@pytest.fixture(scope="module")
def sweep(rbo3, rbo4):
    results = {}
    for rbo, name in ((rbo3, "lts3"), (rbo4, "lts4")):
        d, dp = rbo.ambient.dim, rbo.source.dim
        for lam in (F(0), F(1)):
            rng = random.Random(SEEDS["equivalence"])
            pool = [random_integer_matrix(rng, d, dp) for _ in range(100)]
            pool.extend(known_operator_pool(name, rng, 10))
            ambient = semidirect_product(rbo.action, lam)
            rows = []
            for T in pool:
                direct = is_rbo(rbo.action, lam, T)
                graph = is_subsystem(
                    ambient, graph_subsystem(RelativeRBO(rbo.action, lam, T))
                )
                nijenhuis = is_nijenhuis(ambient, nijenhuis_lift(rbo.action, T))
                rows.append((T, direct, graph, nijenhuis))
            results[(name, lam)] = rows
    return results


def test_criterion_01_fixture_validity(lts3, lts4):
    with criterion(1, "fixtures verify; centers match the stated spans exactly"):
        assert verify_lts(lts3) == ()
        assert verify_lts(lts4) == ()
        assert center(lts3) == span(3, 2)
        assert center(lts4) == span(4, 2, 3)


def test_criterion_02_adjoint_action(lts3, lts4):
    with criterion(2, "adjoint representations verify and act, exactly"):
        for L in (lts3, lts4):
            assert verify_representation(adjoint_representation(L)) == ()
            assert verify_action(self_action(L)) == ()


def test_criterion_03_projection_operators(rbo3, rbo4):
    with criterion(3, "projections are operators at 0, 1, -2, 5/3 and for every weight"):
        for rbo in (rbo3, rbo4):
            for lam in (F(0), F(1), F(-2), F(5, 3)):
                assert check_rbo(rbo.action, lam, rbo.T) == ()
            assert check_rbo_all_weights(rbo.action, rbo.T) == ()


def test_criterion_04_semidirect_products(lts3, lts4):
    with criterion(4, "semidirect products verify at 0, 1, -1 and restrict to the originals"):
        for L in (lts3, lts4):
            action, base = self_action(L), dense_oracle.bracket_tensor(L)
            for lam in (F(0), F(1), F(-1)):
                sd = semidirect_product(action, lam)
                assert verify_lts(sd) == ()
                got = dense_oracle.bracket_tensor(sd)
                for i, j, k in product(range(L.dim), repeat=3):
                    assert got[i][j][k][: L.dim] == base[i][j][k]
                    assert all(x == 0 for x in got[i][j][k][L.dim:])


def test_criterion_05_three_way_equivalence(sweep):
    with criterion(5, "identity/graph/Nijenhuis agree on 100+ seeded maps per fixture at 0 and 1"):
        for (name, lam), rows in sweep.items():
            assert len(rows) >= 100
            for T, direct, graph, nijenhuis in rows:
                assert direct == graph == nijenhuis, (name, lam, T.entries)


def test_criterion_06_descendent_and_induced(sweep, rbo3, rbo4):
    with criterion(6, "every operator found yields a descendent system, a homomorphism, and coefficients"):
        ambients = {"lts3": rbo3, "lts4": rbo4}
        total = 0
        for (name, lam), rows in sweep.items():
            base = ambients[name]
            for T, direct, _graph, _nij in rows:
                if not direct:
                    continue
                total += 1
                rbo = RelativeRBO(base.action, lam, T)
                desc = descendent_lts(rbo)
                assert verify_lts(desc) == ()
                assert is_homomorphism(HomomorphismCandidate(desc, base.ambient, T))
                from triplekit.cohomology import induced_rep

                assert verify_representation(induced_rep(rbo)) == ()
        assert total >= 20, "operator sample too small to be meaningful"


def test_criterion_07_complex_property(rbo3, rbo4, lts3):
    with criterion(7, "wedge coboundaries are closed; the double coboundary vanishes"):
        for base in (rbo3, rbo4):
            w = base.ambient.dim * (base.ambient.dim - 1) // 2
            for lam in (F(0), F(1)):
                rbo = RelativeRBO(base.action, lam, base.T)
                for k in range(w):
                    coords = tuple(F(1) if t == k else F(0) for t in range(w))
                    x = Cochain(-1, rbo.source.dim, rbo.ambient.dim, coords)
                    assert OperatorComplex(rbo).apply(delta_wedge(rbo, x)).is_zero()
        # Yamaguti's coboundary, against the oracle's walk over every
        # output argument tuple in degrees 1, 3 and 5
        adj = adjoint_representation(lts3)
        assert complex_audit(adj) is True
        walked = {degree: dense_oracle.assemble(adj, degree) for degree in (1, 3, 5)}
        rng = random.Random(SEEDS["yamaguti"])
        for _ in range(50):
            f = cochain_from_map(random_integer_matrix(rng, 3, 3))
            g = coboundary(adj, f)
            assert g == dense_oracle.image(walked[1], f)
            assert coboundary(adj, g).is_zero()
        for _ in range(5):
            h = unflatten_cochain(3, 3, 3, tuple(rng.randint(-3, 3) for _ in range(81)))
            g = coboundary(adj, h)
            assert g == dense_oracle.image(walked[3], h)
            assert coboundary(adj, g) == dense_oracle.image(walked[5], g)


def test_criterion_08_cohomology_oracle(rbo3):
    with criterion(8, "degree-1 cohomology dims match a from-scratch oracle exactly"):
        sympy = pytest.importorskip("sympy")
        R = sympy.Rational

        # raw data, transcribed independently of the library internals
        d = 3
        bracket = {}  # (i,j,k) -> dict col -> value, 0-based
        bracket[(0, 1, 0)] = {2: R(1)}
        bracket[(1, 0, 0)] = {2: R(-1)}
        P = [[R(1), 0, 0], [0, 0, 0], [0, 0, 0]]
        lam = R(1)

        def br(x, y, z):
            out = [R(0)] * d
            for (i, j, k), cols in bracket.items():
                c = x[i] * y[j] * z[k]
                if c:
                    for l, val in cols.items():
                        out[l] += c * val
            return out

        def apply(mat, v):
            return [sum(mat[r][c] * v[c] for c in range(d)) for r in range(d)]

        E = [[R(1) if t == i else R(0) for t in range(d)] for i in range(d)]
        theta = lambda x, y, u: br(u, x, y)
        Dop = lambda x, y, u: br(x, y, u)
        Tmap = lambda v: apply(P, v)

        def bracket_T(u, v, w):
            t1 = Dop(Tmap(u), Tmap(v), w)
            t2 = theta(Tmap(v), Tmap(w), u)
            t3 = theta(Tmap(u), Tmap(w), v)
            t4 = br(u, v, w)
            return [t1[l] + t2[l] - t3[l] + lam * t4[l] for l in range(d)]

        def theta_T(u, v, x):
            a = br(x, Tmap(u), Tmap(v))
            inner = [
                Dop(x, Tmap(u), v)[l] - theta(x, Tmap(v), u)[l] for l in range(d)
            ]
            ti = Tmap(inner)
            return [a[l] - ti[l] for l in range(d)]

        def D_T(u, v, x):
            a = [theta_T(v, u, x)[l] - theta_T(u, v, x)[l] for l in range(d)]
            return a

        # partial: C^1 -> C^3 assembled entry by entry
        def partial(fmap):  # fmap: list of d vectors
            out = {}
            for a, b, c in product(range(d), repeat=3):
                acc = theta_T(E[b], E[c], fmap[a])
                t = theta_T(E[a], E[c], fmap[b])
                acc = [acc[l] - t[l] for l in range(d)]
                t = D_T(E[a], E[b], fmap[c])
                acc = [acc[l] + t[l] for l in range(d)]
                w = bracket_T(E[a], E[b], E[c])
                for lsrc in range(d):
                    if w[lsrc]:
                        acc = [acc[l] - w[lsrc] * fmap[lsrc][l] for l in range(d)]
                out[(a, b, c)] = acc
            return out

        cols = []
        for u in range(d):
            for l in range(d):
                fmap = [[R(0)] * d for _ in range(d)]
                fmap[u][l] = R(1)
                img = partial(fmap)
                col = []
                for args in product(range(d), repeat=3):
                    col.extend(img[args])
                cols.append(col)
        M_partial = sympy.Matrix(cols).T  # 81 x 9

        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]

        def delta(pair_index):
            i, j = pairs[pair_index]
            fmap = []
            for v in range(d):
                dx = Dop(E[i], E[j], E[v])
                t = Tmap(dx)
                bx = br(E[i], E[j], Tmap(E[v]))
                fmap.append([t[l] - bx[l] for l in range(d)])
            return fmap

        dcols = []
        for k in range(len(pairs)):
            fmap = delta(k)
            dcols.append([x for row in fmap for x in row])
        M_delta = sympy.Matrix(dcols).T  # 9 x 3

        dim_Z = 9 - M_partial.rank()
        dim_B = M_delta.rank()
        dim_H = dim_Z - dim_B

        # express the boundary matrix in constrained degree-3 coordinates
        # and confirm the rank is unchanged
        idx = {t: p for p, t in enumerate(product(range(d), repeat=3))}
        crows = []
        for t in product(range(d), repeat=3):
            for l in range(d):
                row = [0] * 81
                row[idx[t] * 3 + l] += 1
                row[idx[(t[1], t[0], t[2])] * 3 + l] += 1
                crows.append(row)
                row = [0] * 81
                row[idx[t] * 3 + l] += 1
                row[idx[(t[1], t[2], t[0])] * 3 + l] += 1
                row[idx[(t[2], t[0], t[1])] * 3 + l] += 1
                crows.append(row)
        constrained = sympy.Matrix(crows).nullspace()
        Cmat = sympy.Matrix.hstack(*constrained)
        coords = Cmat.solve_least_squares(M_partial)
        assert (Cmat * coords - M_partial).is_zero_matrix
        assert coords.rank() == M_partial.rank()

        got = cohomology_group(rbo3, 1)
        assert (got.dim_cocycles, got.dim_coboundaries, got.dim_H) == (
            dim_Z, dim_B, dim_H,
        )


def test_criterion_09_deformation_theory(rbo3):
    with criterion(9, "order-t matches closedness; equivalent pairs share a class; wedge images are null"):
        # order-t and the cocycle check both read d_1 S, so each is held
        # against the interpolation oracle's t coefficient c1
        rng = random.Random(SEEDS["deformation"])
        disagreements = 0
        nontrivial = 0
        for _ in range(100):
            S = random_integer_matrix(rng, 3, 3)
            deform = InfinitesimalDeformation(rbo3, cochain_from_map(S))
            order_t = all(v.rule != "order-t" for v in check_deformation(deform))
            cocycle = one_cocycle_check(rbo3, deform.direction) == ()
            oracle = not any(
                any(c1) for _, (c1, _, _) in interpolated_coefficients(rbo3.action, rbo3.weight, rbo3.T, S)
            )
            if not order_t == cocycle == oracle:
                disagreements += 1
            if not oracle:
                nontrivial += 1
        assert disagreements == 0
        assert nontrivial > 0

        data = OperatorComplex(rbo3).cohomology(1)
        rng = random.Random(SEEDS["deformation"])
        pairs_checked = 0
        for trial in range(25):
            flat = [F(0)] * data.cocycles.ambient_dim
            for vec in data.cocycles.vectors:
                c = F(rng.randint(-2, 2))
                for t, x in enumerate(vec):
                    flat[t] += c * x
            s2 = unflatten_cochain(1, 3, 3, tuple(flat))
            coords = tuple(F(rng.randint(-2, 2)) for _ in range(3))
            if trial == 0:
                s2 = zero_cochain(1, 3, 3)
                coords = (F(1), F(0), F(0))
            shift = delta_wedge(rbo3, Cochain(-1, 3, 3, coords))
            s1 = cochain_from_map(cochain_to_map(s2) + cochain_to_map(shift))
            d1 = InfinitesimalDeformation(rbo3, s1)
            d2 = InfinitesimalDeformation(rbo3, s2)
            w = find_equivalence_witness(d1, d2)
            if w is None:
                continue
            assert check_equivalence(d1, d2, w) == ()
            c1 = deformation_cocycle_class(d1)
            c2 = deformation_cocycle_class(d2)
            assert c1 == c2
            pairs_checked += 1
        assert pairs_checked >= 1

        for k in range(3):
            coords = tuple(F(1) if t == k else F(0) for t in range(3))
            f = delta_wedge(rbo3, Cochain(-1, 3, 3, coords))
            cls = deformation_cocycle_class(InfinitesimalDeformation(rbo3, f))
            assert all(x == 0 for x in cls)


def test_criterion_10_functoriality(rbo3):
    with criterion(10, "cochain transport intertwines the coboundaries for identity and found pairs"):
        identity = RBOHomomorphism(rbo3, rbo3, Matrix.identity(3), Matrix.identity(3))
        assert check_rbo_homomorphism(identity) == ()

        nonidentity = None
        for sa in product((1, -1), repeat=3):
            for sb in product((1, -1), repeat=3):
                if all(s == 1 for s in sa) and all(s == 1 for s in sb):
                    continue
                psi_l = Matrix.from_rows(
                    [[sa[0], 0, 0], [0, sa[1], 0], [0, 0, sa[2]]]
                )
                psi_p = Matrix.from_rows(
                    [[sb[0], 0, 0], [0, sb[1], 0], [0, 0, sb[2]]]
                )
                h = RBOHomomorphism(rbo3, rbo3, psi_l, psi_p)
                if check_rbo_homomorphism(h) == ():
                    nonidentity = h
                    break
            if nonidentity:
                break
        assert nonidentity is not None, "no nonidentity diagonal sign pair found"

        cx = OperatorComplex(rbo3)
        for h in (identity, nonidentity):
            for flat in range(9):
                f = elementary_cochain(1, 3, 3, flat)
                left = cochain_map_p(h, cx.apply(f))
                right = cx.apply(cochain_map_p(h, f))
                assert left == right


def test_criterion_11_determinism_and_round_trip(tmp_path):
    with criterion(11, "fixture files round-trip byte-identically; CLI reruns are byte-identical"):
        for name, info in FIXTURES.items():
            path = fixture_path(name)
            raw = path.read_text(encoding="utf-8")
            if info["kind"] == "algebra":
                again = dump_json(algebra_to_json(load_algebra(path)))
            else:
                again = dump_json(rbo_to_json(load_rbo(path)))
            assert again == raw, name

        def run_cli(*args):
            # the child gets the source tree on its path, as pytest's own process does
            src = str(Path(__file__).resolve().parents[1] / "src")
            path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
            return subprocess.run(
                [sys.executable, "-m", "triplekit", *args],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
            )

        for args in (
            ("lts", "verify", str(fixture_path("lts3"))),
            ("rbo", "check", "--weight", "1", str(fixture_path("rbo3_P"))),
            ("coh", "group", "--degree", "1", str(fixture_path("rbo3_P"))),
            ("fixtures", "list"),
        ):
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.returncode == second.returncode
            assert first.stdout == second.stdout
            assert first.returncode == 0
