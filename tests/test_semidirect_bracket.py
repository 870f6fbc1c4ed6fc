"""The sparse semidirect bracket against the dense formula it replaced.

``dense_theta`` and ``oracle_bracket`` are the mixed term as it was
written before the action was contracted sparsely: build theta(x, y)
as the dense sum of the matrices x_i y_j theta(e_i, e_j), D(x, y) as a
difference of two of them, and only then apply each to its vector.
They read only the dense table of the theta(e_i, e_j), built by
``dense_oracle.theta_tensor``.
"""

import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from triplekit import cohomology, representations, rota_baxter
from triplekit.cli import main
from triplekit.cohomology import zero_cochain
from triplekit.fileio import cochain_to_json, dump_json, matrix_to_json, rbo_to_json
from triplekit.fixtures import fixture_path
from triplekit.linalg import Matrix, VerificationError, basis_vector
from triplekit.lts import LieTripleSystem
from triplekit.representations import (
    RepresentationData,
    self_action,
    semidirect_brackets,
    semidirect_product,
    vector_family,
    verify_action,
)
from triplekit.rota_baxter import RelativeRBO

import dense_oracle
from conftest import SEEDS, ladder

F = Fraction
WEIGHTS = (F(0), F(1), F(-2), F(1, 2))


def dense_theta(th, x, y):
    """theta(x, y) = sum_ij x_i y_j theta(e_i, e_j) over the dense table th."""
    n, d = th[0][0].rows, len(th)
    out = Matrix.zeros(n, n)
    for i, j in product(range(d), repeat=2):
        if x[i] * y[j]:
            out = out + th[i][j].scale(x[i] * y[j])
    return out


def oracle_bracket(a, weight, x1, u1, x2, u2, x3, u3):
    """[(x1,u1),(x2,u2),(x3,u3)]: the L' part is
    D(x1,x2)u3 + theta(x2,x3)u1 - theta(x1,x3)u2 + weight [u1,u2,u3]'."""
    th = dense_oracle.theta_tensor(a.rep)
    # a mixed term whose L' argument is zero is that zero vector
    t1 = (dense_theta(th, x2, x1) - dense_theta(th, x1, x2)).apply(u3) if any(u3) else u3
    t2 = dense_theta(th, x2, x3).apply(u1) if any(u1) else u1
    t3 = dense_theta(th, x1, x3).apply(u2) if any(u2) else u2
    lam = a.target.bracket_eval(u1, u2, u3)
    part_p = tuple(p + q - r + weight * s for p, q, r, s in zip(t1, t2, t3, lam))
    return a.algebra.bracket_eval(x1, x2, x3), part_p


def oracle_product(a, weight):
    d, n = a.algebra.dim, a.algebra.dim + a.target.dim

    def split(idx):
        e = basis_vector(n, idx)
        return e[:d], e[d:]

    entries = {}
    for i, j, k in product(range(n), repeat=3):
        pl, pp = oracle_bracket(a, weight, *split(i), *split(j), *split(k))
        if any(pl + pp):
            entries[(i, j, k)] = pl + pp
    names = tuple(a.algebra.basis_names) + tuple(f"{nm}'" for nm in a.target.basis_names)
    return LieTripleSystem.from_entries(n, entries, names)


ACTIONS = ["rbo3", "rbo4", "ladder4", "sl2_lts", "lts3", "lts4"]


def action(name, request):
    if name == "ladder4":
        return ladder(4).action
    if name in ("rbo3", "rbo4"):
        return request.getfixturevalue(name).action
    return self_action(request.getfixturevalue(name))


def random_vector(rng, n):
    return tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))


def one_member(a, x, u):
    """The family whose only member is (x, u)."""
    return vector_family(Matrix.from_columns([x], a.algebra.dim), Matrix.from_columns([u], a.target.dim))


@pytest.mark.parametrize("name", ACTIONS)
def test_bracket_matches_dense_oracle(name, request):
    # the kernel on one-member families, and the per-triple bracket the
    # tests keep as an oracle, against the dense formula
    a = action(name, request)
    d, dp = a.algebra.dim, a.target.dim
    rng = random.Random(SEEDS["semidirect"])
    for weight in WEIGHTS:
        # every pattern of zero u-slots, with dense random x and u otherwise
        for zeros in product((False, True), repeat=3):
            for _ in range(3):
                xs = [random_vector(rng, d) for _ in range(3)]
                us = [(F(0),) * dp if z else random_vector(rng, dp) for z in zeros]
                args = [v for pair in zip(xs, us) for v in pair]
                want = oracle_bracket(a, weight, *args)
                table = semidirect_brackets(a, weight, *(one_member(a, x, u) for x, u in zip(xs, us)))
                assert table.get((0, 0, 0), ((F(0),) * d, (F(0),) * dp)) == want, (weight, zeros)
                assert dense_oracle.semidirect_bracket(a, weight, *args) == want, (weight, zeros)


@pytest.mark.parametrize("name", ACTIONS)
def test_theta_vec_matches_dense_oracle(name, request):
    rep = action(name, request).rep
    th = dense_oracle.theta_tensor(rep)
    rng = random.Random(SEEDS["semidirect"])
    for _ in range(5):
        x, y = random_vector(rng, rep.algebra.dim), random_vector(rng, rep.algebra.dim)
        assert rep.theta_vec(x, y) == dense_theta(th, x, y)
        assert rep.d_vec(x, y) == dense_theta(th, y, x) - dense_theta(th, x, y)


@pytest.mark.parametrize("name", ACTIONS)
def test_semidirect_product_matches_oracle(name, request):
    a = action(name, request)
    if verify_action(a):
        with pytest.raises(VerificationError):
            semidirect_product(a, F(1))
        return
    for weight in WEIGHTS:
        assert semidirect_product(a, weight) == oracle_product(a, weight), weight


def test_operator_commands_build_no_theta_matrix(monkeypatch, tmp_path, capsys):
    calls = []

    def counting(name):
        inner = getattr(RepresentationData, name)

        def wrapper(self, *args):
            calls.append(name)
            return inner(self, *args)

        return wrapper

    for name in ("theta_vec", "d_vec"):
        monkeypatch.setattr(RepresentationData, name, counting(name))
    op = str(fixture_path("rbo4_P"))
    zero = tmp_path / "zero.json"
    zero.write_text(dump_json(cochain_to_json(zero_cochain(1, 4, 4))))
    s = str(zero)
    wedge = tmp_path / "wedge.json"
    wedge.write_text(dump_json(cochain_to_json(zero_cochain(-1, 4, 4))))
    for argv in (
        ("coh", "group", op, "--degree", "1"),
        ("coh", "group", op, "--degree", "3"),
        ("coh", "coboundary", op, s),
        ("coh", "cocycle", op, s),
        ("def", "check", op, s),
        ("def", "check", op, s, "--strict"),
        ("def", "class", op, s),
        ("def", "trivial", op, s),
        ("def", "trivial", op, s, "--strict"),
        ("def", "equiv", op, s, s, "--strict"),
        ("def", "equiv", op, s, s, "--strict", "--witness", str(wedge)),
    ):
        calls.clear()
        assert main(list(argv)) == 0, argv
        capsys.readouterr()
        assert calls == [], argv
    # the counter is live: the homomorphism check contracts theta with
    # the columns of psi_L, arbitrary arguments, on purpose.  It reads
    # its D rows off the theta gaps, and d_vec goes through theta_vec,
    # so the theta_vec count would see any D matrix built as well
    identity = matrix_to_json(Matrix.identity(4))
    hom = tmp_path / "hom.json"
    hom.write_text(dump_json({"source": op, "target": op, "psi_L": identity, "psi_Lprime": identity}))
    assert main(["rbo", "hom", str(hom)]) == 0
    capsys.readouterr()
    assert "theta_vec" in calls and "d_vec" not in calls


def test_cohomology_of_a_non_operator_checks_rb_once(monkeypatch, tmp_path, capsys, rbo4):
    bad = tmp_path / "bad.json"
    bad.write_text(dump_json(rbo_to_json(RelativeRBO(rbo4.action, F(1), Matrix.identity(4)))))
    zero = tmp_path / "zero.json"
    zero.write_text(dump_json(cochain_to_json(zero_cochain(1, 4, 4))))
    expected = {
        ("coh", "group"): "cohomology requires the Rota-Baxter identity to hold",
        ("coh", "coboundary"): "descendent system requires the Rota-Baxter identity; 2 basis triples fail",
    }
    for argv in (
        ("coh", "group", str(bad), "--degree", "1"),
        ("coh", "group", str(bad), "--degree", "3"),
        ("coh", "coboundary", str(bad), str(zero)),
    ):
        assert main(list(argv)) == 1, argv
        want = '{\n  "error": "%s",\n  "kind": "verification"\n}\n' % expected[argv[:2]]
        assert capsys.readouterr().out == want, argv

    # on an operator, (RB) is read off one bracket pass over the graph
    # family; induced_rep adds two, one for theta_T and one for the
    # ambient brackets its D_T check reads
    assert bracket_passes(monkeypatch, capsys, "coh", "group", str(fixture_path("rbo4_P")), "--degree", "1") == {
        "_rb_defects": 1, "induced_rep": 2,
    }


def bracket_passes(monkeypatch, capsys, *argv):
    """{calling function: number of semidirect_brackets passes} for one
    command, which must succeed."""
    passes = Counter()
    inner = representations.semidirect_brackets

    def counting(*args):
        passes[sys._getframe(1).f_code.co_name] += 1
        return inner(*args)

    with monkeypatch.context() as patch:
        for module in (representations, rota_baxter, cohomology):
            patch.setattr(module, "semidirect_brackets", counting)
        assert main(list(argv)) == 0, argv
    capsys.readouterr()
    return dict(passes)


def test_deformation_check_adds_two_coefficient_passes(monkeypatch, tmp_path, capsys):
    # the operator complex's three passes, then the (RB) defects of S
    # alone and of T + S, from which the t^2 and t^3 coefficients come
    zero = tmp_path / "zero.json"
    zero.write_text(dump_json(cochain_to_json(zero_cochain(1, 4, 4))))
    assert bracket_passes(monkeypatch, capsys, "def", "check", str(fixture_path("rbo4_P")), str(zero)) == {
        "_rb_defects": 3, "induced_rep": 2,
    }


@pytest.mark.parametrize("trials", [0, 1, 5])
def test_equivalence_sweep_is_one_product_and_one_pass_per_trial(monkeypatch, capsys, trials):
    argv = ("rbo", "equivalence", str(fixture_path("rbo4_P")), "--trials", str(trials))
    want = {"semidirect_product": 1, "_rb_defects": trials} if trials else {"semidirect_product": 1}
    assert bracket_passes(monkeypatch, capsys, *argv) == want


def test_equivalence_sweep_rejects_each_candidate_at_its_first_failing_triple(monkeypatch, capsys):
    # rbo4_P's five seeded candidates all fail (RB), and each fails the
    # Nijenhuis check at the first triple it visits, one with x != y:
    # five torsion evaluations and 45 brackets.  Scanning from
    # (n-1, n-1, n-1) with the (x, x, z) triples among the first took 45
    # evaluations and 385 brackets.
    counts = Counter()
    torsion, bracket = rota_baxter._nijenhuis_torsion, LieTripleSystem.bracket_eval

    def counting_torsion(L, N):
        defect = torsion(L, N)

        def counted(*triple):
            counts["torsion"] += 1
            return defect(*triple)

        return counted

    def counting_bracket(self, *args):
        counts["bracket_eval"] += 1
        return bracket(self, *args)

    monkeypatch.setattr(rota_baxter, "_nijenhuis_torsion", counting_torsion)
    monkeypatch.setattr(LieTripleSystem, "bracket_eval", counting_bracket)
    assert main(["rbo", "equivalence", str(fixture_path("rbo4_P")), "--trials", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["operators_found"] == 0
    assert counts == {"torsion": 5, "bracket_eval": 45}
