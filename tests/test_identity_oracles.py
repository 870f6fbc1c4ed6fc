"""Each identity on the operator path has one evaluator in the package.

These tests hold each against the form it replaced, kept in
``dense_oracle.py``: (R2) as a dense matrix loop, the Nijenhuis torsion
expanded term by term, and the D_T self-check of the induced
representation as a comparison of projected brackets.  Every comparison
requires both outcomes to occur.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from triplekit.cli import main
from triplekit.cohomology import OperatorComplex, complex_audit, induced_rep
from triplekit.fileio import dump_json, rbo_to_json
from triplekit.linalg import Matrix, VerificationError, vec_sub
from triplekit.lts import LieTripleSystem, zero_system
from triplekit.properties import random_integer_matrix
from triplekit.representations import (
    ActionData,
    RepresentationData,
    adjoint_representation,
    semidirect_product,
    verify_representation,
    zero_representation,
)
from triplekit.rota_baxter import RelativeRBO, check_rbo, nijenhuis_defect, nijenhuis_lift

import dense_oracle
from conftest import SEEDS, make_sln_lts
from test_deformations import perturbed_adjoint_operator

F = Fraction

D_T_ERROR = "derived D_T disagrees with its closed formula; input is not a valid operator"


def random_theta(rng, L, n, density=0.3):
    """Seeded random theta(e_i, e_j) on F^n, most of them zero."""
    return dense_oracle.representation(L, n, tuple(
        tuple(random_integer_matrix(rng, n, n) if rng.random() < density else Matrix.zeros(n, n)
              for _ in range(L.dim))
        for _ in range(L.dim)
    ))


def test_r2_report_matches_dense_loop(lts3, lts4, sl2_lts, rbo3, rbo4):
    rng = random.Random(SEEDS["identities"])
    reps = [adjoint_representation(L) for L in (lts3, lts4, sl2_lts, make_sln_lts(3))]
    reps += [induced_rep(rbo) for rbo in (rbo3, rbo4)]
    reps += [perturbed_adjoint_operator(L, Matrix.zeros(L.dim, L.dim)).action.rep for L in (sl2_lts, lts4)]
    reps += [random_theta(rng, L, n) for L, n in ((lts3, 2), (lts4, 3), (sl2_lts, 3))]
    held = failed = 0
    for rep in reps:
        got = [v.witness for v in verify_representation(rep) if v.rule == "module-identity-2"]
        want = dense_oracle.r2_violations(rep)
        assert got == want, rep.algebra.dim
        failed += len(want)
        held += rep.algebra.dim**4 - len(want)
    assert held and failed, (held, failed)


def test_nijenhuis_defect_matches_expansion(lts3, lts4, sl2_lts, rbo3, rbo4):
    rng = random.Random(SEEDS["identities"])
    cases = []
    for L in (lts3, lts4, sl2_lts):
        cases += [(L, Matrix.identity(L.dim)), (L, Matrix.zeros(L.dim, L.dim))]
        cases += [(L, random_integer_matrix(rng, L.dim, L.dim)) for _ in range(2)]
        cases.append((L, random_integer_matrix(rng, L.dim, L.dim).scale(F(1, 3))))
    for rbo in (rbo3, rbo4):
        sd = semidirect_product(rbo.action, rbo.weight)
        T = random_integer_matrix(rng, rbo.ambient.dim, rbo.source.dim)
        cases += [(sd, nijenhuis_lift(rbo.action, rbo.T)), (sd, nijenhuis_lift(rbo.action, T))]
    held = failed = 0
    for L, N in cases:
        for x, y, z in product(range(L.dim), repeat=3):
            want = dense_oracle.nijenhuis_defect(L, N, x, y, z)
            assert nijenhuis_defect(L, N, x, y, z) == want, (x, y, z)
            failed += any(want)
            held += not any(want)
    assert held and failed, (held, failed)


def noncyclic_operator():
    """[e1,e2,e3] = e1 alone, skew-completed, which breaks the cyclic
    identity; the zero action on F^3 and T the projection onto
    span{e1,e2}, at weight 0.  No bracket of span{e1,e2} is nonzero, so
    (RB) holds."""
    e1 = (F(1), F(0), F(0))
    L = LieTripleSystem.from_entries(3, {(0, 1, 2): e1, (1, 0, 2): tuple(-x for x in e1)})
    T = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    return RelativeRBO(ActionData(zero_representation(L, 3), zero_system(3)), F(0), T)


def test_d_t_self_check_rejects_a_noncyclic_ambient(tmp_path, capsys):
    rbo = noncyclic_operator()
    assert check_rbo(rbo.action, rbo.weight, rbo.T) == ()
    assert any(gap != Matrix.zeros(3, 3) for gap in dense_oracle.d_t_gaps(rbo).values())
    with pytest.raises(VerificationError, match="derived D_T"):
        induced_rep(rbo)
    path = tmp_path / "noncyclic.json"
    path.write_text(dump_json(rbo_to_json(rbo)))
    assert main(["coh", "group", str(path), "--degree", "1"]) == 1
    assert capsys.readouterr().out == '{\n  "error": "%s",\n  "kind": "verification"\n}\n' % D_T_ERROR


def random_ambient(rng, d, k, cyclic):
    """Seeded random structure constants on F^d, skew in the first two
    slots, with every bracket of span{e1..ek} zero; when ``cyclic``, the
    cyclic sum is projected away (it is fully skew, so a third of it is
    subtracted)."""
    c = {}
    for i, j, z in product(range(d), repeat=3):
        if i < j and max(i, j, z) >= k and rng.random() < 0.4:
            c[i, j, z] = tuple(F(rng.randint(-2, 2)) for _ in range(d))
            c[j, i, z] = tuple(-x for x in c[i, j, z])
    zero = (F(0),) * d
    if cyclic:
        def cyc(i, j, z):
            terms = (c.get((i, j, z), zero), c.get((j, z, i), zero), c.get((z, i, j), zero))
            return [sum(t) for t in zip(*terms)]

        c = {
            key: tuple(a - s / 3 for a, s in zip(c.get(key, zero), cyc(*key)))
            for key in product(range(d), repeat=3)
        }
    return LieTripleSystem.from_entries(d, {key: v for key, v in c.items() if any(v)})


def ambient_gap(rbo, u, v):
    """[Tu,Tv,x] - [x,Tv,Tu] + [x,Tu,Tv] as the columns x of a matrix."""
    L, Tu, Tv = rbo.ambient, rbo.T.column(u), rbo.T.column(v)
    br = L.bracket_eval
    return Matrix.from_columns(
        [vec_sub(br(Tu, Tv, ex), vec_sub(br(ex, Tv, Tu), br(ex, Tu, Tv))) for ex in L.basis()], L.dim
    )


def test_d_t_gap_is_the_ambient_identity(rbo3, rbo4):
    # on random actions, operators and weights, with no (RB) needed: the
    # L' parts of the projected brackets agree identically, so the old
    # D_T comparison differs exactly by the ambient identity's gap
    rng = random.Random(SEEDS["identities"])
    cases = [rbo3, rbo4]
    for trial in range(6):
        L = random_ambient(rng, 3 + trial % 2, 1, cyclic=trial % 3 == 0)
        n = 2 + trial % 2
        action = ActionData(random_theta(rng, L, n, 0.5), zero_system(n))
        T = random_integer_matrix(rng, L.dim, n)
        cases.append(RelativeRBO(action, F(rng.randint(-2, 2), rng.randint(1, 2)), T))
    zero = nonzero = 0
    for rbo in cases:
        for (u, v), gap in dense_oracle.d_t_gaps(rbo).items():
            assert gap == ambient_gap(rbo, u, v), (u, v)
            zero += gap.is_zero()
            nonzero += not gap.is_zero()
    assert zero and nonzero, (zero, nonzero)


def test_d_t_self_check_agrees_with_bracket_comparison(rbo3, rbo4):
    # operators whose (RB) holds, over cyclic and non-cyclic ambients:
    # induced_rep refuses exactly when the old comparison found a gap
    rng = random.Random(SEEDS["identities"])
    cases = [rbo3, rbo4, noncyclic_operator()]
    for trial in range(12):
        d, k = 4, 2
        L = random_ambient(rng, d, k, cyclic=trial % 2 == 0)
        T = Matrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(3)] if r < k else [0] * 3 for r in range(d)]
        )
        cases.append(RelativeRBO(ActionData(zero_representation(L, 3), zero_system(3)), F(0), T))
    outcomes = set()
    for rbo in cases:
        assert check_rbo(rbo.action, rbo.weight, rbo.T) == ()
        valid = all(gap.is_zero() for gap in dense_oracle.d_t_gaps(rbo).values())
        outcomes.add(valid)
        if valid:
            induced_rep(rbo)
        else:
            with pytest.raises(VerificationError, match="derived D_T"):
                induced_rep(rbo)
    assert outcomes == {True, False}


def test_assembly_never_builds_a_d_matrix(monkeypatch, rbo4, sl2_lts):
    # d_1 and d_3 read D(a, b) as two theta entries off rep.nonzero, and
    # the induced representation checks D_T on ambient brackets
    calls = []
    inner = RepresentationData.d_basis

    def counting(self, i, j):
        calls.append((i, j))
        return inner(self, i, j)

    monkeypatch.setattr(RepresentationData, "d_basis", counting)
    cx = OperatorComplex(rbo4)
    cx.differential(1)
    for convention in ("definition", "complex"):
        cx.differential(3, convention)
    complex_audit(adjoint_representation(sl2_lts))
    assert calls == []
    # the counter is live: the (R2) rows of the report read D matrices
    verify_representation(cx.rep)
    assert calls
