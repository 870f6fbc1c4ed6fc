import random
from fractions import Fraction
from itertools import product

import pytest

from triplekit.linalg import Matrix, SubspaceBasis, VerificationError, basis_vector
from triplekit.lts import (
    HomomorphismCandidate,
    is_homomorphism,
    is_subsystem,
    verify_lts,
)
from triplekit.properties import equivalence_sweep, random_integer_matrix
from triplekit.representations import self_action, semidirect_product
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
    nijenhuis_check,
    nijenhuis_lift,
    projection_rbo,
)

import dense_oracle
from conftest import SEEDS, known_operator_pool

F = Fraction

PROBE_WEIGHTS = (F(0), F(1), F(-2), F(5, 3))


def span(dim, *indices):
    return SubspaceBasis.from_spanning([basis_vector(dim, i) for i in indices], dim)


def test_projections_are_operators_for_probe_weights(rbo3, rbo4):
    for rbo in (rbo3, rbo4):
        for lam in PROBE_WEIGHTS:
            assert check_rbo(rbo.action, lam, rbo.T) == ()
        assert check_rbo_all_weights(rbo.action, rbo.T) == ()


def test_zero_map_is_operator_of_every_weight(rbo3):
    # the zero map kills the weight term, so the identity holds at any
    # weight; confirmed by full enumeration of basis triples
    zero = Matrix.zeros(3, 3)
    for lam in (F(0), F(1), F(-7)):
        assert check_rbo(rbo3.action, lam, zero) == ()
    assert check_rbo_all_weights(rbo3.action, zero) == ()


def test_maps_into_abelian_target_killing_derived_are_operators(rbo3):
    # image inside span{e1} (or even span{e2}) with e3 killed makes
    # every term vanish except the weight term, which lands in the
    # derived algebra and is killed as well
    shift = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # e1 -> e2
    assert check_rbo_all_weights(rbo3.action, shift) == ()


def test_check_rbo_reports_first_witness_in_lex_order(rbo3):
    # the identity map scales the right side by (3 + weight), so it
    # fails at every weight other than -2
    bad = Matrix.identity(3)
    report = check_rbo(rbo3.action, F(1), bad)
    assert report
    witnesses = [v.witness for v in report]
    assert witnesses == sorted(witnesses)
    assert witnesses[0] == (1, 2, 1)
    assert not is_rbo(rbo3.action, F(1), bad)
    assert check_rbo(rbo3.action, F(-2), bad) == ()


def test_projection_construction_matches_fixture(lts3, lts4, rbo3, rbo4):
    P = projection_rbo(lts3, span(3, 0), span(3, 1, 2))
    assert P == rbo3.T
    P4 = projection_rbo(lts4, span(4, 1, 2), span(4, 0, 3))
    assert P4 == rbo4.T


def test_projection_oblique_complement(lts3):
    # a complement not spanned by coordinate vectors still works as
    # long as it contains the derived algebra
    comp = SubspaceBasis.from_spanning(
        [(F(0), F(1), F(1)), (F(0), F(0), F(1))], 3
    )
    P = projection_rbo(lts3, span(3, 0), comp)
    assert check_rbo_all_weights(self_action(lts3), P) == ()


def test_projection_hypothesis_failures(lts3, sl2_lts):
    with pytest.raises(VerificationError, match="derived algebra to meet"):
        projection_rbo(lts3, span(3, 2), span(3, 0, 1))
    with pytest.raises(VerificationError, match="abelian"):
        projection_rbo(lts3, span(3, 0, 1), span(3, 2))
    with pytest.raises(VerificationError, match="complement"):
        projection_rbo(lts3, span(3, 0), span(3, 1))
    with pytest.raises(VerificationError, match="adjoint action"):
        projection_rbo(sl2_lts, span(3, 0), span(3, 1, 2))
    # complement that fails to absorb the derived algebra
    bad_comp = SubspaceBasis.from_spanning(
        [(F(0), F(1), F(0)), (F(1), F(0), F(1))], 3
    )
    with pytest.raises(VerificationError, match="absorb"):
        projection_rbo(lts3, span(3, 0), bad_comp)


def test_graph_span_and_closure(rbo3):
    graph = graph_subsystem(rbo3)
    assert graph.ambient_dim == 6
    assert graph.dim == 3
    sd = semidirect_product(rbo3.action, rbo3.weight)
    assert is_subsystem(sd, graph)


def test_graph_of_zero_map_at_zero_weight(rbo3):
    zero = RelativeRBO(rbo3.action, F(0), Matrix.zeros(3, 3))
    graph = graph_subsystem(zero)
    assert graph.vectors == tuple(
        (F(0),) * 3 + tuple(basis_vector(3, u)) for u in range(3)
    )
    assert is_subsystem(semidirect_product(zero.action, zero.weight), graph)


def test_descendent_bracket_value(rbo3):
    for lam in (F(0), F(1), F(-2)):
        rbo = RelativeRBO(rbo3.action, lam, rbo3.T)
        desc = descendent_lts(rbo)
        assert verify_lts(desc) == ()
        assert dense_oracle.bracket_tensor(desc)[0][1][0] == (F(0), F(0), F(1) + lam)
        assert is_homomorphism(HomomorphismCandidate(desc, rbo.ambient, rbo.T))


def test_descendent_of_zero_map(rbo3, lts3):
    zero = Matrix.zeros(3, 3)
    at_zero = descendent_lts(RelativeRBO(rbo3.action, F(0), zero))
    assert at_zero.nonzero == ()
    at_two = descendent_lts(RelativeRBO(rbo3.action, F(2), zero))
    got, base = dense_oracle.bracket_tensor(at_two), dense_oracle.bracket_tensor(lts3)
    for i, j, k in product(range(3), repeat=3):
        assert got[i][j][k] == tuple(2 * x for x in base[i][j][k])


def test_descendent_requires_operator(rbo3):
    with pytest.raises(VerificationError):
        descendent_lts(RelativeRBO(rbo3.action, F(1), Matrix.identity(3)))


def test_nijenhuis_trivial_cases(lts3, sl2_lts):
    for L in (lts3, sl2_lts):
        assert nijenhuis_check(L, Matrix.identity(L.dim)) == ()
        assert nijenhuis_check(L, Matrix.zeros(L.dim, L.dim)) == ()


def test_nijenhuis_lift_shape_and_idempotence(rbo3, rbo4):
    rng = random.Random(SEEDS["fuzz"])
    for rbo in (rbo3, rbo4):
        d, dp = rbo.ambient.dim, rbo.source.dim
        for _ in range(10):
            T = random_integer_matrix(rng, d, dp)
            lift = nijenhuis_lift(rbo.action, T)
            assert (lift @ lift) == lift
        lift = nijenhuis_lift(rbo.action, rbo.T)
        sd = semidirect_product(rbo.action, rbo.weight)
        assert nijenhuis_check(sd, lift) == ()


def test_nijenhuis_early_exit_agrees_with_report(lts3, rbo4):
    # is_nijenhuis scans from the highest indices and stops at the first
    # failure; it must decide exactly what the full report decides
    rng = random.Random(SEEDS["nijenhuis"])
    sd = semidirect_product(rbo4.action, rbo4.weight)
    seen = set()
    for L, lifts in ((lts3, ()), (sd, (rbo4.T, *(random_integer_matrix(rng, 4, 4) for _ in range(5))))):
        maps = [random_integer_matrix(rng, L.dim, L.dim) for _ in range(15)]
        maps += [Matrix.identity(L.dim).scale(c) for c in (0, 1, -2)]
        maps += [nijenhuis_lift(rbo4.action, T) for T in lifts]
        for N in maps:
            decided = is_nijenhuis(L, N)
            assert decided == (nijenhuis_check(L, N) == ())
            seen.add(decided)
    assert seen == {True, False}


def test_three_way_equivalence_seeded(rbo3, rbo4):
    for rbo, name, trials in ((rbo3, "lts3", 40), (rbo4, "lts4", 25)):
        for lam in (F(0), F(1), F(-1)):
            rng = random.Random(SEEDS["equivalence"])
            extras = known_operator_pool(name, rng, 5)
            out = equivalence_sweep(
                rbo.action, lam, trials=trials, seed=SEEDS["equivalence"], extra_maps=extras
            )
            assert out["counterexamples"] == 0
            assert out["operators_found"] >= len(extras)


def test_homomorphism_identity_pair(rbo3):
    h = RBOHomomorphism(rbo3, rbo3, Matrix.identity(3), Matrix.identity(3))
    assert check_rbo_homomorphism(h) == ()


def test_homomorphism_forces_equal_operators(rbo3):
    other = RelativeRBO(rbo3.action, rbo3.weight, Matrix.zeros(3, 3))
    h = RBOHomomorphism(rbo3, other, Matrix.identity(3), Matrix.identity(3))
    report = check_rbo_homomorphism(h)
    assert any(v.rule == "intertwining" for v in report)


def test_homomorphism_diagonal_rescaling(rbo3):
    # solving the linear conditions for diagonal maps gives the family
    # psi = diag(a, b, a^2 b) on both sides; take a = 2, b = 3
    psi = Matrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 12]])
    h = RBOHomomorphism(rbo3, rbo3, psi, psi)
    assert check_rbo_homomorphism(h) == ()


def test_homomorphism_diagonal_sign_search(rbo3):
    # exact search over diagonal +-1 pairs: exactly those with the
    # third entry equal to the second survive on both sides
    found = []
    for sa in product((1, -1), repeat=3):
        for sb in product((1, -1), repeat=3):
            psi_l = Matrix.from_rows([[sa[0], 0, 0], [0, sa[1], 0], [0, 0, sa[2]]])
            psi_p = Matrix.from_rows([[sb[0], 0, 0], [0, sb[1], 0], [0, 0, sb[2]]])
            h = RBOHomomorphism(rbo3, rbo3, psi_l, psi_p)
            if check_rbo_homomorphism(h) == ():
                found.append((sa, sb))
    expected = [
        (sa, sb)
        for sa in product((1, -1), repeat=3)
        for sb in product((1, -1), repeat=3)
        if sa[2] == sa[1] and sb[2] == sb[1] and sa[0] == sb[0] and sa[1] == sb[1]
    ]
    assert found == expected
    assert ((1, -1, -1), (1, -1, -1)) in found


def test_weight_mismatch_rejected(rbo3):
    from triplekit.linalg import StructureError

    other = RelativeRBO(rbo3.action, F(2), rbo3.T)
    h = RBOHomomorphism(rbo3, other, Matrix.identity(3), Matrix.identity(3))
    with pytest.raises(StructureError):
        check_rbo_homomorphism(h)
