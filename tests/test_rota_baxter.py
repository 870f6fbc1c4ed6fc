import json
import random
from fractions import Fraction
from itertools import product

import pytest

from triplekit.cli import main
from triplekit.fileio import dump_json, rbo_to_json
from triplekit.linalg import Matrix, SubspaceBasis, VerificationError, basis_vector
from triplekit.lts import (
    HomomorphismCandidate,
    is_homomorphism,
    is_subsystem,
    verify_lts,
)
from triplekit.properties import equivalence_sweep, random_integer_matrix
from triplekit.reporting import Violation
from triplekit.representations import RepresentationData, self_action, semidirect_product
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
from conftest import SEEDS, known_operator_pool, ladder, relative_rbo, sheared
from test_scatter_assembly import ambient_dim_0, source_dim_0

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


def all_weights_oracle(action, T):
    """check_rbo_all_weights from the dense tables: the constant part is
    the (RB) defect x - Tp of the weight-0 semidirect bracket of graph
    vectors, one triple at a time, and the weight part is T applied to
    the dense bracket [u,v,w]' of L'."""
    dp, c = action.target.dim, dense_oracle.bracket_tensor(action.target)
    graph = [(T.column(u), basis_vector(dp, u)) for u in range(dp)]
    out = []
    for u, v, w in product(range(dp), repeat=3):
        x, p = dense_oracle.semidirect_bracket(action, 0, *graph[u], *graph[v], *graph[w])
        if any(a - b for a, b in zip(x, T.apply(p))):
            out.append(Violation("rota-baxter-constant-part", (u + 1, v + 1, w + 1)))
        if any(T.apply(c[u][v][w])):
            out.append(Violation("rota-baxter-weight-part", (u + 1, v + 1, w + 1)))
    return tuple(out)


def test_all_weights_parts_match_dense_oracle(lts3, lts4, sl2_lts, rbo3, rbo4):
    # the weight part reads the stored components of each bracket of L';
    # on these self-actions they are partly zero, and the maps below
    # send some brackets to zero and others not
    rng = random.Random(SEEDS["identities"])
    cases = [(rbo3.action, rbo3.T), (rbo4.action, rbo4.T), (ladder(5).action, ladder(5).T)]
    for L in (lts3, lts4, sl2_lts, sheared(lts3), sheared(lts4), sheared(sl2_lts)):
        d = L.dim
        cases += [(self_action(L), Matrix(d, d, tuple(tuple(int(r == c == l) for c in range(d)) for r in range(d))))
                  for l in range(d)]
        cases += [(self_action(L), Matrix.from_rows([[rng.choice((0, 0, 1, -1, 2)) for _ in range(d)] for _ in range(d)]))
                  for _ in range(4)]
    kept = killed = 0
    for action, T in cases:
        report = check_rbo_all_weights(action, T)
        assert report == all_weights_oracle(action, T)
        weight_part = {v.witness for v in report if v.rule == "rota-baxter-weight-part"}
        for i, j, k, vec in dense_oracle.brackets(action.target):
            assert 0 < sum(map(bool, vec)) < len(vec)
            kept += (i + 1, j + 1, k + 1) in weight_part
            killed += (i + 1, j + 1, k + 1) not in weight_part
    assert kept and killed, (kept, killed)


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
    # is_nijenhuis scans the triples with x != y first and the (x, x, z)
    # last, each group from the highest indices down, and stops at the
    # first failure; the report is lexicographic.  Both must decide alike
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


@pytest.mark.parametrize(
    "make",
    [lambda: ladder(5), relative_rbo, source_dim_0, ambient_dim_0],
    ids=["ladder5", "relative", "source dim 0", "ambient dim 0"],
)
def test_three_way_equivalence_on_the_swept_shapes(make):
    # ladder5 is swept by the benchmark, the relative operator has
    # dim L' != dim L, and every map into or out of a zero space is an operator
    rbo = make()
    out = equivalence_sweep(rbo.action, rbo.weight, trials=20, seed=SEEDS["equivalence"], extra_maps=(rbo.T,))
    assert out["counterexamples"] == 0
    assert out["operators_found"] >= 1
    if 0 in (rbo.ambient.dim, rbo.source.dim):
        assert out["operators_found"] == out["trials"]


def test_equivalence_command_on_an_empty_ambient(tmp_path, capsys):
    # every 0 x dim L' map is an operator; the random maps keep their
    # columns, where a matrix built from its (no) rows had shape 0 x 0
    assert random_integer_matrix(random.Random(0), 0, 3).cols == 3
    path = tmp_path / "rbo.json"
    path.write_text(dump_json(rbo_to_json(ambient_dim_0())))
    assert main(["rbo", "equivalence", str(path), "--trials", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["operators_found"] == out["trials"] == 4


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


def test_homomorphism_report_matches_dense_formula(rbo3, rbo4, monkeypatch):
    # the whole report, rules, witnesses and order, against the two
    # equivariance checks written out densely, on the diagonal sign
    # pairs of rbo3 and on random pairs; the D rows are read off the
    # theta gaps, so no D matrix is built
    built = []
    for name in ("d_vec", "d_basis"):
        inner = getattr(RepresentationData, name)
        monkeypatch.setattr(RepresentationData, name, lambda *a, inner=inner: built.append(a) or inner(*a))
    rng = random.Random(SEEDS["identities"])
    cases = [
        (rbo3, Matrix.from_rows([[sa[0], 0, 0], [0, sa[1], 0], [0, 0, sa[2]]]),
         Matrix.from_rows([[sb[0], 0, 0], [0, sb[1], 0], [0, 0, sb[2]]]))
        for sa in product((1, -1), repeat=3) for sb in product((1, -1), repeat=3)
    ]
    for rbo in (rbo3, rbo4):
        d, dp = rbo.ambient.dim, rbo.source.dim
        cases += [(rbo, random_integer_matrix(rng, d, d), random_integer_matrix(rng, dp, dp)) for _ in range(4)]
    fired = set()
    for rbo, psi_l, psi_p in cases:
        h = RBOHomomorphism(rbo, rbo, psi_l, psi_p)
        L, Lp = rbo.ambient, rbo.source
        want = [Violation(rule) for rule, ok in (
            ("psi_L-not-system-homomorphism", is_homomorphism(HomomorphismCandidate(L, L, psi_l))),
            ("psi_Lprime-not-system-homomorphism", is_homomorphism(HomomorphismCandidate(Lp, Lp, psi_p))),
        ) if not ok]
        if psi_l @ rbo.T != rbo.T @ psi_p:
            want.append(Violation("intertwining", (), "psi_L T != T' psi_Lprime"))
        rows = dense_oracle.equivariance_violations(h)
        assert check_rbo_homomorphism(h) == tuple(want + rows)
        theta_at = {v.witness for v in rows if v.rule == "theta-equivariance"}
        d_at = {v.witness for v in rows if v.rule == "D-equivariance"}
        fired |= {("both", bool(theta_at & d_at)), ("theta only", bool(theta_at - d_at)),
                  ("D only", bool(d_at - theta_at))}
    # a pair where both rules fire at one witness, and pairs where
    # each fires without the other
    assert {("both", True), ("theta only", True), ("D only", True)} <= fired
    assert built == []


def test_weight_mismatch_rejected(rbo3):
    from triplekit.linalg import StructureError

    other = RelativeRBO(rbo3.action, F(2), rbo3.T)
    h = RBOHomomorphism(rbo3, other, Matrix.identity(3), Matrix.identity(3))
    with pytest.raises(StructureError):
        check_rbo_homomorphism(h)
