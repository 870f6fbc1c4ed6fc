import random
from fractions import Fraction
from itertools import product

import pytest

from triplekit.cohomology import induced_rep
from triplekit.linalg import Matrix, StructureError, VerificationError, basis_vector
from triplekit.lts import verify_lts, zero_system
from triplekit.representations import (
    ActionData,
    RepresentationData,
    adjoint_representation,
    self_action,
    semidirect_product,
    verify_action,
    verify_representation,
    zero_representation,
)

import dense_oracle
from conftest import SEEDS, ladder, make_sln_lts

F = Fraction

LAMBDAS = (F(0), F(1), F(-2), F(3, 2))


def test_adjoint_passes_verification(lts3, lts4, sl2_lts):
    for L in (lts3, lts4, sl2_lts):
        assert verify_representation(adjoint_representation(L)) == ()


def test_zero_representation_passes(lts3):
    assert verify_representation(zero_representation(lts3, 2)) == ()


def test_adjoint_read_off(lts3):
    adj = adjoint_representation(lts3)
    e1, th = basis_vector(3, 0), dense_oracle.theta_tensor(adj)
    # theta(e2, e1) sends e1 to e3; theta(e1, e2) kills e1
    assert th[1][0].apply(e1) == basis_vector(3, 2)
    assert th[0][1].apply(e1) == (F(0),) * 3
    # derived D(e1,e2) acts as the left bracket [e1,e2,-]
    assert adj.d_basis(0, 1).apply(e1) == basis_vector(3, 2)


def test_adjoint_d_matches_left_bracket(lts3, lts4, sl2_lts):
    for L in (lts3, lts4, sl2_lts):
        adj = adjoint_representation(L)
        E = L.basis()
        for i, j in product(range(L.dim), repeat=2):
            got = adj.d_basis(i, j)
            want = Matrix.from_columns(
                [L.bracket_eval(E[i], E[j], E[x]) for x in range(L.dim)], L.dim
            )
            assert got == want


def test_adjoint_zero_bracket_is_zero():
    th = dense_oracle.theta_tensor(adjoint_representation(zero_system(3)))
    assert all(
        th[i][j].is_zero() for i in range(3) for j in range(3)
    )


def perturbed_adjoint(lts3):
    """lts3's adjoint with 1 added at (1, 1) of theta(e1, e1)."""
    adj = dense_oracle.theta_tensor(adjoint_representation(lts3))
    rows = [list(r) for r in adj[0][0].entries]
    rows[0][0] += 1
    table = [list(row) for row in adj]
    table[0][0] = Matrix.from_rows(rows)
    return dense_oracle.representation(lts3, 3, table)


def test_perturbed_adjoint_fails(lts3):
    assert verify_representation(perturbed_adjoint(lts3)) != ()


def test_report_matches_dense_r1_and_r2(lts3, lts4, rbo3, rbo4):
    # the sparse (R1) rows and the (R2) rows report what the dense
    # loops over basis 4-tuples report, in the same order
    reps = [adjoint_representation(L) for L in (lts3, lts4, make_sln_lts(3))]
    reps += [rep for rbo in (rbo3, rbo4) for rep in (rbo.action.rep, induced_rep(rbo))]
    reps.append(perturbed_adjoint(lts3))
    # (R2) at a pair (a, b) whose bracket [e_a, e_b, -] or D(a, b) is
    # zero: random theta on the zero system, where only D can fail it,
    # and random theta symmetric in its arguments, so D = 0, on the zero
    # system and on lts3, where only the bracket can
    rng = random.Random(SEEDS["identities"])
    for L, symmetric in ((zero_system(2), False), (zero_system(2), True), (lts3, True)):
        theta = {(i, j, r, c): rng.randint(-2, 2) for i, j in product(range(L.dim), repeat=2) if i <= j
                 for r, c in product(range(2), repeat=2)}
        theta.update(((j, i, r, c), a if symmetric else rng.randint(-2, 2)) for (i, j, r, c), a in list(theta.items()))
        reps.append(RepresentationData.from_entries(L, 2, theta))
    rules = set()
    for rep in reps:
        want = [("module-identity-1", w) for w in dense_oracle.r1_violations(rep)]
        want += [("module-identity-2", w) for w in dense_oracle.r2_violations(rep)]
        got = [(v.rule, v.witness) for v in verify_representation(rep)]
        assert got == want, rep.algebra.dim
        rules.update(rule for rule, _ in got)
    assert rules == {"module-identity-1", "module-identity-2"}


def test_d_recomputed_identically(lts3):
    adj = adjoint_representation(lts3)
    assert adj.d_basis(0, 1) == adj.d_basis(0, 1)
    assert adj.d_vec(basis_vector(3, 0), basis_vector(3, 1)) == adj.d_basis(0, 1)


def test_actions(lts3, lts4):
    assert verify_action(self_action(lts3)) == ()
    assert verify_action(self_action(lts4)) == ()


def test_representation_on_abelian_target_is_action(lts3):
    # any representation on a zero-bracket target whose center is everything
    rep = zero_representation(lts3, 2)
    action = ActionData(rep, zero_system(2))
    assert verify_action(action) == ()


def test_sl2_adjoint_is_not_action(sl2_lts):
    # sl2 has trivial center, so the adjoint cannot land in it
    assert verify_action(self_action(sl2_lts)) != ()


def test_semidirect_is_lts_for_probe_weights(lts3, lts4):
    for L in (lts3, lts4):
        action = self_action(L)
        for lam in LAMBDAS:
            sd = semidirect_product(action, lam)
            assert sd.dim == 2 * L.dim
            assert verify_lts(sd) == ()


def test_semidirect_restricts_to_original(lts3):
    action = self_action(lts3)
    sd = dense_oracle.bracket_tensor(semidirect_product(action, F(1)))
    base = dense_oracle.bracket_tensor(lts3)
    for i, j, k in product(range(3), repeat=3):
        assert sd[i][j][k][:3] == base[i][j][k]
        assert all(x == 0 for x in sd[i][j][k][3:])


def test_semidirect_worked_example(lts3):
    sd = semidirect_product(self_action(lts3), F(1))
    x = (F(1), F(0), F(0), F(1), F(0), F(0))
    y = (F(0), F(1), F(0), F(0), F(1), F(0))
    assert sd.bracket_eval(x, y, x) == (F(0), F(0), F(1), F(0), F(0), F(4))


def test_semidirect_pure_first_factor(lts3):
    sd = semidirect_product(self_action(lts3), F(2))
    e = lts3.basis()
    x = tuple(e[0]) + (F(0),) * 3
    y = tuple(e[1]) + (F(0),) * 3
    got = sd.bracket_eval(x, y, x)
    assert got[:3] == lts3.bracket_eval(e[0], e[1], e[0])
    assert all(v == 0 for v in got[3:])
    zero = (F(0),) * 6
    assert sd.bracket_eval(zero, zero, zero) == zero


def test_semidirect_requires_verified_action(sl2_lts):
    with pytest.raises(VerificationError):
        semidirect_product(self_action(sl2_lts), F(1))


def test_action_dimension_mismatch(lts3):
    with pytest.raises(StructureError):
        ActionData(zero_representation(lts3, 2), lts3)


def perturbed(a, i, j, r, c):
    """The action with 1 added at (r, c) of theta(e_i, e_j)."""
    table = [[m.entries for m in row] for row in dense_oracle.theta_tensor(a.rep)]
    rows = [list(x) for x in table[i][j]]
    rows[r][c] += 1
    table[i][j] = tuple(map(tuple, rows))
    theta = tuple(tuple(Matrix(a.target.dim, a.target.dim, m) for m in row) for row in table)
    return ActionData(dense_oracle.representation(a.rep.algebra, a.target.dim, theta), a.target)


def random_theta_action(rng, L, target):
    """Random sparse theta matrices on the target, with no identity
    asked of them: only the action conditions are under test."""
    n = target.dim
    theta = tuple(
        tuple(
            Matrix.from_rows([[rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(n)] for _ in range(n)])
            for _ in range(L.dim)
        )
        for _ in range(L.dim)
    )
    return ActionData(dense_oracle.representation(L, n, theta), target)


def test_verify_action_matches_dense_oracle(lts3, lts4, rbo3, rbo4, sl2_lts):
    # the scan over the nonzero theta(e_i, e_j) reports what the dense
    # loop over every matrix and column reports, in the same order
    rng = random.Random(SEEDS["identities"])
    actions = [self_action(lts3), self_action(lts4), rbo3.action, rbo4.action, ladder(5).action]
    actions += [perturbed(a, 0, 0, 0, 0) for a in actions] + [perturbed(actions[1], 1, 0, 3, 2)]
    actions += [self_action(sl2_lts), ActionData(zero_representation(lts3, 2), zero_system(2))]
    actions += [random_theta_action(rng, L, target) for L in (lts3, sl2_lts) for target in (lts3, lts4, zero_system(2))]
    reports = []
    for a in actions:
        reports.append(verify_action(a))
        assert reports[-1] == dense_oracle.verify_action(a)
    assert {v.rule for report in reports for v in report} == {"image-in-center", "kills-brackets"}
