import random
from fractions import Fraction
from itertools import product

import pytest

from triplekit.cohomology import (
    Cochain,
    OperatorComplex,
    _apply,
    _wedge_delta,
    cochain_from_map,
    cochain_to_map,
    delta_wedge,
    flatten_cochain,
    one_cocycle_check,
    unflatten_cochain,
    wedge_pairs,
    zero_cochain,
)
from triplekit.deformations import (
    EquivalenceWitness,
    InfinitesimalDeformation,
    _coefficients,
    _equivalence_system,
    check_deformation,
    check_equivalence,
    deformation_cocycle_class,
    find_equivalence_witness,
    is_trivial_deformation,
)
from triplekit.linalg import (
    Matrix,
    StructureError,
    SubspaceBasis,
    VerificationError,
    basis_vector,
    exact_div,
    solve,
    vec_sub,
)
from triplekit.lts import zero_system
from triplekit.properties import random_integer_matrix
from triplekit.reporting import Violation
from triplekit.representations import (
    ActionData,
    _wedge_maps,
    adjoint_representation,
)
from triplekit.rota_baxter import RelativeRBO, check_rbo

import dense_oracle
from conftest import SEEDS, ladder, relative_rbo, sl3_cartan_projection, sln_abelian_cartan_projection

F = Fraction


def deformation(rbo, matrix_rows):
    return InfinitesimalDeformation(rbo, cochain_from_map(Matrix.from_rows(matrix_rows)))


def wedge(rbo, *coords):
    return Cochain(-1, rbo.source.dim, rbo.ambient.dim, tuple(F(c) for c in coords))


def test_zero_direction_is_deformation(rbo3):
    d = InfinitesimalDeformation(rbo3, zero_cochain(1, 3, 3))
    assert check_deformation(d) == ()


def test_direction_equal_to_operator(rbo3):
    # T_t = (1+t) P stays inside the projection family: its image is
    # the abelian target and it kills the derived algebra, so every
    # coefficient equation holds; confirmed by full enumeration
    d = InfinitesimalDeformation(rbo3, cochain_from_map(rbo3.T))
    assert check_deformation(d) == ()


def test_identity_direction_fails_at_nonzero_weight(rbo3):
    # at (u,v,w) = (e1,e1,e2) the order-t equation picks up the weight
    # term (1+weight) e3 against e3, so it fails exactly when weight != 0
    ident = cochain_from_map(Matrix.identity(3))
    d = InfinitesimalDeformation(rbo3, ident)
    report = check_deformation(d)
    assert any(v.rule == "order-t" for v in report)
    at_zero = RelativeRBO(rbo3.action, F(0), rbo3.T)
    report0 = check_deformation(InfinitesimalDeformation(at_zero, ident))
    assert all(v.rule != "order-t" for v in report0)


def test_coboundary_direction_is_full_deformation(rbo3):
    f = delta_wedge(rbo3, wedge(rbo3, 1, 0, 0))
    d = InfinitesimalDeformation(rbo3, f)
    assert check_deformation(d) == ()


def rb_defect(action, weight, T, u, v, w):
    """LHS - RHS of (RB) at one basis triple, straight from the semidirect
    bracket of the graph vectors (Tu,u), (Tv,v), (Tw,w)."""
    graph = [(T.column(a), basis_vector(T.cols, a)) for a in (u, v, w)]
    x, p = dense_oracle.semidirect_bracket(action, weight, *graph[0], *graph[1], *graph[2])
    return vec_sub(x, T.apply(p))


def interpolated_coefficients(action, weight, T, S):
    """The oracle for the deformation coefficients: ((u, v, w), (c1, c2,
    c3)) for every basis triple, where c_k is the t^k coefficient of the
    (RB) defect of T + tS, recovered by exact interpolation of the cubic
    defect at t = 0, 1, -1, 2."""
    points = (T, T + S, T - S, T + S.scale(2))
    for u, v, w in product(range(action.target.dim), repeat=3):
        d0, d1, dm, d2 = (rb_defect(action, weight, M, u, v, w) for M in points)
        c2 = tuple(exact_div(a + b, 2) - z for a, b, z in zip(d1, dm, d0))
        odd = tuple(exact_div(a - b, 2) for a, b in zip(d1, dm))  # c1 + c3
        # (d2 - d0 - 4 c2) / 2 = c1 + 4 c3
        c3 = tuple(
            exact_div(exact_div(e - z - 4 * q, 2) - o, 3) for e, z, q, o in zip(d2, d0, c2, odd)
        )
        c1 = tuple(o - k for o, k in zip(odd, c3))
        yield (u, v, w), (c1, c2, c3)


def test_order_t_iff_cocycle_random(rbo3, rbo4):
    # the coefficients read off d_1 S, the weight-0 defect of S and one
    # defect of T + S, against the four-point interpolation on every
    # triple; random, cocycle and coboundary directions, integral and
    # p/q, at three weights.  The order-t witnesses are the triples where
    # the oracle's c1 does not vanish.
    rng = random.Random(SEEDS["deformation"])

    def scalar(fractional):
        return F(rng.randint(-3, 3), rng.randint(1, 3) if fractional else 1)

    nonzero = [0, 0, 0]
    closed = [0, 0]
    for base in (rbo3, rbo4, ladder(4)):
        for weight in (F(1), F(1, 2), F(-2, 3)):
            rbo = RelativeRBO(base.action, weight, base.T)
            d, dp = rbo.ambient.dim, rbo.source.dim
            cocycles = OperatorComplex(rbo).cohomology(1).cocycles.vectors
            for fractional in (False, True):
                flat = [F(0)] * (dp * d)
                for vec in cocycles:
                    c = scalar(fractional)
                    flat = [a + c * x for a, x in zip(flat, vec)]
                wedge_coords = tuple(scalar(fractional) for _ in wedge_pairs(d))
                directions = (
                    cochain_from_map(Matrix.from_rows([[scalar(fractional) for _ in range(dp)] for _ in range(d)])),
                    unflatten_cochain(1, dp, d, tuple(flat)),
                    delta_wedge(rbo, Cochain(-1, dp, d, wedge_coords)),
                )
                for f in directions:
                    deform = InfinitesimalDeformation(rbo, f)
                    got = list(_coefficients(deform))
                    got_oracle = list(interpolated_coefficients(rbo.action, weight, rbo.T, deform.direction_map()))
                    assert got == got_oracle
                    for _, coeffs in got:
                        for k, c in enumerate(coeffs):
                            nonzero[k] += any(c)
                    # the order-t witnesses and the cocycle check both read
                    # d_1 S, so each is held against the oracle's c1
                    want = [tuple(a + 1 for a in t) for t, (c1, _, _) in got_oracle if any(c1)]
                    order_t = [v.witness for v in check_deformation(deform) if v.rule == "order-t"]
                    assert order_t == want
                    assert [v.witness for v in one_cocycle_check(rbo, f)] == want
                    closed[not want] += 1
    assert all(nonzero), nonzero  # every coefficient was compared away from zero
    assert all(closed), closed  # closed and unclosed directions both occurred


def test_deformation_truncation_to_operator(rbo3):
    # directions satisfying all three coefficient equations give an
    # actual operator at a sampled parameter value
    f = delta_wedge(rbo3, wedge(rbo3, 1, 0, 0))
    S = cochain_from_map(rbo3.T)
    for direction in (f, S):
        d = InfinitesimalDeformation(rbo3, direction)
        assert check_deformation(d) == ()
        from triplekit.cohomology import cochain_to_map

        for t in (F(1), F(-2), F(1, 3)):
            shifted = rbo3.T + cochain_to_map(direction).scale(t)
            assert check_rbo(rbo3.action, rbo3.weight, shifted) == ()


def test_cocycle_class_of_coboundary_is_zero(rbo3):
    f = delta_wedge(rbo3, wedge(rbo3, 1, 0, 0))
    coords = deformation_cocycle_class(InfinitesimalDeformation(rbo3, f))
    assert len(coords) == 5
    assert all(x == 0 for x in coords)
    coords = deformation_cocycle_class(InfinitesimalDeformation(rbo3, zero_cochain(1, 3, 3)))
    assert all(x == 0 for x in coords)


def test_cocycle_class_nonzero_for_noncoboundary(rbo3):
    # pick a cocycle outside the coboundary space using the computed bases
    data = OperatorComplex(rbo3).cohomology(1)
    outside = None
    for vec in data.cocycles.vectors:
        if not data.coboundaries.contains(vec):
            outside = vec
            break
    assert outside is not None
    from triplekit.cohomology import unflatten_cochain

    f = unflatten_cochain(1, 3, 3, outside)
    coords = deformation_cocycle_class(InfinitesimalDeformation(rbo3, f))
    assert any(x != 0 for x in coords)


def test_cocycle_class_requires_cocycle(rbo3):
    bad = cochain_from_map(Matrix.identity(3))
    assert one_cocycle_check(rbo3, bad) != ()
    with pytest.raises(VerificationError):
        deformation_cocycle_class(InfinitesimalDeformation(rbo3, bad))


def test_check_equivalence_reflexive(rbo3):
    d = InfinitesimalDeformation(rbo3, cochain_from_map(rbo3.T))
    w = EquivalenceWitness(wedge(rbo3, 0, 0, 0))
    assert check_equivalence(d, d, w) == ()


def test_check_equivalence_constructed_pair(rbo3):
    # build S1 = S2 + (T D(X) - [X, T-]) so the first condition holds
    # by construction, then verify the second by evaluation
    x = wedge(rbo3, 1, 0, 0)
    dx = dense_oracle.wedge_d_operator(rbo3, x)
    bx = dense_oracle.wedge_bracket_operator(rbo3, x)
    s2 = Matrix.zeros(3, 3)
    shift = (rbo3.T @ dx) - (bx @ rbo3.T)
    s1 = s2 + shift
    d1 = InfinitesimalDeformation(rbo3, cochain_from_map(s1))
    d2 = InfinitesimalDeformation(rbo3, cochain_from_map(s2))
    w = EquivalenceWitness(x)
    assert check_equivalence(d1, d2, w) == ()


def test_check_equivalence_detects_mismatch(rbo3):
    d1 = InfinitesimalDeformation(rbo3, cochain_from_map(rbo3.T))
    d2 = InfinitesimalDeformation(rbo3, zero_cochain(1, 3, 3))
    w = EquivalenceWitness(wedge(rbo3, 0, 0, 0))
    report = check_equivalence(d1, d2, w)
    assert any(v.rule == "intertwining-order-t" for v in report)


def test_find_witness_identical_pair(rbo3):
    d = InfinitesimalDeformation(rbo3, cochain_from_map(rbo3.T))
    w = find_equivalence_witness(d, d)
    assert w is not None
    assert check_equivalence(d, d, w) == ()


def test_find_witness_constructed_pair(rbo3):
    x = wedge(rbo3, 1, 0, 0)
    dx = dense_oracle.wedge_d_operator(rbo3, x)
    bx = dense_oracle.wedge_bracket_operator(rbo3, x)
    shift = (rbo3.T @ dx) - (bx @ rbo3.T)
    d1 = InfinitesimalDeformation(rbo3, cochain_from_map(shift))
    d2 = InfinitesimalDeformation(rbo3, zero_cochain(1, 3, 3))
    w = find_equivalence_witness(d1, d2)
    assert w is not None
    assert check_equivalence(d1, d2, w) == ()


def test_no_witness_across_classes(rbo3):
    data = OperatorComplex(rbo3).cohomology(1)
    outside = next(
        vec for vec in data.cocycles.vectors if not data.coboundaries.contains(vec)
    )
    from triplekit.cohomology import unflatten_cochain

    d1 = InfinitesimalDeformation(rbo3, unflatten_cochain(1, 3, 3, outside))
    d2 = InfinitesimalDeformation(rbo3, zero_cochain(1, 3, 3))
    assert find_equivalence_witness(d1, d2) is None


def random_cocycle_direction(rng, data, source_dim=3, target_dim=3):
    flat = [F(0)] * data.cocycles.ambient_dim
    for vec in data.cocycles.vectors:
        c = F(rng.randint(-2, 2))
        if c:
            for t, x in enumerate(vec):
                flat[t] += c * x
    return unflatten_cochain(1, source_dim, target_dim, tuple(flat))


def test_equivalent_pairs_share_class(rbo3):
    # pairs differing by a wedge coboundary, with the witness found by
    # the exact solver; every pair that admits a witness must have
    # identical class coordinates
    data = OperatorComplex(rbo3).cohomology(1)
    rng = random.Random(SEEDS["deformation"])
    checked = 0
    for _ in range(25):
        s2 = random_cocycle_direction(rng, data)
        coords = [F(rng.randint(-2, 2)) for _ in range(3)]
        x = wedge(rbo3, *coords)
        shift = delta_wedge(rbo3, x)
        from triplekit.cohomology import cochain_to_map

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
        checked += 1
    assert checked > 0, "no equivalent pair was generated; the comparison is vacuous"


def test_trivial_deformation_witness(rbo3):
    zero_dir = InfinitesimalDeformation(rbo3, zero_cochain(1, 3, 3))
    w = is_trivial_deformation(zero_dir)
    assert w is not None

    f = delta_wedge(rbo3, wedge(rbo3, 1, 0, 0))
    d = InfinitesimalDeformation(rbo3, f)
    w = is_trivial_deformation(d)
    assert w is not None
    zero = InfinitesimalDeformation(rbo3, zero_cochain(1, 3, 3))
    assert check_equivalence(d, zero, w) == ()


def test_nontrivial_class_has_no_witness(rbo3):
    data = OperatorComplex(rbo3).cohomology(1)
    outside = next(
        vec for vec in data.cocycles.vectors if not data.coboundaries.contains(vec)
    )
    from triplekit.cohomology import unflatten_cochain

    d = InfinitesimalDeformation(rbo3, unflatten_cochain(1, 3, 3, outside))
    assert is_trivial_deformation(d) is None


def test_trivial_witness_matches_delta_sign(rbo3):
    # with the zero direction as the second deformation, the first
    # condition says the direction equals the wedge coboundary exactly
    x = wedge(rbo3, 1, 0, 0)
    f = delta_wedge(rbo3, x)
    dx = dense_oracle.wedge_d_operator(rbo3, x)
    bx = dense_oracle.wedge_bracket_operator(rbo3, x)
    direct = (rbo3.T @ dx) - (bx @ rbo3.T)
    from triplekit.cohomology import cochain_to_map, flatten_cochain

    assert cochain_to_map(f) == direct
    data = OperatorComplex(rbo3).cohomology(1)
    assert data.coboundaries.contains(flatten_cochain(f))


def test_strict_mode(rbo3):
    f = delta_wedge(rbo3, wedge(rbo3, 1, 0, 0))
    d = InfinitesimalDeformation(rbo3, f)
    w = is_trivial_deformation(d, strict=True)
    # on this operator the strict first-order equivariance conditions
    # are satisfiable as well
    assert w is not None
    zero = InfinitesimalDeformation(rbo3, zero_cochain(1, 3, 3))
    assert check_equivalence(d, zero, w, strict=True) == ()


def test_base_mismatch_rejected(rbo3, rbo4):
    d1 = InfinitesimalDeformation(rbo3, zero_cochain(1, 3, 3))
    d2 = InfinitesimalDeformation(rbo4, zero_cochain(1, 4, 4))
    with pytest.raises(StructureError):
        check_equivalence(d1, d2, EquivalenceWitness(wedge(rbo3, 0, 0, 0)))


def test_coefficient_rules_match_sympy_expansion(rbo3, rbo4):
    # independent oracle: expand the defect of T + tS as a polynomial in
    # t straight from (RB), with sympy arithmetic on the raw tensors, and
    # compare the t, t^2, t^3 coefficients triple by triple with the
    # interpolated rules and with the cocycle check
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(SEEDS["deformation"])
    rules = ("order-t", "order-t2", "order-t3")
    held = {rule: 0 for rule in rules}
    failed = {rule: 0 for rule in rules}

    def rat(x):
        return sympy.Rational(x.numerator, x.denominator)

    def sym(m):
        return sympy.Matrix(m.rows, m.cols, lambda r, c: rat(m.entries[r][c]))

    def br(system, x, y, z):
        out = sympy.zeros(system.dim, 1)
        for i, j, k, vec in dense_oracle.brackets(system):
            out += x[i] * y[j] * z[k] * sympy.Matrix([rat(a) for a in vec])
        return out

    for rbo in (rbo3, rbo4):
        L, Lp, rep = rbo.ambient, rbo.source, rbo.action.rep
        d, dp = L.dim, Lp.dim
        theta = [[sym(m) for m in row] for row in dense_oracle.theta_tensor(rep)]
        E = sympy.eye(dp)
        unit = Cochain(-1, dp, d, tuple(F(k == 0) for k in range(d * (d - 1) // 2)))
        directions = [rbo.T, cochain_to_map(delta_wedge(rbo, unit))]
        directions += [random_integer_matrix(rng, d, dp) for _ in range(2)]
        for S in directions:
            Tt = sym(rbo.T) + t * sym(S)
            cols = [Tt[:, u] for u in range(dp)]
            th = {
                (a, b): sum(
                    (cols[a][i] * cols[b][j] * theta[i][j] for i in range(d) for j in range(d)),
                    sympy.zeros(dp, dp),
                )
                for a in range(dp) for b in range(dp)
            }
            want, want_cocycle = [], []
            for u, v, w in product(range(dp), repeat=3):
                inner = (
                    (th[v, u] - th[u, v]) * E[:, w]
                    - th[u, w] * E[:, v]
                    + th[v, w] * E[:, u]
                    + rat(rbo.weight) * br(Lp, E[:, u], E[:, v], E[:, w])
                )
                defect = (br(L, cols[u], cols[v], cols[w]) - Tt * inner).expand()
                for k, rule in enumerate(rules, start=1):
                    if any(defect[l].coeff(t, k) != 0 for l in range(d)):
                        want.append(Violation(rule, (u + 1, v + 1, w + 1)))
                        failed[rule] += 1
                        if k == 1:
                            want_cocycle.append(Violation("one-cocycle", (u + 1, v + 1, w + 1)))
                    else:
                        held[rule] += 1
            direction = cochain_from_map(S)
            assert check_deformation(InfinitesimalDeformation(rbo, direction)) == tuple(want)
            assert one_cocycle_check(rbo, direction) == tuple(want_cocycle)
    # both outcomes of every rule were compared, so the oracle is not vacuous
    assert all(held.values()) and all(failed.values()), (held, failed)


# ---------------------------------------------------------------------------
# independent references: each equivalence condition expanded by hand, and
# the H^1 complement picked by one span test per cocycle basis vector


def reference_check_equivalence(d1, d2, w, strict=False):
    rbo = d1.base
    L, Lp, rep = rbo.ambient, rbo.source, rbo.action.rep
    dp = Lp.dim
    S1, S2 = d1.direction_map(), d2.direction_map()
    bx = dense_oracle.wedge_bracket_operator(rbo, w.wedge)
    dx = dense_oracle.wedge_d_operator(rbo, w.wedge)
    delta = (rbo.T @ dx) - (bx @ rbo.T)
    out = []
    for u in range(dp):
        if vec_sub(S1.column(u), S2.column(u)) != delta.column(u):
            out.append(Violation("intertwining-order-t", (u + 1,)))
        lhs = bx.apply(S1.column(u))
        rhs = S2.apply(dx.apply(basis_vector(dp, u)))
        if lhs != rhs:
            out.append(Violation("compatibility-order-t", (u + 1,)))
    if strict:
        d, table = L.dim, dense_oracle.theta_tensor(rep)
        for x, y in product(range(d), repeat=2):
            th = table[x][y]
            dm = rep.d_basis(x, y)
            ex, ey = basis_vector(d, x), basis_vector(d, y)
            th_var = rep.theta_vec(bx.apply(ex), ey) + rep.theta_vec(ex, bx.apply(ey))
            if dx @ th != th_var + (th @ dx):
                out.append(Violation("theta-equivariance-order-t", (x + 1, y + 1)))
            d_var = rep.d_vec(bx.apply(ex), ey) + rep.d_vec(ex, bx.apply(ey))
            if dx @ dm != d_var + (dm @ dx):
                out.append(Violation("D-equivariance-order-t", (x + 1, y + 1)))
    return tuple(out)


def reference_cocycle_class(data, direction):
    zb, bb = data.cocycles, data.coboundaries
    target = flatten_cochain(direction)
    if not zb.contains(target):
        return None
    complement = []
    current = list(bb.vectors)
    span = SubspaceBasis.from_spanning(current, zb.ambient_dim)
    for vec in zb.vectors:
        if not span.contains(vec):
            complement.append(vec)
            current.append(vec)
            span = SubspaceBasis.from_spanning(current, zb.ambient_dim)
    cols = list(bb.vectors) + complement
    if not cols:
        return ()
    x = solve(Matrix.from_columns(cols, zb.ambient_dim), target)
    return tuple(x[len(bb.vectors):])


def random_wedge(rng, rbo, low=-2, high=2):
    d = rbo.ambient.dim
    return Cochain(-1, rbo.source.dim, d, tuple(F(rng.randint(low, high)) for _ in wedge_pairs(d)))


def perturbed_adjoint_operator(L, T):
    """L's adjoint with theta(e1,e3) also sending e2 to e1, which breaks
    (R2), acting on the abelian system of the same dimension; with T it
    is not an operator, which the equivalence conditions do not need."""
    theta = [list(row) for row in dense_oracle.theta_tensor(adjoint_representation(L))]
    bump = [[F(0)] * L.dim for _ in range(L.dim)]
    bump[0][1] = F(1)
    theta[0][2] = theta[0][2] + Matrix.from_rows(bump)
    rep = dense_oracle.representation(L, L.dim, theta)
    return RelativeRBO(ActionData(rep, zero_system(L.dim)), F(1), T)


def test_equivalence_conditions_match_hand_expansion(rbo3, rbo4, sl2_lts):
    # the fixtures' actions satisfy (R2), so their strict rows vanish;
    # the perturbed sl2 action makes the strict rows fire as well
    rng = random.Random(SEEDS["deformation"])
    sl2 = perturbed_adjoint_operator(sl2_lts, random_integer_matrix(rng, 3, 3))
    rules = (
        "intertwining-order-t", "compatibility-order-t",
        "theta-equivariance-order-t", "D-equivariance-order-t",
    )
    held = {rule: 0 for rule in rules}
    failed = {rule: 0 for rule in rules}
    for rbo in (rbo3, rbo4, sl2):
        d, dp = rbo.ambient.dim, rbo.source.dim
        data = OperatorComplex(rbo).cohomology(1) if rbo is not sl2 else None
        zero = zero_cochain(1, dp, d)
        for trial in range(6):
            if data and trial % 3 != 2:
                S2 = random_cocycle_direction(rng, data, dp, d)
            else:
                S2 = cochain_from_map(random_integer_matrix(rng, d, dp))
            X = random_wedge(rng, rbo)
            shifted = cochain_to_map(S2) + cochain_to_map(delta_wedge(rbo, X))
            d2 = InfinitesimalDeformation(rbo, S2)
            for S1 in (cochain_from_map(shifted), S2, zero):
                d1 = InfinitesimalDeformation(rbo, S1)
                for w in (X, random_wedge(rng, rbo, -1, 1), zero_cochain(-1, dp, d)):
                    w = EquivalenceWitness(w)
                    for strict in (False, True):
                        want = reference_check_equivalence(d1, d2, w, strict)
                        assert check_equivalence(d1, d2, w, strict) == want
                        for rule in rules:
                            fired = sum(v.rule == rule for v in want)
                            rows = dp if rule in rules[:2] else d * d * strict
                            failed[rule] += fired
                            held[rule] += rows - fired
                found = find_equivalence_witness(d1, d2, strict=trial % 2 == 1)
                if found is not None:
                    assert reference_check_equivalence(d1, d2, found, trial % 2 == 1) == ()
    # both outcomes of every condition were compared
    assert all(held.values()) and all(failed.values()), (held, failed)



STRICT_RULES = ("theta-equivariance-order-t", "D-equivariance-order-t")


def system_conditions(system, rbo, X):
    """(rule, witness, value, target) for every condition of a sparse
    equivalence system in the unit wedges at the wedge X, in report
    order, with the value and the target of each condition as dense
    tuples."""
    conditions, columns, targets = system
    image = _apply(columns, {k: c for k, c in enumerate(X.coeffs) if c})
    out = []
    for c, (rule, witness) in enumerate(conditions):
        size = rbo.source.dim ** 2 if rule in STRICT_RULES else rbo.ambient.dim
        value = tuple(image.get((c, i), 0) for i in range(size))
        out.append((rule, witness, value, tuple(targets.get((c, i), 0) for i in range(size))))
    return out


def oracle_conditions(rbo, S1, S2, X, strict):
    """The dense oracle's conditions at X, with (E2) negated to the
    sign of the sparse system, S2 D(X) - [X, S1 -]."""
    return [
        (rule, witness, tuple(-a for a in value) if rule == "compatibility-order-t" else value, target)
        for rule, witness, value, target in dense_oracle.equivalence_conditions(rbo, S1, S2, X, strict)
    ]


def strict_row_operators(rbo3, rbo4, sl2_lts, lts4):
    """rbo3_P and rbo4_P, whose strict rows vanish, and the perturbed
    sl2 and lts4 actions, where they fire."""
    perturbed = [perturbed_adjoint_operator(L, Matrix.zeros(L.dim, L.dim)) for L in (sl2_lts, lts4)]
    return [rbo3, rbo4, *perturbed]


def test_strict_rows_match_dense_oracle(rbo3, rbo4, sl2_lts, lts4):
    # unit wedges and seeded random wedges, some with fractional coordinates
    rng = random.Random(SEEDS["deformation"])
    fired = 0
    for rbo in strict_row_operators(rbo3, rbo4, sl2_lts, lts4):
        d, dp = rbo.ambient.dim, rbo.source.dim
        n = len(wedge_pairs(d))
        wedges = [Cochain(-1, dp, d, basis_vector(n, k)) for k in range(n)]
        wedges += [random_wedge(rng, rbo) for _ in range(3)]
        wedges += [Cochain(-1, dp, d, tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)))]
        S = InfinitesimalDeformation(rbo, zero_cochain(1, dp, d))
        system = _equivalence_system(S, S, True, S.complex.unit_contractions)
        for X in wedges:
            rows = [
                (rule, witness, value)
                for rule, witness, value, _target in system_conditions(system, rbo, X)
                if rule in STRICT_RULES
            ]
            want = dense_oracle.strict_rows(rbo, X)
            assert rows == want, (d, X.coeffs)
            fired += sum(any(value) for _rule, _witness, value in want)
    assert fired


def equivalence_operators(rbo3, rbo4, sl2_lts, lts4):
    """Every operator the sparse system is checked on: the fixtures, the
    ladders, the sl3 Cartan projection on its self-action (outside the
    paper's hypotheses) and on an abelian copy (inside them), the
    relative operator with dim L' != dim L, the perturbed actions where
    the strict rows fire, and a one-dimensional operator with no wedge
    coordinates."""
    line = zero_system(1)
    point = RelativeRBO(ActionData(adjoint_representation(line), line), F(1), Matrix.identity(1))
    return {
        "rbo3_P": rbo3, "rbo4_P": rbo4, **{f"ladder{n}": ladder(n) for n in (4, 5, 6)},
        "sl3 self-action": sl3_cartan_projection(), "sl3": sln_abelian_cartan_projection(3),
        "relative": relative_rbo(), "sl2 perturbed": perturbed_adjoint_operator(sl2_lts, Matrix.zeros(3, 3)),
        "lts4 perturbed": perturbed_adjoint_operator(lts4, Matrix.zeros(4, 4)), "dim 1": point,
    }


def test_strict_system_matches_dense_oracle(rbo3, rbo4, sl2_lts, lts4):
    # the system's columns are its values at the unit wedges, so comparing
    # them with the dense evaluation at each unit wedge compares every
    # column and the right-hand side; a random wedge checks the product
    rng = random.Random(SEEDS["deformation"])
    for name, rbo in equivalence_operators(rbo3, rbo4, sl2_lts, lts4).items():
        d, dp = rbo.ambient.dim, rbo.source.dim
        n = len(wedge_pairs(d))
        S1, S2 = (random_integer_matrix(rng, d, dp) for _ in range(2))
        d1, d2 = (InfinitesimalDeformation(rbo, cochain_from_map(S)) for S in (S1, S2))
        for strict in (False, True):
            system = _equivalence_system(d1, d2, strict, d1.complex.unit_contractions)
            assert bool(system[1]) == (n > 0), name
            for X in [Cochain(-1, dp, d, basis_vector(n, k)) for k in range(n)] + [random_wedge(rng, rbo)]:
                assert system_conditions(system, rbo, X) == oracle_conditions(rbo, S1, S2, X, strict), (name, X.coeffs)


def test_check_equivalence_matches_dense_oracle(rbo3, rbo4, sl2_lts, lts4):
    # unit, random integral and p/q wedges; S1 is S2 shifted by the delta
    # of one of them, so (E1) both holds and fails
    rng = random.Random(SEEDS["deformation"])
    held = failed = 0
    for name, rbo in equivalence_operators(rbo3, rbo4, sl2_lts, lts4).items():
        d, dp = rbo.ambient.dim, rbo.source.dim
        n = len(wedge_pairs(d))
        units = [Cochain(-1, dp, d, basis_vector(n, k)) for k in range(min(n, 3))]
        wedges = units + [random_wedge(rng, rbo), random_wedge(rng, rbo, -1, 1)]
        wedges += [Cochain(-1, dp, d, tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)))]
        S2 = random_integer_matrix(rng, d, dp)
        for X in wedges[-3:]:
            S1 = S2 + cochain_to_map(OperatorComplex(rbo).apply(X))
            d1, d2 = (InfinitesimalDeformation(rbo, cochain_from_map(S)) for S in (S1, S2))
            for w in wedges:
                for strict in (False, True):
                    want = tuple(
                        Violation(rule, witness)
                        for rule, witness, value, target in dense_oracle.equivalence_conditions(rbo, S1, S2, w, strict)
                        if value != target
                    )
                    assert check_equivalence(d1, d2, EquivalenceWitness(w), strict) == want, (name, w.coeffs)
                    held += not want
                    failed += bool(want)
    assert held and failed


def test_wedge_delta_with_two_maps(rbo3, rbo4, sl2_lts, lts4):
    # at (T, T) it is the dense delta, and over the unit wedges the
    # complex's differential(-1); at (S2, S1) it is the dense oracle's
    # (E2), negated; each at the unit wedges and at a random wedge.  The
    # matrix-free coboundary of a wedge, apply and delta_wedge, equals
    # both the dense delta and the assembled differential(-1) applied to
    # the wedge's coordinates
    rng = random.Random(SEEDS["deformation"])
    for name, rbo in equivalence_operators(rbo3, rbo4, sl2_lts, lts4).items():
        d, dp = rbo.ambient.dim, rbo.source.dim
        cx, pairs = OperatorComplex(rbo), wedge_pairs(d)
        S1, S2 = (random_integer_matrix(rng, d, dp) for _ in range(2))
        wedges = [basis_vector(len(pairs), k) for k in range(len(pairs))]
        wedges.append(tuple(F(rng.randint(-3, 3)) for _ in pairs))
        unit_columns = {}
        for k, coords in enumerate(wedges):
            X = Cochain(-1, dp, d, coords)
            maps = _wedge_maps(rbo.action.rep, {pair: c for pair, c in zip(pairs, coords) if c})
            delta = cochain_from_map(rbo.T @ dense_oracle.wedge_d_operator(rbo, X)
                                     - dense_oracle.wedge_bracket_operator(rbo, X) @ rbo.T)
            got = _wedge_delta(rbo.T, rbo.T)(maps)
            assert got == {i: x for i, x in enumerate(flatten_cochain(delta)) if x}, (name, k)
            if k < len(pairs) and got:
                unit_columns[k] = got
            assert cx.apply(X) == delta_wedge(rbo, X) == delta, (name, k)
            assert cx.differential(-1)({j: c for j, c in enumerate(coords) if c}) == got, (name, k)
            want = {}
            for rule, (u,), value, _ in dense_oracle.equivalence_conditions(rbo, S1, S2, X, False):
                if rule == "compatibility-order-t":
                    want.update({(u - 1) * d + l: -x for l, x in enumerate(value) if x})
            assert _wedge_delta(S2, S1)(maps) == want, (name, k)
        assert unit_columns == dense_oracle.columns(cx.differential(-1), len(pairs)), name


def test_d1_delta_vanishes(rbo3, rbo4):
    # every column of delta is a 1-cocycle: the (E1) block lands in Z^1;
    # on the in-theory sl3 and on the sl3 self-action, which fails
    # verify_action and so lies outside the paper's hypotheses
    columns = 0
    operators = (rbo3, rbo4, *(ladder(n) for n in (4, 5, 6)), sln_abelian_cartan_projection(3))
    for rbo in (*operators, sl3_cartan_projection()):
        cx = OperatorComplex(rbo)
        d = rbo.ambient.dim
        delta = dense_oracle.columns(cx.differential(-1), d * (d - 1) // 2)
        assert all(cx.differential(1)(col) == {} for col in delta.values())
        columns += len(delta)
    assert columns


def test_wedge_sized_for_another_operator_is_rejected(rbo4):
    # a wedge lies in the wedge square of L alone: a wrong target_dim is
    # rejected, and its source_dim is not read
    zero = InfinitesimalDeformation(rbo4, zero_cochain(1, 4, 4))
    for strict in (False, True):
        for source_dim, target_dim in ((4, 3), (4, 5)):
            w = EquivalenceWitness(zero_cochain(-1, source_dim, target_dim))
            with pytest.raises(StructureError, match="sized for a different operator"):
                check_equivalence(zero, zero, w, strict)
        w = EquivalenceWitness(zero_cochain(-1, 3, 4))
        assert check_equivalence(zero, zero, w, strict) == ()


def test_cocycle_class_matches_greedy_complement(rbo3, rbo4):
    rng = random.Random(SEEDS["deformation"])
    raised = 0
    for rbo in (rbo3, rbo4):
        d, dp = rbo.ambient.dim, rbo.source.dim
        data = OperatorComplex(rbo).cohomology(1)
        directions = [zero_cochain(1, dp, d), delta_wedge(rbo, random_wedge(rng, rbo))]
        directions += [random_cocycle_direction(rng, data, dp, d) for _ in range(4)]
        directions += [cochain_from_map(random_integer_matrix(rng, d, dp)) for _ in range(2)]
        for f in directions:
            want = reference_cocycle_class(data, f)
            if want is None:
                raised += 1
                with pytest.raises(VerificationError):
                    deformation_cocycle_class(InfinitesimalDeformation(rbo, f))
            else:
                assert deformation_cocycle_class(InfinitesimalDeformation(rbo, f)) == want
    assert raised > 0


def test_strict_theta_rows_are_minus_r2(lts4, sl2_lts):
    # with T = 0 and S1 = S2 = 0 only the strict rows can fire, and at the
    # unit wedge e_a ^ e_b the theta rows are -(R2) of the action at
    # (a, b, x, y), which the dense oracle evaluates on its own
    for L in (lts4, sl2_lts):
        rbo = perturbed_adjoint_operator(L, Matrix.zeros(L.dim, L.dim))
        r2 = dense_oracle.r2_violations(rbo.action.rep)
        zero = InfinitesimalDeformation(rbo, zero_cochain(1, L.dim, L.dim))
        pairs = wedge_pairs(L.dim)
        assert check_equivalence(zero, zero, EquivalenceWitness(wedge(rbo, *[1] * len(pairs)))) == ()
        fired = {"theta-equivariance-order-t": 0, "D-equivariance-order-t": 0}
        for k, (a, b) in enumerate(pairs):
            w = EquivalenceWitness(Cochain(-1, L.dim, L.dim, basis_vector(len(pairs), k)))
            report = check_equivalence(zero, zero, w, strict=True)
            theta_rows = [v.witness for v in report if v.rule == "theta-equivariance-order-t"]
            assert theta_rows == [(x, y) for aa, bb, x, y in r2 if (aa, bb) == (a + 1, b + 1)]
            for v in report:
                fired[v.rule] += 1
        assert all(fired.values()), (L.dim, fired)
