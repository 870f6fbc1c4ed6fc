import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from triplekit.cli import main
from triplekit.cohomology import (
    Cochain,
    OperatorComplex,
    _differential,
    cochain_coordinates,
    cochain_from_map,
    cochain_map_p,
    cochain_space_basis,
    cochain_to_map,
    coboundary,
    cohomology_group,
    complex_audit,
    delta_wedge,
    flat_arg_index,
    flatten_cochain,
    induced_rep,
    one_cocycle_check,
    unflatten_cochain,
    zero_cochain,
)
from triplekit.fileio import cochain_to_json, dump_json, load_rbo, rbo_to_json
from triplekit.fixtures import fixture_path
from triplekit.linalg import (
    Matrix,
    StructureError,
    SubspaceBasis,
    VerificationError,
    basis_vector,
    kernel_basis,
)
from triplekit.lts import zero_system
from triplekit.properties import random_integer_matrix
from triplekit.representations import (
    ActionData,
    adjoint_representation,
    self_action,
    verify_action,
    verify_representation,
    zero_representation,
)
from triplekit.rota_baxter import RBOHomomorphism, RelativeRBO, check_rbo_homomorphism, descendent_lts

import dense_oracle
from conftest import (
    SEEDS,
    cochain_satisfies_constraints,
    elementary_cochain,
    make_sln_lts,
    sln_abelian_cartan_projection,
)

F = Fraction


def random_cochain(rng, degree, d, m):
    count = d**degree
    coeffs = tuple(
        tuple(F(rng.randint(-3, 3)) for _ in range(m)) for _ in range(count)
    )
    return Cochain(degree, d, m, coeffs)


# ---------------------------------------------------------------------------
# cochain spaces


def test_cochain_space_dims_degree_1_and_wedge():
    assert cochain_space_basis(1, 3, 3).dim == 9
    assert cochain_space_basis(-1, 3, 3).dim == 3
    assert cochain_space_basis(-1, 3, 4).dim == 6


def test_cochain_space_degree_3_cross_checked_by_sympy():
    sympy = pytest.importorskip("sympy")
    got = cochain_space_basis(3, 3, 3)
    # independent brute force: solve the constraint system with sympy
    # over the 27 scalar coordinates of a 3-argument tensor
    idx = {t: p for p, t in enumerate(product(range(3), repeat=3))}
    rows = []
    for t in product(range(3), repeat=3):
        swap = (t[1], t[0], t[2])
        row = [0] * 27
        row[idx[t]] += 1
        row[idx[swap]] += 1
        rows.append(row)
        cyc1 = (t[1], t[2], t[0])
        cyc2 = (t[2], t[0], t[1])
        row = [0] * 27
        row[idx[t]] += 1
        row[idx[cyc1]] += 1
        row[idx[cyc2]] += 1
        rows.append(row)
    scalar_nullity = 27 - sympy.Matrix(rows).rank()
    assert got.dim == scalar_nullity * 3
    for vec in got.vectors:
        assert cochain_satisfies_constraints(unflatten_cochain(3, 3, 3, vec))


@lru_cache(maxsize=None)
def scalar_constraint_kernel(degree, d):
    """Kernel of the constraint equations on the scalar tensor of a
    degree >= 3 cochain on d source dimensions."""
    count = d**degree
    p = degree - 3
    rows = []
    for args in product(range(d), repeat=degree):
        head, (a, b, c) = args[:p], args[p:]
        for others in (((b, a, c),), ((b, c, a), (c, a, b))):
            row = [F(0)] * count
            for t in (args, *(head + o for o in others)):
                row[flat_arg_index(t, d)] += 1
            rows.append(row)
    return kernel_basis(Matrix.from_rows(rows))


def reference_cochain_space_basis(degree, d_source, d_target):
    """The elimination path: the scalar constraint kernel, one copy of
    it per target coordinate, and the canonical basis of their span."""
    count = d_source**degree
    vectors = []
    for svec in scalar_constraint_kernel(degree, d_source).vectors:
        for l in range(d_target):
            full = [F(0)] * (count * d_target)
            for pos, x in enumerate(svec):
                full[pos * d_target + l] = x
            vectors.append(tuple(full))
    return SubspaceBasis.from_spanning(vectors, count * d_target)


@pytest.mark.parametrize(
    "degree, source_dims, target_dims", [(3, range(7), range(4)), (5, range(4), range(3))]
)
def test_explicit_basis_equals_elimination(degree, source_dims, target_dims):
    for ds in source_dims:
        for dt in target_dims:
            got = cochain_space_basis(degree, ds, dt, allow_degree_5=True)
            assert got == reference_cochain_space_basis(degree, ds, dt), (ds, dt)
            assert got.dim == ds ** (degree - 3) * ds * (ds - 1) * (ds + 1) // 3 * dt


def test_degree_5_needs_override():
    with pytest.raises(StructureError):
        cochain_space_basis(5, 2, 2)
    basis = cochain_space_basis(5, 2, 2, allow_degree_5=True)
    assert basis.dim > 0
    for vec in basis.vectors[:3]:
        assert cochain_satisfies_constraints(unflatten_cochain(5, 2, 2, vec))


def test_flatten_round_trip():
    rng = random.Random(SEEDS["fuzz"])
    f = random_cochain(rng, 3, 2, 3)
    assert unflatten_cochain(3, 2, 3, flatten_cochain(f)) == f
    g = Cochain(-1, 2, 3, (F(1), F(-2), F(1, 2)))
    assert unflatten_cochain(-1, 2, 3, flatten_cochain(g)) == g


def test_cochain_map_round_trip():
    m = Matrix.from_rows([[1, 2, 0], [0, 1, 5]])
    assert cochain_to_map(cochain_from_map(m)) == m


# ---------------------------------------------------------------------------
# the coboundary and its sign conventions


def test_coboundary_of_zero_is_zero(lts3):
    adj = adjoint_representation(lts3)
    assert coboundary(adj, zero_cochain(1, 3, 3)).is_zero()
    assert coboundary(adj, zero_cochain(3, 3, 3)).is_zero()


def test_coboundary_over_zero_structures_is_zero():
    rep = zero_representation(zero_system(3), 3)
    rng = random.Random(SEEDS["fuzz"])
    for _ in range(5):
        f = random_cochain(rng, 1, 3, 3)
        assert coboundary(rep, f).is_zero()


def test_degree_1_formula_explicit(sl2_lts):
    # (df)(x1,x2,x3) = theta(x2,x3)f(x1) - theta(x1,x3)f(x2)
    #                  + D(x1,x2)f(x3) - f([x1,x2,x3])
    adj = adjoint_representation(sl2_lts)
    rng = random.Random(SEEDS["fuzz"])
    f = random_cochain(rng, 1, 3, 3)
    g = coboundary(adj, f)
    th, bracket = dense_oracle.theta_tensor(adj), dense_oracle.bracket_tensor(sl2_lts)
    for a, b, c in product(range(3), repeat=3):
        want = list(th[b][c].apply(f.value((a,))))
        t = th[a][c].apply(f.value((b,)))
        want = [want[l] - t[l] for l in range(3)]
        t = adj.d_basis(a, b).apply(f.value((c,)))
        want = [want[l] + t[l] for l in range(3)]
        br = bracket[a][b][c]
        for lsrc in range(3):
            if br[lsrc]:
                fv = f.value((lsrc,))
                want = [want[l] - br[lsrc] * fv[l] for l in range(3)]
        assert g.value((a, b, c)) == tuple(want)


def test_coboundary_output_satisfies_constraints(lts3, sl2_lts):
    rng = random.Random(SEEDS["yamaguti"])
    for L in (lts3, sl2_lts):
        adj = adjoint_representation(L)
        for _ in range(5):
            f1 = random_cochain(rng, 1, L.dim, L.dim)
            g3 = coboundary(adj, f1)
            assert cochain_satisfies_constraints(g3)
            g5 = coboundary(adj, g3)
            assert cochain_satisfies_constraints(g5)


def test_sign_audit_on_rich_system(sl2_lts):
    # Yamaguti's coboundary squares to zero on a system with nonvanishing
    # iterated brackets; the other printed D-sum sign, kept by the
    # oracle, does not
    adj = adjoint_representation(sl2_lts)
    assert complex_audit(adj) is True
    assert dense_oracle.audit(adj) == {"definition": False, "complex": True}


def test_sign_audit_on_fixture_adjoints(lts3, lts4):
    # the bundled systems are too degenerate to see the discrepancy;
    # both printed forms close the complex there
    for L in (lts3, lts4):
        adj = adjoint_representation(L)
        assert complex_audit(adj) is True
        assert dense_oracle.audit(adj) == {"definition": True, "complex": True}
        for degree in (1, 3, 5):
            columns = dense_oracle.columns(_differential(adj, degree), L.dim ** (degree + 1))
            assert columns == dense_oracle.assemble(adj, degree), degree


def test_double_coboundary_random_cochains(sl2_lts):
    adj = adjoint_representation(sl2_lts)
    rng = random.Random(SEEDS["yamaguti"])
    for _ in range(10):
        f = random_cochain(rng, 1, 3, 3)
        assert coboundary(adj, coboundary(adj, f)).is_zero()


# ---------------------------------------------------------------------------
# the operator complex


def test_induced_rep_is_representation_of_descendent(rbo3, rbo4):
    for rbo in (rbo3, rbo4):
        rep_t = induced_rep(rbo)
        assert rep_t.algebra == descendent_lts(rbo)
        assert verify_representation(rep_t) == ()


def test_operator_complex_closes_on_fixtures(rbo3, rbo4):
    # the double coboundary vanishes on all of C^1 for both bundled
    # operators at both probe weights; these systems are degenerate
    # enough that the oracle's other printed form closes the complex too
    for base in (rbo3, rbo4):
        for lam in (F(0), F(1)):
            rep = induced_rep(RelativeRBO(base.action, lam, base.T))
            assert complex_audit(rep) is True
            assert dense_oracle.audit(rep) == {"definition": True, "complex": True}


def test_induced_rep_worked_value(rbo3):
    rep_t = induced_rep(rbo3)
    # theta_T(e1, e2) applied to e1 expands to zero term by term
    assert dense_oracle.theta_tensor(rep_t)[0][1].apply(basis_vector(3, 0)) == (F(0),) * 3


def test_induced_rep_zero_operator(rbo3):
    zero = RelativeRBO(rbo3.action, F(0), Matrix.zeros(3, 3))
    rep_t = induced_rep(zero)
    th = dense_oracle.theta_tensor(rep_t)
    assert all(th[u][v].is_zero() for u in range(3) for v in range(3))


def test_delta_wedge_worked_example(rbo3):
    x = Cochain(-1, 3, 3, (F(1), F(0), F(0)))  # e1 ^ e2
    f = delta_wedge(rbo3, x)
    assert f.value((0,)) == (F(0), F(0), F(-1))
    assert f.value((1,)) == (F(0),) * 3
    assert f.value((2,)) == (F(0),) * 3


def test_delta_wedge_zero(rbo3):
    assert delta_wedge(rbo3, zero_cochain(-1, 3, 3)).is_zero()


def test_wedge_images_are_closed(rbo3, rbo4):
    # the coboundary of any wedge image is closed
    for rbo in (rbo3, rbo4):
        w = rbo.ambient.dim * (rbo.ambient.dim - 1) // 2
        for k in range(w):
            coords = tuple(F(1) if t == k else F(0) for t in range(w))
            f = delta_wedge(rbo, Cochain(-1, rbo.source.dim, rbo.ambient.dim, coords))
            assert OperatorComplex(rbo).apply(f).is_zero()
            assert one_cocycle_check(rbo, f) == ()


def test_one_cocycle_matches_coboundary(rbo3):
    rng = random.Random(SEEDS["deformation"])
    for _ in range(40):
        f = cochain_from_map(random_integer_matrix(rng, 3, 3))
        direct = one_cocycle_check(rbo3, f) == ()
        engine = OperatorComplex(rbo3).apply(f).is_zero()
        assert direct == engine


def test_one_cocycle_zero_map(rbo3):
    assert one_cocycle_check(rbo3, zero_cochain(1, 3, 3)) == ()


def test_cohomology_dims_fixture_3(rbo3):
    res = cohomology_group(rbo3, 1)
    assert (res.dim_cocycles, res.dim_coboundaries, res.dim_H) == (6, 1, 5)
    assert res.dim_H == res.dim_cocycles - res.dim_coboundaries


def test_cohomology_dims_fixture_4(rbo4):
    res = cohomology_group(rbo4, 1)
    assert (res.dim_cocycles, res.dim_coboundaries, res.dim_H) == (12, 0, 12)


def test_cohomology_zero_operator_zero_weight(rbo3):
    # with T = 0 at weight 0 every structure map vanishes, so the
    # coboundary out of degree 1 is zero and H^1 is all of C^1
    zero = RelativeRBO(rbo3.action, F(0), Matrix.zeros(3, 3))
    res = cohomology_group(zero, 1)
    assert res.dim_cocycles == 9
    assert res.dim_coboundaries == 0
    assert res.dim_H == 9


def test_cohomology_zero_bracket_pair():
    # fully degenerate: zero brackets on both sides, zero action, T = 0
    from triplekit.representations import ActionData

    L = zero_system(3)
    Lp = zero_system(2)
    action = ActionData(zero_representation(L, 2), Lp)
    zero = RelativeRBO(action, F(0), Matrix.zeros(3, 2))
    res = cohomology_group(zero, 1)
    assert (res.dim_cocycles, res.dim_coboundaries, res.dim_H) == (6, 0, 6)


def test_cohomology_containment(rbo3, rbo4):
    for rbo in (rbo3, rbo4):
        for degree in (1, 3):
            data = OperatorComplex(rbo).cohomology(degree)
            assert data.coboundaries.is_subspace_of(data.cocycles)
            assert data.result.dim_H == data.cocycles.dim - data.coboundaries.dim


def test_cohomology_degree_3_reports_convention(rbo3):
    # D_T = 0 on rbo3_P, so both printed forms are its d_3
    res = cohomology_group(rbo3, 3)
    assert res.degree == 3
    assert res.sign_convention == "definition"
    assert res.sign_audit == (("complex", True), ("definition", True))


def test_sl3_cartan_projection_needs_the_complex_convention():
    # sl3 with [x,y,z] = [[x,y],z] and T the projection onto its Cartan
    # subalgebra at weight 0, outside the paper's hypotheses: the first
    # operator on which the oracle's other printed D-sum sign fails
    # d(d(f)) = 0, so that only "complex" is printed
    L = make_sln_lts(3)
    cartan = range(6, 8)
    T = Matrix(8, 8, tuple(tuple(int(i == j and i in cartan) for j in range(8)) for i in range(8)))
    cx = OperatorComplex(RelativeRBO(self_action(L), 0, T))
    h1 = cx.cohomology(1).result
    assert (h1.dim_cocycles, h1.dim_coboundaries, h1.dim_H) == (13, 6, 7)
    assert complex_audit(cx.rep) is True
    assert dense_oracle.audit(cx.rep) == {"complex": True, "definition": False}
    h3 = cx.cohomology(3).result
    assert (h3.dim_cocycles, h3.dim_coboundaries, h3.dim_H) == (96, 51, 45)
    assert h3.sign_convention == "complex"
    assert h3.sign_audit == (("complex", True),)


def test_in_theory_sl3_prints_the_complex_convention_in_every_command(tmp_path, capsys):
    # the adjoint of sl3 on an abelian copy of itself satisfies the
    # paper's hypotheses, and D_T is not zero on it; coh group prints
    # "complex" alone, and coh coboundary applies Yamaguti's d_3
    rbo = sln_abelian_cartan_projection(3)
    assert verify_action(rbo.action) == ()
    op = tmp_path / "op.json"
    op.write_text(dump_json(rbo_to_json(rbo)))
    assert main(["coh", "group", str(op), "--degree", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "degree": 3, "dim_Z": 96, "dim_B": 51, "dim_H": 45,
        "sign_convention": "complex", "sign_audit": {"complex": True},
    }
    cx = OperatorComplex(rbo)
    # the first constrained basis cochain whose image tells the oracle's
    # two printed forms apart
    forms = {c: dense_oracle.assemble(cx.rep, 3, c) for c in dense_oracle.SIGN_CONVENTIONS}
    for row in cochain_space_basis(3, 8, 8).rows:
        f = unflatten_cochain(3, 8, 8, tuple(dict(row).get(i, 0) for i in range(8**4)))
        images = {c: dense_oracle.image(columns, f) for c, columns in forms.items()}
        if images["complex"] != images["definition"]:
            break
    path = tmp_path / "f.json"
    path.write_text(dump_json(cochain_to_json(f)))
    assert main(["coh", "coboundary", str(op), str(path)]) == 0
    assert capsys.readouterr().out == dump_json(cochain_to_json(images["complex"]))


def test_degree_3_at_a_nonzero_weight_needs_a_verified_action(tmp_path, capsys):
    # T = id on sl2 at weight -2 passes (RB), but its self-action fails
    # verify_action, the paper's hypothesis at a nonzero weight: every
    # degree-3 question exits 1 naming it, while degree 1 needs none
    rbo = RelativeRBO(self_action(make_sln_lts(2)), -2, Matrix.identity(3))
    assert verify_action(rbo.action)
    op = tmp_path / "op.json"
    op.write_text(dump_json(rbo_to_json(rbo)))
    failed = {"error": "degree 3 at a nonzero weight requires the action to pass verify_action", "kind": "verification"}
    for degree, code in ((3, 1), (1, 0)):
        path = tmp_path / f"f{degree}.json"
        path.write_text(dump_json(cochain_to_json(elementary_cochain(degree, 3, 3, 1))))
        assert main(["coh", "coboundary", str(op), str(path)]) == code
        out = json.loads(capsys.readouterr().out)
        assert (out == failed) == bool(code)
        assert main(["coh", "group", str(op), "--degree", str(degree)]) == code
        assert (json.loads(capsys.readouterr().out) == failed) == bool(code)


def test_degree_3_cohomology_exits_1_when_d3_d1_is_not_zero(tmp_path, capsys):
    # zero brackets on both sides and a theta that fails (R1), with T an
    # operator at weight 0, where the door checks nothing: d_3 d_1 and
    # d_1 delta are not zero, so coh group exits 1 in degrees 3 and 1,
    # naming the product that fails, while a degree-3 coboundary, which
    # runs no audit, exits 0
    theta = (
        (Matrix(2, 2, ((0, 0), (0, -1))), Matrix(2, 2, ((0, 0), (0, -1)))),
        (Matrix(2, 2, ((-1, 0), (-1, 0))), Matrix(2, 2, ((0, -1), (1, -1)))),
    )
    action = ActionData(dense_oracle.representation(zero_system(2), 2, theta), zero_system(2))
    rbo = RelativeRBO(action, 0, Matrix(2, 2, ((0, 1), (0, 0))))
    assert verify_representation(action.rep) and not verify_action(action)
    assert dense_oracle.audit(OperatorComplex(rbo).rep)["complex"] is False
    op, path = tmp_path / "op.json", tmp_path / "f.json"
    op.write_text(dump_json(rbo_to_json(rbo)))
    path.write_text(dump_json(cochain_to_json(elementary_cochain(3, 2, 2, 5))))
    for degree, product in ((3, "d_3 d_1"), (1, "d_1 delta")):
        assert main(["coh", "group", str(op), "--degree", str(degree)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": f"{product} is not zero: the cochain complex does not close", "kind": "verification",
        }
    assert main(["coh", "coboundary", str(op), str(path)]) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_at_weight_0_a_self_action_has_the_complex_of_its_abelian_copy(n, tmp_path, capsys):
    # at weight 0 neither theta_T nor the descendent bracket reads the
    # bracket of L', so the Cartan projection on the self-action, outside
    # the paper's hypotheses, has the complex of the one on the abelian
    # copy, inside them, and no hypothesis is checked at the door
    abelian = sln_abelian_cartan_projection(n)
    outside = RelativeRBO(self_action(make_sln_lts(n)), 0, abelian.T)
    assert verify_action(outside.action) and not verify_action(abelian.action)
    size = (n * n - 1) ** 4
    assert dense_oracle.columns(OperatorComplex(outside).differential(3), size) == dense_oracle.columns(
        OperatorComplex(abelian).differential(3), size)
    printed = []
    for rbo in (outside, abelian):
        op = tmp_path / "op.json"
        op.write_text(dump_json(rbo_to_json(rbo)))
        assert main(["coh", "group", str(op), "--degree", "3"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert json.loads(printed[0])["sign_audit"] == {"complex": True}


D5D3 = {
    "sl2 abelian": lambda: sln_abelian_cartan_projection(2),
    "rbo3_P": lambda: load_rbo(fixture_path("rbo3_P")),
    "rbo4_P": lambda: load_rbo(fixture_path("rbo4_P")),
    "sl3 abelian": lambda: sln_abelian_cartan_projection(3),
    "sl4 abelian": lambda: sln_abelian_cartan_projection(4),
}


@pytest.mark.parametrize("name", D5D3)
def test_d5_d3_vanishes_under_the_one_coboundary(name):
    # d_5 d_3 = 0 on constrained degree-3 cochains: every row of the
    # basis, or 40 seeded rows on sl4, pushed through d_3 and d_5 on
    # coordinate dicts, so that no dense degree-7 image is built.  The
    # oracle's other printed form of d_3, followed by the same d_5 (both
    # forms agree out of degree 5), fails on the systems whose D_T is not
    # zero; its dense image is read on every row, on two seeded rows on
    # sl3, and not on sl4
    rep = OperatorComplex(D5D3[name]()).rep
    dp, d = rep.algebra.dim, rep.space_dim
    rows = cochain_space_basis(3, dp, d).rows
    d3, d5 = _differential(rep, 3), _differential(rep, 5)
    for row in random.Random(SEEDS["d5d3"]).sample(rows, 40) if name == "sl4 abelian" else rows:
        assert not d5(d3(dict(row)))
    if name == "sl4 abelian":
        return
    if name == "sl3 abelian":
        rows = random.Random(SEEDS["d5d3"]).sample(rows, 2)
    definition = dense_oracle.assemble(rep, 3, "definition")
    failures = 0
    for row in rows:
        f = unflatten_cochain(3, dp, d, tuple(dict(row).get(i, 0) for i in range(dp**3 * d)))
        g = cochain_coordinates(dense_oracle.image(definition, f), (5,), dp, d)
        failures += bool(d5(g))
    assert failures == {"sl2 abelian": 2, "rbo3_P": 0, "rbo4_P": 0, "sl3 abelian": 2}[name]


def test_cohomology_requires_operator(rbo3):
    bad = RelativeRBO(rbo3.action, F(1), Matrix.identity(3))
    with pytest.raises(VerificationError):
        cohomology_group(bad, 1)


# ---------------------------------------------------------------------------
# transport along operator homomorphisms


def test_cochain_map_identity_is_identity(rbo3):
    h = RBOHomomorphism(rbo3, rbo3, Matrix.identity(3), Matrix.identity(3))
    rng = random.Random(SEEDS["fuzz"])
    for degree in (1, 3):
        f = random_cochain(rng, degree, 3, 3)
        assert cochain_map_p(h, f) == f
    assert cochain_map_p(h, zero_cochain(1, 3, 3)).is_zero()


def test_cochain_map_functorial(rbo3):
    psi = Matrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 12]])
    h = RBOHomomorphism(rbo3, rbo3, psi, psi)
    cx = OperatorComplex(rbo3)
    rng = random.Random(SEEDS["fuzz"])
    for _ in range(10):
        f = random_cochain(rng, 1, 3, 3)
        left = cochain_map_p(h, cx.apply(f))
        right = cx.apply(cochain_map_p(h, f))
        assert left == right


@pytest.mark.parametrize("name", ["rbo3", "rbo4"])
def test_cochain_map_intertwines_degree_3(name, request):
    # every non-identity pair of diagonal sign matrices that is an
    # operator homomorphism carries d_3 f to d_3 of the carried f
    rbo = request.getfixturevalue(name)
    d, dp = rbo.ambient.dim, rbo.source.dim

    def diag(signs):
        return Matrix.from_rows([[s if i == j else 0 for j in range(len(signs))] for i, s in enumerate(signs)])

    homs = []
    for sa in product((1, -1), repeat=d):
        for sb in product((1, -1), repeat=dp):
            h = RBOHomomorphism(rbo, rbo, diag(sa), diag(sb))
            if -1 in sa + sb and check_rbo_homomorphism(h) == ():
                homs.append(h)
    assert len(homs) == {"rbo3": 3, "rbo4": 7}[name]
    cx = OperatorComplex(rbo)
    rng = random.Random(SEEDS["fuzz"])
    for h in homs:
        for flat in rng.sample(range(dp**3 * d), 4):
            f = elementary_cochain(3, dp, d, flat)
            assert cochain_map_p(h, cx.apply(f)) == cx.apply(cochain_map_p(h, f))


def test_cochain_map_rejects_singular(rbo3):
    singular = Matrix.zeros(3, 3)
    h = RBOHomomorphism(rbo3, rbo3, Matrix.identity(3), singular)
    with pytest.raises(VerificationError):
        cochain_map_p(h, zero_cochain(1, 3, 3))


def test_cochain_map_rejects_wedge(rbo3):
    h = RBOHomomorphism(rbo3, rbo3, Matrix.identity(3), Matrix.identity(3))
    with pytest.raises(StructureError):
        cochain_map_p(h, zero_cochain(-1, 3, 3))
