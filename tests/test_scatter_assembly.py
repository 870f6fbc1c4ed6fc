"""The coboundary pushed from the nonzeros of theta and of the bracket,
read as columns at the unit vectors, against the walk over every
output argument tuple that first assembled it (``dense_oracle.assemble``)
with Yamaguti's signs, and the audit d_3 d_1 = 0 against the product of
the oracle's d_3 with d_1.  The oracle also keeps the other printed
D-sum sign, and shows where and by how much the two forms differ.  The
coboundary of one cochain, pushed from its nonzeros through the same
terms, is compared with the oracle's columns applied to it."""

import random
from fractions import Fraction
from functools import cache

import pytest

import dense_oracle
from triplekit import cohomology
from triplekit.cohomology import (
    Cochain,
    OperatorComplex,
    coboundary,
    cochain_space_basis,
    complex_audit,
    one_cocycle_check,
    zero_cochain,
)
from triplekit.fileio import load_algebra, load_rbo
from triplekit.fixtures import fixture_path
from triplekit.linalg import Matrix, SubspaceBasis
from triplekit.lts import LieTripleSystem, zero_system
from triplekit.reporting import Violation
from triplekit.representations import ActionData, adjoint_representation, self_action, zero_representation
from triplekit.rota_baxter import RelativeRBO

from conftest import (
    SEEDS,
    ladder,
    make_sln_lts,
    relative_rbo,
    sheared,
    sl3_cartan_projection,
    sln_abelian_cartan_projection,
)
from test_operator_complex import generic, random_matrix

F = Fraction


OPERATORS = {
    "rbo3_P": lambda: load_rbo(fixture_path("rbo3_P")),
    "rbo4_P": lambda: load_rbo(fixture_path("rbo4_P")),
    **{f"ladder{n}": (lambda n=n: ladder(n)) for n in range(3, 7)},
    "sl3": sl3_cartan_projection,
}
BARE = {
    "sl2 adjoint": lambda: adjoint_representation(make_sln_lts(2)),
    "lts3 adjoint": lambda: adjoint_representation(load_algebra(fixture_path("lts3"))),
    "lts4 adjoint": lambda: adjoint_representation(load_algebra(fixture_path("lts4"))),
    "zero": lambda: zero_representation(load_algebra(fixture_path("lts3")), 2),
    # brackets with two nonzero components and a zero one
    "sheared sl2 adjoint": lambda: adjoint_representation(sheared(make_sln_lts(2))),
}
SYSTEMS = [*OPERATORS, *BARE]


@cache
def operator_complex(name):
    return OperatorComplex(OPERATORS[name]())


@cache
def rep_of(name):
    return operator_complex(name).rep if name in OPERATORS else BARE[name]()


@cache
def oracle(name, degree, convention="complex"):
    return dense_oracle.assemble(rep_of(name), degree, convention)


@pytest.mark.parametrize("name", SYSTEMS)
def test_scatter_matches_tuple_walk(name):
    rep = rep_of(name)
    d, m = rep.algebra.dim, rep.space_dim
    # the oracle walks d^7 output tuples in degree 5
    for degree in (1, 3, 5) if d <= 4 else (1, 3):
        assert dense_oracle.columns(cohomology._differential(rep, degree), d**degree * m) == oracle(name, degree), degree
    if name in OPERATORS:
        cx = operator_complex(name)
        for degree in (1, 3):
            assert dense_oracle.columns(cx.differential(degree), d**degree * m) == oracle(name, degree), degree


def two_dim_system():
    """A 2-dim bracket with random theta: the coboundary formula needs
    no axiom, so it is fair input for the assembly."""
    rng = random.Random(SEEDS["delta"])
    top = (F(0), F(1))
    L = LieTripleSystem.from_entries(2, {(0, 1, 0): top, (1, 0, 0): (F(0), F(-1))})
    theta = tuple(tuple(random_matrix(rng, 2, 2, 0.7) for _ in range(2)) for _ in range(2))
    return dense_oracle.representation(L, 2, theta)


@pytest.mark.parametrize("rep", [two_dim_system(), adjoint_representation(make_sln_lts(2))], ids=["dim2", "sl2"])
def test_degree_5_coboundary_matches_tuple_walk(rep):
    # at n = 3 the D-sum signs (-1)^(i+1) and (-1)^(n+i) agree, so the
    # two printed forms are one d_5; its D-sum is not zero on these systems
    assert dense_oracle.assemble(rep, 5, d_sum_only=True)
    columns = dense_oracle.assemble(rep, 5)
    assert dense_oracle.assemble(rep, 5, "definition") == columns
    d, m = rep.algebra.dim, rep.space_dim
    f = generic(5, d, m)
    coords = cohomology.cochain_coordinates(f, (5,), d, m)
    assert coboundary(rep, f) == cohomology._image(cohomology._apply(columns, coords), 7, d, m)


@pytest.mark.parametrize("name", SYSTEMS)
def test_conventions_differ_by_twice_the_d_sum(name):
    # the oracle's two printed forms of d_3 differ by twice its D-sum,
    # written with the signs (-1)^(i+1); they are one d_3 where it is empty
    p = dense_oracle.assemble(rep_of(name), 3, "definition", d_sum_only=True)
    definition, complex_ = oracle(name, 3, "definition"), oracle(name, 3)
    difference = {}
    for sign, columns in ((1, definition), (-1, complex_)):
        for j, col in columns.items():
            for i, x in col.items():
                difference.setdefault(j, {})[i] = difference.get(j, {}).get(i, 0) + sign * x
    difference = {j: nz for j, col in difference.items() if (nz := {i: x for i, x in col.items() if x})}
    assert difference == {j: {i: 2 * x for i, x in col.items()} for j, col in p.items()}
    if name.startswith("ladder") or name in ("rbo4_P", "zero"):
        assert p == {}
    if name in ("sl3", "sl2 adjoint"):
        assert p


@pytest.mark.parametrize("name", SYSTEMS)
def test_audit_from_the_two_blocks_matches_oracle(name):
    # the audit is the one product d_3 d_1; the oracle's holds the other
    # printed form's too, which fails where the D-sum does not vanish
    want = dense_oracle.audit(rep_of(name))
    assert complex_audit(rep_of(name)) == want["complex"]
    if name in OPERATORS:
        # the complex runs the same audit before its degree-3 cohomology,
        # which raises where it fails
        assert want["complex"]
        operator_complex(name).cohomology(3)
    if name in ("sl3", "sl2 adjoint"):
        assert want == {"definition": False, "complex": True}


def test_no_coboundary_takes_a_sign_convention(rbo4):
    # the one coboundary has Yamaguti's signs: neither the bare coboundary
    # nor the operator complex takes a convention
    cx = OperatorComplex(rbo4)
    for degree in (1, 3):
        with pytest.raises(TypeError):
            coboundary(cx.rep, zero_cochain(degree, 4, 4), "complex")
    with pytest.raises(TypeError):
        cx.differential(3, "complex")
    with pytest.raises(TypeError):
        cx.apply(zero_cochain(3, 4, 4), "complex")


@pytest.mark.parametrize("name", ["rbo3_P", "rbo4_P", "ladder6", "sl3"])
def test_d1_lands_in_the_constrained_cochains(name):
    cx = operator_complex(name)
    d, dp = cx.rbo.ambient.dim, cx.rbo.source.dim
    image = SubspaceBasis.from_sparse(dense_oracle.columns(cx.differential(1), dp * d).values(), dp**3 * d)
    assert image.dim > 0
    assert image.is_subspace_of(cochain_space_basis(3, dp, d))


def sl2_cartan_projection():
    """sl2 on itself with T the projection onto span{H}, at weight 0:
    outside the paper's hypotheses, like ``sl3_cartan_projection``."""
    T = Matrix(3, 3, tuple(tuple(int(i == j == 2) for j in range(3)) for i in range(3)))
    return RelativeRBO(self_action(make_sln_lts(2)), 0, T)


def source_dim_0():
    L = load_algebra(fixture_path("lts3"))
    return RelativeRBO(ActionData(zero_representation(L, 0), zero_system(0)), 1, Matrix(3, 0, ((),) * 3))


def ambient_dim_0():
    L = zero_system(0)
    return RelativeRBO(ActionData(zero_representation(L, 2), zero_system(2)), 1, Matrix(0, 2, ()))


APPLIED = {
    "rbo3_P": OPERATORS["rbo3_P"],
    "rbo4_P": OPERATORS["rbo4_P"],
    **{f"ladder{n}": (lambda n=n: ladder(n)) for n in range(4, 7)},
    "sl3 abelian": lambda: sln_abelian_cartan_projection(3),
    "relative": relative_rbo,
    "source dim 0": source_dim_0,
    "ambient dim 0": ambient_dim_0,
}
# the operators, in the theory and outside it, on which P is pinned
# against D_T; the self-actions fail verify_action
D_SUM = {
    **APPLIED,
    "sl2 abelian": lambda: sln_abelian_cartan_projection(2),
    "sl2 self-action": sl2_cartan_projection,
    "sl3 self-action": sl3_cartan_projection,
}


@cache
def applied_complex(name):
    return OperatorComplex(D_SUM[name]())


def random_cochains(degree, ds, dt, rng):
    """A dense random cochain and one with a few nonzero value vectors."""
    def value():
        return tuple(F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) for _ in range(dt))

    count = ds**degree
    dense = Cochain(degree, ds, dt, tuple(value() for _ in range(count)))
    sparse = [(F(0),) * dt] * count
    for p in rng.sample(range(count), min(count, 5)):
        sparse[p] = value()
    return dense, Cochain(degree, ds, dt, tuple(sparse))


def assembled_image(columns, f):
    ds, dt = f.source_dim, f.target_dim
    coords = cohomology.cochain_coordinates(f, (f.degree,), ds, dt)
    return cohomology._image(cohomology._apply(columns, coords), f.degree + 2, ds, dt)


@pytest.mark.parametrize("name", APPLIED)
def test_scatter_apply_matches_the_assembled_differential(name):
    # the push of cochains with non-integral values against the oracle's
    # walk applied to them, and against the complex's own differential
    # read as columns at the unit vectors
    cx = applied_complex(name)
    rep, rng = cx.rep, random.Random(SEEDS["scatter_apply"])
    dp, d = cx.rbo.source.dim, cx.rbo.ambient.dim
    for degree in (1, 3):
        dense, sparse = random_cochains(degree, dp, d, rng)
        walked = dense_oracle.assemble(rep, degree)
        # on sl3 in degree 3 the sparse cochain alone keeps the test short
        for f in (sparse,) if name == "sl3 abelian" and degree == 3 else (dense, sparse):
            coords = cohomology.cochain_coordinates(f, (degree,), dp, d)
            assert cx.differential(degree)(coords) == cohomology._apply(walked, coords), degree
            want = assembled_image(walked, f)
            assert assembled_image(dense_oracle.columns(cx.differential(degree), dp**degree * d), f) == want
            assert coboundary(rep, f) == want, degree
            assert cx.apply(f) == want, degree


@pytest.mark.parametrize("name", ["rbo3_P", "ladder4", "relative", "source dim 0", "ambient dim 0"])
def test_degree_5_scatter_apply_matches_tuple_walk(name):
    rep, rng = applied_complex(name).rep, random.Random(SEEDS["scatter_apply"])
    columns, push = dense_oracle.assemble(rep, 5), cohomology._differential(rep, 5)
    for f in random_cochains(5, rep.algebra.dim, rep.space_dim, rng):
        coords = cohomology.cochain_coordinates(f, (5,), rep.algebra.dim, rep.space_dim)
        assert push(coords) == cohomology._apply(columns, coords)
        assert coboundary(rep, f) == assembled_image(columns, f)


@pytest.mark.parametrize("name", D_SUM)
def test_d_sum_block_is_empty_exactly_when_d_t_vanishes(name, monkeypatch):
    cx = applied_complex(name)
    rep, dp = cx.rep, cx.rbo.source.dim
    d_t = any(not rep.d_basis(a, b).is_zero() for a in range(dp) for b in range(dp))
    assert bool(dense_oracle.assemble(rep, 3, d_sum_only=True)) == d_t
    in_theory_p = ("sl3 abelian", "sl2 abelian")
    assert d_t == (name in in_theory_p or "self-action" in name)
    # a degree-3 coboundary builds d_3 alone, so it runs no audit, which
    # needs d_1, whatever D_T
    built, inner = [], cohomology._differential
    monkeypatch.setattr(cohomology, "_differential", lambda rep, degree: built.append(degree) or inner(rep, degree))
    fresh = OperatorComplex(cx.rbo)
    fresh.apply(zero_cochain(3, dp, cx.rbo.ambient.dim))
    assert built == [3]
    # the printed name is "definition" only where the D-sum is empty, so
    # that both printed forms are the d_3 that was audited
    result = fresh.cohomology(3).result
    names = ("complex",) if d_t else ("complex", "definition")
    assert result.sign_convention == names[-1]
    assert result.sign_audit == tuple((c, True) for c in names)


@pytest.mark.parametrize("name", ["rbo3_P", "rbo4_P", "relative", "source dim 0", "ambient dim 0"])
def test_cocycle_witnesses_are_read_off_the_sparse_image(name):
    # the witnesses of one_cocycle_check, read off the value-vector
    # indices of d_1 f's nonzero flat coordinates, against the walk over
    # the dense value vectors of apply(f), on random directions and on a
    # closed one
    cx = applied_complex(name)
    rng = random.Random(SEEDS["scatter_apply"])
    dp, d = cx.rbo.source.dim, cx.rbo.ambient.dim
    directions = [*random_cochains(1, dp, d, rng), *random_cochains(1, dp, d, rng)]
    directions.append(cx.apply(Cochain(-1, dp, d, tuple(F(rng.randint(-3, 3), 2) for _ in range(d * (d - 1) // 2)))))
    for f in directions:
        walked = tuple(
            Violation("one-cocycle", (p // dp**2 + 1, p // dp % dp + 1, p % dp + 1))
            for p, vec in enumerate(cx.apply(f).coeffs) if any(vec)
        )
        assert one_cocycle_check(cx.rbo, f) == walked
    assert one_cocycle_check(cx.rbo, directions[-1]) == ()
    if dp and d:
        assert one_cocycle_check(cx.rbo, directions[0])
