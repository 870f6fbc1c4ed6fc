"""The coboundary scattered from the nonzeros of theta and of the
bracket, as the two blocks A and P, against the walk over every output
argument tuple that assembled it one sign convention at a time
(``dense_oracle.assemble``), and the sign audit read off A d_1 and
P d_1 against the product of each convention's d_3 with d_1."""

import random
from fractions import Fraction
from functools import cache

import pytest

import dense_oracle
from triplekit import cohomology
from triplekit.cohomology import (
    SIGN_CONVENTIONS,
    OperatorComplex,
    coboundary,
    cochain_space_basis,
    complex_audit,
    zero_cochain,
)
from triplekit.fileio import load_algebra, load_rbo
from triplekit.fixtures import fixture_path
from triplekit.linalg import Matrix, StructureError, SubspaceBasis
from triplekit.lts import LieTripleSystem
from triplekit.representations import adjoint_representation, self_action, zero_representation
from triplekit.rota_baxter import RelativeRBO

from conftest import SEEDS, ladder, make_sln_lts
from test_operator_complex import generic, random_matrix

F = Fraction


def sl3_cartan_projection():
    """sl3 with [x,y,z] = [[x,y],z] and T the projection onto its Cartan
    subalgebra, at weight 0."""
    L = make_sln_lts(3)
    T = Matrix(8, 8, tuple(tuple(int(i == j and i >= 6) for j in range(8)) for i in range(8)))
    return RelativeRBO(self_action(L), 0, T)


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
}
SYSTEMS = [*OPERATORS, *BARE]


@cache
def operator_complex(name):
    return OperatorComplex(OPERATORS[name]())


@cache
def rep_of(name):
    return operator_complex(name).rep if name in OPERATORS else BARE[name]()


@cache
def oracle(name, degree, convention):
    return dense_oracle.assemble(rep_of(name), degree, convention)


def scattered(rep, degree, convention):
    a, p = cohomology._assemble(rep, degree)
    return cohomology._combine(a, p, cohomology._p_sign(convention, (degree + 1) // 2))


@pytest.mark.parametrize("name", SYSTEMS)
def test_scatter_matches_tuple_walk(name):
    rep = rep_of(name)
    for degree in (1, 3):
        for convention in SIGN_CONVENTIONS:
            want = oracle(name, degree, convention)
            assert scattered(rep, degree, convention) == want, (degree, convention)
            if name in OPERATORS:
                assert operator_complex(name).differential(degree, convention) == want, (degree, convention)


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
    # at n = 3 the D-sum signs (-1)^(i+1) and (-1)^(n+i) agree, so both
    # conventions are A + P there; P is not zero on these systems
    assert cohomology._assemble(rep, 5)[1]
    d, m = rep.algebra.dim, rep.space_dim
    f = generic(5, d, m)
    for convention in SIGN_CONVENTIONS:
        want = cohomology._image(dense_oracle.assemble(rep, 5, convention), f)
        assert coboundary(rep, f, convention) == want, convention


@pytest.mark.parametrize("name", SYSTEMS)
def test_conventions_differ_by_twice_the_d_sum(name):
    _, p = cohomology._assemble(rep_of(name), 3)
    definition, complex_ = oracle(name, 3, "definition"), oracle(name, 3, "complex")
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
    want = dense_oracle.audit(rep_of(name))
    assert complex_audit(rep_of(name)) == want
    if name in OPERATORS:
        assert operator_complex(name).audit == want
    if name in ("sl3", "sl2 adjoint"):
        assert want == {"definition": False, "complex": True}


def test_unknown_convention_is_rejected_in_every_degree(rbo4):
    cx = OperatorComplex(rbo4)
    cochains = [zero_cochain(degree, 4, 4) for degree in (-1, 1, 3)]

    def rejected():
        for degree in (-1, 1, 3):
            with pytest.raises(StructureError, match="unknown sign convention"):
                cx.differential(degree, "bogus")
        for f in cochains:
            with pytest.raises(StructureError, match="unknown sign convention"):
                cx.apply(f, "bogus")

    rejected()
    for degree in (-1, 1, 3):
        cx.differential(degree)
    cx.audit
    rejected()
    with pytest.raises(StructureError, match="unknown sign convention"):
        coboundary(cx.rep, cochains[1], "bogus")


@pytest.mark.parametrize("name", ["rbo3_P", "rbo4_P", "ladder6", "sl3"])
def test_d1_lands_in_the_constrained_cochains(name):
    cx = operator_complex(name)
    d, dp = cx.rbo.ambient.dim, cx.rbo.source.dim
    image = SubspaceBasis.from_sparse(cx.differential(1).values(), dp**3 * d)
    assert image.dim > 0
    assert image.is_subspace_of(cochain_space_basis(3, dp, d))
