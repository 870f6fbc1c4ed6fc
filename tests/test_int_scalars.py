"""Integral scalars as ints against the same computations on Fractions.

Scalars that enter through ``parse_scalar`` are ints when integral, so
integral operators run on int arithmetic.  The oracle here rebuilds each
operator with every scalar a ``Fraction`` through the raw constructors
(``Matrix``, ``LieTripleSystem.from_entries``,
``RepresentationData.from_entries``),
which bypass ``parse_scalar``, and requires every answer to be equal to
the one the int build gives.  Ints and Fractions compare and hash equal,
so equal answers are equal tuples.  No value anywhere may be a float or
a bool, which a quotient of two ints or a JSON ``true`` would bring in.
"""

import random
from fractions import Fraction

import pytest

from triplekit.cohomology import Cochain, OperatorComplex, cochain_from_map, unflatten_cochain
from triplekit.deformations import (
    EquivalenceWitness,
    InfinitesimalDeformation,
    _coefficients,
    check_deformation,
    deformation_cocycle_class,
    is_trivial_deformation,
)
from triplekit.fileio import rbo_from_json, rbo_to_json
from triplekit.linalg import (
    Matrix,
    SubspaceBasis,
    VerificationError,
    echelon,
    invert,
    kernel_basis,
    parse_scalar,
    solve,
)
from triplekit.lts import LieTripleSystem
from triplekit.representations import ActionData, RepresentationData
from triplekit.rota_baxter import RelativeRBO, check_rbo

import dense_oracle
from conftest import SEEDS, ladder

F = Fraction


def fraction_matrix(m: Matrix) -> Matrix:
    return Matrix(m.rows, m.cols, tuple(tuple(F(x) for x in row) for row in m.entries))


def fraction_system(L: LieTripleSystem) -> LieTripleSystem:
    entries = {(i, j, k): tuple(F(x) for x in vec) for i, j, k, vec in dense_oracle.brackets(L)}
    return LieTripleSystem.from_entries(L.dim, entries, L.basis_names)


def fraction_operator(rbo: RelativeRBO, weight) -> RelativeRBO:
    """rbo at ``weight`` with every scalar a Fraction, built without
    parse_scalar."""
    rep = rbo.action.rep
    theta = {(i, j, r, c): F(a) for i, j, entries in rep.nonzero for r, c, a in entries}
    action = ActionData(
        RepresentationData.from_entries(fraction_system(rep.algebra), rep.space_dim, theta),
        fraction_system(rbo.action.target),
    )
    return RelativeRBO(action, F(weight), fraction_matrix(rbo.T))


def int_operator(rbo: RelativeRBO, weight) -> RelativeRBO:
    """rbo at ``weight`` read back from its JSON form, so that every
    scalar went through parse_scalar."""
    data = rbo_to_json(rbo)
    data["weight"] = str(weight)
    return rbo_from_json(data)


def exact_values(obj):
    """Every scalar inside matrices, bases, cochains, witnesses and
    tuples of them."""
    if isinstance(obj, Matrix):
        obj = obj.entries
    elif isinstance(obj, SubspaceBasis):
        obj = obj.vectors
    elif isinstance(obj, Cochain):
        obj = obj.coeffs
    elif isinstance(obj, EquivalenceWitness):
        obj = obj.wedge.coeffs
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from exact_values(item)
    elif obj is not None:
        yield obj


def assert_exact(*objs, eliminated=True):
    """No value is a float or a bool; in the outputs of an elimination
    (``eliminated``), no integral value is a Fraction either."""
    bad = {type(x).__name__ for obj in objs for x in exact_values(obj) if type(x) not in (int, Fraction)}
    assert not bad, bad
    if eliminated:
        integral = [x for obj in objs for x in exact_values(obj) if type(x) is Fraction and x.denominator == 1]
        assert not integral, integral


def scalar(rng, fractional):
    """An entry in [-3, 3], divided by 2 or 3 when ``fractional``."""
    return F(rng.randint(-3, 3), rng.choice((2, 3)) if fractional else 1)


def directions(rng, cx: OperatorComplex):
    """Degree-1 directions: a random map, a cocycle and a coboundary,
    each once integral and once with p/q entries."""
    dp, d = cx.rbo.source.dim, cx.rbo.ambient.dim
    z1 = cx.cohomology(1).cocycles
    for fractional in (False, True):
        yield cochain_from_map(Matrix(d, dp, tuple(
            tuple(scalar(rng, fractional) for _ in range(dp)) for _ in range(d)
        )))
        flat = [F(0)] * z1.ambient_dim
        for vec in z1.vectors:
            c = scalar(rng, fractional)
            flat = [a + c * x for a, x in zip(flat, vec)]
        yield unflatten_cochain(1, dp, d, tuple(flat))
        X = Cochain(-1, dp, d, tuple(scalar(rng, fractional) for _ in range(d * (d - 1) // 2)))
        yield cx.apply(X)


def as_fractions(f: Cochain) -> Cochain:
    return Cochain(f.degree, f.source_dim, f.target_dim, tuple(tuple(F(x) for x in v) for v in f.coeffs))


def as_ints(f: Cochain) -> Cochain:
    return Cochain(f.degree, f.source_dim, f.target_dim, tuple(tuple(parse_scalar(x) for x in v) for v in f.coeffs))


def class_coordinates(d: InfinitesimalDeformation):
    try:
        return deformation_cocycle_class(d)
    except VerificationError:
        return "not a cocycle"


def answers(rbo: RelativeRBO, direction: Cochain) -> dict:
    d = InfinitesimalDeformation(rbo, direction)
    return {
        "check_rbo": check_rbo(rbo.action, rbo.weight, rbo.T + d.direction_map()),
        "coefficients": tuple(c for _, c in _coefficients(d)),
        "check_deformation": check_deformation(d),
        "class": class_coordinates(d),
        "trivial": is_trivial_deformation(d),
        "trivial_strict": is_trivial_deformation(d, strict=True),
    }


@pytest.mark.parametrize("weight", ["1", "1/2"])
@pytest.mark.parametrize("name", ["rbo3", "rbo4", "ladder4"])
def test_int_build_matches_fraction_build(name, weight, request):
    base = ladder(4) if name == "ladder4" else request.getfixturevalue(name)
    rbo_int = int_operator(base, weight)
    rbo_frac = fraction_operator(base, parse_scalar(weight))
    assert type(rbo_int.weight) is (int if weight == "1" else Fraction)
    assert all(type(x) is int for x in exact_values(rbo_int.T))
    assert all(type(x) is Fraction for x in exact_values(rbo_frac.T))

    for rbo in (rbo_int, rbo_frac):
        assert check_rbo(rbo.action, rbo.weight, rbo.T) == ()
    cx_int, cx_frac = OperatorComplex(rbo_int), OperatorComplex(rbo_frac)
    for degree in (1, 3):
        got, want = cx_int.cohomology(degree), cx_frac.cohomology(degree)
        assert got == want, degree
        assert_exact(got.cocycles, got.coboundaries)

    rng = random.Random(SEEDS["scalars"])
    for n, direction in enumerate(directions(rng, cx_frac)):
        got = answers(rbo_int, as_ints(direction))
        assert got == answers(rbo_frac, as_fractions(direction)), n
        coords = got["class"] if got["class"] != "not a cocycle" else ()
        assert_exact(coords, got["trivial"], got["trivial_strict"])
        assert_exact(got["coefficients"], eliminated=False)

    # on integral data at an integral weight the int build stays on ints
    if weight == "1":
        dp, d = base.source.dim, base.ambient.dim
        S = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(dp)] for _ in range(d)])
        coeffs = [c for _, c in _coefficients(InfinitesimalDeformation(rbo_int, cochain_from_map(S)))]
        assert all(type(x) is int for x in exact_values(coeffs))


def mixed_matrix(rng, rows, cols):
    """Entries in [-3, 3], about a third of them p/q, some zero."""
    return Matrix(rows, cols, tuple(
        tuple(parse_scalar(scalar(rng, rng.random() < 0.3)) for _ in range(cols)) for _ in range(rows)
    ))


def test_echelon_scales_and_subtracts_to_ints():
    # the pivots 2 and 3 scale their rows by 1/2 and 1/3, and clearing
    # the second pivot from the first row subtracts 2 times it, yet all
    # values but -3/2 come out integral
    span = SubspaceBasis.from_spanning([(2, 4, 6, 1), (0, 3, 9, 3)], 4)
    assert span.rows == (((0, 1), (2, -3), (3, F(-3, 2))), ((1, 1), (2, 3), (3, 1)))
    assert_exact(span)


def test_elimination_on_ints_matches_fractions():
    rng = random.Random(SEEDS["scalars"])
    for rows, cols in ((3, 3), (4, 4), (5, 5), (3, 5), (5, 3), (6, 6)):
        for _ in range(6):
            m = mixed_matrix(rng, rows, cols)
            m_frac = fraction_matrix(m)
            rhs = tuple(parse_scalar(scalar(rng, rng.random() < 0.3)) for _ in range(rows))
            # a consistent right-hand side too: the image of a mixed vector
            image = m.apply(tuple(parse_scalar(scalar(rng, True)) for _ in range(cols)))
            got = (kernel_basis(m), solve(m, rhs), solve(m, image))
            want = (
                kernel_basis(m_frac),
                solve(m_frac, tuple(F(x) for x in rhs)), solve(m_frac, tuple(F(x) for x in image)),
            )
            assert got == want
            assert got[2] is not None
            span = SubspaceBasis.from_spanning(m.entries, cols)
            pivots = echelon({j: x for j, x in enumerate(row) if x} for row in m.entries)
            assert_exact(*got, span, [tuple(tail.values()) for tail in pivots.values()])
            if rows == cols:
                inv = invert(m)
                assert inv == invert(m_frac)
                assert_exact(inv)
                if inv is not None:
                    assert inv @ m == Matrix.identity(rows)
