import random
from fractions import Fraction

import pytest

from triplekit.linalg import (
    Matrix,
    StructureError,
    SubspaceBasis,
    VerificationError,
    basis_vector,
    exact_div,
    format_scalar,
    invert,
    kernel_basis,
    parse_scalar,
    quotient_dim,
    rank,
    solve,
)

from conftest import SEEDS

F = Fraction


def test_scalar_parse_and_format():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar("-2") == F(-2)
    assert format_scalar(F(6, 8)) == "3/4"
    assert format_scalar(F(5)) == "5"
    assert format_scalar(F(0)) == "0"
    with pytest.raises(StructureError):
        parse_scalar("1/0")
    with pytest.raises(StructureError):
        parse_scalar("abc")


def test_integral_scalars_are_ints():
    # an integral value is an int, only a non-integral one a Fraction
    for value, want in (("4/2", 2), ("-6/3", -2), (" 7 ", 7), (F(6, 3), 2), (3, 3), ("0/5", 0)):
        got = parse_scalar(value)
        assert type(got) is int and got == want, value
    for value, want in (("1/2", F(1, 2)), (F(-4, 6), F(-2, 3)), ("0.25", F(1, 4))):
        got = parse_scalar(value)
        assert type(got) is Fraction and got == want, value
    # a JSON boolean or a float is not a scalar
    for value in (True, False, 1.5, 2.0, None, [1]):
        with pytest.raises(StructureError):
            parse_scalar(value)


def test_exact_div():
    for a, b, want in ((6, 3, 2), (-6, 3, -2), (6, -3, -2), (0, 7, 0), (F(3, 2), F(1, 2), 3), (F(1, 2), F(1, 4), 2)):
        got = exact_div(a, b)
        assert type(got) is int and got == want, (a, b)
    for a, b, want in ((1, 2, F(1, 2)), (-3, 6, F(-1, 2)), (F(1, 2), 3, F(1, 6)), (2, F(3, 5), F(10, 3))):
        got = exact_div(a, b)
        assert type(got) is Fraction and got == want, (a, b)
    for a, b in ((1, 0), (0, 0), (F(1, 2), F(0))):
        with pytest.raises(ZeroDivisionError):
            exact_div(a, b)


def test_scalar_arithmetic_exact():
    # two evaluation orders of the same expression agree bit for bit
    rng = random.Random(SEEDS["fuzz"])
    for _ in range(200):
        a = F(rng.randint(-50, 50), rng.randint(1, 50))
        b = F(rng.randint(-50, 50), rng.randint(1, 50))
        c = F(rng.randint(-50, 50), rng.randint(1, 50))
        left = (a + b) + c
        right = a + (b + c)
        assert left == right
        assert left.denominator > 0


def test_rank_examples():
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zeros(2, 2)) == 0
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(2)).dim == 0
    assert kernel_basis(Matrix.zeros(1, 2)).dim == 2
    m = Matrix.from_rows([[1, 1, 0]])
    ker = kernel_basis(m)
    assert ker.dim == 2
    for v in ker.vectors:
        assert m.apply(v) == (F(0),)


def test_rank_nullity_random():
    rng = random.Random(SEEDS["fuzz"])
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix.from_rows(
            [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        )
        assert rank(m) + kernel_basis(m).dim == cols
        for v in kernel_basis(m).vectors:
            assert all(x == 0 for x in m.apply(v))


def test_quotient_dim_examples():
    total = SubspaceBasis.from_spanning([basis_vector(3, 0)], 3)
    assert quotient_dim(SubspaceBasis(3, ()), total) == 1
    assert quotient_dim(total, total) == 0
    big = SubspaceBasis.from_spanning([basis_vector(3, 0), basis_vector(3, 1)], 3)
    assert quotient_dim(total, big) == 1


def test_quotient_dim_rejects_non_containment():
    sub = SubspaceBasis.from_spanning([basis_vector(3, 2)], 3)
    total = SubspaceBasis.from_spanning([basis_vector(3, 0)], 3)
    with pytest.raises(VerificationError):
        quotient_dim(sub, total)


def test_subspace_is_canonical_under_permutation():
    a = SubspaceBasis.from_spanning([(F(1), F(1), F(0)), (F(0), F(2), F(2))], 3)
    b = SubspaceBasis.from_spanning([(F(0), F(1), F(1)), (F(2), F(2), F(0))], 3)
    assert a == b


def test_subspace_basis_requires_reduced_form():
    # rows are sparse: (column, value) pairs in column order.  Echelon
    # with unit leads, but the second lead column is nonzero in the
    # first row: the span's canonical basis is ((1, 0), (0, 1))
    with pytest.raises(StructureError):
        SubspaceBasis(2, (((0, F(1)), (1, F(1))), ((1, F(1)),)))
    # dense (0, 1), (1, 0): leads out of order; (2, 0): lead not 1; a zero row
    for rows in ((((1, F(1)),), ((0, F(1)),)), (((0, F(2)),),), ((),)):
        with pytest.raises(StructureError):
            SubspaceBasis(2, rows)
    # the sparse form itself: an explicit zero, columns outside the
    # ambient space, and columns out of order
    for rows in ((((0, F(1)), (1, F(0))),), (((0, F(1)), (2, F(1))),), (((-1, F(1)),),)):
        with pytest.raises(StructureError):
            SubspaceBasis(2, rows)
    with pytest.raises(StructureError):
        SubspaceBasis(3, (((0, F(1)), (2, F(3)), (1, F(4))),))
    reduced = ((F(1), F(0), F(3)), (F(0), F(1), F(-1)))
    sparse = (((0, F(1)), (2, F(3))), ((1, F(1)), (2, F(-1))))
    assert SubspaceBasis(3, sparse) == SubspaceBasis.from_spanning(reduced, 3)
    assert SubspaceBasis(3, sparse).vectors == reduced


def test_solve_and_invert():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    x = solve(m, (F(5), F(11)))
    assert x is not None and m.apply(x) == (F(5), F(11))
    inv = invert(m)
    assert inv is not None and (m @ inv) == Matrix.identity(2)
    assert invert(Matrix.from_rows([[1, 2], [2, 4]])) is None
    assert solve(Matrix.from_rows([[1, 1], [1, 1]]), (F(0), F(1))) is None


def test_matrix_shape_errors():
    with pytest.raises(StructureError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(StructureError):
        Matrix.identity(2) @ Matrix.identity(3)
    with pytest.raises(StructureError):
        Matrix.identity(2).apply((F(1),))


def test_apply_matches_dense_oracle():
    # the dense sum over every column, zero coordinates included
    rng = random.Random(SEEDS["fuzz"])

    def entry(density):
        return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) if rng.random() < density else F(0)

    for rows, cols in ((3, 4), (5, 2), (1, 1), (4, 0), (0, 3), (0, 0)):
        m = Matrix(rows, cols, tuple(tuple(entry(0.6) for _ in range(cols)) for _ in range(rows)))
        # zero, sparse and dense vectors
        for density in (0, 0.3, 1):
            for _ in range(5):
                vec = tuple(entry(density) for _ in range(cols))
                want = tuple(sum((row[j] * vec[j] for j in range(cols)), F(0)) for row in m.entries)
                got = m.apply(vec)
                assert got == want, (rows, cols, density)
                assert all(type(x) in (int, Fraction) for x in got)
        for length in (cols - 1, cols + 1):
            if length >= 0:
                with pytest.raises(StructureError):
                    m.apply((F(1),) * length)
