"""The sparse elimination of ``linalg`` against the dense oracle.

``linalg.echelon`` is the package's one exact elimination: sparse rows,
each reduced once as it arrives, the echelon form kept fully reduced.
``dense_oracle`` keeps the dense column-by-column reduction and the
dense cohomology path built on it.  Every answer must agree exactly:
ranks, kernels, spans, solutions, inverses and quotient dimensions on
seeded mixed int/Fraction matrices of every awkward shape, and Z, B, H,
their bases and H^1 classes on operators.
"""

import random
from fractions import Fraction

import pytest

import dense_oracle as oracle
from triplekit.cohomology import OperatorComplex, flatten_cochain, unflatten_cochain
from triplekit.deformations import InfinitesimalDeformation, deformation_cocycle_class
from triplekit.linalg import (
    Matrix,
    SubspaceBasis,
    VerificationError,
    echelon,
    invert,
    kernel_basis,
    quotient_dim,
    rank,
    solve,
)
from triplekit.rota_baxter import RelativeRBO

from conftest import SEEDS, ladder

F = Fraction


def scalar(rng, density):
    """Zero with probability 1 - density, else a small int or p/q."""
    if rng.random() >= density:
        return 0
    x = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
    return x.numerator if x.denominator == 1 else x


def random_matrix(rng, rows, cols, density=0.5, rank_at_most=None):
    """A seeded matrix with mixed int and Fraction entries; with
    ``rank_at_most`` a product of two random factors of that inner size."""
    if rank_at_most is None:
        return Matrix(rows, cols, tuple(tuple(scalar(rng, density) for _ in range(cols)) for _ in range(rows)))
    left = random_matrix(rng, rows, rank_at_most, density)
    right = random_matrix(rng, rank_at_most, cols, density)
    return left @ right


def matrices():
    rng = random.Random(SEEDS["elimination"])
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 3), (3, 5), (6, 8), (9, 4)]
    for rows, cols in shapes:
        yield Matrix.zeros(rows, cols)
        for density in (0.2, 0.6, 1.0):
            yield random_matrix(rng, rows, cols, density)
        if rows and cols:
            for r in range(min(rows, cols)):
                yield random_matrix(rng, rows, cols, 0.7, rank_at_most=r)
    # many rows over few columns, as in the strict equivalence systems
    yield random_matrix(rng, 60, 5, 0.3)


def test_echelon_is_fully_reduced_and_matches_dense_rref():
    for m in matrices():
        pivots = echelon({j: x for j, x in enumerate(row) if x} for row in m.entries)
        for p, tail in pivots.items():
            assert p not in tail and all(x for x in tail.values())
            assert not set(tail) & set(pivots)
            assert all(j > p for j in tail)
        rows, order = oracle.rref(m.entries)
        assert sorted(pivots) == list(order)
        basis = SubspaceBasis.from_spanning(m.entries, m.cols)
        assert tuple(row[0][0] for row in basis.rows) == order
        assert basis.vectors == rows[:len(order)]


def test_rank_kernel_and_span_match_dense_oracle():
    for m in matrices():
        assert rank(m) == oracle.rank(m.entries)
        ker = kernel_basis(m)
        assert ker.ambient_dim == m.cols
        assert ker.vectors == oracle.kernel(m.entries, m.cols)
        assert all(not any(m.apply(v)) for v in ker.vectors)
        span = SubspaceBasis.from_spanning(m.entries, m.cols)
        assert span.vectors == oracle.span(m.entries, m.cols)
        assert span == SubspaceBasis.from_spanning(list(reversed(m.entries)), m.cols)
        assert span.dim + ker.dim == m.cols


def test_solve_and_invert_match_dense_oracle():
    rng = random.Random(SEEDS["elimination"] + 1)
    for m in matrices():
        x = tuple(scalar(rng, 0.7) for _ in range(m.cols))
        consistent = m.apply(x)
        other = tuple(scalar(rng, 0.7) for _ in range(m.rows))
        for rhs in (consistent, other, (0,) * m.rows):
            got = solve(m, rhs)
            assert got == oracle.solve(m.entries, m.cols, rhs)
            if got is not None:
                assert m.apply(got) == rhs
        assert solve(m, consistent) is not None
        if m.rows == m.cols:
            inv = invert(m)
            want = oracle.invert(m.entries)
            assert (inv is None) == (want is None)
            if inv is not None:
                assert inv.entries == want
                assert m @ inv == Matrix.identity(m.rows)


def test_quotient_dim_matches_dense_oracle():
    rng = random.Random(SEEDS["elimination"] + 2)
    for m in matrices():
        n = m.cols
        extra = random_matrix(rng, 2, n, 0.5).entries
        sub = SubspaceBasis.from_spanning(m.entries, n)
        total = SubspaceBasis.from_spanning(list(m.entries) + list(extra), n)
        other = SubspaceBasis.from_spanning(extra, n)
        for a, b in ((sub, total), (other, total), (total, total), (total, sub), (other, sub)):
            want = oracle.quotient_dim(a.vectors, b.vectors, n)
            if want is None:
                with pytest.raises(VerificationError):
                    quotient_dim(a, b)
            else:
                assert quotient_dim(a, b) == want


OPERATORS = ["rbo3", "rbo4", "ladder4", "ladder5", "ladder6"]


@pytest.mark.parametrize("weight", [F(1), F(1, 2)], ids=str)
@pytest.mark.parametrize("name", OPERATORS)
def test_cohomology_matches_dense_oracle(name, weight, request):
    base = ladder(int(name[6:])) if name.startswith("ladder") else request.getfixturevalue(name)
    rbo = RelativeRBO(base.action, weight, base.T)
    cx = OperatorComplex(rbo)
    for degree in (1, 3):
        data = cx.cohomology(degree)
        cocycles, coboundaries = oracle.cohomology(cx, degree)
        assert data.cocycles.vectors == cocycles
        assert data.coboundaries.vectors == coboundaries
        result = data.result
        assert (result.dim_cocycles, result.dim_coboundaries) == (len(cocycles), len(coboundaries))
        assert result.dim_H == oracle.quotient_dim(coboundaries, cocycles, data.cocycles.ambient_dim)
    # H^1 classes: sums of cocycle basis vectors, and one that is no cocycle
    data = cx.cohomology(1)
    rng = random.Random(SEEDS["elimination"] + 3)
    d, dp = rbo.ambient.dim, rbo.source.dim
    flats = [tuple(sum(col) for col in zip(*rng.sample(data.cocycles.vectors, k)))
             for k in range(1, data.cocycles.dim + 1, 2)]
    flats.append(tuple(scalar(rng, 1.0) for _ in range(d * dp)))
    for flat in flats:
        want = oracle.cocycle_class(data.cocycles.vectors, data.coboundaries.vectors, flat)
        deformation = InfinitesimalDeformation(rbo, unflatten_cochain(1, dp, d, flat))
        assert flatten_cochain(deformation.direction) == flat
        if want is None:
            with pytest.raises(VerificationError):
                deformation_cocycle_class(deformation)
        else:
            assert deformation_cocycle_class(deformation) == want
