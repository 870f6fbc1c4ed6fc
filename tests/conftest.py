"""Shared builders and the seed manifest for the randomized suites.

All random matrices use integer entries in [-3, 3] and the seeds
below; tests must not draw from unseeded randomness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from triplekit.cohomology import Cochain
from triplekit.fileio import load_algebra, load_rbo
from triplekit.fixtures import fixture_path
from triplekit.linalg import Matrix, vec_is_zero
from triplekit.lts import LieTripleSystem

SEEDS = {
    "equivalence": 20260808,
    "yamaguti": 424242,
    "deformation": 91731,
    "fuzz": 5150,
    "change_of_basis": 310,
    "semidirect": 7129,
    "bracket": 5813,
    "delta": 6271,
    "scalars": 8117,
}

F = Fraction


@pytest.fixture(scope="session")
def lts3() -> LieTripleSystem:
    return load_algebra(fixture_path("lts3"))


@pytest.fixture(scope="session")
def lts4() -> LieTripleSystem:
    return load_algebra(fixture_path("lts4"))


@pytest.fixture(scope="session")
def rbo3():
    return load_rbo(fixture_path("rbo3_P"))


@pytest.fixture(scope="session")
def rbo4():
    return load_rbo(fixture_path("rbo4_P"))


def make_sl2_lts() -> LieTripleSystem:
    """sl2 with [x,y,z] = [[x,y],z]; every structure map is nonzero,
    which makes it the discriminating test bed for sign conventions."""
    lie = {}

    def setb(i, j, vec):
        lie[(i, j)] = tuple(F(x) for x in vec)
        lie[(j, i)] = tuple(-F(x) for x in vec)

    setb(0, 1, (0, 0, 1))
    setb(2, 0, (2, 0, 0))
    setb(2, 1, (0, -2, 0))

    def lie_ev(u, v):
        out = [F(0)] * 3
        for (i, j), vec in lie.items():
            c = u[i] * v[j]
            if c:
                for l in range(3):
                    out[l] += c * vec[l]
        return tuple(out)

    basis = [tuple(F(1) if t == i else F(0) for t in range(3)) for i in range(3)]
    entries = {}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                vec = lie_ev(lie_ev(basis[i], basis[j]), basis[k])
                if any(vec):
                    entries[(i, j, k)] = vec
    return LieTripleSystem.from_entries(3, entries)


@pytest.fixture(scope="session")
def sl2_lts() -> LieTripleSystem:
    return make_sl2_lts()


def center_valued_operator(dim: int, image_rows, killed_cols, rng) -> Matrix:
    """A map whose image lies in the span of ``image_rows`` and which
    kills the columns in ``killed_cols``; on both bundled fixtures all
    such maps satisfy the operator identity for every weight."""
    rows = [[F(0)] * dim for _ in range(dim)]
    for r in image_rows:
        for c in range(dim):
            if c not in killed_cols:
                rows[r][c] = F(rng.randint(-3, 3))
    return Matrix.from_rows(rows)


def known_operator_pool(name: str, rng, count: int):
    """Seeded draws from the fixture's operator family plus the zero map."""
    if name == "lts3":
        dim, image, killed = 3, (0,), (2,)
    elif name == "lts4":
        dim, image, killed = 4, (1, 2), (3,)
    else:
        raise ValueError(name)
    pool = [Matrix.zeros(dim, dim)]
    for _ in range(count):
        pool.append(center_valued_operator(dim, image, killed, rng))
    return pool


def cochain_satisfies_constraints(f: Cochain) -> bool:
    """Apply the constraint equations of degree >= 3 cochains directly:
    skew in the first two of the last three slots, vanishing cyclic sum
    over the last three.  Degrees -1 and 1 are unconstrained."""
    if f.degree in (-1, 1):
        return True
    p = f.degree - 3
    for args in product(range(f.source_dim), repeat=f.degree):
        head, (a, b, c) = args[:p], args[p:]
        swapped = f.value(head + (b, a, c))
        if not vec_is_zero(tuple(x + y for x, y in zip(f.value(args), swapped))):
            return False
        cyclic = (f.value(args), f.value(head + (b, c, a)), f.value(head + (c, a, b)))
        if not vec_is_zero(tuple(map(sum, zip(*cyclic)))):
            return False
    return True
