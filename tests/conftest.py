"""Shared builders and the seed manifest for the randomized suites.

All random matrices use integer entries in [-3, 3] and the seeds
below; tests must not draw from unseeded randomness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from triplekit.cohomology import Cochain, unflatten_cochain
from triplekit.fileio import load_algebra, load_rbo
from triplekit.fixtures import fixture_path
from triplekit.linalg import Matrix, SubspaceBasis, basis_vector, vec_is_zero
from triplekit.lts import LieTripleSystem, zero_system
from triplekit.representations import (
    ActionData,
    RepresentationData,
    adjoint_representation,
    self_action,
    zero_representation,
)
from triplekit.rota_baxter import RelativeRBO, projection_rbo

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
    "elimination": 4409,
    "nijenhuis": 2719,
    "identities": 6053,
    "serialization": 7411,
    "sparse_output": 1931,
    "scatter_apply": 3307,
    "d5d3": 6619,
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


def ladder(n):
    """[e1,e2,e1] = e_n with its projection onto span{e2..e_(n-1)} along
    span{e1, e_n}, at weight 1."""
    top = basis_vector(n, n - 1)
    L = LieTripleSystem.from_entries(n, {(0, 1, 0): top, (1, 0, 0): tuple(-x for x in top)})
    target = SubspaceBasis.from_spanning([basis_vector(n, i) for i in range(1, n - 1)], n)
    complement = SubspaceBasis.from_spanning([basis_vector(n, 0), top], n)
    return RelativeRBO(self_action(L), F(1), projection_rbo(L, target, complement))


def sheared(L: LieTripleSystem) -> LieTripleSystem:
    """L in the basis e_1, ..., e_(d-1), e_d + e_1: the same system, in
    which a bracket with a component at e_d has one at e_1 too, so many
    value vectors have two nonzero components and some zero ones."""
    d = L.dim
    new = [basis_vector(d, i) for i in range(d - 1)] + [tuple(int(l in (0, d - 1)) for l in range(d))]
    entries = {}
    for i, j, k in product(range(d), repeat=3):
        c = L.bracket_eval(new[i], new[j], new[k])
        entries[i, j, k] = (c[0] - c[-1],) + c[1:]  # sum c_l e_l in the new basis
    return LieTripleSystem.from_entries(d, entries, L.basis_names)


def make_sln_lts(n: int) -> LieTripleSystem:
    """sl_n with [x,y,z] = [[x,y],z].  Basis: E_ij (i != j) in
    lexicographic order, then H_i = E_ii - E_(i+1)(i+1); the H_i
    coordinate of a traceless diagonal matrix m is the sum of m_tt over
    t <= i.  At n = 2 this is E, F, H with [E,F] = H, [H,E] = 2E and
    [H,F] = -2F.  Every structure map of sl2 is nonzero, which makes it
    the discriminating test bed for sign conventions."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    dim = len(offdiag) + n - 1

    def matrix(b):
        m = [[0] * n for _ in range(n)]
        if b < len(offdiag):
            i, j = offdiag[b]
            m[i][j] = 1
        else:
            i = b - len(offdiag)
            m[i][i], m[i + 1][i + 1] = 1, -1
        return m

    def lie(x, y):
        return [[sum(x[r][t] * y[t][c] - y[r][t] * x[t][c] for t in range(n)) for c in range(n)] for r in range(n)]

    def coordinates(m):
        diag = [m[t][t] for t in range(n)]
        return tuple([m[i][j] for i, j in offdiag] + [sum(diag[: i + 1]) for i in range(n - 1)])

    basis = [matrix(b) for b in range(dim)]
    entries = {}
    for i, j, k in product(range(dim), repeat=3):
        vec = coordinates(lie(lie(basis[i], basis[j]), basis[k]))
        if any(vec):
            entries[(i, j, k)] = vec
    return LieTripleSystem.from_entries(dim, entries)


def sl3_cartan_projection():
    """sl3 with [x,y,z] = [[x,y],z] and T the projection onto its Cartan
    subalgebra, at weight 0.  The self-action fails ``verify_action``, so
    this operator lies outside the paper's hypotheses; see
    :func:`sln_abelian_cartan_projection` for the one inside them."""
    L = make_sln_lts(3)
    T = Matrix(8, 8, tuple(tuple(int(i == j and i >= 6) for j in range(8)) for i in range(8)))
    return RelativeRBO(self_action(L), 0, T)


def sln_abelian_cartan_projection(n: int):
    """The adjoint representation of sl_n acting on an abelian copy of
    itself (``zero_system``), with T the projection onto the Cartan
    subalgebra, at weight 0.  The action verifies, and T is an operator
    of every weight.  At weight 0 neither theta_T nor the descendent
    bracket reads the bracket of L', so its complex is that of the
    self-action's Cartan projection."""
    L = make_sln_lts(n)
    d, cartan = L.dim, n * (n - 1)
    T = Matrix(d, d, tuple(tuple(int(i == j and i >= cartan) for j in range(d)) for i in range(d)))
    return RelativeRBO(ActionData(adjoint_representation(L), zero_system(d)), 0, T)


def relative_rbo():
    """lts3 acting by zero on a 2-dim zero system, T sending the first
    basis vector of L' to e1: dim L' = 2 != 3 = dim L, an operator of
    every weight, with delta not zero."""
    L = load_algebra(fixture_path("lts3"))
    T = Matrix(3, 2, ((1, 0), (0, 0), (0, 0)))
    return RelativeRBO(ActionData(zero_representation(L, 2), zero_system(2)), 1, T)


def scaled_adjoint_action(L: LieTripleSystem, c, target: LieTripleSystem) -> ActionData:
    """theta_c = c ad of L on ``target``: the adjoint representation of
    ``target`` scaled by c, extended by zero to the basis vectors of L
    past dim ``target``, which must be central in L."""
    entries = {(i, j, r, col): c * a for i, j, terms in adjoint_representation(target).nonzero for r, col, a in terms}
    return ActionData(RepresentationData.from_entries(L, target.dim, entries), target)


def weighted_identity(L: LieTripleSystem, c):
    """theta_c = c ad on L' = L and T = id, at weight 1 - 3c.  On a
    2-step nilpotent L (lts3, lts4) the action verifies for every c, and
    the theta-terms of (RB) sum to 3c[u,v,w], so T is an operator of
    weight 1 - 3c and of no other: the weight decides."""
    return RelativeRBO(scaled_adjoint_action(L, c, L), 1 - 3 * F(c), Matrix.identity(L.dim))


def weighted_inclusion(c):
    """The member with L' != L: L = lts3 + F e4 with e4 central, acting
    by theta_c = c ad through lts3 on L' = lts3, and T the inclusion of
    lts3 into L, at weight 1 - 3c, again its only weight."""
    lts3 = load_algebra(fixture_path("lts3"))
    entries = {(i, j, k): tuple(dict(terms).get(l, 0) for l in range(4)) for i, j, k, terms in lts3.nonzero}
    L = LieTripleSystem.from_entries(4, entries)
    T = Matrix(4, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)))
    return RelativeRBO(scaled_adjoint_action(L, c, lts3), 1 - 3 * F(c), T)


@pytest.fixture(scope="session")
def sl2_lts() -> LieTripleSystem:
    return make_sln_lts(2)


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


def elementary_cochain(degree: int, source_dim: int, target_dim: int, flat: int) -> Cochain:
    """Basis cochain with a single 1 at flattened coordinate ``flat``."""
    return unflatten_cochain(degree, source_dim, target_dim, basis_vector(source_dim**degree * target_dim, flat))


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
