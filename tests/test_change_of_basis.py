"""Metamorphic tests: a change of basis leaves every invariant alone.

An operator T : L' -> L is transported by unimodular integer matrices P
on L and Q on L' to the operator over the transported structures

  c~(i,j,k) = P^-1 [Pe_i, Pe_j, Pe_k],    theta~(i,j) = Q^-1 theta(Pe_i, Pe_j) Q,
  [u,v,w]'~ = Q^-1 [Qu, Qv, Qw]',          T~ = P^-1 T Q,

and a direction S to S~ = P^-1 S Q.  Cohomology dimensions and whether
a deformation is trivial are basis-free, so they must not move.  The
degree-3 groups run the constrained cochain basis on structure
constants unlike those of the fixtures, independently of any
reference construction of that basis.
"""

import random
from itertools import product

import pytest

from triplekit.cohomology import (
    Cochain,
    OperatorComplex,
    cochain_from_map,
    cochain_to_map,
    delta_wedge,
    unflatten_cochain,
    wedge_pairs,
)
from triplekit.deformations import InfinitesimalDeformation, is_trivial_deformation
from triplekit.linalg import Matrix, basis_vector, invert
from triplekit.lts import LieTripleSystem
from triplekit.properties import random_integer_matrix
from triplekit.representations import ActionData
from triplekit.rota_baxter import RelativeRBO, check_rbo

import dense_oracle
from conftest import F, SEEDS


def unimodular(rng, n):
    """Permutation times lower times upper unitriangular: an integer
    matrix of determinant +-1, so its inverse is integral too."""
    perm = list(range(n))
    rng.shuffle(perm)

    def unitriangular(below):
        return Matrix.from_rows([
            [1 if i == j else rng.randint(-2, 2) if (i > j) == below else 0 for j in range(n)]
            for i in range(n)
        ])

    permutation = Matrix.from_rows([basis_vector(n, p) for p in perm])
    return permutation @ unitriangular(True) @ unitriangular(False)


def transport_system(L, P, P_inv):
    cols = [P.column(i) for i in range(L.dim)]
    entries = {}
    for i, j, k in product(range(L.dim), repeat=3):
        vec = P_inv.apply(L.bracket_eval(cols[i], cols[j], cols[k]))
        if any(vec):
            entries[(i, j, k)] = vec
    return LieTripleSystem.from_entries(L.dim, entries, L.basis_names)


def transport(rbo, P, Q):
    """(the operator in the new bases, S -> P^-1 S Q)."""
    P_inv, Q_inv = invert(P), invert(Q)
    L, rep = rbo.ambient, rbo.action.rep
    cols = [P.column(i) for i in range(L.dim)]
    theta = tuple(
        tuple(Q_inv @ rep.theta_vec(cols[i], cols[j]) @ Q for j in range(L.dim))
        for i in range(L.dim)
    )
    action = ActionData(
        dense_oracle.representation(transport_system(L, P, P_inv), rep.space_dim, theta),
        transport_system(rbo.source, Q, Q_inv),
    )
    return RelativeRBO(action, rbo.weight, P_inv @ rbo.T @ Q), lambda S: P_inv @ S @ Q


def transported(rbo, seed):
    rng = random.Random(seed)
    P, Q = unimodular(rng, rbo.ambient.dim), unimodular(rng, rbo.source.dim)
    assert P != Matrix.identity(P.rows) and Q != Matrix.identity(Q.rows)
    moved, move = transport(rbo, P, Q)
    assert moved.T != rbo.T
    assert check_rbo(moved.action, moved.weight, moved.T) == ()
    return moved, move


def dims(rbo, degree):
    res = OperatorComplex(rbo).cohomology(degree).result
    return res.dim_cocycles, res.dim_coboundaries, res.dim_H


@pytest.mark.parametrize("name", ["rbo3", "rbo4"])
def test_h1_dims_survive_change_of_basis(name, request):
    rbo = request.getfixturevalue(name)
    for k in range(3):
        moved, _ = transported(rbo, SEEDS["change_of_basis"] + k)
        assert dims(moved, 1) == dims(rbo, 1)


def test_h3_dims_survive_change_of_basis(rbo3, rbo4):
    for rbo, want in ((rbo3, (11, 3, 8)), (rbo4, (40, 4, 36))):
        moved, _ = transported(rbo, SEEDS["change_of_basis"])
        assert dims(moved, 3) == dims(rbo, 3) == want


def seeded_directions(rbo, rng):
    """Wedge images, random cocycles and random maps, as matrices."""
    dp, d = rbo.source.dim, rbo.ambient.dim
    n = len(wedge_pairs(d))
    cocycles = OperatorComplex(rbo).cohomology(1).cocycles.vectors
    out = [Matrix.zeros(d, dp)]
    for _ in range(3):
        wedge = Cochain(-1, dp, d, tuple(F(rng.randint(-2, 2)) for _ in range(n)))
        out.append(cochain_to_map(delta_wedge(rbo, wedge)))
        coords = [F(rng.randint(-2, 2)) for _ in cocycles]
        flat = tuple(sum(c * v[t] for c, v in zip(coords, cocycles)) for t in range(dp * d))
        out.append(cochain_to_map(unflatten_cochain(1, dp, d, flat)))
        out.append(random_integer_matrix(rng, d, dp))
    return out


@pytest.mark.parametrize("name", ["rbo3", "rbo4"])
def test_triviality_survives_change_of_basis(name, request):
    rbo = request.getfixturevalue(name)
    rng = random.Random(SEEDS["change_of_basis"])
    moved, move = transported(rbo, SEEDS["change_of_basis"])
    outcomes = set()
    for S in seeded_directions(rbo, rng):
        d, d_moved = (
            InfinitesimalDeformation(op, cochain_from_map(direction))
            for op, direction in ((rbo, S), (moved, move(S)))
        )
        for strict in (False, True):
            trivial = is_trivial_deformation(d, strict) is not None
            assert (is_trivial_deformation(d_moved, strict) is not None) == trivial
            outcomes.add(trivial)
    assert outcomes == {False, True}
