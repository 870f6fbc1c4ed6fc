"""The scattered bracket table of ``semidirect_brackets`` against the
dense per-triple formula.

Every family the package builds (the graph vectors (Tu, u), the plain
vectors (x, 0) and the basis of L (+) L') and families of random
vectors are bracketed by the kernel in one pass, and each triple of
members is compared with ``oracle_bracket`` of
``test_semidirect_bracket``, which reads only the dense theta tensor.
A triple the table leaves out must have a zero bracket.  The callers
that read the table, the (RB) defects and theta_T, are compared with
the same bracket taken one triple at a time.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from triplekit.cohomology import induced_rep
from triplekit.linalg import Matrix, StructureError, basis_vector, vec_sub, zero_vector
from triplekit.lts import zero_system
from triplekit.properties import random_integer_matrix
from triplekit.representations import (
    ActionData,
    semidirect_brackets,
    vector_family,
    zero_representation,
)
from triplekit.rota_baxter import RelativeRBO, _rb_defects

import dense_oracle
from conftest import SEEDS, ladder
from test_scatter_assembly import sl3_cartan_projection
from test_semidirect_bracket import ACTIONS, WEIGHTS, action, oracle_bracket, random_vector

F = Fraction


def members(x_map, u_map):
    """The (x, u) pairs of a family, in member order."""
    return [(x_map.column(s), u_map.column(s)) for s in range(x_map.cols)]


def graph(T):
    return T, Matrix.identity(T.cols)


def plain(a):
    return Matrix.identity(a.algebra.dim), Matrix.zeros(a.target.dim, a.algebra.dim)


def basis(a):
    d, n = a.algebra.dim, a.algebra.dim + a.target.dim
    unit = Matrix.identity(n).entries
    return Matrix(d, n, unit[:d]), Matrix(n - d, n, unit[d:])


def random_family(a, rng, count):
    xs = [random_vector(rng, a.algebra.dim) for _ in range(count)]
    us = [random_vector(rng, a.target.dim) for _ in range(count)]
    return Matrix.from_columns(xs, a.algebra.dim), Matrix.from_columns(us, a.target.dim)


def pq_matrix(rng, rows, cols):
    return Matrix.from_rows([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)])


def assert_table_matches(a, weight, maps):
    """The kernel's table on three families equals the oracle on every
    triple of members, and holds no key outside them."""
    table = semidirect_brackets(a, weight, *(vector_family(*m) for m in maps))
    fams = [members(*m) for m in maps]
    zero = (zero_vector(a.algebra.dim), zero_vector(a.target.dim))
    for key in product(*(range(len(f)) for f in fams)):
        args = [v for f, s in zip(fams, key) for v in f[s]]
        assert table.get(key, zero) == oracle_bracket(a, weight, *args), (weight, key)
    assert set(table) <= set(product(*(range(len(f)) for f in fams)))


@pytest.mark.parametrize("name", ACTIONS)
def test_kernel_matches_oracle_on_every_family(name, request):
    a = action(name, request)
    d, dp = a.algebra.dim, a.target.dim
    rng = random.Random(SEEDS["bracket"])
    T_int, T_pq = random_integer_matrix(rng, d, dp), pq_matrix(rng, d, dp)
    for weight in WEIGHTS:
        for maps in (
            (graph(T_int),) * 3,
            (graph(T_pq),) * 3,
            (plain(a), graph(T_int), graph(T_int)),
            (graph(T_pq), graph(T_pq), plain(a)),
            (basis(a),) * 3,
            (random_family(a, rng, 2), random_family(a, rng, 1), random_family(a, rng, 3)),
        ):
            assert_table_matches(a, weight, maps)


def test_kernel_on_a_dim_0_target(lts3):
    # no graph vectors, and plain vectors with an empty L' part
    a = ActionData(zero_representation(lts3, 0), zero_system(0))
    T = Matrix(3, 0, ((),) * 3)
    for weight in WEIGHTS:
        assert semidirect_brackets(a, weight, *(vector_family(*graph(T)),) * 3) == {}
        assert_table_matches(a, weight, (plain(a),) * 3)
        assert list(_rb_defects(a, weight, T)) == []
    assert dense_oracle.theta_tensor(induced_rep(RelativeRBO(a, F(1), T))) == ()


def test_kernel_refuses_mis_sized_families(rbo3):
    a = rbo3.action
    wrong = vector_family(Matrix.identity(2), Matrix.zeros(3, 2))
    right = vector_family(*graph(rbo3.T))
    with pytest.raises(StructureError):
        semidirect_brackets(a, F(1), right, wrong, right)


@pytest.mark.parametrize("name", ACTIONS)
def test_rb_defects_are_the_oracle_triples_in_order(name, request):
    a = action(name, request)
    d, dp = a.algebra.dim, a.target.dim
    rng = random.Random(SEEDS["bracket"])
    for weight, T in product(WEIGHTS, (random_integer_matrix(rng, d, dp), pq_matrix(rng, d, dp))):
        vecs = [(T.column(u), basis_vector(dp, u)) for u in range(dp)]
        want = []
        for u, v, w in product(range(dp), repeat=3):
            x, p = oracle_bracket(a, weight, *vecs[u], *vecs[v], *vecs[w])
            want.append(((u, v, w), vec_sub(x, T.apply(p)), p))
        assert list(_rb_defects(a, weight, T)) == want, weight


def test_induced_rep_equals_the_per_triple_construction(rbo3, rbo4):
    # operators of every weight, at each weight of the suite
    for base, weight in product((rbo3, rbo4, ladder(4), ladder(5)), WEIGHTS):
        rbo = RelativeRBO(base.action, weight, base.T)
        assert dense_oracle.theta_tensor(induced_rep(rbo)) == dense_oracle.induced_theta(rbo), weight
    # sl3's Cartan projection at weight 0: theta_T(u, v) is nonzero
    # exactly for u in the Cartan subalgebra, on all of L
    rbo = sl3_cartan_projection()
    assert dense_oracle.theta_tensor(induced_rep(rbo)) == dense_oracle.induced_theta(rbo)
