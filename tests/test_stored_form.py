"""A system and a representation are stored only as their nonzero
entries, in one canonical order: equal inputs give equal objects,
whatever order they were listed in, zeros are not stored, the JSON
forms round-trip, and building stays small at dimensions where a dense
table would not."""

import tracemalloc
from fractions import Fraction

from triplekit.fileio import algebra_from_json, algebra_to_json, representation_from_json, representation_to_json
from triplekit.linalg import basis_vector
from triplekit.lts import LieTripleSystem
from triplekit.representations import RepresentationData, adjoint_representation

import dense_oracle
from conftest import make_sln_lts

F = Fraction


def reversed_dict(entries):
    return dict(reversed(list(entries.items())))


def test_insertion_order_does_not_matter():
    L = make_sln_lts(3)
    entries = {(i, j, k): vec for i, j, k, vec in dense_oracle.brackets(L)}
    again = LieTripleSystem.from_entries(L.dim, reversed_dict(entries), L.basis_names)
    assert again == L
    assert again.nonzero == L.nonzero
    rep = adjoint_representation(L)
    theta = {(i, j, r, c): a for i, j, pairs in rep.nonzero for r, c, a in pairs}
    assert RepresentationData.from_entries(again, L.dim, reversed_dict(theta)) == rep


def test_zero_values_are_not_stored():
    top = (F(0), F(0), F(1))
    L = LieTripleSystem.from_entries(3, {(0, 1, 0): top, (1, 0, 0): (0, 0, -1), (2, 2, 2): (0, 0, 0)})
    assert [(i, j, k) for i, j, k, _ in L.nonzero] == [(0, 1, 0), (1, 0, 0)]
    # a bracket keeps only its nonzero components, in increasing index
    assert L.nonzero == ((0, 1, 0, ((2, 1),)), (1, 0, 0, ((2, -1),)))
    mixed = LieTripleSystem.from_entries(3, {(0, 1, 2): (F(3), F(0), -1), (1, 0, 2): (-3, 0, F(1))})
    assert mixed.nonzero == ((0, 1, 2, ((0, 3), (2, -1))), (1, 0, 2, ((0, -3), (2, 1))))
    assert L == LieTripleSystem.from_entries(3, {(1, 0, 0): (0, 0, -1), (0, 1, 0): top})
    rep = RepresentationData.from_entries(L, 2, {(0, 1, 0, 1): F(2), (0, 1, 1, 0): 0, (2, 2, 0, 0): F(0)})
    assert rep.nonzero == ((0, 1, ((0, 1, 2),)),)


def test_algebra_json_round_trips(lts4):
    for L in (lts4, make_sln_lts(3)):
        data = algebra_to_json(L)
        back = algebra_from_json(data)
        assert back == L
        assert algebra_to_json(back) == data


def test_representation_json_round_trips(rbo4):
    for rep in (rbo4.action.rep, adjoint_representation(make_sln_lts(3))):
        data = representation_to_json(rep)
        back = representation_from_json(data)
        assert back == rep
        assert representation_to_json(back) == data


def test_a_60_dim_system_and_its_adjoint_build_small():
    # the two brackets of perfbench/workloads.py::ladder_rbo(60); a
    # dense bracket table held 60^3 vectors of length 60
    n = 60
    top = basis_vector(n, n - 1)
    entries = {(0, 1, 0): top, (1, 0, 0): tuple(-x for x in top)}
    tracemalloc.start()
    try:
        L = LieTripleSystem.from_entries(n, entries)
        built_system = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rep = adjoint_representation(L)
        built_adjoint = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(L.nonzero) == 2 and len(rep.nonzero) == 2
    assert built_system < 2**20, built_system
    assert built_adjoint < 2**20, built_adjoint
