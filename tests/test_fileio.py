import json
from fractions import Fraction

import pytest

from triplekit.cohomology import Cochain, zero_cochain
from triplekit.fileio import (
    algebra_from_json,
    algebra_to_json,
    cochain_from_json,
    cochain_to_json,
    dump_json,
    load_algebra,
    load_rbo,
    load_representation,
    rbo_to_json,
    representation_from_json,
    representation_to_json,
    subspace_from_json,
    subspace_to_json,
)
from triplekit.fixtures import FIXTURES, fixture_path, list_fixtures
from triplekit.linalg import StructureError, SubspaceBasis, basis_vector
from triplekit.representations import adjoint_representation

import dense_oracle

F = Fraction


def test_loader_completes_skew_pairs():
    data = {
        "dim": 3,
        "brackets": [{"args": [1, 2, 1], "value": {"3": "1"}}],
    }
    L = algebra_from_json(data)
    assert dense_oracle.bracket_tensor(L)[0][1][0] == (F(0), F(0), F(1))
    assert dense_oracle.bracket_tensor(L)[1][0][0] == (F(0), F(0), F(-1))


def test_loader_accepts_consistent_redundancy():
    data = {
        "dim": 3,
        "brackets": [
            {"args": [1, 2, 1], "value": {"3": "1"}},
            {"args": [2, 1, 1], "value": {"3": "-1"}},
        ],
    }
    L = algebra_from_json(data)
    assert dense_oracle.bracket_tensor(L)[0][1][0] == (F(0), F(0), F(1))


def test_loader_rejects_contradiction():
    data = {
        "dim": 3,
        "brackets": [
            {"args": [1, 2, 1], "value": {"3": "1"}},
            {"args": [2, 1, 1], "value": {"3": "1"}},
        ],
    }
    with pytest.raises(StructureError, match="contradictory"):
        algebra_from_json(data)


def test_loader_rejects_diagonal_nonzero():
    data = {"dim": 2, "brackets": [{"args": [1, 1, 2], "value": {"1": "1"}}]}
    with pytest.raises(StructureError, match="skew"):
        algebra_from_json(data)


def test_loader_rejects_bad_indices():
    with pytest.raises(StructureError):
        algebra_from_json({"dim": 2, "brackets": [{"args": [1, 2, 5], "value": {}}]})
    with pytest.raises(StructureError):
        algebra_from_json({"dim": 2, "brackets": [{"args": [1, 2, 1], "value": {"7": "1"}}]})


def test_fixture_files_round_trip_bytes():
    for name, info in FIXTURES.items():
        path = fixture_path(name)
        raw = path.read_text(encoding="utf-8")
        if info["kind"] == "algebra":
            again = dump_json(algebra_to_json(load_algebra(path)))
        else:
            again = dump_json(rbo_to_json(load_rbo(path)))
        assert again == raw, name


def test_fixture_listing():
    listing = list_fixtures()
    assert [f["name"] for f in listing] == ["lts3", "lts4", "rbo3_P", "rbo4_P"]
    assert all(f["description"] for f in listing)


def test_representation_round_trip(tmp_path, lts3):
    rep = adjoint_representation(lts3)
    path = tmp_path / "rep.json"
    path.write_text(dump_json(representation_to_json(rep)), encoding="utf-8")
    again = load_representation(path)
    assert again == rep


def test_representation_repeats_must_agree(lts3):
    # a theta entry may be given twice only with the same matrix, as a
    # bracket may; a zero second copy would otherwise erase the first
    data = representation_to_json(adjoint_representation(lts3))
    first = data["theta"][0]
    data["theta"].append({"args": first["args"], "matrix": [r[:] for r in first["matrix"]]})
    assert representation_from_json(data) == adjoint_representation(lts3)
    data["theta"].append({"args": first["args"], "matrix": [["0"] * 3] * 3})
    with pytest.raises(StructureError, match="contradictory entries for theta"):
        representation_from_json(data)


def test_representation_path_reference(tmp_path, lts3):
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(dump_json(algebra_to_json(lts3)), encoding="utf-8")
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(
        dump_json({"algebra": "alg.json", "space_dim": 3, "theta": []}),
        encoding="utf-8",
    )
    rep = load_representation(rep_path)
    assert rep.algebra == lts3
    th = dense_oracle.theta_tensor(rep)
    assert all(th[i][j].is_zero() for i in range(3) for j in range(3))


def test_cochain_json_round_trip():
    f = Cochain(1, 2, 3, ((F(1), F(0), F(1, 2)), (F(0), F(-2), F(0))))
    data = cochain_to_json(f)
    assert cochain_from_json(json.loads(json.dumps(data))) == f
    w = Cochain(-1, 2, 3, (F(1), F(0), F(-1, 3)))
    assert cochain_from_json(cochain_to_json(w)) == w
    g = zero_cochain(3, 2, 2)
    assert cochain_from_json(cochain_to_json(g)) == g


def test_cochain_json_dims_inferred():
    f = cochain_from_json({
        "degree": 1,
        "coeffs": [["0", "0", "1"], ["0", "0", "0"]],
    })
    assert (f.source_dim, f.target_dim) == (2, 3)
    w = cochain_from_json({"degree": -1, "coeffs": ["1", "0", "0"]})
    assert (w.source_dim, w.target_dim) == (3, 3)
    with pytest.raises(StructureError, match="triangular"):
        cochain_from_json({"degree": -1, "coeffs": ["1", "0"]})


def test_cochain_json_shape_errors():
    with pytest.raises(StructureError):
        cochain_from_json({"degree": 1, "source_dim": 2, "target_dim": 2, "coeffs": [["1", "0"]]})
    with pytest.raises(StructureError):
        cochain_from_json({"degree": 2, "source_dim": 2, "target_dim": 2, "coeffs": []})


def test_subspace_round_trip():
    s = SubspaceBasis.from_spanning([basis_vector(3, 0), (F(1), F(1), F(0))], 3)
    assert subspace_from_json(subspace_to_json(s)) == s


def test_scalar_normalization_in_files(tmp_path):
    data = {
        "dim": 2,
        "brackets": [{"args": [1, 2, 1], "value": {"1": "2/4"}}],
    }
    L = algebra_from_json(data)
    assert dense_oracle.bracket_tensor(L)[0][1][0] == (F(1, 2), F(0))
    out = algebra_to_json(L)
    assert out["brackets"][0]["value"]["1"] == "1/2"
