import json
from fractions import Fraction

import pytest

from triplekit.cli import main
from triplekit.cohomology import Cochain, zero_cochain
from triplekit.fileio import (
    action_to_json,
    algebra_from_json,
    algebra_to_json,
    cochain_from_json,
    cochain_to_json,
    dump_json,
    load_algebra,
    load_rbo,
    load_representation,
    matrix_to_json,
    rbo_to_json,
    representation_from_json,
    representation_to_json,
    subspace_from_json,
    subspace_to_json,
)
from triplekit.fixtures import FIXTURES, fixture_path, list_fixtures
from triplekit.linalg import Matrix, StructureError, SubspaceBasis, basis_vector
from triplekit.lts import zero_system
from triplekit.representations import ActionData, adjoint_representation, zero_representation
from triplekit.rota_baxter import RelativeRBO

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


def test_operator_on_a_dim_0_system_round_trips(tmp_path, capsys):
    # with dim L = 0, T : L' -> L has no rows and is written [], which
    # carries no width: it reads back as 0 x dim L', and the CLI prints
    # the 0/0/0 cohomology the library computes
    rbo = RelativeRBO(ActionData(zero_representation(zero_system(0), 2), zero_system(2)), 1, Matrix(0, 2, ()))
    path = tmp_path / "op.json"
    path.write_text(dump_json(rbo_to_json(rbo)))
    assert load_rbo(path) == rbo
    for degree in (1, 3):
        assert main(["coh", "group", str(path), "--degree", str(degree)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["degree"], out["dim_Z"], out["dim_B"], out["dim_H"]) == (degree, 0, 0, 0)


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


def test_nested_paths_are_relative_to_the_file_that_names_them(tmp_path, capsys):
    # a path-named document reads its own nested paths against its own
    # directory, not against the directory of the file that named it:
    # action.json -> sub/rep.json -> alg.json in sub/, and hom.json ->
    # sub/op.json, whose action names rep.json and target.json in sub/
    rbo = load_rbo(fixture_path("rbo4_P"))
    action, op, sub = action_to_json(rbo.action), rbo_to_json(rbo), tmp_path / "sub"
    identity = {"psi_L": matrix_to_json(Matrix.identity(rbo.ambient.dim)),
                "psi_Lprime": matrix_to_json(Matrix.identity(rbo.source.dim))}
    sub.mkdir()
    documents = {
        sub / "alg.json": action["representation"]["algebra"],
        sub / "rep.json": {**action["representation"], "algebra": "alg.json"},
        sub / "target.json": action["target"],
        sub / "op.json": {**op, "action": {"representation": "rep.json", "target": "target.json"}},
        tmp_path / "action.json": {"representation": "sub/rep.json", "target": action["target"]},
        tmp_path / "hom.json": {"source": "sub/op.json", "target": "sub/op.json", **identity},
        tmp_path / "inline_action.json": action,
        tmp_path / "inline_hom.json": {"source": op, "target": op, **identity},
    }
    for path, data in documents.items():
        path.write_text(dump_json(data), encoding="utf-8")
    for command, name in (("rep", "action"), ("rbo", "hom")):
        kind = "action" if name == "action" else "hom"
        printed = []
        for file in (f"{kind}.json", f"inline_{kind}.json"):
            code = main([command, name, str(tmp_path / file)])
            printed.append((code, capsys.readouterr().out))
        assert printed[0] == printed[1] and printed[0][0] == 0, printed


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
