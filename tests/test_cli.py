import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from triplekit import cli
from triplekit.cli import build_parser, main
from triplekit.cohomology import zero_cochain
from triplekit.fileio import action_to_json, cochain_to_json, dump_json, load_rbo, rbo_to_json
from triplekit.fixtures import fixture_path
from triplekit.linalg import Matrix
from triplekit.lts import LieTripleSystem
from triplekit.representations import self_action, verify_action
from triplekit.rota_baxter import RelativeRBO

from conftest import make_sln_lts

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    # the child gets the source tree on its path, as pytest's own process does
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "triplekit", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_lts_verify_fixture():
    out = run_cli("lts", "verify", str(fixture_path("lts3")))
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["violations"] == []
    assert data["ok"] is True


def test_lts_center_fixture():
    out = run_cli("lts", "center", str(fixture_path("lts3")))
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["vectors"] == [["0", "0", "1"]]


def test_lts_subsystem(tmp_path):
    span = tmp_path / "span.json"
    span.write_text(dump_json({"ambient_dim": 3, "vectors": [["1", "0", "0"]]}))
    out = run_cli("lts", "subsystem", str(fixture_path("lts3")), str(span))
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data == {"is_abelian_subsystem": True, "is_subsystem": True}


def test_rep_adjoint_then_verify(tmp_path):
    out = run_cli("rep", "adjoint", str(fixture_path("lts3")))
    assert out.returncode == 0
    rep_file = tmp_path / "adj.json"
    rep_file.write_text(out.stdout)
    check = run_cli("rep", "verify", str(rep_file))
    assert check.returncode == 0
    assert json.loads(check.stdout)["ok"] is True

    action_file = tmp_path / "act.json"
    action_file.write_text(dump_json({
        "representation": json.loads(out.stdout),
        "target": json.loads(fixture_path("lts3").read_text()),
    }))
    act = run_cli("rep", "action", str(action_file))
    assert act.returncode == 0

    sd = run_cli("sd", "build", str(action_file), "--weight", "1")
    assert sd.returncode == 0
    built = json.loads(sd.stdout)
    assert built["dim"] == 6


def test_rbo_check_weights():
    path = str(fixture_path("rbo3_P"))
    assert run_cli("rbo", "check", path).returncode == 0
    assert run_cli("rbo", "check", "--weight", "5/3", path).returncode == 0
    assert run_cli("rbo", "check", "--all-weights", path).returncode == 0


def test_rbo_graph_descendent_nijenhuis():
    path = str(fixture_path("rbo3_P"))
    graph = run_cli("rbo", "graph", path)
    assert graph.returncode == 0
    assert json.loads(graph.stdout)["is_subsystem"] is True

    desc = run_cli("rbo", "descendent", path)
    assert desc.returncode == 0
    data = json.loads(desc.stdout)
    assert data["dim"] == 3
    # at weight 1 the induced bracket doubles [e1,e2,e1]
    assert data["brackets"] == [{"args": [1, 2, 1], "value": {"3": "2"}}]

    nij = run_cli("rbo", "nijenhuis", path)
    assert nij.returncode == 0
    assert json.loads(nij.stdout)["ok"] is True


def test_rbo_equivalence_sweep_smoke():
    out = run_cli(
        "rbo", "equivalence", str(fixture_path("rbo3_P")),
        "--trials", "5", "--seed", "11",
    )
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["counterexamples"] == 0
    assert data["trials"] == 5
    assert data["seed"] == 11


def test_coh_group_degree_1():
    expected = {
        1: {"degree": 1, "dim_B": 1, "dim_H": 5, "dim_Z": 6},
        3: {
            "degree": 3, "dim_B": 3, "dim_H": 8, "dim_Z": 11,
            "sign_audit": {"complex": True, "definition": True},
            "sign_convention": "definition",
        },
    }
    for degree, want in expected.items():
        out = run_cli("coh", "group", "--degree", str(degree), str(fixture_path("rbo3_P")))
        assert out.returncode == 0
        assert json.loads(out.stdout) == want


def test_coh_basis_override():
    no = run_cli("coh", "basis", "--degree", "5", "--source-dim", "2", "--target-dim", "2")
    assert no.returncode == 2
    yes = run_cli(
        "coh", "basis", "--degree", "5", "--source-dim", "2", "--target-dim", "2",
        "--max-degree-override",
    )
    assert yes.returncode == 0
    assert json.loads(yes.stdout)["dim"] > 0


def test_def_check_report(tmp_path):
    direction = tmp_path / "dir.json"
    direction.write_text(dump_json({
        "degree": 1,
        "source_dim": 3,
        "target_dim": 3,
        "coeffs": [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
    }))
    out = run_cli("def", "check", str(fixture_path("rbo3_P")), str(direction))
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["order_t"] and data["order_t2"] and data["order_t3"]
    assert data["cocycle"] is True
    assert data["class"] == ["0"] * 5
    assert data["trivial_witness"] == ["0", "0", "0"]


def test_def_check_on_non_operator_is_a_verification_failure(tmp_path):
    # rbo4_P's action with T = identity fails (RB) at two basis triples;
    # the deformation coefficients are read off that operator's complex,
    # which refuses it by name
    op = tmp_path / "ident_op.json"
    op.write_text(dump_json(rbo_to_json(
        RelativeRBO(load_rbo(fixture_path("rbo4_P")).action, Fraction(1), Matrix.identity(4))
    )))
    direction = tmp_path / "zero.json"
    direction.write_text(dump_json(cochain_to_json(zero_cochain(1, 4, 4))))
    out = run_cli("def", "check", str(op), str(direction))
    assert out.returncode == 1
    assert json.loads(out.stdout) == {
        "error": "descendent system requires the Rota-Baxter identity; 2 basis triples fail",
        "kind": "verification",
    }


def test_rbo_graph_builds_the_graph_once(monkeypatch, capsys):
    calls = []
    inner = cli.graph_subsystem

    def counting(rbo):
        calls.append(rbo)
        return inner(rbo)

    monkeypatch.setattr(cli, "graph_subsystem", counting)
    assert main(["rbo", "graph", str(fixture_path("rbo4_P"))]) == 0
    assert json.loads(capsys.readouterr().out)["is_subsystem"] is True
    assert len(calls) == 1


def test_lts_subsystem_evaluates_each_bracket_once(monkeypatch, tmp_path, capsys):
    # span{e2, e3} of lts4 is abelian: 8 triples, each bracket read once
    span = tmp_path / "span.json"
    span.write_text(dump_json({"ambient_dim": 4, "vectors": [["0", "1", "0", "0"], ["0", "0", "1", "0"]]}))
    calls = []
    inner = LieTripleSystem.bracket_eval

    def counting(self, *args):
        calls.append(args)
        return inner(self, *args)

    monkeypatch.setattr(LieTripleSystem, "bracket_eval", counting)
    assert main(["lts", "subsystem", str(fixture_path("lts4")), str(span)]) == 0
    assert json.loads(capsys.readouterr().out) == {"is_abelian_subsystem": True, "is_subsystem": True}
    assert len(calls) == 8


def test_fixtures_listing_and_path():
    out = run_cli("fixtures", "list")
    assert out.returncode == 0
    names = [f["name"] for f in json.loads(out.stdout)["fixtures"]]
    assert names == ["lts3", "lts4", "rbo3_P", "rbo4_P"]
    path = run_cli("fixtures", "path", "lts4")
    assert path.returncode == 0
    assert json.loads(path.stdout)["path"].endswith("lts4.json")
    missing = run_cli("fixtures", "path", "nope")
    assert missing.returncode == 2


def test_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run_cli("lts", "verify", str(bad))
    assert out.returncode == 2
    assert json.loads(out.stdout)["kind"] == "input"

    missing = run_cli("lts", "verify", str(tmp_path / "missing.json"))
    assert missing.returncode == 2

    violating = tmp_path / "violating.json"
    violating.write_text(dump_json({
        "dim": 3,
        "basis": ["e1", "e2", "e3"],
        "brackets": [{"args": [1, 2, 3], "value": {"1": "1"}}],
    }))
    out = run_cli("lts", "verify", str(violating))
    assert out.returncode == 1
    data = json.loads(out.stdout)
    assert data["ok"] is False
    assert data["failures"] > 0
    assert data["first"]["witness"]


def test_malformed_input_is_reported_not_raised(tmp_path):
    lts_verify = ("lts", "verify")
    rep_verify = ("rep", "verify")
    rbo3 = str(fixture_path("rbo3_P"))
    subsystem = ("lts", "subsystem", str(fixture_path("lts3")))
    # rbo4_P's action with a T that fails (RB): a mis-sized cochain is
    # reported before anything is built from the operator
    bad4 = tmp_path / "bad4.json"
    bad4.write_text(dump_json(rbo_to_json(
        RelativeRBO(load_rbo(fixture_path("rbo4_P")).action, Fraction(1), Matrix.identity(4))
    )))
    # a JSON boolean is not the scalar 1, neither as the weight nor in T
    bool_weight = json.loads(fixture_path("rbo3_P").read_text())
    bool_weight["weight"] = True
    bool_entry = json.loads(fixture_path("rbo3_P").read_text())
    bool_entry["T"][0][0] = True
    # theta(e1, e1) given twice, the second time as zero
    repeated_theta = json.loads(fixture_path("rbo4_P").read_text())
    repeated_theta["action"]["representation"]["theta"].append({"args": [1, 1], "matrix": [["0"] * 4] * 4})
    cases = (
        (lts_verify, {"dim": 3, "brackets": [{"args": [1, 2, 1], "value": ["1"]}]}),
        (lts_verify, {"dim": 3, "basis": 5}),
        (lts_verify, {"dim": 3, "brackets": 5}),
        (lts_verify, {"dim": 3, "brackets": [{"args": 5, "value": {}}]}),
        (rep_verify, {"algebra": {"dim": 1}, "space_dim": "x", "theta": []}),
        (rep_verify, {"algebra": {"dim": 1}, "space_dim": 1, "theta": [{"args": [1, 1], "matrix": 5}]}),
        (("coh", "cocycle", rbo3), {"degree": -1, "coeffs": 5}),
        (("coh", "coboundary", rbo3), {"degree": -1, "coeffs": ["1", "0", "0"], "target_dim": "x"}),
        (("coh", "coboundary", rbo3), {
            "degree": 1, "source_dim": 3.0, "coeffs": [["0", "0", "0"]] * 3,
        }),
        (subsystem, {"ambient_dim": 3, "vectors": 5}),
        (subsystem, {"ambient_dim": 3, "vectors": [5]}),
        # a mis-sized vector is refused whether or not it is zero
        (subsystem, {"ambient_dim": 3, "vectors": [["1", "0"]]}),
        (subsystem, {"ambient_dim": 3, "vectors": [["0", "0"]]}),
        (lts_verify, {"dim": True}),
        (rep_verify, {"algebra": {"dim": 1}, "space_dim": True, "theta": []}),
        # JSON booleans and floats are not integers, as degrees or as indices
        (("coh", "cocycle", rbo3), {"degree": True, "coeffs": [["0", "0", "0"]] * 3}),
        (("coh", "coboundary", rbo3), {"degree": -1.0, "coeffs": ["0", "0", "0"]}),
        (lts_verify, {"dim": 3, "brackets": [{"args": [True, 2, 2], "value": {"1": "1"}}]}),
        (rep_verify, {"algebra": {"dim": 2}, "space_dim": 1, "theta": [{"args": [True, 2], "matrix": [["1"]]}]}),
        # a bracket-value index is the numeral algebra_to_json writes, not
        # whatever int() accepts ("1_0" would be read as 10)
        (lts_verify, {"dim": 11, "brackets": [{"args": [1, 2, 1], "value": {"1_0": "1"}}]}),
        *((lts_verify, {"dim": 3, "brackets": [{"args": [1, 2, 1], "value": {key: "1"}}]})
          for key in (" 3", "+3", "03", "3 ", "\u0663")),
        # raw text: nesting deeper than the recursion limit
        (lts_verify, "[" * 5000 + "]" * 5000),
        # no input file: the dimensions come from the command line
        (("coh", "basis", "--degree", "3", "--source-dim", "-1", "--target-dim", "2"), None),
        (("rbo", "equivalence", rbo3, "--trials", "-1"), None),
        (("coh", "coboundary", str(bad4)), {
            "degree": 1, "source_dim": 3, "target_dim": 3, "coeffs": [["0", "0", "0"]] * 3,
        }),
        (("coh", "group", "--degree", "1"), bool_weight),
        (("coh", "group", "--degree", "1"), bool_entry),
        (("rbo", "check"), repeated_theta),
    )
    for n, (argv, doc) in enumerate(cases):
        if doc is not None:
            path = tmp_path / f"malformed{n}.json"
            path.write_text(doc if isinstance(doc, str) else dump_json(doc))
            argv += (str(path),)
        out = run_cli(*argv)
        assert out.returncode == 2, (argv, out.stderr)
        assert json.loads(out.stdout)["kind"] == "input"


def test_byte_identical_reruns():
    for args in (
        ("lts", "verify", str(fixture_path("lts4"))),
        ("coh", "group", "--degree", "1", str(fixture_path("rbo3_P"))),
        ("fixtures", "list"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # main keeps one parser for the process; a run must leave nothing in
    # it that changes the next one, so each step of the sequence prints
    # what a fresh process prints
    assert build_parser() is build_parser()
    rbo3 = str(fixture_path("rbo3_P"))
    zero = tmp_path / "zero.json"
    zero.write_text(dump_json(cochain_to_json(zero_cochain(1, 3, 3))))
    sequence = (
        ("coh", "group", rbo3, "--degree", "2"),
        ("coh", "group", rbo3, "--degree", "1", "--weight", "0"),
        ("coh", "group", rbo3, "--degree", "1"),
        ("def", "trivial", rbo3, str(zero), "--strict"),
    )
    codes = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        fresh = run_cli(*argv)
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout), argv
        codes.append(code)
    assert codes == [2, 0, 0, 0]


def test_negative_weight_reads_as_the_attached_form(tmp_path, capsys):
    # argparse takes a word like "-2/3" for an option unless it reads as
    # a negative integer or decimal; every command with --weight must
    # print what the "--weight=-2/3" spelling prints
    rbo3 = str(fixture_path("rbo3_P"))
    action = tmp_path / "action.json"
    action.write_text(dump_json(action_to_json(load_rbo(rbo3).action)))
    zero = tmp_path / "zero.json"
    zero.write_text(dump_json(cochain_to_json(zero_cochain(1, 3, 3))))
    zero = str(zero)
    commands = (
        ("sd", "build", str(action)),
        *(("rbo", cmd, rbo3) for cmd in ("check", "graph", "descendent", "nijenhuis")),
        ("rbo", "equivalence", rbo3, "--trials", "3"),
        ("coh", "group", rbo3, "--degree", "1"),
        ("coh", "group", rbo3, "--degree", "3"),
        ("coh", "cocycle", rbo3, zero),
        ("coh", "coboundary", rbo3, zero),
        ("def", "check", rbo3, zero),
        ("def", "class", rbo3, zero),
        ("def", "equiv", rbo3, zero, zero),
        ("def", "trivial", rbo3, zero, "--strict"),
    )

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    for argv in commands:
        for weight in ("-2/3", "-7/2", "-3", "-.5", "-1/0"):
            # the option before the remaining arguments, as README writes it
            split = run([*argv[:3], "--weight", weight, *argv[3:]])
            assert split == run([*argv, f"--weight={weight}"]), (argv, weight)
            assert split == run([*argv, "--wei", weight]), (argv, weight)
            assert split[0] == (2 if weight == "-1/0" else 0), (argv, weight)
            assert json.loads(split[1])
    assert json.loads(run(["coh", "group", rbo3, "--weight", "-2/3", "--degree", "1"])[1]) == {
        "degree": 1, "dim_B": 1, "dim_H": 5, "dim_Z": 6,
    }


def test_equiv_witness_sized_for_another_operator_exits_2(tmp_path, capsys):
    # a 3-dim wedge (3 coordinates) given for the 4-dim rbo4_P, whose
    # wedges have 6, is malformed input under both modes
    rbo4 = str(fixture_path("rbo4_P"))
    zero, wedge = tmp_path / "zero.json", tmp_path / "w3.json"
    zero.write_text(dump_json(cochain_to_json(zero_cochain(1, 4, 4))))
    wedge.write_text(dump_json(cochain_to_json(zero_cochain(-1, 3, 3))))
    for strict in ((), ("--strict",)):
        argv = ["def", "equiv", rbo4, str(zero), str(zero), "--witness", str(wedge), *strict]
        assert main(argv) == 2, argv
        assert json.loads(capsys.readouterr().out) == {
            "error": "wedge coordinates sized for a different operator", "kind": "input",
        }


def test_an_action_that_fails_verify_action_exits_1_on_every_command(tmp_path, capsys):
    # the sl2 self-action fails verify_action; T = 0 at weight 1 passes
    # (RB), so rbo check exits 0, and every command that needs the
    # action verified exits 1 as a verification, as coh group does in
    # degree 3, and not 2 as malformed input
    action = self_action(make_sln_lts(2))
    assert len(verify_action(action)) == 60
    rbo = RelativeRBO(action, 1, Matrix.zeros(3, 3))
    op, act = tmp_path / "op.json", tmp_path / "action.json"
    op.write_text(dump_json(rbo_to_json(rbo)))
    act.write_text(dump_json(action_to_json(action)))
    assert main(["rbo", "check", str(op)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    failed = {"error": "semidirect product requires a verified action", "kind": "verification"}
    commands = (
        ("rbo", "graph", str(op)),
        ("rbo", "nijenhuis", str(op)),
        ("rbo", "equivalence", str(op), "--trials", "3"),
        ("sd", "build", str(act), "--weight", "1"),
    )
    for argv in commands:
        assert main(list(argv)) == 1, argv
        assert json.loads(capsys.readouterr().out) == failed, argv
    assert main(["coh", "group", str(op), "--degree", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["kind"] == "verification"
