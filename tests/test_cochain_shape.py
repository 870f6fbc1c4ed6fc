"""The one shape rule for a complex's cochains, through the CLI.

Every command that reads a cochain checks it with
``cohomology.cochain_coordinates``: the degree must be one the command
accepts, the target dimension that of L, and in degrees >= 1 the source
dimension that of L'.  A well-formed cochain of another shape is
malformed input (exit 2, ``"kind": "input"``, no traceback).  A wedge
lies in the wedge square of L alone, so its ``source_dim`` is never
read, which matters for relative operators with dim L' != dim L.
"""

import contextlib
import io
import json

import pytest

from conftest import relative_rbo
from test_cli import run_cli
from triplekit.cli import main
from triplekit.cohomology import Cochain, delta_wedge, unflatten_cochain, zero_cochain
from triplekit.fileio import cochain_to_json, dump_json, rbo_to_json
from triplekit.fixtures import fixture_path
from triplekit.linalg import Matrix
from triplekit.lts import zero_system
from triplekit.representations import ActionData, zero_representation
from triplekit.rota_baxter import RelativeRBO


def fixture_json(name):
    return json.loads(fixture_path(name).read_text())


def ones(degree, source_dim, target_dim):
    """A well-formed cochain document with every coordinate 1."""
    size = target_dim * (target_dim - 1) // 2 if degree == -1 else source_dim**degree * target_dim
    return cochain_to_json(unflatten_cochain(degree, source_dim, target_dim, (1,) * size))


# rbo3_P has dim L = dim L' = 3; each list holds cochains of the wrong
# degree, the wrong source_dim (degrees >= 1) and the wrong target_dim
# for one kind of cochain argument
RBO = fixture_json("rbo3_P")
IDENTITY = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
HOM = {"source": RBO, "target": RBO, "psi_L": IDENTITY, "psi_Lprime": IDENTITY}
MAP = ones(1, 3, 3)
WRONG = {
    "direction": [ones(3, 3, 3), ones(-1, 3, 3), ones(1, 4, 3), ones(1, 2, 3), ones(1, 3, 4), ones(1, 3, 2)],
    "coboundary": [ones(5, 3, 3), ones(1, 4, 3), ones(3, 2, 3), ones(1, 3, 4), ones(3, 3, 2), ones(-1, 4, 4)],
    "map": [ones(-1, 3, 3), ones(1, 4, 3), ones(3, 2, 3), ones(1, 3, 4), ones(3, 3, 2)],
    "witness": [ones(1, 3, 3), ones(-1, 4, 4), ones(-1, 2, 2)],
}

# argv of every command that reads a cochain, one wrong cochain in one
# slot; a dict in it is an input file
MISSHAPED = (
    *(("coh", "cocycle", RBO, f) for f in WRONG["direction"]),
    *(("coh", "coboundary", RBO, f) for f in WRONG["coboundary"]),
    *(("coh", "map", HOM, f) for f in WRONG["map"]),
    *(("def", sub, RBO, f, *strict) for f in WRONG["direction"]
      for sub, strict in (("check", ()), ("class", ()), ("trivial", ()), ("trivial", ("--strict",)))),
    *(("def", "equiv", RBO, f, MAP) for f in WRONG["direction"]),
    *(("def", "equiv", RBO, MAP, f) for f in WRONG["direction"]),
    *(("def", "equiv", RBO, MAP, MAP, "--witness", f, *strict) for f in WRONG["witness"]
      for strict in ((), ("--strict",))),
)


def write_argv(tmp_path, command):
    argv = []
    for n, arg in enumerate(command):
        if isinstance(arg, dict):
            path = tmp_path / f"arg{n}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        argv.append(arg)
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_misshaped_cochains_exit_2_on_every_command(tmp_path):
    commands = {tuple(c[:2]) for c in MISSHAPED}
    assert commands == {("coh", "cocycle"), ("coh", "coboundary"), ("coh", "map"),
                        ("def", "check"), ("def", "class"), ("def", "trivial"), ("def", "equiv")}
    for command in MISSHAPED:
        argv = write_argv(tmp_path, command)
        code, out, err = run_main(argv)
        assert (code, json.loads(out)["kind"], err) == (2, "input", ""), (command[:2], out)
    # the valid documents the wrong ones stand in for are accepted
    assert run_main(write_argv(tmp_path, ("coh", "map", HOM, MAP)))[0] == 0


def test_misshaped_transport_exits_2_from_the_module_entry(tmp_path):
    # a 4 x 3 degree-1 cochain for the 3-dim homomorphism
    hom, f = write_argv(tmp_path, (HOM, ones(1, 4, 3)))
    out = run_cli("coh", "map", hom, f)
    assert (out.returncode, out.stderr) == (2, "")
    assert json.loads(out.stdout)["kind"] == "input"


@pytest.mark.parametrize("strict", [(), ("--strict",)])
def test_wedge_of_a_relative_operator_needs_no_source_dim(tmp_path, strict):
    rbo = relative_rbo()
    X = Cochain(-1, 2, 3, (1, -2, 3))
    dX = delta_wedge(rbo, X)
    assert not dX.is_zero() and (dX.source_dim, dX.target_dim) == (2, 3)
    op, s1, s2 = write_argv(tmp_path, (rbo_to_json(rbo), cochain_to_json(dX), cochain_to_json(zero_cochain(1, 2, 3))))
    wedge = {"degree": -1, "coeffs": ["1", "-2", "3"]}
    outputs = []
    for doc in (wedge, {**wedge, "source_dim": 2}):
        path = tmp_path / "wedge.json"
        path.write_text(dump_json(doc))
        coboundary = run_main(["coh", "coboundary", op, str(path)])
        assert coboundary == (0, dump_json(cochain_to_json(dX)), "")
        equiv = run_main(["def", "equiv", op, s1, s2, "--witness", str(path), *strict])
        assert equiv[0] == 0 and json.loads(equiv[1])["ok"] is True
        outputs.append((coboundary, equiv))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("strict", [(), ("--strict",)])
def test_wedge_of_a_one_dim_system_needs_no_target_dim(tmp_path, strict):
    # a wedge file with no coordinates reads as target_dim 0, the first
    # triangular root of 0, so a wedge is checked by its coordinate count
    L = zero_system(1)
    rbo = RelativeRBO(ActionData(zero_representation(L, 2), zero_system(2)), 1, Matrix(1, 2, ((1, 0),)))
    zero = cochain_to_json(zero_cochain(1, 2, 1))
    op, s = write_argv(tmp_path, (rbo_to_json(rbo), zero))
    outputs = []
    for doc in ({"degree": -1, "coeffs": []}, {"degree": -1, "coeffs": [], "target_dim": 1}):
        path = tmp_path / "wedge.json"
        path.write_text(dump_json(doc))
        coboundary = run_main(["coh", "coboundary", op, str(path)])
        assert coboundary == (0, dump_json(zero), "")
        equiv = run_main(["def", "equiv", op, s, s, "--witness", str(path), *strict])
        assert equiv[0] == 0 and json.loads(equiv[1])["ok"] is True
        outputs.append((coboundary, equiv))
    assert outputs[0] == outputs[1]


def test_shape_is_checked_before_the_operator(tmp_path, rbo4):
    # on a non-operator, a cochain of the wrong degree is malformed input
    # for coh cocycle as for def check, before (RB) is checked
    bad = RelativeRBO(rbo4.action, 1, Matrix.identity(4))
    op, f = write_argv(tmp_path, (rbo_to_json(bad), ones(3, 4, 4)))
    for sub in (("coh", "cocycle"), ("def", "check")):
        code, out, err = run_main([*sub, op, f])
        assert (code, json.loads(out), err) == (
            2, {"error": "cochain of degree 3, expected degree 1", "kind": "input"}, ""
        ), sub
