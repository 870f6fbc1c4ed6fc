"""Hypothesis fuzzing of the JSON loaders and the file-taking commands.

Whatever JSON a file holds, a loader either returns or raises
``StructureError``, and ``main`` exits 0, 1 or 2 without a traceback,
printing ``"kind": "input"`` on exit 2.  Inputs are whole drawn
documents and bundled fixtures with one node replaced by a drawn value.
The command fuzzers also start from well-formed cochains of the wrong
shape for their command (``test_cochain_shape.MISSHAPED``), and one
fuzzer changes only the shape of a command's cochain, which must then
exit 2 with ``"kind": "input"`` and nothing on stderr.

Drawn integers stay in -2..4: no cost model bounds the work of a job
yet, so a large dimension would stall it.  The example database is off
and generation is derandomized, so runs are repeatable and write
nothing into the repository.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from test_cochain_shape import MISSHAPED, ones
from triplekit import fileio
from triplekit.cli import main
from triplekit.fixtures import fixture_path
from triplekit.linalg import StructureError

FUZZ = settings(database=None, derandomize=True, deadline=None)

LOADERS = [getattr(fileio, name) for name in sorted(dir(fileio)) if name.startswith("load_")]

KEYS = (
    "dim", "basis", "brackets", "args", "value", "algebra", "space_dim", "theta",
    "matrix", "representation", "target", "action", "weight", "T", "source", "psi_L",
    "psi_Lprime", "degree", "coeffs", "source_dim", "target_dim", "ambient_dim",
    "vectors", "1", "2", "3",
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.sampled_from([0.5, 3.0]),
    st.sampled_from(["", "x", "0", "1", "-1/2", "1/0", "e1"]),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    ),
    max_leaves=12,
)


def fixture_json(name):
    return json.loads(fixture_path(name).read_text())


ALGEBRA = fixture_json("lts3")
RBO = fixture_json("rbo3_P")
ACTION = RBO["action"]
REPRESENTATION = ACTION["representation"]
IDENTITY = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
HOM = {"source": RBO, "target": RBO, "psi_L": IDENTITY, "psi_Lprime": IDENTITY}
SPAN = {"ambient_dim": 3, "vectors": [["1", "0", "0"]]}
MAP = {"degree": 1, "source_dim": 3, "target_dim": 3, "coeffs": IDENTITY}
WEDGE = {"degree": -1, "coeffs": ["1", "0", "0"]}

# one valid input per loader
LOADER_INPUTS = {
    "load_action": ACTION,
    "load_algebra": ALGEBRA,
    "load_cochain": MAP,
    "load_homomorphism": HOM,
    "load_rbo": RBO,
    "load_representation": REPRESENTATION,
    "load_subspace": SPAN,
}

# argv of every file-taking command; a dict in it is an input file
COMMANDS = (
    ("lts", "verify", ALGEBRA),
    ("lts", "center", ALGEBRA),
    ("lts", "derived", ALGEBRA),
    ("lts", "subsystem", ALGEBRA, SPAN),
    ("rep", "verify", REPRESENTATION),
    ("rep", "adjoint", ALGEBRA),
    ("rep", "action", ACTION),
    ("sd", "build", ACTION, "--weight", "1"),
    ("rbo", "check", RBO, "--all-weights"),
    ("rbo", "graph", RBO),
    ("rbo", "descendent", RBO),
    ("rbo", "nijenhuis", RBO),
    ("rbo", "hom", HOM),
    ("rbo", "equivalence", RBO, "--trials", "2"),
    ("coh", "group", RBO, "--degree", "1"),
    ("coh", "cocycle", RBO, MAP),
    ("coh", "coboundary", RBO, WEDGE),
    ("coh", "map", HOM, MAP),
    ("def", "check", RBO, MAP),
    ("def", "class", RBO, MAP),
    ("def", "trivial", RBO, MAP, "--strict"),
    ("def", "equiv", RBO, MAP, MAP, "--witness", WEDGE),
)


def node_paths(node, path=()):
    """Key paths of every node below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def write_inputs(tmp, docs):
    paths = []
    for n, doc in enumerate(docs):
        path = Path(tmp) / f"input{n}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)
    return paths


def load_all(path):
    for load in LOADERS:
        try:
            load(path)
        except StructureError:
            pass


def inputs(command):
    return [arg for arg in command if isinstance(arg, dict)]


def run_main(command, docs):
    """(exit code, stdout, stderr) of ``main`` on ``command`` with its
    input files holding ``docs``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = iter(write_inputs(tmp, docs))
        argv = [str(next(paths)) if isinstance(arg, dict) else arg for arg in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_command(command, docs):
    """Exit code of ``main`` on ``command`` with its input files holding ``docs``."""
    code, out, _ = run_main(command, docs)
    assert code in (0, 1, 2), command
    if code == 2:
        assert json.loads(out)["kind"] == "input", command
    return code


def draw_command(data):
    command = data.draw(st.sampled_from(COMMANDS + MISSHAPED))
    docs = inputs(command)
    return command, docs, data.draw(st.integers(0, len(docs) - 1))


def draw_mutation(data, doc):
    path = data.draw(st.sampled_from(list(node_paths(doc))))
    return replaced(doc, path, data.draw(JSON))


# (command, slot) of every cochain among the commands' input files
COCHAIN_SLOTS = tuple(
    (command, slot) for command in COMMANDS for slot, doc in enumerate(inputs(command)) if "degree" in doc
)


def misshape(data, doc):
    """The well-formed cochain document ``doc`` with only its shape
    changed: one value vector (a coordinate, for a wedge) dropped or
    repeated, one value vector lengthened, or source_dim or target_dim
    moved by one with every coordinate 1, a nesting that still parses.
    A wedge's source_dim is not part of its shape."""
    f = fileio.cochain_from_json(doc)
    kinds = ("drop", "repeat", "target_dim") + (("lengthen", "source_dim") if f.degree > 0 else ())
    kind = data.draw(st.sampled_from(kinds))
    if kind.endswith("_dim"):
        step = data.draw(st.sampled_from((-1, 1)))
        return ones(f.degree, f.source_dim + step * (kind == "source_dim"), f.target_dim + step * (kind == "target_dim"))
    path = data.draw(st.sampled_from([p for p in node_paths(doc["coeffs"]) if len(p) == max(f.degree, 1)]))
    doc = copy.deepcopy(doc)
    parent = doc["coeffs"]
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "repeat":
        parent.insert(path[-1], parent[path[-1]])
    else:
        parent[path[-1]].append("0")
    return doc


def test_every_loader_and_command_has_a_valid_input():
    assert sorted(LOADER_INPUTS) == [load.__name__ for load in LOADERS]
    with tempfile.TemporaryDirectory() as tmp:
        for load in LOADERS:
            load(write_inputs(tmp, [LOADER_INPUTS[load.__name__]])[0])
    for command in COMMANDS:
        assert run_command(command, inputs(command)) in (0, 1), command


@settings(FUZZ, max_examples=300)
@given(doc=JSON)
def test_loaders_on_arbitrary_json(doc):
    with tempfile.TemporaryDirectory() as tmp:
        load_all(write_inputs(tmp, [doc])[0])


@settings(FUZZ, max_examples=400)
@given(data=st.data())
def test_loaders_on_mutated_inputs(data):
    doc = draw_mutation(data, data.draw(st.sampled_from(sorted(LOADER_INPUTS.items())))[1])
    with tempfile.TemporaryDirectory() as tmp:
        load_all(write_inputs(tmp, [doc])[0])


@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_commands_on_arbitrary_json(data):
    command, docs, slot = draw_command(data)
    docs[slot] = data.draw(JSON)
    run_command(command, docs)


@settings(FUZZ, max_examples=600)
@given(data=st.data())
def test_commands_on_mutated_inputs(data):
    command, docs, slot = draw_command(data)
    docs[slot] = draw_mutation(data, docs[slot])
    run_command(command, docs)


@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_commands_on_misshaped_cochains(data):
    command, slot = data.draw(st.sampled_from(COCHAIN_SLOTS))
    docs = inputs(command)
    docs[slot] = misshape(data, docs[slot])
    code, out, err = run_main(command, docs)
    assert (code, json.loads(out)["kind"], err) == (2, "input", ""), (command[:2], docs[slot])
