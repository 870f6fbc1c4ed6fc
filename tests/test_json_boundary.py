"""The JSON boundary against the standard library as its oracle.

``fileio.dump_json`` writes the layout of ``json.dumps`` with sorted
keys and a two-space indent itself, ``cochain_to_json`` formats the
value vectors in one pass and nests them afterwards, and
``parse_scalar`` reads an ASCII integer without ``Fraction``.  Each is
held here to the slower path it replaces: ``json.dumps`` on every
document the command line prints for the fixtures and on drawn nests,
the recursive cochain layout kept in ``dense_oracle.py``, and
``Fraction`` on the scalar text.
"""

import json
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import dense_oracle
from conftest import SEEDS
from triplekit import fileio
from triplekit.cli import main
from triplekit.cohomology import Cochain, zero_cochain
from triplekit.fileio import (
    action_to_json,
    cochain_from_json,
    cochain_to_json,
    dump_json,
    load_rbo,
    rbo_to_json,
)
from triplekit.fixtures import fixture_path
from triplekit.linalg import Matrix, StructureError, _normal, parse_scalar
from triplekit.representations import adjoint_representation
from triplekit.rota_baxter import RelativeRBO


def stdlib(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# dump_json


def random_cochain(rng, degree, source_dim, target_dim):
    def scalar():
        return rng.choice((0, 0, 1, -1, 7, -12, Fraction(1, 2), Fraction(-5, 3)))

    if degree == -1:
        return Cochain(-1, source_dim, target_dim, tuple(scalar() for _ in range(target_dim * (target_dim - 1) // 2)))
    return Cochain(
        degree, source_dim, target_dim,
        tuple(tuple(scalar() for _ in range(target_dim)) for _ in range(source_dim**degree)),
    )


def cli_jobs(tmp_path):
    """argv lists that cover every command on the fixtures, with the
    inputs they need written to ``tmp_path``; some end in an error
    document on purpose."""
    rng = random.Random(SEEDS["serialization"])

    def write(name, data):
        path = tmp_path / name
        path.write_text(data if isinstance(data, str) else dump_json(data), encoding="utf-8")
        return str(path)

    lts3, lts4 = str(fixture_path("lts3")), str(fixture_path("lts4"))
    rbo3, rbo4 = str(fixture_path("rbo3_P")), str(fixture_path("rbo4_P"))
    op3 = load_rbo(rbo3)
    identity = fileio.matrix_to_json(Matrix.identity(op3.ambient.dim))
    action = write("action.json", action_to_json(op3.action))
    adjoint = write("adjoint.json", fileio.representation_to_json(adjoint_representation(op3.ambient)))
    hom = write("hom.json", {
        "source": rbo3, "target": rbo3, "psi_L": identity,
        "psi_Lprime": fileio.matrix_to_json(Matrix.identity(op3.source.dim)),
    })
    span = write("span.json", {"ambient_dim": 3, "vectors": [["1", "0", "0"], ["0", "1/2", "1"]]})
    not_an_operator = write("not_rb.json", rbo_to_json(
        RelativeRBO(load_rbo(rbo4).action, Fraction(1), Matrix.identity(4))
    ))
    jobs = [
        ["fixtures", "list"], ["fixtures", "path", "lts4"], ["fixtures", "path", "nope"],
        ["lts", "verify", write("bad.json", "{not json")],
        ["coh", "basis", "--degree", "3", "--source-dim", "2", "--target-dim", "3"],
        ["lts", "subsystem", lts3, span],
        ["rep", "verify", adjoint], ["rep", "action", action],
        ["sd", "build", action, "--weight", "1"], ["sd", "build", action, "--weight", "-2/3"],
        ["rbo", "hom", hom], ["def", "check", not_an_operator, write("zero4.json", cochain_to_json(zero_cochain(1, 4, 4)))],
    ]
    for lts in (lts3, lts4):
        jobs += [["lts", cmd, lts] for cmd in ("verify", "center", "derived")] + [["rep", "adjoint", lts]]
    for name, path in (("rbo3", rbo3), ("rbo4", rbo4)):
        rbo = load_rbo(path)
        d, dp = rbo.ambient.dim, rbo.source.dim
        direction = write(f"{name}_direction.json", cochain_to_json(random_cochain(rng, 1, dp, d)))
        other = write(f"{name}_other.json", cochain_to_json(random_cochain(rng, 1, dp, d)))
        zero = write(f"{name}_zero.json", cochain_to_json(zero_cochain(1, dp, d)))
        jobs += [
            ["rbo", "check", path], ["rbo", "check", path, "--all-weights"], ["rbo", "check", path, "--weight", "5"],
            ["rbo", "graph", path], ["rbo", "descendent", path], ["rbo", "nijenhuis", path],
            ["rbo", "equivalence", path, "--trials", "3"],
            ["coh", "group", path, "--degree", "1"], ["coh", "group", path, "--degree", "3"],
            ["coh", "cocycle", path, direction], ["coh", "cocycle", path, zero],
            *(["coh", "coboundary", path, write(f"{name}_deg{k}.json", cochain_to_json(random_cochain(rng, k, dp, d)))]
              for k in (1, 3)),
            ["coh", "coboundary", path, write(f"{name}_wedge.json", cochain_to_json(random_cochain(rng, -1, dp, dp)))],
            ["def", "check", path, direction], ["def", "check", path, zero, "--strict"],
            ["def", "class", path, zero], ["def", "class", path, direction],
            ["def", "trivial", path, zero], ["def", "trivial", path, direction, "--strict"],
            ["def", "equiv", path, zero, zero], ["def", "equiv", path, direction, other],
        ]
    jobs.append(["coh", "map", hom, write("rbo3_map.json", cochain_to_json(random_cochain(rng, 1, 3, 3)))])
    return jobs


def test_dump_json_matches_stdlib_on_every_cli_document(tmp_path, monkeypatch, capsys):
    printed = []
    inner = fileio.dump_json

    def recording(data):
        text = inner(data)
        printed.append((data, text))
        return text

    monkeypatch.setattr(fileio, "dump_json", recording)
    codes = set()
    for argv in cli_jobs(tmp_path):
        printed.clear()
        codes.add(main(argv))
        assert len(printed) == 1, argv
        data, text = printed[0]
        assert text == stdlib(data), argv
        assert capsys.readouterr().out == text
    # success, verification failures and input errors all printed
    assert codes == {0, 1, 2}


def test_dump_json_keys_as_the_stdlib_writes_them():
    for data in (
        {1: "a", 10: "b", 2: "c"},
        {True: [], False: {}},
        {None: 0},
        {1.5: None, 0.25: True},
        {"b": (), "a": ("x", 1, ["y"], {"z": "é"})},
        [[], {}, [[]], [{}], "", 0, -1, 10**30],
    ):
        assert dump_json(data) == stdlib(data), data
    for data in ({(1, 2): 0}, {1: 0, "1": 0}, {"x": Fraction(1, 2)}, [object()]):
        with pytest.raises(TypeError):
            stdlib(data)
        with pytest.raises(TypeError):
            dump_json(data)


# the example database is off and generation derandomized, so runs are
# repeatable and write nothing into the repository
ORACLE = settings(database=None, derandomize=True, deadline=None, max_examples=400)

TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\té €\U0001f600'), st.characters()),
    max_size=6,
)
ATOMS = st.one_of(st.none(), st.booleans(), st.integers(), TEXT)
NESTS = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.lists(TEXT, max_size=4),
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@ORACLE
@given(NESTS)
def test_dump_json_matches_stdlib_on_drawn_nests(data):
    assert dump_json(data) == stdlib(data)


# ---------------------------------------------------------------------------
# cochains


def test_cochain_layout_and_round_trip():
    rng = random.Random(SEEDS["serialization"])
    for degree in (-1, 1, 3):
        for source_dim in range(5):
            for target_dim in range(5):
                # the zero cochain's value vectors and argument blocks
                # are each one shared list
                drawn = random_cochain(rng, degree, source_dim, target_dim)
                for f in (drawn, zero_cochain(degree, source_dim, target_dim)):
                    data = cochain_to_json(f)
                    assert data == {
                        "degree": degree,
                        "source_dim": source_dim,
                        "target_dim": target_dim,
                        "coeffs": dense_oracle.cochain_coeffs(f),
                    }, (degree, source_dim, target_dim)
                    text = dump_json(data)
                    assert text == stdlib(data), (degree, source_dim, target_dim)
                    assert cochain_from_json(json.loads(text)) == f, (degree, source_dim, target_dim)


# ---------------------------------------------------------------------------
# parse_scalar


def fraction_reading(text):
    """The value and type ``parse_scalar`` returns for ``text``, or the
    message of the error it raises, read through ``Fraction`` alone."""
    try:
        value = _normal(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        return f"not a rational scalar: {text!r}"
    return value, type(value)


def fast_reading(text):
    try:
        value = parse_scalar(text)
    except StructureError as exc:
        return str(exc)
    return value, type(value)


def test_parse_scalar_matches_fraction():
    rng = random.Random(SEEDS["serialization"])
    texts = [
        "0", "-0", "007", "-007", "+3", " 3 ", "3 ", "\t-4\n", "1_0", "-1_0", "٣", "-٣", "²",
        "3.0", "-2.50", "1e2", "2/4", "-6/3", "1/0", "-", "", "--1", "- 1", "+-1", "0x10", "1/2/3",
    ]
    for _ in range(300):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 40)))
        texts += [digits, "-" + digits]
    for text in texts:
        assert fast_reading(text) == fraction_reading(text), text
