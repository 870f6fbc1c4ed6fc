"""The output side of the coboundary against its dense forms.

``OperatorComplex.apply`` builds d f from the nonzeros of the sparse
image, with one shared zero tuple for every zero value vector;
``cochain_to_json`` formats only the nonzero value vectors and shares
one list per zero vector and per all-zero argument block; and
``dump_json`` writes a list object that comes back at the same indent
once.  Each is held to the path it replaced: the image written into a
dense flat vector (``dense_oracle.image``), the recursive cochain
layout (``dense_oracle.cochain_coeffs``) and ``json.dumps``.
"""

import json
import random
from fractions import Fraction

import pytest

import dense_oracle
from conftest import SEEDS, ladder, make_sln_lts
from triplekit import fileio
from triplekit.cli import main
from triplekit.cohomology import (
    Cochain,
    OperatorComplex,
    coboundary,
    cochain_space_basis,
    flatten_cochain,
    unflatten_cochain,
    zero_cochain,
)
from triplekit.fileio import cochain_to_json, dump_json, load_rbo, rbo_to_json
from triplekit.fixtures import fixture_path
from triplekit.linalg import Matrix
from triplekit.lts import zero_system
from triplekit.representations import ActionData, self_action, zero_representation
from triplekit.rota_baxter import RelativeRBO

F = Fraction
OPERATORS = ["rbo3_P", "rbo4_P", "ladder4", "ladder5", "ladder6", "sl3", "source_dim_0"]


def stdlib(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def operator(name):
    if name.startswith("rbo"):
        return load_rbo(fixture_path(name))
    if name.startswith("ladder"):
        return ladder(int(name[-1]))
    if name == "sl3":
        # the Cartan projection at weight 0, as in test_cohomology
        T = Matrix(8, 8, tuple(tuple(int(i == j and i in (6, 7)) for j in range(8)) for i in range(8)))
        return RelativeRBO(self_action(make_sln_lts(3)), 0, T)
    L = load_rbo(fixture_path("rbo3_P")).ambient
    return RelativeRBO(ActionData(zero_representation(L, 0), zero_system(0)), F(1), Matrix.zeros(L.dim, 0))


def random_cochain(rng, degree, source_dim, target_dim, fractions):
    """About half of the value vectors zero, the others drawn from small
    integers, or from p/q when ``fractions``."""
    def scalar():
        x = rng.randint(-3, 3)
        return F(x, rng.randint(1, 3)) if fractions else x

    if degree == -1:
        return Cochain(-1, source_dim, target_dim, tuple(scalar() for _ in range(target_dim * (target_dim - 1) // 2)))
    zero = (0,) * target_dim
    return Cochain(degree, source_dim, target_dim, tuple(
        tuple(scalar() for _ in range(target_dim)) if rng.random() < 0.5 else zero
        for _ in range(source_dim**degree)
    ))


@pytest.mark.parametrize("name", OPERATORS)
def test_apply_matches_dense_image(name):
    rng = random.Random(SEEDS["sparse_output"])
    rbo = operator(name)
    cx = OperatorComplex(rbo)
    d, dp = rbo.ambient.dim, rbo.source.dim
    for degree in (-1, 1, 3):
        # the bare coboundary over theta_T against the oracle's walk
        walked = dense_oracle.assemble(cx.rep, degree) if degree > 0 else None
        cochains = [zero_cochain(degree, dp, d)]
        cochains += [random_cochain(rng, degree, dp, d, fractions) for fractions in (False, True)]
        columns = dense_oracle.columns(cx.differential(degree), len(flatten_cochain(cochains[0])))
        for f in cochains:
            got = cx.apply(f)
            assert got == dense_oracle.image(columns, f), degree
            # the zero value vectors are one shared tuple
            assert len({id(v) for v in got.coeffs if not any(v)}) <= 1
            if walked is not None:
                assert coboundary(cx.rep, f) == dense_oracle.image(walked, f), degree


def test_dump_json_writes_repeated_lists_as_json_dumps_does():
    rng = random.Random(SEEDS["sparse_output"])
    vec, empty = ["0", "1/2", "-3"], []
    block = [vec, vec, vec]
    docs = [
        # one list object many times at one indent
        [vec] * 7,
        {"a": [block] * 4, "b": [vec, ["1"], vec]},
        # the same objects at two indents, each of them repeated
        {"deep": [[vec, vec], [block, block]], "shallow": [vec, vec, block, block], "top": vec},
        [block, [block, [block, vec]], vec, [vec], empty, [empty, empty], (vec, vec)],
    ]
    # drawn nests that reuse earlier subtrees at random depths
    for _ in range(20):
        pool = [["0"], [rng.choice(("1", "-2", "3/4"))] * 2, [1, None, True]]
        for _ in range(12):
            node = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            pool.append(node if rng.random() < 0.7 else {"k": node, "v": rng.choice(pool)})
        docs.append(pool[-5:])
    for doc in docs:
        assert dump_json(doc) == stdlib(doc)


@pytest.mark.parametrize("name", ["rbo3_P", "rbo4_P", "ladder4", "source_dim_0"])
def test_coboundary_stdout_is_the_dense_document(name, tmp_path, capsys):
    rng = random.Random(SEEDS["sparse_output"])
    rbo = operator(name)
    op = tmp_path / "op.json"
    op.write_text(dump_json(rbo_to_json(rbo)), encoding="utf-8")
    cx = OperatorComplex(rbo)
    d, dp = rbo.ambient.dim, rbo.source.dim
    for degree in (-1, 1, 3):
        for f in (zero_cochain(degree, dp, d), random_cochain(rng, degree, dp, d, True)):
            path = tmp_path / "cochain.json"
            path.write_text(dump_json(cochain_to_json(f)), encoding="utf-8")
            assert main(["coh", "coboundary", str(op), str(path)]) == 0
            columns = dense_oracle.columns(cx.differential(degree), len(flatten_cochain(f)))
            df = dense_oracle.image(columns, f)
            want = {"degree": df.degree, "source_dim": df.source_dim, "target_dim": df.target_dim,
                    "coeffs": dense_oracle.cochain_coeffs(df)}
            assert capsys.readouterr().out == stdlib(want)


def test_coboundary_formats_only_nonzero_value_vectors(monkeypatch, tmp_path, capsys):
    # coh coboundary of a degree-3 cochain on rbo4_P prints 4^5 value
    # vectors of 4 scalars, most of them zero; each nonzero vector is
    # formatted, and the zero vector once
    rng = random.Random(SEEDS["sparse_output"])
    rbo = load_rbo(fixture_path("rbo4_P"))
    d, dp = rbo.ambient.dim, rbo.source.dim
    flat = [0] * (dp**3 * d)
    for row in cochain_space_basis(3, dp, d).rows:
        c = rng.choice((-2, -1, 1, 3))
        for t, x in row:
            flat[t] += c * x
    f = unflatten_cochain(3, dp, d, tuple(flat))
    path = tmp_path / "c3.json"
    path.write_text(dump_json(cochain_to_json(f)), encoding="utf-8")
    nonzero = sum(1 for v in OperatorComplex(rbo).apply(f).coeffs if any(v))
    assert 0 < nonzero < dp**5
    calls = []
    inner = fileio.format_scalar

    def counting(x):
        calls.append(x)
        return inner(x)

    monkeypatch.setattr(fileio, "format_scalar", counting)
    assert main(["coh", "coboundary", str(fixture_path("rbo4_P")), str(path)]) == 0
    capsys.readouterr()
    assert len(calls) <= nonzero * d + 1
