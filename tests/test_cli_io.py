"""``cli.main`` is the one reader of input files and the one writer of
output: it reads each file argument through its reader, in the order
argparse lists the arguments, and prints the document that the
command's handler returns."""

import ast
import contextlib
import inspect
import json
import textwrap
from argparse import Namespace

import pytest

from triplekit import cli, fileio
from triplekit.cohomology import zero_cochain
from triplekit.fileio import cochain_to_json, dump_json, load_algebra, load_rbo
from triplekit.fixtures import fixture_path
from triplekit.linalg import Matrix
from triplekit.rota_baxter import RelativeRBO

# the loader that reads each file argument
LOADER = {
    "algebra": "load_algebra",
    "span": "load_subspace",
    "representation": "load_representation",
    "action": "load_action",
    "operator": "load_rbo",
    "homomorphism": "load_homomorphism",
    "cochain": "load_cochain",
    "direction": "load_cochain",
    "direction1": "load_cochain",
    "direction2": "load_cochain",
    "witness": "load_cochain",
}


def commands():
    """(argv, file arguments in argparse order) of every command, with
    a made-up path for each file argument and the value 1 for each
    required option."""
    for group, _, table in cli.COMMANDS:
        for name, _handler, *arguments in table:
            argv, files = [group, name], []
            for argument in arguments:
                if isinstance(argument, tuple):
                    flag, options = argument
                    argv += [flag, "1"] if options.get("required") else []
                elif argument == "name":
                    argv.append("lts3")
                elif argument != "--weight":
                    dest = argument.removeprefix("--")
                    files.append(dest)
                    argv += [argument] * argument.startswith("--") + [f"{dest}.json"]
            yield argv, files


def test_every_bare_argument_has_a_reader_and_every_reader_an_argument():
    # the bare arguments, --weight and the fixture name aside, are the
    # file arguments; main's table names exactly those
    files = {dest for _, dests in commands() for dest in dests}
    assert files == set(LOADER)
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli.main)))
    (table,) = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "readers"
    ]
    assert {kw.arg for kw in table.keywords} == files
    assert {kw.arg: kw.value.attr for kw in table.keywords} == LOADER


def test_only_main_reads_files_or_writes_output():
    for node in ast.parse(inspect.getsource(cli)).body:
        if isinstance(node, ast.FunctionDef) and node.name != "main":
            attributes = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            assert not {a for a in attributes if a.startswith("load_") or a in ("stdout", "dump_json")}, node.name


def test_main_reads_each_file_argument_in_order_through_its_loader(monkeypatch, capsys):
    # every loader is replaced by a recorder; main looks the loaders up
    # when it runs, so it calls the recorders.  The handlers then get
    # paths where they expect objects, and may raise
    reads = []
    for loader in set(LOADER.values()):
        monkeypatch.setattr(fileio, loader, lambda path, loader=loader: reads.append((loader, path)) or path)
    for argv, files in commands():
        reads.clear()
        with contextlib.suppress(Exception):
            cli.main(argv)
        capsys.readouterr()
        assert reads == [(LOADER[dest], f"{dest}.json") for dest in files], argv


def test_def_equiv_reads_every_file_before_the_shape_check(tmp_path, capsys):
    # direction1 is sized for a 4-dim operator and direction2 cannot be
    # read: the read error is reported, as malformed input
    rbo3 = str(fixture_path("rbo3_P"))
    wrong, missing = tmp_path / "four.json", tmp_path / "missing.json"
    wrong.write_text(dump_json(cochain_to_json(zero_cochain(1, 4, 4))))
    assert cli.main(["def", "equiv", rbo3, str(wrong), str(missing)]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["kind"] == "input"
    assert error["error"].startswith(f"cannot read {missing}")


def handler_cases():
    lts3, rbo3 = load_algebra(fixture_path("lts3")), load_rbo(fixture_path("rbo3_P"))
    zero = zero_cochain(1, 3, 3)
    rbo3_path = str(fixture_path("rbo3_P"))
    not_an_operator = RelativeRBO(rbo3.action, 1, Matrix.identity(3))
    return [
        (cli.cmd_lts_verify, Namespace(algebra=lts3), ["lts", "verify", str(fixture_path("lts3"))], 0),
        (cli.cmd_coh_group, Namespace(operator=rbo3, degree=1), ["coh", "group", rbo3_path, "--degree", "1"], 0),
        (
            cli.cmd_def_equiv,
            Namespace(operator=rbo3, direction1=zero, direction2=zero, witness=None, strict=False),
            ["def", "equiv", rbo3_path, "ZERO", "ZERO"],
            0,
        ),
        (cli.cmd_rbo_check, Namespace(operator=not_an_operator, all_weights=False), None, 1),
    ]


@pytest.mark.parametrize("case", range(4))
def test_handlers_return_the_document_that_main_prints(case, tmp_path, capsys):
    handler, args, argv, code = handler_cases()[case]
    document, returned = handler(args)
    assert returned == code
    assert capsys.readouterr().out == ""
    if argv is not None:
        zero = tmp_path / "zero.json"
        zero.write_text(dump_json(cochain_to_json(zero_cochain(1, 3, 3))))
        assert cli.main([str(zero) if word == "ZERO" else word for word in argv]) == code
        assert capsys.readouterr().out == dump_json(document)
