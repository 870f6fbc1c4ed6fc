"""The parser built from ``cli.COMMANDS`` against the hand-written one in
``parser_oracle``, and the README's command list against the table."""

import argparse
import contextlib
import io
import re
from pathlib import Path

import parser_oracle
from triplekit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def entries():
    """The argv prefix of every parser entry: the top level, each group
    and each command."""
    yield ()
    for group, _, commands in cli.COMMANDS:
        yield (group,)
        for name, *_ in commands:
            yield (group, name)


def parse(parser, argv):
    """(exit code, stdout, stderr, parsed namespace) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = vars(parser.parse_args(list(argv))), 0
        except SystemExit as exc:
            args, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), args


def declared(parser, prefix):
    """The defaults and the argument records of the entry at ``prefix``,
    so that a type or a default that no help text shows is compared too."""
    for word in prefix:
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[word]
    return parser._defaults, [
        (a.option_strings, a.dest, a.default, a.type, a.choices, a.required, a.nargs, a.const)
        for a in parser._actions if not isinstance(a, argparse._SubParsersAction)
    ]


def test_table_parser_prints_what_the_hand_written_one_prints(monkeypatch):
    # argparse wraps its lines at the width COLUMNS gives; fix it, once
    # narrow enough to wrap the long lines and once wide.  The help of
    # the top level and of each group lists its entries, so equal help
    # also means the two parsers have the same commands
    table, oracle = cli.build_parser(), parser_oracle.build_parser()
    for prefix in entries():
        assert declared(table, prefix) == declared(oracle, prefix), prefix
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for prefix in entries():
            # --help, and the entry with nothing after it: a usage
            # error, or for "fixtures list" a parse
            for argv in (prefix + ("--help",), prefix):
                got = parse(table, argv)
                assert got == parse(oracle, argv), argv
                assert got[0] in (0, 2) and (got[1] or got[2] or got[3]), argv


def test_readme_command_block_names_exactly_the_table():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```\n(.*?)```", text, re.S).group(1)
    listed = sorted(tuple(line.split()[1:3]) for line in block.splitlines() if line.startswith("triplekit "))
    table = sorted((group, name) for group, _, commands in cli.COMMANDS for name, *_ in commands)
    assert listed == table
