"""The command line parser as it was first written, one hand-written
block per command.

``triplekit.cli`` builds its parser from one table of commands; the
tests require that parser to print the same help and the same usage
errors as this one, entry by entry.
"""

from __future__ import annotations

import argparse

from triplekit import cli


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplekit",
        description="exact computations with Lie triple systems and relative Rota-Baxter operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lts = parser_group(sub, "lts", "structure-constant systems")
    p = lts.add_parser("verify")
    p.add_argument("algebra")
    p.set_defaults(handler=cli.cmd_lts_verify)
    p = lts.add_parser("center")
    p.add_argument("algebra")
    p.set_defaults(handler=cli.cmd_lts_center)
    p = lts.add_parser("derived")
    p.add_argument("algebra")
    p.set_defaults(handler=cli.cmd_lts_derived)
    p = lts.add_parser("subsystem")
    p.add_argument("algebra")
    p.add_argument("span")
    p.set_defaults(handler=cli.cmd_lts_subsystem)

    rep = parser_group(sub, "rep", "representations and actions")
    p = rep.add_parser("verify")
    p.add_argument("representation")
    p.set_defaults(handler=cli.cmd_rep_verify)
    p = rep.add_parser("adjoint")
    p.add_argument("algebra")
    p.set_defaults(handler=cli.cmd_rep_adjoint)
    p = rep.add_parser("action")
    p.add_argument("action")
    p.set_defaults(handler=cli.cmd_rep_action)

    sd = parser_group(sub, "sd", "semidirect products")
    p = sd.add_parser("build")
    p.add_argument("action")
    p.add_argument("--weight", required=True)
    p.set_defaults(handler=cli.cmd_sd_build)

    rbo = parser_group(sub, "rbo", "relative Rota-Baxter operators")
    p = rbo.add_parser("check")
    p.add_argument("operator")
    p.add_argument("--weight")
    p.add_argument("--all-weights", action="store_true")
    p.set_defaults(handler=cli.cmd_rbo_check)
    p = rbo.add_parser("graph")
    p.add_argument("operator")
    p.add_argument("--weight")
    p.set_defaults(handler=cli.cmd_rbo_graph)
    p = rbo.add_parser("descendent")
    p.add_argument("operator")
    p.add_argument("--weight")
    p.set_defaults(handler=cli.cmd_rbo_descendent)
    p = rbo.add_parser("nijenhuis")
    p.add_argument("operator")
    p.add_argument("--weight")
    p.set_defaults(handler=cli.cmd_rbo_nijenhuis)
    p = rbo.add_parser("hom")
    p.add_argument("homomorphism")
    p.set_defaults(handler=cli.cmd_rbo_hom)
    p = rbo.add_parser("equivalence")
    p.add_argument("operator")
    p.add_argument("--weight")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=20260808)
    p.set_defaults(handler=cli.cmd_rbo_equivalence)

    coh = parser_group(sub, "coh", "operator cohomology")
    p = coh.add_parser("group")
    p.add_argument("operator")
    p.add_argument("--weight")
    p.add_argument("--degree", type=int, required=True, choices=(1, 3))
    p.set_defaults(handler=cli.cmd_coh_group)
    p = coh.add_parser("cocycle")
    p.add_argument("operator")
    p.add_argument("cochain")
    p.add_argument("--weight")
    p.set_defaults(handler=cli.cmd_coh_cocycle)
    p = coh.add_parser("coboundary")
    p.add_argument("operator")
    p.add_argument("cochain")
    p.add_argument("--weight")
    p.set_defaults(handler=cli.cmd_coh_coboundary)
    p = coh.add_parser("map")
    p.add_argument("homomorphism")
    p.add_argument("cochain")
    p.set_defaults(handler=cli.cmd_coh_map)
    p = coh.add_parser("basis")
    p.add_argument("--degree", type=int, required=True, choices=(-1, 1, 3, 5))
    p.add_argument("--source-dim", type=int, required=True)
    p.add_argument("--target-dim", type=int, required=True)
    p.add_argument("--max-degree-override", action="store_true")
    p.set_defaults(handler=cli.cmd_coh_basis)

    deff = parser_group(sub, "def", "infinitesimal deformations")
    p = deff.add_parser("check")
    p.add_argument("operator")
    p.add_argument("direction")
    p.add_argument("--weight")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(handler=cli.cmd_def_check)
    p = deff.add_parser("class")
    p.add_argument("operator")
    p.add_argument("direction")
    p.add_argument("--weight")
    p.set_defaults(handler=cli.cmd_def_class)
    p = deff.add_parser("equiv")
    p.add_argument("operator")
    p.add_argument("direction1")
    p.add_argument("direction2")
    p.add_argument("--witness")
    p.add_argument("--weight")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(handler=cli.cmd_def_equiv)
    p = deff.add_parser("trivial")
    p.add_argument("operator")
    p.add_argument("direction")
    p.add_argument("--weight")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(handler=cli.cmd_def_trivial)

    fx = parser_group(sub, "fixtures", "bundled examples")
    p = fx.add_parser("list")
    p.set_defaults(handler=cli.cmd_fixtures_list)
    p = fx.add_parser("path")
    p.add_argument("name")
    p.set_defaults(handler=cli.cmd_fixtures_path)

    return parser


def parser_group(sub, name, help_text):
    return sub.add_parser(name, help=help_text).add_subparsers(
        dest="subcommand", required=True
    )
