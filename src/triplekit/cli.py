"""Batch command line front end.

``main`` reads every file argument, each through its reader in one
table, and hands the loaded objects to the command's handler.  The
handler delegates to the library and returns one JSON document and its
exit code; ``main`` prints that document, or the error document of a
failure.  No handler reads a file or prints, and no computation lives
here.  Exit codes: 0 success, 1 a verification ran and found
violations, 2 malformed input or usage.  Reports are printed with
sorted keys and normalized scalars, so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import fileio
from .cohomology import (
    OperatorComplex,
    cochain_map_p,
    cochain_space_basis,
    cohomology_group,
    one_cocycle_check,
)
from .deformations import (
    EquivalenceWitness,
    InfinitesimalDeformation,
    check_deformation,
    check_equivalence,
    deformation_cocycle_class,
    find_equivalence_witness,
    is_trivial_deformation,
)
from .fixtures import fixture_path, list_fixtures
from .linalg import VerificationError, format_scalar, parse_scalar
from .lts import center, derived_algebra, is_abelian_subsystem, is_subsystem, verify_lts
from .properties import equivalence_sweep
from .reporting import Report, summarize
from .representations import adjoint_representation, semidirect_product, verify_action, verify_representation
from .rota_baxter import (
    RelativeRBO,
    check_rbo,
    check_rbo_all_weights,
    check_rbo_homomorphism,
    descendent_lts,
    graph_subsystem,
    nijenhuis_check,
    nijenhuis_lift,
)


def _report(report: Report, **extra) -> tuple[dict, int]:
    return {"violations": [v.to_json() for v in report], **summarize(report), **extra}, 1 if report else 0


def _witness(w: EquivalenceWitness | None) -> list[str] | None:
    return [format_scalar(x) for x in w.wedge.coeffs] if w else None


# ---------------------------------------------------------------------------
# command handlers: each gets its inputs loaded and returns (document, exit code)


def cmd_lts_verify(args) -> tuple[dict, int]:
    return _report(verify_lts(args.algebra))


def cmd_lts_center(args) -> tuple[dict, int]:
    return fileio.subspace_to_json(center(args.algebra)), 0


def cmd_lts_derived(args) -> tuple[dict, int]:
    return fileio.subspace_to_json(derived_algebra(args.algebra)), 0


def cmd_lts_subsystem(args) -> tuple[dict, int]:
    L, S = args.algebra, args.span
    abelian = is_abelian_subsystem(L, S)
    # an abelian subsystem is a subsystem, so its brackets are read once
    return {"is_subsystem": abelian or is_subsystem(L, S), "is_abelian_subsystem": abelian}, 0


def cmd_rep_verify(args) -> tuple[dict, int]:
    return _report(verify_representation(args.representation))


def cmd_rep_adjoint(args) -> tuple[dict, int]:
    return fileio.representation_to_json(adjoint_representation(args.algebra)), 0


def cmd_rep_action(args) -> tuple[dict, int]:
    return _report(verify_action(args.action))


def cmd_sd_build(args) -> tuple[dict, int]:
    return fileio.algebra_to_json(semidirect_product(args.action, parse_scalar(args.weight))), 0


def cmd_rbo_check(args) -> tuple[dict, int]:
    rbo = args.operator
    if args.all_weights:
        return _report(check_rbo_all_weights(rbo.action, rbo.T))
    return _report(check_rbo(rbo.action, rbo.weight, rbo.T))


def cmd_rbo_graph(args) -> tuple[dict, int]:
    rbo = args.operator
    graph = graph_subsystem(rbo)
    return {
        "graph": fileio.subspace_to_json(graph),
        "is_subsystem": is_subsystem(semidirect_product(rbo.action, rbo.weight), graph),
    }, 0


def cmd_rbo_descendent(args) -> tuple[dict, int]:
    return fileio.algebra_to_json(descendent_lts(args.operator)), 0


def cmd_rbo_nijenhuis(args) -> tuple[dict, int]:
    rbo = args.operator
    lift = nijenhuis_lift(rbo.action, rbo.T)
    report = nijenhuis_check(semidirect_product(rbo.action, rbo.weight), lift)
    return _report(report, lift=fileio.matrix_to_json(lift))


def cmd_rbo_hom(args) -> tuple[dict, int]:
    return _report(check_rbo_homomorphism(args.homomorphism))


def cmd_rbo_equivalence(args) -> tuple[dict, int]:
    rbo = args.operator
    result = equivalence_sweep(rbo.action, rbo.weight, trials=args.trials, seed=args.seed)
    return result, 0 if result["counterexamples"] == 0 else 1


def cmd_coh_group(args) -> tuple[dict, int]:
    result = cohomology_group(args.operator, args.degree)
    data = {
        "degree": result.degree,
        "dim_Z": result.dim_cocycles,
        "dim_B": result.dim_coboundaries,
        "dim_H": result.dim_H,
    }
    if result.sign_convention is not None:
        data["sign_convention"] = result.sign_convention
        data["sign_audit"] = dict(result.sign_audit)
    return data, 0


def cmd_coh_cocycle(args) -> tuple[dict, int]:
    return _report(one_cocycle_check(args.operator, args.cochain))


def cmd_coh_coboundary(args) -> tuple[dict, int]:
    return fileio.cochain_to_json(OperatorComplex(args.operator).apply(args.cochain)), 0


def cmd_coh_map(args) -> tuple[dict, int]:
    return fileio.cochain_to_json(cochain_map_p(args.homomorphism, args.cochain)), 0


def cmd_coh_basis(args) -> tuple[dict, int]:
    basis = cochain_space_basis(
        args.degree, args.source_dim, args.target_dim,
        allow_degree_5=args.max_degree_override,
    )
    return {"degree": args.degree, "dim": basis.dim}, 0


def cmd_def_check(args) -> tuple[dict, int]:
    d = InfinitesimalDeformation(args.operator, args.direction)
    report = check_deformation(d)
    rules = {v.rule for v in report}
    # the order-t equation is the closedness identity of the direction
    cocycle = "order-t" not in rules
    return {
        "order_t": cocycle,
        "order_t2": "order-t2" not in rules,
        "order_t3": "order-t3" not in rules,
        "cocycle": cocycle,
        "violations": [v.to_json() for v in report],
        "class": [format_scalar(x) for x in deformation_cocycle_class(d)] if cocycle else None,
        "trivial_witness": None if report else _witness(is_trivial_deformation(d, strict=args.strict)),
    }, 1 if report else 0


def cmd_def_class(args) -> tuple[dict, int]:
    d = InfinitesimalDeformation(args.operator, args.direction)
    return {"class": [format_scalar(x) for x in deformation_cocycle_class(d)]}, 0


def cmd_def_equiv(args) -> tuple[dict, int]:
    d1 = InfinitesimalDeformation(args.operator, args.direction1)
    d2 = InfinitesimalDeformation(args.operator, args.direction2)
    if args.witness is not None:
        return _report(check_equivalence(d1, d2, EquivalenceWitness(args.witness), strict=args.strict))
    w = find_equivalence_witness(d1, d2, strict=args.strict)
    return {"equivalent": w is not None, "witness": _witness(w)}, 0


def cmd_def_trivial(args) -> tuple[dict, int]:
    w = is_trivial_deformation(InfinitesimalDeformation(args.operator, args.direction), strict=args.strict)
    return {"trivial": w is not None, "witness": _witness(w)}, 0


def cmd_fixtures_list(_args) -> tuple[dict, int]:
    return {"fixtures": list_fixtures()}, 0


def cmd_fixtures_path(args) -> tuple[dict, int]:
    return {"name": args.name, "path": str(fixture_path(args.name))}, 0


# ---------------------------------------------------------------------------
# parser

# Every command, once: (group, group help, its commands), each command
# as (name, handler, argument...) with the arguments in the order
# argparse lists them.  An argument is a bare flag or (flag, options).
_FLAG = {"action": "store_true"}
_STRICT = ("--strict", _FLAG)
COMMANDS = (
    ("lts", "structure-constant systems", (
        ("verify", cmd_lts_verify, "algebra"),
        ("center", cmd_lts_center, "algebra"),
        ("derived", cmd_lts_derived, "algebra"),
        ("subsystem", cmd_lts_subsystem, "algebra", "span"),
    )),
    ("rep", "representations and actions", (
        ("verify", cmd_rep_verify, "representation"),
        ("adjoint", cmd_rep_adjoint, "algebra"),
        ("action", cmd_rep_action, "action"),
    )),
    ("sd", "semidirect products", (
        ("build", cmd_sd_build, "action", ("--weight", {"required": True})),
    )),
    ("rbo", "relative Rota-Baxter operators", (
        ("check", cmd_rbo_check, "operator", "--weight", ("--all-weights", _FLAG)),
        ("graph", cmd_rbo_graph, "operator", "--weight"),
        ("descendent", cmd_rbo_descendent, "operator", "--weight"),
        ("nijenhuis", cmd_rbo_nijenhuis, "operator", "--weight"),
        ("hom", cmd_rbo_hom, "homomorphism"),
        ("equivalence", cmd_rbo_equivalence, "operator", "--weight",
         ("--trials", {"type": int, "default": 100}), ("--seed", {"type": int, "default": 20260808})),
    )),
    ("coh", "operator cohomology", (
        ("group", cmd_coh_group, "operator", "--weight",
         ("--degree", {"type": int, "required": True, "choices": (1, 3)})),
        ("cocycle", cmd_coh_cocycle, "operator", "cochain", "--weight"),
        ("coboundary", cmd_coh_coboundary, "operator", "cochain", "--weight"),
        ("map", cmd_coh_map, "homomorphism", "cochain"),
        ("basis", cmd_coh_basis,
         ("--degree", {"type": int, "required": True, "choices": (-1, 1, 3, 5)}),
         ("--source-dim", {"type": int, "required": True}), ("--target-dim", {"type": int, "required": True}),
         ("--max-degree-override", _FLAG)),
    )),
    ("def", "infinitesimal deformations", (
        ("check", cmd_def_check, "operator", "direction", "--weight", _STRICT),
        ("class", cmd_def_class, "operator", "direction", "--weight"),
        ("equiv", cmd_def_equiv, "operator", "direction1", "direction2", "--witness", "--weight", _STRICT),
        ("trivial", cmd_def_trivial, "operator", "direction", "--weight", _STRICT),
    )),
    ("fixtures", "bundled examples", (
        ("list", cmd_fixtures_list),
        ("path", cmd_fixtures_path, "name"),
    )),
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built from ``COMMANDS`` on the first call
    and shared by every later one: it depends on no input, and parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="triplekit",
        description="exact computations with Lie triple systems and relative Rota-Baxter operators",
    )
    groups = parser.add_subparsers(dest="command", required=True)
    for group, help_text, commands in COMMANDS:
        sub = groups.add_parser(group, help=help_text).add_subparsers(dest="subcommand", required=True)
        for name, handler, *arguments in commands:
            p = sub.add_parser(name)
            for argument in arguments:
                flag, options = (argument, {}) if isinstance(argument, str) else argument
                p.add_argument(flag, **options)
            p.set_defaults(handler=handler)
    return parser


def _attach_weight(argv) -> list[str]:
    """``argv`` with ``--weight -2/3`` written as ``--weight=-2/3``.

    argparse takes a word that starts with ``-`` for an option unless it
    reads as a negative integer or decimal, so a negative fraction after
    ``--weight``, or after an abbreviation such as ``--wei``, would leave
    the option without its value."""
    out: list[str] = []
    for word in argv:
        if (
            out and len(out[-1]) > 2 and "--weight".startswith(out[-1])
            and word[:1] == "-" and (word[1:2].isdigit() or word[1:2] == ".")
        ):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_weight(sys.argv[1:] if argv is None else argv))
    # the reader of each file argument, looked up on every run
    readers = dict(
        algebra=fileio.load_algebra, span=fileio.load_subspace, representation=fileio.load_representation,
        action=fileio.load_action, operator=fileio.load_rbo, homomorphism=fileio.load_homomorphism,
        cochain=fileio.load_cochain, direction=fileio.load_cochain, direction1=fileio.load_cochain,
        direction2=fileio.load_cochain, witness=fileio.load_cochain,
    )
    try:
        # the files in the order argparse lists them; an operator takes
        # --weight, when given, before the next file is read
        for name, path in list(vars(args).items()):
            if name in readers and path is not None:
                value = readers[name](path)
                if name == "operator" and args.weight is not None:
                    value = RelativeRBO(value.action, parse_scalar(args.weight), value.T)
                setattr(args, name, value)
        document, code = args.handler(args)
    except VerificationError as exc:
        document, code = {"error": str(exc), "kind": "verification"}, 1
    except (OSError, ValueError) as exc:
        document, code = {"error": str(exc), "kind": "input"}, 2
    sys.stdout.write(fileio.dump_json(document))
    return code


if __name__ == "__main__":
    sys.exit(main())
