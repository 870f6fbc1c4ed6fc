"""Batch command line front end.

Every command loads JSON inputs, delegates to the library and prints
one JSON document; no computation lives here.  Exit codes: 0 success,
1 a verification ran and found violations, 2 malformed input or usage.
Reports are printed with sorted keys and normalized scalars, so
identical inputs give byte-identical output.
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


def _emit(data) -> None:
    sys.stdout.write(fileio.dump_json(data))


def _report_result(report: Report, **extra) -> int:
    _emit({"violations": [v.to_json() for v in report], **summarize(report), **extra})
    return 1 if report else 0


def _witness(w: EquivalenceWitness | None) -> list[str] | None:
    return [format_scalar(x) for x in w.wedge.coeffs] if w else None


# ---------------------------------------------------------------------------
# command handlers


def cmd_lts_verify(args) -> int:
    return _report_result(verify_lts(fileio.load_algebra(args.algebra)))


def cmd_lts_center(args) -> int:
    _emit(fileio.subspace_to_json(center(fileio.load_algebra(args.algebra))))
    return 0


def cmd_lts_derived(args) -> int:
    _emit(fileio.subspace_to_json(derived_algebra(fileio.load_algebra(args.algebra))))
    return 0


def cmd_lts_subsystem(args) -> int:
    L = fileio.load_algebra(args.algebra)
    S = fileio.load_subspace(args.span)
    abelian = is_abelian_subsystem(L, S)
    # an abelian subsystem is a subsystem, so its brackets are read once
    _emit({"is_subsystem": abelian or is_subsystem(L, S), "is_abelian_subsystem": abelian})
    return 0


def cmd_rep_verify(args) -> int:
    return _report_result(verify_representation(fileio.load_representation(args.representation)))


def cmd_rep_adjoint(args) -> int:
    L = fileio.load_algebra(args.algebra)
    _emit(fileio.representation_to_json(adjoint_representation(L)))
    return 0


def cmd_rep_action(args) -> int:
    return _report_result(verify_action(fileio.load_action(args.action)))


def cmd_sd_build(args) -> int:
    action = fileio.load_action(args.action)
    product = semidirect_product(action, parse_scalar(args.weight))
    _emit(fileio.algebra_to_json(product))
    return 0


def cmd_rbo_check(args) -> int:
    rbo = args.rbo
    if args.all_weights:
        return _report_result(check_rbo_all_weights(rbo.action, rbo.T))
    return _report_result(check_rbo(rbo.action, rbo.weight, rbo.T))


def cmd_rbo_graph(args) -> int:
    rbo = args.rbo
    graph = graph_subsystem(rbo)
    _emit({
        "graph": fileio.subspace_to_json(graph),
        "is_subsystem": is_subsystem(semidirect_product(rbo.action, rbo.weight), graph),
    })
    return 0


def cmd_rbo_descendent(args) -> int:
    _emit(fileio.algebra_to_json(descendent_lts(args.rbo)))
    return 0


def cmd_rbo_nijenhuis(args) -> int:
    rbo = args.rbo
    lift = nijenhuis_lift(rbo.action, rbo.T)
    report = nijenhuis_check(semidirect_product(rbo.action, rbo.weight), lift)
    return _report_result(report, lift=fileio.matrix_to_json(lift))


def cmd_rbo_hom(args) -> int:
    return _report_result(check_rbo_homomorphism(fileio.load_homomorphism(args.homomorphism)))


def cmd_rbo_equivalence(args) -> int:
    result = equivalence_sweep(args.rbo.action, args.rbo.weight, trials=args.trials, seed=args.seed)
    _emit(result)
    return 0 if result["counterexamples"] == 0 else 1


def cmd_coh_group(args) -> int:
    result = cohomology_group(args.rbo, args.degree)
    data = {
        "degree": result.degree,
        "dim_Z": result.dim_cocycles,
        "dim_B": result.dim_coboundaries,
        "dim_H": result.dim_H,
    }
    if result.sign_convention is not None:
        data["sign_convention"] = result.sign_convention
        data["sign_audit"] = dict(result.sign_audit)
    _emit(data)
    return 0


def cmd_coh_cocycle(args) -> int:
    return _report_result(one_cocycle_check(args.rbo, fileio.load_cochain(args.cochain)))


def cmd_coh_coboundary(args) -> int:
    f = fileio.load_cochain(args.cochain)
    _emit(fileio.cochain_to_json(OperatorComplex(args.rbo).apply(f)))
    return 0


def cmd_coh_map(args) -> int:
    h = fileio.load_homomorphism(args.homomorphism)
    f = fileio.load_cochain(args.cochain)
    _emit(fileio.cochain_to_json(cochain_map_p(h, f)))
    return 0


def cmd_coh_basis(args) -> int:
    basis = cochain_space_basis(
        args.degree, args.source_dim, args.target_dim,
        allow_degree_5=args.max_degree_override,
    )
    _emit({"degree": args.degree, "dim": basis.dim})
    return 0


def _load_deformation(args) -> InfinitesimalDeformation:
    return InfinitesimalDeformation(args.rbo, fileio.load_cochain(args.direction))


def cmd_def_check(args) -> int:
    d = _load_deformation(args)
    report = check_deformation(d)
    rules = {v.rule for v in report}
    # the order-t equation is the closedness identity of the direction
    cocycle = "order-t" not in rules
    _emit({
        "order_t": cocycle,
        "order_t2": "order-t2" not in rules,
        "order_t3": "order-t3" not in rules,
        "cocycle": cocycle,
        "violations": [v.to_json() for v in report],
        "class": [format_scalar(x) for x in deformation_cocycle_class(d)] if cocycle else None,
        "trivial_witness": None if report else _witness(is_trivial_deformation(d, strict=args.strict)),
    })
    return 1 if report else 0


def cmd_def_class(args) -> int:
    d = _load_deformation(args)
    _emit({"class": [format_scalar(x) for x in deformation_cocycle_class(d)]})
    return 0


def cmd_def_equiv(args) -> int:
    d1 = InfinitesimalDeformation(args.rbo, fileio.load_cochain(args.direction1))
    d2 = InfinitesimalDeformation(args.rbo, fileio.load_cochain(args.direction2))
    if args.witness:
        w = EquivalenceWitness(fileio.load_cochain(args.witness))
        return _report_result(check_equivalence(d1, d2, w, strict=args.strict))
    w = find_equivalence_witness(d1, d2, strict=args.strict)
    _emit({"equivalent": w is not None, "witness": _witness(w)})
    return 0


def cmd_def_trivial(args) -> int:
    d = _load_deformation(args)
    w = is_trivial_deformation(d, strict=args.strict)
    _emit({"trivial": w is not None, "witness": _witness(w)})
    return 0


def cmd_fixtures_list(_args) -> int:
    _emit({"fixtures": list_fixtures()})
    return 0


def cmd_fixtures_path(args) -> int:
    _emit({"name": args.name, "path": str(fixture_path(args.name))})
    return 0


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
    try:
        # every operator command reads its operator, at --weight when
        # given, before any other input file
        if "operator" in vars(args):
            rbo = fileio.load_rbo(args.operator)
            if args.weight is not None:
                rbo = RelativeRBO(rbo.action, parse_scalar(args.weight), rbo.T)
            args.rbo = rbo
        return args.handler(args)
    except VerificationError as exc:
        _emit({"error": str(exc), "kind": "verification"})
        return 1
    except (OSError, ValueError) as exc:
        _emit({"error": str(exc), "kind": "input"})
        return 2


if __name__ == "__main__":
    sys.exit(main())
