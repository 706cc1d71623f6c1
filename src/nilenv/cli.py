"""Command line front end.

Every subcommand takes ``--group`` as either a catalog spec such as
``dihedral(4)`` or a path to a JSON group file.  Where a subgroup is needed,
``--subgroup`` accepts a JSON subgroup file or a comma-separated list of
element indices.  Known input problems print one line on stderr and exit
with status 2; internal consistency failures are bugs and crash loudly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .catalog import from_spec
from .centralizers import c_dimension, centralizer_lattice
from .envelope import build_envelope, fitting, trace_to_dict
from .errors import (
    ArityMismatchError,
    CapExceededError,
    FormulaSyntaxError,
    HypothesisError,
    MalformedInputError,
    NotASubgroupError,
    NotNilpotentError,
    NotNormalError,
    ParentMismatchError,
    WitnessBoundError,
)
from .formula import emit_envelope_formula, evaluate, format_formula, free_variables, parse, sentence_holds
from .groups import MAX_ORDER, FiniteGroup, Subgroup, load_group, subgroup_from_dict
from .series import lower_central_series, nilpotence_class, upper_central_series
from .suites import ALL_SUITES, SuiteConfig, run_suites

_CAP_HELP = f"largest group order accepted when loading a file (at most {MAX_ORDER}, the default)"

_KNOWN_ERRORS = (
    ArityMismatchError,
    CapExceededError,
    FormulaSyntaxError,
    HypothesisError,
    MalformedInputError,
    NotASubgroupError,
    NotNilpotentError,
    NotNormalError,
    ParentMismatchError,
    WitnessBoundError,
    OSError,
)


def _group_argument(token: str, cap: int) -> FiniteGroup:
    """A group from a catalog spec or, if the token names a file, from JSON."""
    if os.path.exists(token):
        return load_group(token, order_cap=cap)
    return from_spec(token)


def _indices(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(int(part))
        except ValueError:
            raise MalformedInputError(f"{part!r} is not an element index") from None
    return out


def _subgroup_argument(G: FiniteGroup, token: str) -> Subgroup:
    if os.path.exists(token):
        with open(token, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MalformedInputError(f"{token} is not valid JSON: {exc}") from exc
        return subgroup_from_dict(G, data)
    return G.subgroup_from_generators(_indices(token))


def _element_list(elements) -> str:
    return "[" + ", ".join(str(e) for e in elements) + "]"


def _cmd_info(args) -> int:
    G = _group_argument(args.group, args.cap)
    cls = nilpotence_class(G.as_subgroup())
    print(f"group: {G.name}")
    print(f"kind: {G.kind}")
    print(f"order: {G.order}")
    print(f"center order: {G.center().order}")
    print(f"abelian: {'yes' if G.is_abelian else 'no'}")
    print(f"nilpotence class: {cls if cls is not None else 'none'}")
    return 0


def _cmd_dim(args) -> int:
    G = _group_argument(args.group, args.cap)
    if args.subgroup:
        ambient = _subgroup_argument(G, args.subgroup)
        order = ambient.order
        center = G.centralizer_mask(ambient.members, within=ambient.members).bit_count()
    else:
        ambient = G
        order = G.order
        center = G.center().order
    report = c_dimension(centralizer_lattice(ambient))
    print(f"order: {order}")
    print(f"center order: {center}")
    print(f"dimension: {report.length}")
    print("witness chain:")
    for node, wit in zip(report.chain, report.witness_sets):
        print(f"  C({_element_list(wit.elements)}) has order {node.order}")
    return 0


def _cmd_series(args) -> int:
    G = _group_argument(args.group, args.cap)
    if args.subgroup:
        P = _subgroup_argument(G, args.subgroup)
    else:
        P = G.as_subgroup()
    lower = lower_central_series(P)
    upper = upper_central_series(P)
    cls = nilpotence_class(P)
    print(f"group: {G.name}")
    print(f"subject order: {P.order}")
    print("lower central series orders: " + " ".join(str(t.order) for t in lower.terms))
    print("upper central series orders: " + " ".join(str(t.order) for t in upper.terms))
    print(f"nilpotence class: {cls if cls is not None else 'none'}")
    return 0


def _cmd_envelope(args) -> int:
    G = _group_argument(args.group, args.cap)
    H = _subgroup_argument(G, args.subgroup)
    trace = build_envelope(G, H)
    print(f"group: {G.name} (order {G.order})")
    print(f"subgroup order: {trace.original.order}")
    print(f"nilpotence class: {trace.nilpotence_class}")
    if trace.replaced.members != trace.original.members:
        print(f"replaced subgroup order: {trace.replaced.order}")
    print("tower:")
    for lvl in trace.tower:
        wits = ", ".join(str(w) for w in lvl.witnesses)
        print(f"  E_{lvl.level} order {lvl.subgroup.order} witnesses ({wits})")
    print(f"envelope order: {trace.envelope.order}")
    print("parameters: " + _element_list(trace.parameters))
    if args.emit_formula:
        print("formula: " + format_formula(emit_envelope_formula(trace)))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(trace_to_dict(trace), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"trace written to {args.trace}")
    return 0


def _cmd_fitting(args) -> int:
    G = _group_argument(args.group, args.cap)
    report = fitting(G)
    print(f"group: {G.name} (order {G.order})")
    print(f"fitting subgroup order: {report.fitting.order}")
    print(f"generators: {_element_list(report.fitting.generators)}")
    print(f"by p-cores: order {report.by_op_cores.order}")
    print(f"by envelope fixpoint: order {report.by_envelope.order}")
    print(f"by engel set: order {report.by_engel.order}")
    print(f"engel bound: {report.engel_bound_n}")
    print(f"nilpotence class: {nilpotence_class(report.fitting)}")
    return 0


def _cmd_eval(args) -> int:
    G = _group_argument(args.group, args.cap)
    with open(args.formula, encoding="utf-8") as fh:
        text = fh.read()
    phi = parse(text)
    params = tuple(_indices(args.params))
    if free_variables(phi):
        result = evaluate(phi, G, params)
        elems = result.elements
        print(f"solutions: {len(elems)}")
        print(_element_list(elems))
    else:
        print(f"holds: {'yes' if sentence_holds(phi, G, params) else 'no'}")
    return 0


def _cmd_lattice(args) -> int:
    G = _group_argument(args.group, args.cap)
    if args.subgroup:
        ambient = _subgroup_argument(G, args.subgroup)
    else:
        ambient = G
    lattice = centralizer_lattice(ambient)
    if args.dot:
        print(lattice.to_dot())
        return 0
    print(f"nodes: {len(lattice)}")
    for i, (node, wit) in enumerate(zip(lattice.nodes, lattice.witnesses)):
        print(f"  C{i}: order {node.order} = C({_element_list(wit.elements)})")
    edges = lattice.hasse_edges()
    print("cover edges: " + " ".join(f"{i}>{j}" for i, j in edges))
    return 0


def _names(text: str) -> tuple[str, ...] | None:
    """The entries of a comma-separated list; empty text keeps the default."""
    return tuple(s.strip() for s in text.split(",") if s.strip()) if text else None


def _cmd_verify(args) -> int:
    # every SuiteConfig field is a verify option of the same dest; unset ones keep their defaults
    given = {f.name: getattr(args, f.name) for f in fields(SuiteConfig)}
    config = SuiteConfig(**{name: value for name, value in given.items() if value is not None})
    extra = tuple(load_group(path, order_cap=args.cap) for path in args.group_file)
    report = run_suites(config, extra_groups=extra)
    print(report.format_text())
    return 0 if report.ok else 1


_HANDLERS = {
    "info": _cmd_info,
    "dim": _cmd_dim,
    "series": _cmd_series,
    "envelope": _cmd_envelope,
    "fitting": _cmd_fitting,
    "eval": _cmd_eval,
    "lattice": _cmd_lattice,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilenv",
        description="Finite group centralizer dimensions, definable envelopes, and property suites.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text, *, subgroup=False, subgroup_required=False):
        p = subparsers.add_parser(name, help=help_text)
        p.add_argument(
            "--group",
            required=True,
            help="catalog spec like dihedral(4) or a path to a JSON group file",
        )
        if subgroup:
            p.add_argument(
                "--subgroup",
                required=subgroup_required,
                help="JSON subgroup file or comma-separated element indices",
            )
        p.add_argument("--cap", type=int, default=MAX_ORDER, help=_CAP_HELP)
        return p

    add_command("info", "Order, center, and nilpotence class of a group.")
    add_command("dim", "Centralizer dimension with a witness chain.", subgroup=True)
    add_command("series", "Lower and upper central series.", subgroup=True)
    envelope_p = add_command(
        "envelope",
        "Definable envelope of a nilpotent subgroup.",
        subgroup=True,
        subgroup_required=True,
    )
    envelope_p.add_argument(
        "--emit-formula",
        action="store_true",
        help="also print the defining formula in concrete syntax",
    )
    envelope_p.add_argument("--trace", help="write the construction trace to this JSON file")
    add_command("fitting", "Fitting subgroup computed three independent ways.")
    eval_p = add_command("eval", "Evaluate a formula file over a group.")
    eval_p.add_argument("--formula", required=True, help="path to a formula in concrete syntax")
    eval_p.add_argument("--params", default="", help="comma-separated parameter element indices")
    lattice_p = add_command("lattice", "Centralizer lattice nodes and cover edges.", subgroup=True)
    lattice_p.add_argument("--dot", action="store_true", help="emit DOT instead of text")

    verify_p = subparsers.add_parser("verify", help="Run the property suites and report failures.")
    verify_p.add_argument(
        "--suites", type=_names, help=f"comma-separated subset of: {', '.join(ALL_SUITES)}"
    )
    verify_p.add_argument(
        "--groups", type=_names, help="comma-separated catalog specs (default: built-in catalog)"
    )
    verify_p.add_argument(
        "--group-file",
        action="append",
        default=[],
        help="JSON group file to test alongside the catalog (repeatable)",
    )
    verify_p.add_argument("--seed", type=int, default=0, help="suite sampling seed")
    verify_p.add_argument("--cap", type=int, default=MAX_ORDER, help=_CAP_HELP)
    verify_p.add_argument(
        "--samples",
        type=int,
        dest="samples_per_group",
        metavar="SAMPLES",
        help="random subsets per group for sampled suites",
    )
    verify_p.add_argument(
        "--max-exhaustive-order",
        type=int,
        help="largest order for exhaustive subgroup enumeration",
    )
    verify_p.add_argument(
        "--triples", type=int, dest="hallwitt_triples", metavar="TRIPLES", help="Hall-Witt triples per group"
    )
    verify_p.add_argument("--threesubgroup-target", type=int, help="three-subgroup quadruple quota")
    verify_p.add_argument("--bryant-target", type=int, help="centralizer transfer sample quota")
    verify_p.add_argument("--nested-target", type=int, help="nested tower sample quota")
    verify_p.add_argument("--envelope-samples", type=int, help="sampled subgroups per non-exhaustive group")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
