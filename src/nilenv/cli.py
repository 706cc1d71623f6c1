"""Command line front end.

Every subcommand takes ``--group`` as either a catalog spec such as
``dihedral(4)`` or a path to a JSON group file.  Where a subgroup is needed,
``--subgroup`` accepts a JSON subgroup file or a comma-separated list of
element indices.  Group, subgroup and formula files are read as UTF-8.
Known input problems print one line on stderr and exit with status 2;
internal consistency failures are bugs and crash loudly.

Every command is one entry of ``_COMMANDS``: its handler, help line and
options.  A call builds the parser of its own command only; a missing or
unknown command, or an argument that parser leaves over, goes to the parser
of all commands, so usage and error messages are those of the full parser.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields

from .catalog import from_spec
from .centralizers import c_dimension, centralizer_lattice
from .envelope import build_envelope, fitting, trace_to_dict
from .errors import CapExceededError, InputError, MalformedInputError
from .formula import emit_envelope_formula, evaluate, format_formula, free_variables, parse, sentence_holds, size
from .groups import FiniteGroup, Subgroup, load_group, read_json, read_text, subgroup_from_dict
from .series import lower_central_series, nilpotence_class, upper_central_series
from .suites import ALL_SUITES, SuiteConfig, run_suites

_KNOWN_ERRORS = (InputError, OSError)

# the most nodes ``--emit-formula`` prints: phi_{4,4} (1,397,181) is 4.4 MB of
# text, phi_{2,5} (2,921,517) would be 9.7 MB and phi_{2,6} 25 times that
_MAX_FORMULA_SIZE = 2_000_000


def _group_argument(token: str) -> FiniteGroup:
    """A group from a catalog spec or, if the token names a file, from JSON."""
    if os.path.exists(token):
        return load_group(token)
    return from_spec(token)


def _is_decimal(text: str) -> bool:
    """Whether ``text`` is ASCII decimal digits: int() also reads "1_0", "+1" and other scripts' digits."""
    return text.isascii() and text.isdigit()


def _indices(text: str) -> list[int]:
    out = []
    for match in re.finditer(r"[^,\s][^,]*", text):
        part = match[0].rstrip()
        if not _is_decimal(part):
            raise MalformedInputError(f"{part!r} is not an element index")
        try:
            out.append(int(part))
        except ValueError:  # past Python's limit on digits converted
            raise MalformedInputError(f"element index at position {match.start()} has too many digits") from None
    return out


def _subject(G: FiniteGroup, args) -> Subgroup:
    """What a command works on: the subgroup ``--subgroup`` gives, or the whole group without one.

    A given list, even an empty one, means the subgroup it generates.
    """
    if args.subgroup is None:
        return G.as_subgroup()
    if os.path.exists(args.subgroup):
        return subgroup_from_dict(G, read_json(args.subgroup))
    return G.subgroup_from_generators(_indices(args.subgroup))


def _element_list(elements) -> str:
    return "[" + ", ".join(str(e) for e in elements) + "]"


def _cmd_info(args) -> int:
    G = _group_argument(args.group)
    cls = nilpotence_class(G.as_subgroup())
    print(f"group: {G.name}")
    print(f"kind: {G.kind}")
    print(f"order: {G.order}")
    print(f"center order: {G.center().order}")
    print(f"abelian: {'yes' if G.is_abelian else 'no'}")
    print(f"nilpotence class: {cls if cls is not None else 'none'}")
    return 0


def _cmd_dim(args) -> int:
    G = _group_argument(args.group)
    S = _subject(G, args)
    report = c_dimension(centralizer_lattice(S))
    print(f"order: {S.order}")
    print(f"center order: {(S.members & G.centralizer_mask(S.members)).bit_count()}")
    print(f"dimension: {report.length}")
    print("witness chain:")
    for node, wit in zip(report.chain, report.witness_sets):
        print(f"  C({_element_list(wit.elements)}) has order {node.order}")
    return 0


def _cmd_series(args) -> int:
    G = _group_argument(args.group)
    P = _subject(G, args)
    lower = lower_central_series(P)
    upper = upper_central_series(P)
    cls = nilpotence_class(P)
    print(f"group: {G.name}")
    print(f"subject order: {P.order}")
    print("lower central series orders: " + " ".join(str(t.order) for t in lower))
    print("upper central series orders: " + " ".join(str(t.order) for t in upper))
    print(f"nilpotence class: {cls if cls is not None else 'none'}")
    return 0


def _cmd_envelope(args) -> int:
    G = _group_argument(args.group)
    H = _subject(G, args)
    trace = build_envelope(G, H)
    parameters = trace.parameters  # may refuse the group, before any output
    phi = emit_envelope_formula(trace) if args.emit_formula else None
    if phi is not None and size(phi) > _MAX_FORMULA_SIZE:
        raise CapExceededError(f"formula size {size(phi)} exceeds cap {_MAX_FORMULA_SIZE}")
    print(f"group: {G.name} (order {G.order})")
    print(f"subgroup order: {trace.original.order}")
    print(f"nilpotence class: {trace.nilpotence_class}")
    if trace.replaced.members != trace.original.members:
        print(f"replaced subgroup order: {trace.replaced.order}")
    print("tower:")
    for k, lvl in enumerate(trace.tower, 1):
        wits = ", ".join(str(w) for w in lvl.witnesses)
        print(f"  E_{k} order {lvl.subgroup.order} witnesses ({wits})")
    print(f"envelope order: {trace.envelope.order}")
    print("parameters: " + _element_list(parameters))
    if phi is not None:
        print("formula: " + format_formula(phi))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(trace_to_dict(trace), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"trace written to {args.trace}")
    return 0


def _cmd_fitting(args) -> int:
    G = _group_argument(args.group)
    report = fitting(G)
    print(f"group: {G.name} (order {G.order})")
    print(f"fitting subgroup order: {report.fitting.order}")
    print(f"generators: {_element_list(report.fitting.generators)}")
    print(f"by p-cores: order {report.fitting.order}")
    print(f"by envelope fixpoint: order {report.by_envelope.order}")
    print(f"by engel set: order {report.by_engel.order}")
    print(f"engel bound: {report.engel_bound_n}")
    print(f"nilpotence class: {nilpotence_class(report.fitting)}")
    return 0


def _cmd_eval(args) -> int:
    G = _group_argument(args.group)
    phi = parse(read_text(args.formula))
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
    lattice = centralizer_lattice(_subject(_group_argument(args.group), args))
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
    """The entries of a list split at commas outside brackets; empty text keeps the default."""
    entries, depth = [""], 0
    for char in text:
        depth += (char == "(") - (char == ")")
        if char == "," and depth <= 0:
            entries.append("")
        else:
            entries[-1] += char
    return tuple(e.strip() for e in entries if e.strip()) if text else None


def _verify_number(text: str, name: str) -> int:
    """A ``verify`` option's number: ASCII decimal digits after an optional "-"."""
    if not _is_decimal(text.removeprefix("-")):
        raise MalformedInputError(f"{name} must be a decimal integer, not {text!r}")
    try:
        return int(text)
    except ValueError:  # past Python's limit on digits converted
        raise MalformedInputError(f"{name} has too many digits") from None


def _cmd_verify(args) -> int:
    # every SuiteConfig field is a verify option of the same dest; unset ones
    # keep their defaults, and the seed arrives as text
    given = ((f.name, getattr(args, f.name)) for f in fields(SuiteConfig))
    config = SuiteConfig(**{k: _verify_number(v, k) if isinstance(v, str) else v for k, v in given if v is not None})
    extra = tuple(load_group(path) for path in args.group_file)
    report = run_suites(config, extra_groups=extra)
    print(report.format_text())
    return 0 if report.ok else 1


_GROUP = ("--group", dict(required=True, help="catalog spec like dihedral(4) or a path to a JSON group file"))
_SUBGROUP_HELP = "JSON subgroup file or comma-separated element indices"
_SUBGROUP = ("--subgroup", dict(help=_SUBGROUP_HELP))

# name: (handler, help line, its options in order as (flag, add_argument keywords))
_COMMANDS = {
    "info": (_cmd_info, "Order, center, and nilpotence class of a group.", (_GROUP,)),
    "dim": (_cmd_dim, "Centralizer dimension with a witness chain.", (_GROUP, _SUBGROUP)),
    "series": (_cmd_series, "Lower and upper central series.", (_GROUP, _SUBGROUP)),
    "envelope": (
        _cmd_envelope,
        "Definable envelope of a nilpotent subgroup.",
        (
            _GROUP,
            ("--subgroup", dict(required=True, help=_SUBGROUP_HELP)),
            ("--emit-formula", dict(action="store_true", help="also print the defining formula in concrete syntax")),
            ("--trace", dict(help="write the construction trace to this JSON file")),
        ),
    ),
    "fitting": (_cmd_fitting, "Fitting subgroup computed three independent ways.", (_GROUP,)),
    "eval": (
        _cmd_eval,
        "Evaluate a formula file over a group.",
        (
            _GROUP,
            ("--formula", dict(required=True, help="path to a formula in concrete syntax")),
            ("--params", dict(default="", help="comma-separated parameter element indices")),
        ),
    ),
    "lattice": (
        _cmd_lattice,
        "Centralizer lattice nodes and cover edges.",
        (_GROUP, _SUBGROUP, ("--dot", dict(action="store_true", help="emit DOT instead of text"))),
    ),
    "verify": (
        _cmd_verify,
        "Run the property suites and report failures.",
        (
            ("--suites", dict(type=_names, help=f"comma-separated subset of: {', '.join(ALL_SUITES)}")),
            ("--groups", dict(type=_names, help="comma-separated catalog specs (default: built-in catalog)")),
            (
                "--group-file",
                dict(action="append", default=[], help="JSON group file to test alongside the catalog (repeatable)"),
            ),
            ("--seed", dict(help="suite sampling seed")),
        ),
    ),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, in table order, or of the named one only."""
    parser = argparse.ArgumentParser(
        prog="nilenv",
        description="Finite group centralizer dimensions, definable envelopes, and property suites.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        if command in (None, name):
            p = subparsers.add_parser(name, help=help_text)
            for flag, keywords in options:
                p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the full parser reports what the command's own parser leaves over,
    # with a usage line that lists every command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args, rest = _build_parser(command).parse_known_args(argv) if command else (None, None)
    if args is None or rest:
        args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
