"""The input contract: every public callable refuses a bad argument with an InputError subclass.

``CONTRACT`` names every public callable of the package, each callable in
``nilenv.__all__`` and each public method of ``FiniteGroup``, ``ElementSet``
and ``Subgroup``, with one row per parameter that takes an element index,
an element mask, or a second argument that carries a group.  A row holds
the parameter's kind and a call ``call(G, value)`` that passes ``value``
there and valid arguments everywhere else; a group row may name the valid
value, else the whole group.  Callables with no such parameter have no rows.

Each row runs on ``symmetric(3)``.  It first makes the call on a valid
neighbour, so its memo entries exist: 1 for an index or a mask, which
``True`` and ``1.0`` hash like.  Then each bad value must raise:
- an index: ``True``, ``1.0``, the order and -1, raising
  :class:`MalformedInputError`;
- a mask: ``True``, ``1.0``, ``1 << order`` and -1, raising
  :class:`MalformedInputError`;
- a group argument: the neighbour's mask in a second copy of the group, so
  it keys the neighbour's memo entries, and a subgroup of ``dihedral(3)``
  that is not normal, raising :class:`ParentMismatchError`.

The bad values are tried in that order: a call with a check missing
answers ``True`` from the neighbour's entry and fails the row at once,
before -1, on which an unchecked mask loop runs without end.

The checks are ``FiniteGroup._check_index``, ``FiniteGroup._check_mask``
and ``groups._check_same_group``, each call a statement of its own.
``guard_mutants.py`` beside this file replaces each such statement by
``pass`` in a copy of the package, and requires this file to fail.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import nilenv
from nilenv import (
    ElementSet,
    Failure,
    FiniteGroup,
    Subgroup,
    build_envelope,
    centralizer,
    check_centralizer_transfer,
    check_hall_bound,
    check_nested_towers,
    check_three_subgroup,
    closure,
    commutator_subgroup,
    dihedral,
    engel_iterate,
    envelope_of_normal,
    evaluate,
    from_spec,
    greedy_witness,
    hall_witt_products,
    iterated_centralizer,
    normal_closure,
    parse,
    product_set,
    replay_failure,
    sentence_holds,
    subgroup_from_dict,
)
from nilenv.errors import InputError, MalformedInputError, ParentMismatchError

SPEC = "symmetric(3)"
INDEX, MASK, GROUP = "index", "mask", "group"


def _trivial(G):
    return G.trivial_subgroup()


# callable -> {parameter: (kind, call(G, value)) or (GROUP, call, valid(G))}
CONTRACT: dict[str, dict[str, tuple]] = {
    "ElementSet": {"members": (MASK, lambda G, v: ElementSet(G, v))},
    "Subgroup": {"members": (MASK, lambda G, v: Subgroup(G, v))},
    "Subgroup.conjugate_by": {"g": (INDEX, lambda G, v: G.as_subgroup().conjugate_by(v))},
    "FiniteGroup.mul": {"a": (INDEX, lambda G, v: G.mul(v, 1)), "b": (INDEX, lambda G, v: G.mul(1, v))},
    "FiniteGroup.inv": {"a": (INDEX, lambda G, v: G.inv(v))},
    "FiniteGroup.conj": {"g": (INDEX, lambda G, v: G.conj(v, 1)), "h": (INDEX, lambda G, v: G.conj(1, v))},
    "FiniteGroup.comm": {"g": (INDEX, lambda G, v: G.comm(v, 1)), "h": (INDEX, lambda G, v: G.comm(1, v))},
    "FiniteGroup.element_centralizer_mask": {"g": (INDEX, lambda G, v: G.element_centralizer_mask(v))},
    "FiniteGroup.centralizer_mask": {"setmask": (MASK, lambda G, v: G.centralizer_mask(v))},
    "FiniteGroup.normalizer_mask": {"mask": (MASK, lambda G, v: G.normalizer_mask(v))},
    "FiniteGroup.conjugation": {"g": (INDEX, lambda G, v: G.conjugation(v))},
    "FiniteGroup.conjugate_mask": {
        "mask": (MASK, lambda G, v: G.conjugate_mask(v, 1)),
        "g": (INDEX, lambda G, v: G.conjugate_mask(1, v)),
    },
    "FiniteGroup.conjugate_masks": {
        "masks": (MASK, lambda G, v: G.conjugate_masks([1, v], 1)),
        "g": (INDEX, lambda G, v: G.conjugate_masks([1], v)),
    },
    "FiniteGroup.closure_mask": {"seedmask": (MASK, lambda G, v: G.closure_mask(v))},
    "FiniteGroup.subgroup": {"elements": (INDEX, lambda G, v: G.subgroup([*range(G.order), v]))},
    "FiniteGroup.subgroup_from_generators": {"generators": (INDEX, lambda G, v: G.subgroup_from_generators([v]))},
    "build_envelope": {"H": (GROUP, lambda G, v: build_envelope(G, v), _trivial)},
    "centralizer": {"within": (GROUP, lambda G, v: centralizer(ElementSet(G, 2), within=v))},
    "check_centralizer_transfer": {
        "small": (GROUP, lambda G, v: check_centralizer_transfer(G, v, G.as_subgroup(), 1), _trivial),
        "big": (GROUP, lambda G, v: check_centralizer_transfer(G, G.trivial_subgroup(), v, 1)),
    },
    "check_hall_bound": {"base": (GROUP, lambda G, v: check_hall_bound(G, v, 1, 1))},
    # n = 2 fails the hypothesis on this group, so the call returns before it builds the middle tower
    "check_nested_towers": {
        "mid": (GROUP, lambda G, v: check_nested_towers(G.trivial_subgroup(), v, G.as_subgroup(), 2)),
        "outer": (GROUP, lambda G, v: check_nested_towers(G.trivial_subgroup(), G.as_subgroup(), v, 2)),
    },
    "check_three_subgroup": {
        "second": (GROUP, lambda G, v: check_three_subgroup(G.as_subgroup(), v, G.as_subgroup(), G.as_subgroup())),
        "third": (GROUP, lambda G, v: check_three_subgroup(G.as_subgroup(), G.as_subgroup(), v, G.as_subgroup())),
        "inside": (GROUP, lambda G, v: check_three_subgroup(G.as_subgroup(), G.as_subgroup(), G.as_subgroup(), v)),
    },
    "closure": {"seed": (INDEX, lambda G, v: closure(G, [v]))},
    "commutator_subgroup": {"second": (GROUP, lambda G, v: commutator_subgroup(G.as_subgroup(), v))},
    "engel_iterate": {"g": (INDEX, lambda G, v: engel_iterate(G, v, 1)), "x": (INDEX, lambda G, v: engel_iterate(G, 1, v))},
    "envelope_of_normal": {"H": (GROUP, lambda G, v: envelope_of_normal(G, v), _trivial)},
    "evaluate": {"params": (INDEX, lambda G, v: evaluate(parse("x*p0 = p0*x"), G, (v,)))},
    "greedy_witness": {"within": (GROUP, lambda G, v: greedy_witness(ElementSet(G, G.full_mask), within=v))},
    "hall_witt_products": {
        "x": (INDEX, lambda G, v: hall_witt_products(G, v, 1, 1)),
        "y": (INDEX, lambda G, v: hall_witt_products(G, 1, v, 1)),
        "z": (INDEX, lambda G, v: hall_witt_products(G, 1, 1, v)),
    },
    "iterated_centralizer": {"base": (GROUP, lambda G, v: iterated_centralizer(G, v, 1))},
    "normal_closure": {"g": (INDEX, lambda G, v: normal_closure(G, v))},
    "product_set": {"second": (GROUP, lambda G, v: product_set(G.as_subgroup(), v))},
    "replay_failure": {
        "failure": (INDEX, lambda G, v: replay_failure(
            Failure("dimension", G.name, "", {"kind": "triple-law", "group": G.name, "subset": [v]})
        )),
    },
    "sentence_holds": {"params": (INDEX, lambda G, v: sentence_holds(parse("E x (x*p0 = p0*x)"), G, (v,)))},
    "subgroup_from_dict": {"data": (INDEX, lambda G, v: subgroup_from_dict(G, {"generators": [v]}))},
}
# callables with no row: no parameter takes an index, a mask or a second group-carrying
# argument (result records, errors, builders of whole groups, callables of one group or set)
NO_ROWS = (
    "ArityMismatchError", "CapExceededError", "CentralizerLattice", "ChainReport",
    "EnvelopeReport", "EnvelopeTrace", "EvaluationCostWarning", "Failure", "FiniteGroup",
    "FittingReport", "FormulaSyntaxError", "HypothesisError", "InputError",
    "InternalCheckError", "MalformedInputError", "NotASubgroupError", "NotNilpotentError",
    "NotNormalError", "ParentMismatchError", "Report", "SuiteConfig", "TowerLevel",
    "all_subgroups", "alternating", "bottom_chain_classify", "c_dimension",
    "centralizer_lattice", "cyclic", "dihedral", "dimension", "dimension_sentence",
    "direct_product", "emit_envelope_formula", "envelope_formula", "fitting",
    "format_formula", "free_variables", "from_spec", "group_from_dict", "group_to_dict",
    "load_group", "lower_central_series", "minimal_centralizer_above", "nilpotence_class",
    "normalizer", "p_core", "padded_parameters", "parse", "quantifier_depth", "quaternion",
    "run_suites", "sample_subgroups", "save_group", "subgroup_to_dict",
    "symmetric", "trace_to_dict", "unitriangular", "upper_central_series", "verify_envelope",
    "FiniteGroup.as_subgroup", "FiniteGroup.center", "FiniteGroup.center_mask",
    "FiniteGroup.conjugacy_classes", "FiniteGroup.element_centralizer_masks",
    "FiniteGroup.from_cayley_table", "FiniteGroup.from_permutations", "FiniteGroup.memo",
    "FiniteGroup.trivial_subgroup",
)
CONTRACT = {**dict.fromkeys(NO_ROWS, {}), **CONTRACT}


def _bad_values(kind: str, G: FiniteGroup, good):
    if kind == INDEX:
        return (True, 1.0, G.order, -1)
    if kind == MASK:
        return (True, 1.0, 1 << G.order, -1)
    other = dihedral(3)
    flip = next(S for g in range(other.order) if not (S := other.subgroup_from_generators([g])).is_normal)
    return (type(good)(from_spec.__wrapped__(SPEC), good.members), flip)


def public_callables() -> set[str]:
    """Each callable in ``nilenv.__all__``, and ``Class.method`` for each public method of the three set classes."""
    names = {name for name in nilenv.__all__ if callable(getattr(nilenv, name))}
    for cls in (FiniteGroup, ElementSet, Subgroup):
        names |= {f"{cls.__name__}.{m}" for m in dir(cls) if not m.startswith("_") and inspect.isroutine(getattr(cls, m))}
    return names


def test_every_public_callable_is_in_the_table():
    assert set(CONTRACT) == public_callables()


ROWS = [(name, param) for name, rows in CONTRACT.items() for param in rows]


@pytest.mark.parametrize("name, param", ROWS)
def test_bad_argument_raises_an_input_error(name, param):
    kind, call, *valid = CONTRACT[name][param]
    G = from_spec(SPEC)
    good = 1 if kind != GROUP else (valid[0] if valid else FiniteGroup.as_subgroup)(G)
    error = ParentMismatchError if kind == GROUP else MalformedInputError
    assert issubclass(error, InputError)
    call(G, good)
    for bad in _bad_values(kind, G, good):
        with pytest.raises(error):
            call(G, bad)


CHECKS = ("_check_index", "_check_mask", "_check_same_group")
SRC = Path(__file__).resolve().parents[1] / "src" / "nilenv"


def _calls(tree) -> list[ast.Call]:
    """Every call of an argument check in ``tree``, as ``G._check_index(x)`` or ``_check_same_group(a, b)``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in CHECKS
    ]


def check_sites(src: Path = SRC) -> list[tuple[Path, ast.Expr]]:
    """(file, statement) of every statement that is one call of an argument check, in line order."""
    sites = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {id(call) for call in _calls(tree)}
        sites += [(path, node) for node in ast.walk(tree) if isinstance(node, ast.Expr) and id(node.value) in calls]
    return sorted(sites, key=lambda site: (site[0], site[1].lineno))


def test_every_argument_check_is_a_statement():
    calls = sum(len(_calls(ast.parse(path.read_text(encoding="utf-8")))) for path in SRC.glob("*.py"))
    assert len(check_sites()) == calls > 0


def test_contains_answers_false_for_a_bool_or_a_non_integer():
    G = from_spec(SPEC)
    S = G.as_subgroup()
    assert 1 in S and 5 in S and 1 in ElementSet(G, 2)
    for x in (True, False, 1.0, -1, G.order, "1", None):
        assert x not in S
