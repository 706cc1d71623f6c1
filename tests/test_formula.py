"""Formula syntax, evaluation semantics, and the uniform definability emitters."""

from __future__ import annotations

import copy
import functools
import gc
import hashlib
import pickle
import random
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilenv.formula as formula_module
from nilenv.catalog import alternating, cyclic, dihedral, from_spec, quaternion, symmetric, unitriangular
from nilenv.centralizers import dimension
from nilenv.envelope import build_envelope, padded_parameters
from nilenv.errors import ArityMismatchError, FormulaSyntaxError, MalformedInputError
from nilenv.formula import (
    MAX_DEPTH,
    And,
    Eq,
    EvaluationCostWarning,
    Exists,
    ForAll,
    Inv,
    Mul,
    Not,
    One,
    Or,
    Param,
    Var,
    commutator,
    cost_estimate,
    dimension_sentence,
    emit_envelope_formula,
    envelope_formula,
    evaluate,
    format_formula,
    free_variables,
    max_parameter,
    parse,
    quantifier_depth,
    sentence_holds,
    size,
)
from nilenv.groups import closure
from nilenv.series import nilpotence_class


def brute_term(node, G, env, params):
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Param):
        return params[node.index]
    if isinstance(node, One):
        return 0
    if isinstance(node, Mul):
        return G.mul(brute_term(node.left, G, env, params), brute_term(node.right, G, env, params))
    return G.inv(brute_term(node.operand, G, env, params))


def brute_eval(node, G, env, params):
    """Reference semantics: plain recursion, no caching, no rewriting."""
    if isinstance(node, Eq):
        return brute_term(node.left, G, env, params) == brute_term(node.right, G, env, params)
    if isinstance(node, And):
        return brute_eval(node.left, G, env, params) and brute_eval(node.right, G, env, params)
    if isinstance(node, Or):
        return brute_eval(node.left, G, env, params) or brute_eval(node.right, G, env, params)
    if isinstance(node, Not):
        return not brute_eval(node.operand, G, env, params)
    if isinstance(node, ForAll):
        return all(brute_eval(node.body, G, {**env, node.var: g}, params) for g in range(G.order))
    return any(brute_eval(node.body, G, {**env, node.var: g}, params) for g in range(G.order))


ROUND_TRIP_TEXTS = [
    "x = 1",
    "x*p0 = p0*x",
    "x*p0 = p0*x & x*p1 = p1*x",
    "!(x = 1) | x = 1",
    "A y (x*y = y*x)",
    "E y (A z (y*z*y^-1 = z))",
    "[x, p3] = 1",
    "(x*p0)^-1 = p0^-1*x^-1",
    "A w (!(w = x) | w*w = 1)",
    "x*(p0*p1) = (x*p0)*p1",
    "1 = 1",
]


def test_parse_format_round_trip():
    for text in ROUND_TRIP_TEXTS:
        tree = parse(text)
        printed = format_formula(tree)
        assert parse(printed) == tree


def test_round_trip_of_generated_formulas():
    for d, n in [(1, 0), (1, 1), (3, 1), (2, 2), (1, 3), (2, 3)]:
        phi = envelope_formula(d, n)
        assert parse(format_formula(phi)) == phi
    for d in (1, 2, 3):
        sigma = dimension_sentence(d)
        assert parse(format_formula(sigma)) == sigma


def test_commutator_desugars_left_nested():
    tree = parse("[a, b] = 1")
    a, b = Var("a"), Var("b")
    assert tree.left == Mul(Mul(Mul(Inv(a), Inv(b)), a), b)
    assert tree.left == commutator(a, b)
    assert tree.right == One()


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError) as excinfo:
        parse("x = $")
    assert excinfo.value.position == 4
    assert "(at position 4)" in str(excinfo.value)

    with pytest.raises(FormulaSyntaxError):
        parse("x =")
    with pytest.raises(FormulaSyntaxError):
        parse("(x = 1")
    with pytest.raises(FormulaSyntaxError):
        parse("x = 1 stray")
    with pytest.raises(FormulaSyntaxError):
        parse("[x, = 1")
    with pytest.raises(FormulaSyntaxError):
        parse("A (x = 1)")
    with pytest.raises(FormulaSyntaxError):
        parse("")


@pytest.mark.parametrize(
    "text_of_depth",
    [
        lambda k: "!" * (k - 2) + "x = x",
        lambda k: "*".join(["x"] * (k - 1)) + " = x",
        lambda k: "x" + "^-1" * (k - 2) + " = x",
        lambda k: "x = x" + " & x = x" * (k - 2),
        lambda k: "E y (" * (k - 2) + "x = y" + ")" * (k - 2),
        # k brackets open at once around a tree two nodes deep
        lambda k: "(" * k + "x = x" + ")" * k,
        lambda k: "(" * k + "x" + ")" * k + " = x",
    ],
    ids=["negations", "product", "inverses", "conjunction", "quantifiers", "formula-brackets", "term-brackets"],
)
def test_parse_refuses_formulas_deeper_than_max_depth(text_of_depth):
    # the deepest accepted formula still parses, prints, compares and evaluates
    # inside the default recursion limit
    deepest = parse(text_of_depth(MAX_DEPTH))
    assert parse(format_formula(deepest)) == deepest
    assert evaluate(deepest, from_spec("cyclic(2)")).members == 0b11
    with pytest.raises(FormulaSyntaxError, match=f"formula nested deeper than {MAX_DEPTH} levels"):
        parse(text_of_depth(MAX_DEPTH + 1))


def test_tokens_outside_ascii():
    # identifiers start with a letter or "_" and go on with letters, digits
    # and "_"; a parameter slot is "p" and ASCII digits, so "p٣" and "p²"
    # are identifiers
    assert parse("é*p٣ = x²_1") == Eq(Mul(Var("é"), Var("p٣")), Var("x²_1"))
    assert parse("p² = 1") == Eq(Var("p²"), One())
    with pytest.raises(FormulaSyntaxError, match=r"unexpected character '٣' \(at position 2\)"):
        parse("p3٣ = 1")
    for text in ("x = ²", "x = 2", "x = ٣"):
        with pytest.raises(FormulaSyntaxError) as excinfo:
            parse(text)
        assert excinfo.value.position == 4
        assert f"unexpected character {text[4]!r}" in str(excinfo.value)


def test_format_precedence():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert format_formula(Eq(Mul(Mul(a, b), c), One())) == "a*b*c = 1"
    assert format_formula(Eq(Mul(a, Mul(b, c)), One())) == "a*(b*c) = 1"
    assert format_formula(Eq(Inv(Mul(a, b)), One())) == "(a*b)^-1 = 1"
    assert format_formula(Eq(Inv(Inv(a)), One())) == "a^-1^-1 = 1"
    assert format_formula(Or(And(Eq(a, One()), Eq(b, One())), Eq(c, One()))) == "a = 1 & b = 1 | c = 1"
    assert format_formula(And(Or(Eq(a, One()), Eq(b, One())), Eq(c, One()))) == "(a = 1 | b = 1) & c = 1"
    assert format_formula(Not(Eq(a, b))) == "!a = b"
    assert parse("!a = b") == Not(Eq(a, b))
    assert format_formula(Not(And(Eq(a, b), Eq(b, c)))) == "!(a = b & b = c)"
    assert format_formula(ForAll("y", Eq(a, b))) == "A y (a = b)"


def test_quantifier_spelling_needs_following_identifier():
    tree = parse("A = 1")
    assert tree == Eq(Var("A"), One())
    tree = parse("E y (E = y)")
    assert tree == Exists("y", Eq(Var("E"), Var("y")))


@pytest.mark.parametrize(
    "text",
    [
        "x = y = z",
        "(x = y)*z = w",
        "A y (x)",
        "[x = y, z] = 1",
        "x",
        "!x",
        "(x = y)^-1 = 1",
        "x * A y (y = y) = 1",
    ],
)
def test_operands_of_the_wrong_kind_are_refused(text):
    with pytest.raises(FormulaSyntaxError):
        parse(text)


@pytest.mark.parametrize(
    "text, tree",
    [
        ("(x)*y = z", Eq(Mul(Var("x"), Var("y")), Var("z"))),
        ("((x = y))", Eq(Var("x"), Var("y"))),
        ("!(x = y) & z = w", And(Not(Eq(Var("x"), Var("y"))), Eq(Var("z"), Var("w")))),
        ("!x*y = y*x", Not(Eq(Mul(Var("x"), Var("y")), Mul(Var("y"), Var("x"))))),
    ],
)
def test_brackets_hold_either_kind(text, tree):
    assert parse(text) == tree


def test_evaluator_matches_brute_force():
    battery = [
        ("x*p0 = p0*x", 1),
        ("[x, p0] = 1 & !(x = 1)", 1),
        ("A y (x*y = y*x)", 0),
        ("E y (x = y*y)", 0),
        ("E y (!(y = 1) & [x, y] = 1)", 0),
        ("A y (E z (x*y*z = z*y*x))", 0),
        ("A w (!(w = x*p0) | w*w = 1)", 1),
        # renamed copies, which the evaluator's shape-keyed caches share
        ("A y (x*y = y*x) & A z (x*z = z*x)", 0),
        ("A y (A y (x*y = y*x))", 0),
        ("x = p0 | E y (A x (x*y = y*x))", 1),
        ("A y ([y, x] = 1) | A z ([z, x] = 1 & z = x)", 0),
        ("E y (y = x & A z (z*y = y*z)) & E z (z*p0 = x & A y (y*z = z*y))", 1),
        # equal child shapes, different variable positions
        ("A y (x*y = y) & A z (x*z = x)", 0),
        ("E y (x = y*y) & A y (E x (x = y*y))", 0),
    ]
    rng = random.Random(59)
    for G in (symmetric(3), dihedral(4), quaternion()):
        for text, arity in battery:
            tree = parse(text)
            params = tuple(rng.randrange(G.order) for _ in range(arity))
            got = evaluate(tree, G, params)
            expected = [g for g in range(G.order) if brute_eval(tree, G, {"x": g}, params)]
            assert got.elements == tuple(expected), (text, G.name)


_NAMES = ("x", "y", "z")


def _terms_over(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(st.builds(Mul, sub, sub), st.builds(Inv, sub)),
        max_leaves=3,
    )


_terms = _terms_over([Var(v) for v in _NAMES] + [Param(0)])


def _rewire(node, rename):
    """A copy with every variable name, bound or free, passed through ``rename``."""
    if isinstance(node, Var):
        return Var(rename(node.name))
    if isinstance(node, (ForAll, Exists)):
        return type(node)(rename(node.var), _rewire(node.body, rename))
    if isinstance(node, (Mul, Eq, And, Or)):
        return type(node)(_rewire(node.left, rename), _rewire(node.right, rename))
    if isinstance(node, (Inv, Not)):
        return type(node)(_rewire(node.operand, rename))
    return node


def _renamed_copy(node, image, everywhere):
    # renamed everywhere, the copy has the same shape but maybe another free
    # variable; renamed in the right operand of its topmost connective or
    # equation only, it has the same child shapes there but other positions
    rename = dict(zip(_NAMES, image)).__getitem__
    if everywhere:
        return _rewire(node, rename)
    if isinstance(node, (ForAll, Exists)):
        return type(node)(node.var, _renamed_copy(node.body, image, everywhere))
    if isinstance(node, Not):
        return Not(_renamed_copy(node.operand, image, everywhere))
    return type(node)(node.left, _rewire(node.right, rename))


def _formulas_over(terms, names):
    return st.recursive(
        st.builds(Eq, terms, terms),
        lambda sub: st.one_of(
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Not, sub),
            st.builds(ForAll, st.sampled_from(names), sub),
            st.builds(Exists, st.sampled_from(names), sub),
        ),
        max_leaves=5,
    )


_formulas = _formulas_over(_terms, _NAMES)


# the same shapes, with the identity and variables named like the quantifiers among the leaves
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    _formulas_over(
        _terms_over([Var(v) for v in _NAMES + ("A", "E")] + [Param(0), Param(12), One()]),
        _NAMES + ("A", "E"),
    )
)
def test_random_formulas_round_trip(formula):
    assert parse(format_formula(formula)) == formula


def _close(formula, names, universal):
    for i, v in enumerate(sorted(names)):
        formula = ForAll(v, formula) if universal ^ (i % 2 == 1) else Exists(v, formula)
    return formula


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    _formulas,
    st.lists(st.tuples(st.permutations(_NAMES), st.booleans()), min_size=1, max_size=2),
    st.booleans(),
    st.integers(min_value=0),
)
def test_random_formulas_with_reused_names_match_brute_force(formula, renamings, universal, seed):
    # the symmetric difference of the copies' solution sets shows any copy
    # that wrongly shares another's cache entry
    copies = [formula] + [_renamed_copy(formula, *renaming) for renaming in renamings]
    closed = [_close(c, free_variables(c) - {"x"}, universal) for c in copies]
    open_in_x = closed[0]
    for c in closed[1:]:
        open_in_x = Or(And(open_in_x, Not(c)), And(Not(open_in_x), c))
    sentence = _close(open_in_x, free_variables(open_in_x), not universal)
    for G in (symmetric(3), quaternion()):
        params = (seed % G.order,) if max_parameter(open_in_x) == 0 else ()
        got = evaluate(open_in_x, G, params)
        expected = [g for g in range(G.order) if brute_eval(open_in_x, G, {"x": g}, params)]
        assert got.elements == tuple(expected)
        assert sentence_holds(sentence, G, params) == brute_eval(sentence, G, {}, params)


_guard_terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("z"), Param(0), One()]),
    lambda sub: st.one_of(st.builds(Mul, sub, sub), st.builds(Inv, sub)),
    max_leaves=3,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_guard_terms, _formulas, st.booleans(), st.integers(min_value=0))
def test_guarded_quantifiers_match_brute_force(t, body, universal, seed):
    # the evaluator gathers body at z := t, unless z is free in t, where the
    # quantifier is no guard
    guarded = ForAll("z", Or(Not(Eq(Var("z"), t)), body))
    # the conjunct keeps x free where the guarded formula lacks it
    for open_in_x in (guarded, And(Eq(Var("x"), Var("x")), guarded)):
        open_in_x = _close(open_in_x, free_variables(open_in_x) - {"x"}, universal)
        for G in (symmetric(3), quaternion()):
            params = (seed % G.order,) if max_parameter(open_in_x) == 0 else ()
            got = evaluate(open_in_x, G, params)
            expected = [g for g in range(G.order) if brute_eval(open_in_x, G, {"x": g}, params)]
            assert got.elements == tuple(expected)


def test_closed_formulas_match_brute_force():
    sentences = [
        "A x (A y (x*y = y*x))",
        "E x (!(x = 1) & x*x = 1)",
        "A x (E y (y*y = x))",
    ]
    for G in (symmetric(3), quaternion(), dihedral(6)):
        for text in sentences:
            tree = parse(text)
            assert sentence_holds(tree, G) == brute_eval(tree, G, {}, ())


def test_evaluate_without_free_variable_returns_all_or_nothing():
    G = dihedral(4)
    everything = evaluate(parse("1 = 1"), G)
    assert everything.members == G.full_mask
    nothing = evaluate(parse("!(1 = 1)"), G)
    assert nothing.members == 0


def test_evaluate_centralizer_formula():
    rng = random.Random(61)
    tree = parse("x*p0 = p0*x")
    for G in (symmetric(4), unitriangular(3)):
        for _ in range(8):
            p = rng.randrange(G.order)
            assert evaluate(tree, G, (p,)).members == G.element_centralizer_mask(p)


def _count_shape_passes(monkeypatch) -> list:
    passes = []
    init = formula_module._Shapes.__init__

    def counting(self):
        passes.append(self)
        init(self)

    monkeypatch.setattr(formula_module._Shapes, "__init__", counting)
    return passes


def test_one_shape_pass_per_formula(monkeypatch):
    passes = _count_shape_passes(monkeypatch)
    tree = parse("x*p0 = p0*x")
    sentence = parse("E x (!(x = 1) & x*x = 1)")
    for G in (symmetric(4), dihedral(4)):
        for p in (5, 7, 5):
            assert evaluate(tree, G, (p,)).members == G.element_centralizer_mask(p)
        assert sentence_holds(sentence, G)
        assert evaluate(sentence, G).members == G.full_mask
    assert free_variables(tree) == frozenset({"x"})
    assert free_variables(sentence) == frozenset()
    assert size(tree) == 7 and size(sentence) == 11
    # shapes x, p0, x*p0, p0*x and the equation, of widths 1, 0, 1, 1, 1
    assert cost_estimate(tree, dihedral(4)) == 4 * 8 + 1
    # the pass belongs to the formula object, whichever group or function asks
    assert len(passes) == 2


def test_sentence_holds_shares_the_shape_pass(monkeypatch):
    passes = _count_shape_passes(monkeypatch)
    G = quaternion()
    tree = parse("E x (!(x = 1) & x*x = 1)")
    assert evaluate(tree, G).members == G.full_mask
    assert sentence_holds(tree, G)
    assert sentence_holds(tree, G)
    assert len(passes) == 1


def test_equal_formulas_keep_their_own_shape_passes():
    G = from_spec("symmetric(4)")
    texts = ["x*p0 = p0*x", "E y (x = y*y*p0)", "A y (x*y*p0 = p0*y*x)"]
    first, second = parse(texts[0]), parse(texts[0])
    assert first == second and first is not second
    dropped = []
    for p in (3, 11):
        fresh = symmetric(4)  # a group no formula has been evaluated on
        want = {text: evaluate(parse(text), fresh, (p,)).members for text in texts}
        # alternate with other formulas, each parsed afresh and dropped after use
        for text, kept in ((texts[0], first), (texts[1], None), (texts[0], second), (texts[2], None)) * 2:
            tree = kept or parse(text)
            assert evaluate(tree, G, (p,)).members == want[text]
            if kept is None:
                dropped.append(weakref.ref(tree))
    # many formulas parsed afresh on a cached catalog group leave nothing behind
    for i in range(2000):
        tree = parse("E y (x*y*p0 = p0*y*x)")
        evaluate(tree, G, (i % G.order,))
        dropped.append(weakref.ref(tree))
    del tree
    assert not [key for key in G._memo if key[0] == "shapes"]
    gc.collect()
    assert all(ref() is None for ref in dropped)
    assert first._pass is not second._pass
    # a copy is its own formula object, with its own pass
    for dup in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
        assert dup == first and evaluate(dup, G, (11,)).members == want[texts[0]]


def test_variable_and_parameter_validation():
    G = symmetric(3)
    with pytest.raises(MalformedInputError):
        evaluate(parse("x*y = y*x"), G)
    with pytest.raises(MalformedInputError):
        sentence_holds(parse("x = 1"), G)
    with pytest.raises(ArityMismatchError):
        evaluate(parse("x*p0 = p0*x"), G)
    with pytest.raises(ArityMismatchError):
        evaluate(parse("x*p0 = p0*x"), G, (1, 2))
    with pytest.raises(ArityMismatchError):
        evaluate(parse("x = 1"), G, (1,))
    with pytest.raises(MalformedInputError):
        evaluate(parse("x*p0 = p0*x"), G, (6,))
    with pytest.raises(MalformedInputError):
        evaluate(parse("x*p0 = p0*x"), G, (True,))
    with pytest.raises(MalformedInputError):
        evaluate(Var("x"), G)
    for measure in (free_variables, size, lambda node: sentence_holds(node, G)):
        with pytest.raises(MalformedInputError, match="not a formula node"):
            measure("x = 1")


def test_metrics():
    tree = parse("A y (x*y = y*x & [y, p2] = 1)")
    assert free_variables(tree) == frozenset({"x"})
    assert quantifier_depth(tree) == 1
    assert max_parameter(tree) == 2
    assert max_parameter(parse("x = 1")) == -1
    assert size(parse("x = 1")) == 3


def test_envelope_formula_shapes():
    flat = envelope_formula(3, 1)
    assert quantifier_depth(flat) == 0
    assert free_variables(flat) == frozenset({"x"})
    assert format_formula(flat) == "x*p0 = p0*x & x*p1 = p1*x & x*p2 = p2*x"

    assert envelope_formula(2, 0) == Eq(Var("x"), One())

    for d in (1, 2, 4):
        assert quantifier_depth(envelope_formula(d, 2)) == 5
        assert quantifier_depth(envelope_formula(d, 3)) == 11
        assert max_parameter(envelope_formula(d, 2)) == 2 * d - 1
        assert free_variables(envelope_formula(d, 2)) == frozenset({"x"})

    with pytest.raises(ArityMismatchError):
        envelope_formula(0, 1)
    with pytest.raises(MalformedInputError):
        envelope_formula(2, -1)


def test_envelope_formula_is_uniform():
    assert envelope_formula(3, 2) is envelope_formula(3, 2)
    assert envelope_formula(3, 2) is not envelope_formula(2, 3)

    G = alternating(4)
    involutions = [g for g in range(12) if g and G.mul(g, g) == 0]
    traces = [build_envelope(G, closure(G, [t])) for t in involutions]
    emitted = {id(emit_envelope_formula(trace)) for trace in traces}
    assert len(emitted) == 1


def test_emitted_formula_solves_envelope():
    cases = [
        ("alternating(4)", [1]),
        ("dihedral(4)", None),
        ("dihedral(8)", None),
        ("dihedral(8)", [2, 8]),
        ("unitriangular(3)", None),
        ("product(dihedral(4),symmetric(3))", [6, 24]),
        ("symmetric(4)", [1]),
    ]
    for spec, gens in cases:
        G = from_spec(spec)
        if gens is None:
            sub = G.as_subgroup()
        else:
            sub = closure(G, gens)
        if gens == [1] and nilpotence_class(sub) is None:
            continue
        trace = build_envelope(G, sub)
        phi = emit_envelope_formula(trace)
        solutions = evaluate(phi, G, trace.parameters)
        assert solutions.members == trace.envelope.members


def test_class_four_envelope_formulas_solve_envelopes():
    G = dihedral(16)
    whole = build_envelope(G, G.as_subgroup())
    assert whole.nilpotence_class == 4
    phi = emit_envelope_formula(whole)
    assert parse(format_formula(phi)) == phi
    proper = build_envelope(G, closure(G, [2, 16]))
    assert proper.original.order == 16 and proper.nilpotence_class == 3
    for trace in (whole, proper):
        with warnings.catch_warnings():
            warnings.simplefilter("error", EvaluationCostWarning)
            got = evaluate(emit_envelope_formula(trace), G, trace.parameters)
        assert got.members == trace.envelope.members


def test_evaluation_work_is_bounded_by_shapes(monkeypatch):
    evaluators = []

    class Recording(formula_module._Evaluator):
        def __init__(self, *args):
            super().__init__(*args)
            evaluators.append(self)

    monkeypatch.setattr(formula_module, "_Evaluator", Recording)
    G = dihedral(16)
    trace = build_envelope(G, G.as_subgroup())
    phi = envelope_formula(2, 4)
    assert emit_envelope_formula(trace) is phi
    with warnings.catch_warnings():
        # the shape-aware estimate stays under the default budget
        warnings.simplefilter("error", EvaluationCostWarning)
        assert evaluate(phi, G, trace.parameters).members == trace.envelope.members
    (ev,) = evaluators
    shapes = phi._pass[0]
    # the tree holds 82,538 node objects but only 124 shapes; keying the
    # cache by node identity again took 2.86M formula evaluations
    assert len(shapes.measures) <= 300
    assert len(ev.cache) <= len(shapes.measures)
    assert ev.formula_evals <= len(shapes.measures)


def _node_objects(node) -> int:
    seen, todo = set(), [node]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            fields = ("left", "right", "operand", "body")
            todo.extend(getattr(node, name) for name in fields if hasattr(node, name))
    return len(seen)


def _assert_pass_is_exact(phi) -> None:
    """The formula's kept pass against a fresh full walk: same shapes, same node facts."""
    seeded, shape, fv = phi._pass
    fresh = formula_module._Shapes()
    fresh_shape, fresh_fv = fresh.of(phi)
    assert fresh_fv == fv
    assert len(fresh.measures) == len(seeded.measures)
    # one bijection of shape ids that keeps every node's measures and free variables
    to_fresh = {}
    for key, (got, got_fv) in seeded.nodes.items():
        want, want_fv = fresh.nodes[key]
        assert got_fv == want_fv
        assert to_fresh.setdefault(got, want) == want
        assert seeded.measures[got] == fresh.measures[want]
    assert to_fresh[shape] == fresh_shape
    assert sorted(to_fresh) == sorted(set(to_fresh.values())) == list(range(len(seeded.measures)))


@pytest.mark.parametrize("d, n", [(d, n) for d in range(1, 5) for n in range(4)] + [(2, 4)])
def test_envelope_formula_shape_pass_is_exact(d, n):
    phi = envelope_formula.__wrapped__(d, n)  # built afresh: the builder's pass alone
    _assert_pass_is_exact(phi)
    # the evaluator adds the nodes it visits inside renamed copies on demand
    G = dihedral(4)
    evaluate(phi, G, tuple(i % G.order for i in range(d * n)))
    _assert_pass_is_exact(phi)


def test_envelope_formula_brings_its_shape_pass(monkeypatch):
    passes = _count_shape_passes(monkeypatch)
    G = dihedral(16)
    trace = build_envelope(G, G.as_subgroup())
    phi = envelope_formula.__wrapped__(2, 4)  # built afresh, past the cache
    assert size(phi) == 137_469
    assert cost_estimate(phi, G) < 10**6
    with warnings.catch_warnings():
        warnings.simplefilter("error", EvaluationCostWarning)
        assert evaluate(phi, G, trace.parameters).members == trace.envelope.members
    assert len(passes) == 1
    # the walk stops at renamed copies; built in full, the tree shares its
    # leaves and holds no dead node
    assert len(phi._pass[0].nodes) <= 10_000
    assert _node_objects(phi) <= 82_538


# sha256 of format_formula(phi_{d,n}), pinned from a builder that built every
# renamed copy at once: deferring the copies changes no byte of the text
_ENVELOPE_TEXT_SHA256 = {
    (1, 0): "8ff436def1451285599a1b1ad70800493b8dcafde2912e1a38345633054e4c26",
    (1, 1): "1f469c542eda1d1e7f9f131180695cffcea167c36ece1a58e0d98648a21be81c",
    (1, 2): "c816c8f2a4ee8a9b020b0e86998ed4298f34e33365d123df0389d9de2628c0ae",
    (1, 3): "507f65a814c7f95e211c215fc694833d30b5d2c350846c5eab133917dee4354b",
    (2, 0): "8ff436def1451285599a1b1ad70800493b8dcafde2912e1a38345633054e4c26",
    (2, 1): "12850d6515f7bbb4b42f6a50091fea73155debc2b5011ce6b053289a468dba3e",
    (2, 2): "8ee4bc71830b533df2996c8976c20d160eb5175a00e62e558df1c26737c3ef87",
    (2, 3): "4a6819560d08edf2aae19e464bfc5e3751b8553b44920fdbb337e908d86a5162",
    (3, 0): "8ff436def1451285599a1b1ad70800493b8dcafde2912e1a38345633054e4c26",
    (3, 1): "86a6bc942a65e5b5a5dcdcbfe8b95ac939eb49c187b5b2ab2d2ce0c790ff68b6",
    (3, 2): "65e8d6a6ebea3dff90a583844e2e8959dce04b348acb27ea2289eaf04a7f59c9",
    (3, 3): "9d93c151870ac0d07fd5d3c415f09ac237656e50b97df2d6db5a3c48640af907",
    (4, 0): "8ff436def1451285599a1b1ad70800493b8dcafde2912e1a38345633054e4c26",
    (4, 1): "7c023009d3470c5fa9622bfe574104b87446726c72e5e3e559454f176d6ddf9a",
    (4, 2): "3e1511373fe4a4e904f490dcfc835a133194b4125029ceb9f748ac0be3441781",
    (4, 3): "03f08f73c40a421c1d7eb31bfdbf838043e248097af6c1830ae1b0a77accdf72",
    (2, 4): "1b1bd0ec614ab0bf81234043ea59486edaa09ddf1d6ff9e87c796a53cbf0d260",
}


@pytest.mark.parametrize("d, n", sorted(_ENVELOPE_TEXT_SHA256))
def test_envelope_formula_text_is_unchanged(d, n):
    text = format_formula(envelope_formula.__wrapped__(d, n))
    assert hashlib.sha256(text.encode()).hexdigest() == _ENVELOPE_TEXT_SHA256[d, n]


def _live_nodes() -> int:
    gc.collect()
    return sum(isinstance(obj, formula_module._Node) for obj in gc.get_objects())


def test_evaluating_an_envelope_formula_builds_few_nodes():
    G = dihedral(16)
    trace = build_envelope(G, G.as_subgroup())
    before = _live_nodes()
    phi = envelope_formula.__wrapped__(2, 4)  # built afresh, past the cache
    assert evaluate(phi, G, trace.parameters).members == trace.envelope.members
    # each family's first member and one deferred member per later call (239);
    # building every renamed copy made 82,538
    assert _live_nodes() - before <= 1_000
    del phi


def _unread_member(phi):
    """A deferred member of phi not yet built, and its path of field names, found without building any."""
    todo = [(phi, ())]
    while todo:
        node, path = todo.pop()
        if "_build" in vars(node):
            return node, path
        todo.extend(
            (child, (*path, name)) for name, child in vars(node).items() if isinstance(child, formula_module._Node)
        )
    raise AssertionError("no deferred member")


@pytest.mark.parametrize("read", ["pickle", "copy", "deepcopy", "hash", "compare"])
def test_unread_deferred_member_reads_as_its_built_twin(read):
    stub, path = _unread_member(envelope_formula.__wrapped__(2, 3))
    twin = functools.reduce(getattr, path, envelope_formula.__wrapped__(2, 3))
    twin_text = format_formula(twin)  # builds the twin and every member below it
    assert "_build" in vars(stub) and type(stub) is type(twin)
    if read == "pickle":
        got = pickle.loads(pickle.dumps(stub))
    elif read == "copy":
        got = copy.copy(stub)
    elif read == "deepcopy":
        got = copy.deepcopy(stub)
    elif read == "hash":
        assert hash(stub) == hash(twin)
        got = stub
    else:
        assert stub == twin and twin == stub
        got = stub
    assert "_build" not in vars(stub) and "_build" not in vars(got)
    assert type(got) is type(twin) and got == twin
    assert format_formula(got) == format_formula(stub) == twin_text
    with pytest.raises(AttributeError):
        stub.operand  # a built member has its own fields only


@pytest.mark.parametrize("m, n", [(32, 5), (64, 6)])
def test_class_five_and_six_envelope_formulas_solve_envelopes(m, n):
    G = dihedral(m)
    trace = build_envelope(G, G.as_subgroup())
    assert trace.nilpotence_class == n
    with warnings.catch_warnings():
        warnings.simplefilter("error", EvaluationCostWarning)
        got = evaluate(emit_envelope_formula(trace), G, trace.parameters)
    assert got.members == trace.envelope.members


def test_relations_have_at_most_two_axes(monkeypatch):
    built = []
    evaluators = []

    class Recording(formula_module._Evaluator):
        def __init__(self, *args):
            super().__init__(*args)
            evaluators.append(self)

        def compute(self, *args):
            out = super().compute(*args)
            built.append(np.ndim(out))
            return out

        def term(self, *args):
            out = super().term(*args)
            built.append(np.ndim(out))
            return out

    monkeypatch.setattr(formula_module, "_Evaluator", Recording)
    G = dihedral(16)
    trace = build_envelope(G, G.as_subgroup())
    assert evaluate(envelope_formula(2, 4), G, trace.parameters).members == trace.envelope.members
    # four levels of quantifiers over up to four variables: fixed one at a time
    assert not sentence_holds(dimension_sentence(3), symmetric(4))
    assert any(isinstance(key, tuple) for key in evaluators[-1].cache)
    assert built and max(built) <= 2


def test_whole_group_envelope_formulas_on_larger_groups():
    for spec, n in (("unitriangular(7)", 2), ("product(dihedral(8),cyclic(3))", 3)):
        G = from_spec(spec)
        trace = build_envelope(G, G.as_subgroup())
        assert trace.nilpotence_class == n
        got = evaluate(emit_envelope_formula(trace), G, trace.parameters)
        assert got.members == trace.envelope.members


def test_emitted_formula_at_wider_padding():
    G = alternating(4)
    t = next(g for g in range(12) if g and G.mul(g, g) == 0)
    trace = build_envelope(G, closure(G, [t]))
    for d in (2, 3, 4):
        phi = emit_envelope_formula(trace, d)
        params = padded_parameters(trace, d)
        assert evaluate(phi, G, params).members == trace.envelope.members


def test_emit_checks_width():
    S4 = symmetric(4)
    doubles = [g for g in range(24) if g and S4.mul(g, g) == 0 and len(closure(S4, [g]).conjugate_by(0).elements) == 2]
    klein = next(
        closure(S4, [a, b]) for a in doubles for b in doubles
        if closure(S4, [a, b]).order == 4 and closure(S4, [a, b]).is_normal
    )
    trace = build_envelope(S4, klein)
    with pytest.raises(ArityMismatchError):
        emit_envelope_formula(trace, 1)


def test_dimension_sentence_shape():
    for d in (1, 2, 3):
        sigma = dimension_sentence(d)
        assert free_variables(sigma) == frozenset()
        assert max_parameter(sigma) == -1
        assert sigma is not dimension_sentence(d + 1)


def test_dimension_sentence_detects_dimension():
    specs = [
        "cyclic(1)",
        "cyclic(12)",
        "product(cyclic(2),cyclic(2))",
        "symmetric(3)",
        "dihedral(4)",
        "quaternion",
        "alternating(4)",
        "unitriangular(2)",
    ]
    for spec in specs:
        G = from_spec(spec)
        dim = dimension(G)
        for d in (1, 2, 3):
            assert sentence_holds(dimension_sentence(d), G) == (dim <= d), (spec, d)


def test_dimension_sentence_on_symmetric_4():
    G = symmetric(4)
    assert dimension(G) == 4
    assert not sentence_holds(dimension_sentence(2), G)
    assert not sentence_holds(dimension_sentence(3), G)


def test_cost_estimate_sums_shapes():
    # shapes: the variable (width 1), x*y and y*x (one shape, width 2), the
    # equation (width 2), the quantifier (width 1 + its bound variable)
    assert cost_estimate(parse("A y (x*y = y*x)"), symmetric(3)) == 6 + 3 * 6**2
    # renamed copies share shapes, so phi_{2,4} (137,469 nodes) costs about 5e5
    assert cost_estimate(envelope_formula(2, 4), dihedral(16)) < 10**6


def test_cost_warning(monkeypatch):
    C = cyclic(2048)
    assert cost_estimate(dimension_sentence(4), C) < formula_module.WARN_BUDGET
    assert cost_estimate(dimension_sentence(5), C) > formula_module.WARN_BUDGET == 10**18
    # the warning comes before any evaluation, so an error filter stops it there
    monkeypatch.setattr(formula_module, "_Evaluator", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", EvaluationCostWarning)
        with pytest.raises(EvaluationCostWarning, match="exceeds budget 1000000000000000000$"):
            evaluate(dimension_sentence(5), C)
    monkeypatch.undo()
    G = symmetric(3)
    tree = parse("A y (x*y = y*x)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate(tree, G)
