"""First-order formulas over groups: syntax trees, text format, evaluation.

Terms are built from variables, parameter slots ``p0, p1, ...``, the identity
``1``, products, and inverses.  Formulas combine term equalities with the
connectives ``&``, ``|``, ``!`` and the quantifiers ``A y (...)`` and
``E y (...)``, read "for all y" and "exists y".  Evaluation is the direct
finite-model semantics: quantifiers range over the whole group, and the
solution set of a formula in the distinguished free variable ``x`` is
returned as an :class:`~nilenv.groups.ElementSet`.

The evaluator works a set at a time: a subformula's relation, its truth
value at every assignment of its free variables, is one numpy array, and a
quantifier reduces its body's array along one axis.  Relations are cached by
shape, structure up to renaming of bound variables, so the renamed copies of
a subformula that make up most of an envelope formula are solved once, and
no array has more than two variable axes; :class:`_Evaluator` gives the
soundness argument.

The module also emits the uniform envelope formula: for positive integers
``d`` and ``n``, :func:`envelope_formula` builds a formula with ``d * n``
parameter slots whose solution set, at the witnesses recorded by an envelope
trace, is exactly the constructed envelope.  Most of its nodes lie in renamed
copies of a few subformulas.  The builder defers each copy, with its shape,
until one of its fields is read, so evaluation builds and walks almost none.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .centralizers import dimension
from .envelope import EnvelopeTrace, padded_parameters
from .errors import ArityMismatchError, FormulaSyntaxError, MalformedInputError
from .groups import MAX_DEPTH, ElementSet, FiniteGroup, _is_index, _vector_mask


WARN_BUDGET = 10**18


class EvaluationCostWarning(RuntimeWarning):
    """Issued when a formula's estimated evaluation cost exceeds ``WARN_BUDGET``."""


# -- Syntax trees --------------------------------------------------------


class _Node:
    """Base of the syntax tree classes.

    A deferred member of an envelope formula (see :func:`envelope_formula`)
    holds no fields until one is read; then ``__getattr__`` builds them
    once, and the node is an ordinary one from then on.
    """

    @cached_property
    def _pass(self) -> tuple[_Shapes, int, tuple[str, ...]]:
        """The shape pass over this node, its shape and free variables, kept in ``__dict__``.

        :func:`envelope_formula` puts its builder's pass there instead.
        """
        shapes = _Shapes()
        return (shapes, *shapes.of(self))

    def __getattr__(self, name: str):
        # runs only for a missing attribute: a deferred member builds its fields once
        build = vars(self).get("_build")
        if build is None or name not in self.__dataclass_fields__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        vars(self).update(vars(build()))
        vars(self).pop("_build", None)
        return vars(self)[name]

    def __getstate__(self) -> dict:
        # the fields only: the pass is keyed by node ids, so a copied or
        # unpickled node makes its own, and a deferred member is built first
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Param(_Node):
    index: int


@dataclass(frozen=True)
class One(_Node):
    pass


@dataclass(frozen=True)
class Mul(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Inv(_Node):
    operand: "Term"


Term = Var | Param | One | Mul | Inv


@dataclass(frozen=True)
class Eq(_Node):
    left: Term
    right: Term


@dataclass(frozen=True)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Not(_Node):
    operand: "Formula"


@dataclass(frozen=True)
class ForAll(_Node):
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists(_Node):
    var: str
    body: "Formula"


Formula = Eq | And | Or | Not | ForAll | Exists


def commutator(left: Term, right: Term) -> Term:
    """The term left^-1 * right^-1 * left * right, associated to the left."""
    return Mul(Mul(Mul(Inv(left), Inv(right)), left), right)


def conjunction(parts: list[Formula]) -> Formula:
    """Left-associated conjunction of a nonempty list."""
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


# -- Shapes and structural measures -------------------------------------


class _Shapes:
    """One bottom-up pass interning every node as a shape (see :class:`_Evaluator`).

    ``of`` gives a node's shape id and its free variables in first-occurrence
    order; ``measures`` holds, per shape, the largest parameter slot (-1 for
    none), the quantifier depth, the tree size and the width: the number of
    free variables, plus one for a quantifier's bound variable.

    ``nodes`` keeps ``of``'s answer per node id.  An entry put there before
    a walk reaches its node stands for the node's whole subtree, which the
    walk then skips; :func:`envelope_formula` seeds its renamed copies so.
    ``of`` fills in a node below such an entry when it is first asked for.
    """

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self.measures: list[tuple[int, int, int, int]] = []
        self.nodes: dict[int, tuple[int, tuple[str, ...]]] = {}

    def of(self, node) -> tuple[int, tuple[str, ...]]:
        got = self.nodes.get(id(node))
        if got is not None:
            return got
        # binary: right's variable positions, None for 0, 1, ...; binder: the
        # bound variable's position; Param: the slot
        extra = None
        if isinstance(node, (Mul, And, Or, Eq)):
            ls, fv = self.of(node.left)
            rs, rf = self.of(node.right)
            kids = (ls, rs)
            if rf and rf != fv:
                fv += tuple(v for v in rf if v not in fv)
                extra = tuple(map(fv.index, rf))
        elif isinstance(node, Param):
            fv, kids, extra = (), (), node.index
        elif isinstance(node, Var):
            fv, kids = (node.name,), ()
        elif isinstance(node, (Inv, Not)):
            s, fv = self.of(node.operand)
            kids = (s,)
        elif isinstance(node, (ForAll, Exists)):
            s, fv = self.of(node.body)
            kids = (s,)
            extra = fv.index(node.var) if node.var in fv else -1
            if extra >= 0:
                fv = fv[:extra] + fv[extra + 1 :]
        elif isinstance(node, One):
            fv, kids = (), ()
        else:
            raise MalformedInputError(f"not a formula node: {node!r}")
        key = (type(node), kids, extra)
        shape = self.ids.get(key)
        if shape is None:
            below = [self.measures[k] for k in kids]
            shape = self.ids[key] = len(self.measures)
            self.measures.append(
                (
                    max([m[0] for m in below], default=extra if isinstance(node, Param) else -1),
                    max([m[1] for m in below], default=0) + isinstance(node, (ForAll, Exists)),
                    1 + sum(m[2] for m in below),
                    len(fv) + isinstance(node, (ForAll, Exists)),
                )
            )
        got = self.nodes[id(node)] = (shape, fv)
        return got


def _pass_of(node: Formula | Term) -> tuple[_Shapes, int, tuple[str, ...]]:
    if not isinstance(node, _Node):
        raise MalformedInputError(f"not a formula node: {node!r}")
    return node._pass


def _measures(node: Formula | Term) -> tuple[int, int, int, int]:
    shapes, shape, _ = _pass_of(node)
    return shapes.measures[shape]


def free_variables(node: Formula | Term) -> frozenset[str]:
    """Free variable names, respecting quantifier binding."""
    return frozenset(_pass_of(node)[2])


def max_parameter(node: Formula | Term) -> int:
    """Largest parameter slot index appearing in the node, or -1 for none."""
    return _measures(node)[0]


def quantifier_depth(node: Formula | Term) -> int:
    """Maximum nesting depth of quantifiers."""
    return _measures(node)[1]


def size(node: Formula | Term) -> int:
    """Number of nodes in the syntax tree, counting shared subtrees per occurrence."""
    return _measures(node)[2]


def cost_estimate(formula: Formula, group: FiniteGroup) -> int:
    """Sum over shapes of order ** width, the assignments each can see (Vardi, PODS 1995)."""
    return sum(group.order ** m[3] for m in _pass_of(formula)[0].measures)


# -- Concrete syntax: parser and printer ---------------------------------

# one token per match, after optional whitespace: a parameter slot (ASCII
# digits only), an identifier, the identity, a symbol, or any other
# character, an error.  An identifier starts with a letter or "_"; the
# pattern also lets through a leading digit that is not decimal, such as
# "²", which _tokenize refuses.
_TOKEN = re.compile(r"\s*(?:(p[0-9]+)|([^\W\d]\w*)|(1)|(\^-1|[()\[\],*=&|!])|(\S))")
_KINDS = (None, "param", "ident", "one", "sym")


def _tokenize(text: str) -> list[tuple[str, str | int, int]]:
    tokens = []
    open_brackets = 0
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        value = match[group]
        at = match.start(group)
        if group == 1:
            try:
                tokens.append(("param", int(value[1:]), at))
            except ValueError:  # past Python's limit on digits converted
                raise FormulaSyntaxError("parameter slot has too many digits", at) from None
        elif group == 5 or (group == 2 and not (value[0].isalpha() or value[0] == "_")):
            raise FormulaSyntaxError(f"unexpected character {value[0]!r}", at)
        else:
            tokens.append((_KINDS[group], value, at))
            if value in ("(", "["):
                open_brackets += 1
                if open_brackets > MAX_DEPTH:
                    raise FormulaSyntaxError(f"formula nested deeper than {MAX_DEPTH} levels", at)
            elif value in (")", "]"):
                open_brackets -= 1
    tokens.append(("end", "", len(text)))
    return tokens


# Binding strengths, loosest first: each infix symbol's, with its node class
# and the kind of both its operands, then prefix "!" and postfix "^-1".
# parse climbs this table, and format_formula brackets from it.  A "!" or
# "^-1" node needs no brackets: wherever a formula can stand, the least
# strength allowed is at most _NOT, and it is at most _INV anywhere.
_INFIX = {
    "|": (1, Or, "formula"),
    "&": (2, And, "formula"),
    "=": (4, Eq, "term"),
    "*": (5, Mul, "term"),
}
_NOT, _INV = 3, 6
# each infix node class's printed symbol, "*" unspaced, and strength
_SYMBOL = {make: (s if s == "*" else f" {s} ", strength) for s, (strength, make, _) in _INFIX.items()}


def _of_kind(node: Formula | Term, kind: str, at: int) -> Formula | Term:
    if isinstance(node, Term) != (kind == "term"):
        raise FormulaSyntaxError(f"expected a {kind}", at)
    return node


class _Parser:
    """Precedence climbing (Pratt, POPL 1973) over ``_INFIX`` and ``_NOT``.

    Where ``least`` is above ``_NOT`` only a term can stand: there ``!`` and
    quantifiers are not read, and a bracket holds a term, read at ``*``'s.
    """

    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def take(self, sym: str | None = None) -> tuple[str, str | int, int]:
        tok = self.tokens[self.pos]
        if sym is not None and tok[1] != sym:  # only a symbol token has a symbol's value
            raise FormulaSyntaxError(f"expected {sym!r}", tok[2])
        self.pos += 1
        return tok

    def expr(self, least: int, kind: str | None = None) -> Formula | Term:
        """The longest expression here whose operators bind at ``least`` or tighter; a ``kind`` if given."""
        first = self.pos
        while least <= _NOT and self.tokens[self.pos][1] == "!":
            self.pos += 1
        negations, start = self.pos - first, self.tokens[self.pos][2]
        bound = _NOT if negations else least  # the run applies at an operator looser than _NOT
        out = self.primary(bound)
        while self.tokens[self.pos][1] == "^-1":  # binding tightest, it follows a primary
            out = Inv(_of_kind(out, "term", self.take()[2]))
        while True:
            symbol = self.tokens[self.pos][1]
            strength, make, operands = _INFIX.get(symbol, (-1, None, None))
            if strength < bound and negations:
                out = _of_kind(out, "formula", start)
                for _ in range(negations):
                    out = Not(out)
                bound, negations = least, 0
            if strength < bound:
                return out if kind is None else _of_kind(out, kind, start)
            self.pos += 1
            out = make(_of_kind(out, operands, start), self.expr(strength + 1, operands))

    def primary(self, least: int) -> Formula | Term:
        kind, value, at = self.take()
        if kind == "one":
            return One()
        if kind == "param":
            return Param(value)
        if kind == "ident" and least <= _NOT and value in ("A", "E") and self.tokens[self.pos][0] == "ident":
            var = self.take()[1]
            self.take("(")
            body = self.expr(0, "formula")
            self.take(")")
            return ForAll(var, body) if value == "A" else Exists(var, body)
        if kind == "ident":
            return Var(value)
        if value == "(":
            inner = self.expr(0 if least <= _NOT else _INFIX["*"][0])
            self.take(")")
            return inner
        if value == "[":
            left = self.expr(_INFIX["*"][0])
            self.take(",")
            right = self.expr(_INFIX["*"][0])
            self.take("]")
            return commutator(left, right)
        raise FormulaSyntaxError(f"unexpected token {value!r}", at)


def parse(text: str) -> Formula:
    """Parse the concrete syntax into a syntax tree.

    Commutator brackets ``[a, b]`` desugar to ``a^-1*b^-1*a*b`` during
    parsing; the tree has no commutator node.  A variable named ``A`` or
    ``E`` directly followed by another identifier cannot be written, since
    that spelling reads as a quantifier.  Text with more than ``MAX_DEPTH``
    brackets open at once, or whose tree is more than ``MAX_DEPTH`` nodes
    deep, raises :class:`FormulaSyntaxError`.
    """
    parser = _Parser(text)
    out = parser.expr(0, "formula")
    kind, value, at = parser.tokens[parser.pos]
    if kind != "end":
        raise FormulaSyntaxError(f"trailing input starting with {value!r}", at)
    if _depth(out) > MAX_DEPTH:
        raise FormulaSyntaxError(f"formula nested deeper than {MAX_DEPTH} levels", 0)
    return out


def _depth(node: Formula) -> int:
    """Nodes on the longest root-to-leaf path, counted a level at a time, not recursively."""
    depth, level = 0, [node]
    while level:
        depth += 1
        # the fields only: a node's __dict__ may also hold its shape pass
        level = [getattr(n, name) for n in level for name in n.__dataclass_fields__]
        level = [child for child in level if isinstance(child, _Node)]
    return depth


def format_formula(node: Formula) -> str:
    """Render a tree in the concrete syntax; parse(format_formula(F)) == F."""
    return _format(node, 0)


def _format(node: Formula | Term, least: int) -> str:
    """The node's text, bracketed if it binds less tightly than ``least``."""
    symbol, strength = _SYMBOL.get(type(node), (None, 0))
    if symbol is not None:
        text = f"{_format(node.left, strength)}{symbol}{_format(node.right, strength + 1)}"
        return f"({text})" if strength < least else text
    if isinstance(node, Not):
        return f"!{_format(node.operand, _NOT)}"
    if isinstance(node, Inv):
        return f"{_format(node.operand, _INV)}^-1"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Param):
        return f"p{node.index}"
    if isinstance(node, One):
        return "1"
    letter = "A" if isinstance(node, ForAll) else "E"
    return f"{letter} {node.var} ({_format(node.body, 0)})"


# -- Evaluator -----------------------------------------------------------


def _lift(value, have: tuple[str, ...], want: tuple[str, ...]):
    """A relation over the variables ``have`` laid onto the axes ``want``, a superset."""
    if len(have) == 2:
        return value if have == want else value.T
    if have and have[0] != want[-1]:
        return value[:, None]
    return value


class _Evaluator:
    """One evaluation run: fixed group and parameters, relations keyed by shape.

    A node's relation is its truth value at every assignment of its open
    variables, the free ones that ``env`` does not fix, as a boolean array
    with one axis per open variable in first-occurrence order: a bool when
    there are none, a length-n vector for one, an n x n array for two.
    Terms are int16 arrays of element indices, gathered through the group's
    multiplication and inverse tables.  Connectives and equations lay their
    operands onto the node's axes and combine them; ``Exists`` and
    ``ForAll`` reduce their body's relation along the bound variable's axis
    with ``any`` and ``all``.  This is the bounded-variable evaluation of
    Vardi (PODS 1995) that :func:`cost_estimate` counts.

    The key of a relation is the node's shape: the constructor, the
    children's shapes, and where the children's free variables sit in the
    node's own list of free variables; a quantifier records where its bound
    variable sat in its body's list, or -1.  This is sound: as the key fixes
    the constructor, the child shapes and the free-variable positions, two
    nodes with the same key are, by induction, alpha-equivalent up to a
    positional renaming of their free variables, so their relations agree
    axis by axis.  Binders record their variable's position, so shadowing
    is handled.  A node evaluated with some free variables fixed is keyed by
    its shape and the fixed values at their positions, sound for the same
    reason.  Every renamed copy of a subformula thus shares one relation.
    Relations with fewer than two axes are cached; an n x n one is built for
    the node that asked for it, which combines or reduces it at once, and
    is not kept.

    A guarded ``A v (!(v = t) | B)``, with v not free in t, holds exactly
    when B holds at v := t, since the guard lets through one value of v
    only.  Its relation is therefore B's relation gathered at t's values,
    and the wider equation, negation and disjunction under the quantifier
    are never built.

    No relation has more than two axes.  A quantifier whose body would have
    three open variables has two open variables itself; it is evaluated
    with the first of them fixed to each element in turn, through this same
    kernel and cache, and the rows are stacked.

    Shapes are read through ``shapes.of`` as nodes are reached, so of a
    seeded pass only the few nodes visited inside renamed copies are added,
    and only those copies are built.
    """

    def __init__(self, group: FiniteGroup, params: tuple[int, ...], shapes: _Shapes) -> None:
        self.group = group
        self.params = params
        self.shapes = shapes
        self.cache: dict = {}
        self.formula_evals = 0
        self.elements = np.arange(group.order, dtype=group._array.dtype)
        self.column = self.elements[:, None]

    def relation(self, node: Formula, env: dict[str, int]):
        """The node's relation, computed once per cache key, and its open variables."""
        shape, fv = self.shapes.of(node)
        key, open_ = shape, fv
        if env and not env.keys().isdisjoint(fv):
            key = (shape, tuple(env.get(v, -1) for v in fv))
            open_ = tuple(v for v in fv if v not in env)
        got = self.cache.get(key)
        if got is None:
            self.formula_evals += 1
            got = self.compute(node, env, open_)
            if len(open_) < 2:
                self.cache[key] = got
        return got, open_

    def compute(self, node: Formula, env: dict[str, int], open_: tuple[str, ...]):
        if isinstance(node, Eq):
            return np.equal(self.term(node.left, env, open_), self.term(node.right, env, open_))
        if isinstance(node, Not):
            return np.logical_not(self.relation(node.operand, env)[0])
        if isinstance(node, (And, Or)):
            left, have_left = self.relation(node.left, env)
            right, have_right = self.relation(node.right, env)
            combine = np.logical_and if isinstance(node, And) else np.logical_or
            return combine(_lift(left, have_left, open_), _lift(right, have_right, open_))
        return self.quantify(node, env, open_)

    def term(self, node: Term, env: dict[str, int], axes: tuple[str, ...]):
        """The term's values laid onto ``axes``, which hold its open variables."""
        if isinstance(node, Var):
            g = env.get(node.name)
            if g is not None:
                return g
            return self.elements if node.name == axes[-1] else self.column
        if isinstance(node, Param):
            return self.params[node.index]
        if isinstance(node, One):
            return 0
        if isinstance(node, Mul):
            return self.group._array[self.term(node.left, env, axes), self.term(node.right, env, axes)]
        return self.group._inv_array[self.term(node.operand, env, axes)]

    def quantify(self, node: ForAll | Exists, env: dict[str, int], open_: tuple[str, ...]):
        var, body, guard = node.var, node.body, None
        if var in env:  # the binder shadows a fixed variable
            env = {k: g for k, g in env.items() if k != var}
        if (
            isinstance(node, ForAll)
            and isinstance(body, Or)
            and isinstance(body.left, Not)
            and isinstance(body.left.operand, Eq)
            and body.left.operand.left == Var(var)
            and var not in self.shapes.of(body.left.operand.right)[1]
        ):
            body, guard = body.right, body.left.operand.right
        if sum(v not in env for v in self.shapes.of(body)[1]) > 2:
            first = open_[0]
            return np.stack([self.relation(node, {**env, first: g})[0] for g in range(self.group.order)])
        held, have = self.relation(body, env)
        if guard is not None:
            if var not in have:
                return np.broadcast_to(_lift(held, have, open_), (self.group.order,) * len(open_))
            return held[tuple(self.term(guard if v == var else Var(v), env, open_) for v in have)]
        if var not in have:
            return held
        reduce = np.all if isinstance(node, ForAll) else np.any
        return reduce(held, axis=have.index(var))


def _prepare(formula: Formula, group: FiniteGroup, params) -> _Evaluator:
    """Check the parameters, then the cost budget; return the evaluator."""
    params = tuple(params)
    expected = max_parameter(formula) + 1
    if len(params) != expected:
        raise ArityMismatchError(
            f"formula uses parameter slots p0..p{expected - 1}, got {len(params)} values"
        )
    for value in params:
        if not _is_index(value) or not 0 <= value < group.order:
            raise MalformedInputError(f"parameter {value!r} is not an element index")
    cost = cost_estimate(formula, group)
    if cost > WARN_BUDGET:
        warnings.warn(
            f"estimated evaluation cost {cost} exceeds budget {WARN_BUDGET}",
            EvaluationCostWarning,
            stacklevel=3,
        )
    return _Evaluator(group, params, formula._pass[0])


def evaluate(formula: Formula, group: FiniteGroup, params=()) -> ElementSet:
    """Solution set {g in G : formula(g, params)} in the free variable x.

    The formula may use the single free variable ``x`` (or none, in which
    case the answer is all of G or the empty set).  Parameter values are
    element indices filling every slot the formula mentions.
    """
    if not isinstance(formula, (Eq, And, Or, Not, ForAll, Exists)):
        raise MalformedInputError(f"not a formula: {formula!r}")
    fv = formula._pass[2]
    if fv and fv != ("x",):
        extra = ", ".join(sorted(set(fv) - {"x"}))
        raise MalformedInputError(f"unexpected free variables: {extra}")
    holds = _prepare(formula, group, params).relation(formula, {})[0]
    return ElementSet(group, _vector_mask(holds) if fv else group.full_mask if holds else 0)


def sentence_holds(formula: Formula, group: FiniteGroup, params=()) -> bool:
    """Truth value of a closed formula (no free variables at all)."""
    fv = _pass_of(formula)[2]
    if fv:
        raise MalformedInputError(f"sentence has free variables: {', '.join(sorted(fv))}")
    return bool(_prepare(formula, group, params).relation(formula, {})[0])


# -- The uniform envelope formula ----------------------------------------


@lru_cache(maxsize=None)
def envelope_formula(d: int, n: int) -> Formula:
    """The formula phi_{d,n}(x, p0..p{dn-1}) defining envelopes.

    Slot (k-1)*d + i holds the i-th witness of tower stage k.  Stage
    predicates are built recursively: E_1 says x commutes with the first d
    parameters; E_k adds, for each of its d witnesses y, that [x, y] lies
    in the (k-1)-st relativized center of E_{k-1}; the formula itself is
    the n-th relativized center of E_n.  For n = 1 that center is all of
    E_1, which the construction makes abelian, so the formula is E_1(x)
    itself and is quantifier-free.  For n = 0 the formula is x = 1.

    The result depends only on (d, n): one syntax tree per pair, shared
    between calls, with one ``Var`` per name, one ``Param`` per slot and
    one ``One``.

    The tree comes with its shape pass, made as the tree is built.  Only
    the first stage(k, .) and center(k, j, .), the first member of its
    family, is built and walked.  Each later one, asked for another name,
    is a deferred member: an instance of the first member's class holding
    no fields, only the builder call that makes them from the fresh-name
    counter value at which it starts.  It is entered in the pass with the
    first member's shape and its name as sole free variable, and it
    advances the counter by the first member's span, the number of fresh
    names that member took.  Its first field read runs that call, with a
    counter of its own, and the node is then an ordinary one.  Evaluating
    phi_{2,4} on dihedral(16) builds no deferred member; a walk of the
    whole tree, such as ``format_formula``, builds them all.

    This is exact.  Every builder call is fresh: a stage or center is asked
    for once per name, and the term given to center_at is a commutator.
    So a member's nodes depend only on its family, its name, the counter
    value at its start and the shared leaves, and its span on its family
    only; a deferred member built from its start is what building it at
    once would have made.  Its shape is the first member's: a name only
    labels variables, every bound variable is a fresh name with one binder
    and is used only under it, and the only free variable of a stage or
    center is its name, so a later member is the first one under a
    one-to-one renaming of its variables, and a shape records variables by
    position only.
    """
    if d < 1:
        raise ArityMismatchError("parameter width d must be at least 1")
    if n < 0:
        raise MalformedInputError("nilpotence class must be nonnegative")
    if n == 0:
        return Eq(Var("x"), One())

    shapes = _Shapes()
    one, slots = One(), [Param(i) for i in range(d * n)]
    variables: dict[str, Var] = {}
    first: dict[tuple, tuple[type, int, int]] = {}  # family: class, shape, span

    def var(name: str) -> Var:
        return variables.get(name) or variables.setdefault(name, Var(name))

    def slot(k: int, i: int) -> Param:
        return slots[(k - 1) * d + i]

    def member(counter: list[int], make, *key) -> Formula:
        """``make(counter, *key)`` if first of the family ``(make, *key[:-1])``, else deferred."""
        family, name = (make, *key[:-1]), key[-1]
        known = first.get(family)
        if known is None:
            start = counter[0]
            node = make(counter, *key)
            first[family] = (type(node), shapes.of(node)[0], counter[0] - start)
            return node
        cls, shape, span = known
        node = cls.__new__(cls)
        vars(node)["_build"] = partial(make, [counter[0]], *key)
        counter[0] += span
        shapes.nodes[id(node)] = (shape, (name,))
        return node

    def stage(counter: list[int], k: int, name: str) -> Formula:
        v = var(name)
        if k == 1:
            return conjunction([Eq(Mul(v, slot(1, i)), Mul(slot(1, i), v)) for i in range(d)])
        return And(
            member(counter, stage, k - 1, name),
            conjunction([center_at(counter, k - 1, k - 1, commutator(v, slot(k, i))) for i in range(d)]),
        )

    def center(counter: list[int], k: int, j: int, name: str) -> Formula:
        counter[0] += 1
        w = f"w{counter[0]}"
        return And(
            member(counter, stage, k, name),
            ForAll(
                w,
                Or(
                    Not(member(counter, stage, k, w)),
                    center_at(counter, k, j - 1, commutator(var(name), var(w))),
                ),
            ),
        )

    def center_at(counter: list[int], k: int, j: int, term: Term) -> Formula:
        if j == 0:
            return Eq(term, one)
        counter[0] += 1
        v = f"v{counter[0]}"
        return ForAll(v, Or(Not(Eq(var(v), term)), member(counter, center, k, j, v)))

    counter = [0]  # the last fresh name's number; a deferred member gets its own
    root = member(counter, stage, 1, "x") if n == 1 else member(counter, center, n, n, "x")
    vars(root)["_pass"] = (shapes, *shapes.of(root))
    return root


def emit_envelope_formula(trace: EnvelopeTrace, d: int | None = None) -> Formula:
    """The envelope formula sized for a trace.

    With d omitted, uses the ambient group's centralizer dimension, the
    width ``trace.parameters`` is padded to.  The width must cover the
    largest witness count in the tower, else :class:`ArityMismatchError`.
    Pair the result with :func:`~nilenv.envelope.padded_parameters` at the
    same width; at those parameters its solution set is the envelope.
    """
    if d is None:
        d = dimension(trace.group)
    padded_parameters(trace, d)
    return envelope_formula(d, trace.nilpotence_class)


# -- Centralizer dimension as a sentence ----------------------------------


def dimension_sentence(d: int) -> Formula:
    """A sentence true in G exactly when the centralizer dimension is at most d.

    Dimension exceeding d means a strict chain of d+1 centralizer drops,
    witnessed by elements z_1, x_1, ..., z_{d+1}, x_{d+1} where each z_i
    centralizes x_1..x_{i-1} but not x_i.  The sentence negates that
    existential.  Each z_i's commutation constraints sit directly under its
    quantifier, so evaluation prunes as early as possible.
    """
    if d < 1:
        raise MalformedInputError("dimension bound must be at least 1")

    def level(i: int) -> Formula:
        zi = Var(f"z{i}")
        inner: Formula = Not(Eq(commutator(zi, Var(f"x{i}")), One()))
        if i <= d:
            inner = And(inner, level(i + 1))
        body: Formula = Exists(f"x{i}", inner)
        checks = [Eq(commutator(zi, Var(f"x{j}")), One()) for j in range(1, i)]
        if checks:
            body = And(conjunction(checks), body)
        return Exists(f"z{i}", body)

    return Not(level(1))
