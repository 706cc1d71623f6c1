"""Property-suite runner: catalog groups, subgroup pools, and report output.

Each suite drives one family of checks (commutator identities, tower lemmas,
envelope construction, formula evaluation, Fitting subgroups) over a pool of
groups and subgroups.  Every check is defined once, in the :data:`CHECKS`
registry; the suites call it on sampled or enumerated arguments and
:func:`replay_failure` calls it again on the arguments decoded from a
failure's payload.  Every suite is defined once too, in :data:`SUITES`.
Runs are deterministic: the same configuration always produces the same report.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import random
import re
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .catalog import DEFAULT_CATALOG, from_spec
from .centralizers import (
    bottom_chain_classify,
    centralizer,
    dimension,
    greedy_witness,
    minimal_centralizer_above,
)
from .envelope import _not_normalized, build_envelope, fitting, verify_envelope
from .errors import InternalCheckError, MalformedInputError
from .formula import emit_envelope_formula, envelope_formula, evaluate, format_formula, parse
from .groups import (
    ElementSet,
    FiniteGroup,
    Subgroup,
    _bool_vector,
    _prime_factors,
    _vector_mask,
    commutator_subgroup,
    group_to_dict,
    hall_witt_products,
    iter_mask,
    mask_of,
)
from .series import (
    _series,
    check_centralizer_transfer,
    check_hall_bound,
    check_nested_towers,
    check_three_subgroup,
    nilpotence_class,
)


@dataclass(frozen=True)
class Failure:
    """One failed check with everything needed to re-run it standalone."""

    suite: str
    group: str
    label: str
    payload: dict

    def payload_text(self) -> str:
        return json.dumps(self.payload, sort_keys=True)


@dataclass(frozen=True)
class SuiteOutcome:
    suite: str
    group: str
    passes: int
    failures: tuple[Failure, ...]
    elapsed: float
    notes: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Report:
    outcomes: tuple[SuiteOutcome, ...]

    @property
    def total_passes(self) -> int:
        return sum(o.passes for o in self.outcomes)

    @property
    def failures(self) -> tuple[Failure, ...]:
        return tuple(f for o in self.outcomes for f in o.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format_text(self, include_timing: bool = True) -> str:
        lines = []
        for o in self.outcomes:
            line = f"suite={o.suite} group={o.group} passes={o.passes} failures={len(o.failures)}"
            if include_timing:
                line += f" elapsed={o.elapsed:.2f}s"
            lines.append(line)
            for key, value in o.notes:
                lines.append(f"  note {key}: {value}")
            for f in o.failures:
                lines.append(f"  FAIL {f.label}: {f.payload_text()}")
        lines.append(
            f"total passes={self.total_passes} failures={len(self.failures)}"
        )
        return "\n".join(lines)

    def stable_text(self) -> str:
        """Report text without timing, byte-identical across equal-config runs."""
        return self.format_text(include_timing=False)


# -- Subgroup pools --------------------------------------------------------


def _cyclic_subgroups(G: FiniteGroup) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Every cyclic subgroup once, found by walking each element's powers.

    Returns (gen, mask, label): ``gen[c]`` is the least element generating
    the c-th cyclic subgroup, ``mask[c]`` its mask, and ``label[x]`` the c
    with <x> the c-th one.  The generators of <x> are the powers x^k with
    k prime to the order of x.
    """
    label = [-1] * G.order
    gens, masks = [], []
    for x in range(G.order):
        if label[x] >= 0:
            continue
        powers = [x]
        while powers[-1]:
            powers.append(G._mul(powers[-1], x))
        for k, y in enumerate(powers, 1):
            if math.gcd(k, len(powers)) == 1:
                label[y] = len(gens)
        gens.append(x)
        masks.append(mask_of(powers))
    return np.array(gens), masks, np.array(label)


def all_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup, sorted by (order, mask), by cyclic extension up to conjugacy.

    The set found is a union of conjugacy classes, each entered whole as the
    orbit of a representative H under G's generators g, one gather through
    ``G.conjugation(g)`` each.  H is joined with prime-power cyclic C = <c>
    not inside H by one rule, where R = G^(oo) ends the derived series:

    - near joins, c in N(H): every such C, the join being the product H<c>;
    - far joins, c outside N(H), only when H <= R: each C <= R up to
      conjugacy by N(H), as H v C^n = (H v C)^n, read off one gather of the
      labels of the c^n.  The join is one Dimino step
      (``FiniteGroup._dimino_step``) from H and the generators H was built
      from, which also give N(H) = {g : gens^g inside H}.

    A join J of prime index over H has no subgroup strictly between, so the
    join of H with any c in J is J, and such a c is skipped.  Each subgroup
    K != 1 is found, by induction on |K|, as a join with a found M = H^g,
    H a representative: K^(g^-1) = H v C^(g^-1), whose class is entered.

    (i) K <= R (Neubüser, 1960).  K is generated by its prime-power cyclic
    subgroups, so one, C, lies outside a maximal subgroup M of K, and
    K = M v C.  R is normal, so H <= R and C^(g^-1) <= R: a near or far join.

    (ii) K not inside R.  K^(oo) <= R, so K/K^(oo) is solvable and not 1,
    and K has a normal subgroup M of prime index p.  Take k in K, not in M,
    of order p^a * m' with p not dividing m'.  Then c = k^(m') has p-power
    order, lies outside M and normalizes it, so K = M<c>, and c^(g^-1) is
    in N(H), not in H: a near join.  If G is solvable, R = 1: all products.
    """
    return G.memo(("allsubs",), _all_subgroups, G)


def _residuum(G: FiniteGroup) -> int:
    """The mask of G^(oo), the last term of the derived series."""
    return _series(G.as_subgroup(), lambda H: commutator_subgroup(H, H))[-1].members


def _all_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    cyc_gen, cyc_mask, cyc_label = _cyclic_subgroups(G)
    prime_power = np.array([len(_prime_factors(m.bit_count())) <= 1 for m in cyc_mask])
    R = _residuum(G)
    in_R = _bool_vector(R, G.order)[cyc_gen]
    # K^g is K's bits gathered through the conjugation by g, for each generator g of G
    moves = [G.conjugation(g) for g in G.as_subgroup().generators]
    found = {1}
    # each representative with the mask of the generators it was built from
    reps = [(1, 0)]
    for H, gens in reps:
        outside = ~_bool_vector(H, G.order)[cyc_gen] & prime_power
        if not outside.any():
            continue
        norm = G._normalizer(H, gens)
        in_norm = _bool_vector(norm, G.order)
        joins = outside & in_norm[cyc_gen]
        if not H & ~R:
            far = np.flatnonzero(outside & ~in_norm[cyc_gen] & in_R)
            # orbits[i, f] is the label of <cyc_gen[far[f]]^n> for the i-th n in N(H)
            orbits = cyc_label[G._pair_values("conj", np.flatnonzero(in_norm)[:, None], cyc_gen[far])]
            joins[far[orbits.min(axis=0) == far]] = True
        # the union of the joins J found from H of prime index over H
        covered = H
        for c in np.flatnonzero(joins):
            x = int(cyc_gen[c])
            if covered >> x & 1:
                continue
            if norm >> x & 1:
                J = G._image("mul", H, cyc_mask[c])
            else:
                J = G._dimino_step(list(iter_mask(H)), H, [*iter_mask(gens), x])[1]
            index = J.bit_count() // H.bit_count()
            if _prime_factors(index) == (index,):
                covered |= J
            if J in found:
                continue
            reps.append((J, gens | 1 << x))
            found.add(J)
            orbit = [J]
            for K in orbit:
                bits = _bool_vector(K, G.order)
                for move in moves:
                    L = _vector_mask(bits[move])
                    if L not in found:
                        found.add(L)
                        orbit.append(L)
    return tuple(Subgroup(G, m) for m in sorted(found, key=lambda m: (m.bit_count(), m)))


def sample_subgroups(G: FiniteGroup, count: int, seed: int) -> list[Subgroup]:
    """Deterministic sample: closures of 1 to 3 random elements, deduplicated."""
    rng = random.Random(f"{seed}:{G.name}")
    seen = set()
    out = []
    for _ in range(count):
        k = rng.randint(1, 3)
        elems = rng.sample(range(G.order), min(k, G.order))
        sub = Subgroup(G, G.closure_mask(mask_of(elems) | 1))
        if sub.members not in seen:
            seen.add(sub.members)
            out.append(sub)
    return out


# a group above MAX_EXHAUSTIVE_ORDER pools the closures of SAMPLES_PER_GROUP random
# subsets, and the envelope and formula suites trace ENVELOPE_SAMPLES nilpotent ones
MAX_EXHAUSTIVE_ORDER = 200
SAMPLES_PER_GROUP = 200
ENVELOPE_SAMPLES = 24


class GroupContext:
    """One group plus its subgroup pool, shared by every suite.

    ``digest`` identifies a group that is not a catalog spec (see
    :func:`group_digest`); failures on it carry the digest so that replay
    can find the group again.
    """

    def __init__(
        self, label: str, group: FiniteGroup, config: SuiteConfig, digest: str | None = None
    ) -> None:
        self.label = label
        self.group = group
        self.digest = digest
        self.exhaustive = group.order <= MAX_EXHAUSTIVE_ORDER
        if self.exhaustive:
            self.subgroups = all_subgroups(group)
        else:
            pool = {1: group.trivial_subgroup(), group.full_mask: group.as_subgroup()}
            for sub in sample_subgroups(group, SAMPLES_PER_GROUP, config.seed):
                pool.setdefault(sub.members, sub)
            self.subgroups = tuple(
                sorted(pool.values(), key=lambda s: (s.order, s.members))
            )
        self.nilpotent = tuple(
            s for s in self.subgroups if nilpotence_class(s) is not None
        )
        self.dimension = dimension(group)
        self._inside: dict[int, list[Subgroup]] = {}

    def inside(self, mask: int) -> list[Subgroup]:
        """Pool subgroups contained in ``mask``."""
        got = self._inside.get(mask)
        if got is None:
            got = [s for s in self.subgroups if s.members & ~mask == 0]
            self._inside[mask] = got
        return got

    def envelope_pool(self) -> tuple[Subgroup, ...]:
        """Nilpotent subgroups to trace: all of them when exhaustive, a slice otherwise."""
        if self.exhaustive:
            return self.nilpotent
        pool = list(self.nilpotent[:ENVELOPE_SAMPLES])
        full = self.group.as_subgroup()
        if nilpotence_class(full) is not None and all(
            s.members != full.members for s in pool
        ):
            pool.append(full)
        return tuple(pool)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def group_digest(G: FiniteGroup) -> str:
    """sha256 of the group's :func:`~nilenv.groups.group_to_dict` JSON."""
    return _sha256(json.dumps(group_to_dict(G), sort_keys=True))


def build_contexts(
    config: SuiteConfig, extra_groups: tuple[FiniteGroup, ...] = ()
) -> tuple[GroupContext, ...]:
    """Contexts for the configured catalog specs plus any pre-built groups.

    A pre-built group whose name is already a label gets the first free
    label ``name#2``, ``name#3``, ...; catalog labels are the specs.
    """
    contexts = [GroupContext(spec, from_spec(spec), config) for spec in config.groups]
    labels = set(config.groups)
    for g in extra_groups:
        label, copy = g.name, 1
        while label in labels:
            copy += 1
            label = f"{g.name}#{copy}"
        labels.add(label)
        contexts.append(GroupContext(label, g, config, digest=group_digest(g)))
    return tuple(contexts)


def _rng_for(config: SuiteConfig, suite: str, label: str) -> random.Random:
    return random.Random(f"{config.seed}:{suite}:{label}")


# -- The checks ------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One failure kind: its check, its failure label, and its subgroup arguments.

    ``fn(G, **args)`` returns True when the check holds, False when it fails,
    and None when a sampled instance misses the hypotheses of its lemma.  An
    :class:`InternalCheckError` raised inside counts as a failure.  In a
    payload, the arguments named in ``subgroups`` are generator lists; all
    others are ints, strings or element lists, stored as they are.
    ``params`` are the parameters of ``fn`` after the group: replay accepts
    exactly those payload fields and requires the ones without a default.
    A ``block`` check takes one (m, k) array, a row per instance, and returns
    m booleans; it must not raise :class:`InternalCheckError`.
    """

    fn: Callable[..., bool | None]
    label: str
    subgroups: tuple[str, ...] = ()
    params: tuple[inspect.Parameter, ...] = ()
    block: bool = False


CHECKS: dict[str, Check] = {}


def _check(kind: str, label: str, subgroups: tuple[str, ...] = (), block: bool = False):
    def register(fn):
        params = tuple(inspect.signature(fn).parameters.values())[1:]
        CHECKS[kind] = Check(fn, label, subgroups, params, block)
        return fn

    return register


def _trace(G: FiniteGroup, sub: Subgroup):
    # memoized: the five envelope checks and the formula check share one trace
    return G.memo(("suite-trace", sub.members), build_envelope, G, sub)


def _fitting(G: FiniteGroup):
    return G.memo(("suite-fitting",), fitting, G)


@_check("hallwitt", "commutator identity product is not the identity", block=True)
def _hallwitt(G, triple):
    first, second = hall_witt_products(G, *triple.T)
    return (first == 0) & (second == 0)


@_check("threesubgroup", "conclusion fails despite both hypotheses", ("k", "l", "m", "n"))
def _threesubgroup(G, k, l, m, n):
    return check_three_subgroup(k, l, m, n)


@_check("hall", "commutator bound fails at i={i}, k={k}", ("subgroup",))
def _hall(G, subgroup, i, k):
    return check_hall_bound(G, subgroup, i, k)


@_check("bryant", "level-{k} centralizer transfer fails", ("x", "p"))
def _bryant(G, x, p, k):
    return check_centralizer_transfer(G, x, p, k)


@_check("nested", "restriction fails at a level up to {n}", ("a", "b", "c"))
def _nested(G, a, b, c, n):
    return check_nested_towers(a, b, c, n)


@_check("bottomchain", "bottom-chain trichotomy fails", ("subgroup",))
def _bottomchain(G, subgroup):
    bottom_chain_classify(subgroup)
    return True


@_check("dimension-abelian", "dimension 1 must coincide with being abelian")
def _dimension_abelian(G):
    return (dimension(G) == 1) == G.is_abelian


@_check("greedy-bound", "greedy witness exceeds the dimension")
def _greedy_bound(G, subset):
    witnesses = greedy_witness(ElementSet(G, mask_of(subset)))
    return len(witnesses) <= dimension(G)


@_check("triple-law", "triple centralizer differs from single centralizer")
def _triple_law(G, subset):
    first = G.centralizer_mask(mask_of(subset))
    return G.centralizer_mask(G.centralizer_mask(first)) == first


@_check("subgroup-dimension", "subgroup dimension exceeds the ambient dimension", ("subgroup",))
def _subgroup_dimension(G, subgroup):
    return dimension(subgroup) <= dimension(G)


@_check(
    "least-centralizer-normality",
    "least centralizer is not normalized by the subgroup normalizer",
    ("subgroup",),
)
def _least_centralizer_normality(G, subgroup):
    least, _ = minimal_centralizer_above(subgroup)
    return G.normalizer_mask(subgroup.members) & ~G.normalizer_mask(least.members) == 0


_ENVELOPE_CHECKS = ("containment", "class", "normality", "verify", "idempotence")


@_check("envelope", "{check} check failed", ("subgroup",))
def _envelope(G, subgroup, check, seed=0):
    trace = _trace(G, subgroup)
    envelope = trace.envelope
    if check == "containment":
        return subgroup.members & ~envelope.members == 0
    if check == "class":
        return nilpotence_class(envelope) == trace.nilpotence_class == nilpotence_class(subgroup)
    if check == "normality":
        return _not_normalized(trace, subgroup.members) is None
    if check == "verify":
        return verify_envelope(trace, seed=seed).ok
    return _trace(G, envelope).envelope.members == envelope.members


@_check("formula-solution", "solution set differs from the envelope", ("subgroup",))
def _formula_solution(G, subgroup, d):
    trace = _trace(G, subgroup)
    phi = emit_envelope_formula(trace, d)
    return evaluate(phi, G, trace.parameters).members == trace.envelope.members


_COMMUTES_WITH_P0 = parse("x*p0 = p0*x")


@_check("formula-centralizer", "commuting formula disagrees with the centralizer")
def _formula_centralizer(G, p0):
    got = evaluate(_COMMUTES_WITH_P0, G, (p0,))
    return got.members == centralizer(ElementSet(G, 1 << p0)).members


@_check("fitting-agreement", "Fitting subgroup computations disagree or are not nilpotent")
def _fitting_agreement(G):
    return nilpotence_class(_fitting(G).fitting) is not None


@_check("fitting-normal", "Fitting subgroup is not normal")
def _fitting_normal(G):
    return _fitting(G).fitting.is_normal


@_check(
    "fitting-containment",
    "normal nilpotent subgroup escapes the Fitting subgroup",
    ("subgroup",),
)
def _fitting_containment(G, subgroup):
    return subgroup.members & ~_fitting(G).fitting.members == 0


def _encode(value):
    return list(value.generators) if isinstance(value, Subgroup) else value


def _instance_key(value):
    if isinstance(value, Subgroup):
        return value.members
    return tuple(value) if isinstance(value, list) else value


# -- Suites ----------------------------------------------------------------


class _Tally:
    """Passes and failures of one (suite, group) task, with its sampling quota."""

    def __init__(
        self,
        suite: str,
        label: str,
        group: FiniteGroup,
        digest: str | None = None,
        quota: int | None = None,
    ) -> None:
        self.suite = suite
        self.label = label
        self.group = group
        self.digest = digest
        self.quota = quota
        self.passes = 0
        self.failures: list[Failure] = []
        self.outcomes: dict[tuple, tuple[bool | None, str]] = {}

    def check(self, kind: str, **args) -> bool | None:
        """Run one registered check; count a pass, or record a replayable failure.

        Returns the check's outcome; an :class:`InternalCheckError` raised
        inside is a failure, with its message appended to the label.  The
        checks are deterministic, so an instance already checked in this task
        reuses its outcome: a repeat counts its pass again, records its
        failure again with the same label and payload, or returns None again.
        """
        key = (kind, *args, *map(_instance_key, args.values()))
        if key not in self.outcomes:
            try:
                self.outcomes[key] = (CHECKS[kind].fn(self.group, **args), "")
            except InternalCheckError as err:
                self.outcomes[key] = (False, f": {err}")
        ok, detail = self.outcomes[key]
        if ok:
            self.passes += 1
        elif ok is not None:
            label = CHECKS[kind].label.format(**args) + detail
            self.fail(label, {"kind": kind, **{k: _encode(v) for k, v in args.items()}})
        return ok

    def check_rows(self, kind: str, **block) -> np.ndarray:
        """Run a block check on its one (m, k) array; each row counts as one check."""
        ((key, rows),) = block.items()
        ok = CHECKS[kind].fn(self.group, **block)
        self.passes += int(np.count_nonzero(ok))
        for row in rows[~ok].tolist():
            self.fail(CHECKS[kind].label.format(**{key: row}), {"kind": kind, key: row})
        return ok

    def fail(self, label: str, payload: dict) -> None:
        payload["group"] = self.label
        if self.digest is not None:
            payload["digest"] = self.digest
        self.failures.append(Failure(self.suite, self.label, label, payload))


HALLWITT_TRIPLES = 1000  # random triples per group, drawn and checked as one block


def _suite_hallwitt(ctx: GroupContext, config: SuiteConfig, run: _Tally):
    rng, n = _rng_for(config, "hallwitt", ctx.label), ctx.group.order
    triples = rng.choices(range(n), k=3 * HALLWITT_TRIPLES)
    run.check_rows("hallwitt", triple=np.reshape(triples, (HALLWITT_TRIPLES, 3)))


# the payload fields of a quota failure, in order
_QUOTA_FIELDS = ("suite", "quota", "achieved", "attempts", "seed")


def _sample_to_quota(ctx: GroupContext, config: SuiteConfig, run: _Tally, draw):
    """Check drawn instances until ``quota`` of them meet their hypotheses.

    ``draw(ctx, rng)`` returns the arguments of the suite's check.  Instances
    whose hypotheses fail are skipped; after 60 draws per unit of quota the
    shortfall is reported as one "quota" failure.  Groups without a quota
    (too large for the suite) are skipped entirely.  Draws repeat instances;
    a repeat reuses its first outcome (see :meth:`_Tally.check`) and still
    counts as a draw, and as a hit when its hypotheses hold.
    """
    quota = run.quota
    if quota is None:
        return
    rng = _rng_for(config, run.suite, ctx.label)
    hits = attempts = 0
    while hits < quota and attempts < quota * 60:
        attempts += 1
        if run.check(run.suite, **draw(ctx, rng)) is not None:
            hits += 1
    if hits < quota:
        fields = dict(zip(_QUOTA_FIELDS, (run.suite, quota, hits, attempts, config.seed)))
        run.fail("sampling quota not reached", {"kind": "quota", **fields})


def _draw_threesubgroup(ctx: GroupContext, rng: random.Random) -> dict:
    n = rng.choice(ctx.subgroups)
    inside = ctx.inside(ctx.group.normalizer_mask(n.members))
    return {"k": rng.choice(inside), "l": rng.choice(inside), "m": rng.choice(inside), "n": n}


def _draw_bryant(ctx: GroupContext, rng: random.Random) -> dict:
    p = rng.choice(ctx.subgroups)
    x = p if rng.random() < 0.5 else rng.choice(ctx.inside(p.members))
    return {"x": x, "p": p, "k": rng.randint(1, 3)}


def _draw_nested(ctx: GroupContext, rng: random.Random) -> dict:
    c = rng.choice(ctx.subgroups)
    b = rng.choice(ctx.inside(c.members))
    return {"a": rng.choice(ctx.inside(b.members)), "b": b, "c": c, "n": rng.randint(1, 3)}


def _suite_hall(ctx: GroupContext, config: SuiteConfig, run: _Tally):
    for h in ctx.nilpotent:
        n = nilpotence_class(h)
        for k in range(1, n + 1):
            for i in range(1, k + 1):
                run.check("hall", subgroup=h, i=i, k=k)


def _suite_bottomchain(ctx: GroupContext, config: SuiteConfig, run: _Tally):
    for h in ctx.subgroups:
        run.check("bottomchain", subgroup=h)


def _suite_dimension(ctx: GroupContext, config: SuiteConfig, run: _Tally):
    G = ctx.group
    rng = _rng_for(config, "dimension", ctx.label)
    run.check("dimension-abelian")
    for _ in range(SAMPLES_PER_GROUP):
        k = rng.randint(1, min(G.order, 5))
        subset = sorted(rng.sample(range(G.order), k))
        run.check("greedy-bound", subset=subset)
        run.check("triple-law", subset=subset)
    if ctx.exhaustive:
        for h in ctx.subgroups:
            run.check("subgroup-dimension", subgroup=h)
            run.check("least-centralizer-normality", subgroup=h)


def _suite_envelope(ctx: GroupContext, config: SuiteConfig, run: _Tally):
    for h in ctx.envelope_pool():
        for which in _ENVELOPE_CHECKS:
            run.check("envelope", subgroup=h, check=which, seed=config.seed)


def _suite_formula(ctx: GroupContext, config: SuiteConfig, run: _Tally):
    G = ctx.group
    rng = _rng_for(config, "formula", ctx.label)
    shapes: dict[tuple[int, int], str] = {}
    for h in ctx.envelope_pool():
        run.check("formula-solution", subgroup=h, d=ctx.dimension)
        shape = (ctx.dimension, nilpotence_class(h))
        if shape not in shapes:
            shapes[shape] = format_formula(envelope_formula(*shape))
    for _ in range(8):
        run.check("formula-centralizer", p0=rng.randrange(G.order))
    return tuple((f"phi[{d},{n}]", text) for (d, n), text in sorted(shapes.items()))


def _suite_fitting(ctx: GroupContext, config: SuiteConfig, run: _Tally):
    if not run.check("fitting-agreement"):
        return
    run.check("fitting-normal")
    for h in ctx.subgroups:
        if h.is_normal and nilpotence_class(h) is not None:
            run.check("fitting-containment", subgroup=h)
    return (("engel-bound", str(_fitting(ctx.group).engel_bound_n)),)


# suite -> (its runner, its sample quota or None, the largest group order the
# quota covers); run_suites splits a quota evenly over the groups it covers,
# rounding up
SUITES = {
    "hallwitt": (_suite_hallwitt, None, None),
    "threesubgroup": (partial(_sample_to_quota, draw=_draw_threesubgroup), 5000, 64),
    "hall": (_suite_hall, None, None),
    "bryant": (partial(_sample_to_quota, draw=_draw_bryant), 10000, 100),
    "nested": (partial(_sample_to_quota, draw=_draw_nested), 5000, 100),
    "bottomchain": (_suite_bottomchain, None, None),
    "dimension": (_suite_dimension, None, None),
    "envelope": (_suite_envelope, None, None),
    "formula": (_suite_formula, None, None),
    "fitting": (_suite_fitting, None, None),
}

ALL_SUITES = tuple(SUITES)


@dataclass(frozen=True)
class SuiteConfig:
    """What a suite run covers; how much each suite samples is fixed.  Equal configs give equal reports."""

    seed: int = 0
    suites: tuple[str, ...] = ALL_SUITES
    groups: tuple[str, ...] = DEFAULT_CATALOG


def _run_task(suite: str, ctx: GroupContext, config: SuiteConfig, quota) -> SuiteOutcome:
    started = time.perf_counter()
    run = _Tally(suite, ctx.label, ctx.group, ctx.digest, quota)
    notes = SUITES[suite][0](ctx, config, run) or ()
    return SuiteOutcome(
        suite, ctx.label, run.passes, tuple(run.failures), time.perf_counter() - started, notes
    )


def run_suites(
    config: SuiteConfig, extra_groups: tuple[FiniteGroup, ...] = ()
) -> Report:
    """Run the configured suites and merge outcomes in (suite, group) order.

    An unknown suite, or a suite or catalog group named twice, is refused before any suite runs.
    A group is compared by the canonical name of what its spec builds, so two
    spellings of one spec, such as ``cyclic(02)`` and ``cyclic(2)``, are one name.
    """
    for suite in config.suites:
        if suite not in SUITES:
            raise MalformedInputError(f"unknown suite {suite!r}")
    groups = tuple(from_spec(spec).name for spec in config.groups)
    for kind, names in (("suite", config.suites), ("group", groups)):
        for i, name in enumerate(names):
            if name in names[:i]:
                raise MalformedInputError(f"{kind} {name!r} is named twice")
    contexts = build_contexts(config, extra_groups)
    outcomes = []
    for suite in config.suites:
        _, target, max_order = SUITES[suite]
        eligible = [c for c in contexts if target and c.group.order <= max_order]
        for ctx in contexts:
            quota = -(-target // len(eligible)) if ctx in eligible else None
            outcomes.append(_run_task(suite, ctx, config, quota))
    outcomes.sort(key=lambda o: (o.suite, o.group))
    outcomes.extend(_uniformity_outcome(outcomes))
    return Report(tuple(outcomes))


def _uniformity_outcome(outcomes) -> list[SuiteOutcome]:
    """Cross-group check that equal (d, n) always produced the same formula."""
    shapes: dict[str, dict[str, str]] = {}
    for o in outcomes:
        if o.suite != "formula":
            continue
        for key, text in o.notes:
            shapes.setdefault(key, {})[o.group] = text
    if not shapes:
        return []
    passes = 0
    failures = []
    for key in sorted(shapes):
        texts = shapes[key]
        if len(set(texts.values())) == 1:
            passes += 1
        else:
            failures.append(
                Failure(
                    "formula",
                    "(cross-group)",
                    f"{key} differs between groups",
                    {
                        "kind": "uniformity",
                        "key": key,
                        "groups": sorted(texts),
                        "digests": {group: _sha256(text) for group, text in texts.items()},
                    },
                )
            )
    return [SuiteOutcome("formula", "(cross-group)", passes, tuple(failures), 0.0)]


# -- Failure replay ---------------------------------------------------------


def _elements(G: FiniteGroup, key: str, value, length: int | None = None) -> list:
    if not isinstance(value, list) or length is not None and len(value) != length:
        size = f"{length} " if length else ""
        raise MalformedInputError(f"payload field {key!r} must be a list of {size}element indices")
    for x in value:
        G._check_index(x)
    return value


def _integer(G: FiniteGroup, key: str, value, least: int | None = None) -> int:
    if type(value) is not int or least is not None and value < least:
        bound = "" if least is None else f" of at least {least}"
        raise MalformedInputError(f"payload field {key!r} must be an integer{bound}")
    return value


def _choice(G: FiniteGroup, key: str, value, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise MalformedInputError(f"payload field {key!r} must be one of {', '.join(choices)}")
    return value


# payload field -> its decoder; a check's subgroup arguments are generator lists
_FIELDS = {
    "triple": partial(_elements, length=3),
    "subset": _elements,
    "p0": lambda G, key, value: _elements(G, key, [value])[0],
    **dict.fromkeys(("i", "k", "n", "d", "quota"), partial(_integer, least=1)),
    **dict.fromkeys(("achieved", "attempts"), partial(_integer, least=0)),
    "seed": _integer,
    "check": partial(_choice, choices=_ENVELOPE_CHECKS),
    "suite": partial(_choice, choices=tuple(name for name, (_, target, _) in SUITES.items() if target)),
}


def _replay_args(G: FiniteGroup, kind: str, payload: dict) -> dict:
    """The payload's arguments to its check (or quota run), each validated and decoded."""
    if kind == "quota":
        subgroups, params = (), dict.fromkeys(_QUOTA_FIELDS, True)
    else:
        subgroups = CHECKS[kind].subgroups
        params = {p.name: p.default is p.empty for p in CHECKS[kind].params}
    given = {key: value for key, value in payload.items() if key not in ("kind", "group", "digest")}
    unknown = sorted(set(given) - set(params))
    missing = [name for name, required in params.items() if required and name not in given]
    if unknown or missing:
        raise MalformedInputError(f"{kind} payload has unknown fields {unknown} or lacks fields {missing}")
    return {
        key: G.subgroup_from_generators(_elements(G, key, value))
        if key in subgroups
        else _FIELDS[key](G, key, value)
        for key, value in given.items()
    }


def _replay_group(payload: dict, extra_groups: tuple[FiniteGroup, ...]) -> FiniteGroup:
    """The catalog group named by the payload, or the extra group matching its digest."""
    if not isinstance(payload.get("group"), str):
        raise MalformedInputError("payload field 'group' must be a group name")
    digest = payload.get("digest")
    if digest is None:
        return from_spec(payload["group"])
    for g in extra_groups:
        if group_digest(g) == digest:
            return g
    raise MalformedInputError(
        f"failure on group {payload['group']!r} needs that group among the extra groups"
    )


def replay_failure(failure: Failure, extra_groups: tuple[FiniteGroup, ...] = ()) -> bool:
    """Re-run the single check behind a failure; True when it still fails.

    ``extra_groups`` takes the same groups as :func:`run_suites`; a failure on
    one of them is matched to its group by digest.  A quota failure re-runs
    its suite's task with the payload's seed, quota and group.  A
    ``uniformity`` failure stores each group's sha256 of its formula text; it
    still fails when any of them differs from the re-emitted formula.  Any
    other payload is validated in full before its check runs.
    """
    payload = failure.payload
    kind = payload.get("kind")
    if kind == "uniformity":
        shape = re.fullmatch(r"phi\[(\d+),(\d+)\]", str(payload.get("key")))
        digests = payload.get("digests", {})
        if shape is None:
            raise MalformedInputError("payload field 'key' must read phi[d,n]")
        if not isinstance(digests, dict):
            raise MalformedInputError("payload field 'digests' must map group names to digests")
        want = _sha256(format_formula(envelope_formula(*map(int, shape.groups()))))
        return any(digest != want for digest in digests.values())
    if kind != "quota" and kind not in CHECKS:
        raise MalformedInputError(f"unknown failure kind {kind!r}")
    G = _replay_group(payload, extra_groups)
    args = _replay_args(G, kind, payload)
    if kind == "quota":
        seeded = SuiteConfig(seed=args["seed"])
        ctx = GroupContext(payload["group"], G, seeded, payload.get("digest"))
        outcome = _run_task(args["suite"], ctx, seeded, args["quota"])
        return any(f.payload["kind"] == "quota" for f in outcome.failures)
    tally = _Tally(failure.suite, payload["group"], G)
    if CHECKS[kind].block:
        return not tally.check_rows(kind, **{k: np.array([v]) for k, v in args.items()})[0]
    return tally.check(kind, **args) is False
