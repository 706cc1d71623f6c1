"""Nilpotent envelopes: the descending tower construction and Fitting subgroups.

Given a nilpotent subgroup H of class n, the construction produces a tower
E_1 >= E_2 >= ... >= E_n of subgroups, each cut out from the previous one by
finitely many commutator conditions, and returns D = Z_n(E_n).  D contains H,
it is nilpotent of the same class, every element normalizing H normalizes D,
and it is the solution set of a uniform first-order formula whose parameters
are the recorded witnesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .centralizers import dimension, greedy_witness, minimal_centralizer_above
from .errors import (
    ArityMismatchError,
    InternalCheckError,
    NotNilpotentError,
    NotNormalError,
)
from .groups import (
    _BLOCK_PAIRS,
    ElementSet,
    FiniteGroup,
    Subgroup,
    _check_same_group,
    _prime_factors,
    _vector_mask,
    commutator_subgroup,
    is_subgroup_mask,
    iter_mask,
    mask_of,
    product_set,
    subgroup_to_dict,
)
from .series import _center, _center_mismatch, _gamma, _restricts, iterated_centralizer, nilpotence_class


@dataclass(frozen=True)
class TowerLevel:
    """One stage E_k, k its position in the tower from 1, and the witnesses that cut it out."""

    subgroup: Subgroup
    witnesses: tuple[int, ...]


@dataclass(frozen=True)
class EnvelopeTrace:
    """The construction's choices: H, H' = H * Z(E_1), and each stage with its witnesses."""

    original: Subgroup
    replaced: Subgroup
    tower: tuple[TowerLevel, ...]

    @property
    def group(self) -> FiniteGroup:
        return self.original.parent

    @property
    def nilpotence_class(self) -> int:
        """The class n of H: the tower has one stage per level."""
        return len(self.tower)

    @property
    def envelope(self) -> Subgroup:
        """D = Z_n(E_n), the trivial subgroup for an empty tower."""
        if not self.tower:
            return self.group.trivial_subgroup()
        return _center(self.tower[-1].subgroup, self.nilpotence_class)

    @property
    def parameters(self) -> tuple[int, ...]:
        """The witnesses padded to ``dimension(group)``: of the trace, only these need the lattice."""
        return padded_parameters(self, dimension(self.group)) if self.tower else ()


def _stage_cut(above: Subgroup, witnesses: int, center: Subgroup) -> int:
    """{x in above : [x, h] in center for each h in the mask ``witnesses``}."""
    return above.parent._select("comm", above.members, witnesses, center.members)


def _witnesses_cut_out(G: FiniteGroup, witnesses, target: int, within: int) -> bool:
    """Whether the centralizer of the witnesses inside the mask ``within`` is ``target``."""
    return within & G.centralizer_mask(mask_of(witnesses)) == target


def _replacement(H: Subgroup, e1: Subgroup) -> Subgroup:
    """H * Z(E_1), the subgroup the later stages are built over."""
    G = H.parent
    return product_set(H, Subgroup(G, e1.members & G.centralizer_mask(e1.members)))


def _not_normalized(trace: EnvelopeTrace, base: int) -> str | None:
    """The name of the first stage, or the envelope, that N_G(base) does not normalize."""
    G = trace.group
    norm = G.normalizer_mask(base)
    named = [(f"stage {k}", lvl.subgroup) for k, lvl in enumerate(trace.tower, 1)]
    named.append(("envelope", trace.envelope))
    return next((name for name, sub in named if norm & ~G.normalizer_mask(sub.members)), None)


def build_envelope(G: FiniteGroup, H: Subgroup) -> EnvelopeTrace:
    """Run the tower construction for a nilpotent subgroup H of G.

    Stage one takes E_1 to be the least centralizer containing H and swaps H
    for H * Z(E_1), which leaves the class unchanged.  Each later stage
    intersects finitely many commutator conditions [x, witness] in
    Z_(k-1)(E_(k-1)) chosen so that the witnesses have the same centralizer
    as the full level-k iterated centralizer of H.  The envelope is
    Z_n(E_n).  The construction's structural guarantees are re-asserted
    before returning; a violation raises :class:`InternalCheckError`.
    """
    _check_same_group(G, H)
    n = nilpotence_class(H)
    if n is None:
        raise NotNilpotentError("envelope construction needs a nilpotent subgroup")
    if n == 0:
        return EnvelopeTrace(H, H, ())

    e1, c_of_h = minimal_centralizer_above(H)
    witnesses1 = greedy_witness(c_of_h)
    if not _witnesses_cut_out(G, witnesses1, e1.members, G.full_mask):
        raise InternalCheckError("stage-one witnesses do not cut out E_1")
    replaced = _replacement(H, e1)
    if nilpotence_class(replaced) != n:
        raise InternalCheckError("central enlargement changed the nilpotence class")

    levels = [TowerLevel(e1, witnesses1)]
    for k in range(2, n + 1):
        prev = levels[-1].subgroup
        t_k = iterated_centralizer(prev, replaced, k)[k]
        wits = greedy_witness(ElementSet(G, t_k.members), within=prev)
        if not wits:
            raise InternalCheckError(f"no tower witnesses at level {k}")
        level_centralizer = prev.members & G.centralizer_mask(t_k.members)
        if not _witnesses_cut_out(G, wits, level_centralizer, prev.members):
            raise InternalCheckError(f"witnesses at level {k} have the wrong centralizer")
        mask = _stage_cut(prev, mask_of(wits), _center(prev, k - 1))
        if not is_subgroup_mask(G, mask):
            raise InternalCheckError(f"stage {k} intersection is not a subgroup")
        levels.append(TowerLevel(Subgroup(G, mask), wits))

    trace = EnvelopeTrace(H, replaced, tuple(levels))
    _assert_trace(trace)
    return trace


def _assert_trace(trace: EnvelopeTrace) -> None:
    """Envelope guarantees and tower properties, asserted at build time."""
    n = trace.nilpotence_class
    levels = trace.tower
    h_mask = trace.original.members
    hp = trace.replaced

    if h_mask & ~hp.members:
        raise InternalCheckError("replaced subgroup lost elements of H")
    for idx, lvl in enumerate(levels):
        upper_mask = levels[idx - 1].subgroup.members if idx else trace.group.full_mask
        if lvl.subgroup.members & ~upper_mask or hp.members & ~lvl.subgroup.members:
            raise InternalCheckError("tower is not a descending chain over H")

    for k, lvl in enumerate(levels, 1):
        j = _center_mismatch(iterated_centralizer(lvl.subgroup, hp, k), lvl.subgroup, k)
        if j is not None:
            raise InternalCheckError(f"level {k}: C^{j}(H) differs from Z_{j} of the stage")

    envelope = trace.envelope
    if h_mask & ~envelope.members or envelope.members & ~levels[-1].subgroup.members:
        raise InternalCheckError("envelope is not squeezed between H and E_n")
    if nilpotence_class(envelope) != n:
        raise InternalCheckError("envelope has the wrong nilpotence class")

    who = _not_normalized(trace, h_mask)
    if who is not None:
        raise InternalCheckError(f"{who} is not normalized by N_G(H)")


def padded_parameters(trace: EnvelopeTrace, d: int) -> tuple[int, ...]:
    """Flatten the tower witnesses into a d*n tuple, repeating the last witness.

    A stage with fewer than d witnesses repeats its last one, which leaves
    the defined intersection unchanged.  A stage with no witnesses at all
    (possible only at stage one, when C_G(H) is the center) pads with the
    identity, whose commutation constraint is vacuous.  A stage with more
    than d witnesses raises :class:`ArityMismatchError`.
    """
    if d < 1:
        raise ArityMismatchError("parameter width d must be at least 1")
    out: list[int] = []
    for k, lvl in enumerate(trace.tower, 1):
        wits = lvl.witnesses
        if len(wits) > d:
            raise ArityMismatchError(
                f"stage {k} has {len(wits)} witnesses, more than width {d}"
            )
        if wits:
            out.extend(wits + (wits[-1],) * (d - len(wits)))
        else:
            out.extend((0,) * d)
    return tuple(out)


@dataclass(frozen=True)
class CheckEntry:
    level: int | None
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class EnvelopeReport:
    entries: tuple[CheckEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> tuple[CheckEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)


# how many elements, and intermediate and sampled subgroups, verify_envelope draws per level
_SAMPLES_PER_LEVEL = 2


def verify_envelope(trace: EnvelopeTrace, seed: int = 0) -> EnvelopeReport:
    """Independently re-check the identities behind an envelope trace.

    Some checks re-derive a stage by another route than the construction:
    stage one as the double centralizer C(C(H)), each later stage as the cut
    over the whole level-k iterated centralizer (not only the witnesses), and
    the identities [gamma_k(E_k(h)), h] = 1 and [gamma_k(E_k), C^k(H)] = 1.
    The rest share one definition with the construction, its assertions or
    :func:`~nilenv.series.check_nested_towers`: the witnesses' centralizer,
    H * Z(E_1), towers of sampled subgroups against the stage centers and
    along sampled intermediate subgroups, and normalization by the
    normalizers of both the original and the replaced subgroup.

    A hand-made trace gets a report, not an exception: where H' escapes a
    stage, the entries on towers over H' inside it fail without being computed.
    """
    G = trace.group
    n = trace.nilpotence_class
    hp = trace.replaced
    entries: list[CheckEntry] = []
    rng = random.Random(f"{seed}:envelope-verify")

    def note(level, label, ok, detail=""):
        entries.append(CheckEntry(level, label, bool(ok), detail))

    holds = [hp.members & ~lvl.subgroup.members == 0 for lvl in trace.tower]
    if trace.tower:
        e1 = trace.tower[0].subgroup
        c_h = G.centralizer_mask(trace.original.members)
        note(1, "stage one is the double centralizer", G.centralizer_mask(c_h) == e1.members)
        note(1, "stage-one witnesses cut out the stage",
             _witnesses_cut_out(G, trace.tower[0].witnesses, e1.members, G.full_mask))
        # H * Z(E_1) is a subgroup when H lies in E_1
        note(1, "replacement only adds the stage-one center",
             trace.original.members & ~e1.members == 0
             and hp.members == _replacement(trace.original, e1).members)

    for k in range(2, n + 1):
        lvl = trace.tower[k - 1]
        prev = trace.tower[k - 2].subgroup
        prev_center = _center(prev, k - 1)
        inside = holds[k - 2]
        t_k = iterated_centralizer(prev, hp, k)[k] if inside else None
        note(k, "witnesses lie in the level-k iterated centralizer",
             inside and mask_of(lvl.witnesses) & ~t_k.members == 0)
        note(k, "witnesses have the same relative centralizer as the full level",
             inside and _witnesses_cut_out(
                 G, lvl.witnesses, prev.members & G.centralizer_mask(t_k.members), prev.members
             ))

        note(k, "stage equals the intersection over the whole level",
             inside and _stage_cut(prev, t_k.members, prev_center) == lvl.subgroup.members)

        t_elems = list(iter_mask(t_k.members)) if inside else []
        picked = t_elems if len(t_elems) <= _SAMPLES_PER_LEVEL else rng.sample(t_elems, _SAMPLES_PER_LEVEL)
        for h in picked:
            ekh = Subgroup(G, _stage_cut(prev, 1 << h, prev_center))
            gamma = _gamma(ekh, k)
            ok = commutator_subgroup(gamma, ElementSet(G, 1 << h | 1)).members == 1
            note(k, "commutators of gamma_k of a one-witness stage with its witness vanish",
                 ok, detail=f"h={h}")

        gamma_ek = _gamma(lvl.subgroup, k)
        note(k, "gamma_k of the stage centralizes the whole level",
             inside and commutator_subgroup(gamma_ek, t_k).members == 1)

        for _ in range(_SAMPLES_PER_LEVEL):
            extra = rng.choice(list(iter_mask(prev.members)))
            p = Subgroup(G, G.closure_mask(hp.members | 1 << extra))
            ok = inside and _restricts(iterated_centralizer(p, hp, k), iterated_centralizer(prev, hp, k), p.members)
            note(k, "relative towers restrict along sampled intermediate subgroups",
                 ok, detail=f"extra={extra}")

    for k, (lvl, inside) in enumerate(zip(trace.tower, holds), 1):
        note(k, "stage contains the replaced subgroup", inside)
        e_k = lvl.subgroup
        for _ in range(_SAMPLES_PER_LEVEL):
            extra = rng.choice(list(iter_mask(e_k.members)))
            p = Subgroup(G, G.closure_mask(hp.members | 1 << extra))
            ok = inside and _center_mismatch(iterated_centralizer(e_k, p, k), e_k, k) is None
            note(k, "iterated centralizers of sampled subgroups equal the stage centers",
                 ok, detail=f"extra={extra}")

    note(n, "envelope contains the original subgroup",
         trace.original.members & ~trace.envelope.members == 0)
    note(n, "envelope class matches", nilpotence_class(trace.envelope) == n)

    for who, base in (("original", trace.original), ("replaced", hp)):
        note(None, f"tower and envelope are normalized by the normalizer of the {who} subgroup",
             _not_normalized(trace, base.members) is None)

    return EnvelopeReport(tuple(entries))


def trace_to_dict(trace: EnvelopeTrace) -> dict:
    """A JSON-ready description of an envelope construction."""
    return {
        "group": trace.group.name,
        "order": trace.group.order,
        "original": subgroup_to_dict(trace.original),
        "replaced": subgroup_to_dict(trace.replaced),
        "nilpotence_class": trace.nilpotence_class,
        "tower": [
            {
                "level": k,
                "subgroup": subgroup_to_dict(lvl.subgroup),
                "order": lvl.subgroup.order,
                "witnesses": list(lvl.witnesses),
            }
            for k, lvl in enumerate(trace.tower, 1)
        ],
        "envelope": subgroup_to_dict(trace.envelope),
        "envelope_order": trace.envelope.order,
        "parameters": list(trace.parameters),
    }


def envelope_of_normal(G: FiniteGroup, H: Subgroup) -> EnvelopeTrace:
    """Envelope of a normal nilpotent subgroup; the result is checked normal."""
    _check_same_group(G, H)
    if not H.is_normal:
        raise NotNormalError("subgroup is not normal in its parent")
    trace = build_envelope(G, H)
    if not trace.envelope.is_normal:
        raise InternalCheckError("envelope of a normal subgroup came out non-normal")
    return trace


# -- Fitting subgroup ----------------------------------------------------


def engel_iterate(G: FiniteGroup, g: int, x: int) -> int | None:
    """Least i with [g, x, x, ..., x] (i copies of x) equal to the identity.

    Returns None when the iteration cycles without reaching the identity.
    None is definitive: within order(G) steps the sequence either reaches
    the identity or repeats.
    """
    G._check_index(g)
    G._check_index(x)
    c = g
    if c == 0:
        return 0
    seen = {c}
    for i in range(1, G.order + 1):
        c = G._comm(c, x)
        if c == 0:
            return i
        if c in seen:
            return None
        seen.add(c)
    return None


def p_core(G: FiniteGroup, p: int) -> Subgroup:
    """The largest normal p-subgroup: elements whose normal closure is a p-group.

    The normal closure of x is the subgroup generated by its conjugacy
    class, and conjugates have the same one.  So the p-core is the union of
    the classes whose closure is a p-group, one closure per class.
    """
    mask = 0
    for cls in G.conjugacy_classes():
        if _prime_factors(G.closure_mask(cls).bit_count()) in ((), (p,)):
            mask |= cls
    if not is_subgroup_mask(G, mask):
        raise InternalCheckError(f"{p}-core candidate set is not a subgroup")
    return Subgroup(G, mask)


def _engel_set(G: FiniteGroup) -> tuple[int, int]:
    """(mask of the bounded left Engel elements, largest Engel bound).

    Runs the image-set chains of :func:`fitting` once per conjugacy class,
    for its least element: [y, x^g] = [y^(g^-1), x]^g, so S_k(x^g) = S_k(x)^g
    and conjugates are Engel together, with the same bound.  ``label[x]`` is
    the least conjugate of x, found by spreading minima along conjugation by
    the generators of G until nothing changes, not read from
    :meth:`~nilenv.groups.FiniteGroup.conjugacy_classes`, which (i) uses.
    The chains run for a block of x at a time, with block * order at most
    ``_BLOCK_PAIRS``.  Row b of ``image`` holds S_k for x = xs[b] as a bool
    vector, and ``step[b, y]`` is [y, x].  A row leaves ``live`` once it is
    {1}, or once a step leaves it unchanged.
    """
    n = G.order
    everything = np.arange(n)
    moves = [G.conjugation(g) for g in G.as_subgroup().generators]
    label = everything
    while True:
        least = label
        for move in moves:
            least = np.minimum(least, least[move])
        if np.array_equal(least, label):
            break
        label = least
    classes = np.flatnonzero(label == everything)
    engel = np.zeros(n, dtype=bool)
    bound = 0
    block = max(1, _BLOCK_PAIRS // n)
    for start in range(0, len(classes), block):
        xs = classes[start : start + block]
        step = G._pair_values("comm", everything, xs[:, None])
        image = np.ones((len(xs), n), dtype=bool)
        live = np.arange(len(xs))
        steps = 0
        while live.size:
            done = ~image[live, 1:].any(axis=1)
            if done.any():
                engel[xs[live[done]]] = True
                bound = max(bound, steps)
                live = live[~done]
            rows, ys = np.nonzero(image[live])
            nxt = np.zeros((len(live), n), dtype=bool)
            nxt[rows, step[live[rows], ys]] = True
            moved = (nxt != image[live]).any(axis=1)
            image[live] = nxt
            live = live[moved]
            steps += 1
    return _vector_mask(engel[label]), bound


@dataclass(frozen=True)
class FittingReport:
    """The Fitting subgroup computed three independent ways; ``fitting`` is the p-cores' product."""

    fitting: Subgroup
    by_envelope: Subgroup
    by_engel: Subgroup
    engel_bound_n: int


def fitting(G: FiniteGroup) -> FittingReport:
    """The Fitting subgroup, cross-checked three ways.

    (i) the product of the p-cores over primes dividing the order, (ii) the
    envelope of that product, which must reproduce it, and (iii) the set of
    bounded left Engel elements.  Disagreement raises
    :class:`InternalCheckError`.

    The Engel set does not use (i).  For each x it iterates image sets:
    S_0 = G and S_{k+1} = {[y, x] : y in S_k}, so S_k holds every
    [g, x, ..., x] with k copies of x.  S_1 <= S_0 = G, so by induction
    S_{k+1} <= S_k: the chain is nested, and it stops when it stabilizes.
    The identity is fixed by y -> [y, x], so x is a bounded Engel element
    exactly when the chain reaches {1}, and the least such k is the largest
    :func:`engel_iterate` over g, which ``engel_bound_n`` maximizes over x.
    :func:`_engel_set` runs these chains once per conjugacy class, since
    conjugates are Engel together, with the same bound.
    """
    by_cores = G.trivial_subgroup()
    for p in _prime_factors(G.order):
        by_cores = product_set(by_cores, p_core(G, p))

    if nilpotence_class(by_cores) is None:
        raise InternalCheckError("product of p-cores is not nilpotent")
    trace = build_envelope(G, by_cores)
    by_envelope = trace.envelope

    engel_mask, bound = _engel_set(G)
    if not is_subgroup_mask(G, engel_mask):
        raise InternalCheckError("bounded Engel set is not a subgroup")
    by_engel = Subgroup(G, engel_mask)

    if not by_cores.members == by_envelope.members == by_engel.members:
        raise InternalCheckError("fitting computations disagree")
    return FittingReport(by_cores, by_envelope, by_engel, bound)
