"""Acceptance gate: one test and one printed pass/fail line per criterion.

The criteria exercise the catalog end to end: envelope construction and its
guarantees, uniform definability of the envelope formula, the dimension
characterization of abelian groups, the commutator identity, the lemma
suites, the Fitting subgroup computed three ways, witness bounds, and
idempotence of the envelope map.
"""

from __future__ import annotations

import random
import time

import pytest

from nilenv.catalog import DEFAULT_CATALOG, from_spec
from nilenv.centralizers import c_dimension, centralizer_lattice, dimension, greedy_witness
from nilenv.envelope import build_envelope, fitting
from nilenv.formula import emit_envelope_formula, evaluate, format_formula
from nilenv.groups import ElementSet, commutator_subgroup, hall_witt_products, iter_mask, mask_of
from nilenv.series import nilpotence_class
from nilenv.suites import SuiteConfig, all_subgroups, run_suites

MAX_ORDER = 200

CRITERION_LINES: list[str] = []


def mark(number: int, ok: bool, text: str) -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}"
    CRITERION_LINES.append(line)
    print(line)
    return ok


class CatalogTraces:
    """Envelope traces for every nilpotent subgroup of every small catalog group."""

    def __init__(self) -> None:
        started = time.perf_counter()
        self.per_group = []
        for spec in DEFAULT_CATALOG:
            G = from_spec(spec)
            if G.order > MAX_ORDER:
                continue
            traces = [
                build_envelope(G, h)
                for h in all_subgroups(G)
                if nilpotence_class(h) is not None
            ]
            self.per_group.append((spec, G, dimension(G), traces))
        self.build_seconds = time.perf_counter() - started
        self.trace_count = sum(len(traces) for _, _, _, traces in self.per_group)


@pytest.fixture(scope="session")
def catalog_traces() -> CatalogTraces:
    return CatalogTraces()


def brute_dimension(G) -> int:
    masks = set()
    for subset in range(1 << G.order):
        masks.add(G.centralizer_mask(subset))
    longest = {m: 1 for m in masks}
    for m in sorted(masks, key=lambda m: m.bit_count()):
        for above in masks:
            if m != above and m & ~above == 0:
                longest[above] = max(longest[above], longest[m] + 1)
    return max(1, max(longest.values()) - 1)


def test_criterion_1_envelope_guarantees(catalog_traces):
    bad = []
    for spec, G, _, traces in catalog_traces.per_group:
        for trace in traces:
            H, D = trace.original, trace.envelope
            if H.members & ~D.members:
                bad.append((spec, H.generators, "containment"))
            if not (
                nilpotence_class(D)
                == trace.nilpotence_class
                == nilpotence_class(H)
            ):
                bad.append((spec, H.generators, "class"))
            if any(
                G.conjugate_mask(D.members, g) != D.members
                for g in iter_mask(G.normalizer_mask(H.members))
            ):
                bad.append((spec, H.generators, "normalizer invariance"))
    in_time = catalog_traces.build_seconds < 600
    ok = mark(
        1,
        not bad and in_time,
        f"envelopes for {catalog_traces.trace_count} nilpotent subgroups across "
        f"{len(catalog_traces.per_group)} groups, built in "
        f"{catalog_traces.build_seconds:.1f}s, {len(bad)} violations",
    )
    assert ok, bad[:5]


def test_criterion_2_uniform_definability(catalog_traces):
    bad = []
    shapes = {}
    for spec, G, d, traces in catalog_traces.per_group:
        for trace in traces:
            phi = emit_envelope_formula(trace, d)
            key = (d, trace.nilpotence_class)
            seen = shapes.setdefault(key, phi)
            if phi is not seen or format_formula(phi) != format_formula(seen):
                bad.append((spec, key, "shape differs"))
            if len(trace.parameters) != d * trace.nilpotence_class:
                bad.append((spec, key, "parameter width"))
            if evaluate(phi, G, trace.parameters).members != trace.envelope.members:
                bad.append((spec, trace.original.generators, "solution set"))
    ok = mark(
        2,
        not bad,
        f"{catalog_traces.trace_count} evaluations over {len(shapes)} formula "
        f"shapes, {len(bad)} violations",
    )
    assert ok, bad[:5]


def test_criterion_3_dimension_characterizes_abelian():
    bad = []
    for spec in DEFAULT_CATALOG:
        G = from_spec(spec)
        if G.order > MAX_ORDER:
            continue
        if (dimension(G) == 1) != G.is_abelian:
            bad.append(spec)
    oracle_ok = True
    for spec in ("symmetric(3)", "dihedral(4)"):
        G = from_spec(spec)
        report = c_dimension(centralizer_lattice(G))
        if not (report.length == brute_dimension(G) == 2):
            oracle_ok = False
            bad.append((spec, report.length))
    ok = mark(
        3,
        not bad and oracle_ok,
        f"dimension-1 test on the catalog plus brute-force oracle checks, "
        f"{len(bad)} violations",
    )
    assert ok, bad


def test_criterion_4_hall_witt_identity():
    bad = []
    checked = 0
    for spec in DEFAULT_CATALOG:
        G = from_spec(spec)
        rng = random.Random(f"acceptance:hallwitt:{spec}")
        for _ in range(1000):
            x, y, z = (rng.randrange(G.order) for _ in range(3))
            if hall_witt_products(G, x, y, z) != (0, 0):
                bad.append((spec, x, y, z))
            checked += 1
    ok = mark(4, not bad, f"{checked} random triples, {len(bad)} violations")
    assert ok, bad[:5]


def test_criterion_5_lemma_suites():
    config = SuiteConfig(
        suites=("hall", "threesubgroup", "bryant", "nested", "bottomchain")
    )
    report = run_suites(config)
    totals = {}
    for outcome in report.outcomes:
        totals[outcome.suite] = totals.get(outcome.suite, 0) + outcome.passes
    quotas_met = (
        totals["threesubgroup"] >= 5000
        and totals["bryant"] >= 10000
        and totals["nested"] >= 5000
    )
    ok = mark(
        5,
        report.ok and quotas_met,
        "suite passes "
        + " ".join(f"{suite}={totals[suite]}" for suite in sorted(totals))
        + f", {len(report.failures)} failures",
    )
    assert ok, report.failures[:5]


def test_criterion_6_fitting_three_ways():
    bad = []
    for spec in DEFAULT_CATALOG:
        G = from_spec(spec)
        report = fitting(G)
        F = report.fitting
        if not (
            F.members
            == report.by_envelope.members
            == report.by_engel.members
        ):
            bad.append((spec, "three-way disagreement"))
        if nilpotence_class(F) is None:
            bad.append((spec, "not nilpotent"))
        if G.order <= MAX_ORDER:
            for h in all_subgroups(G):
                if h.is_normal and nilpotence_class(h) is not None:
                    if h.members & ~F.members:
                        bad.append((spec, "normal nilpotent subgroup escapes"))

    S3 = from_spec("symmetric(3)")
    full = S3.as_subgroup()
    if fitting(S3).fitting.members != commutator_subgroup(full, full).members:
        bad.append(("symmetric(3)", "anchor"))
    S4 = from_spec("symmetric(4)")
    V = fitting(S4).fitting
    if not (V.order == 4 and V.is_normal and all(S4.mul(g, g) == 0 for g in V.elements)):
        bad.append(("symmetric(4)", "anchor"))
    D8 = from_spec("dihedral(4)")
    if fitting(D8).fitting.members != D8.full_mask:
        bad.append(("dihedral(4)", "anchor"))

    ok = mark(
        6,
        not bad,
        f"agreement, nilpotence, containment, and anchors over "
        f"{len(DEFAULT_CATALOG)} groups, {len(bad)} violations",
    )
    assert ok, bad[:5]


def test_criterion_7_witness_bound_and_triple_law():
    bad = []
    checked = 0
    for spec in DEFAULT_CATALOG:
        G = from_spec(spec)
        d = dimension(G)
        rng = random.Random(f"acceptance:witness:{spec}")
        for _ in range(200):
            k = rng.randint(1, min(G.order, 5))
            subset = ElementSet(G, mask_of(rng.sample(range(G.order), k)))
            if len(greedy_witness(subset)) > d:
                bad.append((spec, list(subset.elements), "witness bound"))
            first = G.centralizer_mask(subset.members)
            if G.centralizer_mask(G.centralizer_mask(first)) != first:
                bad.append((spec, list(subset.elements), "triple law"))
            checked += 1
    ok = mark(7, not bad, f"{checked} random subsets, {len(bad)} violations")
    assert ok, bad[:5]


def test_criterion_8_envelope_idempotence(catalog_traces):
    bad = []
    checked = 0
    for spec, G, _, traces in catalog_traces.per_group:
        seen = set()
        for trace in traces:
            D = trace.envelope
            if D.members in seen:
                continue
            seen.add(D.members)
            if build_envelope(G, D).envelope.members != D.members:
                bad.append((spec, D.generators))
            checked += 1
    ok = mark(8, not bad, f"{checked} distinct envelopes rebuilt, {len(bad)} violations")
    assert ok, bad[:5]
