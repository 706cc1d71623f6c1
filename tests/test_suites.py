"""Tests for the property-suite runner, subgroup pools, and failure replay."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from collections import Counter
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from test_centralizers import D8_WR_C2

import nilenv.suites as suites
from nilenv.catalog import DEFAULT_CATALOG, dihedral, from_spec, symmetric
from nilenv.errors import InternalCheckError, MalformedInputError
from nilenv.formula import envelope_formula, format_formula
from nilenv.groups import FiniteGroup, Subgroup, group_from_dict, group_to_dict, hall_witt_products
from nilenv.suites import (
    ALL_SUITES,
    CHECKS,
    Failure,
    GroupContext,
    SuiteConfig,
    SuiteOutcome,
    _uniformity_outcome,
    all_subgroups,
    build_contexts,
    group_digest,
    replay_failure,
    run_suites,
    sample_subgroups,
)

SMALL_CONFIG = SuiteConfig(groups=("symmetric(3)", "dihedral(4)"))

SUBGROUP_COUNTS = {
    "symmetric(3)": 6,
    "dihedral(4)": 10,
    "quaternion": 6,
    "alternating(4)": 10,
    "symmetric(4)": 30,
    "alternating(5)": 59,
    "unitriangular(3)": 19,
    "dihedral(8)": 19,
    "product(dihedral(4), symmetric(3))": 120,
    "symmetric(5)": 156,
    "unitriangular(7)": 67,
}


def is_cyclic(sub):
    G = sub.parent
    return any(G.closure_mask(1 << g | 1) == sub.members for g in sub.elements)


def test_all_suites_names():
    assert ALL_SUITES == (
        "hallwitt",
        "threesubgroup",
        "hall",
        "bryant",
        "nested",
        "bottomchain",
        "dimension",
        "envelope",
        "formula",
        "fitting",
    )
    assert SuiteConfig().suites == ALL_SUITES


def test_all_subgroups_counts():
    for spec, count in SUBGROUP_COUNTS.items():
        assert len(all_subgroups(from_spec(spec))) == count


def test_all_subgroups_sorted_unique_and_closed():
    G = from_spec("symmetric(4)")
    subs = all_subgroups(G)
    members = [s.members for s in subs]
    assert len(set(members)) == len(members)
    keys = [(s.order, s.members) for s in subs]
    assert keys == sorted(keys)
    assert subs[0].order == 1 and subs[-1].order == G.order
    for s in subs:
        assert G.closure_mask(s.members) == s.members


def join_closure(G):
    """Every subgroup mask, sorted, by closing each new subgroup with every known one.

    The pairwise join that :func:`all_subgroups` replaced, kept as its
    differential reference.
    """
    masks = {1}
    for g in range(G.order):
        masks.add(G.closure_mask(1 << g | 1))
    frontier = list(masks)
    known = set(masks)
    while frontier:
        fresh = []
        for a in frontier:
            for b in known.copy():
                joined = G.closure_mask(a | b)
                if joined not in known:
                    known.add(joined)
                    fresh.append(joined)
        frontier = fresh
    return tuple(sorted(known, key=lambda m: (m.bit_count(), m)))


def relabelled(spec, seed):
    """The catalog group ``spec`` from a Cayley table with its elements renamed at random."""
    table = from_spec.__wrapped__(spec)._array.tolist()
    perm = list(range(len(table)))
    random.Random(seed).shuffle(perm)
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[perm[a]][perm[b]] = perm[c]
    return FiniteGroup.from_cayley_table(out, name=f"relabelled {spec}")


relabelled_symmetric5 = partial(relabelled, "symmetric(5)", 5)


def conjugated_symmetric5():
    """symmetric(5) from conjugated generating permutations, listed in reverse."""
    sigma = [3, 0, 4, 1, 2]
    gens = []
    for g in reversed(group_to_dict(symmetric(5))["generators"]):
        h = [0] * 5
        for i, gi in enumerate(g):
            h[sigma[i]] = sigma[gi]
        gens.append(h)
    return FiniteGroup.from_permutations(5, gens, name="conjugated symmetric(5)")


DIFFERENTIAL_GROUPS = [
    *((spec, partial(from_spec.__wrapped__, spec)) for spec in DEFAULT_CATALOG),
    *(
        (spec, partial(from_spec.__wrapped__, spec))
        for spec in (
            "symmetric(5)",
            "dihedral(32)",
            "product(symmetric(3),symmetric(3))",
            "product(unitriangular(3),symmetric(3))",
        )
    ),
    ("relabelled symmetric(5)", relabelled_symmetric5),
    ("relabelled unitriangular(7)", partial(relabelled, "unitriangular(7)", 7)),
    ("conjugated symmetric(5)", conjugated_symmetric5),
]


@pytest.mark.parametrize(
    "build", [b for _, b in DIFFERENTIAL_GROUPS], ids=[n for n, _ in DIFFERENTIAL_GROUPS]
)
def test_all_subgroups_matches_the_pairwise_join(build):
    G = build()
    got = tuple(s.members for s in all_subgroups(G))
    assert got == join_closure(build())


def test_differential_presentations_of_symmetric5_renumber_elements():
    table = symmetric(5)._array.tolist()
    assert relabelled_symmetric5()._array.tolist() != table
    assert conjugated_symmetric5()._array.tolist() != table


def conjugacy_class_count(G, masks) -> int:
    """Classes of the subgroups ``masks`` under conjugation, which must permute them."""
    gens = G.as_subgroup().generators
    seen = set()
    classes = 0
    for m in masks:
        if m in seen:
            continue
        classes += 1
        seen.add(m)
        orbit = [m]
        for k in orbit:
            for g in gens:
                c = G.conjugate_mask(k, g)
                if c not in seen:
                    seen.add(c)
                    orbit.append(c)
    assert seen == set(masks)
    return classes


class _CountingMemo(dict):
    """A memo dict that counts the writes to each key."""

    def __init__(self):
        super().__init__()
        self.writes = Counter()

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


def test_suites_write_each_memo_key_once():
    groups = (symmetric(3), dihedral(4), symmetric(4))
    for G in groups:
        G._memo = _CountingMemo()
    report = run_suites(replace(SMALL_CONFIG, groups=()), extra_groups=groups)
    assert report.ok
    for G in groups:
        writes = G._memo.writes
        # every entry was stored by item assignment, under a tuple led by its family
        assert set(writes) == set(G._memo)
        assert all(isinstance(key, tuple) and isinstance(key[0], str) for key in writes)
        # towers are memoized too, one immutable entry per level
        assert any(key[0] == "tower" for key in writes)
        assert [key for key, count in writes.items() if count != 1] == []


@pytest.mark.parametrize("spec, most", [("unitriangular(7)", 0), ("symmetric(5)", 120)])
def test_all_subgroups_builds_few_closures(spec, most, monkeypatch):
    """Closure-type joins, one Dimino step each: none in a solvable group, where all are products H<c>."""
    G = from_spec.__wrapped__(spec)
    # warm the solvability test and G's generators, so every step counted is a join
    suites._is_solvable(G)
    G.as_subgroup().generators
    steps = Counter()
    step = FiniteGroup._dimino_step

    def counting_step(self, *args):
        steps["dimino"] += 1
        return step(self, *args)

    monkeypatch.setattr(FiniteGroup, "_dimino_step", counting_step)
    assert len(all_subgroups(G)) == SUBGROUP_COUNTS[spec]
    assert steps["dimino"] <= most


def test_all_subgroups_memo_adds_one_normalizer_per_class_and_no_closure():
    """No join goes through ``closure_mask``: products H<c> and Dimino steps leave no closure entry."""
    for spec, classes in (("symmetric(5)", 19), ("unitriangular(7)", 19), ("symmetric(4)", 11)):
        G = from_spec.__wrapped__(spec)
        # warm the solvability test and G's generators, so every entry counted is the enumeration's
        suites._is_solvable(G)
        gens = G.as_subgroup().generators
        before = set(G._memo)
        masks = [s.members for s in all_subgroups(G)]
        added = Counter(key[0] for key in G._memo if key not in before)
        # a ("norm", H) entry per class but G's, and a conjugation per generator of G
        assert added == {"norm": classes - 1, "conjugation": len(gens), "allsubs": 1}, spec
        assert conjugacy_class_count(G, masks) == classes


def test_is_solvable():
    assert [spec for spec in DEFAULT_CATALOG if not suites._is_solvable(from_spec(spec))] == ["alternating(5)"]
    for spec in ("symmetric(5)", "symmetric(6)", "alternating(6)"):
        assert not suites._is_solvable(from_spec(spec))


def test_solvable_rule_misses_the_subgroups_over_a_perfect_one(monkeypatch):
    """Joining only inside normalizers loses A5 and S5 from symmetric(5)."""
    monkeypatch.setattr(suites, "_is_solvable", lambda G: True)
    orders = [s.order for s in all_subgroups(from_spec.__wrapped__("symmetric(5)"))]
    assert len(orders) == SUBGROUP_COUNTS["symmetric(5)"] - 2
    assert 60 not in orders and 120 not in orders


# B4 = C2 wr S4, the signed permutations of four points i and i+4
B4 = [[1, 2, 3, 0, 5, 6, 7, 4], [1, 0, 2, 3, 5, 4, 6, 7], [4, 1, 2, 3, 0, 5, 6, 7]]
LARGE_SOLVABLE = [
    ("D8 wr C2", partial(FiniteGroup.from_permutations, 8, D8_WR_C2), 576),
    ("B4", partial(FiniteGroup.from_permutations, 8, B4), 1659),
    (
        "product(symmetric(4),symmetric(3))",
        partial(from_spec.__wrapped__, "product(symmetric(4),symmetric(3))"),
        372,
    ),
]


@pytest.mark.parametrize(
    "build, count", [(b, c) for _, b, c in LARGE_SOLVABLE], ids=[n for n, _, _ in LARGE_SOLVABLE]
)
def test_solvable_rule_matches_the_full_rule(build, count, monkeypatch):
    """Too large for the pairwise join: the full rule, gate forced off, is the reference."""
    G = build()
    assert suites._is_solvable(G)
    got = tuple(s.members for s in all_subgroups(G))
    assert len(got) == count
    monkeypatch.setattr(suites, "_is_solvable", lambda G: False)
    assert got == tuple(s.members for s in all_subgroups(build()))


def test_symmetric6_has_1455_subgroups_in_56_classes():
    G = symmetric(6)
    subs = all_subgroups(G)
    masks = [s.members for s in subs]
    assert len(masks) == 1455
    assert masks == sorted(set(masks), key=lambda m: (m.bit_count(), m))
    assert conjugacy_class_count(G, masks) == 56


def test_sample_subgroups_covers_basic_shapes():
    G = from_spec("symmetric(4)")
    sample = sample_subgroups(G, 50, 0)
    assert any(s.order == 1 for s in sample)
    assert any(s.order > 1 and is_cyclic(s) for s in sample)
    assert any(not is_cyclic(s) for s in sample)
    assert sample_subgroups(G, 0, 0) == []


def test_sample_subgroups_deterministic():
    G = from_spec("symmetric(4)")
    first = [s.members for s in sample_subgroups(G, 40, 7)]
    second = [s.members for s in sample_subgroups(G, 40, 7)]
    assert first == second
    from nilenv.catalog import symmetric

    fresh = [s.members for s in sample_subgroups(symmetric(4), 40, 7)]
    assert fresh == first


def test_group_context_exhaustive():
    G = from_spec("symmetric(4)")
    ctx = GroupContext("symmetric(4)", G, SuiteConfig())
    assert ctx.exhaustive
    assert ctx.subgroups == all_subgroups(G)
    assert set(ctx.nilpotent) <= set(ctx.subgroups)
    assert ctx.dimension == 4
    assert ctx.envelope_pool() == ctx.nilpotent


def test_group_context_sampled(monkeypatch):
    G = from_spec("unitriangular(7)")
    monkeypatch.setattr(suites, "ENVELOPE_SAMPLES", 5)
    ctx = GroupContext("unitriangular(7)", G, SuiteConfig())
    assert not ctx.exhaustive
    assert ctx.subgroups[0].order == 1
    assert ctx.subgroups[-1].order == G.order
    keys = [(s.order, s.members) for s in ctx.subgroups]
    assert keys == sorted(keys)
    pool = ctx.envelope_pool()
    assert len(pool) <= 5 + 1
    assert any(s.order == G.order for s in pool)


def test_build_contexts_extra_groups():
    from nilenv.catalog import cyclic

    extra = cyclic(10)
    contexts = build_contexts(SMALL_CONFIG, (extra,))
    labels = [c.label for c in contexts]
    assert labels == ["symmetric(3)", "dihedral(4)", extra.name]
    assert contexts[-1].group is extra


def test_empty_suite_set_gives_empty_report():
    report = run_suites(replace(SMALL_CONFIG, suites=()))
    assert report.outcomes == ()
    assert report.ok
    assert report.total_passes == 0
    assert report.stable_text() == "total passes=0 failures=0"


def test_unknown_suite_name_rejected():
    with pytest.raises(MalformedInputError, match="unknown suite"):
        run_suites(replace(SMALL_CONFIG, suites=("hallwitt", "bogus")))
    with pytest.raises(MalformedInputError, match="unknown suite"):
        run_suites(replace(SMALL_CONFIG, suites=("bogus",)))


def test_reduced_run_is_deterministic():
    first = run_suites(SMALL_CONFIG)
    second = run_suites(SMALL_CONFIG)
    assert first.ok
    assert first.stable_text() == second.stable_text()
    assert "elapsed=" in first.format_text()
    assert "elapsed=" not in first.stable_text()
    assert first.total_passes == sum(o.passes for o in first.outcomes)
    assert first.failures == ()
    assert first.total_passes == 22986
    assert (
        hashlib.sha256(first.stable_text().encode()).hexdigest()
        == "7636dad77554b1ea230f2914c2a631c9c723849be6945afabad03a1e84932085"
    )


def test_report_notes_and_cross_group_line():
    text = run_suites(SMALL_CONFIG).stable_text()
    assert "suite=formula group=(cross-group)" in text
    assert "note phi[" in text
    assert "note engel-bound:" in text
    for suite in ALL_SUITES:
        for group in SMALL_CONFIG.groups:
            assert f"suite={suite} group={group} " in text


def test_run_suite_single():
    outcomes = run_suites(replace(SMALL_CONFIG, suites=("dimension",))).outcomes
    assert [o.group for o in outcomes] == ["dihedral(4)", "symmetric(3)"]
    assert all(o.suite == "dimension" for o in outcomes)
    assert all(not o.failures for o in outcomes)


def test_quota_suites_skip_oversized_groups():
    config = SuiteConfig(groups=("dihedral(4)", "unitriangular(5)"), suites=("bryant",))
    report = run_suites(config)
    by_group = {o.group: o for o in report.outcomes}
    assert by_group["dihedral(4)"].passes == 10000
    assert by_group["unitriangular(5)"].passes == 0
    assert report.ok


def _renamed(G, name):
    return group_from_dict({**group_to_dict(G), "name": name})


def test_extra_groups_sharing_a_name_keep_their_own_quotas(monkeypatch):
    extra = (_renamed(dihedral(4), "X"), _renamed(symmetric(5), "X"))
    monkeypatch.setattr(suites, "MAX_EXHAUSTIVE_ORDER", 10)
    config = SuiteConfig(groups=(), suites=("bryant",))
    assert [c.label for c in build_contexts(config, extra)] == ["X", "X#2"]
    report = run_suites(config, extra_groups=extra)
    assert [(o.group, o.passes) for o in report.outcomes] == [("X", 10000), ("X#2", 0)]
    assert report.ok


@pytest.mark.parametrize(
    "field, names, message",
    [
        ("suites", ("hallwitt", "bryant", "hallwitt"), "suite 'hallwitt' is named twice"),
        ("groups", ("quaternion", "symmetric(3)", "quaternion"), "group 'quaternion' is named twice"),
        # two spellings of one catalog spec name one group
        ("groups", ("cyclic(02)", "cyclic(2)"), "group 'cyclic(2)' is named twice"),
        (
            "groups",
            ("product(cyclic(2), cyclic(4))", "product(cyclic(2),cyclic(4))"),
            "group 'product(cyclic(2),cyclic(4))' is named twice",
        ),
    ],
    ids=["suite", "group", "group-spelling", "product-spelling"],
)
def test_a_name_given_twice_is_refused_before_any_work(field, names, message, monkeypatch):
    monkeypatch.setattr(suites, "build_contexts", None)
    with pytest.raises(MalformedInputError, match=re.escape(message)):
        run_suites(replace(SMALL_CONFIG, **{field: names}))


def test_failure_payload_text_round_trips():
    failure = Failure("hall", "dihedral(4)", "demo", {"kind": "hall", "i": 1})
    text = failure.payload_text()
    assert json.loads(text) == failure.payload
    assert text == json.dumps(failure.payload, sort_keys=True)


HEALTHY_PAYLOADS = [
    {"kind": "hallwitt", "group": "symmetric(3)", "triple": [1, 2, 3]},
    {
        "kind": "threesubgroup",
        "group": "symmetric(3)",
        "k": [2],
        "l": [2],
        "m": [2],
        "n": [2],
    },
    {"kind": "hall", "group": "dihedral(4)", "subgroup": [1, 4], "i": 1, "k": 2},
    {"kind": "bryant", "group": "dihedral(4)", "x": [1], "p": [1], "k": 1},
    {"kind": "nested", "group": "dihedral(4)", "a": [2], "b": [1], "c": [1, 4], "n": 1},
    {"kind": "bottomchain", "group": "dihedral(4)", "subgroup": [1]},
    {"kind": "dimension-abelian", "group": "symmetric(3)"},
    {"kind": "greedy-bound", "group": "dihedral(4)", "subset": [1, 4]},
    {"kind": "triple-law", "group": "dihedral(4)", "subset": [3]},
    {"kind": "subgroup-dimension", "group": "symmetric(4)", "subgroup": [1]},
    {"kind": "least-centralizer-normality", "group": "dihedral(4)", "subgroup": [1]},
    {"kind": "envelope", "group": "alternating(4)", "subgroup": [1], "check": "containment"},
    {"kind": "envelope", "group": "alternating(4)", "subgroup": [1], "check": "class"},
    {"kind": "envelope", "group": "alternating(4)", "subgroup": [1], "check": "normality"},
    {"kind": "envelope", "group": "alternating(4)", "subgroup": [1], "check": "verify"},
    {"kind": "envelope", "group": "alternating(4)", "subgroup": [1], "check": "idempotence"},
    {"kind": "formula-solution", "group": "dihedral(4)", "subgroup": [2], "d": 2},
    {"kind": "formula-centralizer", "group": "symmetric(3)", "p0": 3},
    {"kind": "fitting-agreement", "group": "symmetric(4)"},
    {"kind": "fitting-normal", "group": "symmetric(4)"},
    {"kind": "fitting-containment", "group": "symmetric(3)", "subgroup": [2]},
    {
        "kind": "quota",
        "group": "symmetric(3)",
        "suite": "threesubgroup",
        "quota": 5,
        "achieved": 0,
        "attempts": 300,
        "seed": 0,
    },
    {
        "kind": "uniformity",
        "key": "phi[2,3]",
        "groups": ["dihedral(4)", "symmetric(3)"],
    },
]


def test_replay_healthy_payloads_report_no_failure():
    for payload in HEALTHY_PAYLOADS:
        failure = Failure("synthetic", payload.get("group", "?"), "demo", payload)
        assert replay_failure(failure) is False, payload


@pytest.mark.parametrize("element", [999, -1, True])
@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "hall", "group": "dihedral(4)", "i": 1, "k": 2},
        {"kind": "greedy-bound", "group": "dihedral(4)"},
        {"kind": "triple-law", "group": "dihedral(4)"},
    ],
)
def test_replay_rejects_bad_element_indices(payload, element):
    key = "subgroup" if payload["kind"] == "hall" else "subset"
    payload = {**payload, key: [1, element]}
    failure = Failure("synthetic", payload["group"], "demo", payload)
    with pytest.raises(MalformedInputError, match="is not an element index"):
        replay_failure(failure)


_HALL = {"kind": "hall", "group": "dihedral(4)", "subgroup": [1, 4], "i": 1, "k": 2}
_QUOTA = next(p for p in HEALTHY_PAYLOADS if p["kind"] == "quota")


@pytest.mark.parametrize(
    "payload, message",
    [
        ({**_HALL, "subgroup": 7}, "'subgroup' must be a list of element indices"),
        ({**_HALL, "i": "x"}, "'i' must be an integer of at least 1"),
        ({**_HALL, "k": True}, "'k' must be an integer of at least 1"),
        ({k: v for k, v in _HALL.items() if k != "i"}, r"lacks fields \['i'\]"),
        ({k: v for k, v in _HALL.items() if k != "k"}, r"lacks fields \['k'\]"),
        ({**_HALL, "extra": 1}, r"unknown fields \['extra'\]"),
        ({**_HALL, "group": 3}, "'group' must be a group name"),
        (
            {"kind": "greedy-bound", "group": "dihedral(4)", "subset": 3},
            "'subset' must be a list of element indices",
        ),
        (
            {"kind": "hallwitt", "group": "symmetric(3)", "triple": [1, 2]},
            "'triple' must be a list of 3 element indices",
        ),
        ({k: v for k, v in _QUOTA.items() if k != "seed"}, r"lacks fields \['seed'\]"),
        ({**_QUOTA, "suite": "hall"}, "'suite' must be one of"),
        (
            {"kind": "envelope", "group": "alternating(4)", "subgroup": [1], "check": "bogus"},
            "'check' must be one of containment, class",
        ),
        ({"kind": "uniformity", "key": "phi[2]"}, r"'key' must read phi\[d,n\]"),
        ({"kind": "uniformity", "key": "phi[2,2]", "digests": 5}, "'digests' must map"),
        (
            {"kind": "dimension-abelian", "group": "dihedral(4)", "node_cap": 5},
            r"unknown fields \['node_cap'\]",
        ),
    ],
)
def test_replay_rejects_malformed_payloads(payload, message):
    failure = Failure("synthetic", "?", "demo", payload)
    with pytest.raises(MalformedInputError, match=message):
        replay_failure(failure)


def test_replay_detects_genuine_violation():
    payload = {"kind": "fitting-containment", "group": "symmetric(3)", "subgroup": [1, 2]}
    failure = Failure("fitting", "symmetric(3)", "demo", payload)
    assert replay_failure(failure) is True


def test_fitting_normal_check_fails_on_a_non_normal_subgroup(monkeypatch):
    G = symmetric(3)
    report = SimpleNamespace(fitting=next(h for h in all_subgroups(G) if h.order == 2))
    monkeypatch.setattr(suites, "_fitting", lambda group: report)
    assert CHECKS["fitting-normal"].fn(G) is False


def test_uniformity_replay_compares_formula_digests():
    (legacy,) = [p for p in HEALTHY_PAYLOADS if p["kind"] == "uniformity"]
    emitted = hashlib.sha256(format_formula(envelope_formula(2, 3)).encode()).hexdigest()
    healthy = {**legacy, "digests": {"dihedral(4)": emitted, "symmetric(3)": emitted}}
    forged = {**legacy, "digests": {"dihedral(4)": emitted, "symmetric(3)": "0" * 64}}
    for payload, still_fails in ((legacy, False), (healthy, False), (forged, True)):
        failure = Failure("formula", "(cross-group)", "demo", payload)
        assert replay_failure(failure) is still_fails


def test_uniformity_failure_stores_formula_digests():
    outcome = _uniformity_outcome(
        [
            SuiteOutcome("formula", "dihedral(4)", 1, (), 0.0, (("phi[2,2]", "x = 1"),)),
            SuiteOutcome("formula", "symmetric(3)", 1, (), 0.0, (("phi[2,2]", "x = x"),)),
        ]
    )
    (failure,) = outcome[0].failures
    assert failure.payload["digests"] == {
        "dihedral(4)": hashlib.sha256(b"x = 1").hexdigest(),
        "symmetric(3)": hashlib.sha256(b"x = x").hexdigest(),
    }
    assert replay_failure(failure) is True


def test_replay_unknown_kind_rejected():
    failure = Failure("synthetic", "?", "demo", {"kind": "flux"})
    with pytest.raises(MalformedInputError, match="unknown failure kind"):
        replay_failure(failure)


def _hashable(args):
    return tuple(
        sorted(
            (key, value.members if isinstance(value, Subgroup) else json.dumps(value))
            for key, value in args.items()
        )
    )


def _wrap_checks(monkeypatch, calls, fail=frozenset(), fail_rows=frozenset()):
    """Record every registered check call as (kind, args); fail the kinds in ``fail``.

    A block check records one call per row, and also fails each row whose
    tuple is in ``fail_rows``.
    """
    for kind, check in list(CHECKS.items()):

        def fn(G, _kind=kind, _real=check.fn, **args):
            calls.append((_kind, _hashable(args)))
            return False if _kind in fail else _real(G, **args)

        def block_fn(G, _kind=kind, _real=check.fn, **block):
            ((key, rows),) = block.items()
            ok = _real(G, **block)
            for i, row in enumerate(rows.tolist()):
                calls.append((_kind, _hashable({key: row})))
                ok[i] &= _kind not in fail and tuple(row) not in fail_rows
            return ok

        monkeypatch.setitem(CHECKS, kind, replace(check, fn=block_fn if check.block else fn))


@pytest.fixture(scope="module")
def suite_of_kind():
    """The suite that runs each check kind, observed on passing reduced runs."""
    out = {}
    for suite in ALL_SUITES:
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            _wrap_checks(mp, calls)
            assert run_suites(replace(SMALL_CONFIG, suites=(suite,))).ok
        for kind in {kind for kind, _ in calls}:
            assert out.setdefault(kind, suite) == suite
    return out


def test_registry_matches_the_kinds_the_suites_check(suite_of_kind):
    assert set(suite_of_kind) == set(CHECKS)


@pytest.mark.parametrize("kind", sorted(CHECKS))
def test_failing_check_is_reported_and_replays(kind, suite_of_kind, monkeypatch):
    calls = []
    _wrap_checks(monkeypatch, calls, fail={kind})
    config = replace(SMALL_CONFIG, suites=(suite_of_kind[kind],), seed=3)
    failures = [f for f in run_suites(config).failures if f.payload["kind"] == kind]
    assert failures
    run_args = {args for called, args in calls if called == kind}
    del calls[:]
    assert replay_failure(failures[0]) is True
    # replay passes the run's own arguments, seed included
    assert len(calls) == 1 and calls[0][0] == kind and calls[0][1] in run_args


def test_failure_on_extra_group_replays_by_digest(monkeypatch):
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    k4 = FiniteGroup.from_cayley_table(table, name="k4")
    config = replace(SMALL_CONFIG, groups=(), suites=("hallwitt",))
    with pytest.MonkeyPatch.context() as mp:
        _wrap_checks(mp, [], fail={"hallwitt"})
        failure = run_suites(config, extra_groups=(k4,)).failures[0]
        assert failure.payload["digest"] == group_digest(k4)
        assert replay_failure(failure, extra_groups=(k4,)) is True
    assert replay_failure(failure, extra_groups=(k4,)) is False
    cyclic4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    impostor = FiniteGroup.from_cayley_table(cyclic4, name="k4")
    for groups in ((), (impostor,)):
        with pytest.raises(MalformedInputError, match="extra groups"):
            replay_failure(failure, extra_groups=groups)


_QUOTA_KINDS = ("bryant", "nested", "threesubgroup")


def _record_draws(monkeypatch, kind, drawn, quota):
    """Record every instance the quota suite ``kind`` draws, as (key, args), under ``quota``."""
    run, _, max_order = suites.SUITES[kind]
    draw = run.keywords["draw"]

    def recording(ctx, rng):
        args = draw(ctx, rng)
        drawn.append((_hashable(args), args))
        return args

    monkeypatch.setitem(suites.SUITES, kind, (partial(suites._sample_to_quota, draw=recording), quota, max_order))


def _count_checks(monkeypatch, kind, calls, forced):
    """Count each run of ``kind``'s check by instance key; ``forced`` decides its outcome."""
    check = CHECKS[kind]

    def fn(G, **args):
        key = _hashable(args)
        calls[key] += 1
        return forced(key, lambda: check.fn(G, **args))

    monkeypatch.setitem(CHECKS, kind, replace(check, fn=fn))


def _quota_run(kind, monkeypatch, forced=lambda key, real: real()):
    """One quota task of ``kind`` on symmetric(3): its outcome, draws and check runs.

    The quota is 60, so that a shortfall makes 3,600 draws, not 60 times the suite's own.
    """
    config = replace(SMALL_CONFIG, groups=("symmetric(3)",), suites=(kind,))
    drawn, calls = [], Counter()
    with pytest.MonkeyPatch.context() as mp:
        _record_draws(mp, kind, drawn, 60)
        _count_checks(mp, kind, calls, forced)
        (outcome,) = run_suites(config).outcomes
    return outcome, drawn, calls


def _keys(drawn):
    return [key for key, _ in drawn]


@pytest.mark.parametrize("kind", _QUOTA_KINDS)
def test_repeated_instances_reuse_their_outcome(kind, monkeypatch):
    G = from_spec("symmetric(3)")
    outcome, drawn, calls = _quota_run(kind, monkeypatch)
    draws = Counter(_keys(drawn))
    # the check runs once per distinct instance, and there are repeats
    assert calls == Counter(dict.fromkeys(draws, 1))
    assert sum(calls.values()) < len(drawn)
    # every draw counts as the full check of its instance would
    outcomes = {key: CHECKS[kind].fn(G, **args) for key, args in drawn}
    assert outcome.failures == ()
    assert outcome.passes == sum(outcomes[key] is True for key, _ in drawn) == 60

    # a failure forced on the instance drawn most often is recorded per draw
    target = max((k for k in draws if outcomes[k] is True), key=draws.__getitem__)
    times = draws[target]
    assert times > 1
    args = next(a for k, a in drawn if k == target)
    label = CHECKS[kind].label.format(**args)
    failed, again, calls = _quota_run(
        kind, monkeypatch, lambda key, real: False if key == target else real()
    )
    assert _keys(again) == _keys(drawn) and calls[target] == 1
    assert failed.passes == 60 - times
    assert len(failed.failures) == times
    assert {(f.label, f.payload_text()) for f in failed.failures} == {
        (label, failed.failures[0].payload_text())
    }
    assert replay_failure(failed.failures[0]) is False

    # so is an InternalCheckError, with its message on every record
    def raising(key, real):
        if key == target:
            raise InternalCheckError("forced")
        return real()

    failed, again, calls = _quota_run(kind, monkeypatch, raising)
    assert _keys(again) == _keys(drawn) and calls[target] == 1
    assert [f.label for f in failed.failures] == [f"{label}: forced"] * times


@pytest.mark.parametrize("kind", _QUOTA_KINDS)
def test_quota_shortfall_counts_every_repeated_draw(kind, monkeypatch):
    # no instance meets its hypotheses: all 60 * 60 draws are made
    outcome, drawn, calls = _quota_run(kind, monkeypatch, lambda key, real: None)
    assert len(drawn) == 3600 and sum(calls.values()) == len(calls) < 3600
    (failure,) = outcome.failures
    assert failure.payload["achieved"] == 0 and failure.payload["attempts"] == 3600
    # one instance, drawn a few times, does: each of its draws is a hit
    draws = Counter(_keys(drawn))
    target = min((k for k, n in draws.items() if n > 1), key=lambda k: (draws[k], k))
    outcome, again, calls = _quota_run(
        kind, monkeypatch, lambda key, real: True if key == target else None
    )
    assert _keys(again) == _keys(drawn) and sum(calls.values()) == len(calls)
    (failure,) = outcome.failures
    assert outcome.passes == draws[target] < 60
    assert failure.payload == {
        "kind": "quota",
        "suite": kind,
        "quota": 60,
        "achieved": draws[target],
        "attempts": 3600,
        "seed": 0,
        "group": "symmetric(3)",
    }


def _drawn_triples(calls):
    return [json.loads(args[0][1]) for kind, args in calls if kind == "hallwitt"]


_TRIPLES = suites.HALLWITT_TRIPLES


@pytest.mark.parametrize(
    "rows",
    [[0], [_TRIPLES // 2], [_TRIPLES - 1], [0, _TRIPLES - 1]],
    ids=["first", "middle", "last", "first-and-last"],
)
def test_injected_hallwitt_failures_report_their_own_triples(rows, monkeypatch):
    config = replace(SMALL_CONFIG, groups=("symmetric(5)",), suites=("hallwitt",))
    # the triples need no subgroup pool
    monkeypatch.setattr(suites, "MAX_EXHAUSTIVE_ORDER", 1)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _wrap_checks(mp, calls)
        assert not run_suites(config).outcomes[0].failures
    drawn = _drawn_triples(calls)
    assert len(drawn) == _TRIPLES
    picked = [drawn[r] for r in rows]
    assert all(drawn.count(t) == 1 for t in picked)
    del calls[:]
    with pytest.MonkeyPatch.context() as mp:
        _wrap_checks(mp, calls, fail_rows={tuple(t) for t in picked})
        (outcome,) = run_suites(config).outcomes
        assert _drawn_triples(calls) == drawn
        assert outcome.passes == _TRIPLES - len(rows)
        assert [f.payload for f in outcome.failures] == [
            {"kind": "hallwitt", "triple": t, "group": "symmetric(5)"} for t in picked
        ]
        for failure, triple in zip(outcome.failures, picked):
            del calls[:]
            # replay runs the registered block function on a one-row block
            assert replay_failure(failure) is True
            assert _drawn_triples(calls) == [triple]
    for failure in outcome.failures:
        assert replay_failure(failure) is False


# a loop (a quasigroup with identity) that is not associative; its rows are not
# a group table, so it is built with the bare constructor, which skips validation
_LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_hallwitt_check_reports_every_failing_triple_of_a_loop(monkeypatch):
    loop = FiniteGroup("loop5", "cayley", np.array(_LOOP5, dtype=np.int16))
    every = itertools.product(range(5), repeat=3)
    assert sum(hall_witt_products(loop, *t) != (0, 0) for t in every) == 60
    config = SuiteConfig(groups=(), suites=("hallwitt",))
    run = suites._Tally("hallwitt", "loop5", loop, group_digest(loop))
    calls = []
    _wrap_checks(monkeypatch, calls)
    # a bare context: GroupContext's subgroup lattice assumes associativity
    suites._suite_hallwitt(SimpleNamespace(label="loop5", group=loop), config, run)
    drawn = _drawn_triples(calls)
    assert len(drawn) == _TRIPLES
    bad = [t for t in drawn if hall_witt_products(loop, *t) != (0, 0)]
    assert 0 < len(bad) < _TRIPLES
    assert [f.payload["triple"] for f in run.failures] == bad
    assert run.passes == _TRIPLES - len(bad)
    assert all(f.payload["digest"] == group_digest(loop) for f in run.failures)
    assert all(replay_failure(f, extra_groups=(loop,)) for f in run.failures)


@pytest.mark.parametrize("spec", ["symmetric(3)", "cyclic(1)"])
def test_hallwitt_draws_each_group_in_one_block(spec, monkeypatch):
    blocks = []
    check = CHECKS["hallwitt"]

    def recorded(G, triple):
        blocks.append(triple.copy())
        return check.fn(G, triple)

    monkeypatch.setitem(CHECKS, "hallwitt", replace(check, fn=recorded))
    config = SuiteConfig(groups=(spec,), suites=("hallwitt",))
    (outcome,) = run_suites(config).outcomes
    assert (outcome.passes, outcome.failures) == (_TRIPLES, ())
    assert [b.shape for b in blocks] == [(_TRIPLES, 3)]
    if spec == "cyclic(1)":
        assert all((b == 0).all() for b in blocks)
    # the same config draws the same triples
    first = blocks[:]
    del blocks[:]
    run_suites(config)
    assert len(blocks) == len(first) and all((a == b).all() for a, b in zip(blocks, first))
