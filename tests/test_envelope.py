"""The envelope tower, its verification report, and the Fitting subgroup."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from test_centralizers import extraspecial_2_1_8

from nilenv.catalog import alternating, cyclic, dihedral, from_spec, quaternion, symmetric, unitriangular
from nilenv.envelope import (
    build_envelope,
    engel_iterate,
    envelope_of_normal,
    fitting,
    p_core,
    padded_parameters,
    trace_to_dict,
    verify_envelope,
)
from nilenv.errors import (
    ArityMismatchError,
    CapExceededError,
    NotNilpotentError,
    NotNormalError,
    ParentMismatchError,
)
from nilenv.groups import Subgroup, closure, mask_of, normal_closure
from nilenv.series import nilpotence_class


def involutions(G):
    return [g for g in range(G.order) if g and G.mul(g, g) == 0]


def klein_in(G):
    doubles = [g for g in involutions(G) if normal_closure(G, g).order == 4]
    return closure(G, doubles)


def test_envelope_of_involution_in_alternating_4():
    G = alternating(4)
    klein = mask_of([0, *involutions(G)])
    for t in involutions(G):
        trace = build_envelope(G, closure(G, [t]))
        assert trace.nilpotence_class == 1
        assert trace.envelope.members == klein
        assert len(trace.tower) == 1
        assert trace.original.members & ~trace.envelope.members == 0


def test_envelope_of_dihedral_factor_in_product():
    G = from_spec("product(dihedral(4),symmetric(3))")
    factor = closure(G, [1 * 6, 4 * 6])
    assert factor.order == 8
    trace = build_envelope(G, factor)
    assert trace.nilpotence_class == 2
    assert trace.envelope.members == factor.members
    assert [lvl.subgroup.order for lvl in trace.tower] == [8, 8]
    assert len(trace.parameters) == 4 * 2


def test_envelope_of_whole_dihedral_16():
    G = dihedral(8)
    trace = build_envelope(G, G.as_subgroup())
    assert trace.nilpotence_class == 3
    assert [lvl.subgroup.order for lvl in trace.tower] == [16, 16, 16]
    assert trace.envelope.members == G.full_mask
    assert trace.tower[0].witnesses == ()
    assert all(len(lvl.witnesses) >= 1 for lvl in trace.tower[1:])


def test_envelope_with_central_first_stage_pads_identity():
    G = dihedral(4)
    trace = build_envelope(G, G.as_subgroup())
    assert trace.tower[0].witnesses == ()
    d = len(trace.parameters) // trace.nilpotence_class
    assert trace.parameters[:d] == (0,) * d


def test_envelope_of_dihedral_8_inside_16():
    G = dihedral(8)
    sub = closure(G, [2, 8])
    assert sub.order == 8
    trace = build_envelope(G, sub)
    assert trace.nilpotence_class == 2
    assert [lvl.subgroup.order for lvl in trace.tower] == [16, 8]
    assert trace.envelope.order == 8


def test_envelope_trivial_subgroup():
    G = symmetric(4)
    trace = build_envelope(G, G.trivial_subgroup())
    assert trace.nilpotence_class == 0
    assert trace.tower == ()
    assert trace.parameters == ()
    assert trace.envelope.order == 1


def test_envelope_rejects_bad_inputs():
    S3 = symmetric(3)
    with pytest.raises(NotNilpotentError):
        build_envelope(S3, S3.as_subgroup())
    with pytest.raises(ParentMismatchError):
        build_envelope(S3, dihedral(4).as_subgroup())


def test_envelope_idempotence_on_samples():
    rng = random.Random(43)
    for spec in ("symmetric(4)", "dihedral(8)", "unitriangular(3)", "alternating(5)"):
        G = from_spec(spec)
        seen = 0
        while seen < 6:
            sub = closure(G, [rng.randrange(G.order) for _ in range(2)])
            if nilpotence_class(sub) is None:
                continue
            seen += 1
            first = build_envelope(G, sub)
            again = build_envelope(G, first.envelope)
            assert again.envelope.members == first.envelope.members


def test_envelope_class_and_normalizer_facts():
    rng = random.Random(47)
    G = symmetric(4)
    for _ in range(25):
        sub = closure(G, [rng.randrange(G.order) for _ in range(2)])
        n = nilpotence_class(sub)
        if n is None:
            continue
        trace = build_envelope(G, sub)
        assert trace.nilpotence_class == n
        assert nilpotence_class(trace.envelope) == n
        norm = G.normalizer_mask(sub.members)
        assert norm & ~G.normalizer_mask(trace.envelope.members) == 0


def test_replaced_subgroup_keeps_class_and_grows():
    G = dihedral(8)
    sub = closure(G, [2, 8])
    trace = build_envelope(G, sub)
    assert trace.original.members & ~trace.replaced.members == 0
    assert nilpotence_class(trace.replaced) == trace.nilpotence_class


def test_verify_envelope_reports():
    G = from_spec("product(dihedral(4),symmetric(3))")
    factor = closure(G, [6, 24])
    trace = build_envelope(G, factor)
    report = verify_envelope(trace, seed=1)
    assert report.ok
    assert report.failures() == ()
    assert any(entry.level == 1 for entry in report.entries)
    labels = {entry.label for entry in report.entries}
    assert len(labels) > 5


def test_verify_envelope_is_deterministic():
    G = dihedral(8)
    trace = build_envelope(G, G.as_subgroup())
    first = verify_envelope(trace, seed=9)
    second = verify_envelope(trace, seed=9)
    assert first == second


def _tampered(which):
    """The dihedral(8) trace of <2, 8> with one stored field changed.

    H = H' = E_2 has order 8 and E_1 is the whole group; subgroup 0x101 is <8>, of order 2.
    """
    G = dihedral(8)
    trace = build_envelope(G, closure(G, [2, 8]))
    e1, e2 = trace.tower
    assert (e1.subgroup.order, e2.subgroup.order, trace.envelope.order) == (16, 8, 8)
    assert (e1.witnesses, trace.replaced) == ((), trace.original)
    small = Subgroup(G, 0x101)

    def tower(*levels):
        return replace(trace, tower=levels)

    tampers = {
        "witness": lambda: tower(e1, replace(e2, witnesses=e2.witnesses[:-1])),
        "extra witness": lambda: tower(e1, replace(e2, witnesses=e2.witnesses + (1,))),
        "stage-one witness": lambda: tower(replace(e1, witnesses=(1,)), e2),
        # the class is the tower's length, so these claim class 1, 3 and 0
        "cut": lambda: tower(e1),
        "extra stage": lambda: tower(e1, e2, e2),
        "empty tower": lambda: tower(),
        "trivial original": lambda: replace(trace, original=G.trivial_subgroup()),
        "whole replaced": lambda: replace(trace, replaced=G.as_subgroup()),
        "trivial stage one": lambda: tower(replace(e1, subgroup=G.trivial_subgroup()), e2),
        "whole stage two": lambda: tower(e1, replace(e2, subgroup=G.as_subgroup())),
        "small stage two": lambda: tower(e1, replace(e2, subgroup=small)),
    }
    return tampers[which]()


_REPLACEMENT = "replacement only adds the stage-one center"
_CONTAINS = "stage contains the replaced subgroup"
_SAMPLED_CENTERS = "iterated centralizers of sampled subgroups equal the stage centers"
_CUT = "stage equals the intersection over the whole level"
_IN_LEVEL = "witnesses lie in the level-k iterated centralizer"
_LEVEL_CENTRALIZER = "witnesses have the same relative centralizer as the full level"
_GAMMA_STAGE = "gamma_k of the stage centralizes the whole level"
_IN_ENVELOPE = "envelope contains the original subgroup"
_CLASS = "envelope class matches"
_NORMALIZED = "tower and envelope are normalized by the normalizer of the {} subgroup"

TAMPERED = {
    "witness": {_LEVEL_CENTRALIZER},
    "extra witness": {_IN_LEVEL},
    "stage-one witness": {"stage-one witnesses cut out the stage"},
    "cut": {_IN_ENVELOPE},
    "extra stage": {_CLASS},
    # an empty tower goes straight to the envelope entries, and H is not trivial
    "empty tower": {_IN_ENVELOPE},
    "trivial original": {_REPLACEMENT, "stage one is the double centralizer"},
    # H' escapes E_2, or E_1: the entries on towers inside that stage fail unread
    "whole replaced": {_REPLACEMENT, _CONTAINS, _SAMPLED_CENTERS, _CUT, _IN_LEVEL, _LEVEL_CENTRALIZER},
    "trivial stage one": {
        _REPLACEMENT, _CONTAINS, _SAMPLED_CENTERS, _CUT, _IN_LEVEL, _LEVEL_CENTRALIZER, _GAMMA_STAGE,
        "stage one is the double centralizer",
        "stage-one witnesses cut out the stage",
        "relative towers restrict along sampled intermediate subgroups",
    },
    "whole stage two": {_CUT, _GAMMA_STAGE, _IN_ENVELOPE, _CLASS},
    "small stage two": {
        _CONTAINS, _SAMPLED_CENTERS, _CUT, _IN_ENVELOPE, _CLASS,
        _NORMALIZED.format("original"), _NORMALIZED.format("replaced"),
    },
}


@pytest.mark.parametrize("which", TAMPERED)
def test_verify_envelope_catches_tampered_traces(which):
    report = verify_envelope(_tampered(which), seed=1)
    assert report.ok is False
    assert {entry.label for entry in report.failures()} == TAMPERED[which]


def test_every_verify_envelope_label_has_a_tampered_trace():
    G = dihedral(8)
    labels = {entry.label for entry in verify_envelope(build_envelope(G, closure(G, [2, 8]))).entries}
    # [gamma_k(E_k(h)), h] = 1 holds for every subgroup P in place of E_(k-1) and
    # every h in P, and both E_k(h) and Z_(k-1)(P) are derived, so no trace fails it
    theorem = "commutators of gamma_k of a one-witness stage with its witness vanish"
    assert set().union(*TAMPERED.values()) == labels - {theorem}


def test_padded_parameters():
    G = alternating(4)
    t = involutions(G)[0]
    trace = build_envelope(G, closure(G, [t]))
    assert trace.nilpotence_class == 1
    wits = trace.tower[0].witnesses
    assert len(wits) == 1
    assert padded_parameters(trace, 3) == (wits[0], wits[0], wits[0])
    with pytest.raises(ArityMismatchError):
        padded_parameters(trace, 0)

    S4 = symmetric(4)
    klein = klein_in(S4)
    wide = build_envelope(S4, klein)
    assert len(wide.tower[0].witnesses) == 2
    with pytest.raises(ArityMismatchError):
        padded_parameters(wide, 1)
    assert len(padded_parameters(wide, 2)) == 2
    assert len(wide.parameters) == 4


def test_trace_to_dict_shape():
    G = dihedral(8)
    trace = build_envelope(G, closure(G, [2, 8]))
    data = trace_to_dict(trace)
    assert data["group"] == "dihedral(8)"
    assert data["order"] == 16
    assert data["nilpotence_class"] == 2
    assert data["envelope_order"] == 8
    assert [lvl["order"] for lvl in data["tower"]] == [16, 8]
    assert data["parameters"] == list(trace.parameters)
    rebuilt = closure(G, data["envelope"]["generators"])
    assert rebuilt.members == trace.envelope.members


def test_envelope_above_the_lattice_limit():
    # only the padded parameters need the centralizer dimension
    G = extraspecial_2_1_8()
    trace = build_envelope(G, closure(G, [1]))
    assert trace.nilpotence_class == 1
    assert trace.original.members & ~trace.envelope.members == 0
    for read in (lambda t: t.parameters, trace_to_dict):
        with pytest.raises(CapExceededError, match="^centralizer lattice exceeds 20000 nodes$"):
            read(trace)


def test_envelope_of_normal():
    S4 = symmetric(4)
    klein = klein_in(S4)
    trace = envelope_of_normal(S4, klein)
    assert trace.envelope.is_normal
    assert trace.envelope.members == klein.members

    S3 = symmetric(3)
    flip = closure(S3, [involutions(S3)[0]])
    with pytest.raises(NotNormalError):
        envelope_of_normal(S3, flip)


def test_engel_iteration_in_symmetric_3():
    G = symmetric(3)
    three_cycles = [g for g in range(6) if g and G.mul(g, G.mul(g, g)) == 0]
    flips = involutions(G)
    for c in three_cycles:
        steps = [engel_iterate(G, g, c) for g in range(6)]
        assert all(s is not None and s <= 2 for s in steps)
    assert any(engel_iterate(G, g, flips[0]) is None for g in range(6))
    assert engel_iterate(G, 0, flips[0]) == 0


def test_p_cores():
    S4 = symmetric(4)
    assert p_core(S4, 2).members == klein_in(S4).members
    assert p_core(S4, 3).order == 1

    S3 = symmetric(3)
    assert p_core(S3, 3).order == 3
    assert p_core(S3, 2).order == 1

    Q8 = quaternion()
    assert p_core(Q8, 2).members == Q8.full_mask


def test_fitting_anchor_values():
    assert fitting(symmetric(3)).fitting.order == 3
    assert fitting(dihedral(4)).fitting.order == 8

    report = fitting(symmetric(4))
    assert report.fitting.order == 4
    assert report.fitting.members == klein_in(symmetric(4)).members
    assert report.fitting == report.by_envelope == report.by_engel

    assert fitting(alternating(5)).fitting.order == 1
    assert fitting(quaternion()).fitting.order == 8
    assert fitting(from_spec("product(dihedral(4),symmetric(3))")).fitting.order == 24
    assert fitting(cyclic(12)).fitting.order == 12

    report = fitting(symmetric(6))
    assert (report.fitting.order, report.engel_bound_n) == (1, 1)
    report = fitting(unitriangular(7))
    assert (report.fitting.order, report.engel_bound_n) == (343, 2)


def test_fitting_is_nilpotent_and_engel_bound_small():
    for spec in ("symmetric(3)", "symmetric(4)", "dihedral(6)", "unitriangular(3)"):
        report = fitting(from_spec(spec))
        assert nilpotence_class(report.fitting) is not None
        assert report.engel_bound_n <= 3


def test_fitting_contains_sampled_normal_nilpotent_subgroups():
    rng = random.Random(53)
    for spec in ("symmetric(4)", "dihedral(6)", "alternating(4)"):
        G = from_spec(spec)
        f_mask = fitting(G).fitting.members
        for _ in range(40):
            sub = closure(G, [rng.randrange(G.order) for _ in range(2)])
            if sub.is_normal and nilpotence_class(sub) is not None:
                assert sub.members & ~f_mask == 0
