"""Every InternalCheckError cross-check fires once the code it guards is wrong.

Each guard sits on correct code, so a test has to break that code to see
the guard fire.  Each row of ``GUARDS`` names a guard's message, a fault
injected with ``monkeypatch`` or planted in the group's memo, the catalog
spec of a group, and the call that reaches the guard on that group; the
group is built fresh, outside ``from_spec``'s cache, so a fault planted in
its memo stays with that one test.
"""

from __future__ import annotations

import re

import pytest

from nilenv import centralizers, envelope, series
from nilenv.catalog import from_spec
from nilenv.errors import InternalCheckError


def _whole_group_as_p_core(monkeypatch, G):
    monkeypatch.setattr(envelope, "p_core", lambda G, p: G.as_subgroup())


def _engel_set_without_identity(monkeypatch, G):
    monkeypatch.setattr(envelope, "_engel_set", lambda G: (G.full_mask ^ 1, 0))


def _trivial_engel_set(monkeypatch, G):
    monkeypatch.setattr(envelope, "_engel_set", lambda G: (1, 0))


def _one_conjugacy_class(monkeypatch, G):
    # the p-cores read the classes from the memo; the Engel set does not
    G._memo[("classes",)] = (G.full_mask,)


def _upper_series_loses_its_first_term(monkeypatch, G):
    build = series.upper_central_series

    def shifted(P):
        upper = build(P)
        return series.CentralSeries(upper.terms[1:], upper.nilpotence_class - 1)

    monkeypatch.setattr(series, "upper_central_series", shifted)


def _tower_normalizers_lose_the_identity(monkeypatch, G):
    # a tower's memo entry before level 1: its terms, and the normalizer intersection
    G._memo[("tower", G.full_mask, G.full_mask)] = [(G.trivial_subgroup(),), G.full_mask & ~1]


def _commutator_with_trivial_is_everything(monkeypatch, G):
    # the Hall bound at i = k = 1 forms [G, C^1(G)], and the center of G is trivial
    G._memo[("commsub", 1, G.full_mask)] = G.as_subgroup()


def _singleton_centralizer_is_everything(monkeypatch, G):
    # the least noncentral element is the first witness of its own lattice node
    g = next(g for g in range(G.order) if not G.center_mask() >> g & 1)
    G._memo[("centralizer", 1 << g)] = G.full_mask


def _below_its_centralizer(G):
    """<g> for the least g whose centralizer is neither <g> nor G, so C(<g>) has a memo entry of its own."""
    cyclic = (G.subgroup_from_generators([g]) for g in range(G.order))
    return next(H for H in cyclic if G.centralizer_mask(H.members) not in (H.members, G.full_mask))


def _lattice_witnesses_reversed(monkeypatch, G):
    build = centralizers.centralizer_lattice

    def reversed_witnesses(ambient):
        lattice = build(ambient)
        return centralizers.CentralizerLattice(
            lattice.group, lattice.ambient, lattice.nodes, lattice.witnesses[::-1]
        )

    monkeypatch.setattr(centralizers, "centralizer_lattice", reversed_witnesses)


def _centralizer_of_centralizer(G, value):
    G._memo[("centralizer", G.centralizer_mask(_below_its_centralizer(G).members))] = value


def _double_centralizer_is_trivial(monkeypatch, G):
    _centralizer_of_centralizer(G, 1)


def _double_centralizer_is_everything(monkeypatch, G):
    _centralizer_of_centralizer(G, G.full_mask)


def _centralizer_is_trivial(monkeypatch, G):
    G._memo[("centralizer", _below_its_centralizer(G).members)] = 1


def _relative_centralizer_loses_the_identity(monkeypatch, G):
    whole = G.centralizer_mask

    def relative(setmask, within=None):
        return whole(setmask) if within is None else within & whole(setmask) & ~1

    monkeypatch.setattr(G, "centralizer_mask", relative)


def _nilpotence_class(G):
    return series.nilpotence_class(G.as_subgroup())


def _tower_level_one(G):
    return series.iterated_centralizer(G, G.as_subgroup(), 1)


def _hall_bound_1_1(G):
    return series.check_hall_bound(G, G.as_subgroup(), 1, 1)


def _least_centralizer_above(G):
    return centralizers.minimal_centralizer_above(_below_its_centralizer(G))


def _bottom_chain(G):
    return centralizers.bottom_chain_classify(_below_its_centralizer(G))


def _bottom_chain_of_whole_group(G):
    return centralizers.bottom_chain_classify(G.as_subgroup())


# guard message -> (fault, spec of the group, the call that reaches the guard)
GUARDS = {
    "product of p-cores is not nilpotent": (_whole_group_as_p_core, "symmetric(3)", envelope.fitting),
    "bounded Engel set is not a subgroup": (_engel_set_without_identity, "dihedral(4)", envelope.fitting),
    "fitting computations disagree": (_trivial_engel_set, "symmetric(4)", envelope.fitting),
    "2-core candidate set is not a subgroup": (_one_conjugacy_class, "symmetric(4)", envelope.fitting),
    "central series disagree on nilpotence class: 2 vs 1": (
        _upper_series_loses_its_first_term, "dihedral(4)", _nilpotence_class,
    ),
    "iterated centralizer level is not a subgroup": (
        _tower_normalizers_lose_the_identity, "dihedral(4)", _tower_level_one,
    ),
    "pairwise and generated commutator checks disagree": (
        _commutator_with_trivial_is_everything, "symmetric(3)", _hall_bound_1_1,
    ),
    "lattice node does not match its witness centralizer": (
        _singleton_centralizer_is_everything, "symmetric(3)", centralizers.centralizer_lattice,
    ),
    "witness set does not cut out its chain entry": (
        _lattice_witnesses_reversed, "symmetric(3)", centralizers.dimension,
    ),
    "double centralizer lost elements of the base set": (
        _double_centralizer_is_trivial, "dihedral(4)", _least_centralizer_above,
    ),
    "double centralizer is not the least one": (
        _double_centralizer_is_everything, "dihedral(4)", _least_centralizer_above,
    ),
    "centralizer of a subgroup misses the center": (
        _centralizer_is_trivial, "dihedral(4)", _bottom_chain,
    ),
    "case 2 witness fails H <= C(A) < G": (
        _double_centralizer_is_everything, "dihedral(4)", _bottom_chain,
    ),
    "Z(H) differs from Z(G) meet H in case 3": (
        _relative_centralizer_loses_the_identity, "dihedral(4)", _bottom_chain_of_whole_group,
    ),
}


@pytest.mark.parametrize("message", GUARDS)
def test_guard_fires_on_its_fault(message, monkeypatch):
    fault, spec, call = GUARDS[message]
    G = from_spec.__wrapped__(spec)
    call(G)  # the group passes before the fault
    G._memo.clear()
    fault(monkeypatch, G)
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        call(G)
