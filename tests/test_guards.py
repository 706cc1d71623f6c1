"""Every InternalCheckError cross-check fires once the code it guards is wrong.

Each guard sits on correct code, so a test has to break that code to see
the guard fire.  Each row of ``GUARDS`` names a guard's message, a fault
injected with ``monkeypatch`` or planted in the group's memo, the catalog
spec of a group, and the call that reaches the guard on that group; the
group is built fresh, outside ``from_spec``'s cache, so a fault planted in
its memo stays with that one test.  A meta-test reads every ``raise
InternalCheckError`` under ``src/nilenv`` and requires a row for each, or
an ``UNREACHABLE`` entry with the reason; ``guard_mutants.py`` beside this
file checks that each row fails once its guard's ``raise`` is gone.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

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
    monkeypatch.setattr(series, "upper_central_series", lambda P: build(P)[1:])


def _tower_normalizers_lose_the_identity(monkeypatch, G):
    # a tower's level-0 memo entry: its term, and the normalizer intersection
    G._memo[("tower", G.full_mask, G.full_mask, 0)] = (G.trivial_subgroup(), G.full_mask & ~1)


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


def _upper_series_reads_the_group_as_its_center(monkeypatch, G):
    G._memo[("ucs", G.full_mask)] = (G.trivial_subgroup(), G.as_subgroup())


def _witnesses(monkeypatch, first, later):
    """Witnesses as built, passed through ``first`` at stage one and through ``later`` at each later stage."""
    build = centralizers.greedy_witness
    monkeypatch.setattr(
        envelope, "greedy_witness",
        lambda subset, within=None: (first if within is None else later)(build(subset, within)),
    )


def _stage_one_witnesses_lose_the_last(monkeypatch, G):
    _witnesses(monkeypatch, lambda wits: wits[:-1], lambda wits: wits)


def _no_later_witnesses(monkeypatch, G):
    _witnesses(monkeypatch, lambda wits: wits, lambda wits: ())


def _later_witnesses_lose_the_last(monkeypatch, G):
    _witnesses(monkeypatch, lambda wits: wits, lambda wits: wits[:-1])


def _replacement_is_trivial(monkeypatch, G):
    monkeypatch.setattr(envelope, "_replacement", lambda H, e1: G.trivial_subgroup())


def _replacement_is_the_center(monkeypatch, G):
    monkeypatch.setattr(envelope, "_replacement", lambda H, e1: G.center())


def _stage_cut(monkeypatch, value):
    build = envelope._stage_cut
    monkeypatch.setattr(envelope, "_stage_cut", lambda *args: value(build(*args)))


def _stage_cut_loses_the_identity(monkeypatch, G):
    _stage_cut(monkeypatch, lambda mask: mask & ~1)


def _stage_cut_is_trivial(monkeypatch, G):
    _stage_cut(monkeypatch, lambda mask: 1)


def _towers_lose_their_top_term(monkeypatch, G):
    build = series.iterated_centralizer

    def lower(ambient, base, n):
        return build(ambient, base, n)[:-1] + (G.trivial_subgroup(),)

    monkeypatch.setattr(envelope, "iterated_centralizer", lower)


def _envelope_series_stops_at_the_identity(monkeypatch, G):
    # every Z_j the envelope reads is Z_0, as if each upper central series stopped there
    monkeypatch.setattr(envelope, "_center", lambda P, j: G.trivial_subgroup())


def _stage_one_reads_as_class_two(monkeypatch, G):
    # D = H' on every catalog subgroup, so H' = H first makes the class of D a fact of its own
    monkeypatch.setattr(envelope, "_replacement", lambda H, e1: H)
    e1, _ = centralizers.minimal_centralizer_above(_below_its_centralizer(G))
    G._memo[("nilclass", e1.members)] = 2


def _stage_one_has_a_trivial_normalizer(monkeypatch, G):
    e1, _ = centralizers.minimal_centralizer_above(_below_its_centralizer(G))
    G._memo[("norm", e1.members)] = 1


def _envelope_of_a_non_normal_subgroup(monkeypatch, G):
    traces = (envelope.build_envelope(G, G.subgroup_from_generators([g])) for g in range(G.order))
    odd = next(trace for trace in traces if not trace.envelope.is_normal)
    monkeypatch.setattr(envelope, "build_envelope", lambda G, H: odd)


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


def _envelope_below_its_centralizer(G):
    return envelope.build_envelope(G, _below_its_centralizer(G))


def _envelope_of_whole_group(G):
    return envelope.build_envelope(G, G.as_subgroup())


def _envelope_of_normal_whole_group(G):
    return envelope.envelope_of_normal(G, G.as_subgroup())


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
        _upper_series_reads_the_group_as_its_center, "dihedral(4)", _bottom_chain_of_whole_group,
    ),
    "stage-one witnesses do not cut out E_1": (
        _stage_one_witnesses_lose_the_last, "dihedral(4)", _envelope_below_its_centralizer,
    ),
    "central enlargement changed the nilpotence class": (
        _replacement_is_trivial, "dihedral(4)", _envelope_below_its_centralizer,
    ),
    "no tower witnesses at level 2": (_no_later_witnesses, "dihedral(4)", _envelope_of_whole_group),
    "witnesses at level 2 have the wrong centralizer": (
        _later_witnesses_lose_the_last, "dihedral(4)", _envelope_of_whole_group,
    ),
    "stage 2 intersection is not a subgroup": (
        _stage_cut_loses_the_identity, "dihedral(4)", _envelope_of_whole_group,
    ),
    "replaced subgroup lost elements of H": (
        _replacement_is_the_center, "dihedral(4)", _envelope_below_its_centralizer,
    ),
    "tower is not a descending chain over H": (_stage_cut_is_trivial, "dihedral(4)", _envelope_of_whole_group),
    "level 1: C^1(H) differs from Z_1 of the stage": (
        _towers_lose_their_top_term, "dihedral(4)", _envelope_below_its_centralizer,
    ),
    "envelope is not squeezed between H and E_n": (
        _envelope_series_stops_at_the_identity, "dihedral(4)", _envelope_below_its_centralizer,
    ),
    "envelope has the wrong nilpotence class": (
        _stage_one_reads_as_class_two, "dihedral(4)", _envelope_below_its_centralizer,
    ),
    "stage 1 is not normalized by N_G(H)": (
        _stage_one_has_a_trivial_normalizer, "dihedral(4)", _envelope_below_its_centralizer,
    ),
    "envelope of a normal subgroup came out non-normal": (
        _envelope_of_a_non_normal_subgroup, "dihedral(8)", _envelope_of_normal_whole_group,
    ),
}

# guard message as written in the source -> why no injected fault reaches it
UNREACHABLE: dict[str, str] = {}

SRC = Path(__file__).resolve().parents[1] / "src" / "nilenv"


def guard_sites(src: Path = SRC) -> list[tuple[Path, ast.Raise, str]]:
    """(file, statement, message) of every ``raise InternalCheckError`` under ``src``, in line order.

    An f-string message keeps its fields as written, such as ``{k}``.
    """
    sites = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "InternalCheckError":
                message = exc.args[0]
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                text = "".join(p.value if isinstance(p, ast.Constant) else f"{{{ast.unparse(p.value)}}}" for p in parts)
                sites.append((path, node, text))
    return sorted(sites, key=lambda site: (site[0], site[1].lineno))


def _pattern(message: str) -> str:
    """A regex for the messages a guard raises: each ``{field}`` matches any text."""
    return re.sub(r"\\\{[^}]*\\\}", ".+", re.escape(message))


def test_every_guard_has_a_row():
    messages = [message for _, _, message in guard_sites()]
    rows = {row: [m for m in messages if re.fullmatch(_pattern(m), row)] for row in GUARDS}
    assert {row: hits for row, hits in rows.items() if len(hits) != 1} == {}
    covered = {hits[0] for hits in rows.values()}
    assert [m for m in messages if m not in covered and m not in UNREACHABLE] == []
    assert set(UNREACHABLE) <= set(messages) - covered


@pytest.mark.parametrize("message", GUARDS)
def test_guard_fires_on_its_fault(message, monkeypatch):
    fault, spec, call = GUARDS[message]
    G = from_spec.__wrapped__(spec)
    call(G)  # the group passes before the fault
    G._memo.clear()
    fault(monkeypatch, G)
    with pytest.raises(InternalCheckError, match=f"^{re.escape(message)}$"):
        call(G)
