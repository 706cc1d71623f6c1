"""Centralizer lattices, dimension, witnesses, and the bottom trichotomy."""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np
import pytest

from nilenv import centralizers
from nilenv.catalog import alternating, cyclic, dihedral, from_spec, quaternion, symmetric, unitriangular
from nilenv.centralizers import (
    bottom_chain_classify,
    c_dimension,
    centralizer,
    centralizer_lattice,
    dimension,
    greedy_witness,
    minimal_centralizer_above,
)
from nilenv.errors import CapExceededError
from nilenv.groups import ElementSet, FiniteGroup, closure, iter_mask, mask_of
from nilenv.suites import all_subgroups


def brute_centralizer_masks(G: FiniteGroup) -> set[int]:
    """Centralizers of every one of the 2^n subsets, by direct enumeration."""
    nodes = set()
    for subset in range(1 << G.order):
        c = G.full_mask
        for g in range(G.order):
            if subset >> g & 1:
                c &= G.element_centralizer_mask(g)
        nodes.add(c)
    return nodes


def brute_longest_chain(nodes: set[int]) -> int:
    """Longest strictly descending chain in a family of masks, by inclusion."""
    ordered = sorted(nodes, key=lambda m: -m.bit_count())
    best = {m: 1 for m in ordered}
    for i, small in enumerate(ordered):
        for big in ordered[:i]:
            if small != big and small & big == small:
                best[small] = max(best[small], best[big] + 1)
    return max(best.values())


def test_lattice_matches_brute_force_symmetric_3():
    G = symmetric(3)
    lattice = centralizer_lattice(G)
    assert len(lattice) == 6
    assert {node.members for node in lattice.nodes} == brute_centralizer_masks(G)


def test_lattice_matches_brute_force_dihedral_4():
    G = dihedral(4)
    lattice = centralizer_lattice(G)
    assert len(lattice) == 5
    expected = {
        mask_of(range(8)),
        mask_of([0, 1, 2, 3]),
        mask_of([0, 2, 4, 6]),
        mask_of([0, 2, 5, 7]),
        mask_of([0, 2]),
    }
    assert {node.members for node in lattice.nodes} == expected
    assert expected == brute_centralizer_masks(G)


def test_lattice_nodes_are_sorted_and_witnessed():
    G = symmetric(4)
    lattice = centralizer_lattice(G)
    orders = [node.order for node in lattice.nodes]
    assert orders == sorted(orders, reverse=True)
    assert lattice.nodes[0].members == G.full_mask
    for node, wit in zip(lattice.nodes, lattice.witnesses):
        assert G.centralizer_mask(wit.members) == node.members


def test_dimension_matches_brute_force():
    for G in (symmetric(3), dihedral(4), quaternion(), cyclic(6), alternating(4)):
        chains = brute_longest_chain(brute_centralizer_masks(G))
        assert dimension(G) == max(1, chains - 1)


def test_dimension_anchor_values():
    assert dimension(symmetric(3)) == 2
    assert dimension(dihedral(4)) == 2
    assert dimension(alternating(4)) == 2
    assert dimension(quaternion()) == 2
    assert dimension(symmetric(4)) == 4
    assert dimension(alternating(5)) == 2
    assert dimension(unitriangular(3)) == 2
    assert dimension(from_spec("product(dihedral(4),symmetric(3))")) == 4


def test_dimension_one_means_abelian():
    for spec in ("cyclic(1)", "cyclic(12)", "product(cyclic(2),cyclic(2))"):
        assert dimension(from_spec(spec)) == 1
    for spec in ("symmetric(3)", "dihedral(6)", "unitriangular(2)"):
        assert dimension(from_spec(spec)) > 1


def test_chain_report_structure():
    for G in (symmetric(3), symmetric(4), dihedral(8)):
        report = c_dimension(centralizer_lattice(G))
        assert report.length == dimension(G)
        assert len(report.chain) == report.length + 1 or (report.length == 1 and len(report.chain) <= 2)
        assert report.chain[0].members == G.full_mask
        for bigger, smaller in zip(report.chain, report.chain[1:]):
            assert smaller.members & bigger.members == smaller.members
            assert smaller.members != bigger.members
        for node, wit in zip(report.chain, report.witness_sets):
            assert G.centralizer_mask(wit.members) == node.members
        growing = list(report.witness_sets)
        for earlier, later in zip(growing, growing[1:]):
            assert earlier.members & later.members == earlier.members


def test_subgroup_lattice_is_relative():
    G = symmetric(4)
    klein = next(
        s for s in (closure(G, [a, b]) for a in range(24) for b in range(24))
        if s.order == 4 and s.is_normal
    )
    lattice = centralizer_lattice(klein)
    assert all(node.members & ~klein.members == 0 for node in lattice.nodes)
    assert dimension(klein) == 1


def test_minimal_centralizer_above_klein_in_alternating_4():
    G = alternating(4)
    involutions = [g for g in range(12) if g and G.mul(g, g) == 0]
    assert len(involutions) == 3
    klein = mask_of([0, *involutions])
    for t in involutions:
        least, centralized = minimal_centralizer_above(ElementSet(G, 1 << t))
        assert least.members == klein
        assert centralized.members == klein
    least, _ = minimal_centralizer_above(ElementSet(G, klein))
    assert least.members == klein


def test_minimal_centralizer_is_least():
    rng = random.Random(5)
    G = symmetric(4)
    all_nodes = {node.members for node in centralizer_lattice(G).nodes}
    for _ in range(40):
        h = mask_of(rng.sample(range(24), rng.randint(1, 3)))
        least, _ = minimal_centralizer_above(ElementSet(G, h))
        above = [m for m in all_nodes if h & ~m == 0]
        assert least.members in above
        assert all(least.members & m == least.members for m in above)


def test_greedy_witness_cuts_same_centralizer():
    rng = random.Random(13)
    for G in (symmetric(4), unitriangular(3), dihedral(6)):
        d = dimension(G)
        for _ in range(100):
            size = rng.randint(1, min(5, G.order))
            subset = ElementSet(G, mask_of(rng.sample(range(G.order), size)))
            wits = greedy_witness(subset)
            assert len(wits) <= d
            assert set(wits) <= set(subset.elements)
            assert G.centralizer_mask(mask_of(wits)) == G.centralizer_mask(subset.members)


def test_greedy_witness_bound():
    G = symmetric(4)
    whole = ElementSet(G, G.full_mask)
    wits = greedy_witness(whole)
    assert 1 <= len(wits) <= dimension(G)


def test_greedy_witness_within():
    G = dihedral(4)
    rotations = closure(G, [1])
    wits = greedy_witness(ElementSet(G, mask_of([1])), within=rotations)
    assert wits == ()
    flips = greedy_witness(ElementSet(G, mask_of([4])), within=rotations)
    assert centralizer(ElementSet(G, mask_of([4])), within=rotations).members == rotations.members & G.element_centralizer_mask(4)
    assert len(flips) == 1


def test_triple_centralizer_law():
    rng = random.Random(17)
    for G in (symmetric(4), quaternion(), alternating(5)):
        for _ in range(60):
            subset = mask_of(rng.sample(range(G.order), rng.randint(1, 4)))
            c1 = G.centralizer_mask(subset)
            c3 = G.centralizer_mask(G.centralizer_mask(c1))
            assert c3 == c1


def test_bottom_chain_trichotomy():
    D8 = dihedral(4)
    case = bottom_chain_classify(closure(D8, [2]))
    assert case.case == 1 and case.witness is None

    rotations = closure(D8, [1])
    case = bottom_chain_classify(rotations)
    assert case.case == 2
    assert case.witness is not None
    assert case.witness.members == D8.centralizer_mask(rotations.members)

    case = bottom_chain_classify(D8.as_subgroup())
    assert case.case == 3

    S3 = symmetric(3)
    assert bottom_chain_classify(S3.as_subgroup()).case == 3
    assert bottom_chain_classify(S3.subgroup([0])).case == 1


def triple_loop_hasse_edges(masks) -> tuple[tuple[int, int], ...]:
    """Covering pairs by definition: i properly contains j, and no node lies strictly between."""
    edges = []
    for i, big in enumerate(masks):
        below = [j for j, small in enumerate(masks) if small != big and small & big == small]
        for j in below:
            direct = not any(
                masks[k] != masks[j]
                and masks[k] & big == masks[k]
                and masks[k] != big
                and masks[j] & masks[k] == masks[j]
                for k in below
            )
            if direct:
                edges.append((i, j))
    return tuple(edges)


def quadratic_longest_chain(masks) -> list[int]:
    """Node indices of a longest descending chain, each node extending the first best one above it."""
    n = len(masks)
    best, back = [1] * n, [-1] * n
    for i in range(n):
        for j in range(i):
            if masks[i] != masks[j] and masks[i] & masks[j] == masks[i] and best[j] + 1 > best[i]:
                best[i], back[i] = best[j] + 1, j
    end = max(range(n), key=lambda i: (best[i], -i))
    path = []
    while end != -1:
        path.append(end)
        end = back[end]
    return path[::-1]


@pytest.mark.parametrize(
    "spec",
    [
        "symmetric(4)",
        "symmetric(5)",
        "symmetric(6)",
        "alternating(6)",
        "dihedral(6)",
        "unitriangular(5)",
        "product(dihedral(4),symmetric(3))",
    ],
)
def test_hasse_edges_and_chain_match_pairwise_loops(spec):
    lattice = centralizer_lattice(from_spec(spec))
    masks = [node.members for node in lattice.nodes]
    assert lattice.hasse_edges() == triple_loop_hasse_edges(masks)
    report = c_dimension(lattice)
    path = quadratic_longest_chain(masks)
    assert [node.members for node in report.chain] == [masks[i] for i in path]
    wit = 0
    for got, i in zip(report.witness_sets, path):
        wit |= lattice.witnesses[i].members
        assert got.members == wit


def pairwise_containment(masks) -> tuple[int, ...]:
    """Bit i of entry j when node i properly contains node j, by testing every pair."""
    return tuple(sum(1 << i for i, big in enumerate(masks) if big != small and big & small == small) for small in masks)


@pytest.mark.parametrize(
    ("spec", "gens", "order", "nodes", "bottom"),
    [
        ("symmetric(6)", None, 720, 513, 1),
        ("alternating(6)", None, 360, 213, 1),
        # proper subgroups of symmetric(6); the second one's bottom node is its center
        ("symmetric(6)", [15, 150], 72, 96, 1),
        ("symmetric(6)", [78, 150], 48, 19, 2),
    ],
)
def test_containment_matches_pairwise_definition(spec, gens, order, nodes, bottom):
    G = from_spec(spec)
    ambient = G if gens is None else closure(G, gens)
    lattice = centralizer_lattice(ambient)
    masks = [node.members for node in lattice.nodes]
    assert (ambient.order, len(masks), lattice.nodes[-1].order) == (order, nodes, bottom)
    assert lattice._containment() == pairwise_containment(masks)


def test_hasse_edges_symmetric_3():
    lattice = centralizer_lattice(symmetric(3))
    assert lattice.hasse_edges() == ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 5), (4, 5))


def test_to_dot_output():
    text = centralizer_lattice(symmetric(3)).to_dot()
    assert text.startswith("digraph centralizers {")
    assert text.rstrip().endswith("}")
    assert 'n0 [label="C0 (order 6)"]' in text
    assert "n0 -> n1;" in text


def full_pairwise_lattice(ambient) -> list[tuple[int, int]]:
    """(node, witness) masks in lattice order, by the pair fixpoint run over every row."""
    G = ambient.parent
    amb = ambient.members
    found, order = {amb: 0}, [amb]
    for g in iter_mask(amb):
        node = G.element_centralizer_mask(g) & amb
        if node not in found:
            found[node] = 1 << g
            order.append(node)
    i = 1
    while i < len(order):
        for j in range(i):
            inter = order[i] & order[j]
            if inter not in found:
                found[inter] = found[order[i]] | found[order[j]]
                order.append(inter)
        i += 1
    return [(m, found[m]) for m in sorted(found, key=lambda m: (-m.bit_count(), m))]


# the wreath product D8 wr C2, of order 128 with 99 centralizers: its seed
# meets are not closed, so the certificate fails and the later rows run
D8_WR_C2 = [[1, 2, 3, 0, 4, 5, 6, 7], [0, 3, 2, 1, 4, 5, 6, 7], [4, 5, 6, 7, 0, 1, 2, 3]]


@pytest.fixture
def verdicts(monkeypatch):
    """The closure certificate's verdicts, in the order centralizer_lattice asks for them."""
    seen = []
    certify = centralizers._closed_from_seeds

    def spy(*args):
        seen.append(certify(*args))
        return seen[-1]

    monkeypatch.setattr(centralizers, "_closed_from_seeds", spy)
    return seen


def node_witness_pairs(lattice) -> list[tuple[int, int]]:
    return [(node.members, wit.members) for node, wit in zip(lattice.nodes, lattice.witnesses)]


def test_lattice_matches_the_full_pairwise_fixpoint(monkeypatch, verdicts):
    """Nodes and witnesses in order as if every row ran, with the certificate tried on every ambient."""
    monkeypatch.setattr(centralizers, "_CERTIFY_MIN_PAIRS", 0)
    wreath = all_subgroups(FiniteGroup.from_permutations(8, D8_WR_C2, name="D8 wr C2"))
    ambients = [*wreath, *all_subgroups(symmetric(5)), symmetric(6).as_subgroup(), alternating(6).as_subgroup()]
    stops = []
    for ambient in ambients:
        verdicts.clear()
        assert node_witness_pairs(centralizer_lattice(ambient)) == full_pairwise_lattice(ambient)
        stops.append(list(verdicts))
    assert (wreath[-1].order, len(centralizer_lattice(wreath[-1]))) == (128, 99)
    # the whole wreath product finds 8 nodes after its 40 seed rows, and 4 more subgroups need those rows
    continued = [k for k, v in enumerate(stops[: len(wreath)]) if v == [False]]
    assert len(continued) == 5 and continued[-1] == len(wreath) - 1
    assert stops[-2:] == [[True], [True]]


@pytest.mark.parametrize(
    ("ambient", "verdict"),
    [
        (lambda: symmetric(6), [True]),
        (lambda: FiniteGroup.from_permutations(8, D8_WR_C2), [False]),
        # 5 nodes after 14 seeds: meeting them is cheaper than certifying
        (lambda: symmetric(4), []),
    ],
    ids=["symmetric(6)", "D8 wr C2", "symmetric(4)"],
)
def test_certificate_is_tried_where_many_pairs_are_left(verdicts, ambient, verdict):
    centralizer_lattice(ambient())
    assert verdicts == verdict


@pytest.mark.parametrize(
    "conjugate",
    [lambda G, masks: [G.full_mask] * len(masks), lambda G, masks: [0] * len(masks)],
    ids=["non-seeds onto a seed", "non-seeds out of the family"],
)
def test_certificate_refuses_conjugates_off_the_other_nodes(monkeypatch, verdicts, conjugate):
    monkeypatch.setattr(FiniteGroup, "conjugate_masks", lambda self, masks, g: conjugate(self, masks))
    ambient = from_spec.__wrapped__("symmetric(5)").as_subgroup()
    assert node_witness_pairs(centralizer_lattice(ambient)) == full_pairwise_lattice(ambient)
    assert verdicts == [False]


def test_certificate_tests_every_orbit_representative():
    """On masks of 4 bits whose conjugations fix every node, so each node is its own orbit."""
    fixing = SimpleNamespace(conjugate_masks=lambda masks, g: list(masks))
    seeds = [0b1111, 0b0111, 0b1011, 0b1101]
    for rest, closed in (([0b0011], False), ([0b0011, 0b0101, 0b1001], False), ([0b0011, 0b0101, 0b1001, 0b0001], True)):
        order = seeds + rest
        assert centralizers._closed_from_seeds(fixing, [1], order, len(seeds), dict.fromkeys(order, 0)) is closed


def extraspecial_2_1_8() -> FiniteGroup:
    """The extraspecial group 2^(1+8), of order 512, as a validated Cayley table.

    Element z * 256 + v stands for (z, v) with z in F_2 and v in F_2^8, and
    (z1, v1)(z2, v2) = (z1 + z2 + beta(v1, v2), v1 + v2), where beta(v, w) is
    the sum of v_(2i) * w_(2i+1) mod 2.  Its centralizers are the preimages of
    the subspaces of F_2^8, far more than NODE_CAP of them.
    """
    v = np.arange(256)
    bits = np.array([bin(x).count("1") for x in range(256)])
    beta = bits[v[:, None] & 0x55 & v[None, :] >> 1] & 1
    z, v = np.divmod(np.arange(512), 256)
    table = (z[:, None] ^ z[None, :] ^ beta[v[:, None], v[None, :]]) << 8 | v[:, None] ^ v[None, :]
    return FiniteGroup.from_cayley_table(table.tolist(), name="extraspecial(2,1+8)")


def test_node_cap():
    G = extraspecial_2_1_8()
    for compute in (centralizer_lattice, dimension):
        with pytest.raises(CapExceededError, match="^centralizer lattice exceeds 20000 nodes$"):
            compute(G)


def test_relative_centralizer():
    S3 = symmetric(3)
    a3 = closure(S3, [g for g in range(6) if g and S3.mul(g, S3.mul(g, g)) == 0])
    assert a3.order == 3
    flip = next(g for g in range(6) if g and S3.mul(g, g) == 0)
    inside = centralizer(ElementSet(S3, 1 << flip), within=a3)
    assert inside.members == 1
