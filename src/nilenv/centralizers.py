"""Centralizer lattices, centralizer dimension, and small witness sets.

The centralizer dimension of a group is the number of strict drops in the
longest descending chain of centralizers, with the convention that abelian
groups (where the only centralizer is the whole group) have dimension 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError, InternalCheckError
from .groups import ElementSet, Subgroup, _ambient_pair, _check_same_group, iter_mask, mask_of
from .series import _center

# most centralizers `centralizer_lattice` enumerates before it gives up
NODE_CAP = 20_000
# The closure certificate is tried only where the rows after the seed rows
# meet at least this many pairs: its fixed cost (the ambient's generators and
# a few numpy calls per generator) is that of about 1,000-3,000 meets.
_CERTIFY_MIN_PAIRS = 1024


def centralizer(subset: ElementSet, within: Subgroup | None = None) -> Subgroup:
    """The centralizer of a subset, inside ``within`` (default: the whole group)."""
    G, inner = _ambient_pair(subset.parent if within is None else within)
    _check_same_group(subset, G)
    return Subgroup(G, inner & G.centralizer_mask(subset.members))


class CentralizerLattice:
    """All centralizers of subsets of an ambient subgroup, inside that subgroup.

    ``nodes[i]`` is the i-th centralizer (sorted by descending order, then by
    mask) and ``witnesses[i]`` is a subset whose centralizer it is.
    """

    def __init__(self, group, ambient, nodes, witnesses):
        self.group = group
        self.ambient = ambient
        self.nodes = nodes
        self.witnesses = witnesses

    def __len__(self) -> int:
        return len(self.nodes)

    def _containment(self) -> tuple[int, ...]:
        """Bitsets over node indices: bit i of entry j when node i properly contains node j.

        Node i holds x just when it contains x's least node, the last node holding x.
        So entry j is the AND of the nodes before j that hold x, over one x per least
        node inside node j; elements of the bottom node, held by every node, are skipped.
        """
        masks = [s.members for s in self.nodes]
        seen, reps = masks[-1], 0
        for m in masks[-2:0:-1]:
            new = m & ~seen
            reps, seen = reps | new & -new, seen | m
        holders = [1] * reps.bit_length()  # node 0 holds every element
        out = [0]
        for j in range(1, len(masks)):
            bits, m = (1 << j) - 1, masks[j] & reps
            while m:
                x = (m & -m).bit_length() - 1
                bits &= holders[x]
                holders[x] |= 1 << j
                m &= m - 1
            out.append(bits)
        return tuple(out)

    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """Covering pairs (i, j): node i properly contains node j with nothing between.

        The covers of j are the nodes above j that are not above another node
        above j.  The pairs are listed by ascending i, then j.
        """
        above = self._containment()
        edges = []
        for j, over in enumerate(above):
            higher = 0
            for k in iter_mask(over):
                higher |= above[k]
            edges.extend((i, j) for i in iter_mask(over & ~higher))
        return tuple(sorted(edges))

    def to_dot(self) -> str:
        lines = ["digraph centralizers {"]
        for i, node in enumerate(self.nodes):
            lines.append(f'  n{i} [label="C{i} (order {node.order})"];')
        for i, j in self.hasse_edges():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def centralizer_lattice(ambient) -> CentralizerLattice:
    """Compute every centralizer of a subset of ``ambient`` inside ``ambient``.

    The family is closed under intersection and is generated by the element
    centralizers, the seeds, so it is found by intersecting pairs to a
    fixpoint.  Raises :class:`CapExceededError` past ``NODE_CAP`` nodes.

    At the first row after the seed rows, if at least ``_CERTIFY_MIN_PAIRS``
    pairs are left, the loop stops when the nodes found are certified closed
    under meets: the rows left would add nothing, so the result is that of the
    full loop (on ``symmetric(6)`` 81,242 of 131,328 pairs are skipped).  Three
    facts make the certificate exact.  Every node is a meet of seeds, so the
    nodes are closed once each meets every seed among them.  Conjugation by
    ``ambient`` permutes the seeds.  So if each generator maps the other
    nodes among themselves, one node's seed meets settle its whole orbit.
    """
    G, amb = _ambient_pair(ambient)
    ambient_sub = ambient if isinstance(ambient, Subgroup) else G.as_subgroup()
    cents = G.element_centralizer_masks()
    found: dict[int, int] = {amb: 0}
    order: list[int] = [amb]
    for g in iter_mask(amb):
        node = cents[g] & amb
        if node not in found:
            found[node] = 1 << g
            order.append(node)

    seeds = len(order)
    i = 1
    while i < len(order):
        if i == seeds and (len(order) - seeds) * seeds >= _CERTIFY_MIN_PAIRS:
            if _closed_from_seeds(G, ambient_sub.generators, order, seeds, found):
                break
        current = order[i]
        for j in range(i):
            inter = current & order[j]
            if inter not in found:
                if len(order) >= NODE_CAP:
                    raise CapExceededError(f"centralizer lattice exceeds {NODE_CAP} nodes")
                found[inter] = found[current] | found[order[j]]
                order.append(inter)
        i += 1

    for node, wit in found.items():
        if amb & G.centralizer_mask(wit) != node:
            raise InternalCheckError("lattice node does not match its witness centralizer")

    ranked = sorted(found, key=lambda m: (-m.bit_count(), m))
    return CentralizerLattice(
        G,
        ambient_sub,
        tuple(Subgroup(G, m) for m in ranked),
        tuple(ElementSet(G, found[m]) for m in ranked),
    )


def _closed_from_seeds(G, gens, order, seeds, found) -> bool:
    """Whether the nodes of ``order``, the first ``seeds`` of them the seeds, are closed under meets.

    One node per orbit of the other nodes must meet every seed inside
    ``found``, and each generator must map the other nodes onto other nodes.
    Nothing is conjugated before the first non-seed node, which represents
    its orbit, passes: where the family is far from closed, it fails at once.
    """
    seed_nodes, rest = order[:seeds], order[seeds:]
    reached, moves = [False] * len(rest), None
    for rep in range(len(rest)):
        if reached[rep]:
            continue
        if any(rest[rep] & s not in found for s in seed_nodes):
            return False
        if moves is None:
            index = {node: k for k, node in enumerate(rest)}
            moves = [[index.get(m, -1) for m in G.conjugate_masks(rest, g)] for g in gens]
            if any(k < 0 for image in moves for k in image):
                return False
        stack = [rep]
        while stack:
            k = stack.pop()
            if not reached[k]:
                reached[k] = True
                stack += [image[k] for image in moves]
    return True


@dataclass(frozen=True)
class ChainReport:
    """A longest strictly descending chain of centralizers.

    ``length`` counts the strict drops (at least 1 by convention), ``chain``
    lists the centralizers from the ambient subgroup down, and
    ``witness_sets[i]`` is a set whose centralizer is ``chain[i]``.
    """

    length: int
    chain: tuple[Subgroup, ...]
    witness_sets: tuple[ElementSet, ...]


def c_dimension(lattice: CentralizerLattice) -> ChainReport:
    """Extract a longest descending centralizer chain from a lattice.

    Node i's longest chain extends the first of the longest chains among
    the nodes above it, scanned by ascending index.  Those all have smaller
    indices, so visiting the nodes by ascending index finishes them before i.
    """
    n = len(lattice.nodes)
    best = [1] * n
    back = [-1] * n
    for i, over in enumerate(lattice._containment()):
        for j in iter_mask(over):
            if best[j] + 1 > best[i]:
                best[i] = best[j] + 1
                back[i] = j
    end = max(range(n), key=lambda i: (best[i], -i))
    path = []
    while end != -1:
        path.append(end)
        end = back[end]
    path.reverse()

    G = lattice.group
    amb = lattice.ambient.members
    chain = tuple(lattice.nodes[i] for i in path)
    cumulative = []
    wit = 0
    for i in path:
        wit |= lattice.witnesses[i].members
        cumulative.append(ElementSet(G, wit))
        if amb & G.centralizer_mask(wit) != lattice.nodes[i].members:
            raise InternalCheckError("witness set does not cut out its chain entry")
    return ChainReport(max(1, len(path) - 1), chain, tuple(cumulative))


def dimension(ambient) -> int:
    """The centralizer dimension of a group or subgroup, memoized."""
    G, amb = _ambient_pair(ambient)
    return G.memo(("dimension", amb), _dimension, ambient)


def _dimension(ambient) -> int:
    return c_dimension(centralizer_lattice(ambient)).length


def greedy_witness(subset: ElementSet, within: Subgroup | None = None) -> tuple[int, ...]:
    """A short tuple of elements of ``subset`` with the same centralizer.

    Scans the subset in ascending order and keeps the elements that strictly
    shrink the running centralizer, so the result length never exceeds the
    centralizer dimension of the ambient group.
    """
    G, current = _ambient_pair(subset.parent if within is None else within)
    _check_same_group(subset, G)
    cents, picked = G.element_centralizer_masks(), []
    for x in subset:
        shrunk = current & cents[x]
        if shrunk != current:
            picked.append(x)
            current = shrunk
    return tuple(picked)


def minimal_centralizer_above(h: ElementSet) -> tuple[Subgroup, ElementSet]:
    """The least centralizer containing ``h``, with the set it centralizes.

    The least centralizer containing H is the double centralizer C(C(H)).
    Returns that subgroup together with C(H).  Both inclusions that make it
    least are re-verified, and failure raises :class:`InternalCheckError`.
    """
    G = h.parent
    c = G.centralizer_mask(h.members)
    e1 = G.centralizer_mask(c)
    if h.members & ~e1:
        raise InternalCheckError("double centralizer lost elements of the base set")
    cents = G.element_centralizer_masks()
    for g in iter_mask(c):
        if e1 & cents[g] != e1:
            raise InternalCheckError("double centralizer is not the least one")
    return Subgroup(G, e1), ElementSet(G, c)


@dataclass(frozen=True)
class BottomChainCase:
    """How a subgroup sits at the bottom of the centralizer chain.

    Case 1: the subgroup is central.  Case 2: its centralizer properly
    contains the center, and ``witness`` is that centralizer.  Case 3: its
    centralizer is exactly the center (and then Z(H) = Z(G) meet H).
    """

    case: int
    witness: ElementSet | None


def bottom_chain_classify(h: Subgroup) -> BottomChainCase:
    """Classify a subgroup by the trichotomy at the bottom of its chain."""
    G = h.parent
    z = G.center_mask()
    if h.members & ~z == 0:
        return BottomChainCase(1, None)
    c = G.centralizer_mask(h.members)
    if c != z:
        if c & ~z == 0:
            raise InternalCheckError("centralizer of a subgroup misses the center")
        c_of_c = G.centralizer_mask(c)
        if h.members & ~c_of_c or c_of_c == G.full_mask:
            raise InternalCheckError("case 2 witness fails H <= C(A) < G")
        return BottomChainCase(2, ElementSet(G, c))
    # Z(H) by H's own generators, not from the C(H) just compared with Z(G)
    if _center(h, 1).members != z & h.members:
        raise InternalCheckError("Z(H) differs from Z(G) meet H in case 3")
    return BottomChainCase(3, None)
