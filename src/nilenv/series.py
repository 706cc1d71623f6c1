"""Central series, iterated centralizer towers, and the commutator lemma checkers.

The iterated centralizer tower of a base subgroup P inside an ambient
subgroup G generalizes the upper central series: the level-m term collects
the elements of the intersection of the normalizers of all lower terms whose
commutators with P land in the previous term.  Everything here is computed
from that raw definition so that the structural claims about the tower
(subgroup-hood, normalization by P, the intersection law) stay testable.
"""

from __future__ import annotations

from .errors import HypothesisError, InternalCheckError
from .groups import (
    Subgroup,
    _ambient_pair,
    _check_same_group,
    commutator_subgroup,
    is_subgroup_mask,
    mask_of,
)


def _series(first: Subgroup, step) -> tuple[Subgroup, ...]:
    """first, step(first), ..., up to the first term equal to the one before, and order + 1 terms at most."""
    terms = [first]
    while len(terms) <= first.parent.order:
        nxt = step(terms[-1])
        if nxt.members == terms[-1].members:
            break
        terms.append(nxt)
    return tuple(terms)


def lower_central_series(P: Subgroup) -> tuple[Subgroup, ...]:
    """The terms P = gamma_1 >= gamma_2 >= ..., stopped at stabilization, memoized per P."""
    return P.parent.memo(("lcs", P.members), _lower_central_series, P)


def _lower_central_series(P: Subgroup) -> tuple[Subgroup, ...]:
    return _series(Subgroup(P.parent, P.members), lambda term: commutator_subgroup(term, P))


def upper_central_series(P: Subgroup) -> tuple[Subgroup, ...]:
    """The terms 1 = Z_0 <= Z_1 <= ... of P, stopped at stabilization, memoized per P.

    Z_(i+1) is the set of x in P with [x, g] in Z_i for every generator g
    of P.  That suffices because Z_i is normal in P: x Z_i is central in
    P / Z_i exactly when it commutes with the images of P's generators.
    """
    return P.parent.memo(("ucs", P.members), _upper_central_series, P)


def _upper_central_series(P: Subgroup) -> tuple[Subgroup, ...]:
    G, gens = P.parent, mask_of(P.generators)
    return _series(Subgroup(G, 1), lambda Z: Subgroup(G, G._select("comm", P.members, gens, Z.members)))


def nilpotence_class(P: Subgroup) -> int | None:
    """Nilpotence class of P, or None when P is not nilpotent, memoized per P.

    Read off both central series and cross-checked: the lower series ends
    at the identity, and the upper series ends at P, after as many steps as
    the class.  A disagreement raises :class:`InternalCheckError`.
    """
    return P.parent.memo(("nilclass", P.members), _nilpotence_class, P)


def _nilpotence_class(P: Subgroup) -> int | None:
    lower, upper = lower_central_series(P), upper_central_series(P)
    by_lower = len(lower) - 1 if lower[-1].members == 1 else None
    by_upper = len(upper) - 1 if upper[-1].members == P.members else None
    if by_lower != by_upper:
        raise InternalCheckError(
            f"central series disagree on nilpotence class: {by_lower} vs {by_upper}"
        )
    return by_lower


def iterated_centralizer(ambient, base: Subgroup, n: int) -> tuple[Subgroup, ...]:
    """The iterated centralizers C^m(base) inside ``ambient``, term m for m = 0..n.

    Level m is computed literally: elements of the intersection of the
    ambient normalizers of all lower terms whose commutator with every
    element of ``base`` lies in level m-1.  Each term is verified to be a
    subgroup.  Level m is memoized in its own entry, ``("tower", ambient,
    base, m)``, holding the term and that normalizer intersection, and is
    built from level m-1's entry; the levels are visited by a loop, so a
    deep tower does not recurse.
    """
    _check_same_group(ambient, base)
    G, amb = _ambient_pair(ambient)
    if base.members & ~amb:
        raise HypothesisError("base subgroup is not contained in the ambient subgroup")
    if n < 0:
        raise HypothesisError("tower level must be nonnegative")

    entry, terms = None, []
    for m in range(n + 1):
        entry = G.memo(("tower", amb, base.members, m), _tower_level, G, amb, base.members, entry)
        terms.append(entry[0])
    return tuple(terms)


def _tower_level(G, amb: int, base: int, below) -> tuple[Subgroup, int]:
    """A tower level's memo entry from the entry below, or level 0's when ``below`` is None."""
    if below is None:
        return Subgroup(G, 1), amb
    prev = below[0].members
    norm_inter = below[1] & G.normalizer_mask(prev)
    level = G._select("comm", norm_inter, base, prev)
    if not is_subgroup_mask(G, level):
        raise InternalCheckError("iterated centralizer level is not a subgroup")
    return Subgroup(G, level), norm_inter


def _series_term(terms, i: int):
    """Term i of a stabilized series, repeating the last term past the end."""
    return terms[i] if i < len(terms) else terms[-1]


def _center(P: Subgroup, j: int) -> Subgroup:
    """Z_j(P), read from the memoized upper central series."""
    return _series_term(upper_central_series(P), j)


def _gamma(P: Subgroup, i: int) -> Subgroup:
    """gamma_i(P) for i >= 1, with gamma_1 = P, read from the memoized lower central series."""
    return _series_term(lower_central_series(P), i - 1)


def _center_mismatch(tower, ambient: Subgroup, top: int) -> int | None:
    """The least j in 1..top with C^j(base) != Z_j(ambient), or None."""
    for j in range(1, top + 1):
        if tower[j].members != _center(ambient, j).members:
            return j
    return None


def _restricts(inner, outer, b: int) -> bool:
    """Whether C_B^j(A) = C_C^j(A) meet B at every level j, for A <= B <= C.

    ``inner`` and ``outer`` are the towers of A inside B and inside C, built to one level,
    and ``b`` is the mask of B.
    """
    return all(term.members == over.members & b for term, over in zip(inner, outer))


def check_hall_bound(ambient, base: Subgroup, i: int, k: int) -> bool:
    """Whether [gamma_i(base), C^k(base)] lands inside C^(k-i)(base)."""
    if not 1 <= i <= k:
        raise HypothesisError("indices must satisfy 1 <= i <= k")
    G, _ = _ambient_pair(ambient)
    tower = iterated_centralizer(ambient, base, k)
    gamma_i = _gamma(base, i)
    c_k = tower[k]
    rhs = tower[k - i].members

    # the kernel keeps the a with [a, c] in rhs for every c in C^k
    ok = G._select("comm", gamma_i.members, c_k.members, rhs) == gamma_i.members
    if ok != (commutator_subgroup(gamma_i, c_k).members & ~rhs == 0):
        raise InternalCheckError("pairwise and generated commutator checks disagree")
    return ok


def check_three_subgroup(
    first: Subgroup, second: Subgroup, third: Subgroup, inside: Subgroup
) -> bool | None:
    """Check: [K,L,M] <= N and [L,M,K] <= N imply [M,K,L] <= N.

    Returns whether [M,K,L] <= N, or None when the hypotheses fail (the
    implication is then vacuously true).  K, L, M must all normalize N;
    violating that precondition raises :class:`HypothesisError`, matching
    the lemma's standing hypothesis.
    """
    _check_same_group(first, second, third, inside)
    G = inside.parent
    norm = G.normalizer_mask(inside.members)
    for label, sub in (("K", first), ("L", second), ("M", third)):
        if sub.members & ~norm:
            raise HypothesisError(f"subgroup {label} does not normalize N")

    def inside_n(a, b, c):
        return commutator_subgroup(commutator_subgroup(a, b), c).members & ~inside.members == 0

    if not (inside_n(first, second, third) and inside_n(second, third, first)):
        return None
    return inside_n(third, first, second)


def check_centralizer_transfer(ambient, small: Subgroup, big: Subgroup, k: int) -> bool | None:
    """Check that a subgroup and an overgroup share their level-k centralizer.

    Given X <= P inside the ambient subgroup, the hypotheses are: the towers
    of X and P agree below level k, [gamma_k(P), C^k(X)] = 1, and X and P
    have equal centralizers.  Returns whether the conclusion C^k(X) = C^k(P)
    holds, or None when the hypotheses fail; False would mean an
    implementation bug.
    """
    if k < 1:
        raise HypothesisError("level k must be at least 1")
    G, amb = _ambient_pair(ambient)
    if small.members & ~big.members:
        raise HypothesisError("X must be contained in P")
    if big.members & ~amb:
        raise HypothesisError("P must be contained in the ambient subgroup")

    x_tower = iterated_centralizer(ambient, small, k)
    p_tower = iterated_centralizer(ambient, big, k)
    agree_below = all(
        x_tower[i].members == p_tower[i].members for i in range(k)
    )
    gamma_k = _gamma(big, k)
    c_k_x = x_tower[k]
    commute = commutator_subgroup(gamma_k, c_k_x).members == 1
    same_centralizer = amb & G.centralizer_mask(small.members) == amb & G.centralizer_mask(big.members)

    if not (agree_below and commute and same_centralizer):
        return None
    return c_k_x.members == p_tower[k].members


def check_nested_towers(inner: Subgroup, mid: Subgroup, outer: Subgroup, n: int) -> bool | None:
    """Check C_B^j(A) = C_C^j(A) meet B for j <= n, for nested A <= B <= C.

    The hypothesis, checked first, is that the tower of A inside C agrees
    with the upper central series of C at every level below n.  Returns
    whether the conclusion holds, or None when the hypothesis fails.
    """
    _check_same_group(inner, mid, outer)
    if n < 1:
        raise HypothesisError("level n must be at least 1")
    if inner.members & ~mid.members or mid.members & ~outer.members:
        raise HypothesisError("subgroups must be nested as A <= B <= C")

    outer_tower = iterated_centralizer(outer, inner, n)
    if _center_mismatch(outer_tower, outer, n - 1) is not None:
        return None
    return _restricts(iterated_centralizer(mid, inner, n), outer_tower, mid.members)
