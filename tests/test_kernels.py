"""The numpy-table kernels against scalar reference definitions.

Each reference below is the definition written as a loop over elements
through the public ``mul``/``inv``/``comm``/``conj``.  Inputs are random
permutation groups of degree at most 6 and relabelled catalog Cayley
tables, with subgroup masks and arbitrary subsets small enough for the
scalar loop and large enough for the numpy path.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilenv.catalog import from_spec, symmetric
from nilenv.envelope import fitting
from nilenv.errors import NotASubgroupError
from nilenv.groups import (
    MAX_ORDER,
    ElementSet,
    FiniteGroup,
    Subgroup,
    _SCALAR_MAX_WORK,
    commutator_subgroup,
    is_subgroup_mask,
    iter_mask,
    mask_of,
    normal_closure,
    product_set,
)
from nilenv.series import iterated_centralizer, nilpotence_class, upper_central_series

KERNEL_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

CATALOG_TABLES = (
    "dihedral(4)",
    "quaternion",
    "symmetric(4)",
    "unitriangular(3)",
    "product(dihedral(4),symmetric(3))",
    "alternating(5)",
    "unitriangular(5)",
)


# -- scalar references ----------------------------------------------------


def ref_closure(G, seed) -> int:
    got = {0}
    frontier = [0]
    while frontier:
        frontier = [y for y in {G.mul(x, s) for x in frontier for s in seed} if y not in got]
        got.update(frontier)
    return mask_of(got)


def ref_element_centralizer(G, g) -> int:
    return mask_of(x for x in range(G.order) if G.mul(x, g) == G.mul(g, x))


def ref_commutator_subgroup(G, a_mask, b_mask) -> int:
    return ref_closure(G, {G.comm(a, b) for a in iter_mask(a_mask) for b in iter_mask(b_mask)})


def ref_normalizer(G, mask) -> int:
    members = list(iter_mask(mask))
    return mask_of(g for g in range(G.order) if all(mask >> G.conj(x, g) & 1 for x in members))


def ref_normal_closure(G, g) -> int:
    return ref_closure(G, {G.conj(g, h) for h in range(G.order)})


def ref_is_subgroup(G, mask) -> bool:
    elems = list(iter_mask(mask))
    return bool(mask & 1) and all(mask >> G.mul(a, b) & 1 for a in elems for b in elems)


def ref_centralizing(G, candidates, base, prev) -> int:
    """The x in ``candidates`` with [x, p] in ``prev`` for every p in ``base``."""
    ps = list(iter_mask(base))
    return mask_of(x for x in iter_mask(candidates) if all(prev >> G.comm(x, p) & 1 for p in ps))


def ref_upper_central_series(G, p_mask) -> list[int]:
    masks = [1]
    while masks[-1] != p_mask:
        nxt = ref_centralizing(G, p_mask, p_mask, masks[-1])
        if nxt == masks[-1]:
            break
        masks.append(nxt)
    return masks


def ref_iterated_centralizer(G, amb, base, n) -> list[int]:
    terms = [1]
    while len(terms) <= n:
        candidates = amb
        for t in terms:
            candidates &= ref_normalizer(G, t)
        terms.append(ref_centralizing(G, candidates, base, terms[-1]))
    return terms


def ref_fitting_by_cores(G) -> int:
    """The product of the p-cores: x is in one when its normal closure has prime-power order."""

    def prime_power(m):
        p = next((d for d in range(2, m + 1) if m % d == 0), None)
        while p and m % p == 0:
            m //= p
        return m == 1

    in_cores = [x for x in range(G.order) if prime_power(ref_normal_closure(G, x).bit_count())]
    return ref_closure(G, in_cores)


def ref_engel(G) -> tuple[int, int]:
    """Bounded left Engel elements by iterating [g, x, ..., x] for every pair."""
    mask, bound = 0, 0
    for x in range(G.order):
        steps = []
        for g in range(G.order):
            c, seen, i = g, set(), 0
            while c != 0 and c not in seen:
                seen.add(c)
                c, i = G.comm(c, x), i + 1
            if c != 0:
                break
            steps.append(i)
        else:
            mask |= 1 << x
            bound = max(bound, max(steps))
    return mask, bound


# -- inputs -----------------------------------------------------------------
#
# Hypothesis draws the seed of one Random per example, and the inputs come
# from it: choices drawn one by one through Hypothesis favour its simplest
# values, so nearly every subset would have one or two elements and stay
# below the numpy path.

randoms = st.randoms(use_true_random=True)


def random_group(rng, max_degree: int = 6) -> FiniteGroup:
    """A fresh group: generated by random permutations, or a relabelled catalog table."""
    if rng.random() < 0.5:
        degree = rng.randint(1, max_degree)
        gens = [rng.sample(range(degree), degree) for _ in range(rng.randint(1, 3))]
        return FiniteGroup.from_permutations(degree, gens)
    base = from_spec(rng.choice(CATALOG_TABLES))
    sigma = rng.sample(range(base.order), base.order)
    table = [[0] * base.order for _ in range(base.order)]
    for a, b in itertools.product(range(base.order), repeat=2):
        table[sigma[a]][sigma[b]] = sigma[base.mul(a, b)]
    return FiniteGroup.from_cayley_table(table)


def random_subgroup(rng, G, within=None) -> int:
    """The whole (or ``within``), the trivial group, or one generated by 1-3 random elements."""
    whole = G.full_mask if within is None else within
    kind = rng.choice(("whole", "trivial", "generated", "generated"))
    if kind == "whole":
        return whole
    if kind == "trivial":
        return 1
    pool = list(iter_mask(whole))
    return ref_closure(G, rng.sample(pool, min(len(pool), rng.randint(1, 3))))


def random_subset(rng, G) -> int:
    """A nonempty subset: a few elements, a random half of the group, or a subgroup."""
    kind = rng.choice(("few", "half", "subgroup"))
    if kind == "subgroup":
        return random_subgroup(rng, G)
    if kind == "half":
        return rng.getrandbits(G.order) | 1
    return mask_of(rng.randrange(G.order) for _ in range(rng.randint(1, 12)))


# -- the differential tests ------------------------------------------------


def test_inputs_reach_both_sides_of_the_work_size():
    # every kernel on dihedral(4) is scalar; every one on unitriangular(5),
    # even an element centralizer (order-many pairs), can be vectorized
    small, large = from_spec("dihedral(4)"), from_spec("unitriangular(5)")
    assert small.order * small.order <= _SCALAR_MAX_WORK < large.order <= MAX_ORDER


# op(x, p) of the private kernels FiniteGroup._select and FiniteGroup._image
OPS = {
    "mul": lambda G, x, p: G.mul(x, p),
    "comm": lambda G, x, p: G.comm(x, p),
    "conj": lambda G, x, p: G.conj(p, x),
}


# groups for the kernels themselves, which keep no memo
PAIR_GROUPS = ("dihedral(4)", "symmetric(4)", "alternating(5)", "unitriangular(5)", "symmetric(6)")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(randoms)
def test_pair_kernels_match_references(rng):
    G = from_spec(rng.choice(PAIR_GROUPS))
    op = rng.choice(sorted(OPS))
    xs, ps, target = random_subset(rng, G), random_subset(rng, G), random_subset(rng, G)
    f = OPS[op]
    image = mask_of(f(G, x, p) for x in iter_mask(xs) for p in iter_mask(ps))
    assert G._image(op, xs, ps) == image
    selected = mask_of(
        x for x in iter_mask(xs) if all(target >> f(G, x, p) & 1 for p in iter_mask(ps))
    )
    assert G._select(op, xs, ps, target) == selected


@KERNEL_SETTINGS
@given(randoms)
def test_group_kernels_match_references(rng):
    G = random_group(rng)
    g = rng.randrange(G.order)
    assert G.element_centralizer_mask(g) == ref_element_centralizer(G, g)
    assert normal_closure(G, g).members == ref_normal_closure(G, g)

    for mask in (random_subgroup(rng, G), random_subset(rng, G)):
        assert G.normalizer_mask(mask) == ref_normalizer(G, mask)
        assert is_subgroup_mask(G, mask) == ref_is_subgroup(G, mask)
        assert G.conjugate_mask(mask, g) == mask_of(G.conj(x, g) for x in iter_mask(mask))

    a, b = random_subset(rng, G), random_subgroup(rng, G)
    got = commutator_subgroup(ElementSet(G, a), ElementSet(G, b)).members
    assert got == ref_commutator_subgroup(G, a, b)

    h, k = random_subgroup(rng, G), random_subgroup(rng, G)
    # the memo is keyed by the two masks alone; clear it so that the
    # generator path for subgroups runs, not the all-pairs result above
    G._memo.clear()
    got = commutator_subgroup(Subgroup(G, h), Subgroup(G, k)).members
    assert got == ref_commutator_subgroup(G, h, k)

    ab = mask_of(G.mul(x, y) for x in iter_mask(h) for y in iter_mask(k))
    ba = mask_of(G.mul(y, x) for x in iter_mask(h) for y in iter_mask(k))
    if ab == ba:
        assert product_set(Subgroup(G, h), Subgroup(G, k)).members == ab
    else:
        with pytest.raises(NotASubgroupError):
            product_set(Subgroup(G, h), Subgroup(G, k))


@KERNEL_SETTINGS
@given(randoms)
def test_series_kernels_match_references(rng):
    G = random_group(rng)
    p = random_subgroup(rng, G)
    expect = ref_upper_central_series(G, p)
    series = upper_central_series(Subgroup(G, p))
    assert [t.members for t in series.terms] == expect
    assert series.nilpotence_class == (len(expect) - 1 if expect[-1] == p else None)

    amb = random_subgroup(rng, G)
    base = random_subgroup(rng, G, within=amb)
    tower = iterated_centralizer(Subgroup(G, amb), Subgroup(G, base), 3)
    assert [t.members for t in tower.terms] == ref_iterated_centralizer(G, amb, base, 3)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(randoms.map(lambda rng: random_group(rng, max_degree=5)))
@example(FiniteGroup.from_permutations(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]))
@example(FiniteGroup.from_cayley_table(from_spec("unitriangular(5)")._table))
# order 96: its Fitting subgroup, the 48 rotations, is larger than its hypercenter
@example(FiniteGroup.from_cayley_table(from_spec("dihedral(48)")._table))
def test_fitting_engel_set_matches_reference(G):
    report = fitting(G)
    mask, bound = ref_engel(G)
    assert report.by_engel.members == mask
    assert report.engel_bound_n == bound
    assert report.by_op_cores.members == ref_fitting_by_cores(G)


def test_normal_structure_work_is_bounded(monkeypatch):
    """The kernels run on generators and conjugacy classes, not on all element pairs."""
    work = {"pairs": 0, "images": 0}
    select, image = FiniteGroup._select, FiniteGroup._image

    def counting_select(self, op, xs, ps, target):
        work["pairs"] += xs.bit_count() * ps.bit_count()
        return select(self, op, xs, ps, target)

    def counting_image(self, op, xs, ps):
        work["pairs"] += xs.bit_count() * ps.bit_count()
        work["images"] += 1
        return image(self, op, xs, ps)

    monkeypatch.setattr(FiniteGroup, "_select", counting_select)
    monkeypatch.setattr(FiniteGroup, "_image", counting_image)

    # catalog.symmetric builds a fresh group each call, with empty memos
    assert nilpotence_class(symmetric(6).as_subgroup()) is None
    # all pairs would be 720 * 720 = 518,400 for [S6, S6] alone, and as
    # many again for Z_1; the generators make it about 4,000
    assert work["pairs"] <= 20_000

    G = symmetric(6)
    work["images"] = 0
    assert fitting(G).fitting.order == 1
    # one image per class, and a few products; the image-set iteration
    # over each x made 3,898 calls
    assert len(G.conjugacy_classes()) == 11
    assert work["images"] <= 3 * 11


# -- element indices and tables of permutation groups -----------------------


def naive_permutation_group(degree, generators):
    """Breadth-first enumeration by tuple composition, and the table by lookups."""
    gens = [tuple(g) for g in generators]
    identity = tuple(range(degree))
    perms, index, frontier = [identity], {identity: 0}, [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for s in gens:
                q = tuple(s[v] for v in p)
                if q not in index:
                    index[q] = len(perms)
                    perms.append(q)
                    nxt.append(q)
        frontier = nxt
    return perms, [[index[tuple(q[v] for v in p)] for q in perms] for p in perms]


def cycle(degree, points):
    image = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        image[a] = b
    return image


PERMUTATION_CASES = {
    "trivial": (3, []),
    "symmetric(3)": (3, [[1, 0, 2], [1, 2, 0]]),
    "symmetric(6)": (6, [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]),
    "repeated generator": (4, [[1, 2, 3, 0], [1, 2, 3, 0], [3, 2, 1, 0]]),
    "17-cycle": (17, [cycle(17, list(range(17)))]),
    "dihedral on 17 points": (17, [cycle(17, list(range(17))), [(-i) % 17 for i in range(17)]]),
    "16-cycle and 3-cycle on 20 points": (20, [cycle(20, list(range(16))), cycle(20, [17, 18, 19])]),
}


@pytest.mark.parametrize("case", PERMUTATION_CASES)
def test_permutation_tables_match_naive_enumeration(case):
    degree, gens = PERMUTATION_CASES[case]
    G = FiniteGroup.from_permutations(degree, gens)
    perms, table = naive_permutation_group(degree, gens)
    assert list(G._perms) == perms
    assert G._table == table
    assert [row.index(0) for row in table] == G.inverse_table


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(st.permutations(range(d)), max_size=3).map(lambda g: (d, g))))
def test_random_permutation_tables_match_naive_enumeration(case):
    degree, gens = case
    G = FiniteGroup.from_permutations(degree, gens)
    perms, table = naive_permutation_group(degree, gens)
    assert list(G._perms) == perms and G._table == table
