"""Group construction, subset machinery, and serialization."""

from __future__ import annotations

import enum
import itertools
import random
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilenv import groups
from nilenv.catalog import (
    DEFAULT_CATALOG,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    from_spec,
    quaternion,
    symmetric,
    unitriangular,
)
from nilenv.errors import (
    CapExceededError,
    MalformedInputError,
    NotASubgroupError,
    ParentMismatchError,
)
from nilenv.groups import (
    ElementSet,
    FiniteGroup,
    Subgroup,
    closure,
    commutator_subgroup,
    group_from_dict,
    group_to_dict,
    hall_witt_products,
    iter_mask,
    load_group,
    mask_of,
    normal_closure,
    normalizer,
    product_set,
    save_group,
    subgroup_from_dict,
    subgroup_to_dict,
)

# A Latin square of order 5 with identity 0 that is not associative: the
# only group of order 5 is cyclic, and here 1 * 1 = 0 gives an element of
# order 2, which 5 does not allow.
NONASSOCIATIVE_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def element_order(G: FiniteGroup, g: int) -> int:
    k, x = 1, g
    while x != 0:
        x = G.mul(x, g)
        k += 1
    return k


def brute_closure(G: FiniteGroup, seed) -> set[int]:
    got = {0, *seed}
    while True:
        more = {G.mul(a, b) for a in got for b in got} | {G.inv(a) for a in got}
        if more <= got:
            return got
        got |= more


def test_identity_is_relabelled_to_zero():
    # cyclic of order 3 written with identity at index 2
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    G = FiniteGroup.from_cayley_table(table)
    assert G.order == 3
    assert all(G.mul(0, j) == j and G.mul(j, 0) == j for j in range(3))
    assert element_order(G, 1) == 3


def test_bad_tables_are_rejected():
    with pytest.raises(MalformedInputError):
        FiniteGroup.from_cayley_table([])
    for table, message in (
        ([[0, 1], [1]], "row 1 does not have length 2"),
        ([[0, 1], 5], "row 1 does not have length 2"),
        ([[0, 1], [1, True]], "row 1 contains bad entry True"),
        ([[0, 1.0], [1, 0]], "row 0 contains bad entry 1.0"),
        ([[0, 1], [1, "1"]], "row 1 contains bad entry '1'"),
        ([[0, 1], [-1, 0]], "row 1 contains bad entry -1"),
        ([[0, 1], [1, 2]], "row 1 contains bad entry 2"),
        # a range error, not numpy's OverflowError for int16 or int64
        ([[0, 2**70], [1, 0]], f"row 0 contains bad entry {2**70}"),
        ([[0, 2**40], [1, 0]], f"row 0 contains bad entry {2**40}"),
        ([[0, 1], [40000, 0]], "row 1 contains bad entry 40000"),
        ([[0, -40000], [1, 0]], "row 0 contains bad entry -40000"),
        # the order itself, in a table whose every entry is an int that fits int16
        ([[0, 1, 2], [1, 2, 0], [2, 0, 3]], "row 2 contains bad entry 3"),
        # the first bad row or entry is named, in row order
        ([[0, "x"], [1]], "row 0 contains bad entry 'x'"),
        ([[0, 2], [1]], "row 0 contains bad entry 2"),
        ([[0, 40000], [1]], "row 0 contains bad entry 40000"),
        ([[0, 1, 2], [1, 2, -1], [2, 0]], "row 1 contains bad entry -1"),
        ([[0, 1, 2], [1, 2], [2, 0, 7]], "row 1 does not have length 3"),
    ):
        with pytest.raises(MalformedInputError) as info:
            FiniteGroup.from_cayley_table(table)
        assert str(info.value) == message
    with pytest.raises(MalformedInputError):
        FiniteGroup.from_cayley_table([[0, 0], [1, 1]])
    # Latin square whose only left identity is not a right identity
    with pytest.raises(MalformedInputError):
        FiniteGroup.from_cayley_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    # int subclasses other than bool are entries like any int
    Bit = enum.IntEnum("Bit", [("ZERO", 0), ("ONE", 1)])
    G = FiniteGroup.from_cayley_table([[Bit.ZERO, Bit.ONE], [Bit.ONE, Bit.ZERO]])
    assert G.order == 2 and G.mul(1, 1) == 0


def test_nonassociative_table_names_a_triple():
    with pytest.raises(MalformedInputError, match=r"not associative at \(\d+, \d+, \d+\)"):
        FiniteGroup.from_cayley_table(NONASSOCIATIVE_TABLE)


# A loop of order 6 with identity 0: 1 generates the subgroup {0, 1, 2},
# so Light's test passes its first generator and fails at the second, 3.
NONASSOCIATIVE_TABLE_6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 4, 5, 3],
    [2, 0, 1, 5, 3, 4],
    [3, 4, 5, 0, 1, 2],
    [4, 5, 3, 2, 0, 1],
    [5, 3, 4, 1, 2, 0],
]


@pytest.mark.parametrize(
    "table, triple",
    [(NONASSOCIATIVE_TABLE, "(2, 1, 1)"), (NONASSOCIATIVE_TABLE_6, "(1, 3, 3)")],
)
@pytest.mark.parametrize("scalar_max_work", [groups._SCALAR_MAX_WORK, 0])
def test_small_nonassociative_tables_fail_alike_on_both_paths(
    monkeypatch, table, triple, scalar_max_work
):
    # Light's test has one definition at every order; _SCALAR_MAX_WORK,
    # which switches the pair kernels between their scalar and numpy loops,
    # must not change the failing triple it names
    monkeypatch.setattr(groups, "_SCALAR_MAX_WORK", scalar_max_work)
    with pytest.raises(MalformedInputError) as info:
        FiniteGroup.from_cayley_table(table)
    assert str(info.value) == f"multiplication is not associative at {triple}"


def intercalate_switch(table, i, j, k, m):
    """Copy of ``table`` with the intercalate in rows i, k and columns j, m swapped."""
    assert table[i][j] == table[k][m] and table[i][m] == table[k][j]
    out = [list(row) for row in table]
    out[i][j], out[i][m] = table[i][m], table[i][j]
    out[k][j], out[k][m] = table[k][m], table[k][j]
    return out


def exhaustive_triple(table):
    """First (i, j, k) with (i*j)*k != i*(j*k), or None; the n^3 reference."""
    n = len(table)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return i, j, k
    return None


def assert_named_triple_fails(table, message):
    i, j, k = map(int, re.search(r"\((\d+), (\d+), (\d+)\)", message).groups())
    assert table[table[i][j]][k] != table[i][table[j][k]]


def test_large_nonassociative_table_is_rejected():
    # rows and columns 1 and 257 of cyclic(512) hold the intercalate 2/258;
    # swapping it keeps a Latin square with identity 0 but breaks
    # associativity in only about 16 of every n^2 triples, so a sampled
    # check would likely miss it
    table = intercalate_switch(cyclic(512)._array.tolist(), 1, 1, 257, 257)
    with pytest.raises(MalformedInputError, match="not associative") as info:
        FiniteGroup.from_cayley_table(table)
    assert_named_triple_fails(table, str(info.value))


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic(300)",
        "dihedral(8)",
        "quaternion",
        "unitriangular(7)",
        "product(dihedral(4), symmetric(3))",
        "symmetric(5)",
        "alternating(4)",
    ],
)
def test_catalog_tables_pass_the_associativity_check(spec):
    G = from_spec(spec)
    H = FiniteGroup.from_cayley_table(G._array.tolist())
    assert H.order == G.order and H._array.tolist() == G._array.tolist()


def _switchable_loops():
    """Loops one or two intercalate switches away from groups of order 8."""
    out = []
    for base in (G._array.tolist() for G in (cyclic(8), dihedral(4), quaternion())):
        spots = [
            (i, j, k, m)
            for i in range(1, 8)
            for k in range(i + 1, 8)
            for j in range(1, 8)
            for m in range(j + 1, 8)
            if base[i][j] == base[k][m] and base[i][m] == base[k][j]
        ]
        out.append((base, spots))
    return out


_LOOPS = _switchable_loops()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(_LOOPS) - 1), st.lists(st.integers(min_value=0), min_size=1, max_size=2))
def test_associativity_check_matches_exhaustive_reference(which, picks):
    table, spots = _LOOPS[which]
    for pick in picks:
        spots = [
            (i, j, k, m)
            for i, j, k, m in spots
            if table[i][j] == table[k][m] and table[i][m] == table[k][j]
        ]
        if not spots:
            break
        table = intercalate_switch(table, *spots[pick % len(spots)])
    expected = exhaustive_triple(table)
    if expected is None:
        FiniteGroup.from_cayley_table(table)
    else:
        with pytest.raises(MalformedInputError, match="not associative") as info:
            FiniteGroup.from_cayley_table(table)
        assert_named_triple_fails(table, str(info.value))


def cyclic_formula(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_formula(n):
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for e1 in (0, 1):
        for i1 in range(n):
            for e2 in (0, 1):
                for i2 in range(n):
                    i = (i1 + (i2 if e1 == 0 else -i2)) % n
                    table[e1 * n + i1][e2 * n + i2] = (e1 ^ e2) * n + i
    return table


def unitriangular_formula(p):
    n = p * p * p
    table = [[0] * n for _ in range(n)]
    for a1 in range(p):
        for b1 in range(p):
            for c1 in range(p):
                row = table[a1 * p * p + b1 * p + c1]
                for a2 in range(p):
                    for b2 in range(p):
                        for c2 in range(p):
                            a = (a1 + a2) % p
                            b = (b1 + b2 + a1 * c2) % p
                            c = (c1 + c2) % p
                            row[a2 * p * p + b2 * p + c2] = a * p * p + b * p + c
    return table


def product_formula(G, H):
    n, m = G.order * H.order, H.order
    table = [[0] * n for _ in range(n)]
    for g1 in range(G.order):
        for h1 in range(m):
            row = table[g1 * m + h1]
            for g2 in range(G.order):
                gm = G._mul(g1, g2) * m
                for h2 in range(m):
                    row[g2 * m + h2] = gm + H._mul(h1, h2)
    return table


def assert_catalog_table(G, expected):
    assert G._array.dtype == np.int16
    assert G._array.tolist() == expected
    assert [row.tolist() for row in G._rows] == expected
    # catalog tables other than quaternion's are built unvalidated, so check them here
    assert FiniteGroup.from_cayley_table(expected)._array.tolist() == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 33, 128])
def test_cyclic_and_dihedral_tables_match_their_formulas(n):
    assert_catalog_table(cyclic(n), cyclic_formula(n))
    assert_catalog_table(dihedral(n), dihedral_formula(n))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_unitriangular_tables_match_their_formula(p):
    assert_catalog_table(unitriangular(p), unitriangular_formula(p))


@pytest.mark.parametrize(
    "first, second",
    [("cyclic(1)", "cyclic(3)"), ("dihedral(4)", "symmetric(3)"), ("quaternion", "cyclic(2)"),
     ("symmetric(3)", "alternating(4)")],
)
def test_direct_product_tables_match_their_formula(first, second):
    G, H = from_spec(first), from_spec(second)
    assert_catalog_table(direct_product(G, H), product_formula(G, H))


def test_a_group_holds_one_table():
    # the int16 table is the only multiplication table, 8 MB at order 2048;
    # the scalar rows are views of its buffer, not copies
    tracemalloc.start()
    try:
        G = cyclic(2048)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(row.obj is G._array for row in G._rows)
    assert G._mul(2047, 3) == 2 and retained <= 12_000_000


def test_permutation_group_construction():
    G = FiniteGroup.from_permutations(3, [[1, 0, 2], [1, 2, 0]])
    assert G.order == 6
    assert G.kind == "perm"
    assert sorted(element_order(G, g) for g in range(6)) == [1, 2, 2, 2, 3, 3]


def test_permutation_order_cap():
    # symmetric(7) has order 5040: the search stops one element past MAX_ORDER
    with pytest.raises(CapExceededError, match=r"^group order at least 2049 exceeds cap 2048$"):
        FiniteGroup.from_permutations(7, [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]])


def test_catalog_refuses_orders_above_the_limit_before_building():
    with pytest.raises(CapExceededError, match=r"^group order 5040 exceeds cap 2048$"):
        symmetric(7)
    # 20! / 2: without the up-front check, 198 generators of degree 200 are built first
    with pytest.raises(CapExceededError, match=r"^group order at least 1216451004088320000 exceeds cap 2048$"):
        alternating(200)
    with pytest.raises(CapExceededError, match=r"^group order 2197 exceeds cap 2048$"):
        unitriangular(13)
    assert [alternating(n).order for n in (1, 2, 3, 6)] == [1, 1, 3, 360]


def test_bad_permutations_are_rejected():
    with pytest.raises(MalformedInputError):
        FiniteGroup.from_permutations(3, [[0, 0, 1]])
    with pytest.raises(MalformedInputError):
        FiniteGroup.from_permutations(3, [[1, 0]])
    with pytest.raises(MalformedInputError):
        FiniteGroup.from_permutations(0, [])
    # bools are not points: True would read as 1
    with pytest.raises(MalformedInputError, match="degree must be a positive integer"):
        FiniteGroup.from_permutations(True, [])
    for bad in ([True, 0, 2], [1.0, 0, 2], [0, 1, "a"], 5):
        with pytest.raises(MalformedInputError, match="is not a permutation of 0..2"):
            FiniteGroup.from_permutations(3, [bad])


def test_cayley_and_permutation_dihedral_agree():
    table_version = dihedral(4)
    perm_version = FiniteGroup.from_permutations(4, [[1, 2, 3, 0], [3, 2, 1, 0]])
    assert perm_version.order == table_version.order == 8
    assert perm_version.center().order == table_version.center().order == 2
    for G in (table_version, perm_version):
        assert sorted(element_order(G, g) for g in range(8)) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_element_index_checks():
    G = symmetric(3)
    with pytest.raises(MalformedInputError):
        G.mul(0, 6)
    with pytest.raises(MalformedInputError):
        G.inv(-1)
    with pytest.raises(MalformedInputError):
        G.subgroup_from_generators([2, 99])
    with pytest.raises(MalformedInputError):
        G.mul(True, 0)


def test_quaternion_table_is_validated(monkeypatch):
    checked = []
    monkeypatch.setattr(FiniteGroup, "_check_associative", staticmethod(lambda arr, n: checked.append(n)))
    assert quaternion().order == 8
    assert checked == [8]


def test_inverses_and_commutators():
    rng = random.Random(7)
    for G in (symmetric(4), quaternion(), unitriangular(3)):
        for _ in range(50):
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            assert G.mul(a, G.inv(a)) == 0
            assert G.mul(G.inv(a), a) == 0
            lhs = G.mul(G.mul(G.mul(G.inv(a), G.inv(b)), a), b)
            assert G.comm(a, b) == lhs
            assert G.conj(a, b) == G.mul(G.mul(G.inv(b), a), b)


def bfs_closure_mask(G: FiniteGroup, seed) -> int:
    """The subgroup generated by ``seed``: right multiplication from 1 until closed."""
    seed = list(seed)
    got = {0}
    frontier = [0]
    while frontier:
        frontier = [y for y in {G.mul(x, s) for x in frontier for s in seed} if y not in got]
        got.update(frontier)
    return mask_of(got)


# fresh groups, so closure_mask memo entries come only from this test
_CLOSURE_GROUPS = (
    FiniteGroup.from_cayley_table(dihedral(8)._array.tolist()),
    FiniteGroup.from_cayley_table(unitriangular(5)._array.tolist()),
    FiniteGroup.from_cayley_table(from_spec("product(dihedral(4), symmetric(3))")._array.tolist()),
    FiniteGroup.from_cayley_table(quaternion()._array.tolist()),
    FiniteGroup.from_permutations(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]),
    FiniteGroup.from_permutations(6, [[1, 2, 0, 3, 4, 5], [0, 1, 3, 4, 5, 2], [5, 4, 3, 2, 1, 0]]),
    FiniteGroup.from_permutations(7, [[1, 2, 3, 4, 5, 6, 0], [0, 2, 1, 6, 4, 5, 3]]),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_closure_mask_matches_bfs_reference(data):
    G = data.draw(st.sampled_from(_CLOSURE_GROUPS))
    seed = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=6))
    got = G.closure_mask(mask_of(seed))
    assert got == bfs_closure_mask(G, seed)
    assert all(got >> G.inv(g) & 1 for g in iter_mask(got))


def test_closure_against_brute_force():
    rng = random.Random(11)
    G = symmetric(4)
    for _ in range(20):
        seed = [rng.randrange(G.order) for _ in range(rng.randint(1, 3))]
        sub = closure(G, seed)
        assert set(sub.elements) == brute_closure(G, seed)


def test_subgroup_basics():
    G = dihedral(4)
    rotations = closure(G, [1])
    assert rotations.order == 4
    assert rotations.elements == (0, 1, 2, 3)
    assert 2 in rotations
    assert 5 not in rotations
    assert rotations.is_normal
    assert len(list(iter(rotations))) == 4
    regenerated = G.subgroup_from_generators(rotations.generators)
    assert regenerated == rotations
    assert hash(regenerated) == hash(rotations)


def test_subgroup_validation():
    G = symmetric(3)
    three_cycle = next(g for g in range(6) if element_order(G, g) == 3)
    with pytest.raises(NotASubgroupError):
        G.subgroup([0, three_cycle])


def test_subgroups_read_an_iterator_once():
    # indices are checked and collected in one pass, so a generator works
    G = symmetric(3)
    three_cycle = next(g for g in range(6) if element_order(G, g) == 3)
    assert G.subgroup(iter([three_cycle, G.inv(three_cycle)])).order == 3
    assert G.subgroup_from_generators(g for g in [three_cycle]).order == 3
    with pytest.raises(MalformedInputError):
        G.subgroup_from_generators(g for g in [three_cycle, 6])


def test_commutator_subgroup_oracles():
    D8 = dihedral(4)
    derived = commutator_subgroup(D8.as_subgroup(), D8.as_subgroup())
    assert derived.members == D8.center_mask()

    S3 = symmetric(3)
    derived = commutator_subgroup(S3.as_subgroup(), S3.as_subgroup())
    assert derived.order == 3
    assert all(element_order(S3, g) in (1, 3) for g in derived)


def test_commutator_subgroup_parent_mismatch():
    with pytest.raises(ParentMismatchError):
        commutator_subgroup(symmetric(3).as_subgroup(), dihedral(4).as_subgroup())


def test_product_set():
    S3 = symmetric(3)
    a3 = commutator_subgroup(S3.as_subgroup(), S3.as_subgroup())
    flips = [g for g in range(6) if element_order(S3, g) == 2]
    whole = product_set(a3, closure(S3, [flips[0]]))
    assert whole.members == S3.full_mask
    with pytest.raises(NotASubgroupError):
        product_set(closure(S3, [flips[0]]), closure(S3, [flips[1]]))


def test_product_set_generators_have_no_duplicates():
    G = dihedral(4)
    rotations = closure(G, [1])
    again = product_set(rotations, rotations)
    assert again == rotations
    assert len(set(again.generators)) == len(again.generators)
    assert closure(G, again.generators) == rotations


def test_normalizer_and_normal_closure():
    S3 = symmetric(3)
    flips = [g for g in range(6) if element_order(S3, g) == 2]
    three_cycles = [g for g in range(6) if element_order(S3, g) == 3]
    assert normalizer(closure(S3, [three_cycles[0]])).members == S3.full_mask
    assert normalizer(closure(S3, [flips[0]])).order == 2
    assert normal_closure(S3, flips[0]).members == S3.full_mask
    assert normal_closure(S3, three_cycles[0]).order == 3


def test_conjugate_subgroups():
    S3 = symmetric(3)
    flips = [g for g in range(6) if element_order(S3, g) == 2]
    sub = closure(S3, [flips[0]])
    images = {sub.conjugate_by(g).members for g in range(6)}
    assert len(images) == 3
    assert all(Subgroup(S3, m).order == 2 for m in images)
    assert not sub.is_normal
    for bad in (-1, 6, True):
        with pytest.raises(MalformedInputError, match="is not an element index"):
            symmetric(3).conjugation(bad)
        with pytest.raises(MalformedInputError):
            sub.conjugate_by(bad)
    # True and 1.0 hash like 1, so a check made only when a memo entry is built
    # would let them read the entries of 1 made here
    S3.conjugation(1)
    S3.element_centralizer_masks()
    for bad in (True, 1.0):
        for call in (S3.conjugation, partial(S3.conjugate_mask, sub.members), sub.conjugate_by):
            with pytest.raises(MalformedInputError, match="is not an element index"):
                call(bad)
    for bad in (-1, 6, True, 1.0):
        with pytest.raises(MalformedInputError, match="is not an element index"):
            S3.element_centralizer_mask(bad)


def test_hall_witt_products_vanish():
    rng = random.Random(23)
    for G in (symmetric(4), quaternion(), dihedral(6)):
        for _ in range(100):
            x, y, z = (rng.randrange(G.order) for _ in range(3))
            assert hall_witt_products(G, x, y, z) == (0, 0)
    assert hall_witt_products(symmetric(3), 0, 0, 0) == (0, 0)


def _hall_witt_rows(G, triples):
    """The array call on (m, 3) ``triples``, as a list of (first, second) rows."""
    first, second = hall_witt_products(G, *np.asarray(triples).T)
    assert first.shape == second.shape == (len(triples),)
    return list(zip(first.tolist(), second.tolist()))


@pytest.mark.parametrize("spec", DEFAULT_CATALOG)
def test_hall_witt_array_call_matches_scalar_calls(spec):
    G = from_spec(spec)
    if G.order <= 24:
        triples = list(itertools.product(range(G.order), repeat=3))
    else:
        rng = random.Random(f"hall-witt-array:{spec}")
        triples = [tuple(rng.choices(range(G.order), k=3)) for _ in range(2000)]
    rows = _hall_witt_rows(G, triples)
    assert rows == [hall_witt_products(G, *t) for t in triples]
    assert set(rows) == {(0, 0)}


def test_hall_witt_array_call_on_empty_arrays():
    empty = np.array([], dtype=np.int64)
    first, second = hall_witt_products(symmetric(3), empty, empty, empty)
    assert first.shape == second.shape == (0,)


@pytest.mark.parametrize(
    "bad",
    [
        [2, 3, -1, 4, 99],
        [2, 3, 6, 4, -1],
        np.array([2, 3, True, 4, 7.5], dtype=object),
        np.array([True, False, True, False, True]),
        np.array([2.0, 3.0, 1.0, 4.0, 0.5]),
        np.array([1]),
    ],
    ids=["negative", "order", "bool", "bool-array", "float", "short"],
)
def test_hall_witt_array_call_names_the_first_bad_entry(bad):
    G = symmetric(3)
    good = np.array([1, 2, 3, 4, 5])
    # the bad column comes second, and a later row of x is bad as well
    x = np.array([1, 2, 3, 99, 5])
    if len(bad) != len(x):
        # no row is read from columns of unequal lengths
        with pytest.raises(MalformedInputError, match=r"^x, y and z must have one shape, not \(5,\), \(1,\) and \(5,\)$"):
            hall_witt_products(G, x, np.asarray(bad), good)
        return
    with pytest.raises(MalformedInputError) as scalar:
        for row in zip(x.tolist(), np.asarray(bad).tolist(), good.tolist()):
            hall_witt_products(G, *row)
    with pytest.raises(MalformedInputError) as array:
        hall_witt_products(G, x, np.asarray(bad), good)
    assert str(array.value) == str(scalar.value)
    assert "is not an element index of symmetric(3)" in str(array.value)


def test_element_set_behavior():
    G = quaternion()
    s = ElementSet(G, mask_of([1, 4, 6]))
    assert len(s) == 3
    assert list(s) == [1, 4, 6]
    assert s.elements == (1, 4, 6)
    assert 4 in s and 5 not in s
    assert s == ElementSet(G, mask_of([1, 4, 6]))
    assert s != ElementSet(G, mask_of([1, 4]))
    assert s != ElementSet(symmetric(3), mask_of([1, 4]))


def test_center_of_unitriangular():
    for p in (2, 3):
        G = unitriangular(p)
        center = G.center()
        assert center.order == p
        assert center.elements == tuple(b * p for b in range(p))


def test_group_dict_round_trip():
    for G in (quaternion(), symmetric(3)):
        data = group_to_dict(G)
        H = group_from_dict(data)
        assert H.order == G.order
        assert H.kind == G.kind
        rng = random.Random(3)
        for _ in range(30):
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            assert H.mul(a, b) == G.mul(a, b)


def test_group_dict_rejects_junk():
    with pytest.raises(MalformedInputError):
        group_from_dict([1, 2, 3])
    with pytest.raises(MalformedInputError):
        group_from_dict({"kind": "sporadic"})
    with pytest.raises(MalformedInputError):
        group_from_dict({"kind": "cayley"})
    with pytest.raises(MalformedInputError):
        group_from_dict({"kind": "perm", "degree": 3})
    with pytest.raises(MalformedInputError, match="degree must be a positive integer"):
        group_from_dict({"kind": "perm", "degree": True, "generators": []})
    with pytest.raises(MalformedInputError, match="is not a permutation"):
        group_from_dict({"kind": "perm", "degree": 3, "generators": [[True, 0, 2]]})
    with pytest.raises(MalformedInputError, match="'generators' must be a list"):
        group_from_dict({"kind": "perm", "degree": 3, "generators": 5})
    with pytest.raises(MalformedInputError, match="group name must be a string"):
        group_from_dict({"kind": "cayley", "name": [1], "table": [[0]]})
    # a Cayley file's order, when given, is an int equal to the table's length
    for order in (7, 1, "2", 2.0, None):
        with pytest.raises(MalformedInputError, match="does not match the table's 2 rows"):
            group_from_dict({"kind": "cayley", "order": order, "table": [[0, 1], [1, 0]]})
    with pytest.raises(MalformedInputError, match="'order' True does not match"):
        group_from_dict({"kind": "cayley", "order": True, "table": [[0]]})
    assert group_from_dict({"kind": "cayley", "order": 2, "table": [[0, 1], [1, 0]]}).order == 2


def test_trivial_perm_group_costs_nothing_per_point():
    tracemalloc.start()
    try:
        G = group_from_dict({"kind": "perm", "degree": 10**8, "generators": []})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert G.order == 1 and group_to_dict(G)["degree"] == 10**8
    # on a small degree, the identity's image array still names element 0
    H = group_from_dict({"kind": "perm", "degree": 3, "generators": []})
    assert subgroup_from_dict(H, {"generators": [[0, 1, 2]]}).members == 1
    assert group_from_dict(group_to_dict(H)).order == 1


def test_group_file_round_trip(tmp_path):
    G = dihedral(4)
    path = tmp_path / "d8.json"
    save_group(G, path)
    H = load_group(path)
    assert H.order == 8
    assert H.name == G.name
    assert H.center().order == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedInputError):
        load_group(bad)


def test_subgroup_dict_round_trip():
    D8 = dihedral(4)
    rotations = closure(D8, [1])
    data = subgroup_to_dict(rotations)
    assert data == {"generators": [1]}
    assert subgroup_from_dict(D8, data) == rotations

    S4 = symmetric(4)
    doubles = [g for g in range(24) if element_order(S4, g) == 2 and normal_closure(S4, g).order == 4]
    klein = closure(S4, doubles)
    assert klein.order == 4
    data = subgroup_to_dict(klein)
    assert all(isinstance(spec, list) for spec in data["generators"])
    assert subgroup_from_dict(S4, data) == klein

    with pytest.raises(MalformedInputError):
        subgroup_from_dict(S4, {"generators": [[0, 0, 1, 2]]})
    with pytest.raises(MalformedInputError):
        subgroup_from_dict(D8, {"generators": [[0, 1]]})
    with pytest.raises(MalformedInputError):
        subgroup_from_dict(D8, {"elements": [0, 1]})
    with pytest.raises(MalformedInputError, match="'generators' must be a list"):
        subgroup_from_dict(D8, {"generators": 5})
    # image arrays match exactly: True and 1.0 are not the point 1
    for bad in ([True, 0, 2, 3], [1.0, 0, 2, 3], [[1], 0, 2, 3]):
        with pytest.raises(MalformedInputError, match="is not an element of"):
            subgroup_from_dict(S4, {"generators": [bad]})


def test_from_spec_round_trips_and_caches():
    G = from_spec("product(dihedral(4), symmetric(3))")
    assert G.order == 48
    assert G is from_spec("product(dihedral(4), symmetric(3))")
    assert from_spec("quaternion") is from_spec("quaternion")
    with pytest.raises(MalformedInputError):
        from_spec("symmetric(3) trailing")
    with pytest.raises(MalformedInputError):
        from_spec("symmetric(")
    with pytest.raises(MalformedInputError):
        from_spec("frobnicated(3)")
