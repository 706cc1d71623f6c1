"""Central series, iterated centralizer towers, and the lemma checkers."""

from __future__ import annotations

import random

import pytest

from nilenv.catalog import cyclic, dihedral, quaternion, symmetric, unitriangular
from nilenv.errors import HypothesisError, ParentMismatchError
from nilenv.groups import FiniteGroup, Subgroup, closure, commutator_subgroup, normal_closure
from nilenv.series import (
    check_centralizer_transfer,
    check_hall_bound,
    check_nested_towers,
    check_three_subgroup,
    iterated_centralizer,
    lower_central_series,
    nilpotence_class,
    upper_central_series,
)


def klein_in_symmetric_4() -> Subgroup:
    G = symmetric(4)
    doubles = [g for g in range(24) if g and G.mul(g, g) == 0 and normal_closure(G, g).order == 4]
    sub = closure(G, doubles)
    assert sub.order == 4
    return sub


def test_series_of_dihedral_4():
    G = dihedral(4)
    lower = lower_central_series(G.as_subgroup())
    upper = upper_central_series(G.as_subgroup())
    assert [t.order for t in lower] == [8, 2, 1]
    assert [t.order for t in upper] == [1, 2, 8]
    assert nilpotence_class(G.as_subgroup()) == 2


def test_series_of_dihedral_8():
    G = dihedral(8)
    sub = G.as_subgroup()
    assert [t.order for t in lower_central_series(sub)] == [16, 4, 2, 1]
    assert [t.order for t in upper_central_series(sub)] == [1, 2, 4, 16]
    assert nilpotence_class(sub) == 3


def test_series_of_non_nilpotent_groups():
    S3 = symmetric(3)
    lower = lower_central_series(S3.as_subgroup())
    assert [t.order for t in lower] == [6, 3]
    upper = upper_central_series(S3.as_subgroup())
    assert [t.order for t in upper] == [1]
    assert nilpotence_class(S3.as_subgroup()) is None
    assert nilpotence_class(symmetric(4).as_subgroup()) is None


def test_series_of_abelian_and_trivial_groups():
    C12 = cyclic(12)
    assert nilpotence_class(C12.as_subgroup()) == 1
    assert nilpotence_class(C12.subgroup([0])) == 0
    assert nilpotence_class(cyclic(1).as_subgroup()) == 0


def test_series_of_unitriangular():
    for p in (2, 3, 5):
        G = unitriangular(p)
        sub = G.as_subgroup()
        assert nilpotence_class(sub) == 2
        lower = lower_central_series(sub)
        assert [t.order for t in lower] == [p**3, p, 1]
        assert lower[1].members == G.center_mask()


def test_series_terms_are_nested_and_normal():
    for G in (dihedral(8), quaternion(), unitriangular(3)):
        sub = G.as_subgroup()
        lower = lower_central_series(sub)
        for bigger, smaller in zip(lower, lower[1:]):
            assert smaller.members & bigger.members == smaller.members
            assert smaller.is_normal
        upper = upper_central_series(sub)
        for smaller, bigger in zip(upper, upper[1:]):
            assert smaller.members & bigger.members == smaller.members
            assert smaller.is_normal


def test_series_of_subgroup_stay_inside_it():
    S4 = symmetric(4)
    klein = klein_in_symmetric_4()
    assert nilpotence_class(klein) == 1
    sylow = next(closure(S4, [a, b]) for a in range(24) for b in range(24) if closure(S4, [a, b]).order == 8)
    assert nilpotence_class(sylow) == 2
    for term in lower_central_series(sylow) + upper_central_series(sylow):
        assert term.members & ~sylow.members == 0


def test_tower_of_whole_group_is_upper_series():
    for G in (dihedral(4), dihedral(8), unitriangular(3)):
        sub = G.as_subgroup()
        n = nilpotence_class(sub)
        upper = [t.members for t in upper_central_series(sub)]
        tower = iterated_centralizer(G, sub, n + 2)
        for j, term in enumerate(tower):
            assert term.members == upper[min(j, len(upper) - 1)]


def test_tower_terms_ascend_and_start_trivial():
    klein = klein_in_symmetric_4()
    G = klein.parent
    tower = iterated_centralizer(G, klein, 3)
    assert tower[0].members == 1
    for smaller, bigger in zip(tower, tower[1:]):
        assert smaller.members & bigger.members == smaller.members
    assert tower[1].members == G.centralizer_mask(klein.members)


def _frozen(value):
    """A copy of a memo value that no later change to the value reaches."""
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else value


def test_tower_memo_extends():
    G = dihedral(8)
    sub = G.as_subgroup()
    short = iterated_centralizer(G, sub, 1)
    stored = {key: (value, _frozen(value)) for key, value in G._memo.items()}
    longer = iterated_centralizer(G, sub, 3)
    assert [t.members for t in longer[:2]] == [t.members for t in short]
    assert len(longer) == 4
    # the longer tower reuses the memoized terms, not copies of them, and
    # leaves every value stored before it as it was
    assert all(a is b for a, b in zip(longer[:2], short))
    assert {key: G._memo[key] is value and _frozen(value) == frozen
            for key, (value, frozen) in stored.items()} == dict.fromkeys(stored, True)
    assert all(a is b for a, b in zip(iterated_centralizer(G, sub, 3), longer))


def test_a_deep_tower_is_built_without_recursion():
    G = dihedral(8)
    assert len(iterated_centralizer(G, closure(G, [1]), 2000)) == 2001


def test_memo_hits_return_the_memoized_objects(monkeypatch):
    G = dihedral(8)
    whole, sub = G.as_subgroup(), closure(G, [1])
    first = (
        lower_central_series(whole),
        upper_central_series(whole),
        commutator_subgroup(whole, sub),
        iterated_centralizer(whole, sub, 3),
    )
    built = []
    init = Subgroup.__init__

    def counting_init(self, parent, members):
        built.append(members)
        init(self, parent, members)

    monkeypatch.setattr(Subgroup, "__init__", counting_init)
    again = (
        lower_central_series(whole),
        upper_central_series(whole),
        commutator_subgroup(sub, whole),
        iterated_centralizer(whole, sub, 2),
    )
    assert built == []
    assert all(a is b for a, b in zip(first[:3], again[:3]))
    assert all(a is b for a, b in zip(first[3], again[3]))


def test_tower_hypothesis_errors():
    klein = klein_in_symmetric_4()
    G = klein.parent
    with pytest.raises(HypothesisError):
        iterated_centralizer(klein, G.as_subgroup(), 1)
    with pytest.raises(HypothesisError):
        iterated_centralizer(G, klein, -1)
    with pytest.raises(ParentMismatchError):
        iterated_centralizer(G, dihedral(4).as_subgroup(), 1)


def test_hall_bound_on_sampled_nilpotent_subgroups():
    rng = random.Random(29)
    for G in (dihedral(8), unitriangular(3), symmetric(4)):
        seen = 0
        while seen < 8:
            gens = [rng.randrange(G.order) for _ in range(2)]
            sub = closure(G, gens)
            k_class = nilpotence_class(sub)
            if k_class is None or k_class == 0:
                continue
            seen += 1
            for k in range(1, k_class + 1):
                for i in range(1, k + 1):
                    assert check_hall_bound(G, sub, i, k) is True


def test_hall_bound_index_validation():
    G = dihedral(4)
    sub = closure(G, [1])
    with pytest.raises(HypothesisError):
        check_hall_bound(G, sub, 2, 1)
    with pytest.raises(HypothesisError):
        check_hall_bound(G, sub, 0, 1)


def test_three_subgroup_conclusion_holds():
    D8 = dihedral(4)
    whole = D8.as_subgroup()
    center = D8.center()
    assert check_three_subgroup(whole, whole, whole, center) is True


def test_three_subgroup_vacuous_case():
    S3 = symmetric(3)
    whole = S3.as_subgroup()
    trivial = S3.subgroup([0])
    assert check_three_subgroup(whole, whole, whole, trivial) is None


def test_three_subgroup_normalization_precondition():
    S4 = symmetric(4)
    flip = next(g for g in range(24) if g and S4.mul(g, g) == 0)
    small = closure(S4, [flip])
    if small.is_normal:
        pytest.skip("chosen subgroup unexpectedly normal")
    with pytest.raises(HypothesisError):
        check_three_subgroup(S4.as_subgroup(), S4.as_subgroup(), S4.as_subgroup(), small)
    with pytest.raises(ParentMismatchError):
        check_three_subgroup(
            symmetric(3).as_subgroup(), S4.as_subgroup(), S4.as_subgroup(), S4.as_subgroup()
        )


def test_three_subgroup_random_instances_never_violate():
    rng = random.Random(31)
    G = symmetric(4)
    normals = [s for s in (normal_closure(G, g) for g in range(G.order))]
    for _ in range(60):
        n = rng.choice(normals)
        norm = G.normalizer_mask(n.members)
        subs = []
        while len(subs) < 3:
            cand = closure(G, [rng.randrange(G.order) for _ in range(rng.randint(1, 2))])
            if cand.members & ~norm == 0:
                subs.append(cand)
        assert check_three_subgroup(subs[0], subs[1], subs[2], n) is not False


def test_centralizer_transfer_statuses():
    D8 = dihedral(4)
    rotations = closure(D8, [1])
    assert check_centralizer_transfer(D8, rotations, rotations, 1) is True
    assert check_centralizer_transfer(D8, D8.center(), rotations, 1) is None

    with pytest.raises(HypothesisError):
        check_centralizer_transfer(D8, rotations, D8.center(), 1)
    with pytest.raises(HypothesisError):
        check_centralizer_transfer(D8, rotations, rotations, 0)


def test_centralizer_transfer_random_instances():
    rng = random.Random(37)
    for G in (dihedral(8), unitriangular(3)):
        for _ in range(40):
            p_sub = closure(G, [rng.randrange(G.order) for _ in range(2)])
            candidates = [g for g in p_sub]
            x_sub = closure(G, rng.sample(candidates, rng.randint(1, min(2, len(candidates)))))
            k = rng.randint(1, 3)
            assert check_centralizer_transfer(G, x_sub, p_sub, k) is not False


def test_nested_towers():
    D8 = dihedral(4)
    center = D8.center()
    rotations = closure(D8, [1])
    assert check_nested_towers(center, rotations, D8.as_subgroup(), 1) is True

    S3 = symmetric(3)
    flip = next(g for g in range(6) if g and S3.mul(g, g) == 0)
    small = closure(S3, [flip])
    assert check_nested_towers(small, small, S3.as_subgroup(), 2) is None

    with pytest.raises(HypothesisError):
        check_nested_towers(rotations, center, D8.as_subgroup(), 1)
    with pytest.raises(HypothesisError):
        check_nested_towers(center, rotations, D8.as_subgroup(), 0)


def test_nested_towers_random_instances():
    rng = random.Random(41)
    for G in (dihedral(8), unitriangular(3), symmetric(4)):
        for _ in range(40):
            a = closure(G, [rng.randrange(G.order)])
            b = closure(G, [*a.generators, rng.randrange(G.order)])
            c = closure(G, [*b.generators, rng.randrange(G.order)])
            assert check_nested_towers(a, b, c, rng.randint(1, 3)) is not False


def test_gamma_2_is_derived_subgroup():
    for G in (symmetric(4), dihedral(6), quaternion()):
        sub = G.as_subgroup()
        gamma2 = lower_central_series(sub)[1]
        assert gamma2.members == commutator_subgroup(sub, sub).members
