"""Self-test of the seeded input generator.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

from inputs import (  # noqa: E402
    cayley_table,
    conjugate_generators,
    conjugating,
    relabel_table,
    relabelling,
    rng_for,
)
from nilenv import (  # noqa: E402
    FiniteGroup,
    all_subgroups,
    from_spec,
    group_to_dict,
    nilpotence_class,
)


def _invariants(G: FiniteGroup) -> tuple[int, int | None, int]:
    return G.order, nilpotence_class(G.as_subgroup()), len(all_subgroups(G))


@pytest.mark.parametrize("spec", ["dihedral(8)", "quaternion", "symmetric(4)", "unitriangular(3)"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_relabelled_table_keeps_order_class_and_subgroup_count(spec, seed):
    canonical = from_spec(spec)
    perm = relabelling(canonical.order, rng_for(seed, "test", spec))
    assert perm[0] == 0 and sorted(perm) == list(range(canonical.order))
    relabelled = FiniteGroup.from_cayley_table(relabel_table(cayley_table(canonical), perm))
    assert _invariants(relabelled) == _invariants(canonical)


@pytest.mark.parametrize("spec", ["symmetric(4)", "alternating(4)", "symmetric(5)"])
@pytest.mark.parametrize("seed", [0, 3])
def test_conjugated_generators_keep_order_class_and_subgroup_count(spec, seed):
    desc = group_to_dict(from_spec(spec))
    sigma = conjugating(desc["degree"], rng_for(seed, "test", spec))
    gens = conjugate_generators(desc["generators"], sigma)
    conjugated = FiniteGroup.from_permutations(desc["degree"], gens)
    assert _invariants(conjugated) == _invariants(from_spec(spec))


def test_same_seed_gives_same_inputs_and_other_seeds_differ():
    table = cayley_table(from_spec("dihedral(8)"))
    gens = group_to_dict(from_spec("symmetric(6)"))["generators"]

    def inputs(seed):
        perm = relabelling(16, rng_for(seed, "test"))
        sigma = conjugating(6, rng_for(seed, "test"))
        return relabel_table(table, perm), conjugate_generators(gens, sigma)

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)
