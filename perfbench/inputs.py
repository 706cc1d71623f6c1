"""Seeded inputs: relabelled Cayley tables and conjugated permutation generators.

Every benchmark input is derived from a catalog group by an isomorphism drawn
from the workload seed, so the same seed always gives the same inputs and
every seed gives a group with the same order, class and subgroup count.

* A Cayley table of order n is relabelled by a permutation of 0..n-1 that
  fixes 0, so the identity stays element 0 and ``from_cayley_table`` keeps
  the indexing as given.
* Permutation generators of degree d are conjugated by a permutation of
  0..d-1.
"""

from __future__ import annotations

import random


def rng_for(seed: int, *what: str) -> random.Random:
    """A generator that depends only on the seed and the labels given."""
    return random.Random(":".join(("perfbench", str(seed)) + what))


def relabelling(n: int, rng: random.Random) -> list[int]:
    """A random permutation of 0..n-1 that fixes the identity 0."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def relabel_table(table, perm: list[int]) -> list[list[int]]:
    """The table of the same group after renaming element a to perm[a]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        new_row = out[perm[a]]
        for b, c in enumerate(row):
            new_row[perm[b]] = perm[c]
    return out


def conjugating(degree: int, rng: random.Random) -> list[int]:
    """A random permutation of the points 0..degree-1."""
    sigma = list(range(degree))
    rng.shuffle(sigma)
    return sigma


def conjugate_generators(generators, sigma: list[int]) -> list[list[int]]:
    """Each image array g rewritten as sigma^-1 g sigma, point i becoming sigma[i]."""
    out = []
    for g in generators:
        h = [0] * len(sigma)
        for i, gi in enumerate(g):
            h[sigma[i]] = sigma[gi]
        out.append(h)
    return out


def cayley_table(G) -> list[list[int]]:
    """The multiplication table of a library group, through its public ``mul``."""
    return [[G.mul(a, b) for b in range(G.order)] for a in range(G.order)]


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = next(q for q in range(2, n + 1) if n % q == 0)
    while n % p == 0:
        n //= p
    return n == 1
