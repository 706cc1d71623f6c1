"""Built-in families of small groups, addressable by spec strings.

A spec string names a constructor and its arguments, for example
``"cyclic(12)"``, ``"quaternion"``, or ``"product(dihedral(4), symmetric(3))"``.
Specs can nest, and :func:`from_spec` caches the built groups so repeated
lookups share element indexing and memoized computations.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import MalformedInputError
from .groups import MAX_DEPTH, FiniteGroup, _prime_factors, check_order


def cyclic(n: int) -> FiniteGroup:
    """The cyclic group of order n."""
    if n < 1:
        raise MalformedInputError("cyclic order must be at least 1")
    check_order(n)
    i = np.arange(n, dtype=np.int32)
    table = (i[:, None] + i) % n
    return FiniteGroup(f"cyclic({n})", "cayley", table.astype(np.int16))


def dihedral(n: int) -> FiniteGroup:
    """The dihedral group of order 2n, symmetries of a regular n-gon.

    Element e*n + i stands for r^i s^e, where r is the rotation and s a
    reflection, so s * r^i * s == r^-i.
    """
    if n < 1:
        raise MalformedInputError("dihedral argument must be at least 1")
    check_order(2 * n)
    e, i = np.divmod(np.arange(2 * n, dtype=np.int32), n)
    # r^i1 s^e1 * r^i2 s^e2 = r^(i1 +- i2) s^(e1 + e2), minus when e1 == 1
    table = (e[:, None] ^ e) * n + (i[:, None] + (1 - 2 * e)[:, None] * i) % n
    return FiniteGroup(f"dihedral({n})", "cayley", table.astype(np.int16))


def _check_permutation_order(n: int, index: int) -> None:
    """Refuse a group of order n! / index above the limit before any generator is built.

    Generators of degree n cost memory linear in n each, and alternating(n)
    has n - 2 of them.  Only the factors up to 20 are multiplied out, so for
    n > 20 the order checked is a lower bound.
    """
    check_order(max(1, math.factorial(min(n, 20)) // index), at_least=n > 20)


def symmetric(n: int) -> FiniteGroup:
    """The symmetric group on n points."""
    if n < 1:
        raise MalformedInputError("symmetric degree must be at least 1")
    _check_permutation_order(n, 1)
    gens = []
    if n >= 2:
        gens.append([1, 0] + list(range(2, n)))
    if n >= 3:
        gens.append(list(range(1, n)) + [0])
    return FiniteGroup.from_permutations(n, gens, name=f"symmetric({n})")


def alternating(n: int) -> FiniteGroup:
    """The alternating group on n points, generated by consecutive 3-cycles."""
    if n < 1:
        raise MalformedInputError("alternating degree must be at least 1")
    _check_permutation_order(n, 2)
    gens = []
    for i in range(n - 2):
        # the 3-cycle sending i -> i+1 -> i+2 -> i
        cycle = list(range(n))
        cycle[i], cycle[i + 1], cycle[i + 2] = cycle[i + 1], cycle[i + 2], cycle[i]
        gens.append(cycle)
    return FiniteGroup.from_permutations(max(n, 1), gens, name=f"alternating({n})")


def quaternion() -> FiniteGroup:
    """The quaternion group of order 8 on the units +-1, +-i, +-j, +-k."""
    units = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }
    table = [[0] * 8 for _ in range(8)]
    for s1 in (0, 1):
        for u1 in range(4):
            for s2 in (0, 1):
                for u2 in range(4):
                    s, u = units[(u1, u2)]
                    table[s1 * 4 + u1][s2 * 4 + u2] = ((s1 ^ s2 ^ s) * 4) + u
    return FiniteGroup.from_cayley_table(table, name="quaternion")


def unitriangular(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over the field with p elements.

    The matrix with top row (1, a, b) and middle row (0, 1, c) is encoded
    as a*p*p + b*p + c, so the group has order p**3 and class 2.
    """
    check_order(p**3)
    if _prime_factors(p) != (p,):
        raise MalformedInputError("unitriangular argument must be a prime")
    a, b, c = (x.ravel() for x in np.indices((p, p, p), dtype=np.int32))
    # (1, a1, b1; 0, 1, c1) * (1, a2, b2; 0, 1, c2) = (1, a1 + a2, b1 + b2 + a1 c2; 0, 1, c1 + c2)
    A, C = a[:, None], c[:, None]
    table = ((A + a) % p * p + (b[:, None] + b + A * c) % p) * p + (C + c) % p
    return FiniteGroup(f"unitriangular({p})", "cayley", table.astype(np.int16))


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """The direct product, with (g, h) encoded as g * H.order + h."""
    n = G.order * H.order
    check_order(n)
    m = H.order
    # axes (g1, h1, g2, h2), so row g1 * m + h1 and column g2 * m + h2
    table = G._array.astype(np.int32)[:, None, :, None] * m + H._array[None, :, None, :]
    table = table.reshape(n, n).astype(np.int16)
    return FiniteGroup(f"product({G.name},{H.name})", "cayley", table)


_SIMPLE_BUILDERS = {
    "cyclic": cyclic,
    "dihedral": dihedral,
    "symmetric": symmetric,
    "alternating": alternating,
    "unitriangular": unitriangular,
}


def _parse_spec(text: str, pos: int, depth: int = 1) -> tuple[FiniteGroup, int]:
    """The group spelled at ``pos``, its brackets ``depth`` deep, and the position after it."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    start = pos
    while pos < len(text) and text[pos].isalpha():
        pos += 1
    name = text[start:pos]
    if not name:
        raise MalformedInputError(f"expected a group name at position {start} of {text!r}")
    while pos < len(text) and text[pos].isspace():
        pos += 1

    if name == "quaternion":
        return quaternion(), pos

    if pos >= len(text) or text[pos] != "(":
        raise MalformedInputError(f"group {name!r} needs arguments, as in {name}(...)")
    if depth > MAX_DEPTH:
        raise MalformedInputError(f"group spec nested deeper than {MAX_DEPTH} levels at position {pos}")
    pos += 1

    if name == "product":
        factors = []
        while True:
            factor, pos = _parse_spec(text, pos, depth + 1)
            factors.append(factor)
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            break
        if pos >= len(text) or text[pos] != ")":
            raise MalformedInputError(f"unclosed product(...) in {text!r}")
        if len(factors) < 2:
            raise MalformedInputError("product(...) needs at least two factors")
        built = factors[0]
        for factor in factors[1:]:
            built = direct_product(built, factor)
        return built, pos + 1

    if name not in _SIMPLE_BUILDERS:
        raise MalformedInputError(f"unknown group family {name!r}")
    while pos < len(text) and text[pos].isspace():
        pos += 1
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if start == pos:
        raise MalformedInputError(f"{name}(...) needs an integer argument")
    try:
        arg = int(text[start:pos])
    except ValueError:  # past Python's limit on digits converted
        raise MalformedInputError(f"{name}(...) argument at position {start} has too many digits") from None
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text) or text[pos] != ")":
        raise MalformedInputError(f"unclosed {name}(...) in {text!r}")
    return _SIMPLE_BUILDERS[name](arg), pos + 1


@lru_cache(maxsize=None)
def from_spec(spec: str) -> FiniteGroup:
    """Build (or fetch the cached copy of) the group a spec string names."""
    built, pos = _parse_spec(spec, 0)
    if spec[pos:].strip():
        raise MalformedInputError(f"trailing text {spec[pos:]!r} after group spec")
    return built


DEFAULT_CATALOG: tuple[str, ...] = (
    "cyclic(1)",
    "cyclic(2)",
    "cyclic(6)",
    "cyclic(12)",
    "product(cyclic(2),cyclic(2))",
    "product(cyclic(2),cyclic(4))",
    "dihedral(4)",
    "dihedral(6)",
    "dihedral(8)",
    "quaternion",
    "symmetric(3)",
    "symmetric(4)",
    "alternating(4)",
    "alternating(5)",
    "unitriangular(2)",
    "unitriangular(3)",
    "unitriangular(5)",
    "product(dihedral(4),symmetric(3))",
    "unitriangular(7)",
)
