"""Finite groups with fast mask-based subset machinery.

Elements of a group of order n are the integers 0..n-1, with 0 always the
identity.  Subsets are represented as Python int bitmasks, so intersections
are single AND operations and membership tests are shifts.

Every group is held as one int16 numpy Cayley table, ``T[a, b] = a * b``,
and no group is larger than ``MAX_ORDER``: every constructor calls
:func:`check_order` before any work quadratic in the order.  The scalar
operations read the same table through ``_rows``, one ``memoryview`` of the
table's buffer per row, so no second copy is kept.  The quadratic kernels
(:meth:`FiniteGroup._select`, :meth:`FiniteGroup._image` and the element
centralizers) gather through the numpy table, converting masks at the
boundary; up to ``_SCALAR_MAX_WORK`` element pairs the first two run a
scalar loop instead, which is faster there.  Permutation groups also keep
their permutations, for reading and writing files only.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from .errors import (
    CapExceededError,
    MalformedInputError,
    NotASubgroupError,
    ParentMismatchError,
)

# The only limit on a group's order.  Every group is a Cayley table and the
# algorithms here are exhaustive, at least quadratic in the order; at 2048 a
# table is 8 MB, and element indices below 2**15 keep every table int16.
MAX_ORDER = 2048

# A kernel visiting at most this many element pairs runs the scalar loop.
# Numpy's fixed cost per call (mask conversions and gathers, 5-30 us) is
# about that of the whole loop there; 64 keeps `_select` and `_image` on a
# group of order 8 scalar.
_SCALAR_MAX_WORK = 64
# Element pairs per numpy block, which bounds the kernels' temporaries.
_BLOCK_PAIRS = 1 << 14
# Rows per block of the kernels that build or read masks as rows of bits.
_BLOCK_ROWS = 64

# The deepest formula tree parse accepts, and the most brackets a formula or
# a group spec may hold open at once.  The formula parser recurses only at
# brackets, a quantifier's included: at most 4 frames each (a primary, the
# bracket's contents and the right operands of "|" and "&"), plus 2 once
# where a term begins (the right operands of "=" and "*").  The spec parser recurses once per nested
# product(...).  The shape pass and format_formula recurse one frame per tree
# level, and the evaluator and ``==`` on trees at most about 3.5, so at 150
# all of them stay well inside Python's default recursion limit of 1000.
# The envelope formulas are 63 deep at (d, n) = (2, 4), 78 at (6, 4) and 91
# at (2, 5).
MAX_DEPTH = 150


def _is_index(value) -> bool:
    """Whether ``value`` is an int, not a bool: the type of indices, degrees and points."""
    return isinstance(value, int) and not isinstance(value, bool)


def _prime_factors(n: int) -> tuple[int, ...]:
    """The primes dividing ``n``, ascending: ``(n,)`` exactly when n is prime, ``()`` for n < 2."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def iter_mask(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    """Build a bitmask from an iterable of element indices."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def check_order(order: int, *, at_least: bool = False) -> None:
    """Raise :class:`CapExceededError` if ``order`` exceeds ``MAX_ORDER``.

    With ``at_least``, ``order`` is only a lower bound on the order, as when
    an enumeration stopped one element past the limit.
    """
    if order > MAX_ORDER:
        what = f"at least {order}" if at_least else str(order)
        raise CapExceededError(f"group order {what} exceeds cap {MAX_ORDER}")


def _bool_vector(mask: int, n: int) -> np.ndarray:
    """The mask as a length-n boolean array."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def _vector_mask(flags: np.ndarray) -> int:
    """The mask of the true entries of a boolean array."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _row_masks(flags: np.ndarray) -> list[int]:
    """The mask of the true entries of each row, packed flat in whole bytes (by axis is slower)."""
    size = (flags.shape[1] + 7) // 8
    padded = np.zeros((len(flags), 8 * size), dtype=bool)
    padded[:, : flags.shape[1]] = flags
    raw = memoryview(np.packbits(padded, bitorder="little"))
    return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]


class FiniteGroup:
    """A finite group on elements 0..order-1 with identity 0."""

    def __init__(self, name, kind, array, degree=None, perm_generators=None, perms=None):
        self.order = order = len(array)
        self.name = name
        self.kind = kind
        self._array = array
        # permutation groups only, for reading and writing files
        self._degree = degree
        self._perm_generators = perm_generators
        if perms is not None:
            self._perms = perms
        self.full_mask = (1 << order) - 1
        self._memo: dict = {}
        flat = memoryview(array).cast("B").cast("h")
        self._rows = [flat[i * order : (i + 1) * order] for i in range(order)]
        self._inv_array = array.argmin(axis=1).astype(array.dtype)
        self.inverse_table = self._inv_array.tolist()

    # -- construction -------------------------------------------------

    @classmethod
    def from_cayley_table(cls, table, name: str = "G") -> FiniteGroup:
        """Build a group from a full multiplication table.

        The table is relabelled if needed so that the identity is element 0.
        Every table is checked exactly: it must be a Latin square with a
        two-sided identity, and associative by Light's test (see
        :meth:`_check_associative`).
        """
        if not isinstance(table, (list, tuple)) or not table:
            raise MalformedInputError("table must be a nonempty list of rows")
        n = len(table)
        check_order(n)
        try:  # the common case, checked in C; else the row-by-row check names the first fault
            plain = all(isinstance(r, (list, tuple)) and len(r) == n and set(map(type, r)) == {int} for r in table)
            arr = np.array(table, dtype=np.int16) if plain else None
        except OverflowError:  # an int beyond int16
            arr = None
        if arr is None or arr.min() < 0 or arr.max() >= n:
            for i, row in enumerate(table):
                if not isinstance(row, (list, tuple)) or len(row) != n:
                    raise MalformedInputError(f"row {i} does not have length {n}")
                for v in row:
                    if not _is_index(v) or not 0 <= v < n:
                        raise MalformedInputError(f"row {i} contains bad entry {v!r}")
            arr = np.array(table, dtype=np.int16)  # entries of int subclasses other than bool
        expect = np.arange(n)
        for axis, what in ((1, "row"), (0, "column")):
            ok = (np.sort(arr, axis=axis) == (expect[None, :] if axis == 1 else expect[:, None])).all()
            if not ok:
                raise MalformedInputError(f"some {what} is not a permutation of 0..{n - 1}")

        ident = np.flatnonzero((arr == expect[None, :]).all(axis=1) & (arr == expect[:, None]).all(axis=0))
        if len(ident) != 1:
            raise MalformedInputError("table has no two-sided identity element")
        e = int(ident[0])
        if e != 0:
            sigma = np.arange(n)
            sigma[0], sigma[e] = e, 0
            arr = sigma[arr[np.ix_(sigma, sigma)]].astype(arr.dtype)

        cls._check_associative(arr, n)
        return cls(name, "cayley", arr)

    @staticmethod
    def _check_associative(arr, n: int) -> None:
        """Light's test (Clifford & Preston 1961, 1.2): check (x*y)*g == x*(y*g).

        The g that pass are closed under products, so it suffices to check a
        generating set, picked greedily: each element not yet reached from 1
        by right multiplication (a plain search: ``closure_mask`` assumes
        associativity) is checked, then added.  While all pass, the reached
        set is a subloop, which each new generator at least doubles.  It
        runs on the group's one int16 table, at every order.
        """
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        gens = []
        for k in range(n):
            if reached[k]:
                continue
            left = arr[arr, k]
            right = arr[:, arr[:, k]]
            if not np.array_equal(left, right):
                i, j = np.argwhere(left != right)[0]
                raise MalformedInputError(f"multiplication is not associative at ({i}, {j}, {k})")
            gens.append(k)
            frontier = np.flatnonzero(reached)
            while frontier.size:
                step = np.zeros(n, dtype=bool)
                step[arr[np.ix_(frontier, gens)]] = True
                frontier = np.flatnonzero(step & ~reached)
                reached |= step

    @classmethod
    def from_permutations(cls, degree: int, generators, name: str = "G") -> FiniteGroup:
        """Build the group generated by permutations of 0..degree-1.

        Permutations compose left to right: (g * h) moves i to h[g[i]].
        Elements are numbered in breadth-first order from the identity, each
        new permutation p * s (s a generator) taking the next index.
        Enumeration stops with :class:`CapExceededError` as soon as the group
        grows past ``MAX_ORDER`` (see :func:`check_order`).

        The table is built from what the search saw, with no permutation
        arithmetic: the search records ``right[k, s]``, the index of
        perms[k] * gens[s], and each element's parent (k, s).  If
        b = perms[k] * gens[s], then a * b = (a * perms[k]) * gens[s], so
        column b of the table is ``right[column k, s]``, one gather per
        element.
        """
        if not _is_index(degree) or degree < 1:
            raise MalformedInputError("degree must be a positive integer")
        gens = []
        for g in generators:
            p = tuple(g) if isinstance(g, (list, tuple)) else ()
            if len(p) != degree or not all(map(_is_index, p)) or sorted(p) != list(range(degree)):
                raise MalformedInputError(f"{g!r} is not a permutation of 0..{degree - 1}")
            gens.append(p)
        if not gens:  # the trivial group; its permutation is built only if read (see _perms)
            return cls(name, "perm", np.zeros((1, 1), dtype=np.int16), degree, ())

        identity = tuple(range(degree))
        perms = [identity]
        index = {identity: 0}
        # right[k * len(gens) + s] is the index of perms[k] * gens[s]: the
        # search expands perms in index order, each by every generator.
        right = []
        parent = [0]
        frontier = [identity]
        while frontier:
            nxt = []
            for p in frontier:
                for s in gens:
                    q = tuple(s[v] for v in p)
                    k = index.get(q)
                    if k is None:
                        check_order(len(perms) + 1, at_least=True)
                        k = index[q] = len(perms)
                        parent.append(len(right))
                        perms.append(q)
                        nxt.append(q)
                    right.append(k)
            frontier = nxt

        n, m = len(perms), len(gens)
        by_gen = np.array(right, dtype=np.int16).reshape(n, m).T.copy()
        table = np.empty((n, n), dtype=np.int16)
        table[:, 0] = np.arange(n)
        for b in range(1, n):
            k, s = divmod(parent[b], m)
            table[:, b] = by_gen[s][table[:, k]]
        return cls(name, "perm", table, degree, tuple(gens), tuple(perms))

    @cached_property
    def _perms(self) -> tuple:
        """The trivial group's one permutation, built when first read; from_permutations sets the rest."""
        return (tuple(range(self._degree)),)

    # -- the operations -----------------------------------------------

    def _mul(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def _conj(self, g: int, h: int) -> int:
        """g conjugated by h, that is h^-1 * g * h."""
        T = self._rows
        return T[T[self.inverse_table[h]][g]][h]

    def _comm(self, g: int, h: int) -> int:
        """The commutator g^-1 * h^-1 * g * h."""
        T = self._rows
        return T[self.inverse_table[T[h][g]]][T[g][h]]

    def _check_index(self, a: int) -> None:
        if not _is_index(a) or not 0 <= a < self.order:
            raise MalformedInputError(f"{a!r} is not an element index of {self.name}")

    def _check_mask(self, mask: int) -> None:
        # a plain int: bools and int subclasses are refused, at half the cost of _is_index
        if type(mask) is not int or not 0 <= mask <= self.full_mask:
            raise MalformedInputError(f"{mask!r} is not an element mask of {self.name}")

    def mul(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        return self._mul(a, b)

    def inv(self, a: int) -> int:
        self._check_index(a)
        return self.inverse_table[a]

    def conj(self, g: int, h: int) -> int:
        self._check_index(g)
        self._check_index(h)
        return self._conj(g, h)

    def comm(self, g: int, h: int) -> int:
        self._check_index(g)
        self._check_index(h)
        return self._comm(g, h)

    # -- kernels over element pairs (op names an operation of _pair_values) --

    def _scalar_op(self, op: str):
        if op == "mul":
            return self._mul
        if op == "comm":
            return self._comm
        return lambda x, p: self._conj(p, x)

    def _pair_values(self, op: str, x, p):
        """op(x, p) elementwise, for element indices or broadcastable index arrays.

        "mul" is x * p, "comm" is [x, p] = x^-1 p^-1 x p, "conj" is p^x = x^-1 p x.
        """
        T, inv = self._array, self._inv_array
        if op == "mul":
            return T[x, p]
        if op == "comm":
            return T[inv[T[p, x]], T[x, p]]
        return T[T[inv[x], p], x]

    def _blocks(self, xs: int, ps: int):
        """Index arrays (x block, ps) covering xs x ps, or None for the scalar loop."""
        work = xs.bit_count() * ps.bit_count()
        if work <= _SCALAR_MAX_WORK:
            return None
        n = self.order
        x_idx = np.flatnonzero(_bool_vector(xs, n))
        p_idx = np.flatnonzero(_bool_vector(ps, n))
        step = max(1, _BLOCK_PAIRS // len(p_idx))
        return [(x_idx[i : i + step], p_idx) for i in range(0, len(x_idx), step)]

    def _select(self, op: str, xs: int, ps: int, target: int) -> int:
        """Mask of the x in ``xs`` with op(x, p) in ``target`` for every p in ``ps``."""
        blocks = self._blocks(xs, ps)
        if blocks is None:
            f = self._scalar_op(op)
            plist = list(iter_mask(ps))
            out = 0
            for x in iter_mask(xs):
                if all(target >> f(x, p) & 1 for p in plist):
                    out |= 1 << x
            return out
        inside = _bool_vector(target, self.order)
        flags = np.zeros(self.order, dtype=bool)
        for x_idx, p_idx in blocks:
            flags[x_idx[inside[self._pair_values(op, x_idx[:, None], p_idx)].all(axis=1)]] = True
        return _vector_mask(flags)

    def _image(self, op: str, xs: int, ps: int) -> int:
        """Mask of all op(x, p) with x in ``xs`` and p in ``ps``."""
        blocks = self._blocks(xs, ps)
        if blocks is None:
            f = self._scalar_op(op)
            plist = list(iter_mask(ps))
            out = 0
            for x in iter_mask(xs):
                for p in plist:
                    out |= 1 << f(x, p)
            return out
        flags = np.zeros(self.order, dtype=bool)
        for x_idx, p_idx in blocks:
            flags[self._pair_values(op, x_idx[:, None], p_idx)] = True
        return _vector_mask(flags)

    # -- memo and masks -------------------------------------------------

    def memo(self, key: tuple, build, *args):
        """The value memoized under ``key``, or ``build(*args)`` stored there once.

        Every result memoized on a group goes through here, keyed by a
        tuple that starts with its family, such as ``("closure", seedmask)``,
        which holds the mask and the generators taken, so a subgroup's
        generators depend only on its members.  A value, ``None`` included,
        is built once and never changed: it is immutable or treated as such,
        every caller shares it, and ``("conjugation", g)`` is a read-only
        index array.  Each family has one builder, so a key names one value
        whoever asks first.  The element centralizers are one tuple indexed
        by element, which loops read once; set centralizers, the center among
        them, are the ``("centralizer", setmask)`` family (2,866 entries over
        a seed-0 ``verify``'s 19 groups).
        """
        try:
            return self._memo[key]
        except KeyError:
            pass
        value = self._memo[key] = build(*args)
        return value

    def element_centralizer_mask(self, g: int) -> int:
        """Mask of all x with x * g == g * x."""
        self._check_index(g)
        return self.element_centralizer_masks()[g]

    def element_centralizer_masks(self) -> tuple[int, ...]:
        """Every element centralizer, indexed by element, by blocks of rows g of ``T[g] == T[:, g]``."""
        return self.memo(("element centralizers",), self._element_centralizer_masks)

    def _element_centralizer_masks(self) -> tuple[int, ...]:
        T, cents = self._array, []
        for i in range(0, self.order, _BLOCK_ROWS):
            rows = slice(i, i + _BLOCK_ROWS)
            cents += _row_masks(T[rows] == T[:, rows].T)
        return tuple(cents)

    def center_mask(self) -> int:
        return self.centralizer_mask(self.full_mask)

    def conjugacy_classes(self) -> tuple[int, ...]:
        """Masks of the conjugacy classes, in order of their least element."""
        return self.memo(("classes",), self._conjugacy_classes)

    def _conjugacy_classes(self) -> tuple[int, ...]:
        classes, seen = [], 0
        while seen != self.full_mask:
            least = ~seen & (seen + 1)
            cls = self._image("conj", self.full_mask, least)
            classes.append(cls)
            seen |= cls
        return tuple(classes)

    def centralizer_mask(self, setmask: int) -> int:
        """Mask of the elements commuting with everything in ``setmask``."""
        self._check_mask(setmask)
        return self.memo(("centralizer", setmask), self._centralizer_mask, setmask)

    def _centralizer_mask(self, setmask: int) -> int:
        cents, result = self.element_centralizer_masks(), self.full_mask
        for g in iter_mask(setmask):
            result &= cents[g]
            if result == 1:
                break
        return result

    def normalizer_mask(self, mask: int) -> int:
        """Mask of all g with (mask conjugated by g) == mask."""
        self._check_mask(mask)
        return self._normalizer(mask, mask)

    def _normalizer(self, mask: int, conjugators: int) -> int:
        """The ``("norm", mask)`` entry: the g with x^g in the mask for every x in ``conjugators``.

        That is the normalizer of the mask when ``conjugators`` is the mask,
        as a finite set maps into itself only onto itself, or when the mask
        is a subgroup that ``conjugators`` generates, as H^g is then a
        subgroup of H of the same order.
        """
        return self.memo(("norm", mask), self._select, "conj", self.full_mask, conjugators, mask)

    def conjugation(self, g: int) -> np.ndarray:
        """The permutation y -> g * y * g^-1, read-only and memoized: flags gathered through it conjugate by g."""
        self._check_index(g)
        return self.memo(("conjugation", g), self._conjugation, g)

    def _conjugation(self, g: int) -> np.ndarray:
        move = self._pair_values("conj", self.inverse_table[g], np.arange(self.order))
        move.flags.writeable = False
        return move

    def conjugate_mask(self, mask: int, g: int) -> int:
        """The mask conjugated by g: every x^g = g^-1 * x * g with x in the mask."""
        return self.conjugate_masks([mask], g)[0]

    def conjugate_masks(self, masks, g: int) -> list[int]:
        """``conjugate_mask`` of each mask, by one gather per block: column y from g * y * g^-1."""
        for m in masks:
            self._check_mask(m)
        source = self.conjugation(g)
        size, out = (self.order + 7) // 8, []
        for i in range(0, len(masks), _BLOCK_ROWS):
            raw = b"".join(m.to_bytes(size, "little") for m in masks[i : i + _BLOCK_ROWS])
            bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(-1, size), axis=1, bitorder="little")
            out += _row_masks(bits[:, source])
        return out

    def closure_mask(self, seedmask: int) -> int:
        """Mask of the subgroup generated by the elements of ``seedmask``.

        Dimino's algorithm (Butler, LNCS 559, 1991): each seed, ascending, not
        yet in the subgroup H built so far becomes a generator, and the new
        subgroup (one ``_dimino_step``) is the union of right cosets of H found
        from r = 1 by adding H*(r*g) for each representative r and generator g
        with r*g uncovered.  Its memo entry holds the mask and the seeds taken
        as generators, which :attr:`Subgroup.generators` reads.
        """
        self._check_mask(seedmask)
        return self._closure(seedmask)[0]

    def _closure(self, seedmask: int) -> tuple[int, tuple[int, ...]]:
        return self.memo(("closure", seedmask), self._dimino, seedmask)

    def _dimino(self, seedmask: int) -> tuple[int, tuple[int, ...]]:
        elems, mask, gens = [0], 1, []
        for s in iter_mask(seedmask):
            if not mask >> s & 1:
                gens.append(s)
                elems, mask = self._dimino_step(elems, mask, gens)
        return mask, tuple(gens)

    def _dimino_step(self, elems: list[int], mask: int, gens: list[int]) -> tuple[list[int], int]:
        """(elements, mask) of <H, gens[-1]>, given H = <gens[:-1]> by its ``elems`` and ``mask``.

        It stops at the whole group once more than half of it is covered, as
        no proper subgroup is that large.
        """
        T, old = self._rows, elems
        elems, reps = elems[:], [0]
        for r in reps:
            for g in gens:
                y = T[r][g]
                if not mask >> y & 1:
                    reps.append(y)
                    coset = [T[h][y] for h in old]
                    elems += coset
                    mask |= mask_of(coset)
                    if 2 * len(elems) > self.order:
                        return list(range(self.order)), self.full_mask
        return elems, mask

    # -- subgroup conveniences -------------------------------------------

    def _index_mask(self, indices) -> int:
        """The mask of an iterable of element indices, each one checked."""
        mask = 0
        for x in indices:
            self._check_index(x)
            mask |= 1 << x
        return mask

    def subgroup(self, elements) -> Subgroup:
        """Wrap an iterable of element indices as a subgroup, validating it."""
        mask = self._index_mask(elements) | 1
        if not is_subgroup_mask(self, mask):
            raise NotASubgroupError("set is not closed under products")
        return Subgroup(self, mask)

    def subgroup_from_generators(self, generators) -> Subgroup:
        return Subgroup(self, self.closure_mask(self._index_mask(generators)))

    def as_subgroup(self) -> Subgroup:
        return Subgroup(self, self.full_mask)

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, 1)

    def center(self) -> Subgroup:
        return Subgroup(self, self.center_mask())

    @property
    def is_abelian(self) -> bool:
        return self.center_mask() == self.full_mask

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name!r} of order {self.order}>"


class ElementSet:
    """An arbitrary subset of a group, stored as a bitmask."""

    __slots__ = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: int) -> None:
        parent._check_mask(members)
        self.parent = parent
        self.members = members

    def __len__(self) -> int:
        return self.members.bit_count()

    def __contains__(self, x: int) -> bool:
        return _is_index(x) and 0 <= x < self.parent.order and bool(self.members >> x & 1)

    def __iter__(self):
        return iter_mask(self.members)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(iter_mask(self.members))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        shown = self.elements
        body = ", ".join(map(str, shown[:12])) + (", ..." if len(shown) > 12 else "")
        return f"<{type(self).__name__} {{{body}}} in {self.parent.name}>"


class Subgroup(ElementSet):
    """A subgroup of a group, stored as a bitmask over the parent."""

    __slots__ = ("_gens",)

    def __init__(self, parent: FiniteGroup, members: int) -> None:
        super().__init__(parent, members)
        if not members & 1:
            raise NotASubgroupError("subgroup mask must contain the identity")
        self._gens: tuple[int, ...] = ()  # product_set's, else read from the closure memo

    @property
    def order(self) -> int:
        return self.members.bit_count()

    @property
    def generators(self) -> tuple[int, ...]:
        """The members ``closure_mask`` takes as generators: each one outside what those below it generate."""
        return self._gens or self.parent._closure(self.members)[1]

    def conjugate_by(self, g: int) -> Subgroup:
        return Subgroup(self.parent, self.parent.conjugate_mask(self.members, g))

    @property
    def is_normal(self) -> bool:
        return self.parent.normalizer_mask(self.members) == self.parent.full_mask


def _ambient_pair(ambient) -> tuple[FiniteGroup, int]:
    """(parent group, member mask) of an ambient group or subgroup."""
    if isinstance(ambient, FiniteGroup):
        return ambient, ambient.full_mask
    return ambient.parent, ambient.members


def _check_same_group(first, *rest) -> None:
    """Raise :class:`ParentMismatchError` unless the groups, element sets and subgroups given are of one group."""
    G = first if isinstance(first, FiniteGroup) else first.parent
    for item in rest:
        if (item if isinstance(item, FiniteGroup) else item.parent) is not G:
            raise ParentMismatchError("arguments belong to different groups")


def is_subgroup_mask(parent: FiniteGroup, mask: int) -> bool:
    """Whether the mask is a subgroup: it holds 1 and is closed under products.

    A finite set closed under products is closed under inverses too, so this
    is the one subgroup test.
    """
    return bool(mask & 1) and parent._select("mul", mask, mask, mask) == mask


def closure(parent: FiniteGroup, seed) -> Subgroup:
    """The subgroup generated by an iterable of element indices."""
    return parent.subgroup_from_generators(seed)


def commutator_subgroup(first: ElementSet, second: ElementSet) -> Subgroup:
    """The subgroup generated by all commutators [a, b], a in first, b in second.

    When both arguments are subgroups, H = <X> and K = <Y>, this is [H, K],
    the normal closure in <H, K> of {[x, y] : x in X, y in Y} (Robinson, A
    Course in the Theory of Groups, 5.1.7).  It is found from the subgroups'
    generators: close those commutators, then conjugate by X and Y and close
    again until nothing changes.  Other sets take the closure of the image
    of all pairs.  The result is memoized per pair of masks.
    """
    _check_same_group(first, second)
    a_mask, b_mask = first.members, second.members
    key = ("commsub", min(a_mask, b_mask), max(a_mask, b_mask))
    return first.parent.memo(key, _commutator_subgroup, first, second)


def _commutator_subgroup(first: ElementSet, second: ElementSet) -> Subgroup:
    G = first.parent
    if isinstance(first, Subgroup) and isinstance(second, Subgroup):
        xs, ys = first.generators, second.generators
        mask = G.closure_mask(mask_of(G._comm(x, y) for x in xs for y in ys))
        conjugators = mask_of(xs + ys)
        while True:
            grown = G._image("conj", conjugators, mask)
            if grown & ~mask == 0:
                break
            mask = G.closure_mask(mask | grown)
    else:
        mask = G.closure_mask(G._image("comm", first.members, second.members))
    return Subgroup(G, mask)


def normalizer(subset: ElementSet) -> Subgroup:
    return Subgroup(subset.parent, subset.parent.normalizer_mask(subset.members))


def normal_closure(parent: FiniteGroup, g: int) -> Subgroup:
    """The smallest normal subgroup containing g."""
    parent._check_index(g)
    return Subgroup(parent, parent.closure_mask(parent._image("conj", parent.full_mask, 1 << g)))


def product_set(first: Subgroup, second: Subgroup) -> Subgroup:
    """The product AB of two subgroups, if it is itself a subgroup.

    AB is a subgroup exactly when AB == BA as sets; otherwise
    :class:`NotASubgroupError` is raised.
    """
    _check_same_group(first, second)
    G = first.parent
    ab = G._image("mul", first.members, second.members)
    ba = G._image("mul", second.members, first.members)
    if ab != ba:
        raise NotASubgroupError("product set AB differs from BA, so AB is not a subgroup")
    out = Subgroup(G, ab)
    out._gens = tuple(dict.fromkeys(first.generators + second.generators))
    return out


def hall_witt_products(G: FiniteGroup, x, y, z):
    """Both Hall-Witt triple products; each equals the identity in any group.

    The first is [x, y^-1, z]^y * [y, z^-1, x]^z * [z, x^-1, y]^x and the
    second is [x, y, z^x] * [z, x, y^z] * [y, z, x^y], where [a, b, c] means
    [[a, b], c].  ``x``, ``y`` and ``z`` are element indices, or equal-length
    integer arrays giving two arrays of products, row by row; an array call
    raises the scalar call's error for its first bad row, after refusing
    arrays of unequal shapes.
    """
    scalar = not isinstance(x, np.ndarray)
    cols = (x, y, z) if scalar else np.atleast_1d(x, y, z)
    if not scalar and len({c.shape for c in cols}) > 1:
        raise MalformedInputError(
            "x, y and z must have one shape, not {}, {} and {}".format(*(c.shape for c in cols))
        )
    if scalar or any(c.dtype.kind not in "iu" or ((c < 0) | (c >= G.order)).any() for c in cols):
        rows = [cols] if scalar else zip(*(c.tolist() for c in cols))
        for entry in (e for row in rows for e in row):
            G._check_index(entry)
    x, y, z = cols if scalar else np.stack(cols).astype(np.intp)
    op = G._pair_values
    s, t = [], []
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        u = v = a
        for h in (G._inv_array[b], c):  # u = [a, b^-1, c]
            u = op("comm", u, h)
        for h in (b, op("conj", a, c)):  # v = [a, b, c^a]
            v = op("comm", v, h)
        s.append(op("conj", b, u))  # u^b, a factor of the first product
        t.append(v)  # a factor of the second
    first, second = op("mul", op("mul", s[0], s[1]), s[2]), op("mul", op("mul", t[0], t[2]), t[1])
    return (int(first), int(second)) if scalar else (first, second)


# -- serialization ------------------------------------------------------


def group_to_dict(G: FiniteGroup) -> dict:
    if G.kind == "perm":
        return {
            "kind": "perm",
            "name": G.name,
            "degree": G._degree,
            "generators": [list(p) for p in G._perm_generators],
        }
    return {"kind": "cayley", "name": G.name, "order": G.order, "table": G._array.tolist()}


def group_from_dict(data: dict) -> FiniteGroup:
    if not isinstance(data, dict) or "kind" not in data:
        raise MalformedInputError("group description must be a dict with a 'kind' key")
    kind = data["kind"]
    name = data.get("name", "G")
    if not isinstance(name, str):
        raise MalformedInputError(f"group name must be a string, not {name!r}")
    if kind == "cayley":
        if "table" not in data:
            raise MalformedInputError("cayley group description needs a 'table'")
        G = FiniteGroup.from_cayley_table(data["table"], name=name)
        order = data.get("order", G.order)
        if not _is_index(order) or order != G.order:
            raise MalformedInputError(f"'order' {order!r} does not match the table's {G.order} rows")
        return G
    if kind == "perm":
        if "degree" not in data or "generators" not in data:
            raise MalformedInputError("perm group description needs 'degree' and 'generators'")
        return FiniteGroup.from_permutations(data["degree"], _generator_list(data), name=name)
    raise MalformedInputError(f"unknown group kind {kind!r}")


def _generator_list(data: dict) -> list:
    gens = data["generators"]
    if not isinstance(gens, list):
        raise MalformedInputError(f"'generators' must be a list, not {gens!r}")
    return gens


def read_text(path) -> str:
    """The text of a UTF-8 file; any other bytes raise :class:`MalformedInputError`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedInputError(f"{path} is not UTF-8 text: {exc}") from exc


def read_json(path):
    """The JSON value in a UTF-8 file.

    Besides invalid JSON, arrays nested too deep to decode and integers
    longer than Python converts (4300 digits by default) raise
    :class:`MalformedInputError`.
    """
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError includes JSONDecodeError
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from exc


def load_group(path) -> FiniteGroup:
    return group_from_dict(read_json(path))


def save_group(G: FiniteGroup, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(group_to_dict(G), fh)
        fh.write("\n")


def subgroup_to_dict(S: Subgroup) -> dict:
    G = S.parent
    if G.kind == "perm":
        return {"generators": [list(G._perms[g]) for g in S.generators]}
    return {"generators": list(S.generators)}


def subgroup_from_dict(parent: FiniteGroup, data: dict) -> Subgroup:
    if not isinstance(data, dict) or "generators" not in data:
        raise MalformedInputError("subgroup description must be a dict with 'generators'")
    gens = []
    for spec in _generator_list(data):
        if _is_index(spec):  # checked with the rest by subgroup_from_generators
            gens.append(spec)
        elif isinstance(spec, list):
            if parent.kind != "perm":
                raise MalformedInputError("image-array generators need a permutation group")
            # an exact lookup: True and 1.0 compare equal to 1
            if not all(map(_is_index, spec)) or tuple(spec) not in parent._perms:
                raise MalformedInputError(f"{spec!r} is not an element of {parent.name}")
            gens.append(parent._perms.index(tuple(spec)))
        else:
            raise MalformedInputError(f"bad generator spec {spec!r}")
    return parent.subgroup_from_generators(gens)
