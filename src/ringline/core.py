"""Finite associative unital rings as explicit Cayley tables.

Elements are the indices 0..order-1; index 0 is always the additive zero.
All structure (units, radical, ideal lattices, fingerprints) is computed by
direct enumeration, which is exact and cheap at the desk-scale orders this
package targets (ideal enumeration is capped at order 64).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    NoUnity,
    NotAbelianGroup,
    NotAssociative,
    NotClosed,
    NotDistributive,
    OrderTooLarge,
    ZeroIndexNotZero,
)

IDEAL_ENUMERATION_CAP = 64


class FiniteRing:
    """A validated finite ring with unity.

    Do not call the constructor with unchecked tables; go through
    :func:`validate_ring` (the named constructors in :mod:`ringline.build`
    all do).
    """

    __slots__ = ("order", "add", "mul", "one", "name", "neg", "_cache")

    def __init__(self, order: int, add: np.ndarray, mul: np.ndarray, one: int, name: str):
        self.order = order
        self.add = add
        self.mul = mul
        self.one = one
        self.name = name
        # additive inverse: the unique zero in each row of the addition table
        self.neg = np.argmax(add == 0, axis=1)
        self.neg.flags.writeable = False
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"FiniteRing(name={self.name!r}, order={self.order})"

    def elements(self) -> range:
        return range(self.order)

    def add_of(self, a: int, b: int) -> int:
        return int(self.add[a, b])

    def mul_of(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def neg_of(self, a: int) -> int:
        return int(self.neg[a])

    def sub_of(self, a: int, b: int) -> int:
        return int(self.add[a, self.neg[b]])

    def is_unit(self, x: int) -> bool:
        return x in _unit_set(self)

    def same_tables(self, other: "FiniteRing") -> bool:
        return (
            self.order == other.order
            and self.one == other.one
            and np.array_equal(self.add, other.add)
            and np.array_equal(self.mul, other.mul)
        )


@dataclass(frozen=True)
class ElementSubset:
    """A tagged subset of a ring's element indices."""

    members: frozenset[int]
    kind: str

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


@dataclass(frozen=True)
class RingFingerprint:
    """Isomorphism-invariant summary used in place of literature numbering."""

    order: int
    unit_count: int
    zero_divisor_count: int
    characteristic: int
    radical_size: int
    maximal_left_ideal_count: int
    maximal_right_ideal_count: int
    maximal_two_sided_ideal_count: int
    commutative: bool

    def as_tuple(self) -> tuple:
        return (
            self.order,
            self.unit_count,
            self.zero_divisor_count,
            self.characteristic,
            self.radical_size,
            self.maximal_left_ideal_count,
            self.maximal_right_ideal_count,
            self.maximal_two_sided_ideal_count,
            self.commutative,
        )

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "unitCount": self.unit_count,
            "zeroDivisorCount": self.zero_divisor_count,
            "characteristic": self.characteristic,
            "radicalSize": self.radical_size,
            "maximalLeftIdealCount": self.maximal_left_ideal_count,
            "maximalRightIdealCount": self.maximal_right_ideal_count,
            "maximalTwoSidedIdealCount": self.maximal_two_sided_ideal_count,
            "commutative": self.commutative,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RingFingerprint":
        return cls(
            order=d["order"],
            unit_count=d["unitCount"],
            zero_divisor_count=d["zeroDivisorCount"],
            characteristic=d["characteristic"],
            radical_size=d["radicalSize"],
            maximal_left_ideal_count=d["maximalLeftIdealCount"],
            maximal_right_ideal_count=d["maximalRightIdealCount"],
            maximal_two_sided_ideal_count=d["maximalTwoSidedIdealCount"],
            commutative=d["commutative"],
        )


def _as_table(table: Sequence[Sequence[int]] | np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotClosed(f"{what} table is not square: shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        try:
            conv = arr.astype(np.int64)
        except (TypeError, ValueError):
            raise NotClosed(f"{what} table has non-integer entries") from None
        if not np.array_equal(conv, arr):
            raise NotClosed(f"{what} table has non-integer entries")
        arr = conv
    return arr.astype(np.int64)


def validate_ring(
    add_table: Sequence[Sequence[int]] | np.ndarray,
    mul_table: Sequence[Sequence[int]] | np.ndarray,
    one_index: int,
    name: str = "ring",
) -> FiniteRing:
    """Check every ring-with-unity axiom on the given tables.

    Returns a :class:`FiniteRing` or raises a :class:`RingValidationError`
    subclass naming the first violated axiom, with a witnessing index tuple.
    """
    add = _as_table(add_table, "addition")
    mul = _as_table(mul_table, "multiplication")
    n = add.shape[0]
    if mul.shape[0] != n:
        raise NotClosed(f"table sizes differ: {n} vs {mul.shape[0]}")
    if n < 2:
        raise NotClosed("ring must have at least 2 elements (1 != 0)")

    for arr, what in ((add, "addition"), (mul, "multiplication")):
        if arr.min() < 0 or arr.max() >= n:
            bad = np.argwhere((arr < 0) | (arr >= n))[0]
            raise NotClosed(
                f"{what} table entry at ({bad[0]}, {bad[1]}) is outside [0, {n})",
                witness=(int(bad[0]), int(bad[1])),
            )

    idx = np.arange(n)
    if not (np.array_equal(add[0], idx) and np.array_equal(add[:, 0], idx)):
        bad = int(np.flatnonzero(add[0] != idx)[0]) if not np.array_equal(add[0], idx) else int(
            np.flatnonzero(add[:, 0] != idx)[0]
        )
        raise ZeroIndexNotZero(
            f"element 0 is not the additive identity (witness element {bad})", witness=(bad,)
        )

    if not np.array_equal(add, add.T):
        a, b = np.argwhere(add != add.T)[0]
        raise NotAbelianGroup(
            f"addition not commutative: {a}+{b} != {b}+{a}", witness=(int(a), int(b))
        )
    # each row must be a permutation (gives inverses; identity already checked)
    sorted_rows = np.sort(add, axis=1)
    if not np.array_equal(sorted_rows, np.tile(idx, (n, 1))):
        a = int(np.flatnonzero((sorted_rows != idx).any(axis=1))[0])
        raise NotAbelianGroup(f"addition row {a} is not a permutation", witness=(a,))
    _check_associative(add, n, NotAbelianGroup, "addition")
    _check_associative(mul, n, NotAssociative, "multiplication")

    # a*(b+c) == a*b + a*c and (a+b)*c == a*c + b*c, sliced over a to bound memory
    for a in range(n):
        row = mul[a]
        left = row[add]  # (b, c) -> a*(b+c)
        right = add[np.ix_(row, row)]  # (b, c) -> a*b + a*c
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            raise NotDistributive(
                f"left distributivity fails at ({a}, {b}, {c})",
                witness=(a, int(b), int(c)),
            )
        col = mul[:, a]
        left2 = col[add]  # (b, c) -> (b+c)*a
        right2 = add[np.ix_(col, col)]  # (b, c) -> b*a + c*a
        if not np.array_equal(left2, right2):
            b, c = np.argwhere(left2 != right2)[0]
            raise NotDistributive(
                f"right distributivity fails at ({b}, {c}, {a})",
                witness=(int(b), int(c), a),
            )

    one = int(one_index)
    if not (0 < one < n) or not (
        np.array_equal(mul[one], idx) and np.array_equal(mul[:, one], idx)
    ):
        raise NoUnity(f"index {one} is not a two-sided multiplicative identity", witness=(one,))

    add = add.copy()
    mul = mul.copy()
    add.flags.writeable = False
    mul.flags.writeable = False
    return FiniteRing(order=n, add=add, mul=mul, one=one, name=name)


def _check_associative(table: np.ndarray, n: int, exc: type, what: str) -> None:
    # (a∘b)∘c == a∘(b∘c), sliced over a: memory O(n^2) per slice
    for a in range(n):
        lhs = table[table[a]]  # (b, c) -> (a∘b)∘c
        rhs = table[a][table]  # (b, c) -> a∘(b∘c)
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            raise exc(
                f"{what} not associative at ({a}, {b}, {c})", witness=(a, int(b), int(c))
            )


# ---------------------------------------------------------------------------
# element-level structure


def _unit_set(ring: FiniteRing) -> frozenset[int]:
    cached = ring._cache.get("units")
    if cached is None:
        mul, one, n = ring.mul, ring.one, ring.order
        found = []
        for x in range(n):
            ys = np.flatnonzero(mul[x] == one)
            # two-sided verification: cheap insurance against table corruption
            for y in ys:
                if mul[y, x] == one:
                    found.append(x)
                    break
        cached = frozenset(found)
        ring._cache["units"] = cached
    return cached


def unit_elements(ring: FiniteRing) -> tuple[int, ...]:
    """Units in ascending index order."""
    return tuple(sorted(_unit_set(ring)))


def units(ring: FiniteRing) -> ElementSubset:
    """Elements with a two-sided multiplicative inverse."""
    return ElementSubset(members=_unit_set(ring), kind="units")


def zero_divisor_count(ring: FiniteRing) -> int:
    """Number of non-units, zero included (order minus units)."""
    return ring.order - len(_unit_set(ring))


def zero_divisors(ring: FiniteRing) -> ElementSubset:
    return ElementSubset(
        members=frozenset(range(ring.order)) - _unit_set(ring), kind="zeroDivisors"
    )


def jacobson_radical(ring: FiniteRing) -> ElementSubset:
    """{x : 1 - r*x is a unit for every r}, verified to be a two-sided ideal."""
    cached = ring._cache.get("radical")
    if cached is None:
        us = _unit_set(ring)
        add, mul, neg, one, n = ring.add, ring.mul, ring.neg, ring.one, ring.order
        members = [
            x
            for x in range(n)
            if all(int(add[one, neg[mul[r, x]]]) in us for r in range(n))
        ]
        mset = frozenset(members)
        for x in members:  # ideal axioms must hold; failure means corrupt tables
            for r in range(n):
                if int(mul[r, x]) not in mset or int(mul[x, r]) not in mset:
                    raise AssertionError("radical is not a two-sided ideal")
            for y in members:
                if int(add[x, y]) not in mset:
                    raise AssertionError("radical is not additively closed")
        cached = ElementSubset(members=mset, kind="radical")
        ring._cache["radical"] = cached
    return cached


def _additive_closure(ring: FiniteRing, seed: Iterable[int]) -> frozenset[int]:
    add = ring.add
    cur = {0} | set(int(s) for s in seed)
    while True:
        new = {int(add[x, y]) for x in cur for y in cur} - cur
        if not new:
            return frozenset(cur)
        cur |= new


def _cyclic_ideal(ring: FiniteRing, g: int, side: str) -> frozenset[int]:
    mul, n = ring.mul, ring.order
    if side == "left":
        return frozenset(int(v) for v in mul[:, g])
    if side == "right":
        return frozenset(int(v) for v in mul[g, :])
    products = {int(mul[int(mul[r, g]), s]) for r in range(n) for s in range(n)}
    return _additive_closure(ring, products)


def ideal_lattice(ring: FiniteRing, side: str = "two_sided") -> list[ElementSubset]:
    """All ideals of the given side, {0} and the whole ring included.

    Computed as the closure of the cyclic ideals under pairwise ideal sums,
    which reaches every ideal since an ideal is the sum of the cyclic ideals
    of its elements.
    """
    if side not in ("left", "right", "two_sided"):
        raise ValueError(f"unknown side {side!r}; expected left, right or two_sided")
    if ring.order > IDEAL_ENUMERATION_CAP:
        raise OrderTooLarge(
            f"ideal enumeration capped at order {IDEAL_ENUMERATION_CAP}, got {ring.order}"
        )
    key = ("ideals", side)
    cached = ring._cache.get(key)
    if cached is None:
        add = ring.add
        ideals: set[frozenset[int]] = {
            _cyclic_ideal(ring, g, side) for g in range(ring.order)
        }
        worklist = list(ideals)
        while worklist:
            current = worklist.pop()
            for other in list(ideals):
                total = frozenset(int(add[x, y]) for x in current for y in other)
                if total not in ideals:
                    ideals.add(total)
                    worklist.append(total)
        kind = {"left": "leftIdeal", "right": "rightIdeal", "two_sided": "twoSidedIdeal"}[side]
        cached = [
            ElementSubset(members=m, kind=kind)
            for m in sorted(ideals, key=lambda s: (len(s), sorted(s)))
        ]
        ring._cache[key] = cached
    return cached


def maximal_ideal_count(ring: FiniteRing, side: str = "two_sided") -> int:
    """Number of proper ideals maximal under inclusion among proper ideals."""
    return len(maximal_ideals(ring, side))


def maximal_ideals(ring: FiniteRing, side: str = "two_sided") -> list[ElementSubset]:
    lattice = ideal_lattice(ring, side)
    proper = [i for i in lattice if len(i.members) < ring.order]
    return [
        i
        for i in proper
        if not any(i.members < j.members for j in proper)
    ]


def characteristic(ring: FiniteRing) -> int:
    """Additive order of 1."""
    add, one = ring.add, ring.one
    x, k = one, 1
    while x != 0:
        x = int(add[x, one])
        k += 1
    return k


def is_commutative(ring: FiniteRing) -> bool:
    cached = ring._cache.get("commutative")
    if cached is None:
        cached = bool(np.array_equal(ring.mul, ring.mul.T))
        ring._cache["commutative"] = cached
    return cached


def center(ring: FiniteRing) -> ElementSubset:
    """{x : x*r == r*x for all r}."""
    mul = ring.mul
    members = frozenset(
        x for x in range(ring.order) if np.array_equal(mul[x], mul[:, x])
    )
    return ElementSubset(members=members, kind="center")


def fingerprint(ring: FiniteRing) -> RingFingerprint:
    """Deterministic aggregation of the invariants above."""
    cached = ring._cache.get("fingerprint")
    if cached is None:
        ucount = len(_unit_set(ring))
        cached = RingFingerprint(
            order=ring.order,
            unit_count=ucount,
            zero_divisor_count=ring.order - ucount,
            characteristic=characteristic(ring),
            radical_size=len(jacobson_radical(ring)),
            maximal_left_ideal_count=maximal_ideal_count(ring, "left"),
            maximal_right_ideal_count=maximal_ideal_count(ring, "right"),
            maximal_two_sided_ideal_count=maximal_ideal_count(ring, "two_sided"),
            commutative=is_commutative(ring),
        )
        ring._cache["fingerprint"] = cached
    return cached


def relabel(ring: FiniteRing, perm: Sequence[int]) -> FiniteRing:
    """Transport both tables along a bijection of element indices.

    ``perm[i]`` is the new index of old element ``i``; 0 must stay fixed so
    the result keeps the zero-at-index-0 convention. The result is validated.
    """
    n = ring.order
    p = list(int(x) for x in perm)
    if len(p) != n or sorted(p) != list(range(n)):
        raise ValueError("perm is not a permutation of the element indices")
    if p[0] != 0:
        raise ValueError("perm must fix the zero element")
    inv = [0] * n
    for i, v in enumerate(p):
        inv[v] = i
    parr = np.array(p)
    inv_arr = np.array(inv)
    new_add = parr[ring.add[np.ix_(inv_arr, inv_arr)]]
    new_mul = parr[ring.mul[np.ix_(inv_arr, inv_arr)]]
    return validate_ring(new_add, new_mul, p[ring.one], name=f"{ring.name}~relabel")
