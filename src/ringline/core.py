"""Finite associative unital rings as explicit Cayley tables.

Elements are the indices 0..order-1; index 0 is always the additive zero.
All structure (units, radical, ideal lattices, fingerprints) is computed
exactly from whole tables, which is cheap at the desk-scale orders this
package targets (ideal enumeration is capped at order 64). Validation checks
associativity and distributivity on additive generators, in O(n^2) time per
generator. Left ideals are boolean membership masks; all sums of one ideal
with the cyclic left ideals come from one float32 matrix product. Right
ideals are the left ideals of the opposite ring, whose multiplication table
is ``mul.T``, and two-sided ideals are the sets that are both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    try:
        arr = np.asarray(table)
    except ValueError:
        raise NotClosed(f"{what} table has rows of unequal length") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotClosed(f"{what} table is not square: shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        # exact Python numbers, so the int64 cast raises instead of rounding or wrapping
        arr = np.array(table, dtype=object)
        try:
            conv = arr.astype(np.int64)
        except OverflowError:
            raise NotClosed(f"{what} table has an entry outside the int64 range") from None
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
    Associativity and distributivity are checked on additive generators
    (:func:`_axioms_hold_on_generators`); only when that fails does the
    per-element scan run, to name the lexicographically first witness.
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
    for sums in (add[0], add[:, 0]):  # 0 + x, then x + 0
        if not np.array_equal(sums, idx):
            bad = int(np.flatnonzero(sums != idx)[0])
            raise ZeroIndexNotZero(
                f"element 0 is not the additive identity (witness element {bad})",
                witness=(bad,),
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
    if not _axioms_hold_on_generators(add, mul):
        # name the lexicographically first witness of the failed axiom
        _check_associative(add, n, NotAbelianGroup, "addition")
        _check_associative(mul, n, NotAssociative, "multiplication")
        _check_distributive(add, mul, n)
        raise AssertionError("a generator check failed but the full scan found no witness")

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


def _check_distributive(add: np.ndarray, mul: np.ndarray, n: int) -> None:
    # a*(b+c) == a*b + a*c, sliced over a to bound memory; over the opposite
    # table mul.T the same check is (b+c)*a == b*a + c*a
    for a in range(n):
        for side, table in (("left", mul), ("right", mul.T)):
            row = table[a]
            lhs = row[add]  # (b, c) -> a*(b+c)
            rhs = add[np.ix_(row, row)]  # (b, c) -> a*b + a*c
            if not np.array_equal(lhs, rhs):
                b, c = np.argwhere(lhs != rhs)[0]
                witness = (a, int(b), int(c)) if side == "left" else (int(b), int(c), a)
                raise NotDistributive(
                    f"{side} distributivity fails at {witness}", witness=witness
                )


def _additive_generators(add: np.ndarray) -> list[int]:
    """Generators g of the additive group, each the least element not yet
    reached, where the reached set is {0} closed under the steps x -> x + g.

    Every element is then a chain ((0 + g1) + g2) + ... of generator steps;
    building it assumes no associativity.
    """
    reached = np.zeros(add.shape[0], dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        steps = add[:, gens]
        frontier = np.flatnonzero(reached)
        while frontier.size:
            fresh = np.zeros_like(reached)
            fresh[steps[frontier]] = True
            fresh &= ~reached
            reached |= fresh
            frontier = np.flatnonzero(fresh)
    return gens


def _axioms_hold_on_generators(add: np.ndarray, mul: np.ndarray) -> bool:
    """Associativity of both operations and distributivity, from checks on
    additive generators only (the addition is known to be a commutative
    loop: 0 is its identity and every row is a permutation).

    1. Light's test, (x+g)+y == x+(g+y) for every x, y and generator g. The
       elements that associate in the middle contain 0 and are closed under
       +, and every element is a chain of +g steps from 0, so + is
       associative.
    2. a*(x+g) == a*x + a*g for every a, x and g, over mul and mul.T. At
       x = 0 this gives a*0 = 0; with + associative, induction along the
       chain of b then gives a*(x+b) == a*x + a*b for every b. So every left
       and right multiplication map is additive.
    3. Multiplication is then bi-additive, so both (ab)c and a(bc) are
       additive in each argument, and associativity on triples of
       generators gives it everywhere.

    Each step is O(n^2) in time and memory; when + is a group, each
    generator at least doubles the reached subgroup, so there are at most
    log2(n) of them.
    """
    gens = _additive_generators(add)
    for g in gens:  # (x+g)+y == x+(g+y)
        if not np.array_equal(add[add[:, g]], add[:, add[g]]):
            return False
    for table in (mul, mul.T):
        for g in gens:  # a*(x+g) == a*x + a*g
            if not np.array_equal(table[:, add[:, g]], add[table, table[:, g, None]]):
                return False
    g = np.array(gens)
    prod = mul[g[:, None], g]  # (i, j) -> gi*gj
    return np.array_equal(mul[prod[:, :, None], g], mul[g[:, None, None], prod])


# ---------------------------------------------------------------------------
# element-level structure


def _unit_set(ring: FiniteRing) -> frozenset[int]:
    if "units" not in ring._cache:
        mul, one = ring.mul, ring.one
        # x is a unit when some y has x*y == 1 == y*x
        found = np.flatnonzero(((mul == one) & (mul.T == one)).any(axis=1))
        ring._cache["units"] = frozenset(found.tolist())
    return ring._cache["units"]


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
    if "radical" not in ring._cache:
        add, mul = ring.add, ring.mul
        one_minus = add[ring.one, ring.neg[mul]]  # (r, x) -> 1 - r*x
        inside = np.isin(one_minus, list(_unit_set(ring))).all(axis=0)
        members = np.flatnonzero(inside)
        # ideal axioms must hold; failure means corrupt tables
        if not (inside[mul[:, members]].all() and inside[mul[members]].all()):
            raise AssertionError("radical is not a two-sided ideal")
        if not inside[add[np.ix_(members, members)]].all():
            raise AssertionError("radical is not additively closed")
        ring._cache["radical"] = ElementSubset(
            members=frozenset(members.tolist()), kind="radical"
        )
    return ring._cache["radical"]


def _left_ideals(add: np.ndarray, mul: np.ndarray) -> set[frozenset[int]]:
    """Every left ideal of the ring with these tables.

    Starting from {0}, each ideal found is summed with every cyclic left
    ideal R*g (column g of mul); an ideal is the sum of the cyclic ideals of
    its elements, so this reaches them all. Ideals are boolean masks, and all
    sums of one ideal I come from one float32 product: y is in I + R*g iff
    I[y - c] holds for some c in R*g, so ``I[sub] @ cyc > 0`` with ``sub``
    the map (y, c) -> y - c and ``cyc`` the (element x cyclic ideal)
    membership matrix. No count exceeds n, so float32 is exact.
    """
    n = add.shape[0]
    sub = add[:, np.argmax(add == 0, axis=1)]  # (y, c) -> y - c
    member = np.zeros((n, n), dtype=bool)
    member[np.arange(n)[:, None], mul.T] = True  # row g marks R*g
    distinct = {row.tobytes(): row for row in member}
    cyc = np.array(list(distinct.values()), dtype=np.float32).T
    zero = np.zeros(n, dtype=bool)
    zero[0] = True
    ideals = {zero.tobytes()}  # each mask's bytes
    worklist = list(ideals)
    while worklist:
        current = np.frombuffer(worklist.pop(), dtype=bool)
        sums = np.ascontiguousarray((current[sub].astype(np.float32) @ cyc > 0).T)
        for total in sums:
            key = total.tobytes()
            if key not in ideals:
                ideals.add(key)
                worklist.append(key)
    return {frozenset(np.flatnonzero(np.frombuffer(k, dtype=bool)).tolist()) for k in ideals}


def ideal_lattice(ring: FiniteRing, side: str = "two_sided") -> list[ElementSubset]:
    """All ideals of the given side, {0} and the whole ring included.

    Left ideals come from :func:`_left_ideals`; right ideals are the left
    ideals of the opposite ring, whose multiplication table is ``mul.T``; and
    two-sided ideals are the sets that are both left and right ideals.
    """
    if side not in ("left", "right", "two_sided"):
        raise ValueError(f"unknown side {side!r}; expected left, right or two_sided")
    if ring.order > IDEAL_ENUMERATION_CAP:
        raise OrderTooLarge(
            f"ideal enumeration capped at order {IDEAL_ENUMERATION_CAP}, got {ring.order}"
        )
    key = ("ideals", side)
    if key not in ring._cache:
        if side == "two_sided":
            left = {i.members for i in ideal_lattice(ring, "left")}
            ideals = left.intersection(i.members for i in ideal_lattice(ring, "right"))
        else:
            ideals = _left_ideals(ring.add, ring.mul if side == "left" else ring.mul.T)
        kind = {"left": "leftIdeal", "right": "rightIdeal", "two_sided": "twoSidedIdeal"}[side]
        ring._cache[key] = [
            ElementSubset(members=m, kind=kind)
            for m in sorted(ideals, key=lambda s: (len(s), sorted(s)))
        ]
    return ring._cache[key]


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
    return bool(np.array_equal(ring.mul, ring.mul.T))


def center(ring: FiniteRing) -> ElementSubset:
    """{x : x*r == r*x for all r}."""
    members = np.flatnonzero((ring.mul == ring.mul.T).all(axis=1))
    return ElementSubset(members=frozenset(members.tolist()), kind="center")


def fingerprint(ring: FiniteRing) -> RingFingerprint:
    """Deterministic aggregation of the invariants above."""
    if "fingerprint" not in ring._cache:
        ucount = len(_unit_set(ring))
        ring._cache["fingerprint"] = RingFingerprint(
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
    return ring._cache["fingerprint"]


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
