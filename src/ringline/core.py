"""Finite associative unital rings as explicit Cayley tables.

Elements are the indices 0..order-1; index 0 is always the additive zero.
All structure (units, radical, the blocks of R/J, ideal lattices,
fingerprints) is computed exactly from whole tables, which is cheap at the
desk-scale orders this package targets: a table holds at most 1,024
elements. Fingerprints read maximal ideal counts off the blocks of R/J;
ideal lattices and projective lines are enumerated only up to order
ENUMERATION_CAP = 64 (:func:`check_enumerable`). Validation checks
associativity and distributivity on the G additive generators
(:func:`_axioms_hold_on_generators`): two n^2 passes per generator, Light's
test and right distributivity, then n*G^2 cells of left distributivity for
generator multipliers, which right distributivity extends to every
multiplier. Left ideals are boolean membership masks; all sums of one ideal
with the cyclic left ideals come from one float32 matrix product. Right
ideals are the left ideals of the opposite ring, whose multiplication table
is ``mul.T``, and two-sided ideals are the sets that are both. The radical
and the ideals are plain ``frozenset``s of element indices, the units an
ascending tuple; tables are read by indexing ``add``, ``mul``, ``neg`` and
``inv``, the last from one compare, ``mul == one``: a finite ring is
Dedekind-finite, so every right inverse is two-sided.

At these orders a numpy call's fixed cost, not its cell count, sets the
time, so the code that evaluates one ring, here and in line, stats and
clique, calls ndarray methods and indexes by broadcasting, as in
``add[a[:, None], b]`` and ``mask.nonzero()[0]``, rather than through
numpy's Python-level helpers such as ``np.ix_`` and ``np.flatnonzero``;
only the slow paths that name a failed axiom's witness use them.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
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

ENUMERATION_CAP = 64


class FiniteRing:
    """A validated finite ring with unity.

    Do not call the constructor with unchecked tables; go through
    :func:`validate_ring` (the named constructors in :mod:`ringline.build`
    all do).
    """

    __slots__ = ("order", "add", "mul", "one", "name", "neg", "inv", "_cache")

    def __init__(self, add: np.ndarray, mul: np.ndarray, one: int, name: str):
        self.order = len(add)
        self.add = add
        self.mul = mul
        self.one = one
        self.name = name
        # additive inverse: the unique zero in each row of the addition table
        self.neg = (add == 0).argmax(axis=1)
        self.neg.flags.writeable = False
        # inverse: the y with x*y == 1, or -1 for a non-unit. A finite ring is Dedekind-finite,
        # so y is two-sided: y*a = y*b gives a = b on multiplying by x, so a -> y*a is injective,
        # hence onto; then y*z = 1 for some z, and z = (x*y)*z = x*(y*z) = x.
        right = mul == one
        self.inv = np.where(right.any(axis=1), right.argmax(axis=1), -1)
        self.inv.flags.writeable = False
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"FiniteRing(name={self.name!r}, order={self.order})"


class RingFingerprint(namedtuple("RingFingerprint", (
    "order unit_count zero_divisor_count characteristic radical_size maximal_left_ideal_count"
    " maximal_right_ideal_count maximal_two_sided_ideal_count commutative"
))):
    """Isomorphism-invariant summary used in place of literature numbering."""

    __slots__ = ()

    def as_tuple(self) -> tuple:
        return tuple(self)

    def to_json_dict(self) -> dict:
        """Fields in declaration order, keys in camelCase."""
        return {
            re.sub(r"_(.)", lambda m: m.group(1).upper(), name): value
            for name, value in zip(self._fields, self)
        }


def _as_table(table: Sequence[Sequence[int]] | np.ndarray, what: str) -> np.ndarray:
    try:
        arr = np.asarray(table)
    except ValueError:
        raise NotClosed(f"{what} table has rows of unequal length") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotClosed(f"{what} table is not square: shape {arr.shape}")
    if arr.dtype.kind in "iu":
        arr = arr.astype(np.int64, order="C")  # a copy even when already int64
    else:
        # exact Python numbers, so the int64 cast raises instead of rounding or wrapping
        exact = np.array(table, dtype=object)
        try:
            arr = exact.astype(np.int64, order="C")
        except OverflowError:
            raise NotClosed(f"{what} table has an entry outside the int64 range") from None
        except (TypeError, ValueError):
            raise NotClosed(f"{what} table has non-integer entries") from None
        if not np.array_equal(arr, exact):
            raise NotClosed(f"{what} table has non-integer entries")
    arr.flags.writeable = False
    return arr


def _integer(value, what: str, error: type[Exception] = ValueError) -> int:
    """``value`` through ``operator.index``; int() would read 1.9 and "1" as 1."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def validate_ring(
    add_table: Sequence[Sequence[int]] | np.ndarray,
    mul_table: Sequence[Sequence[int]] | np.ndarray,
    one_index: int,
    name: str = "ring",
) -> FiniteRing:
    """Check every ring-with-unity axiom on the given tables.

    Returns a :class:`FiniteRing` on read-only int64 copies of the tables, or
    raises a :class:`RingValidationError` subclass naming the first violated
    axiom, with a witness tuple. Associativity and distributivity are checked on
    additive generators (:func:`_axioms_hold_on_generators`); only if that fails
    does the per-element scan name the lexicographically first witness.

    Refuses with ValueError a name a ring file would not keep (empty, with
    ``#`` or not single-spaced), and with NoUnity a non-integer ``one_index``.
    """
    if not name or "#" in name or name != " ".join(name.split()):
        raise ValueError(f"ring name {name!r} must be non-empty, without '#' and single-spaced")
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
        if not (sums == idx).all():
            bad = int((sums != idx).argmax())
            raise ZeroIndexNotZero(
                f"element 0 is not the additive identity (witness element {bad})",
                witness=(bad,),
            )

    if not _symmetric(add):
        a, b = np.argwhere(add != add.T)[0]
        raise NotAbelianGroup(
            f"addition not commutative: {a}+{b} != {b}+{a}", witness=(int(a), int(b))
        )
    # each row must be a permutation (gives inverses; identity already checked):
    # hit[x*n + y] marks y in row x
    hit = np.zeros(n * n, bool)
    hit[add + idx[:, None] * n] = True
    if not hit.all():
        a = int(hit.reshape(n, n).all(axis=1).argmin())
        raise NotAbelianGroup(f"addition row {a} is not a permutation", witness=(a,))
    if not _axioms_hold_on_generators(add, mul):
        # name the lexicographically first witness of the failed axiom
        _check_associative(add, n, NotAbelianGroup, "addition")
        _check_associative(mul, n, NotAssociative, "multiplication")
        _check_distributive(add, mul, n)
        raise AssertionError("a generator check failed but the full scan found no witness")

    one = _integer(one_index, "unity index", NoUnity)
    if not (0 < one < n) or not (
        (mul[one] == idx).all() and (mul[:, one] == idx).all()
    ):
        raise NoUnity(f"index {one} is not a two-sided multiplicative identity", witness=(one,))

    return FiniteRing(add, mul, one, name)


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
    building it assumes no associativity. The closure runs over the step
    rows as lists: a new generator's step is taken from every element
    already reached, and each newly reached element takes every step.
    """
    n = add.shape[0]
    reached = [True] + [False] * (n - 1)
    members = [0]
    gens: list[int] = []
    steps: list[list[int]] = []
    while len(members) < n:
        gens.append(reached.index(False))
        steps.append(add[gens[-1]].tolist())  # x -> g + x, which is x + g
        todo = [steps[-1][x] for x in members]
        while todo:
            y = todo.pop()
            if not reached[y]:
                reached[y] = True
                members.append(y)
                for step in steps:
                    todo.append(step[y])
    return gens


def _axioms_hold_on_generators(add: np.ndarray, mul: np.ndarray) -> bool:
    """Associativity of both operations and distributivity, from checks on
    additive generators only (the addition is known to be a commutative
    loop: 0 is its identity and every row is a permutation).

    1. Light's test, (x+g)+y == x+(g+y) for every x, y and generator g. As
       + is commutative, P = add[add[g]] holds (x+g)+y at (x, y) and
       x+(g+y) at (y, x), so the test is P == P.T. The elements that
       associate in the middle contain 0 and are closed under +, and every
       element is a chain of +g steps from 0, so + is associative.
    2. (x+g)*z == x*z + g*z for every x, z and generator g, and
       g*(x+h) == g*x + g*h for every x and generators g, h. At x = 0 these
       give 0*z = 0 and g*0 = 0; with + associative, induction along the
       chain of b then gives (x+b)*z == x*z + b*z and g*(x+b) == g*x + g*b
       for every b. So every right multiplication map is additive, and so is
       left multiplication by a generator. Any a is a chain
       ((0+g1)+g2)+..., so the first law gives a*y = g1*y + g2*y + ...:
       left multiplication by a is a sum of additive maps, hence additive.
    3. Multiplication is then bi-additive, so both (ab)c and a(bc) are
       additive in each argument, and associativity on triples of
       generators gives it everywhere.

    With G generators, step 1 reads n^2*G cells, step 2 n^2*G + n*G^2 and
    step 3 G^3; each check keeps its n^2 temporaries only while it runs.
    When + is a group, each generator at least doubles the reached
    subgroup, so G is at most log2(n). The first law gathers ``add`` at the
    flat indices ``mul * n + mul[g]``, which holds one more n^2 int64
    temporary (8 MB at ORDER_CAP) than the two-index gather
    ``add[mul, mul[g]]`` but runs faster.
    """
    n = len(add)
    gens = _additive_generators(add)
    # (x+g)+y == x+(g+y); each gather is freed when its test returns
    if not all(_symmetric(add[add[g]]) for g in gens):
        return False
    for g in gens:  # (x+g)*z == x*z + g*z
        if not (mul[add[g]] == add.ravel()[mul * n + mul[g]]).all():
            return False
    g = np.array(gens)
    rows = mul[g]  # (i, x) -> gi*x
    # gi*(x+gj) == gi*x + gi*gj
    if not (rows[:, add[:, g]] == add[rows[:, :, None], rows[:, None, g]]).all():
        return False
    prod = rows[:, g]  # (i, j) -> gi*gj
    return bool((mul[prod[:, :, None], g] == mul[g[:, None, None], prod]).all())


def _symmetric(table: np.ndarray) -> bool:
    return bool((table == table.T).all())


def check_enumerable(ring: FiniteRing, what: str) -> None:
    """Refuse to enumerate ``what`` over a ring past ENUMERATION_CAP, before
    anything of size n^2 is allocated; the cap is read at call time."""
    if ring.order > ENUMERATION_CAP:
        raise OrderTooLarge(f"{what} capped at order {ENUMERATION_CAP}, got {ring.order}")


# ---------------------------------------------------------------------------
# element-level structure


def unit_elements(ring: FiniteRing) -> tuple[int, ...]:
    """Units in ascending index order."""
    return tuple((ring.inv >= 0).nonzero()[0].tolist())


def zero_divisor_count(ring: FiniteRing) -> int:
    """Number of non-units, zero included (order minus units)."""
    return int(np.count_nonzero(ring.inv < 0))


def jacobson_radical(ring: FiniteRing) -> frozenset[int]:
    """{x : 1 - r*x is a unit for every r}, verified to be a two-sided ideal."""
    if "radical" not in ring._cache:
        add, mul = ring.add, ring.mul
        one_minus = add[ring.one, ring.neg[mul]]  # (r, x) -> 1 - r*x
        inside = (ring.inv[one_minus] >= 0).all(axis=0)
        members = inside.nonzero()[0]
        # ideal axioms must hold; failure means corrupt tables
        if not (inside[mul[:, members]].all() and inside[mul[members]].all()):
            raise AssertionError("radical is not a two-sided ideal")
        if not inside[add[members[:, None], members]].all():
            raise AssertionError("radical is not additively closed")
        ring._cache["radical"] = frozenset(members.tolist())
    return ring._cache["radical"]


def _radical_cosets(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """The least member of each coset of J, ascending, and each element's
    coset, numbered by the rank of its least member (coset 0 is J)."""
    label = ring.add[:, list(jacobson_radical(ring))].min(axis=1)  # x -> least of x + J
    rep = label == np.arange(ring.order)  # a coset's label is its least member
    return rep.nonzero()[0], (rep.cumsum() - 1)[label]


def semisimple_blocks(ring: FiniteRing) -> tuple[tuple[int, int], ...]:
    """(q, k) for each block M_k(GF(q)) of R/J(R), in ascending order.

    Each coset of J is labelled by its least member, which gives R/J's
    multiplication table (:func:`_radical_cosets`). The blocks are e*(R/J)
    for the primitive central idempotents e, the minimal nonzero ones under
    f <= e iff f*e = f. A block is simple, so its centre e*Z(R/J) is a field
    GF(q) with identity e, and the block has q^(k^2) elements. Raises
    AssertionError when a block is not such a full matrix ring.
    """
    if "blocks" not in ring._cache:
        reps, coset = _radical_cosets(ring)
        mul = coset[ring.mul[reps[:, None], reps]]
        centre = (mul == mul.T).all(axis=1).nonzero()[0]
        idem = centre[(mul[centre, centre] == centre) & (centre != 0)]
        below = mul[idem[:, None], idem] == idem[:, None]  # [f, e]: f <= e
        blocks = []
        for e in idem[below.sum(axis=0) == 1]:
            field = np.bincount(mul[e, centre]).nonzero()[0][1:]  # e*Z less 0
            q, size = len(field) + 1, np.count_nonzero(np.bincount(mul[e]))
            k = math.isqrt(round(math.log(size, q)))
            if q ** (k * k) != size or not (mul[field[:, None], field] == e).any(axis=1).all():
                raise AssertionError("block of R/J is not a full matrix ring")
            blocks.append((q, k))
        ring._cache["blocks"] = tuple(sorted(blocks))
    return ring._cache["blocks"]


def _left_ideals(add: np.ndarray, neg: np.ndarray, mul: np.ndarray) -> set[frozenset[int]]:
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
    sub = add[:, neg]  # (y, c) -> y - c
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
    return {frozenset(np.frombuffer(k, dtype=bool).nonzero()[0].tolist()) for k in ideals}


def ideal_lattice(ring: FiniteRing, side: str = "two_sided") -> list[frozenset[int]]:
    """All ideals of the given side, {0} and the whole ring included.

    Left ideals come from :func:`_left_ideals`; right ideals are the left
    ideals of the opposite ring, whose multiplication table is ``mul.T``; and
    two-sided ideals are the sets that are both left and right ideals.
    """
    if side not in ("left", "right", "two_sided"):
        raise ValueError(f"unknown side {side!r}; expected left, right or two_sided")
    check_enumerable(ring, "ideal enumeration")
    key = ("ideals", side)
    if key not in ring._cache:
        if side == "two_sided":
            ideals = set(ideal_lattice(ring, "left")).intersection(ideal_lattice(ring, "right"))
        else:
            ideals = _left_ideals(ring.add, ring.neg, ring.mul if side == "left" else ring.mul.T)
        ring._cache[key] = sorted(ideals, key=lambda s: (len(s), sorted(s)))
    return ring._cache[key]


def maximal_ideal_count(ring: FiniteRing, side: str = "two_sided") -> int:
    """Number of maximal proper ideals of the side, read off the blocks
    M_k(GF(q)) of R/J (:func:`semisimple_blocks`) without enumerating any.

    Every maximal ideal contains J; one of a product is a maximal ideal of one
    factor times the others. M_k(GF(q)) is simple and has (q^k - 1)/(q - 1)
    maximal left ideals (lines of GF(q)^k) and as many right ones
    (hyperplanes), so the left and right counts are always equal.
    """
    if side not in ("left", "right", "two_sided"):
        raise ValueError(f"unknown side {side!r}; expected left, right or two_sided")
    blocks = semisimple_blocks(ring)
    if side == "two_sided":
        return len(blocks)
    return sum((q**k - 1) // (q - 1) for q, k in blocks)


def characteristic(ring: FiniteRing) -> int:
    """Additive order of 1."""
    add, one = ring.add, ring.one
    x, k = one, 1
    while x != 0:
        x = int(add[x, one])
        k += 1
    return k


def is_commutative(ring: FiniteRing) -> bool:
    """Whether ``mul`` is symmetric, compared once and kept in the ring's cache."""
    if "commutative" not in ring._cache:
        ring._cache["commutative"] = _symmetric(ring.mul)
    return ring._cache["commutative"]


def fingerprint(ring: FiniteRing) -> RingFingerprint:
    """Deterministic aggregation of the invariants above."""
    return RingFingerprint(
        order=ring.order,
        unit_count=int(np.count_nonzero(ring.inv >= 0)),
        zero_divisor_count=zero_divisor_count(ring),
        characteristic=characteristic(ring),
        radical_size=len(jacobson_radical(ring)),
        maximal_left_ideal_count=maximal_ideal_count(ring, "left"),
        maximal_right_ideal_count=maximal_ideal_count(ring, "right"),
        maximal_two_sided_ideal_count=maximal_ideal_count(ring, "two_sided"),
        commutative=is_commutative(ring),
    )
