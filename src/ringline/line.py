"""The projective line over a finite ring with unity.

Points are unit-orbit classes of admissible coordinate pairs; two points are
distant when representatives stack to an invertible 2x2 matrix. Everything
reduces to invertibility tests between orbit representatives, which is sound
because multiplying one row of a 2x2 matrix on the left by a unit (or both
coordinates of a pair on the right by the same unit) preserves invertibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clique import adjacency_masks
from .core import FiniteRing, unit_elements
from .errors import OrderTooLarge, RightLineBreakdown

LINE_ORDER_CAP = 32

Pair = tuple[int, int]
Mat2 = tuple[Pair, Pair]


def _mat_mul2(ring: FiniteRing, x: Mat2, y: Mat2) -> Mat2:
    add, mul = ring.add, ring.mul
    (x11, x12), (x21, x22) = x
    (y11, y12), (y21, y22) = y
    return (
        (int(add[mul[x11, y11], mul[x12, y21]]), int(add[mul[x11, y12], mul[x12, y22]])),
        (int(add[mul[x21, y11], mul[x22, y21]]), int(add[mul[x21, y12], mul[x22, y22]])),
    )


def is_invertible_2x2(ring: FiniteRing, matrix: Mat2) -> bool:
    """True iff the matrix has a two-sided inverse over the ring.

    Solves M*X = I column by column over all |R|^2 candidate columns, then
    verifies X*M = I (automatic in a finite ring, kept as corruption
    insurance).
    """
    (a, b), (c, d) = matrix
    add, mul, one, n = ring.add, ring.mul, ring.one, ring.order
    fab = add[np.ix_(mul[a], mul[b])]  # (x, z) -> a*x + b*z
    fcd = add[np.ix_(mul[c], mul[d])]
    col1 = (fab == one) & (fcd == 0)
    if not col1.any():
        return False
    col2 = (fab == 0) & (fcd == one)
    if not col2.any():
        return False
    x1, z1 = np.unravel_index(int(np.argmax(col1)), (n, n))
    x2, z2 = np.unravel_index(int(np.argmax(col2)), (n, n))
    x = ((int(x1), int(x2)), (int(z1), int(z2)))
    assert _mat_mul2(ring, x, matrix) == ((one, 0), (0, one)), "one-sided inverse only"
    return True


def is_admissible(ring: FiniteRing, pair: Pair) -> bool:
    """True iff some second row completes the pair to an invertible matrix.

    Plain search over all |R|^2 completions with early exit; kept free of the
    orbit shortcuts used by build_line so the two routes can check each other.
    """
    a, b = int(pair[0]), int(pair[1])
    n = ring.order
    for c in range(n):
        for d in range(n):
            if is_invertible_2x2(ring, ((a, b), (c, d))):
                return True
    return False


@dataclass(frozen=True)
class Point:
    """A unit-orbit class of admissible pairs with its least representative."""

    rep: Pair
    members: frozenset[Pair]
    side: str

    def __post_init__(self):
        assert self.rep in self.members


@dataclass(frozen=True, eq=False)
class ProjectiveLine:
    ring: FiniteRing
    side: str
    points: tuple[Point, ...]
    adjacency: np.ndarray  # symmetric bool matrix, False diagonal

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def distant_masks(self) -> tuple[int, ...]:
        """Per point, the bitmask of the points distant from it (built once)."""
        return tuple(adjacency_masks(self.adjacency))

    def __repr__(self) -> str:
        return (
            f"ProjectiveLine(ring={self.ring.name!r}, side={self.side!r}, "
            f"points={len(self.points)})"
        )


class _RepSolver:
    """Invertibility between representative rows with per-row cached masks."""

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self._masks: dict[Pair, tuple[np.ndarray, np.ndarray]] = {}
        self._verdicts: dict[tuple[Pair, Pair], bool] = {}

    def _mask(self, row: Pair) -> tuple[np.ndarray, np.ndarray]:
        got = self._masks.get(row)
        if got is None:
            ring = self.ring
            a, b = row
            f = ring.add[np.ix_(ring.mul[a], ring.mul[b])]
            got = ((f == ring.one).ravel(), (f == 0).ravel())
            self._masks[row] = got
        return got

    def invertible(self, row1: Pair, row2: Pair) -> bool:
        key = (row1, row2) if row1 <= row2 else (row2, row1)
        verdict = self._verdicts.get(key)
        if verdict is None:
            one1, zero1 = self._mask(row1)
            one2, zero2 = self._mask(row2)
            col1 = one1 & zero2
            verdict = bool(col1.any())
            if verdict:
                col2 = zero1 & one2
                verdict = bool(col2.any())
                if verdict:
                    ring = self.ring
                    n = ring.order
                    x1, z1 = divmod(int(np.argmax(col1)), n)
                    x2, z2 = divmod(int(np.argmax(col2)), n)
                    x = ((x1, x2), (z1, z2))
                    m = (row1, row2)
                    assert _mat_mul2(ring, x, m) == (
                        (ring.one, 0),
                        (0, ring.one),
                    ), "one-sided inverse only"
            self._verdicts[key] = verdict
        return verdict


def _unit_orbits(ring: FiniteRing, side: str) -> list[frozenset[Pair]]:
    """Partition all coordinate pairs into unit orbits on the chosen side."""
    n = ring.order
    mul = ring.mul
    us = unit_elements(ring)
    seen = bytearray(n * n)
    orbits = []
    for code in range(n * n):
        if seen[code]:
            continue
        a, b = divmod(code, n)
        if side == "left":
            orbit = frozenset((int(mul[u, a]), int(mul[u, b])) for u in us)
        else:
            orbit = frozenset((int(mul[a, u]), int(mul[b, u])) for u in us)
        for x, y in orbit:
            seen[x * n + y] = 1
        orbits.append(orbit)
    return orbits


def _admissible_pairs(ring: FiniteRing, solver: _RepSolver) -> set[Pair]:
    """All admissible pairs, by completion search between left-orbit reps.

    Restricting completions to left-orbit representatives is exact: if (c,d)
    completes (a,b) then so does the rep (rc, rd) of its left orbit, since
    [[a,b],[rc,rd]] = diag(1,r) * [[a,b],[c,d]].
    """
    unit_set = set(unit_elements(ring))
    orbits = _unit_orbits(ring, "left")
    reps = [min(o) for o in orbits]
    m = len(orbits)
    # a pair with a unit coordinate is admissible: complete with (0,1) or (1,0)
    status: list[bool | None] = [
        True if (a in unit_set or b in unit_set) else None for a, b in reps
    ]
    for i in range(m):
        if status[i] is not None:
            continue
        verdict = False
        for j in range(m):
            if j != i and solver.invertible(reps[i], reps[j]):
                verdict = True
                status[j] = True  # both rows of an invertible matrix are admissible
                break
        status[i] = verdict
    admissible: set[Pair] = set()
    for i in range(m):
        if status[i]:
            admissible |= orbits[i]
    return admissible


def build_line(ring: FiniteRing, side: str = "left") -> ProjectiveLine:
    """Enumerate admissible pairs, partition into unit orbits of the chosen
    side, compute the distant adjacency between class representatives.

    For side="right", aborts with RightLineBreakdown when the admissible
    classes do not all have |units| members.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if ring.order > LINE_ORDER_CAP:
        raise OrderTooLarge(
            f"line construction capped at order {LINE_ORDER_CAP}, got {ring.order}"
        )
    solver = _RepSolver(ring)
    admissible = _admissible_pairs(ring, solver)
    if side == "left":
        orbits = [o for o in _unit_orbits(ring, "left") if min(o) in admissible]
    else:
        orbits = []
        for orbit in _unit_orbits(ring, "right"):
            inside = orbit & admissible
            # admissibility is right-orbit invariant ((ar, br) completes with
            # (cr, dr) via M * diag(r, r)), so orbits never straddle the set
            assert not inside or inside == orbit, "admissibility not orbit-invariant"
            if inside:
                orbits.append(orbit)

    nunits = len(unit_elements(ring))
    sizes = [len(o) for o in orbits]
    if side == "left":
        assert all(s == nunits for s in sizes), "left class-size law violated"
    elif any(s != nunits for s in sizes):
        histogram: dict[int, int] = {}
        for s in sizes:
            histogram[s] = histogram.get(s, 0) + 1
        raise RightLineBreakdown(ring.name, histogram)

    points = tuple(
        Point(rep=min(o), members=o, side=side)
        for o in sorted(orbits, key=min)
    )
    tot = len(points)
    adjacency = np.zeros((tot, tot), dtype=bool)
    for i in range(tot):
        for j in range(i + 1, tot):
            if solver.invertible(points[i].rep, points[j].rep):
                adjacency[i, j] = adjacency[j, i] = True
    adjacency.flags.writeable = False
    return ProjectiveLine(ring=ring, side=side, points=points, adjacency=adjacency)


def distant(line: ProjectiveLine, i: int, j: int) -> bool:
    """Whether two distinct points are distant."""
    if i == j:
        raise ValueError("distant is defined on pairs of distinct points")
    return bool(line.adjacency[i, j])


def point_type(line: ProjectiveLine, i: int) -> str:
    """'TypeI' when a representative coordinate is a unit, else 'TypeII'.

    Class-invariant: unit multiples of units are units.
    """
    a, b = line.points[i].rep
    ring = line.ring
    return "TypeI" if (ring.is_unit(a) or ring.is_unit(b)) else "TypeII"
