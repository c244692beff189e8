"""The projective line over a finite ring with unity.

Points are left unit-orbit classes of admissible pairs, the rows of
invertible 2x2 matrices; two points are distant when representatives stack
to an invertible matrix. A pair is admissible iff unimodular, aR + bR = R:
an inverse's first column solves a*x + b*z = 1, and finite rings have stable
rank 1. So one n x n product of principal right ideals finds the points, and
one matrix product between them gives invertibility (_invertible) and checks
the stable-rank step: each point must have a distant partner. Orbit
representatives suffice because multiplying one row of a 2x2 matrix on the
left by a unit (or both coordinates of a pair on the right by the same unit)
preserves invertibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteRing, unit_elements
from .errors import OrderTooLarge, RightLineBreakdown

LINE_ORDER_CAP = 32

Pair = tuple[int, int]


@dataclass(frozen=True)
class Point:
    """A unit-orbit class of admissible pairs with its least representative."""

    rep: Pair
    members: frozenset[Pair]


@dataclass(frozen=True, eq=False)
class ProjectiveLine:
    ring: FiniteRing
    side: str
    points: tuple[Point, ...]
    adjacency: np.ndarray  # symmetric bool matrix, False diagonal

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return (
            f"ProjectiveLine(ring={self.ring.name!r}, side={self.side!r}, "
            f"points={len(self.points)})"
        )


def orbit_labels(ring: FiniteRing, side: str) -> np.ndarray:
    """For each pair code a*n+b, the least code in its unit orbit on the side.

    The left orbit of (a, b) is {(ua, ub)}, the right orbit {(au, bu)}, over
    the units u; the label is the minimum over a (units x n^2) image array.
    """
    n = ring.order
    us = np.array(unit_elements(ring))
    images = ring.mul[us] if side == "left" else ring.mul[:, us].T  # (u, x) -> image of x
    codes = images[:, :, None] * n + images[:, None, :]
    return codes.reshape(len(us), n * n).min(axis=0)


def _invertible(ring: FiniteRing, codes: np.ndarray) -> np.ndarray:
    """inv[i, j]: rows codes[i] over codes[j] stack to an invertible matrix.

    Row (a, b) sends the column (x, z) to a*x + b*z. The matrix has a right
    inverse iff some column goes to (1, 0) and another to (0, 1), and a right
    inverse is two-sided because M2(R) is finite. The column counts come
    from a float32 matrix product, exact since no count exceeds n^2. Run on
    the unimodular rows only; inv.any(axis=1) confirms that each completes.
    """
    n = ring.order
    a, b = np.divmod(codes, n)
    f = ring.add[ring.mul[a][:, :, None], ring.mul[b][:, None, :]].reshape(len(codes), n * n)
    ones = (f == ring.one).astype(np.float32)
    zeros = (f == 0).astype(np.float32)
    first = ones @ zeros.T > 0  # [i, j]: some column goes to (1, 0)
    return first & first.T


def _left_orbits(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(labels, admissible, reps, inv): the left orbit labels of all pairs,
    the admissible mask over pair codes, the left points (sorted labels of
    admissible pairs) and _invertible over them; computed once per ring."""
    if "left_orbits" not in ring._cache:
        principal = np.zeros_like(ring.mul, np.float32)  # [a, x]: x in aR
        np.put_along_axis(principal, ring.mul, 1, axis=1)
        one_minus = principal[:, ring.add[ring.one, ring.neg]]  # [b, x]: 1 - x in bR
        admissible = (principal @ one_minus.T > 0).ravel()  # [a*n + b]: 1 in aR + bR
        labels = orbit_labels(ring, "left")
        reps = np.unique(labels[admissible])
        inv = _invertible(ring, reps)
        if not inv.any(axis=1).all():
            raise AssertionError("unimodular pair with no completion")
        ring._cache["left_orbits"] = (labels, admissible, reps, inv)
    return ring._cache["left_orbits"]


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
    n = ring.order
    left, admissible, reps, inv = _left_orbits(ring)
    labels = left if side == "left" else orbit_labels(ring, "right")
    # admissibility is right-orbit invariant ((ar, br) completes with
    # (cr, dr) via M * diag(r, r)), so orbits never straddle the set
    if not (admissible[labels] == admissible).all():
        raise AssertionError("admissibility not orbit-invariant")
    members = np.flatnonzero(admissible)
    point_codes, sizes = np.unique(labels[members], return_counts=True)

    nunits = len(unit_elements(ring))
    if (sizes != nunits).any():
        if side == "left":  # (ua, ub) = (a, b) with a*x + b*z = 1 forces u = 1
            raise AssertionError("left class-size law violated")
        size_values, class_counts = np.unique(sizes, return_counts=True)
        raise RightLineBreakdown(
            ring.name, dict(zip(size_values.tolist(), class_counts.tolist()))
        )

    by_point = members[np.argsort(labels[members], kind="stable")]
    groups = np.split(by_point, np.cumsum(sizes)[:-1])
    points = tuple(
        Point(rep=divmod(int(code), n), members=frozenset(divmod(int(c), n) for c in group))
        for code, group in zip(point_codes, groups)
    )
    # scaling a row on the left by a unit preserves invertibility, so each
    # point is tested through the representative of its rep's left orbit
    at = np.searchsorted(reps, left[point_codes])
    adjacency = inv[np.ix_(at, at)]
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
