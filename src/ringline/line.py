"""The projective line over a finite ring with unity.

Points are left unit-orbit classes of admissible pairs, the rows of
invertible 2x2 matrices; two points are distant when representatives stack
to an invertible matrix. A pair is admissible iff unimodular, aR + bR = R:
an inverse's first column solves a*x + b*z = 1, and finite rings have stable
rank 1. Two routes check each other. One n x n product of principal right
ideals finds the unimodular pairs, and for each point a search for t with
a + b*t a unit shows that it completes; that t gives the change of basis
which reads distance off one unit test (_distant); unit tests read ``inv``.
Orbit representatives suffice because multiplying one row of a 2x2 matrix on
the left by a unit (or both coordinates of a pair on the right by the same
unit) preserves invertibility. Every class has |U| members, so all members
are the rows of one read-only (points x |U|) array of pair codes a*n+b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteRing, check_enumerable, unit_elements
from .errors import RightLineBreakdown

Pair = tuple[int, int]


@dataclass(frozen=True, eq=False)
class Point:
    """A unit-orbit class of admissible pairs with its least representative.

    ``members`` is the point's row of the line's one read-only (points x
    |U|) array of pair codes a*n+b, ascending, so ``rep`` is its first code.
    """

    rep: Pair
    members: np.ndarray


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
    the units u; the label is the running minimum of their images.
    """
    n = ring.order
    labels = np.arange(n * n)
    for u in unit_elements(ring):
        image = ring.mul[u] if side == "left" else ring.mul[:, u]  # x -> image of x
        np.minimum(labels, (image[:, None] * n + image[None, :]).ravel(), out=labels)
    return labels


def _admissible(ring: FiniteRing) -> np.ndarray:
    """Mask over pair codes a*n+b: 1 in aR + bR; computed once per ring."""
    if "admissible" not in ring._cache:
        principal = np.zeros_like(ring.mul, np.float32)  # [a, x]: x in aR
        np.put_along_axis(principal, ring.mul, 1, axis=1)
        one_minus = principal[:, ring.add[ring.one, ring.neg]]  # [b, x]: 1 - x in bR
        ring._cache["admissible"] = (principal @ one_minus.T > 0).ravel()
    return ring._cache["admissible"]


def _distant(ring: FiniteRing, codes: np.ndarray) -> np.ndarray:
    """adj[i, j]: rows codes[i] over codes[j] stack to an invertible matrix.

    For p = (a, b), stable rank 1 gives a t with u = a + b*t a unit. Then
    N_p = [[1,0],[t,1]] * [[u^-1, -u^-1*b],[0,1]] is invertible, p * N_p =
    (1, 0), and its second column is (x, z) = (-u^-1*b, 1 - t*u^-1*b). So
    [[a,b],[c,d]] * N_p = [[1,0],[*, c*x + d*z]], invertible iff c*x + d*z
    is a unit. Raises when some unimodular row has no such t, which would
    break the stable-rank step.
    """
    add, mul, neg, inv, one = ring.add, ring.mul, ring.neg, ring.inv, ring.one
    a, b = np.divmod(codes, ring.order)
    completes = inv[add[a[:, None], mul[b]]] >= 0  # [i, t]: a + b*t is a unit
    if not completes.any(axis=1).all():
        raise AssertionError("unimodular pair with no completion")
    t = completes.argmax(axis=1)
    x = neg[mul[inv[add[a, mul[b, t]]], b]]  # -u^-1*b
    z = add[one, mul[t, x]]
    # [i, j]: (c, d) = codes[j] against (x, z) of p = codes[i]
    return inv[add[mul[a[None, :], x[:, None]], mul[b[None, :], z[:, None]]]] >= 0


def build_line(ring: FiniteRing, side: str = "left") -> ProjectiveLine:
    """Enumerate admissible pairs, partition into unit orbits of the chosen
    side, compute the distant adjacency between class representatives.

    For side="right", aborts with RightLineBreakdown when the admissible
    classes do not all have |units| members.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    check_enumerable(ring, "line construction")
    n = ring.order
    admissible = _admissible(ring)
    labels = orbit_labels(ring, side)
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
    by_point.flags.writeable = False
    # every class has |U| members, so the classes are rows of one array
    rows = by_point.reshape(-1, nunits)
    points = tuple(
        Point(rep=divmod(code, n), members=row) for code, row in zip(point_codes.tolist(), rows)
    )
    adjacency = _distant(ring, point_codes)
    if not (adjacency == adjacency.T).all() or adjacency.diagonal().any():
        raise AssertionError("distant relation not symmetric and irreflexive")
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
    (a, b), inv = line.points[i].rep, line.ring.inv
    return "TypeI" if inv[a] >= 0 or inv[b] >= 0 else "TypeII"
