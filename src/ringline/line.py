"""The projective line over a finite ring with unity.

Points are left unit-orbit classes of admissible pairs, the rows of
invertible 2x2 matrices; two points are distant when representatives stack
to an invertible matrix. A pair is admissible iff unimodular, aR + bR = R:
an inverse's first column solves a*x + b*z = 1, and finite rings have stable
rank 1. Two routes check each other. One n x n product of principal right
ideals finds the unimodular pairs, and for each point a search for t with
a + b*t a unit shows that it completes; that t gives the change of basis
which reads distance off one unit test (_distant). Both tests are of a sum,
so _distant reads them off one unit-sum table, (inv >= 0)[add], whose cell
[s, t] says whether s + t is a unit: the distance test is one flat gather
of it over all pairs of points.
Orbit representatives suffice because multiplying one row of a 2x2 matrix on
the left by a unit (or both coordinates of a pair on the right by the same
unit) preserves invertibility. Every class has |U| members, so all members
are the rows of one read-only (points x |U|) array of pair codes a*n+b.

A line is arrays: each point's least code, the member rows and the distant
adjacency, all read-only. build_line makes one record per ring and side,
those arrays and a dict of values derived from them (the twin classes and
signature of ringline.stats, the right line's ``held``), and keeps it in
the ring's cache as ``ring._cache["line", side]``. The record holds arrays
and values, never a line, so no ring -> line -> ring cycle forms and a
ring is freed by reference counting. On a commutative ring (ua, ub) =
(au, bu), so the right line is a line over the left record. Point objects
are made only when a caller reads ``points``.

The right line reads its distant relation off the left line. Row scaling
by units preserves invertibility: [[ua, ub], [vc, vd]] = diag(u, v) *
[[a, b], [c, d]]. So whether two admissible pairs are distant depends only
on their left classes, and the right adjacency is the left adjacency
gathered at ``held``, the left points that hold the right representatives.
_distant thus runs once per ring, and building a right line builds the
left line too.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import FiniteRing, check_enumerable, is_commutative
from .errors import RightLineBreakdown

Pair = tuple[int, int]
# cells of one block of orbit_labels' (units x n^2) images
LABEL_BLOCK_CELLS = 1 << 16


def _read_only(self, name: str, *value) -> None:
    raise AttributeError(f"cannot assign to or delete field {name!r} of a {type(self).__name__}")


class Point:
    """A unit-orbit class of admissible pairs with its least representative.

    ``members`` is the point's row of the line's ``rows``, ascending, so
    ``rep`` is its first code. Points compare by identity and are read-only.
    """

    __setattr__ = __delattr__ = _read_only

    def __init__(self, rep: Pair, members: np.ndarray):
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "members", members)

    def __repr__(self) -> str:
        return f"Point(rep={self.rep!r}, members={self.members!r})"


class ProjectiveLine:
    """The line of one side over a ring, as read-only arrays over its points.

    ``codes`` holds each point's least pair code a*n+b, ascending; ``rows``
    the (points x |U|) array of its members' codes; ``adjacency`` the
    symmetric distant relation, with a False diagonal. ``derived`` keeps
    values computed from those arrays (ringline.stats memoizes on it): a
    line from build_line shares its record's dict, and a line built by hand
    starts with an empty one of its own. Lines compare by identity, and
    their fields cannot be assigned.
    """

    __setattr__ = __delattr__ = _read_only

    def __init__(self, ring: FiniteRing, side: str, codes: np.ndarray, rows: np.ndarray,
                 adjacency: np.ndarray):
        names = ("ring", "side", "codes", "rows", "adjacency", "derived")
        for name, value in zip(names, (ring, side, codes, rows, adjacency, {})):
            object.__setattr__(self, name, value)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        n = self.ring.order
        pairs = (divmod(code, n) for code in self.codes.tolist())
        return tuple(Point(rep=rep, members=row) for rep, row in zip(pairs, self.rows))

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:
        return (
            f"ProjectiveLine(ring={self.ring.name!r}, side={self.side!r}, "
            f"points={len(self)})"
        )


def orbit_labels(ring: FiniteRing, side: str) -> np.ndarray:
    """For each pair code a*n+b, the least code in its unit orbit on the side.

    The left orbit of (a, b) is {(ua, ub)}, the right orbit {(au, bu)}, over
    the units u; the label is the running minimum of their images, taken
    over blocks of units whose (units x n^2) images hold at most
    LABEL_BLOCK_CELLS cells.
    """
    n, units = ring.order, (ring.inv >= 0).nonzero()[0]
    labels = np.arange(n * n)
    step = max(1, LABEL_BLOCK_CELLS // (n * n))
    for lo in range(0, len(units), step):
        us = units[lo : lo + step]
        images = (ring.mul if side == "left" else ring.mul.T).take(us, axis=0)  # [u, x]: image of x
        block = (images[:, :, None] * n + images[:, None, :]).reshape(len(us), -1)
        # a one-unit block (each block past order 181) is its own minimum
        np.minimum(labels, block[0] if len(us) == 1 else block.min(axis=0), out=labels)
        del block  # so the next block is not made beside it
    return labels


def _admissible(ring: FiniteRing) -> np.ndarray:
    """Mask over pair codes a*n+b: 1 in aR + bR; computed once per ring.

    The product is over booleans, which numpy computes itself, exactly and
    without BLAS.
    """
    if "admissible" not in ring._cache:
        principal = np.zeros(ring.mul.shape, bool)  # [a, x]: x in aR
        principal[np.arange(ring.order)[:, None], ring.mul] = True
        one_minus = principal.take(ring.add[ring.one, ring.neg], axis=1)  # [b, x]: 1 - x in bR
        ring._cache["admissible"] = (principal @ one_minus.T).ravel()
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
    n, add, mul, neg, inv, one = ring.order, ring.add, ring.mul, ring.neg, ring.inv, ring.one
    unit_sum = (inv >= 0)[add]  # [s, t]: s + t is a unit
    a, b = np.divmod(codes, n)
    completes = unit_sum.ravel().take(mul.take(b, 0) + (a * n)[:, None])  # [i, t]: a + b*t a unit
    if not completes.any(axis=1).all():
        raise AssertionError("unimodular pair with no completion")
    t = completes.argmax(axis=1)
    x = neg[mul[inv[add[a, mul[b, t]]], b]]  # -u^-1*b
    z = add[one, mul[t, x]]
    # [j, i]: c*x + d*z is a unit, for (c, d) = codes[j] and (x, z) of p = codes[i], so
    # codes[i] over codes[j] is invertible, as is codes[j] over codes[i] (swap the rows); the
    # flat index (c*x)*n + d*z is built in place, as one more (points x points) int64 temporary
    # would pass malloc's mmap threshold and fault its pages in on every line built
    cell = mul.take(x, axis=1).take(a, axis=0)
    cell *= n
    cell += mul.take(z, axis=1).take(b, axis=0)
    return unit_sum.ravel().take(cell)


def build_line(ring: FiniteRing, side: str = "left") -> ProjectiveLine:
    """The line of the side: its record is built on the first call for the
    ring and side (see _line_record) and read from the ring's cache after.

    For side="right", aborts with RightLineBreakdown when the admissible
    classes do not all have |units| members. A right line over a
    non-commutative ring reads its adjacency off the left line, so the first
    right line built over a ring builds and keeps the left line's record too.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    check_enumerable(ring, "line construction")
    *arrays, derived = _record(ring, "left" if side == "left" or is_commutative(ring) else "right")
    line = ProjectiveLine(ring, side, *arrays)
    object.__setattr__(line, "derived", derived)  # the record's own dict, not a fresh one
    return line


def _record(ring: FiniteRing, side: str) -> tuple:
    if ("line", side) not in ring._cache:
        ring._cache["line", side] = _line_record(ring, side)
    return ring._cache["line", side]


def _line_record(ring: FiniteRing, side: str) -> tuple:
    """The side's record (see the module docstring): enumerate admissible
    pairs, partition into unit orbits of the chosen side, compute the
    distant adjacency between class representatives (on the right side,
    gather it from the left line at ``held``)."""
    admissible = _admissible(ring)
    labels = orbit_labels(ring, side)
    # admissibility is right-orbit invariant ((ar, br) completes with
    # (cr, dr) via M * diag(r, r)), so orbits never straddle the set
    if not (admissible[labels] == admissible).all():
        raise AssertionError("admissibility not orbit-invariant")
    members = admissible.nonzero()[0]
    # one stable sort groups the classes, each row ascending from its label
    member_labels = labels[members]
    order = member_labels.argsort(kind="stable")
    sorted_labels = member_labels[order]

    # every class has |U| members iff the sorted labels fold into rows of |U|,
    # each of one label (its first equals its last) and each after the last
    nunits = int(np.count_nonzero(ring.inv >= 0))
    grid = sorted_labels.reshape(-1, nunits) if len(members) % nunits == 0 else None
    if grid is None or not (
        (grid[:, 0] == grid[:, -1]).all() and (grid[1:, 0] != grid[:-1, -1]).all()
    ):
        if side == "left":  # (ua, ub) = (a, b) with a*x + b*z = 1 forces u = 1
            raise AssertionError("left class-size law violated")
        sizes = np.unique(sorted_labels, return_counts=True)[1]
        size_values, class_counts = np.unique(sizes, return_counts=True)
        raise RightLineBreakdown(
            ring.name, dict(zip(size_values.tolist(), class_counts.tolist()))
        )

    # the classes are the rows of one array
    codes, rows = grid[:, 0].copy(), members[order.reshape(-1, nunits)]
    derived = {}
    if side == "right":
        left = _record(ring, "left")
        point_of = np.full(ring.order**2, -1)
        point_of[left[1]] = np.arange(len(left[1]))[:, None]
        held = derived["held"] = point_of[codes]
        if (held < 0).any():
            raise AssertionError("admissible pair in no left point")
        adjacency = left[2].take(held, axis=0).take(held, axis=1)
    else:
        adjacency = _distant(ring, codes)
        if not (adjacency == adjacency.T).all() or adjacency.diagonal().any():
            raise AssertionError("distant relation not symmetric and irreflexive")
    for array in (codes, rows, adjacency, *derived.values()):
        array.flags.writeable = False
    return codes, rows, adjacency, derived


def type_one(ring: FiniteRing, codes: np.ndarray) -> np.ndarray:
    """For each pair code a*n+b, whether a or b is a unit: the point of that
    representative is of Type I. Class-invariant: unit multiples of units
    are units."""
    a, b = divmod(codes, ring.order)
    return (ring.inv[a] >= 0) | (ring.inv[b] >= 0)


def point_type(line: ProjectiveLine, i: int) -> str:
    """'TypeI' when a representative coordinate is a unit, else 'TypeII'."""
    return "TypeI" if type_one(line.ring, int(line.codes[i])) else "TypeII"
