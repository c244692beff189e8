"""Classification statistics of a projective ring line.

The signature collects, for one line: the point total, the Type I count,
neighbourhood cardinality, the sizes of neighbourhood intersections over
distant pairs and pairwise-distant triples, the maximum number of mutually
distant points, and a family of candidate "Jacobson point" statistics (the
literature's definition is not pinned down here, so candidates are reported
side by side and never asserted).

1N counts, in each row of ``line.adjacency``, the other points not distant.
cap2N and cap3N read the twin classes, the points with equal distant
rows (on a ring line, the fibres of P(R) -> P(R/J)), grouped from the
adjacency alone, so 1N, cap2N and cap3N hold on any symmetric irreflexive
graph; a line's classes are grouped once and kept, read-only, in its
``derived`` dict. They are grouped on the near rows (``~adjacency``)
packed 64 points a word, by one stable lexsort of the words, and those of
their first points are kept as one column of words per class. Twins are
never distant, so the common neighbourhood of distant points depends only
on their classes: its size is the popcount of the AND of their first
points' columns, and a class pair or triple stands for the product of its
class sizes in point pairs or triples.
The pass gathers columns in blocks of BLOCK_CELLS cells, so memory stays
bounded when every class is one point. A triple over a class pair with no
point near both has count 0, so such triples are counted, not gathered (on
a field, all of them).

MD is the greedy clique of the line's adjacency (ringline.clique), certified
against the bound min(q^k + 1) over the blocks M_k(GF(q)) of R/J: a greedy
clique of any other size raises AssertionError. On a ring's line within
the enumeration cap every maximal clique has that many points, so the
greedy clique is maximum, and it is the lexicographically least one:
1. Distance is decided mod J, so two points of one fibre of P(R) -> P(R/J)
   are not distant, and a maximal clique maps one to one onto a maximal
   clique of P(R/J): a point distant from every image lifts to a point
   distant from every member.
2. P(R/J) is the product of the lines P(M_k(GF(q))) of its blocks, and two
   points are distant iff they are distant in every factor. So a clique
   projects to a clique of its size in each factor. If in every factor
   each maximal clique is larger, each projection extends by a point, and
   the point with those coordinates extends the clique.
3. P(GF(q)) is complete, so its one maximal clique has q + 1 points.
4. The 56 maximal mutually distant sets of P(M2(GF(2))), its spreads of
   lines in PG(3, 2), all have 5 points.
5. So in a line whose blocks are fields or M2(GF(2)), every maximal clique
   has min(q^k + 1) points.
6. Within ENUMERATION_CAP = 64 no other block occurs: M_k(GF(q)) has
   q^(k^2) elements, 16 for M2(GF(2)) and 81 or more for any other matrix
   block. (Past the cap the greedy clique can stop short: PG(3, 3) has
   maximal partial spreads of 7 lines, below the bound 10.)
Jcb candidate C counts orbits by Burnside's lemma, reading only the units'
rows of the multiplication table. TpI is one gather of ``inv`` at both
coordinates of the points' codes.

Each ring and side is signed once: the signature is kept in the line's
``derived`` dict, which build_line gives every line over one cached
record, so a commutative ring's right line, which is its left line, reads
its left line's signature. A line built by hand has a dict of its own
and is signed from its arrays: its adjacency must be a symmetric boolean
(points x points) array with a False diagonal, else each statistic that
reads it raises ValueError naming the defect; its 1N, cap2N and cap3N are
those of its adjacency, but its MD is still certified against its ring's
R/J bound, so a graph that is not its ring's line can raise
AssertionError.

A right line over a non-commutative ring is signed as the left line's
signature with TpI read off its own codes. Its record's ``held`` gives the
left point of each right point, and a certificate is checked: each twin
class of the left line holds as many of those left points as it has
points. The right adjacency is the left adjacency gathered at them (see
ringline.line), and the left graph is its graph on twin classes with
class c blown up to an independent set of |c| points, joined completely
or not at all. So the right graph is the same class graph with class c
blown up to the number of right points whose left point lies in c; under
the certificate, sending the right points of each class one to one onto
its left points is an isomorphism, and 1N, cap2N, cap3N, MD and Jcb A are
invariants of the graph (B and C read the ring alone). The certificate
holds on every right line that exists, so a failure raises
AssertionError. Proof:
- If R/J has a block M_k(GF(q)) with k >= 2, the right line breaks down.
  Matrix units lift modulo the nil ideal J. Take a = 1 - e22, b = e21 and
  u = 1 + e21: (a, b) is admissible, as a + b*e12 = 1, and (au, bu) =
  (a, b) with u != 1, so its right class has fewer than |U| members.
- Otherwise R/J is a product of fields, and the right line exists. Over
  the commutative R/J an admissible (a, b) is unimodular on both sides,
  so some xa + zb is 1 mod J, hence a unit. Then au = a and bu = b give
  (xa + zb)(u - 1) = 0, so u = 1.
- There the certificate holds. Distance is decided mod J, and each
  P(GF(q)) has at least 3 points, so the left twin classes are exactly
  the fibres of P(R) -> P(R/J). The image of (au, bu) in P(R/J) is
  u(a, b) mod J, the same point as (a, b), so every right class lies in
  one fibre. A fibre c holds |c| * |U| admissible pairs, which right
  classes of |U| pairs split into |c| right points.

GL2(R) preserves distance and is transitive on pairwise-distant triples
(each goes to (1,0), (0,1), (1,1)), hence on distant pairs and on points, so
every neighbourhood column is constant and a False constancy flag can only
mean a defect.

What the Jcb candidates show on the catalog. Candidate A is 0 on every line:
each admissible pair completes to an invertible matrix, so every point has a
distant point. Candidate B, |J| - 1, is also the number of twins of each
point (other points with the same distant row, the fibre of P(R) -> P(R/J)),
and matches the expected Jcb on 7 of the 10 rows, the 16/12 candidate among
them. Of the other three, z3xt2f2 (expects 3) is matched only by candidate
C, and no candidate matches gf4xz4 or gf4xdualf2 (both expect 5).
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType
from typing import Iterable

import numpy as np

from . import clique
from .core import jacobson_radical, radical_members, semisimple_blocks
from .errors import NoDistantPair, UnknownCandidate
from .line import ProjectiveLine, build_line, type_one

JACOBSON_CANDIDATES = ("A", "B", "C")
# the six signature columns, in row order
COLUMNS = ("tot", "tpI", "oneN", "cap2N", "cap3N", "md")
# cells of one block of cap2N and cap3N: bool (pair x class) or (triple x class)
BLOCK_CELLS = 1 << 20


class StatValue(namedtuple("StatValue", "lo hi count")):
    """A per-pair/per-triple statistic with its observed spread.

    ``count`` is the number of pairs or triples examined; a count of zero
    (e.g. no pairwise-distant triple exists) reports value 0 with the
    constancy flag set. When observations vary, ``value`` is the minimum and
    ``constant`` is False; consumers should then look at ``lo``/``hi``.
    """

    __slots__ = ()

    @property
    def value(self) -> int:
        return self.lo

    @property
    def constant(self) -> bool:
        return self.lo == self.hi

    @property
    def vacuous(self) -> bool:
        return self.count == 0

    @classmethod
    def of(cls, values: np.ndarray, multiplicity: np.ndarray | None = None) -> "StatValue":
        """The spread of an array of counts, as plain ints (JSON-safe); with
        ``multiplicity``, entry k stands for multiplicity[k] observations."""
        if not values.size:
            return cls(lo=0, hi=0, count=0)
        count = values.size if multiplicity is None else multiplicity.sum()
        return cls(lo=int(values.min()), hi=int(values.max()), count=int(count))

    @classmethod
    def union(cls, parts: Iterable["StatValue"]) -> "StatValue":
        """The spread of the observations of all the parts."""
        seen = [p for p in parts if not p.vacuous]
        if not seen:
            return cls(lo=0, hi=0, count=0)
        return cls(
            lo=min(p.lo for p in seen), hi=max(p.hi for p in seen), count=sum(p.count for p in seen)
        )

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "constant": self.constant,
            "min": self.lo,
            "max": self.hi,
            "count": self.count,
        }


class LineSignature(namedtuple("LineSignature", "tot tpi one_n cap2n cap3n md jcb")):
    """A line's Table-1 statistics; ``jcb`` maps each Jacobson candidate to its value."""

    __slots__ = ()

    def as_row(self) -> tuple[int, int, int, int, int, int]:
        """The values of COLUMNS, in order."""
        return self.tot, self.tpi, self.one_n.value, self.cap2n.value, self.cap3n.value, self.md

    def stats(self) -> dict[str, StatValue]:
        """The neighbourhood columns by name, with their spread."""
        return {"oneN": self.one_n, "cap2N": self.cap2n, "cap3N": self.cap3n}

    def to_json_dict(self) -> dict:
        stats = self.stats()
        return {
            **dict(zip(COLUMNS, self.as_row())),
            "constancy": {
                **{name: stat.constant for name, stat in stats.items()},
                "noTriple": self.cap3n.vacuous,
            },
            "detail": {name: stat.to_json_dict() for name, stat in stats.items()},
        }


def one_neighbourhood_stat(line: ProjectiveLine) -> StatValue:
    return StatValue.of(len(line) - 1 - _adjacency(line).sum(axis=1))


def _twin_classes(adjacency: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distant graph on twin classes (points with equal distant rows),
    each point's class, each class's size, and the near rows of each class's
    first point packed 64 points a uint64 word, the columns of a C-contiguous
    (words x classes) array, all read-only; classes are numbered in the
    order of their first points.

    Twins are never distant: in an irreflexive graph, twins i, j would have
    adj[i, j] = adj[j, j] = False. Classes are grouped on the near rows
    (``~adjacency``, packed after negating into zeroed whole words, so the
    padding bits are 0), C-contiguous whatever the adjacency's layout, by
    one stable lexsort of the rows' words, the first word the primary key:
    equal rows form a run, and each run starts at its least point.
    """
    packed = np.zeros((len(adjacency), -(-len(adjacency) // 64) * 8), np.uint8)
    packed[:, : -(-len(adjacency) // 8)] = np.packbits(~adjacency, axis=1)
    words = packed.view(np.uint64)  # [point, word]
    perm = np.lexsort(words.T[::-1]) if words.size else np.arange(0)  # 0 points: no key
    ordered = words.take(perm, axis=0)
    new = np.empty(len(perm), bool)  # [i]: sorted row i starts a run
    new[:1] = True
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = perm[new]  # each run's least point
    order = starts.argsort()
    classes = np.empty_like(perm)
    classes[perm] = order.argsort().take(new.cumsum() - 1)  # runs renumbered by first point
    first = starts.take(order)
    near = words.T.take(first, axis=1)  # [word, class]
    twins = (adjacency.take(first, 0).take(first, 1), classes, np.bincount(classes), near)
    for array in twins:
        array.flags.writeable = False
    return twins


def _twins(line: ProjectiveLine) -> tuple[np.ndarray, ...]:
    """_twin_classes of the line, kept in its ``derived`` dict."""
    if "twins" not in line.derived:
        line.derived["twins"] = _twin_classes(_adjacency(line))
    return line.derived["twins"]


def _adjacency(line: ProjectiveLine) -> np.ndarray:
    """The line's adjacency, the one route by which every statistic reads
    it. It is checked first (:func:`_check_adjacency`) unless it is a
    build_line record's (the left one checked when made, the right one
    gathered from it) or its twin classes are kept (grouped after the
    check), so a build_line line is never checked and a line built by hand
    is checked once per signature."""
    adjacency = line.adjacency
    if "twins" not in line.derived:
        records = (line.ring._cache.get(("line", side)) for side in ("left", "right"))
        if not any(record is not None and record[2] is adjacency for record in records):
            _check_adjacency(adjacency, len(line))
    return adjacency


def _check_adjacency(adjacency: np.ndarray, points: int) -> None:
    """Refuse with ValueError, naming the defect, an adjacency that is not a
    (points x points) boolean array, symmetric with a False diagonal."""
    if adjacency.dtype != bool or adjacency.shape != (points, points):
        raise ValueError(
            f"adjacency of {points} points has dtype {adjacency.dtype} and shape "
            f"{adjacency.shape}, not bool and {(points, points)}"
        )
    if adjacency.diagonal().any():
        raise ValueError(f"adjacency has a True diagonal at point {adjacency.diagonal().argmax()}")
    if not (adjacency == adjacency.T).all():
        i, j = np.argwhere(adjacency != adjacency.T)[0].tolist()
        raise ValueError(f"adjacency is not symmetric at [{i}, {j}]")


def _row_blocks(rows: int, width: int):
    """Slices of consecutive rows, each of at most BLOCK_CELLS cells of the width."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each True cell, row-major (flat indices are far
    cheaper to find than np.nonzero's pair of index arrays)."""
    return np.divmod(mask.ravel().nonzero()[0], mask.shape[1])


def _intersections(line: ProjectiveLine) -> tuple[StatValue, StatValue]:
    """cap2N and cap3N in one pass over the twin classes.

    Distant class pairs a < b are taken in blocks of BLOCK_CELLS (pair,
    class) cells. Column p of ``both`` packs the points near both classes of
    pair p, counted by popcounts summed down its words; the pair stands for
    |a| * |b| point pairs. A class c > b distant from both completes a
    triple, whose common neighbourhood is both[:, p] & near[:, c], standing
    for |a| * |b| * |c| point triples. Where column p is empty every such
    triple's count is 0, so those triples are only counted; the others are
    gathered in blocks of the same size, and only each block's spread is kept.
    """
    adj, _, sizes, near = _twins(line)
    span = np.arange(len(adj))
    later = adj & (span[:, None] < span)  # [a, c]: c > a and distant from a
    a, b = _cells(later)
    if not len(a):
        raise NoDistantPair(f"line over {line.ring.name} has no distant pair")
    pairs, triples = [], []
    for rows in _row_blocks(len(a), len(adj)):
        pa, pb = a[rows], b[rows]
        both, pair_sizes = near.take(pa, axis=1) & near.take(pb, axis=1), sizes[pa] * sizes[pb]
        common = np.bitwise_count(both).sum(axis=0)
        pairs.append(StatValue.of(common, pair_sizes))
        third, empty = later.take(pa, axis=0) & later.take(pb, axis=0), common == 0
        triples.append(StatValue(0, 0, int(pair_sizes[empty] @ (third[empty] @ sizes))))
        third[empty] = False
        p, c = _cells(third)
        for s in _row_blocks(len(c), len(adj)):
            common = np.bitwise_count(both.take(p[s], 1) & near.take(c[s], 1)).sum(axis=0)
            triples.append(StatValue.of(common, pair_sizes[p[s]] * sizes[c[s]]))
    return StatValue.union(pairs), StatValue.union(triples)


def pair_intersection_stat(line: ProjectiveLine) -> StatValue:
    """|N(P) ∩ N(Q)| over all unordered distant pairs (see _intersections)."""
    return _intersections(line)[0]


def triple_intersection_stat(line: ProjectiveLine) -> StatValue:
    """|N(P) ∩ N(Q) ∩ N(S)| over all pairwise-distant triples (see
    _intersections); vacuous (count 0) on a line without one."""
    return _intersections(line)[1] if _adjacency(line).any() else StatValue.union(())


def max_distant_set(line: ProjectiveLine) -> tuple[int, ...]:
    """A maximum clique of the distant graph, the lexicographically least.

    A mutually distant set of P(M_k(GF(q))) is a partial spread of k-spaces
    in GF(q)^2k, so it has at most q^k + 1 points; distance is decided mod J
    and block by block, so MD is at most the least q^k + 1 over the blocks
    of R/J. On a ring's line the greedy clique has exactly that many points
    (see the module docstring), and the bound certifies it: a greedy clique
    of any other size raises AssertionError, so MD holds on the ring's line,
    not on any graph.
    """
    chosen = clique.max_clique(_adjacency(line))
    bound = min(q**k + 1 for q, k in semisimple_blocks(line.ring))
    if len(chosen) != bound:
        raise AssertionError(f"greedy clique has {len(chosen)} points, not the R/J bound {bound}")
    return chosen


def jacobson_stat(line: ProjectiveLine, candidate: str) -> int:
    """One of the shipped candidate statistics for the 'Jcb' column.

    A: points neighbouring every other point.
    B: |J(R)| - 1.
    C: nonzero left unit-orbits of pairs with both coordinates in J(R).
    None of these is asserted to be the literature's definition. J x J is
    a union of left orbits (J is an ideal), so by Burnside's lemma it has
    (1/|U|) * sum over units u of |{a in J : u*a = a}|**2 of them.
    """
    ring = line.ring
    if candidate == "A":
        return int((~_adjacency(line).any(axis=1)).sum())  # distant from no point
    if candidate == "B":
        return len(jacobson_radical(ring)) - 1
    if candidate == "C":
        radical = radical_members(ring)
        units = (ring.inv >= 0).nonzero()[0]
        fixed = (ring.mul.take(units, 0).take(radical, 1) == radical).sum(axis=1)
        orbits, rest = divmod(int((fixed**2).sum()), len(units))
        if rest:
            raise AssertionError("Burnside count of the orbits on J x J is not whole")
        return orbits - 1
    raise UnknownCandidate(f"unknown Jacobson candidate {candidate!r}")


def signature(line: ProjectiveLine) -> LineSignature:
    """Aggregate all Table-1 statistics of the line, kept in its ``derived``
    dict; a non-commutative ring's right line takes the left line's
    signature with its own TpI (see the module docstring). A hand-built
    adjacency that is no symmetric irreflexive relation on the points raises
    ValueError; MD is certified against the ring's R/J bound
    (:func:`max_distant_set`), so one that is not the ring's line can raise
    AssertionError."""
    derived = line.derived
    if "signature" not in derived:
        if "held" in derived:
            left = build_line(line.ring)
            _, classes, sizes, _ = _twins(left)
            counts = np.bincount(classes[derived["held"]], minlength=len(sizes))
            if (counts != sizes).any():
                raise AssertionError("right points do not fill the left twin classes")
            tpi = int(type_one(line.ring, line.codes).sum())
            derived["signature"] = signature(left)._replace(tpi=tpi)
        else:
            derived["signature"] = _signature(line)
    return derived["signature"]


def _signature(line: ProjectiveLine) -> LineSignature:
    cap2n, cap3n = _intersections(line)
    return LineSignature(
        tot=len(line),
        tpi=int(type_one(line.ring, line.codes).sum()),
        one_n=one_neighbourhood_stat(line),
        cap2n=cap2n,
        cap3n=cap3n,
        md=len(max_distant_set(line)),
        # read-only: a cached signature goes to every caller of its line
        jcb=MappingProxyType({c: jacobson_stat(line, c) for c in JACOBSON_CANDIDATES}),
    )
