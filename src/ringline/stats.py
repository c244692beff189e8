"""Classification statistics of a projective ring line.

The signature collects, for one line: the point total, the Type I count,
neighbourhood cardinality, the sizes of neighbourhood intersections over
distant pairs and pairwise-distant triples, the maximum number of mutually
distant points, and a family of candidate "Jacobson point" statistics (the
literature's definition is not pinned down here, so candidates are reported
side by side and never asserted).

1N counts, in each row of ``line.adjacency``, the other points not distant.
cap2N, cap3N and MD read the twin classes, the points with equal distant
rows (on a ring line, the fibres of P(R) -> P(R/J)), grouped from the
adjacency alone, so 1N, cap2N and cap3N hold on any symmetric irreflexive
graph; a line's classes are grouped once and kept, read-only, in its
``derived`` dict. Twins are never distant, so the common neighbourhood of
distant points depends only on their classes: it is the total size of the
classes near all of them, and a class pair or triple stands for the product
of its class sizes in point pairs or triples. The pass gathers class rows
in blocks of BLOCK_CELLS cells, so memory stays bounded when every class is
one point, and weighs them by class size in float32, exact since no count
reaches 2**24. The weighted counts come from ``np.einsum``, not a matrix
product: the BLAS product now and then raised a spurious invalid-value
flag, which numpy printed as a RuntimeWarning. A triple over a class pair
with no class near both has count 0, so such triples are counted, not
gathered (on a field, all of them).

MD is the maximum clique, searched only up to the bound from the ring's R/J
blocks and certified against it (a search that ends at another size raises
AssertionError), on the graph of twin classes, each class standing for its
first point. A clique meets each class at most once, and replacing each
member by its class's first point keeps a clique (twins share distant rows)
and raises no entry, so the line's lexicographically least maximum clique
is of first points; the classes are numbered in their order, so it is the
class graph's. Twin classes are grouped on packed distant rows, used only
as keys; the masks of ringline.clique are the only bitmask form that is
searched. Jcb candidate C counts orbits by Burnside's lemma, reading only
the units' rows of the multiplication table. TpI is one gather of ``inv``
at both coordinates of the points' codes.

Each ring and side is signed once: the signature is kept in the line's
``derived`` dict, which build_line gives every line over one cached
record, so a commutative ring's right line, which is its left line, reads
its left line's signature. A line built by hand, or by
dataclasses.replace, has a dict of its own and is signed from its arrays:
its 1N, cap2N and cap3N are those of its adjacency, but its MD is still
certified against its ring's R/J bound, so a graph that is not its ring's
line can raise AssertionError.

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

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from . import clique
from .core import jacobson_radical, semisimple_blocks, unit_elements
from .errors import NoDistantPair, UnknownCandidate
from .line import ProjectiveLine, build_line, type_one

JACOBSON_CANDIDATES = ("A", "B", "C")
# the six signature columns, in row order
COLUMNS = ("tot", "tpI", "oneN", "cap2N", "cap3N", "md")
# cells of one block of cap2N and cap3N: bool (pair x class) or (triple x class)
BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class StatValue:
    """A per-pair/per-triple statistic with its observed spread.

    ``count`` is the number of pairs or triples examined; a count of zero
    (e.g. no pairwise-distant triple exists) reports value 0 with the
    constancy flag set. When observations vary, ``value`` is the minimum and
    ``constant`` is False; consumers should then look at ``lo``/``hi``.
    """

    lo: int
    hi: int
    count: int

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


@dataclass(frozen=True)
class LineSignature:
    tot: int
    tpi: int
    one_n: StatValue
    cap2n: StatValue
    cap3n: StatValue
    md: int
    jcb: Mapping[str, int]

    def as_row(self) -> tuple[int, int, int, int, int, int]:
        """The values of COLUMNS, in order."""
        return (
            self.tot,
            self.tpi,
            self.one_n.value,
            self.cap2n.value,
            self.cap3n.value,
            self.md,
        )

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
    return StatValue.of(len(line) - 1 - line.adjacency.sum(axis=1))


def _twin_classes(adjacency: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distant graph on twin classes (points with equal distant rows),
    each point's class, and each class's size and first point, all
    read-only; classes are numbered in the order of their first points.

    Twins are never distant: in an irreflexive graph, twins i, j would have
    adj[i, j] = adj[j, j] = False. Rows are grouped by their packed bytes,
    packed C-contiguous whatever the adjacency's layout.
    """
    packed = np.ascontiguousarray(np.packbits(adjacency, axis=1))
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, classes, sizes = np.unique(
        rows, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)  # np.unique numbers the classes in byte order
    first = first[order]
    number = np.argsort(order)  # the inverse permutation
    twins = (adjacency[np.ix_(first, first)], number[classes], sizes[order], first)
    for array in twins:
        array.flags.writeable = False
    return twins


def _twins(line: ProjectiveLine) -> tuple[np.ndarray, ...]:
    """_twin_classes of the line, kept in its ``derived`` dict."""
    if "twins" not in line.derived:
        line.derived["twins"] = _twin_classes(line.adjacency)
    return line.derived["twins"]


def _row_blocks(rows: int, width: int):
    """Slices of consecutive rows, each of at most BLOCK_CELLS cells of the width."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each True cell, row-major (flat indices are far
    cheaper to find than np.nonzero's pair of index arrays)."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _intersections(line: ProjectiveLine) -> tuple[StatValue, StatValue]:
    """cap2N and cap3N in one pass over the twin classes.

    Distant class pairs a < b are taken in blocks of BLOCK_CELLS (pair,
    class) cells. Row p of ``both`` marks the classes near both classes of
    pair p, and the pair stands for |a| * |b| point pairs. A class c > b
    distant from both completes a triple, whose common neighbourhood is
    both[p] & near[c], and which stands for |a| * |b| * |c| point triples.
    Where both[p] is empty every such triple's count is 0, so those triples
    are only counted; the others are gathered in blocks of the same size,
    and only each block's spread is kept.
    """
    adj, _, sizes, _ = _twins(line)
    later = np.triu(adj)  # [a, c]: c > a and distant from a
    near, weights = ~adj, sizes.astype(np.float32)
    a, b = _cells(later)
    if not len(a):
        raise NoDistantPair(f"line over {line.ring.name} has no distant pair")
    pairs, triples = [], []
    for rows in _row_blocks(len(a), len(adj)):
        pa, pb = a[rows], b[rows]
        both, pair_sizes = near[pa] & near[pb], sizes[pa] * sizes[pb]
        common = np.einsum("ij,j->i", both, weights)
        pairs.append(StatValue.of(common, pair_sizes))
        third, empty = later[pa] & later[pb], common == 0
        triples.append(StatValue(0, 0, int(pair_sizes[empty] @ (third[empty] @ sizes))))
        third[empty] = False
        p, c = _cells(third)
        for s in _row_blocks(len(c), len(adj)):
            common = np.einsum("ij,j->i", both[p[s]] & near[c[s]], weights)
            triples.append(StatValue.of(common, pair_sizes[p[s]] * sizes[c[s]]))
    return StatValue.union(pairs), StatValue.union(triples)


def pair_intersection_stat(line: ProjectiveLine) -> StatValue:
    """|N(P) ∩ N(Q)| over all unordered distant pairs (see _intersections)."""
    return _intersections(line)[0]


def triple_intersection_stat(line: ProjectiveLine) -> StatValue:
    """|N(P) ∩ N(Q) ∩ N(S)| over all pairwise-distant triples (see
    _intersections); vacuous (count 0) on a line without one."""
    return _intersections(line)[1] if line.adjacency.any() else StatValue.union(())


def max_distant_set(line: ProjectiveLine) -> tuple[int, ...]:
    """An exact maximum clique of the distant graph (lexicographically least).

    A mutually distant set of P(M_k(GF(q))) is a partial spread of k-spaces
    in GF(q)^2k, so it has at most q^k + 1 points; distance is decided mod J
    and block by block, so MD is at most the least q^k + 1 over the blocks
    of R/J. The search stops at that bound, and the bound certifies the
    clique: a search that ends at any other size raises AssertionError, so
    MD holds on the ring's line, not on any graph.
    It runs on the graph of twin classes, and each class of the clique
    stands for its first point (see the module docstring).
    """
    stop = min(q**k + 1 for q, k in semisimple_blocks(line.ring))
    adj, _, _, first = _twins(line)
    return tuple(first[list(clique.max_clique(adj, stop))].tolist())


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
        return int((~line.adjacency.any(axis=1)).sum())  # distant from no point
    if candidate == "B":
        return len(jacobson_radical(ring)) - 1
    if candidate == "C":
        radical = sorted(jacobson_radical(ring))
        units = unit_elements(ring)
        fixed = (ring.mul[np.ix_(units, radical)] == radical).sum(axis=1)
        orbits, rest = divmod(int((fixed**2).sum()), len(units))
        if rest:
            raise AssertionError("Burnside count of the orbits on J x J is not whole")
        return orbits - 1
    raise UnknownCandidate(f"unknown Jacobson candidate {candidate!r}")


def signature(line: ProjectiveLine) -> LineSignature:
    """Aggregate all Table-1 statistics of the line, kept in its ``derived``
    dict; a non-commutative ring's right line takes the left line's
    signature with its own TpI (see the module docstring). MD is certified
    against the ring's R/J bound (:func:`max_distant_set`), so a hand-built
    adjacency that is not the ring's line can raise AssertionError."""
    derived = line.derived
    if "signature" not in derived:
        if "held" in derived:
            left = build_line(line.ring)
            _, classes, sizes, _ = _twins(left)
            counts = np.bincount(classes[derived["held"]], minlength=len(sizes))
            if not np.array_equal(counts, sizes):
                raise AssertionError("right points do not fill the left twin classes")
            tpi = int(type_one(line.ring, line.codes).sum())
            derived["signature"] = replace(signature(left), tpi=tpi)
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
