"""Classification statistics of a projective ring line.

The signature collects, for one line: the point total, the Type I count,
neighbourhood cardinality, the sizes of neighbourhood intersections over
distant pairs and pairwise-distant triples, the maximum number of mutually
distant points, and a family of candidate "Jacobson point" statistics (the
literature's definition is not pinned down here, so candidates are reported
side by side and never asserted).

The neighbourhood columns are whole-matrix counts over the distant adjacency
``line.adjacency``: products of the neighbour matrix taken in float32, which
is exact since no count reaches 2**24. Bitmasks of the distant graph live
only in ringline.clique, behind the maximum-clique search.

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

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import clique
from .core import jacobson_radical
from .errors import NoDistantPair, UnknownCandidate
from .line import ProjectiveLine, orbit_labels, point_type

JACOBSON_CANDIDATES = ("A", "B", "C")
# the six signature columns, in row order
COLUMNS = ("tot", "tpI", "oneN", "cap2N", "cap3N", "md")


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
    def of(cls, values: np.ndarray) -> "StatValue":
        """The spread of an array of counts, as plain ints (JSON-safe)."""
        if not values.size:
            return cls(lo=0, hi=0, count=0)
        return cls(lo=int(values.min()), hi=int(values.max()), count=int(values.size))

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


@dataclass(frozen=True)
class ExpectedSignature:
    """A Table-1 style row of expected values; jcb is informational only."""

    tot: int
    tpi: int
    one_n: int
    cap2n: int
    cap3n: int
    md: int
    jcb: int | None = None

    def as_row(self) -> tuple[int, int, int, int, int, int]:
        return (self.tot, self.tpi, self.one_n, self.cap2n, self.cap3n, self.md)


@dataclass(frozen=True)
class ColumnCheck:
    name: str
    observed: int
    expected: int
    passed: bool


@dataclass(frozen=True)
class SignatureComparison:
    columns: tuple[ColumnCheck, ...]
    jcb_matches: Mapping[str, bool] | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.columns)

    def to_json_dict(self) -> dict:
        return {
            "perColumn": {
                c.name: {"observed": c.observed, "expected": c.expected, "pass": c.passed}
                for c in self.columns
            },
            "jcb": dict(self.jcb_matches) if self.jcb_matches is not None else None,
            "pass": self.passed,
        }


def _near(line: ProjectiveLine) -> np.ndarray:
    """near[i, j]: points i != j that are not distant (neighbours)."""
    adj = line.adjacency
    return ~adj & ~np.eye(len(adj), dtype=bool)


def neighbourhood(line: ProjectiveLine, i: int) -> frozenset[int]:
    """{ j != i : j not distant from i }."""
    return frozenset(np.flatnonzero(_near(line)[i]).tolist())


def one_neighbourhood_stat(line: ProjectiveLine) -> StatValue:
    return StatValue.of(_near(line).sum(axis=1))


def pair_intersection_stat(line: ProjectiveLine) -> StatValue:
    """|N(P) ∩ N(Q)| over all unordered distant pairs."""
    i, j = np.nonzero(np.triu(line.adjacency))
    if not len(i):
        raise NoDistantPair(f"line over {line.ring.name} has no distant pair")
    near = _near(line).astype(np.float32)
    return StatValue.of((near @ near.T)[i, j])  # [i, j]: common neighbours


def triple_intersection_stat(line: ProjectiveLine) -> StatValue:
    """|N(P) ∩ N(Q) ∩ N(S)| over all pairwise-distant triples.

    Row p of the product counts, for the p-th distant pair (i, j) and every
    point k, the common neighbours of all three; a triple is kept when k is
    distant from both and k > j, so each is counted once. A line without
    such a triple yields the vacuous StatValue (count 0).
    """
    adj = line.adjacency
    near = _near(line)
    i, j = np.nonzero(np.triu(adj))
    counts = (near[i] & near[j]).astype(np.float32) @ near.T.astype(np.float32)
    later = adj[i] & adj[j] & (np.arange(len(adj)) > j[:, None])
    return StatValue.of(counts[later])


def max_distant_set(line: ProjectiveLine) -> tuple[int, ...]:
    """An exact maximum clique of the distant graph (lexicographically least)."""
    return clique.max_clique(line.adjacency)


def jacobson_stat(line: ProjectiveLine, candidate: str) -> int:
    """One of the shipped candidate statistics for the 'Jcb' column.

    A: points neighbouring every other point.
    B: |J(R)| - 1.
    C: nonzero left unit-orbits of pairs with both coordinates in J(R).
    None of these is asserted to be the literature's definition.
    """
    ring = line.ring
    if candidate == "A":
        return int((~line.adjacency.any(axis=1)).sum())  # distant from no point
    if candidate == "B":
        return len(jacobson_radical(ring)) - 1
    if candidate == "C":
        # J(R) is a two-sided ideal, so J x J is a union of left orbits
        radical = np.array(sorted(jacobson_radical(ring)))
        codes = (radical[:, None] * ring.order + radical[None, :]).ravel()
        return len(np.unique(orbit_labels(ring, "left")[codes])) - 1
    raise UnknownCandidate(f"unknown Jacobson candidate {candidate!r}")


def signature(line: ProjectiveLine) -> LineSignature:
    """Aggregate all Table-1 statistics of the line."""
    return LineSignature(
        tot=len(line.points),
        tpi=sum(point_type(line, i) == "TypeI" for i in range(len(line.points))),
        one_n=one_neighbourhood_stat(line),
        cap2n=pair_intersection_stat(line),
        cap3n=triple_intersection_stat(line),
        md=len(max_distant_set(line)),
        jcb={c: jacobson_stat(line, c) for c in JACOBSON_CANDIDATES},
    )


def compare_signature(
    sig: LineSignature, expected: ExpectedSignature
) -> SignatureComparison:
    """Per-column PASS/FAIL; the three neighbourhood columns also require the
    constancy flag. Jcb is informational and never affects the verdict."""
    constant = {name: stat.constant for name, stat in sig.stats().items()}
    checks = tuple(
        ColumnCheck(name, observed, want, observed == want and constant.get(name, True))
        for name, observed, want in zip(COLUMNS, sig.as_row(), expected.as_row())
    )
    jcb_matches = (
        {c: sig.jcb[c] == expected.jcb for c in sig.jcb}
        if expected.jcb is not None
        else None
    )
    return SignatureComparison(columns=checks, jcb_matches=jcb_matches)
