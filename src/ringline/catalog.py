"""Built-in ring catalog with expected Table-1 rows, batch evaluation, and
every verdict: column checks, entry and row status, the report's pass flag.

Each entry names a recipe and the classification row it should reproduce.
Provenance tags: "paper-row" for confirmed rows, "paper-brackets" for the
commutative counterpart of the exceptional 16/10 row, and "candidate" for
constructions that match a row's order/zero-divisor label but whose identity
with the literature's representative cannot be confirmed from the citations;
an entry with no recipe at all is reported UNRESOLVED.
"""

from __future__ import annotations

import io
import csv
import re
import time
from collections import namedtuple
from typing import Iterable

from .build import build_recipe
from .core import fingerprint
from .errors import RightLineBreakdown
from .line import build_line
from .stats import COLUMNS, JACOBSON_CANDIDATES, LineSignature, signature

TABLE1_ROW_ORDER = ("27/15", "24/20", "16/4", "16/8", "16/10", "16/12", "16/14", "8/6")

CSV_COLUMNS = (
    "type",
    "Tot",
    "TpI",
    "1N",
    "cap2N",
    "cap3N",
    "MD",
    *(f"Jcb{c}" for c in JACOBSON_CANDIDATES),
    "rightLineStatus",
)


class CatalogEntry(namedtuple(
    "CatalogEntry", "name paper_row provenance recipe expected jcb right_breakdown_expected",
    defaults=(None, False),
)):
    """One catalog entry: ``paper_row`` is the row label <order>/<zero-divisors>,
    ``provenance`` one of the tags above, ``expected`` the Table-1 row in
    COLUMNS order, and ``jcb`` informational, never part of the verdict. An
    entry is checked when made, also by ``_replace``: a malformed one raises
    ValueError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._checked()

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, not __new__
        return super()._make(iterable)._checked()

    def _checked(self) -> CatalogEntry:
        row, label = self.expected, self.paper_row
        ints = isinstance(row, tuple) and all(type(v) is int for v in row)
        if not (ints and len(row) == len(COLUMNS)):
            raise ValueError(f"entry {self.name}: expected row {row!r} is not {len(COLUMNS)} ints")
        if not (isinstance(label, str) and re.fullmatch(r"[0-9]+/[0-9]+", label)):
            raise ValueError(f"entry {self.name}: paper row {label!r} is not order/zero-divisors")
        tags = ("paper-row", "paper-brackets", "candidate")
        if self.provenance not in tags:
            raise ValueError(f"entry {self.name}: provenance {self.provenance!r} is not in {tags}")
        return self


def builtin_catalog() -> tuple[CatalogEntry, ...]:
    """The shipped entries, one per classification row plus counterparts."""
    return (
        CatalogEntry(
            name="t2f2",
            paper_row="8/6",
            provenance="paper-row",
            recipe="tri(gf:2,2)",
            expected=(18, 14, 9, 4, 0, 3),
            jcb=1,
        ),
        CatalogEntry(
            name="t2f3",
            paper_row="27/15",
            provenance="paper-row",
            recipe="tri(gf:3,2)",
            expected=(48, 42, 20, 6, 0, 4),
            jcb=2,
        ),
        CatalogEntry(
            name="z3xt2f2",
            paper_row="24/20",
            provenance="paper-row",
            recipe="prod(zn:3,tri(gf:2,2))",
            expected=(72, 44, 47, 28, 12, 3),
            jcb=3,
        ),
        CatalogEntry(
            name="m2f2",
            paper_row="16/10",
            provenance="paper-row",
            recipe="mat(gf:2,2)",
            expected=(35, 26, 18, 9, 3, 5),
            jcb=0,
            right_breakdown_expected=True,
        ),
        CatalogEntry(
            name="z2xt2f2",
            paper_row="16/14",
            provenance="paper-row",
            recipe="prod(zn:2,tri(gf:2,2))",
            expected=(54, 30, 37, 24, 12, 3),
            jcb=1,
        ),
        CatalogEntry(
            name="gf4xz4",
            paper_row="16/10",
            provenance="paper-brackets",
            recipe="prod(gf:4,zn:4)",
            expected=(30, 26, 13, 4, 0, 3),
            jcb=5,
        ),
        CatalogEntry(
            name="gf4xdualf2",
            paper_row="16/10",
            provenance="paper-brackets",
            recipe="prod(gf:4,dual(gf:2))",
            expected=(30, 26, 13, 4, 0, 3),
            jcb=5,
        ),
        CatalogEntry(
            name="skewgf4",
            paper_row="16/4",
            provenance="candidate",
            recipe="skew(gf:4)",
            expected=(20, 20, 3, 0, 0, 5),
            jcb=3,
        ),
        CatalogEntry(
            name="f2xy",
            paper_row="16/8",
            provenance="candidate",
            recipe="algebra:f2xy",
            expected=(24, 24, 7, 0, 0, 3),
            jcb=7,
        ),
        CatalogEntry(
            name="row16_12",
            paper_row="16/12",
            provenance="paper-row",
            recipe=None,  # no construction reconstructible from the citations
            expected=(36, 28, 19, 8, 0, 3),
            jcb=3,
        ),
    )


class EntryResult(namedtuple(
    "EntryResult", "entry fingerprint left comparison right right_class_sizes elapsed_ms"
)):
    """What evaluate_entry computed for one entry; every verdict is derived.

    The ring's fields are None when the entry has no recipe. Of ``right`` and
    ``right_class_sizes``, the first holds the right line's signature and the
    second the class sizes of its breakdown. ``comparison`` is the left
    signature against the entry, as the report writes it.
    """

    __slots__ = ()

    @property
    def label_ok(self) -> bool | None:
        """The fingerprint's order and zero-divisor count match the row label."""
        if self.fingerprint is None:
            return None
        order_s, zdiv_s = self.entry.paper_row.split("/")
        fp = self.fingerprint
        return fp.order == int(order_s) and fp.zero_divisor_count == int(zdiv_s)

    @property
    def right_status(self) -> str:
        """ok | breakdown | skipped"""
        if self.right is not None:
            return "ok"
        return "skipped" if self.right_class_sizes is None else "breakdown"

    @property
    def right_ok(self) -> bool | None:
        """The right line breaks down when expected, and equals the left otherwise."""
        if self.fingerprint is None:
            return None
        if self.entry.right_breakdown_expected:
            return self.right is None
        return self.right == self.left

    @property
    def status(self) -> str:
        """PASS | FAIL | UNRESOLVED; a failing candidate is UNRESOLVED."""
        if self.fingerprint is None:
            return "UNRESOLVED"
        if self.label_ok and self.right_ok and self.comparison["pass"]:
            return "PASS"
        return "UNRESOLVED" if self.entry.provenance == "candidate" else "FAIL"

    def to_json_dict(self) -> dict:
        right: dict = {"status": self.right_status}
        if self.right is not None:
            right["signature"] = self.right.to_json_dict()
        if self.right_class_sizes is not None:
            right["classSizes"] = _class_sizes_record(self.right_class_sizes)
        return {
            "name": self.entry.name,
            "paperRow": self.entry.paper_row,
            "provenance": self.entry.provenance,
            "recipe": self.entry.recipe,
            "status": self.status,
            "fingerprint": self.fingerprint.to_json_dict() if self.fingerprint else None,
            "labelOk": self.label_ok,
            "left": self.left.to_json_dict() if self.left else None,
            "right": right,
            "jacobsonCandidates": dict(self.left.jcb) if self.left else None,
            "rightJacobsonCandidates": dict(self.right.jcb) if self.right else None,
            "comparison": self.comparison,
            "rightOk": self.right_ok,
            "elapsedMs": self.elapsed_ms,
        }


def _class_sizes_record(class_sizes: dict[int, int]) -> dict[str, int]:
    """Breakdown class sizes as reports write them: str(size) -> count, by size."""
    return {str(size): count for size, count in sorted(class_sizes.items())}


def _comparison(entry: CatalogEntry, left: LineSignature | None) -> dict | None:
    """The left signature against the entry, as the report writes it. A
    neighbourhood column passes only if it is also constant; the Jcb
    candidates are matched against the informational Jcb but never fail it."""
    if left is None:
        return None
    constant = {name: stat.constant for name, stat in left.stats().items()}
    columns = {}
    for name, seen, want in zip(COLUMNS, left.as_row(), entry.expected):
        ok = seen == want and constant.get(name, True)
        columns[name] = {"observed": seen, "expected": want, "pass": ok}
    return {
        "perColumn": columns,
        "jcb": None if entry.jcb is None else {c: v == entry.jcb for c, v in left.jcb.items()},
        "pass": all(c["pass"] for c in columns.values()),
    }


def row_status(results: Iterable[EntryResult]) -> str:
    """A Table-1 row's verdict: FAIL, else UNRESOLVED (also for no entry), else PASS."""
    statuses = {r.status for r in results} or {"UNRESOLVED"}
    return next(s for s in ("FAIL", "UNRESOLVED", "PASS") if s in statuses)


def evaluate_entry(entry: CatalogEntry) -> EntryResult:
    """Build the ring, its fingerprint and the signatures of both lines."""
    start = time.perf_counter()
    fp = left = right = right_class_sizes = None
    if entry.recipe is not None:
        ring = build_recipe(entry.recipe)
        fp = fingerprint(ring)
        left = signature(build_line(ring, "left"))
        try:
            right = signature(build_line(ring, "right"))
        except RightLineBreakdown as exc:
            right_class_sizes = exc.class_sizes
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    comparison = _comparison(entry, left)
    return EntryResult(entry, fp, left, comparison, right, right_class_sizes, elapsed_ms)


class RunReport(namedtuple("RunReport", "results")):
    """The EntryResults of a catalog run, sorted by entry name."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.status != "FAIL" for r in self.results)

    def jcb_matrix(self) -> dict[str, dict[str, bool]]:
        """candidate id -> entry name -> matches the row's informational Jcb."""
        matrix: dict[str, dict[str, bool]] = {}
        for r in self.results:
            matches = (r.comparison or {}).get("jcb") or {}
            for cand, ok in matches.items():
                matrix.setdefault(cand, {})[r.entry.name] = ok
        return matrix

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "jcbMatrix": self.jcb_matrix(),
            "entries": [r.to_json_dict() for r in self.results],
        }

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.results:
            if r.left is None:
                row = [r.entry.paper_row, *[""] * (len(CSV_COLUMNS) - 2), r.right_status]
            else:
                jcb = [r.left.jcb[c] for c in JACOBSON_CANDIDATES]
                row = [r.entry.paper_row, *r.left.as_row(), *jcb, r.right_status]
            writer.writerow(row)
        return buf.getvalue()


def run_catalog(entries: tuple[CatalogEntry, ...] | None = None) -> RunReport:
    """Evaluate entries in order; merge results ordered by entry name."""
    if entries is None:
        entries = builtin_catalog()
    ordered = tuple(sorted(map(evaluate_entry, entries), key=lambda r: r.entry.name))
    return RunReport(results=ordered)
