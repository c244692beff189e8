"""Built-in ring catalog with expected line signatures, and batch evaluation.

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
import time
from dataclasses import dataclass

from .build import build_recipe
from .core import RingFingerprint, fingerprint
from .errors import RightLineBreakdown
from .line import build_line
from .stats import (
    ExpectedSignature,
    LineSignature,
    SignatureComparison,
    compare_signature,
    signature,
)

TABLE1_ROW_ORDER = ("27/15", "24/20", "16/4", "16/8", "16/10", "16/12", "16/14", "8/6")

CSV_COLUMNS = (
    "type",
    "Tot",
    "TpI",
    "1N",
    "cap2N",
    "cap3N",
    "MD",
    "JcbA",
    "JcbB",
    "JcbC",
    "rightLineStatus",
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    paper_row: str
    provenance: str  # paper-row | paper-brackets | candidate
    recipe: str | None
    expected: ExpectedSignature | None
    right_breakdown_expected: bool = False

    def __post_init__(self):
        if self.provenance in ("paper-row", "paper-brackets") and self.expected is None:
            raise ValueError(f"entry {self.name}: confirmed rows need an expected signature")


def builtin_catalog() -> tuple[CatalogEntry, ...]:
    """The shipped entries, one per classification row plus counterparts."""
    return (
        CatalogEntry(
            name="t2f2",
            paper_row="8/6",
            provenance="paper-row",
            recipe="tri(gf:2,2)",
            expected=ExpectedSignature(18, 14, 9, 4, 0, 3, jcb=1),
        ),
        CatalogEntry(
            name="t2f3",
            paper_row="27/15",
            provenance="paper-row",
            recipe="tri(gf:3,2)",
            expected=ExpectedSignature(48, 42, 20, 6, 0, 4, jcb=2),
        ),
        CatalogEntry(
            name="z3xt2f2",
            paper_row="24/20",
            provenance="paper-row",
            recipe="prod(zn:3,tri(gf:2,2))",
            expected=ExpectedSignature(72, 44, 47, 28, 12, 3, jcb=3),
        ),
        CatalogEntry(
            name="m2f2",
            paper_row="16/10",
            provenance="paper-row",
            recipe="mat(gf:2,2)",
            expected=ExpectedSignature(35, 26, 18, 9, 3, 5, jcb=0),
            right_breakdown_expected=True,
        ),
        CatalogEntry(
            name="z2xt2f2",
            paper_row="16/14",
            provenance="paper-row",
            recipe="prod(zn:2,tri(gf:2,2))",
            expected=ExpectedSignature(54, 30, 37, 24, 12, 3, jcb=1),
        ),
        CatalogEntry(
            name="gf4xz4",
            paper_row="16/10",
            provenance="paper-brackets",
            recipe="prod(gf:4,zn:4)",
            expected=ExpectedSignature(30, 26, 13, 4, 0, 3, jcb=5),
        ),
        CatalogEntry(
            name="gf4xdualf2",
            paper_row="16/10",
            provenance="paper-brackets",
            recipe="prod(gf:4,dual(gf:2))",
            expected=ExpectedSignature(30, 26, 13, 4, 0, 3, jcb=5),
        ),
        CatalogEntry(
            name="skewgf4",
            paper_row="16/4",
            provenance="candidate",
            recipe="skew(gf:4)",
            expected=ExpectedSignature(20, 20, 3, 0, 0, 5, jcb=3),
        ),
        CatalogEntry(
            name="f2xy",
            paper_row="16/8",
            provenance="candidate",
            recipe="algebra:f2xy",
            expected=ExpectedSignature(24, 24, 7, 0, 0, 3, jcb=7),
        ),
        CatalogEntry(
            name="row16_12",
            paper_row="16/12",
            provenance="paper-row",
            recipe=None,  # no construction reconstructible from the citations
            expected=ExpectedSignature(36, 28, 19, 8, 0, 3, jcb=3),
        ),
    )


def catalog_entry(name: str) -> CatalogEntry:
    for entry in builtin_catalog():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")


def _label_matches(fp: RingFingerprint, paper_row: str) -> bool:
    order_s, zdiv_s = paper_row.split("/")
    return fp.order == int(order_s) and fp.zero_divisor_count == int(zdiv_s)


@dataclass(frozen=True)
class EntryResult:
    name: str
    paper_row: str
    provenance: str
    recipe: str | None
    status: str  # PASS | FAIL | UNRESOLVED
    fingerprint: RingFingerprint | None
    label_ok: bool | None
    left: LineSignature | None
    right_status: str  # ok | breakdown | skipped
    right: LineSignature | None
    right_class_sizes: dict[int, int] | None
    right_ok: bool | None
    comparison: SignatureComparison | None
    elapsed_ms: float

    def to_json_dict(self) -> dict:
        right: dict = {"status": self.right_status}
        if self.right is not None:
            right["signature"] = self.right.to_json_dict()
        if self.right_class_sizes is not None:
            right["classSizes"] = {str(k): v for k, v in sorted(self.right_class_sizes.items())}
        return {
            "name": self.name,
            "paperRow": self.paper_row,
            "provenance": self.provenance,
            "recipe": self.recipe,
            "status": self.status,
            "fingerprint": self.fingerprint.to_json_dict() if self.fingerprint else None,
            "labelOk": self.label_ok,
            "left": self.left.to_json_dict() if self.left else None,
            "right": right,
            "jacobsonCandidates": dict(self.left.jcb) if self.left else None,
            "rightJacobsonCandidates": dict(self.right.jcb) if self.right else None,
            "comparison": self.comparison.to_json_dict() if self.comparison else None,
            "rightOk": self.right_ok,
            "elapsedMs": self.elapsed_ms,
        }


def evaluate_entry(entry: CatalogEntry) -> EntryResult:
    """Build the ring, both lines, the signature and its comparison."""
    start = time.perf_counter()
    if entry.recipe is None:
        return EntryResult(
            name=entry.name,
            paper_row=entry.paper_row,
            provenance=entry.provenance,
            recipe=None,
            status="UNRESOLVED",
            fingerprint=None,
            label_ok=None,
            left=None,
            right_status="skipped",
            right=None,
            right_class_sizes=None,
            right_ok=None,
            comparison=None,
            elapsed_ms=(time.perf_counter() - start) * 1000.0,
        )

    ring = build_recipe(entry.recipe)
    fp = fingerprint(ring)
    label_ok = _label_matches(fp, entry.paper_row)
    left_line = build_line(ring, "left")
    left_sig = signature(left_line)
    comparison = (
        compare_signature(left_sig, entry.expected) if entry.expected is not None else None
    )

    right_sig = None
    right_class_sizes = None
    try:
        right_line = build_line(ring, "right")
        right_sig = signature(right_line)
        right_status = "ok"
        right_ok = (not entry.right_breakdown_expected) and right_sig == left_sig
    except RightLineBreakdown as exc:
        right_status = "breakdown"
        right_class_sizes = exc.class_sizes
        right_ok = entry.right_breakdown_expected

    core_ok = label_ok and right_ok and (comparison is None or comparison.passed)
    if core_ok:
        status = "PASS"
    elif entry.provenance == "candidate":
        status = "UNRESOLVED"
    else:
        status = "FAIL"
    return EntryResult(
        name=entry.name,
        paper_row=entry.paper_row,
        provenance=entry.provenance,
        recipe=entry.recipe,
        status=status,
        fingerprint=fp,
        label_ok=label_ok,
        left=left_sig,
        right_status=right_status,
        right=right_sig,
        right_class_sizes=right_class_sizes,
        right_ok=right_ok,
        comparison=comparison,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
    )


@dataclass(frozen=True)
class RunReport:
    results: tuple[EntryResult, ...]  # sorted by entry name

    @property
    def passed(self) -> bool:
        return all(r.status != "FAIL" for r in self.results)

    def result(self, name: str) -> EntryResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def jcb_matrix(self) -> dict[str, dict[str, bool]]:
        """candidate id -> entry name -> matches the row's informational Jcb."""
        matrix: dict[str, dict[str, bool]] = {}
        for r in self.results:
            if r.comparison is None or r.comparison.jcb_matches is None:
                continue
            for cand, ok in r.comparison.jcb_matches.items():
                matrix.setdefault(cand, {})[r.name] = ok
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
                row = [r.paper_row] + [""] * 9 + [r.right_status]
            else:
                row = [
                    r.paper_row,
                    r.left.tot,
                    r.left.tpi,
                    r.left.one_n.value,
                    r.left.cap2n.value,
                    r.left.cap3n.value,
                    r.left.md,
                    r.left.jcb["A"],
                    r.left.jcb["B"],
                    r.left.jcb["C"],
                    r.right_status,
                ]
            writer.writerow(row)
        return buf.getvalue()


def run_catalog(entries: tuple[CatalogEntry, ...] | None = None) -> RunReport:
    """Evaluate entries in order; merge results ordered by entry name."""
    if entries is None:
        entries = builtin_catalog()
    ordered = tuple(sorted(map(evaluate_entry, entries), key=lambda r: r.name))
    return RunReport(results=ordered)
