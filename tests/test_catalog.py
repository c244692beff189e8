"""catalog: built-in entries, batch reports, serialization."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import pytest

from conftest import catalog_entry, line_of, result_of

from ringline import (
    CatalogEntry,
    RunReport,
    StatValue,
    builtin_catalog,
    catalog,
    evaluate_entry,
    fingerprint,
    run_catalog,
)
from ringline import line as line_module
from ringline import stats as stats_module
from ringline.build import build_recipe
from ringline.catalog import CSV_COLUMNS, TABLE1_ROW_ORDER, row_status
from ringline.stats import COLUMNS, signature

# read only: perfbench/capture_golden.py writes it from known-good sources
GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

EXPECTED_MINIMUM = {
    "t2f2": ("8/6", (18, 14, 9, 4, 0, 3), 1),
    "t2f3": ("27/15", (48, 42, 20, 6, 0, 4), 2),
    "z3xt2f2": ("24/20", (72, 44, 47, 28, 12, 3), 3),
    "m2f2": ("16/10", (35, 26, 18, 9, 3, 5), 0),
    "z2xt2f2": ("16/14", (54, 30, 37, 24, 12, 3), 1),
    "gf4xz4": ("16/10", (30, 26, 13, 4, 0, 3), 5),
    "gf4xdualf2": ("16/10", (30, 26, 13, 4, 0, 3), 5),
    "skewgf4": ("16/4", (20, 20, 3, 0, 0, 5), 3),
    "f2xy": ("16/8", (24, 24, 7, 0, 0, 3), 7),
    "row16_12": ("16/12", (36, 28, 19, 8, 0, 3), 3),
}


class TestBuiltinCatalog:
    def test_required_entries_present(self):
        entries = {e.name: e for e in builtin_catalog()}
        assert set(entries) == set(EXPECTED_MINIMUM)
        for name, (row, values, jcb) in EXPECTED_MINIMUM.items():
            entry = entries[name]
            assert entry.paper_row == row
            assert entry.expected == values
            assert entry.jcb == jcb

    def test_provenance_tags(self):
        entries = {e.name: e for e in builtin_catalog()}
        assert entries["m2f2"].provenance == "paper-row"
        assert entries["gf4xz4"].provenance == "paper-brackets"
        assert entries["gf4xdualf2"].provenance == "paper-brackets"
        assert entries["skewgf4"].provenance == "candidate"
        assert entries["f2xy"].provenance == "candidate"
        assert entries["row16_12"].recipe is None

    def test_only_m2f2_expects_breakdown(self):
        flags = {e.name for e in builtin_catalog() if e.right_breakdown_expected}
        assert flags == {"m2f2"}

    def test_labels_match_fingerprints(self):
        for entry in builtin_catalog():
            if entry.recipe is None:
                continue
            fp = fingerprint(build_recipe(entry.recipe))
            order_s, zdivs_s = entry.paper_row.split("/")
            assert fp.order == int(order_s)
            assert fp.zero_divisor_count == int(zdivs_s)

    def test_frozen_fingerprints(self):
        # (order, units, zdivs, char, |J|, maxL, maxR, max2S, commutative)
        expected = {
            "t2f2": (8, 2, 6, 2, 2, 2, 2, 2, False),
            "t2f3": (27, 12, 15, 3, 3, 2, 2, 2, False),
            "z3xt2f2": (24, 4, 20, 6, 2, 3, 3, 3, False),
            "m2f2": (16, 6, 10, 2, 1, 3, 3, 1, False),
            "z2xt2f2": (16, 2, 14, 2, 2, 3, 3, 3, False),
            "gf4xz4": (16, 6, 10, 4, 2, 2, 2, 2, True),
            "gf4xdualf2": (16, 6, 10, 2, 2, 2, 2, 2, True),
            "skewgf4": (16, 12, 4, 2, 4, 1, 1, 1, False),
            "f2xy": (16, 8, 8, 2, 8, 1, 1, 1, False),
        }
        for entry in builtin_catalog():
            if entry.recipe is None:
                continue
            fp = fingerprint(build_recipe(entry.recipe))
            assert fp.as_tuple() == expected[entry.name], entry.name

    def test_counterparts_not_isomorphic_to_each_other(self):
        # the two bracket rings share every line statistic but differ in
        # characteristic; both differ from m2f2 in ideal structure
        gf4xz4 = fingerprint(build_recipe("prod(gf:4,zn:4)"))
        gf4xdual = fingerprint(build_recipe("prod(gf:4,dual(gf:2))"))
        m2 = fingerprint(build_recipe("mat(gf:2,2)"))
        assert gf4xz4.characteristic == 4 and gf4xdual.characteristic == 2
        assert (m2.order, m2.zero_divisor_count) == (gf4xz4.order, gf4xz4.zero_divisor_count)
        assert m2.maximal_two_sided_ideal_count != gf4xz4.maximal_two_sided_ideal_count

    def test_catalog_entry_lookup(self):
        assert catalog_entry("m2f2").recipe == "mat(gf:2,2)"
        with pytest.raises(KeyError):
            catalog_entry("nope")

    @pytest.mark.parametrize("provenance", ["paper-row", "paper-brackets", "candidate"])
    def test_confirmed_rows_need_expected(self, provenance):
        with pytest.raises(ValueError):
            CatalogEntry("x", "8/6", provenance, "tri(gf:2,2)", None)

    @pytest.mark.parametrize(
        "row",
        [(18, 14, 9, 4, 0), (18, 14, 9, 4, 0, 3, 1), [18, 14, 9, 4, 0, 3], (18, 14, 9, 4, 0, 3.0)],
        ids=["five", "seven", "list", "float"],
    )
    def test_malformed_expected_row_rejected(self, row):
        """A row that is not one int per column (None is refused above) would
        be cut short by zip or compared loosely, so the entry refuses it."""
        with pytest.raises(ValueError):
            CatalogEntry("x", "8/6", "paper-row", "tri(gf:2,2)", row)
        with pytest.raises(ValueError):
            catalog_entry("t2f2")._replace(expected=row)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("paper_row", "816"),
            ("paper_row", "16/x"),
            ("paper_row", "16/"),
            ("paper_row", "16/4/2"),
            ("paper_row", None),
            ("provenance", "Candidate"),
            ("provenance", "paper"),
            ("provenance", None),
        ],
    )
    def test_malformed_row_label_or_provenance_rejected(self, field, value):
        """A row label that is not <order>/<zero-divisors> would fail only
        when the status is read, or read as FAIL, and a provenance outside
        the three tags would be judged as a confirmed row, so the entry
        refuses both when made and through _replace."""
        fields = {
            "name": "x",
            "paper_row": "8/6",
            "provenance": "paper-row",
            "recipe": "tri(gf:2,2)",
            "expected": (18, 14, 9, 4, 0, 3),
        }
        words = field.replace("_", " ")
        with pytest.raises(ValueError, match=words):
            CatalogEntry(**{**fields, field: value})
        with pytest.raises(ValueError, match=words):
            catalog_entry("t2f2")._replace(**{field: value})
        assert CatalogEntry(**fields)._replace(name="y").paper_row == "8/6"


class TestRunReport:
    def test_overall_pass(self, report):
        assert report.passed
        statuses = {r.entry.name: r.status for r in report.results}
        assert statuses.pop("row16_12") == "UNRESOLVED"
        assert set(statuses.values()) == {"PASS"}

    def test_one_fail_fails_the_report(self, report):
        """passed is read from the results, so one FAIL entry turns it off."""
        failing = evaluate_entry(
            catalog_entry("t2f2")._replace(expected=(18, 14, 9, 4, 0, 4))  # wrong MD
        )
        doctored = RunReport(results=(result_of(report, "m2f2"), failing))
        assert doctored.passed is False
        assert doctored.to_json_dict()["passed"] is False
        assert RunReport(results=(result_of(report, "m2f2"),)).passed is True

    def test_results_sorted_by_name(self, report):
        names = [r.entry.name for r in report.results]
        assert names == sorted(names)

    def test_m2f2_breakdown_is_pass(self, report):
        result = result_of(report, "m2f2")
        assert result.right_status == "breakdown"
        assert result.right_ok
        assert result.status == "PASS"
        assert len(result.right_class_sizes) > 1

    def test_other_right_lines_match_left(self, report):
        for r in report.results:
            if r.entry.name in ("m2f2", "row16_12"):
                continue
            assert r.right_status == "ok"
            assert r.right == r.left

    def test_entries_fast_enough(self, report):
        for r in report.results:
            assert r.elapsed_ms < 60_000

    def test_csv_schema_and_agreement_with_json(self, report):
        rows = list(csv.reader(io.StringIO(report.to_csv_text())))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 1 + len(report.results)
        for row, result in zip(rows[1:], report.results):
            entry_json = result.to_json_dict()
            assert row[0] == entry_json["paperRow"]
            if entry_json["left"] is None:
                assert row[1:10] == [""] * 9
            else:
                left = entry_json["left"]
                jcb = entry_json["jacobsonCandidates"]
                expected = [
                    left["tot"], left["tpI"], left["oneN"], left["cap2N"],
                    left["cap3N"], left["md"], jcb["A"], jcb["B"], jcb["C"],
                ]
                assert [int(v) for v in row[1:10]] == expected
            assert row[10] == entry_json["right"]["status"]

    def test_jcb_matrix(self, report):
        matrix = report.jcb_matrix()
        assert set(matrix) == {"A", "B", "C"}
        assert matrix["B"] == {
            "t2f2": True, "t2f3": True, "z3xt2f2": False, "m2f2": True,
            "z2xt2f2": True, "gf4xz4": False, "gf4xdualf2": False,
            "skewgf4": True, "f2xy": True,
        }

    def test_matches_golden_output(self, report):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["catalog"]
        as_dict = json.loads(json.dumps(report.to_json_dict()))
        for entry in as_dict["entries"]:
            del entry["elapsedMs"]
        assert as_dict == golden["report"]
        assert report.to_csv_text() == golden["csv"]


class TestEntryEvaluation:
    def test_unresolved_slot(self):
        result = evaluate_entry(catalog_entry("row16_12"))
        assert result.status == "UNRESOLVED"
        assert result.left is None and result.fingerprint is None
        assert result.right_status == "skipped"

    def test_failing_candidate_marked_unresolved(self):
        entry = catalog_entry("skewgf4")._replace(expected=(20, 20, 3, 0, 0, 4))  # wrong MD
        result = evaluate_entry(entry)
        assert result.status == "UNRESOLVED"
        assert not result.comparison["pass"]

    def test_failing_paper_row_marked_fail(self):
        entry = catalog_entry("t2f2")._replace(expected=(18, 14, 9, 4, 0, 4))  # wrong MD
        result = evaluate_entry(entry)
        assert result.status == "FAIL"
        report = run_catalog((entry,))
        assert not report.passed

    def test_one_distant_kernel_and_one_signing_per_ring(self, monkeypatch):
        """A catalog run computes one distant relation, groups one line's twin
        classes and signs one line per entry with a recipe: a commutative
        ring's right line is its left line, a non-commutative one's is
        gathered from it and reuses its twin classes and signature, and
        m2f2's right line breaks down."""
        calls = {"_distant": [], "_signature": [], "_twin_classes": []}
        for module, name in (
            (line_module, "_distant"), (stats_module, "_signature"), (stats_module, "_twin_classes")
        ):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, f=original, n=name: calls[n].append(1) or f(*args)
            )
        report = run_catalog()
        built = sum(e.recipe is not None for e in builtin_catalog())
        assert built == 9
        assert {name: len(made) for name, made in calls.items()} == {
            "_distant": built, "_signature": built, "_twin_classes": built
        }
        assert report.passed

    def test_unexpected_breakdown_would_fail(self):
        entry = catalog_entry("t2f2")._replace(right_breakdown_expected=True)
        result = evaluate_entry(entry)
        assert result.status == "FAIL"  # right line exists, so expectation is wrong


class TestTableOrder:
    def test_row_order_covers_catalog(self):
        rows = {e.paper_row for e in builtin_catalog()}
        assert rows == set(TABLE1_ROW_ORDER)


def _comparison(sig, expected, jcb=None) -> dict:
    entry = CatalogEntry("x", "8/6", "paper-row", "tri(gf:2,2)", expected, jcb=jcb)
    return catalog._comparison(entry, sig)


class TestCompareSignature:
    def test_pass(self):
        cmp = _comparison(signature(line_of("t2f2")), (18, 14, 9, 4, 0, 3), jcb=1)
        assert cmp["pass"]
        assert list(cmp["perColumn"]) == list(COLUMNS)
        assert all(c["pass"] for c in cmp["perColumn"].values())
        assert cmp["jcb"] == {"A": False, "B": True, "C": False}

    def test_fail_reports_columns(self):
        cmp = _comparison(signature(line_of("t2f2")), (18, 14, 10, 4, 0, 5), jcb=None)
        assert not cmp["pass"]
        failing = {name for name, c in cmp["perColumn"].items() if not c["pass"]}
        assert failing == {"oneN", "md"}
        assert cmp["perColumn"]["md"] == {"observed": 3, "expected": 5, "pass": False}
        assert cmp["jcb"] is None

    def test_constancy_required(self):
        doctored = signature(line_of("t2f2"))._replace(one_n=StatValue(lo=9, hi=10, count=4))
        cmp = _comparison(doctored, (18, 14, 9, 4, 0, 3))
        assert not cmp["pass"]
        assert cmp["perColumn"]["oneN"] == {"observed": 9, "expected": 9, "pass": False}


class TestRowStatus:
    @pytest.fixture(scope="class")
    def results(self):
        wrong_md = catalog_entry("t2f2")._replace(expected=(18, 14, 9, 4, 0, 4))
        return {
            "PASS": evaluate_entry(catalog_entry("t2f2")),
            "FAIL": evaluate_entry(wrong_md),
            "UNRESOLVED": evaluate_entry(wrong_md._replace(provenance="candidate")),
        }

    @pytest.mark.parametrize(
        "statuses, verdict",
        [
            (("PASS",), "PASS"),
            (("PASS", "PASS"), "PASS"),
            (("PASS", "UNRESOLVED"), "UNRESOLVED"),
            (("FAIL", "UNRESOLVED"), "FAIL"),
            (("UNRESOLVED", "FAIL"), "FAIL"),
            (("PASS", "FAIL"), "FAIL"),
            ((), "UNRESOLVED"),
        ],
    )
    def test_fail_then_unresolved_then_pass(self, results, statuses, verdict):
        """FAIL dominates, then UNRESOLVED; a row with no entry shows nothing."""
        assert {s: r.status for s, r in results.items()} == {s: s for s in results}
        assert row_status(results[s] for s in statuses) == verdict
