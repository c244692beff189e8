"""The package's records: their fields cannot be assigned, lines and points
compare by identity, value records print as they always have, and loading
the command line pulls in no ``dataclasses``."""

from __future__ import annotations

import pytest

from conftest import catalog_entry, catalog_report, line_of, result_of, run_python
from ringline import Point, ProjectiveLine, StatValue, parse_recipe

FIELDS = {
    "RingRecipe": "kind args",
    "RingFingerprint": "order unit_count zero_divisor_count characteristic radical_size"
    " maximal_left_ideal_count maximal_right_ideal_count maximal_two_sided_ideal_count"
    " commutative",
    "StatValue": "lo hi count",
    "LineSignature": "tot tpi one_n cap2n cap3n md jcb",
    "CatalogEntry": "name paper_row provenance recipe expected jcb right_breakdown_expected",
    "EntryResult": "entry fingerprint left comparison right right_class_sizes elapsed_ms",
    "RunReport": "results",
    "ProjectiveLine": "ring side codes rows adjacency derived",
    "Point": "rep members",
}


def _record(name: str):
    """An instance of the named record, from the catalog run and t2f2's line."""
    report = catalog_report()
    result = result_of(report, "t2f2")
    line = line_of("t2f2")
    return {
        "RingRecipe": parse_recipe("tri(gf:2,2)"),
        "RingFingerprint": result.fingerprint,
        "StatValue": result.left.one_n,
        "LineSignature": result.left,
        "CatalogEntry": result.entry,
        "EntryResult": result,
        "RunReport": report,
        "ProjectiveLine": line,
        "Point": line.points[0],
    }[name]


@pytest.mark.parametrize("name", FIELDS)
def test_fields_cannot_be_assigned(name):
    """Every field reads, and assigning it, or a new attribute, raises."""
    record = _record(name)
    assert type(record).__name__ == name
    for field in (*FIELDS[name].split(), "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field, None))


def test_lines_and_points_compare_by_identity():
    """Two lines over the same arrays, or two points of the same members,
    are different objects and unequal; each is equal to itself."""
    line = line_of("t2f2")
    twin = ProjectiveLine(line.ring, line.side, line.codes, line.rows, line.adjacency)
    point = line.points[0]
    same = Point(rep=point.rep, members=point.members)
    assert twin == twin and twin != line and len({twin, line}) == 2
    assert same == same and same != point and len({same, point}) == 2


def test_hand_built_line_starts_with_an_empty_derived_dict():
    line = line_of("t2f2")
    first, second = (
        ProjectiveLine(line.ring, line.side, line.codes, line.rows, line.adjacency)
        for _ in range(2)
    )
    assert first.derived == {} and second.derived == {}
    assert first.derived is not second.derived and first.derived is not line.derived


def test_value_record_reprs():
    assert repr(parse_recipe("prod(zn:3,tri(gf:2,2))")) == (
        "RingRecipe(kind='prod', args=(RingRecipe(kind='zn', args=(3,)), "
        "RingRecipe(kind='tri', args=(RingRecipe(kind='gf', args=(2,)), 2))))"
    )
    assert repr(StatValue(lo=1, hi=2, count=3)) == "StatValue(lo=1, hi=2, count=3)"
    assert repr(catalog_entry("t2f2")) == (
        "CatalogEntry(name='t2f2', paper_row='8/6', provenance='paper-row', "
        "recipe='tri(gf:2,2)', expected=(18, 14, 9, 4, 0, 3), jcb=1, "
        "right_breakdown_expected=False)"
    )


def test_cli_import_loads_no_dataclasses():
    """The records are named tuples and plain classes, so a process that
    loads the command line never imports ``dataclasses``."""
    run = run_python([], "import sys, ringline.cli; print('dataclasses' in sys.modules)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]
