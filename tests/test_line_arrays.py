"""Lines as arrays, built and signed once per ring and side; a commutative
ring's right line is its left line."""

from __future__ import annotations

import gc
import json
import random
import weakref
from pathlib import Path

import numpy as np
import pytest

from helpers import line_arrays_oracle, relabel

from ringline import (
    OrderTooLarge,
    RightLineBreakdown,
    build_line,
    build_recipe,
    is_commutative,
    signature,
)
from ringline import core as core_module
from ringline import line as line_module

# read only: perfbench/capture_golden.py writes it from known-good sources
GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


COMMUTATIVE_GOLDEN = [
    recipe
    for recipe, record in json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["rings"].items()
    if "left" in record and is_commutative(build_recipe(recipe))
]


class TestSharedRightLine:
    def test_golden_rings_include_commutative_ones(self):
        assert len(COMMUTATIVE_GOLDEN) == 5

    @pytest.mark.parametrize("relabelled", [False, True], ids=["plain", "relabelled"])
    @pytest.mark.parametrize("recipe", COMMUTATIVE_GOLDEN)
    def test_right_line_is_the_left_line(self, recipe, relabelled):
        """On a commutative ring the right orbits are the left ones, and the
        right line, built first here, is the left line's arrays; both equal
        the line rebuilt from the right labels by the plain oracles."""
        ring = build_recipe(recipe)
        if relabelled:
            perm = random.Random(recipe).sample(range(1, ring.order), ring.order - 1)
            ring = relabel(ring, [0, *perm])
        labels = line_module.orbit_labels(ring, "right")
        assert np.array_equal(labels, line_module.orbit_labels(ring, "left"))
        right = build_line(ring, "right")
        left = build_line(ring)
        assert (right.side, left.side) == ("right", "left")
        for got, shared, want in zip(
            (right.codes, right.rows, right.adjacency),
            (left.codes, left.rows, left.adjacency),
            line_arrays_oracle(ring, labels),
        ):
            assert got is shared
            assert np.array_equal(got, want)

    def test_noncommutative_right_line_has_its_own_arrays(self):
        ring = build_recipe("tri(gf:2,2)")
        left, right = build_line(ring), build_line(ring, "right")
        for mine, other in zip(
            (right.codes, right.rows, right.adjacency), (left.codes, left.rows, left.adjacency)
        ):
            assert not np.shares_memory(mine, other)
        assert build_line(ring, "right").adjacency is right.adjacency

    def test_breakdown_after_the_left_line(self):
        """The left line in the cache does not stand in for a right line
        that breaks down, on either call."""
        ring = build_recipe("mat(gf:2,2)")
        build_line(ring)
        for _ in range(2):
            with pytest.raises(RightLineBreakdown) as info:
                build_line(ring, "right")
            assert info.value.class_sizes == {6: 32, 3: 6}


class TestLineArrays:
    def test_ring_freed_by_reference_counting(self):
        """The ring's cache holds arrays and signatures, never a line, so with
        the cycle collector off the ring goes as soon as its last reference
        does. A ring takes no weak reference (it has slots), so its own
        inverse table, held by nothing else, stands in for it."""
        gc.disable()
        try:
            ring = build_recipe("tri(gf:2,2)")
            lines = [build_line(ring), build_line(ring, "right")]
            sigs = [signature(line) for line in lines]
            watched = [weakref.ref(ring.inv), weakref.ref(lines[0].adjacency)]
            del ring, lines, sigs
            assert [ref() for ref in watched] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_arrays_read_only(self, side):
        line = build_line(build_recipe("prod(gf:4,zn:4)"), side)
        for array in (line.codes, line.rows, line.adjacency):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1

    def test_cached_line_still_capped(self, monkeypatch):
        ring = build_recipe("prod(gf:4,zn:4)")
        build_line(ring)
        build_line(ring, "right")
        monkeypatch.setattr(core_module, "ENUMERATION_CAP", ring.order - 1)
        for side in ("left", "right"):
            with pytest.raises(OrderTooLarge):
                build_line(ring, side)

    def test_points_built_once_from_the_arrays(self):
        line = build_line(build_recipe("zn:8"))
        assert "points" not in vars(line)
        assert len(line) == 12 and repr(line) == "ProjectiveLine(ring='Z8', side='left', points=12)"
        assert "points" not in vars(line)
        points = line.points
        assert line.points is points
        assert [a * 8 + b for a, b in (p.rep for p in points)] == line.codes.tolist()
        assert all(p.members.base is line.rows for p in points)
