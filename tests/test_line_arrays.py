"""Lines as arrays, built and signed once per ring and side; a commutative
ring's right line is its left line, and a non-commutative ring's right line
reads its adjacency and its checked signature off the left line, which
exists exactly when R/J has no matrix block."""

from __future__ import annotations

import gc
import json
import random
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import run_python
from helpers import is_admissible, line_arrays_oracle, relabel

from ringline import (
    OrderTooLarge,
    RightLineBreakdown,
    build_line,
    build_recipe,
    is_commutative,
    semisimple_blocks,
    signature,
    unit_elements,
    validate_ring,
)
from ringline import core as core_module
from ringline import line as line_module
from ringline import stats as stats_module
from ringline.line import ProjectiveLine

# read only: perfbench/capture_golden.py writes it from known-good sources
GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


GOLDEN_RINGS = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["rings"]
COMMUTATIVE_GOLDEN = [
    recipe
    for recipe, record in GOLDEN_RINGS.items()
    if "left" in record and is_commutative(build_recipe(recipe))
]
TABLES = ["plain", "relabelled", "opposite"]


def fresh_ring(recipe: str, tables: str):
    """A new ring, so nothing is cached: the recipe's plain tables, a
    relabelling, or the opposite ring (mul.T)."""
    ring = build_recipe(recipe)
    if tables == "relabelled":
        ring = relabel(ring, [0, *random.Random(recipe).sample(range(1, ring.order), ring.order - 1)])
    elif tables == "opposite":
        ring = validate_ring(ring.add, ring.mul.T, ring.one, name=f"{ring.name}^op")
    return ring


def right_line_or_none(ring):
    """The ring's right line, built before its left line; None when it breaks
    down, which on the golden rings is exactly when R/J has a matrix block."""
    matrix_block = any(k > 1 for _, k in semisimple_blocks(ring))
    try:
        right = build_line(ring, "right")
    except RightLineBreakdown:
        assert matrix_block
        return None
    assert not matrix_block
    return right


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

    def test_replaced_and_hand_built_lines_signed_from_their_own_adjacency(self):
        """A line made by dataclasses.replace, or built by hand over the same
        arrays, never shares the record's dict: each is signed afresh."""
        ring = build_recipe("tri(gf:2,2)")
        line = build_line(ring)
        kept = signature(line)
        assert build_line(ring).derived is line.derived and line.derived["signature"] is kept
        cut = line.adjacency.copy()  # one distant pair made near
        i, j = np.argwhere(cut)[0]
        cut[i, j] = cut[j, i] = False
        replaced = replace(line, adjacency=cut)
        hand_built = ProjectiveLine(ring, "left", line.codes, line.rows, line.adjacency)
        for other in (replaced, hand_built, replace(line)):
            assert other.derived == {}
        assert signature(replaced) == stats_module._signature(replaced)
        assert (signature(replaced).one_n.hi, kept.one_n.hi) == (10, 9)
        assert signature(hand_built) == kept and signature(hand_built) is not kept
        assert line.derived["signature"] is kept

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


def counted(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records the arguments of each
    call; the list of calls is returned."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


class TestRightLinePullback:
    @pytest.mark.parametrize("tables", TABLES)
    @pytest.mark.parametrize("recipe", sorted(GOLDEN_RINGS))
    def test_adjacency_is_distant_on_right_codes(self, recipe, tables, monkeypatch):
        """Built alone, the right line equals the one built after the left
        line, and its gathered adjacency equals _distant on its own codes;
        _distant runs once, for the left line."""
        ring = fresh_ring(recipe, tables)
        distant_calls = counted(monkeypatch, line_module, "_distant")
        right = right_line_or_none(ring)
        if right is None:
            return
        assert len(distant_calls) == 1
        assert np.array_equal(right.adjacency, line_module._distant(ring, right.codes))
        other = fresh_ring(recipe, tables)
        build_line(other)
        after_left = build_line(other, "right")
        for mine, theirs in zip(
            (right.codes, right.rows, right.adjacency),
            (after_left.codes, after_left.rows, after_left.adjacency),
        ):
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("tables", TABLES)
    @pytest.mark.parametrize("recipe", sorted(GOLDEN_RINGS))
    def test_signature_equals_fresh_signing(self, recipe, tables, monkeypatch):
        """The right signature equals _signature of a hand-built line over
        the same arrays. One line is signed: a non-commutative ring's left
        line, or a commutative ring's right line, which is its left line."""
        ring = fresh_ring(recipe, tables)
        right = right_line_or_none(ring)
        if right is None:
            return
        signing_calls = counted(monkeypatch, stats_module, "_signature")
        got = signature(right)
        assert len(signing_calls) == 1
        (signed,) = signing_calls[0]
        assert signed.side == ("right" if is_commutative(ring) else "left")
        hand_built = ProjectiveLine(ring, "right", right.codes, right.rows, right.adjacency)
        assert got == stats_module._signature(hand_built)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_unfilled_twin_classes_raise(self, flags):
        """A right line whose left points do not fill the left twin classes
        is refused, also under python -O: the right points held by the
        second twin class are planted in the first, which then holds twice
        as many as it has points."""
        script = (
            "import numpy as np\n"
            "from ringline import build_line, build_recipe, signature\n"
            "from ringline.stats import _twins\n"
            "ring = build_recipe('tri(gf:2,2)')\n"
            "right = build_line(ring, 'right')\n"
            "_, classes, sizes, first = _twins(build_line(ring))\n"
            "held = right.derived['held']\n"
            "assert sizes[0] == sizes[1]\n"
            "right.derived['held'] = np.where(classes[held] == 1, first[0], held)\n"
            "signature(right)\n"
        )
        run = run_python(flags, script)
        assert run.returncode == 1
        assert "AssertionError: right points do not fill the left twin classes" in run.stderr

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_missing_left_point_raises(self, flags):
        """A right representative outside every left class is refused, also
        under python -O: the left line's first point is planted as a copy of
        its second."""
        script = (
            "from ringline import build_line, build_recipe\n"
            "ring = build_recipe('tri(gf:2,2)')\n"
            "left = build_line(ring)\n"
            "rows = left.rows.copy()\n"
            "rows[0] = rows[1]\n"
            "ring._cache['line', 'left'] = (left.codes, rows, left.adjacency)\n"
            "build_line(ring, 'right')\n"
        )
        run = run_python(flags, script)
        assert run.returncode == 1
        assert "AssertionError: admissible pair in no left point" in run.stderr


class TestRightLineTheorem:
    """build_line(ring, "right") breaks down exactly when R/J has a block
    M_k(GF(q)) with k >= 2 (the proof is in the ringline.stats docstring)."""

    def test_rings_include_matrix_products(self):
        assert {"prod(zn:2,mat(gf:2,2))", "prod(zn:4,mat(gf:2,2))"} <= set(GOLDEN_RINGS)

    @pytest.mark.parametrize("tables", TABLES)
    @pytest.mark.parametrize("recipe", sorted(GOLDEN_RINGS))
    def test_breakdown_exactly_on_matrix_blocks(self, recipe, tables):
        ring = fresh_ring(recipe, tables)
        matrix_block = any(k >= 2 for _, k in semisimple_blocks(ring))
        try:
            build_line(ring, "right")
        except RightLineBreakdown as info:
            assert matrix_block
            assert min(info.class_sizes) < len(unit_elements(ring))
        else:
            assert not matrix_block

    def test_matrix_block_witness(self):
        """On M_2(GF(2)), (a, b) = (1 - E22, E21) is admissible, as a + b*E12
        = 1, and fixed on the right by the unit u = 1 + E21 != 1, so its right
        class has fewer than |U| members."""
        ring = build_recipe("mat(gf:2,2)")
        # an element's index is its row-major entry tuple read in base 2
        one, e22, e21, e12 = (
            int(np.ravel(m) @ [8, 4, 2, 1])
            for m in ([[1, 0], [0, 1]], [[0, 0], [0, 1]], [[0, 0], [1, 0]], [[0, 1], [0, 0]])
        )
        assert ring.one == one
        a, b, u = ring.add[one, ring.neg[e22]], e21, ring.add[one, e21]
        assert ring.add[a, ring.mul[b, e12]] == one and is_admissible(ring, (a, b))
        assert ring.inv[u] >= 0 and u != one
        assert (ring.mul[a, u], ring.mul[b, u]) == (a, b)
        labels = line_module.orbit_labels(ring, "right")
        orbit = labels == labels[a * ring.order + b]
        assert orbit.sum() < len(unit_elements(ring))
