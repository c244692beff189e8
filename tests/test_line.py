"""projline: admissibility, orbit classes, the distant relation."""

from __future__ import annotations

import json
import random
import tracemalloc
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from conftest import RECIPES, line_of, ring_of, run_python
from helpers import (
    det_is_unit,
    invertible_between,
    is_admissible,
    is_invertible_2x2,
    member_pairs,
)

from ringline import (
    OrderTooLarge,
    RightLineBreakdown,
    build_line,
    build_recipe,
    fingerprint,
    point_type,
    signature,
    unit_elements,
    validate_ring,
)
from ringline import core as core_module
from ringline import line as line_module

NONCOMMUTATIVE = ["t2f2", "t2f3", "z3xt2f2", "m2f2", "z2xt2f2", "skewgf4", "f2xy"]
CATALOG_NAMES = NONCOMMUTATIVE + ["gf4xz4", "gf4xdualf2"]

# read only: perfbench/capture_golden.py writes it from known-good sources
GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
LINES32 = json.loads(GOLDEN_PATH.with_name("spec.json").read_text(encoding="utf-8"))[
    "workloads"
]["lines32"]["rings"]
LINE_RECIPES = sorted(set(RECIPES.values()) | set(LINES32))
SMALL_RINGS = sorted(name for name in RECIPES if ring_of(name).order <= 16)
SAMPLED_RINGS = [r for r in LINES32 if 24 <= build_recipe(r).order <= 32] + ["tri(gf:4,2)"]
# the products among the lines32 rings, each with its two factors
PRODUCT_FACTORS = {
    "prod(zn:2,mat(gf:2,2))": ("zn:2", "mat(gf:2,2)"),
    "prod(zn:3,tri(gf:2,2))": ("zn:3", "tri(gf:2,2)"),
    "prod(gf:4,zn:4)": ("gf:4", "zn:4"),
    "prod(gf:4,dual(gf:2))": ("gf:4", "dual(gf:2)"),
    "prod(zn:2,tri(gf:2,2))": ("zn:2", "tri(gf:2,2)"),
    "prod(zn:2,prod(zn:2,tri(gf:2,2)))": ("zn:2", "prod(zn:2,tri(gf:2,2))"),
    "prod(gf:2,prod(gf:2,prod(gf:2,dual(gf:2))))": (
        "gf:2", "prod(gf:2,prod(gf:2,dual(gf:2)))"
    ),
}


def golden_lines() -> list:
    rings = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["rings"]
    return [
        pytest.param(recipe, side, record[side], id=f"{recipe}-{side}")
        for recipe, record in rings.items()
        if "left" in record
        for side in ("left", "right")
    ]


def lines_of(ring) -> list:
    """Both lines of the ring, less a right line that breaks down."""
    lines = [build_line(ring)]
    try:
        lines.append(build_line(ring, "right"))
    except RightLineBreakdown:
        pass
    return lines


def line_outcome(ring, side: str):
    """The line's signature, or the class sizes of its breakdown."""
    try:
        return signature(build_line(ring, side))
    except RightLineBreakdown as err:
        return err.class_sizes


class TestInvertible2x2:
    @pytest.mark.parametrize("name", ["z4", "gf4", "t2f2", "m2f2"])
    def test_identity_invertible(self, name):
        ring = ring_of(name)
        one = ring.one
        assert is_invertible_2x2(ring, ((one, 0), (0, one)))

    @pytest.mark.parametrize("name", ["z4", "gf4", "m2f2"])
    def test_equal_rows_never_invertible(self, name):
        ring = ring_of(name)
        rng = random.Random(name)
        for _ in range(10):
            row = (rng.randrange(ring.order), rng.randrange(ring.order))
            assert not is_invertible_2x2(ring, (row, row))

    def test_z4_examples(self):
        z4 = ring_of("z4")
        assert not is_invertible_2x2(z4, ((1, 1), (0, 2)))
        assert is_invertible_2x2(z4, ((1, 1), (0, 1)))

    @pytest.mark.parametrize("name", ["z4", "gf4", "dualf2"])
    def test_determinant_oracle_exhaustive(self, name):
        ring = ring_of(name)
        n = ring.order
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        matrix = ((a, b), (c, d))
                        assert is_invertible_2x2(ring, matrix) == det_is_unit(ring, matrix)

    @pytest.mark.parametrize("name", ["gf4xz4", "gf4xdualf2"])
    def test_determinant_oracle_sampled(self, name):
        ring = ring_of(name)
        rng = random.Random(name)
        for _ in range(500):
            matrix = (
                (rng.randrange(16), rng.randrange(16)),
                (rng.randrange(16), rng.randrange(16)),
            )
            assert is_invertible_2x2(ring, matrix) == det_is_unit(ring, matrix)


class TestAdmissible:
    @pytest.mark.parametrize("name", ["z4", "gf4", "t2f2", "m2f2"])
    def test_unit_first_coordinate(self, name):
        ring = ring_of(name)
        for r in range(ring.order):
            assert is_admissible(ring, (ring.one, r))

    @pytest.mark.parametrize("name", ["z4", "dualf2", "t2f2"])
    def test_oracle_matches_completion_loop(self, name):
        """The vectorised search against is_invertible_2x2 on each completion."""
        ring = ring_of(name)
        rows = [(c, d) for c in range(ring.order) for d in range(ring.order)]
        for pair in rows:
            found = any(is_invertible_2x2(ring, (pair, row)) for row in rows)
            assert is_admissible(ring, pair) == found

    def test_zero_pair(self):
        assert not is_admissible(ring_of("z4"), (0, 0))
        assert not is_admissible(ring_of("m2f2"), (0, 0))

    def test_z4_two_two(self):
        assert not is_admissible(ring_of("z4"), (2, 2))

    def test_gf4xz4_type_two_coordinates(self):
        # a = (1, 0), b = (0, 1): both zero-divisors, pair still admissible
        ring = ring_of("gf4xz4")
        a = 1 * 4 + 0
        b = 0 * 4 + 1
        assert ring.inv[a] < 0 and ring.inv[b] < 0
        assert is_admissible(ring, (a, b))


class TestBuildLine:
    @pytest.mark.parametrize(
        "name,expected",
        [("gf2", 3), ("gf3", 4), ("gf4", 5), ("z4", 6), ("dualf2", 6), ("t2f2", 18), ("m2f2", 35)],
    )
    def test_point_totals(self, name, expected):
        assert len(line_of(name)) == expected

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_left_class_sizes_and_partition(self, name):
        line = line_of(name)
        ring = line.ring
        nunits = len(unit_elements(ring))
        seen = set()
        store = line.points[0].members.base  # one read-only array of all members
        assert not store.flags.writeable
        for i, p in enumerate(line.points):
            assert p.members.base is store and not p.members.flags.writeable
            pairs = set(member_pairs(line, i))
            assert len(p.members) == len(pairs) == nunits
            assert p.rep == min(pairs)
            assert not (seen & pairs)
            seen |= pairs
        assert len(seen) == len(line.points) * nunits

    @pytest.mark.parametrize("name", SMALL_RINGS)
    def test_points_agree_with_admissibility_scan(self, name):
        """Every pair of every catalog ring of order <= 16 against the plain
        completion search."""
        line = line_of(name)
        ring = line.ring
        member_union = set()
        for i in range(len(line.points)):
            member_union |= set(member_pairs(line, i))
        for a in range(ring.order):
            for b in range(ring.order):
                assert is_admissible(ring, (a, b)) == ((a, b) in member_union)

    @pytest.mark.parametrize("recipe", SAMPLED_RINGS)
    def test_admissibility_sampled(self, recipe):
        ring = build_recipe(recipe)
        line = build_line(ring)
        member_union = set().union(*(member_pairs(line, i) for i in range(len(line.points))))
        rng = random.Random(f"admissible-{recipe}")
        for _ in range(200):
            pair = (rng.randrange(ring.order), rng.randrange(ring.order))
            assert is_admissible(ring, pair) == (pair in member_union)

    @pytest.mark.parametrize("recipe", LINE_RECIPES + ["mat(gf:3,2)", "tri(gf:4,2)"])
    def test_invertibility_only_between_points(self, recipe, monkeypatch):
        """On each side, the distant adjacency between the points equals the
        float32 column count over all n^2 columns."""
        monkeypatch.setattr(core_module, "ENUMERATION_CAP", 81)
        ring = build_recipe(recipe)
        for line in lines_of(ring):
            codes = [a * ring.order + b for a, b in (p.rep for p in line.points)]
            assert np.array_equal(line.adjacency, invertible_between(ring, codes))

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_uncompletable_point_raises(self, flags):
        """A planted non-unimodular pair has no t with a + b*t a unit, which
        breaks the stable-rank step; over GF(2) x GF(2), |U| = 1 lets it pass
        the orbit and class-size checks. The check is no assert statement, so
        python -O keeps it."""
        ring = build_recipe("prod(gf:2,gf:2)")
        assert len(unit_elements(ring)) == 1 and not is_admissible(ring, (1, 1))
        script = (
            "from ringline import build_line, build_recipe, line\n"
            "ring = build_recipe('prod(gf:2,gf:2)')\n"
            "line._admissible(ring)[1 * 4 + 1] = True\n"
            "build_line(ring)\n"
        )
        run = run_python(flags, script)
        assert run.returncode == 1
        assert "AssertionError: unimodular pair with no completion" in run.stderr

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    @pytest.mark.parametrize("entry", ["0, 1", "0, 0"], ids=["asymmetric", "reflexive"])
    def test_bad_adjacency_raises(self, flags, entry):
        """A distant relation that is not symmetric or has a True diagonal
        is rejected, also under python -O."""
        script = (
            "from ringline import build_line, build_recipe, line\n"
            "distant = line._distant\n"
            "def planted(ring, codes):\n"
            "    adj = distant(ring, codes)\n"
            f"    adj[{entry}] = not adj[{entry}]\n"
            "    return adj\n"
            "line._distant = planted\n"
            "build_line(build_recipe('zn:4'))\n"
        )
        run = run_python(flags, script)
        assert run.returncode == 1
        assert "AssertionError: distant relation not symmetric and irreflexive" in run.stderr

    def test_adjacency_symmetric_irreflexive(self):
        for recipe in LINE_RECIPES:
            for line in lines_of(build_recipe(recipe)):
                assert np.array_equal(line.adjacency, line.adjacency.T)
                assert not line.adjacency.diagonal().any()

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_orbit_labels_match_plain_minimum(self, name):
        ring = ring_of(name)
        n, mul = ring.order, ring.mul.tolist()
        us = unit_elements(ring)
        pairs = [(a, b) for a in range(n) for b in range(n)]
        left = [min(mul[u][a] * n + mul[u][b] for u in us) for a, b in pairs]
        right = [min(mul[a][u] * n + mul[b][u] for u in us) for a, b in pairs]
        assert line_module.orbit_labels(ring, "left").tolist() == left
        assert line_module.orbit_labels(ring, "right").tolist() == right

    @pytest.mark.parametrize("units_per_block", [1, 3])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_orbit_labels_in_many_unit_blocks(self, name, units_per_block, monkeypatch):
        """The same labels when the units are taken one or three at a time:
        many blocks, and with three a ragged last one on most rings."""
        n = ring_of(name).order
        monkeypatch.setattr(line_module, "LABEL_BLOCK_CELLS", units_per_block * n * n)
        self.test_orbit_labels_match_plain_minimum(name)

    def test_memory_bounded_past_the_cap(self, monkeypatch):
        """Orbit labels take O(n^2) bytes and the line O(points * (n +
        points)); the units x n^2 and points x n^2 arrays they replace
        peaked at 10.3 and 49.2 MB on this ring."""
        monkeypatch.setattr(core_module, "ENUMERATION_CAP", 125)
        ring = build_recipe("tri(gf:5,2)")
        tracemalloc.start()
        try:
            line_module.orbit_labels(ring, "left")
            labels_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            build_line(ring)
            line_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels_peak < 1_000_000
        assert line_peak < 8_000_000

    def test_largest_line_memory_bounded(self):
        """The line over (F2)^6, order 64, has 3^6 = 729 points; with its
        signature it peaked at 133 MB, most of it the (distant pairs x
        points) array behind cap3N."""
        ring = build_recipe("prod(gf:2,prod(gf:2,prod(gf:2,prod(gf:2,prod(gf:2,gf:2)))))")
        tracemalloc.start()
        try:
            sig = signature(build_line(ring))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sig.tot == 729
        assert peak < 200 * 2**20

    def test_order_cap(self):
        big = build_recipe("prod(tri(gf:4,2),zn:2)")  # order 128
        with pytest.raises(OrderTooLarge):
            build_line(big)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            build_line(ring_of("z4"), "middle")


class TestRightLine:
    def test_m2f2_breaks_down(self):
        with pytest.raises(RightLineBreakdown) as info:
            build_line(ring_of("m2f2"), "right")
        sizes = info.value.class_sizes
        assert len(sizes) > 1  # genuinely non-constant multiset
        assert sum(size * count for size, count in sizes.items()) == 35 * 6

    def test_m2f2_opposite_ring(self):
        """Over M2(GF(2))^op the sides swap: the left line keeps its signature,
        and the right line breaks down as M2(GF(2))'s does."""
        ring = ring_of("m2f2")
        opposite = validate_ring(ring.add, ring.mul.T, ring.one)
        fp = fingerprint(ring)
        assert fingerprint(opposite) == replace(
            fp,
            maximal_left_ideal_count=fp.maximal_right_ideal_count,
            maximal_right_ideal_count=fp.maximal_left_ideal_count,
        )
        assert signature(build_line(opposite, "left")).as_row() == (35, 26, 18, 9, 3, 5)
        with pytest.raises(RightLineBreakdown) as info:
            build_line(opposite, "right")
        assert info.value.class_sizes == {6: 32, 3: 6}

    @pytest.mark.parametrize("recipe", LINES32)
    def test_opposite_ring_swaps_sides(self, recipe):
        """R^op's fingerprint swaps R's maximal left and right ideal counts,
        while each line of R^op has the signature, or the breakdown, of R's
        line on the same side. Transposing turns rows of invertible matrices
        over R^op into columns over R; the first column of N goes to the
        second row of N^-1, which keeps distance and maps unit orbits to
        unit orbits of the same side; a commutative ring is its own opposite."""
        ring = build_recipe(recipe)
        opposite = validate_ring(ring.add, ring.mul.T, ring.one)
        fp = fingerprint(ring)
        assert fingerprint(opposite) == replace(
            fp,
            maximal_left_ideal_count=fp.maximal_right_ideal_count,
            maximal_right_ideal_count=fp.maximal_left_ideal_count,
        )
        for side in ("left", "right"):
            assert line_outcome(opposite, side) == line_outcome(ring, side)

    @pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if n != "m2f2"])
    def test_right_line_exists_elsewhere(self, name):
        line = line_of(name, "right")
        assert len(line) == len(line_of(name))


class TestDistant:
    def test_field_lines_pairwise_distant(self):
        for name, q in (("gf2", 2), ("gf3", 3), ("gf4", 4)):
            line = line_of(name)
            assert len(line) == q + 1
            for i, j in combinations(range(len(line)), 2):
                assert line.adjacency[i, j]

    def test_z4_three_non_distant_pairs(self):
        line = line_of("z4")
        non_distant = [
            (i, j) for i, j in combinations(range(6), 2) if not line.adjacency[i, j]
        ]
        assert len(non_distant) == 3
        # each point has a unique neighbour
        flattened = [p for pair in non_distant for p in pair]
        assert sorted(flattened) == list(range(6))

    def test_m2f2_distant_degree(self):
        line = line_of("m2f2")
        degrees = line.adjacency.sum(axis=1)
        assert (degrees == 16).all()  # 35 - 1 - 18 neighbours

    # left ids stay bare names; the right line over m2f2 breaks down
    @pytest.mark.parametrize(
        "name,side",
        [pytest.param(n, "left", id=n) for n in CATALOG_NAMES]
        + [
            pytest.param(
                n, "right", id=f"{n}-right",
                marks=pytest.mark.skip(reason="no right line") if n == "m2f2" else (),
            )
            for n in CATALOG_NAMES
        ],
    )
    def test_representative_independence_sampled(self, name, side):
        line = line_of(name, side)
        ring = line.ring
        rng = random.Random(f"reps-{name}-{side}")
        points = line.points
        for _ in range(50):
            i, j = rng.sample(range(len(points)), 2)
            row1 = rng.choice(member_pairs(line, i))
            row2 = rng.choice(member_pairs(line, j))
            assert is_invertible_2x2(ring, (row1, row2)) == line.adjacency[i, j]


class TestPointType:
    def test_unit_coordinate_points_are_type_one(self):
        line = line_of("z4")
        for i, p in enumerate(line.points):
            if line.ring.inv[p.rep[0]] >= 0 or line.ring.inv[p.rep[1]] >= 0:
                assert point_type(line, i) == "TypeI"

    def test_m2f2_type_one_count(self):
        line = line_of("m2f2")
        assert sum(point_type(line, i) == "TypeI" for i in range(len(line))) == 26

    def test_gf4xz4_type_one_count(self):
        line = line_of("gf4xz4")
        kinds = [point_type(line, i) for i in range(len(line))]
        assert len(line) == 30 and kinds.count("TypeI") == 26

    def test_class_invariance(self):
        line = line_of("t2f2")
        ring = line.ring
        for i in range(len(line.points)):
            flags = {ring.inv[a] >= 0 or ring.inv[b] >= 0 for a, b in member_pairs(line, i)}
            assert len(flags) == 1
            assert (point_type(line, i) == "TypeI") == flags.pop()


@pytest.mark.parametrize("product", sorted(PRODUCT_FACTORS))
def test_left_line_product_law(product):
    """P(S x T) is P(S) x P(T), distant exactly when both coordinates are:
    point counts, degrees and edge counts multiply."""
    line = build_line(build_recipe(product))
    s, t = (build_line(build_recipe(factor)) for factor in PRODUCT_FACTORS[product])
    assert len(line) == len(s) * len(t)
    degrees = np.outer(s.adjacency.sum(axis=1), t.adjacency.sum(axis=1))
    assert sorted(line.adjacency.sum(axis=1)) == sorted(degrees.ravel())
    assert line.adjacency.sum() == s.adjacency.sum() * t.adjacency.sum()


def test_product_law_covers_lines32_products():
    assert set(PRODUCT_FACTORS) == {r for r in LINES32 if r.startswith("prod(")}


@pytest.mark.parametrize("recipe,side,expected", golden_lines())
def test_matches_golden_lines(recipe, side, expected):
    """Order-32 lines of up to 162 points against the benchmark's golden file."""
    ring = build_recipe(recipe)
    if "breakdown" in expected:
        with pytest.raises(RightLineBreakdown) as info:
            build_line(ring, side)
        assert info.value.class_sizes == {int(k): v for k, v in expected["breakdown"].items()}
        return
    sig = signature(build_line(ring, side))
    assert list(sig.as_row()) == expected["row"]
    for key, stat in (("oneN", sig.one_n), ("cap2N", sig.cap2n), ("cap3N", sig.cap3n)):
        assert [stat.value, stat.constant, stat.lo, stat.hi, stat.count] == expected[key]
    assert dict(sig.jcb) == expected["jcb"]
