"""line-stats: neighbourhoods, intersection statistics, signatures."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import random
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import line_of, ring_of, run_python
from helpers import (
    brute_lex_least_max_clique,
    closed_form_row,
    jacobson_c_oracle,
    maximal_ideals,
    pair_intersection_oracle,
    relabel,
    triple_intersection_oracle,
)

from ringline import (
    NoDistantPair,
    UnknownCandidate,
    jacobson_radical,
    jacobson_stat,
    max_distant_set,
    maximal_ideal_count,
    pair_intersection_stat,
    semisimple_blocks,
    signature,
    triple_intersection_stat,
)
from ringline import RightLineBreakdown, build_recipe, builtin_catalog, clique, is_commutative
from ringline import validate_ring
from ringline import core as core_module
from ringline import line as line_module
from ringline import stats as stats_module
from ringline.line import ProjectiveLine, build_line, orbit_labels
from ringline.stats import StatValue, one_neighbourhood_stat

CATALOG_NAMES = [
    "t2f2", "t2f3", "z3xt2f2", "m2f2", "z2xt2f2",
    "gf4xz4", "gf4xdualf2", "skewgf4", "f2xy",
]

# frozen classification rows: (Tot, TpI, 1N, cap2N, cap3N, MD)
EXPECTED_ROWS = {
    "t2f2": (18, 14, 9, 4, 0, 3),
    "t2f3": (48, 42, 20, 6, 0, 4),
    "z3xt2f2": (72, 44, 47, 28, 12, 3),
    "m2f2": (35, 26, 18, 9, 3, 5),
    "z2xt2f2": (54, 30, 37, 24, 12, 3),
    "gf4xz4": (30, 26, 13, 4, 0, 3),
    "gf4xdualf2": (30, 26, 13, 4, 0, 3),
    "skewgf4": (20, 20, 3, 0, 0, 5),
    "f2xy": (24, 24, 7, 0, 0, 3),
}


def synthetic_line(adjacency: np.ndarray) -> ProjectiveLine:
    """A bare line around a given adjacency matrix (for edge-case tests)."""
    ring = ring_of("z4")
    i = np.arange(adjacency.shape[0])
    codes = 4 + i % 4  # the points (1, i mod 4)
    rows = np.stack([codes, 12 + (3 * i) % 4], axis=1)
    return ProjectiveLine(ring=ring, side="left", codes=codes, rows=rows, adjacency=adjacency)


def neighbourhood(line: ProjectiveLine, i: int) -> set[int]:
    """{ j != i : j not distant from i }: row i of ~line.adjacency, less i."""
    return set(np.flatnonzero(~line.adjacency[i]).tolist()) - {i}


class TestNeighbourhood:
    def test_field_line_empty(self):
        line = line_of("gf2")
        for i in range(len(line)):
            assert neighbourhood(line, i) == set()

    def test_z4_singletons(self):
        line = line_of("z4")
        for i in range(len(line)):
            assert len(neighbourhood(line, i)) == 1

    def test_m2f2_eighteen(self):
        line = line_of("m2f2")
        for i in range(len(line)):
            assert len(neighbourhood(line, i)) == 18

    def test_self_excluded(self):
        """Row i of ~adjacency holds i itself, since no point is distant
        from itself; the neighbourhood leaves it out."""
        line = line_of("t2f2")
        for i in range(len(line)):
            assert not line.adjacency[i, i]
            assert i not in neighbourhood(line, i)


class TestPairIntersection:
    def test_m2f2(self):
        stat = pair_intersection_stat(line_of("m2f2"))
        assert (stat.value, stat.constant) == (9, True)

    def test_gf4xz4(self):
        stat = pair_intersection_stat(line_of("gf4xz4"))
        assert (stat.value, stat.constant) == (4, True)

    def test_field_line_zero(self):
        stat = pair_intersection_stat(line_of("gf2"))
        assert (stat.value, stat.constant) == (0, True)

    def test_no_distant_pair(self):
        adj = np.zeros((2, 2), dtype=bool)
        with pytest.raises(NoDistantPair):
            pair_intersection_stat(synthetic_line(adj))


class TestTripleIntersection:
    def test_m2f2(self):
        stat = triple_intersection_stat(line_of("m2f2"))
        assert (stat.value, stat.constant, stat.vacuous) == (3, True, False)

    def test_gf4xz4(self):
        stat = triple_intersection_stat(line_of("gf4xz4"))
        assert (stat.value, stat.constant) == (0, True)
        assert not stat.vacuous  # triples exist, intersections are empty

    def test_z3xt2f2(self):
        stat = triple_intersection_stat(line_of("z3xt2f2"))
        assert (stat.value, stat.constant) == (12, True)

    def test_no_triple_reported_not_raised(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        stat = triple_intersection_stat(synthetic_line(adj))
        assert stat.vacuous and stat.value == 0 and stat.constant


def _graph(n: int, edges: list[bool]) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu_indices(n, 1)] = edges
    return adj | adj.T


symmetric_graphs = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
        lambda edges: _graph(n, edges)
    )
)


def _spread(values) -> tuple[int, bool, int, int, int]:
    """(value, constant, lo, hi, count) as a StatValue should report them."""
    values = [int(v) for v in values]
    if not values:
        return (0, True, 0, 0, 0)
    lo, hi = min(values), max(values)
    return (lo, lo == hi, lo, hi, len(values))


def _fields(stat: StatValue) -> tuple[int, bool, int, int, int]:
    return (stat.value, stat.constant, stat.lo, stat.hi, stat.count)


def test_stat_value_derives_value_and_constancy():
    """value is the minimum and constant is lo == hi, read from the spread."""
    stat = StatValue(lo=9, hi=10, count=4)
    assert stat.value == 9 and stat.constant is False and not stat.vacuous
    assert _fields(StatValue.of(np.array([7, 7, 7]))) == (7, True, 7, 7, 3)


def test_stat_value_union_skips_vacuous_parts():
    """Blocks merge into one spread; a weighted entry counts its multiplicity."""
    parts = [StatValue.of(np.array([5, 3])), StatValue(0, 0, 0), StatValue.of(np.array([4]), np.array([6]))]
    assert _fields(StatValue.union(parts)) == (3, False, 3, 5, 8)
    assert StatValue.union([StatValue(0, 0, 0)]).vacuous


def test_stat_value_of_nothing_is_vacuous_and_constant():
    stat = StatValue.of(np.array([], dtype=int))
    assert stat.vacuous and stat.constant is True
    assert _fields(stat) == (0, True, 0, 0, 0)
    assert stat.to_json_dict() == {"value": 0, "constant": True, "min": 0, "max": 0, "count": 0}


@given(adj=symmetric_graphs)
@example(adj=_graph(4, [False] * 6))  # no distant pair
@example(adj=_graph(3, [True, False, True]))  # distant pairs, no distant triple
@example(adj=_graph(4, [True] * 6))  # complete
@example(adj=_graph(4, [True, True, False, True, False, False]))  # one universal neighbour
@settings(max_examples=80, deadline=None)
def test_stats_match_matrix_counts(adj):
    """The matrix statistics against set intersections over the graph."""
    n = adj.shape[0]
    nbhd = [{v for v in range(n) if v != u and not adj[u, v]} for u in range(n)]
    pairs = [(u, v) for u, v in combinations(range(n), 2) if adj[u, v]]
    triples = [
        t for t in combinations(range(n), 3) if all(adj[u, v] for u, v in combinations(t, 2))
    ]
    line = synthetic_line(adj)
    assert [neighbourhood(line, u) for u in range(n)] == nbhd
    assert _fields(one_neighbourhood_stat(line)) == _spread(len(s) for s in nbhd)
    if pairs:
        expected = _spread(len(nbhd[u] & nbhd[v]) for u, v in pairs)
        assert _fields(pair_intersection_stat(line)) == expected
    else:
        with pytest.raises(NoDistantPair):
            pair_intersection_stat(line)
    expected = _spread(len(nbhd[u] & nbhd[v] & nbhd[w]) for u, v, w in triples)
    assert _fields(triple_intersection_stat(line)) == expected
    assert jacobson_stat(line, "A") == sum(len(s) == n - 1 for s in nbhd)


def _blow_up(base: np.ndarray, sizes: list[int], order: list[int]) -> np.ndarray:
    """The points of each base vertex v made sizes[v] twins (equal distant
    rows, never distant from each other), then listed in the given order."""
    cls = np.repeat(np.arange(len(base)), sizes)[order]
    return base[np.ix_(cls, cls)]


@st.composite
def twin_graphs(draw) -> np.ndarray:
    """A random irreflexive graph on up to 8 vertices with 1-3 twins each."""
    base = draw(symmetric_graphs.filter(lambda adj: len(adj) <= 8))
    sizes = draw(st.lists(st.integers(1, 3), min_size=len(base), max_size=len(base)))
    order = draw(st.permutations(range(sum(sizes))))
    return _blow_up(base, sizes, list(order))


# triangles 012 and 234, vertex 5 distant from none, vertex 6 only from 0
PLANTED = _blow_up(
    _graph(7, [e in {(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (0, 6)}
               for e in combinations(range(7), 2)]),
    [1, 2, 1, 3, 1, 2, 3],
    list(range(12, -1, -1)),
)


def _lo_hi_count(stat: StatValue) -> tuple[int, int, int]:
    return (stat.lo, stat.hi, stat.count)


def test_planted_twins_vary():
    """The planted example has twins and non-constant cap2N and cap3N."""
    line = synthetic_line(PLANTED)
    assert len(np.unique(PLANTED, axis=0)) < len(PLANTED)
    assert not pair_intersection_stat(line).constant
    assert not triple_intersection_stat(line).constant


@given(adj=twin_graphs())
@example(adj=PLANTED)
@settings(max_examples=80, deadline=None)
def test_twin_quotient_matches_point_oracles(adj):
    """cap2N and cap3N from twin classes against the per-point products."""
    line = synthetic_line(adj)
    if adj.any():
        assert _lo_hi_count(pair_intersection_stat(line)) == pair_intersection_oracle(adj)
    assert _lo_hi_count(triple_intersection_stat(line)) == triple_intersection_oracle(adj)


@st.composite
def mixed_graphs(draw) -> np.ndarray:
    """A random graph on up to 6 vertices, then up to 2 vertices distant
    from all of them and each other and up to 2 isolated ones, blown up to
    1-4 twins each. A pair with a universal class has no common neighbour,
    so its triples are counted, unless an isolated vertex is near both."""
    base = draw(symmetric_graphs.filter(lambda adj: len(adj) <= 6))
    universal, isolated = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    m, k = len(base), len(base) + universal
    adj = np.zeros((k + isolated,) * 2, dtype=bool)
    adj[:m, :m] = base
    adj[m:k, :k] = adj[:k, m:k] = True
    np.fill_diagonal(adj, False)
    sizes = draw(st.lists(st.integers(1, 4), min_size=len(adj), max_size=len(adj)))
    order = draw(st.permutations(range(sum(sizes))))
    return _blow_up(adj, sizes, list(order))


# a triangle of classes of 1, 2 and 3 points, a class of 2 distant from the
# whole triangle and a point distant from the triangle's first class only:
# some distant pairs share a neighbour (that point), some share none
MIXED = _blow_up(
    _graph(5, [e in {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4)}
               for e in combinations(range(5), 2)]),
    [1, 2, 3, 2, 1],
    [4, 0, 8, 1, 6, 2, 7, 3, 5],
)


@given(adj=mixed_graphs())
@example(adj=MIXED)
@settings(max_examples=120, deadline=None)
def test_counted_triples_match_point_oracles(adj):
    """cap2N and cap3N with the triples over pairs without a common
    neighbour counted, against the per-point products."""
    line = synthetic_line(adj)
    if not adj.any():
        with pytest.raises(NoDistantPair):
            stats_module._intersections(line)
        return
    cap2n, cap3n = stats_module._intersections(line)
    assert _lo_hi_count(cap2n) == pair_intersection_oracle(adj)
    assert _lo_hi_count(cap3n) == triple_intersection_oracle(adj)


def test_mixed_example_has_empty_and_full_pairs():
    """MIXED has distant pairs with and without a common neighbour, and
    triples over both kinds."""
    near = ~MIXED & ~np.eye(len(MIXED), dtype=bool)
    i, j = np.nonzero(np.triu(MIXED))
    common = (near[i] & near[j]).any(axis=1)
    later = MIXED[i] & MIXED[j] & (np.arange(len(MIXED)) > j[:, None])
    assert later[common].any() and later[~common].any()


class TestMaxDistantSet:
    def test_m2f2_five(self):
        chosen = max_distant_set(line_of("m2f2"))
        assert len(chosen) == 5

    def test_gf4xz4_three(self):
        assert len(max_distant_set(line_of("gf4xz4"))) == 3

    def test_gf3_all_points(self):
        line = line_of("gf3")
        assert max_distant_set(line) == (0, 1, 2, 3)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_certificate(self, name):
        line = line_of(name)
        chosen = max_distant_set(line)
        for u, v in combinations(chosen, 2):
            assert line.adjacency[u, v]


# R/J as a product of matrix rings M_k(GF(q)), listed as (q, k) by hand: the
# 14 rings of the lines32 benchmark, then two rings of order 64 and 125.
RADICAL_QUOTIENTS = {
    "tri(gf:2,2)": [(2, 1), (2, 1)],
    "tri(gf:3,2)": [(3, 1), (3, 1)],
    "prod(zn:3,tri(gf:2,2))": [(3, 1), (2, 1), (2, 1)],
    "mat(gf:2,2)": [(2, 2)],
    "prod(zn:2,tri(gf:2,2))": [(2, 1), (2, 1), (2, 1)],
    "prod(gf:4,zn:4)": [(4, 1), (2, 1)],
    "prod(gf:4,dual(gf:2))": [(4, 1), (2, 1)],
    "skew(gf:4)": [(4, 1)],
    "algebra:f2xy": [(2, 1)],
    "zn:32": [(2, 1)],
    "gf:32": [(32, 1)],
    "prod(zn:2,mat(gf:2,2))": [(2, 1), (2, 2)],
    "prod(zn:2,prod(zn:2,tri(gf:2,2)))": [(2, 1)] * 4,
    "prod(gf:2,prod(gf:2,prod(gf:2,dual(gf:2))))": [(2, 1)] * 4,
    "tri(gf:4,2)": [(4, 1), (4, 1)],
    "tri(gf:5,2)": [(5, 1), (5, 1)],
}


_SPEC_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spec.json"
_WORKLOADS = json.loads(_SPEC_PATH.read_text(encoding="utf-8"))["workloads"]
# every catalog recipe and every ring of the lines32 and structure64 benchmarks
CLOSED_FORM_RECIPES = sorted(
    {e.recipe for e in builtin_catalog() if e.recipe is not None}
    | set(_WORKLOADS["lines32"]["rings"])
    | set(_WORKLOADS["structure64"]["rings"])
)


@functools.lru_cache(maxsize=None)
def _uncapped_lines(recipe: str) -> tuple[ProjectiveLine, ...]:
    """Both lines of a recipe that exist (a right line may break down)."""
    ring = build_recipe(recipe)
    lines = []
    for side in ("left", "right"):
        try:
            lines.append(build_line(ring, side))
        except RightLineBreakdown:
            pass
    return tuple(lines)


@pytest.fixture
def lines_of(monkeypatch):
    monkeypatch.setattr(core_module, "ENUMERATION_CAP", 125)
    return _uncapped_lines


class TestSecondRoutes:
    @pytest.mark.parametrize("recipe", sorted(RADICAL_QUOTIENTS))
    def test_md_is_least_factor_spread_bound(self, recipe, lines_of):
        """A mutually distant set of P(M_k(GF(q))) is a partial spread of
        k-spaces in GF(q)^2k, so MD(M_k(GF(q))) = q^k + 1. Distance is
        decided mod J and factor by factor, so MD is the least over R/J's
        factors."""
        expected = min(q**k + 1 for q, k in RADICAL_QUOTIENTS[recipe])
        for line in lines_of(recipe):
            assert len(max_distant_set(line)) == expected, line.side

    @pytest.mark.parametrize("recipe", sorted(RADICAL_QUOTIENTS))
    def test_twin_count_is_candidate_b(self, recipe, lines_of):
        """Points with identical distant rows form the fibres of
        P(R) -> P(R/J), so each point has |J| - 1 twins besides itself."""
        for line in lines_of(recipe):
            _, cls, size = np.unique(
                line.adjacency, axis=0, return_inverse=True, return_counts=True
            )
            twins = size[cls.ravel()] - 1
            assert (twins == jacobson_stat(line, "B")).all(), line.side


_GOLDEN = json.loads(_SPEC_PATH.with_name("golden.json").read_text(encoding="utf-8"))["rings"]
# golden rings with a nonzero radical whose left line has at most 40 points
SMALL_RADICAL_GOLDEN = sorted(
    recipe
    for recipe, record in _GOLDEN.items()
    if "left" in record and record["left"]["row"][0] <= 40 and record["fingerprint"][4] > 1
)
# every field of order at most 64
FIELD_RECIPES = [
    f"gf:{q}"
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47,
              49, 53, 59, 61, 64)
]


class TestMaxDistantSetOnClasses:
    def test_small_radical_golden_rings(self):
        assert SMALL_RADICAL_GOLDEN == [
            "algebra:f2xy", "prod(gf:4,dual(gf:2))", "prod(gf:4,zn:4)", "skew(gf:4)", "tri(gf:2,2)"
        ]

    @pytest.mark.parametrize("recipe", SMALL_RADICAL_GOLDEN)
    def test_least_clique_of_the_points(self, recipe):
        """The class graph's clique, each class standing for its first
        point, is the least maximum clique of the line's own graph."""
        for line in _uncapped_lines(recipe):
            assert len(stats_module._twins(line)[0]) < len(line), line.side
            assert max_distant_set(line) == brute_lex_least_max_clique(line.adjacency), line.side

    def test_hand_built_line(self):
        """A line built by hand, with twin classes of unequal sizes listed
        out of order, is grouped into a record of its own."""
        line = synthetic_line(PLANTED)
        assert line.derived == {}
        assert max_distant_set(line) == brute_lex_least_max_clique(PLANTED)
        assert list(line.derived) == ["twins"]
        assert synthetic_line(PLANTED).derived == {}

    def test_cached_twin_arrays_read_only(self):
        """The cached classes are numbered by their first points, and no
        caller can write to them."""
        line = build_line(build_recipe("prod(gf:4,zn:4)"))
        twins = stats_module._twins(line)
        assert stats_module._twins(line) is twins
        assert twins is line.derived["twins"] is line.ring._cache["line", "left"][3]["twins"]
        adj, classes, sizes, first = twins
        assert np.array_equal(classes[first], np.arange(len(first)))
        assert (np.diff(first) > 0).all() and first[0] == 0
        assert np.array_equal(np.bincount(classes), sizes)
        for array in twins:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1


class TestTwinQuotientOnLines:
    @pytest.mark.parametrize("recipe", CLOSED_FORM_RECIPES)
    def test_matches_point_oracles(self, recipe):
        for line in _uncapped_lines(recipe):
            adj = line.adjacency
            assert _lo_hi_count(pair_intersection_stat(line)) == pair_intersection_oracle(adj)
            assert _lo_hi_count(triple_intersection_stat(line)) == triple_intersection_oracle(adj)

    @pytest.mark.parametrize("recipe", FIELD_RECIPES)
    def test_field_triples_counted(self, recipe, monkeypatch):
        """On a field the distant graph is complete, so no distant pair has
        a common neighbour: every triple is counted and none is gathered.
        The golden rings are among CLOSED_FORM_RECIPES above."""
        cells = []
        find = stats_module._cells
        monkeypatch.setattr(stats_module, "_cells", lambda mask: cells.append(find(mask)) or cells[-1])
        line = build_line(build_recipe(recipe))
        cap2n, cap3n = stats_module._intersections(line)
        assert _lo_hi_count(cap2n) == pair_intersection_oracle(line.adjacency)
        assert _lo_hi_count(cap3n) == triple_intersection_oracle(line.adjacency)
        assert cap3n.count == math.comb(len(line), 3)
        assert len(cells[0][0]) == math.comb(len(line), 2)
        assert all(len(rows) == 0 for rows, _ in cells[1:])

    def test_matches_point_oracles_past_the_cap(self, monkeypatch):
        """448 points in 64 twin classes of 7; the point oracle's cap3N
        product is (76,832 distant pairs x 448 points)."""
        monkeypatch.setattr(core_module, "ENUMERATION_CAP", 343)
        line = build_line(build_recipe("tri(gf:7,2)"))
        adj = line.adjacency
        cap3n = triple_intersection_stat(line)
        assert cap3n.count == 6_453_888
        assert _lo_hi_count(cap3n) == triple_intersection_oracle(adj)
        assert _lo_hi_count(pair_intersection_stat(line)) == pair_intersection_oracle(adj)

    def test_cap3n_memory_bounded(self):
        """On the 729-point line over (F2)^6 every twin class is one point;
        the (distant pairs x points) product this replaces peaked at 133 MB."""
        ring = build_recipe("prod(gf:2,prod(gf:2,prod(gf:2,prod(gf:2,prod(gf:2,gf:2)))))")
        line = build_line(ring)
        tracemalloc.start()
        try:
            cap3n = triple_intersection_stat(line)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cap3n.value, cap3n.constant, cap3n.count) == (540, True, 7776)
        assert peak < 32 * 2**20


class TestSemisimpleBlocks:
    @pytest.mark.parametrize("recipe", sorted(RADICAL_QUOTIENTS))
    def test_hand_listed_factors(self, recipe):
        blocks = semisimple_blocks(build_recipe(recipe))
        assert blocks == tuple(sorted(RADICAL_QUOTIENTS[recipe]))

    @pytest.mark.parametrize("recipe", CLOSED_FORM_RECIPES)
    def test_maximal_ideal_counts(self, recipe):
        """The block counts against the maximal members of the enumerated
        ideal lattices, on the plain, a relabelled and the opposite tables.
        Every maximal ideal contains J. M_k(GF(q)) has one maximal left
        ideal per line and one maximal right ideal per hyperplane of
        GF(q)^k, and is simple; a maximal ideal of a product is one of a
        factor times the others."""
        ring = build_recipe(recipe)
        perm = [0] + random.Random(recipe).sample(range(1, ring.order), ring.order - 1)
        opposite = validate_ring(ring.add, ring.mul.T, ring.one, name=f"{ring.name}^op")
        for r in (ring, relabel(ring, perm), opposite):
            blocks = semisimple_blocks(r)
            one_sided = sum((q**k - 1) // (q - 1) for q, k in blocks)
            for side, count in (("left", one_sided), ("right", one_sided),
                                ("two_sided", len(blocks))):
                assert len(maximal_ideals(r, side)) == count, (r.name, side)
                assert maximal_ideal_count(r, side) == count, (r.name, side)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    @pytest.mark.parametrize("recipe", ["zn:4", "tri(gf:2,2)"])
    def test_not_a_matrix_ring_raises(self, flags, recipe):
        """With a planted radical of {0}, R itself is taken for R/J: Z4's
        centre Z4 is no field, and T2(GF(2)) has 8 elements over a centre of
        2. The check is no assert statement, so python -O keeps it."""
        script = (
            "from ringline import build_recipe, semisimple_blocks\n"
            f"ring = build_recipe({recipe!r})\n"
            "ring._cache['radical'] = frozenset({0})\n"
            "semisimple_blocks(ring)\n"
        )
        run = run_python(flags, script)
        assert run.returncode == 1
        assert "AssertionError: block of R/J is not a full matrix ring" in run.stderr


class TestOncePerLine:
    @pytest.mark.parametrize("recipe", ["prod(gf:4,zn:4)", "tri(gf:2,2)"])
    def test_one_intersection_pass_per_ring(self, recipe, monkeypatch):
        """A fresh ring signs its left line once for both sides: a commutative
        ring's right line is its left line, and a non-commutative one's right
        signature is the left one with its own TpI, kept apart."""
        calls = []
        intersections = stats_module._intersections
        monkeypatch.setattr(
            stats_module, "_intersections", lambda line: calls.append(1) or intersections(line)
        )
        ring = build_recipe(recipe)
        sigs = [signature(build_line(ring, side)) for side in ("left", "right", "left", "right")]
        assert len(calls) == 1
        assert sigs[2] is sigs[0] and sigs[3] is sigs[1]
        assert (sigs[1] is sigs[0]) == is_commutative(ring)
        with pytest.raises(TypeError):  # the shared signature is read-only
            sigs[0].jcb["A"] = 1

    def test_one_orbit_labelling_for_both_sides(self, monkeypatch):
        calls = []
        label = line_module.orbit_labels
        monkeypatch.setattr(
            line_module, "orbit_labels", lambda ring, side: calls.append(side) or label(ring, side)
        )
        ring = build_recipe("prod(gf:4,dual(gf:2))")
        assert len(build_line(ring)) == len(build_line(ring, "right")) == 30
        assert calls == ["left"]

    def test_hand_built_line_signed_afresh(self):
        """Planted twins over a ring whose own line's signature is cached get
        their own signature, and the cached one stays; so does a line over a
        copy of the cached adjacency."""
        line = synthetic_line(PLANTED)
        own = build_line(line.ring)
        cached = signature(own)
        planted = signature(line)
        assert planted.tot == len(PLANTED) and planted.cap2n == pair_intersection_stat(line)
        assert not planted.cap2n.constant
        assert signature(build_line(line.ring)) is cached
        copied = ProjectiveLine(line.ring, "left", own.codes, own.rows, own.adjacency.copy())
        assert signature(copied) is not cached and signature(copied) == cached

    def test_hand_built_graph_counts_but_md_is_certified(self):
        """1N, cap2N and cap3N of a hand-built line read its adjacency alone,
        but MD is certified against the ring's R/J bound: the complete graph
        on T2(GF(2))'s 18 points has an 18-clique past the bound 3, so
        signing it raises."""
        own = build_line(build_recipe("tri(gf:2,2)"))
        n = len(own)
        line = dataclasses.replace(own, adjacency=~np.eye(n, dtype=bool))
        assert one_neighbourhood_stat(line) == StatValue(0, 0, n)
        assert pair_intersection_stat(line) == StatValue(0, 0, math.comb(n, 2))
        assert triple_intersection_stat(line) == StatValue(0, 0, math.comb(n, 3))
        message = "clique search ended at size 18, not at the bound 3"
        with pytest.raises(AssertionError, match=message):
            signature(line)


class TestCliqueStop:
    @pytest.mark.parametrize("recipe", CLOSED_FORM_RECIPES)
    def test_stopped_search_is_the_full_search(self, recipe, monkeypatch):
        """Same tuple; and the first descent reaches the bound, so the
        stopped search records its clique before any bound is checked and
        colours no node."""
        colourings = []
        colour = clique._colour_classes
        monkeypatch.setattr(
            clique, "_colour_classes", lambda nb, cand: colourings.append(1) or colour(nb, cand)
        )
        for line in _uncapped_lines(recipe):
            colourings.clear()
            chosen = max_distant_set(line)
            assert colourings == [], line.side
            assert chosen == clique.max_clique(line.adjacency), line.side

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_unreachable_stop_raises(self, flags):
        """Planted blocks GF(4) put MD's bound at 5 on T2(GF(2)), whose MD
        is 3; the finished search raises, also under python -O."""
        script = (
            "from ringline import build_line, build_recipe, max_distant_set\n"
            "ring = build_recipe('tri(gf:2,2)')\n"
            "ring._cache['blocks'] = ((4, 1),)\n"
            "max_distant_set(build_line(ring))\n"
        )
        run = run_python(flags, script)
        assert run.returncode == 1
        assert "AssertionError: clique search ended at size 3, not at the bound 5" in run.stderr


class TestClosedForms:
    @pytest.mark.parametrize("recipe", CLOSED_FORM_RECIPES)
    def test_closed_forms_match(self, recipe):
        """Tot, TpI, 1N, cap2N and cap3N from closed forms at (1,0), (0,1)
        and (1,1), on each side whose line exists; GL2(R) is transitive on
        pairwise-distant triples, so every constancy flag is set."""
        row = closed_form_row(build_recipe(recipe))
        lines = _uncapped_lines(recipe)
        assert lines and lines[0].side == "left"
        for line in lines:
            sig = signature(line)
            assert sig.as_row()[:5] == row, line.side
            assert all(stat.constant for stat in sig.stats().values()), line.side

    @pytest.mark.parametrize("recipe", CLOSED_FORM_RECIPES)
    def test_tot_from_blocks(self, recipe):
        """Tot = |J| * prod [2k, k]_q over the blocks M_k(GF(q)) of R/J.
        Admissibility is decided mod J, so |adm(R)| = |adm(R/J)| * |J|^2 and
        |U(R)| = |U(R/J)| * |J|. The line of a product is the product of the
        lines, and the points of the line over M_k(GF(q)) are the k-spaces
        of GF(q)^2k, counted by the Gaussian binomial."""
        ring = build_recipe(recipe)
        tot = len(jacobson_radical(ring))
        for q, k in semisimple_blocks(ring):
            tot *= math.prod(q ** (2 * k - i) - 1 for i in range(k))
            tot //= math.prod(q ** (i + 1) - 1 for i in range(k))
        for line in _uncapped_lines(recipe):
            assert len(line.points) == tot, line.side


class TestJacobsonCandidates:
    def test_candidate_b_values(self):
        for name, expected in (
            ("m2f2", 0), ("t2f2", 1), ("t2f3", 2), ("z3xt2f2", 1),
            ("z2xt2f2", 1), ("gf4xz4", 1), ("skewgf4", 3), ("f2xy", 7),
        ):
            line = line_of(name)
            assert jacobson_stat(line, "B") == expected
            assert jacobson_stat(line, "B") == len(jacobson_radical(line.ring)) - 1

    def test_candidate_a_zero_on_field_lines(self):
        for name in ("gf2", "gf3", "gf4"):
            assert jacobson_stat(line_of(name), "A") == 0

    def test_candidate_c_m2f2(self):
        assert jacobson_stat(line_of("m2f2"), "C") == 0

    def test_candidate_c_z4(self):
        """J(Z4) = {0, 2}, and both units 1 and 3 fix 0 and 2: (4 + 4) / 2
        orbits on J x J by Burnside's lemma, less the orbit of (0, 0)."""
        assert jacobson_stat(line_of("z4"), "C") == 3

    @pytest.mark.parametrize("recipe", CLOSED_FORM_RECIPES)
    def test_candidate_c_is_orbit_label_count(self, recipe):
        """Burnside's count against the orbit labels of J x J, on the plain,
        a relabelled and the opposite tables. C reads only the line's ring."""
        ring = build_recipe(recipe)
        perm = [0] + random.Random(recipe).sample(range(1, ring.order), ring.order - 1)
        opposite = validate_ring(ring.add, ring.mul.T, ring.one, name=f"{ring.name}^op")
        for r in (ring, relabel(ring, perm), opposite):
            empty = np.zeros(0, dtype=int)
            bare = ProjectiveLine(
                r, "left", codes=empty, rows=empty.reshape(0, 1), adjacency=np.zeros((0, 0), bool)
            )
            assert jacobson_stat(bare, "C") == jacobson_c_oracle(r), r.name

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_candidate_c_fractional_count_raises(self, flags):
        """A planted radical {0, 1} of Z4 is no ideal: unit 3 fixes only 0, so
        Burnside's sum is 4 + 1 over 2 units; the check survives python -O."""
        script = (
            "from ringline import build_line, build_recipe, jacobson_stat\n"
            "ring = build_recipe('zn:4')\n"
            "line = build_line(ring)\n"
            "ring._cache['radical'] = frozenset({0, 1})\n"
            "jacobson_stat(line, 'C')\n"
        )
        run = run_python(flags, script)
        assert run.returncode == 1
        assert "AssertionError: Burnside count of the orbits on J x J is not whole" in run.stderr

    def test_unknown_candidate(self):
        with pytest.raises(UnknownCandidate):
            jacobson_stat(line_of("z4"), "D")


class TestSignature:
    @pytest.mark.parametrize("name,row", sorted(EXPECTED_ROWS.items()))
    def test_frozen_rows(self, name, row):
        assert signature(line_of(name)).as_row() == row

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_constancy_flags(self, name):
        sig = signature(line_of(name))
        assert sig.one_n.constant and sig.cap2n.constant and sig.cap3n.constant

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_monotone_and_inclusion_exclusion(self, name):
        sig = signature(line_of(name))
        assert sig.cap3n.value <= sig.cap2n.value <= sig.one_n.value
        # |N(P) u N(Q)| for a distant pair never counts P or Q
        union = 2 * sig.one_n.value - sig.cap2n.value
        assert union <= sig.tot - 2

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_signature_bounds(self, name):
        sig = signature(line_of(name))
        assert sig.tot >= sig.md >= 1
        assert sig.one_n.value <= sig.tot - 1

    @pytest.mark.parametrize("layout", [np.transpose, np.asfortranarray], ids=["transposed", "fortran"])
    def test_any_adjacency_layout(self, layout):
        """A line over an adjacency that is not C-contiguous is signed as the
        line itself: its packed rows are made contiguous before they are
        grouped as bytes."""
        line = line_of("m2f2")
        adjacency = layout(line.adjacency)
        assert not adjacency.flags.c_contiguous
        other = ProjectiveLine(line.ring, "left", line.codes, line.rows, adjacency)
        assert signature(other) == signature(line)

    def test_one_bitmask_build(self, monkeypatch):
        """The distant graph's bitmasks are built once, inside the clique search."""
        calls = []
        build = clique.adjacency_masks
        for name, module in list(sys.modules.items()):  # wherever the builder is bound
            if name.startswith("ringline") and getattr(module, "adjacency_masks", None) is build:
                monkeypatch.setattr(
                    module, "adjacency_masks", lambda adj: calls.append(1) or build(adj)
                )
        signature(build_line(build_recipe("mat(gf:2,2)")))  # a fresh ring: nothing cached
        assert len(calls) == 1

    def test_one_twin_grouping_no_orbit_labelling(self, monkeypatch):
        """cap2N and cap3N come from one pass over the twin classes, and Jcb C
        from Burnside's lemma, without relabelling pairs by the units."""
        line = build_line(build_recipe("mat(gf:2,2)"))  # a fresh ring labels its own orbits
        calls = []
        group = stats_module._twin_classes
        monkeypatch.setattr(
            stats_module, "_twin_classes", lambda adj: calls.append(1) or group(adj)
        )

        def refuse(ring, side):
            raise AssertionError("orbit labelling in signature")

        for name, module in list(sys.modules.items()):  # wherever the labelling is bound
            if name.startswith("ringline") and getattr(module, "orbit_labels", None) is orbit_labels:
                monkeypatch.setattr(module, "orbit_labels", refuse)
        signature(line)
        assert len(calls) == 1
