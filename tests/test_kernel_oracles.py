"""The per-ring kernels against the routes they replaced, on the plain, a
relabelled and the opposite tables of every ring in the benchmark's golden
file: the cosets of the radical and the blocks of R/J, the cached
commutativity flag, the distant relation between the points, and the
unit-orbit class sizes of both sides. The blocks of R/J are also checked on
products of three and four blocks over mixed fields, and the twin classes
on every catalog and lines32 line and on graphs with planted twins."""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import run_python
from helpers import (
    class_size_histogram,
    invertible_between,
    radical_cosets_oracle,
    relabel,
    semisimple_blocks_oracle,
    twin_classes_oracle,
)

from ringline import (
    RightLineBreakdown,
    build_line,
    build_recipe,
    builtin_catalog,
    is_commutative,
    validate_ring,
)
from ringline import core as core_module
from ringline import line as line_module
from ringline import stats as stats_module

# read only: perfbench/capture_golden.py writes it from known-good sources
GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
GOLDEN_RECIPES = sorted(json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["rings"])
VARIANTS = ("plain", "relabelled", "opposite")
CASES = [
    pytest.param(recipe, variant, id=f"{recipe}-{variant}")
    for recipe in GOLDEN_RECIPES
    for variant in VARIANTS
]


@functools.lru_cache(maxsize=None)
def variant_ring(recipe: str, variant: str):
    """The recipe's ring, moved along a permutation drawn from its text, or
    its opposite ring, whose multiplication table is ``mul.T``."""
    ring = build_recipe(recipe)
    if variant == "relabelled":
        rest = list(range(1, ring.order))
        random.Random(recipe).shuffle(rest)
        return relabel(ring, [0] + rest)
    if variant == "opposite":
        return validate_ring(ring.add, ring.mul.T, ring.one, name=f"{recipe} op")
    return ring


LINES32 = json.loads(GOLDEN_PATH.with_name("spec.json").read_text(encoding="utf-8"))[
    "workloads"
]["lines32"]["rings"]
LINE_RECIPES = sorted({e.recipe for e in builtin_catalog() if e.recipe is not None} | set(LINES32))
# products of three or four blocks M_k(GF(q)) of R/J over mixed q, with and without a radical
BLOCK_RECIPES = {
    "prod(zn:2,prod(zn:3,gf:4))": ((2, 1), (3, 1), (4, 1)),
    "prod(gf:4,prod(zn:2,mat(gf:2,2)))": ((2, 1), (2, 2), (4, 1)),
    "prod(zn:2,prod(zn:3,prod(gf:4,zn:5)))": ((2, 1), (3, 1), (4, 1), (5, 1)),
    "prod(tri(gf:3,2),prod(zn:4,gf:8))": ((2, 1), (3, 1), (3, 1), (8, 1)),
}


def relabelled(ring):
    """The ring moved along a permutation drawn from its name."""
    rest = list(range(1, ring.order))
    random.Random(ring.name).shuffle(rest)
    return relabel(ring, [0] + rest)


def assert_same_arrays(got: tuple, want: tuple) -> None:
    """Equal values, dtypes, shapes, write flags and memory layouts."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
        for flag in ("WRITEABLE", "C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA"):
            assert g.flags[flag] == w.flags[flag], flag


def test_golden_recipes():
    assert len(GOLDEN_RECIPES) == 22


@pytest.mark.parametrize("recipe,variant", CASES)
def test_radical_cosets_and_blocks(recipe, variant):
    ring = variant_ring(recipe, variant)
    reps, coset = core_module._radical_cosets(ring)
    want_reps, want_coset = radical_cosets_oracle(ring)
    assert np.array_equal(reps, want_reps) and np.array_equal(coset, want_coset)
    assert core_module.semisimple_blocks(ring) == semisimple_blocks_oracle(ring)


@pytest.mark.parametrize("recipe,variant", CASES)
def test_commutativity_read_once(recipe, variant):
    """The flag equals a whole-table compare, and later calls read it from
    the ring's cache."""
    ring = variant_ring(recipe, variant)
    flag = bool((ring.mul == ring.mul.T).all())
    assert is_commutative(ring) is flag and ring._cache["commutative"] is flag
    planted = validate_ring(ring.add, ring.mul, ring.one)
    planted._cache["commutative"] = not flag
    assert is_commutative(planted) is (not flag)


@pytest.mark.parametrize("recipe,variant", CASES)
def test_distant_against_invertibility(recipe, variant):
    """_distant between the left points equals the column count over all
    n^2 columns, and is C-contiguous."""
    ring = variant_ring(recipe, variant)
    codes = build_line(ring).codes
    adjacency = line_module._distant(ring, codes)
    assert adjacency.flags.c_contiguous
    assert np.array_equal(adjacency, invertible_between(ring, codes))


@pytest.mark.parametrize("recipe,variant", CASES)
def test_class_sizes(recipe, variant):
    """Each side's unit-orbit classes of admissible pairs, counted by
    Counter: every left class has |U| members, and a right line exists iff
    every right class does, or it breaks down with the counted sizes."""
    ring = variant_ring(recipe, variant)
    admissible = line_module._admissible(ring)
    nunits = int((ring.inv >= 0).sum())
    for side in ("left", "right"):
        sizes = class_size_histogram(line_module.orbit_labels(ring, side), admissible)
        if sizes.keys() == {nunits}:
            assert len(build_line(ring, side)) == sizes[nunits]
        else:
            assert side == "right"
            with pytest.raises(RightLineBreakdown) as info:
                build_line(ring, side)
            assert info.value.class_sizes == sizes
    if recipe == "mat(gf:2,2)":
        assert sizes == {6: 32, 3: 6}


def planted_labels(ring, how: str) -> np.ndarray:
    """Left orbit labels that break the class-size law and stay orbit
    invariant: every pair its own class, two classes merged, or one member
    split off its class."""
    line = build_line(ring)
    labels = line_module.orbit_labels(ring, "left").copy()
    if how == "single":
        return np.arange(len(labels))
    if how == "merged":
        labels[labels == line.codes[1]] = line.codes[0]
    else:
        member = line.rows[0, -1]
        labels[member] = member
    return labels


@pytest.mark.parametrize("how", ["single", "merged", "split"])
@pytest.mark.parametrize("recipe", ["tri(gf:2,2)", "prod(gf:4,zn:4)"])
def test_planted_class_sizes(recipe, how, monkeypatch):
    """Labels whose classes do not all have |U| members: the left record
    raises AssertionError, and the right record breaks down with the class
    sizes Counter counts."""
    ring = build_recipe(recipe)
    labels = planted_labels(ring, how)
    sizes = class_size_histogram(labels, line_module._admissible(ring))
    assert sizes.keys() != {len(build_line(ring).rows[0])}
    monkeypatch.setattr(line_module, "orbit_labels", lambda ring, side: labels)
    with pytest.raises(AssertionError, match="left class-size law violated"):
        line_module._line_record(ring, "left")
    with pytest.raises(RightLineBreakdown) as info:
        line_module._line_record(ring, "right")
    assert info.value.class_sizes == sizes


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_left_class_size_law_under_optimize(flags):
    """The left class-size check is no assert statement, so python -O keeps it."""
    script = (
        "import numpy as np\n"
        "from ringline import build_recipe, line\n"
        "line.orbit_labels = lambda ring, side: np.arange(ring.order ** 2)\n"
        "line.build_line(build_recipe('zn:4'))\n"
    )
    run = run_python(flags, script)
    assert run.returncode == 1
    assert "AssertionError: left class-size law violated" in run.stderr


@pytest.mark.parametrize("recipe", BLOCK_RECIPES)
def test_blocks_of_products(recipe):
    """The one pass over all blocks against the block-by-block oracle, on
    the plain and a relabelled table."""
    ring = build_recipe(recipe)
    for r in (ring, relabelled(ring)):
        reps, coset = core_module._radical_cosets(r)
        want_reps, want_coset = radical_cosets_oracle(r)
        assert np.array_equal(reps, want_reps) and np.array_equal(coset, want_coset)
        blocks = core_module.semisimple_blocks(r)
        assert blocks == semisimple_blocks_oracle(r) == BLOCK_RECIPES[recipe]


@pytest.mark.parametrize("recipe", LINE_RECIPES)
def test_twin_classes_of_lines(recipe):
    """The twin classes of both lines, plain and relabelled, against the
    np.unique route, array by array."""
    ring = build_recipe(recipe)
    for r in (ring, relabelled(ring)):
        for side in ("left", "right"):
            try:
                adjacency = build_line(r, side).adjacency
            except RightLineBreakdown:
                continue
            assert_same_arrays(
                stats_module._twin_classes(adjacency), twin_classes_oracle(adjacency)
            )


@given(
    points=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0, 1),
    fortran=st.booleans(),
)
@example(points=0, seed=0, density=0.5, fortran=False)
@example(points=63, seed=1, density=0.5, fortran=False)
@example(points=64, seed=2, density=0.3, fortran=True)
@example(points=65, seed=3, density=0.7, fortran=False)
@example(points=128, seed=4, density=0.5, fortran=False)
@example(points=129, seed=5, density=0.5, fortran=True)
@settings(max_examples=100, deadline=None)
def test_twin_classes_of_planted_graphs(points, seed, density, fortran):
    """Graphs whose points fall into planted classes of twins (a random
    irreflexive graph on the classes, blown up), in either memory layout:
    the twin classes against the np.unique route, and every planted class
    inside one twin class."""
    rng = np.random.default_rng(seed)
    planted = rng.integers(1, points + 1) if points else 0
    extra = rng.integers(0, max(planted, 1), points - planted)
    cls = rng.permutation(np.concatenate([np.arange(planted), extra]))  # every class filled
    upper = np.triu(rng.random((planted, planted)) < density, 1)
    adjacency = (upper | upper.T).take(cls, 0).take(cls, 1)
    if fortran:
        adjacency = np.asfortranarray(adjacency)
    twins = stats_module._twin_classes(adjacency)
    assert_same_arrays(twins, twin_classes_oracle(adjacency))
    assert len({(c, t) for c, t in zip(cls.tolist(), twins[1].tolist())}) == planted
