"""The per-ring kernels against the routes they replaced, on the plain, a
relabelled and the opposite tables of every ring in the benchmark's golden
file: the cosets of the radical and the blocks of R/J, the cached
commutativity flag, the distant relation between the points, and the
unit-orbit class sizes of both sides."""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import run_python
from helpers import (
    class_size_histogram,
    invertible_between,
    radical_cosets_oracle,
    relabel,
    semisimple_blocks_oracle,
)

from ringline import RightLineBreakdown, build_line, build_recipe, is_commutative, validate_ring
from ringline import core as core_module
from ringline import line as line_module

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
