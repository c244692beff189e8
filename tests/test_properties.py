"""Property-based checks of the algebraic laws."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import line_of, ring_of
from helpers import (
    det_is_unit,
    is_greedy_clique,
    is_invertible_2x2,
    member_pairs,
    relabel,
)

from ringline import (
    fingerprint,
    unit_elements,
    validate_ring,
)
from ringline.clique import max_clique

SMALL_RINGS = ["z4", "gf4", "dualf2", "t2f2"]
COMMUTATIVE_RINGS = ["z4", "gf4", "dualf2", "gf4xz4", "gf4xdualf2"]
LINE_RINGS = ["z4", "gf4", "t2f2", "m2f2", "skewgf4", "gf4xz4"]


@given(name=st.sampled_from(SMALL_RINGS), data=st.data())
@settings(max_examples=25, deadline=None)
def test_fingerprint_invariant_under_relabeling(name, data):
    ring = ring_of(name)
    tail = data.draw(st.permutations(range(1, ring.order)))
    relabeled = relabel(ring, [0] + list(tail))
    assert fingerprint(relabeled) == fingerprint(ring)


@given(name=st.sampled_from(SMALL_RINGS), data=st.data())
@settings(max_examples=15, deadline=None)
def test_relabeled_tables_still_validate(name, data):
    ring = ring_of(name)
    tail = data.draw(st.permutations(range(1, ring.order)))
    relabeled = relabel(ring, [0] + list(tail))
    again = validate_ring(relabeled.add, relabeled.mul, relabeled.one)
    assert again.order == ring.order


@given(name=st.sampled_from(COMMUTATIVE_RINGS), data=st.data())
@settings(max_examples=120, deadline=None)
def test_determinant_oracle_on_commutative_rings(name, data):
    ring = ring_of(name)
    element = st.integers(min_value=0, max_value=ring.order - 1)
    matrix = (
        (data.draw(element), data.draw(element)),
        (data.draw(element), data.draw(element)),
    )
    assert is_invertible_2x2(ring, matrix) == det_is_unit(ring, matrix)


@given(name=st.sampled_from(LINE_RINGS), data=st.data())
@settings(max_examples=60, deadline=None)
def test_distant_independent_of_representatives(name, data):
    line = line_of(name)
    n = len(line.points)
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1).filter(lambda v: v != i))
    row1 = data.draw(st.sampled_from(member_pairs(line, i)))
    row2 = data.draw(st.sampled_from(member_pairs(line, j)))
    assert is_invertible_2x2(line.ring, (row1, row2)) == line.adjacency[i, j]


@given(name=st.sampled_from(LINE_RINGS))
@settings(max_examples=len(LINE_RINGS), deadline=None)
def test_class_sizes_equal_unit_count(name):
    line = line_of(name)
    nunits = len(unit_elements(line.ring))
    assert all(len(p.members) == nunits for p in line.points)


@given(
    n=st.integers(min_value=1, max_value=11),
    edges=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_greedy_clique_properties(n, edges):
    """A maximal clique, each member the least vertex adjacent to all before it."""
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if edges.draw(st.booleans()):
                adj[i, j] = adj[j, i] = True
    assert is_greedy_clique(adj, max_clique(adj))


@given(name=st.sampled_from(SMALL_RINGS), data=st.data())
@settings(max_examples=40, deadline=None)
def test_subtraction_inverts_addition(name, data):
    ring = ring_of(name)
    element = st.integers(min_value=0, max_value=ring.order - 1)
    a, b = data.draw(element), data.draw(element)
    add, neg = ring.add, ring.neg
    assert add[add[a, b], neg[b]] == a
    assert add[add[a, neg[b]], b] == a
