"""The greedy clique against plain-loop checks of its defining properties."""

from __future__ import annotations

import random
import sys
from itertools import combinations

import numpy as np
import pytest

from conftest import run_python
from helpers import (
    brute_clique_number,
    brute_has_clique,
    brute_lex_least_max_clique,
    is_greedy_clique,
    maximal_cliques,
)

from ringline.clique import max_clique


def random_graph(n: int, p: float, seed) -> np.ndarray:
    rng = random.Random(seed)
    adj = np.zeros((n, n), dtype=bool)
    for i, j in combinations(range(n), 2):
        if rng.random() < p:
            adj[i, j] = adj[j, i] = True
    return adj


def test_empty_graph():
    adj = np.zeros((5, 5), dtype=bool)
    assert max_clique(adj) == (0,)


def test_no_vertices():
    assert max_clique(np.zeros((0, 0), dtype=bool)) == ()


def test_complete_graph():
    adj = np.ones((6, 6), dtype=bool)
    np.fill_diagonal(adj, False)
    assert max_clique(adj) == (0, 1, 2, 3, 4, 5)


def test_deep_clique_without_recursion():
    """A clique of 1,100 vertices, far deeper than the default recursion
    limit: the greedy clique grows in a loop."""
    assert sys.getrecursionlimit() < 1100
    adj = ~np.eye(1100, dtype=bool)
    assert max_clique(adj) == tuple(range(1100))
    adj[0, 1] = adj[1, 0] = False
    assert max_clique(adj) == (0, *range(2, 1100))


def test_path_graph():
    adj = np.zeros((4, 4), dtype=bool)
    for i in range(3):
        adj[i, i + 1] = adj[i + 1, i] = True
    assert max_clique(adj) == (0, 1)


def test_diagonal_ignored():
    adj = random_graph(9, 0.5, "diagonal")
    looped = adj | np.eye(9, dtype=bool)
    assert max_clique(looped) == max_clique(adj)


def test_maximal_not_maximum():
    """Edges 0-1, 1-2, 1-3 and 2-3: the greedy clique is {0, 1}, maximal,
    while omega is 3, on {1, 2, 3}."""
    adj = np.zeros((4, 4), dtype=bool)
    for i, j in ((0, 1), (1, 2), (1, 3), (2, 3)):
        adj[i, j] = adj[j, i] = True
    assert max_clique(adj) == (0, 1)
    assert brute_has_clique(adj, 3)


@pytest.mark.parametrize("seed", range(10))
def test_returned_set_is_greedy_clique(seed):
    """A clique, maximal, and each member the least vertex adjacent to all
    the members before it."""
    adj = random_graph(12, 0.6, f"cert-{seed}")
    chosen = max_clique(adj)
    for u, v in combinations(chosen, 2):
        assert adj[u, v]
    assert is_greedy_clique(adj, chosen)


def blown_up_product(m: int, n: int, seed) -> np.ndarray:
    """The shape of a ring's line whose R/J has two field blocks: the points
    (a, b) of K_m x K_n, distant when they differ in both factors, each
    blown up into a random number of mutually non-adjacent twins, under a
    random relabelling. Every maximal clique has min(m, n) vertices."""
    rng = random.Random(seed)
    points = [(a, b) for a in range(m) for b in range(n) for _ in range(rng.randint(1, 2))]
    rng.shuffle(points)
    adj = np.zeros((len(points), len(points)), dtype=bool)
    for i, j in combinations(range(len(points)), 2):
        if points[i][0] != points[j][0] and points[i][1] != points[j][1]:
            adj[i, j] = adj[j, i] = True
    return adj


@pytest.mark.parametrize("seed", range(30))
def test_greedy_clique_within_clique_number(seed):
    """On any graph the greedy clique has at least one and at most omega
    vertices, and no vertex outside it is adjacent to all of it."""
    n = 6 + seed % 8
    adj = random_graph(n, 0.2 + (seed % 5) * 0.15, seed)
    chosen = max_clique(adj)
    assert 1 <= len(chosen) <= brute_clique_number(adj)
    assert not any(all(adj[u, w] for u in chosen) for w in range(n) if w not in chosen)


@pytest.mark.parametrize("seed", range(15))
def test_lexicographically_least_optimum_on_blown_up_products(seed):
    """Where every maximal clique is maximum, as on a ring's line, the
    greedy clique is the lexicographically least maximum clique."""
    m, n = 2 + seed % 3, 2 + seed % 2
    adj = blown_up_product(m, n, f"product-{seed}")
    chosen = max_clique(adj)
    assert len(chosen) == min(m, n) == brute_clique_number(adj)
    assert chosen == brute_lex_least_max_clique(adj)
    assert {len(c) for c in maximal_cliques(adj)} == {min(m, n)}


@pytest.mark.parametrize("seed", range(10))
def test_greedy_clique_is_the_least_maximal_clique(seed):
    adj = random_graph(10, 0.5, f"least-{seed}")
    assert max_clique(adj) == min(maximal_cliques(adj))


@pytest.mark.parametrize("seed", range(10))
def test_maximal_cliques_oracle_against_subsets(seed):
    """The Bron-Kerbosch oracle lists exactly the pairwise-adjacent subsets
    that no vertex extends."""
    n = 4 + seed % 5
    adj = random_graph(n, 0.5, f"maximal-{seed}")

    def clique(s):
        return all(adj[u, v] for u, v in combinations(s, 2))

    subsets = [s for k in range(1, n + 1) for s in combinations(range(n), k) if clique(s)]
    expected = [s for s in subsets if not any(clique(s + (w,)) for w in range(n) if w not in s)]
    assert sorted(maximal_cliques(adj)) == sorted(expected)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_one_sided_edge_fails_the_certificate(flags):
    """0 -> 1 without 1 -> 0: the greedy clique takes both, and the gather
    over its members refuses it, also under python -O."""
    script = (
        "import numpy as np\n"
        "from ringline.clique import max_clique\n"
        "adj = np.zeros((2, 2), dtype=bool)\n"
        "adj[0, 1] = True\n"
        "max_clique(adj)\n"
    )
    run = run_python(flags, script)
    assert run.returncode == 1
    assert "AssertionError: returned set is not a clique" in run.stderr
