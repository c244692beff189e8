"""Exact maximum-clique solver against naive subset enumeration."""

from __future__ import annotations

import random
import sys
from itertools import combinations

import numpy as np
import pytest

from conftest import run_python
from helpers import brute_clique_number, brute_has_clique, brute_lex_least_max_clique

from ringline import clique
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
    limit: the search keeps its open nodes on a stack."""
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


@pytest.mark.parametrize("seed", range(30))
def test_clique_number_matches_brute_force(seed):
    n = 6 + seed % 8
    adj = random_graph(n, 0.2 + (seed % 5) * 0.15, seed)
    assert len(max_clique(adj)) == brute_clique_number(adj)


@pytest.mark.parametrize("seed", range(15))
def test_lexicographically_least_optimum(seed):
    n = 7 + seed % 4
    adj = random_graph(n, 0.5, f"lex-{seed}")
    assert max_clique(adj) == brute_lex_least_max_clique(adj)


@pytest.mark.parametrize("seed", range(10))
def test_returned_set_is_clique(seed):
    adj = random_graph(12, 0.6, f"cert-{seed}")
    chosen = max_clique(adj)
    for u, v in combinations(chosen, 2):
        assert adj[u, v]
    assert brute_has_clique(adj, len(chosen))
    assert not brute_has_clique(adj, len(chosen) + 1)


@pytest.mark.parametrize("seed", range(15))
def test_stop_at_clique_number_keeps_least_clique(seed):
    adj = random_graph(7 + seed % 4, 0.5, f"lex-{seed}")
    full = max_clique(adj)
    assert max_clique(adj, stop=len(full)) == full == brute_lex_least_max_clique(adj)


@pytest.mark.parametrize("seed", range(5))
def test_stop_past_clique_number_raises(seed):
    adj = random_graph(10, 0.5, f"stop-{seed}")
    with pytest.raises(AssertionError, match="not at the bound"):
        max_clique(adj, stop=len(max_clique(adj)) + 1)


def short_descent_graph() -> np.ndarray:
    """Edges 0-1, 1-2, 1-3 and 2-3: the first descent ends at {0, 1}, and
    omega is 3, on {1, 2, 3}."""
    adj = np.zeros((4, 4), dtype=bool)
    for i, j in ((0, 1), (1, 2), (1, 3), (2, 3)):
        adj[i, j] = adj[j, i] = True
    return adj


@pytest.mark.parametrize("stop", [None, 3])
def test_first_descent_short_of_omega(stop, monkeypatch):
    """No node is coloured before {0, 1} is recorded; then the search
    colours, backtracks and finds the least maximum clique."""
    adj = short_descent_graph()
    seen = []
    colour = clique._colour_classes
    monkeypatch.setattr(
        clique, "_colour_classes", lambda nb, cand: seen.append(cand) or colour(nb, cand)
    )
    assert max_clique(adj, stop) == (1, 2, 3) == brute_lex_least_max_clique(adj)
    # the root is coloured first, on what is left of its cand, {1, 2, 3};
    # the node below 0, with cand {1}, is never coloured
    assert seen[0] == 0b1110 and 0b0010 not in seen


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_first_descent_short_of_unreachable_stop_raises(flags):
    script = (
        "import numpy as np\n"
        "from ringline.clique import max_clique\n"
        "adj = np.zeros((4, 4), dtype=bool)\n"
        "for i, j in ((0, 1), (1, 2), (1, 3), (2, 3)):\n"
        "    adj[i, j] = adj[j, i] = True\n"
        "max_clique(adj, stop=4)\n"
    )
    run = run_python(flags, script)
    assert run.returncode == 1
    assert "AssertionError: clique search ended at size 3, not at the bound 4" in run.stderr
