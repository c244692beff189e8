"""The greedy clique of a graph, taken vertex by vertex in ascending order.

On an arbitrary graph the greedy clique is maximal, not always maximum. Each
vertex it takes is the least vertex adjacent to all those taken before, so
of all maximal cliques it is the lexicographically least; when it has omega
vertices it is therefore the lexicographically least maximum clique. On a
ring's line it always has omega points (see ringline.stats).
"""

from __future__ import annotations

import numpy as np


def max_clique(adjacency: np.ndarray) -> tuple[int, ...]:
    """The greedy clique of a symmetric boolean matrix (diagonal ignored):
    start with every vertex a candidate, take the least candidate and keep
    the candidates after it that are adjacent to it, until none is left."""
    chosen = []
    cand = np.arange(len(adjacency))
    while len(cand):
        v, cand = cand[0], cand[1:]
        chosen.append(v)
        cand = cand[adjacency[v].take(cand)]
    # certificate: pairwise adjacent
    members = np.array(chosen, dtype=int)
    if not (adjacency.take(members, 0).take(members, 1) | (members[:, None] == members)).all():
        raise AssertionError("returned set is not a clique")
    return tuple(members.tolist())
