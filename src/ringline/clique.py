"""Exact maximum-clique search on small graphs.

One branch and bound over bitmask adjacency finds the lexicographically least
maximum clique, so results are reproducible. The bitmasks are built from the
matrix once per call and never leave this module.

Each node of the search holds the clique ``chosen`` so far and the set
``cand`` of vertices adjacent to all of it. A greedy colouring splits
``cand`` into colour classes, each an independent set, so a clique meets each
class at most once and ``len(chosen)`` plus the number of classes still
meeting ``cand`` bounds every clique below the node. The node takes the
vertices of ``cand`` in ascending order, opens a child node on each one's
neighbours in ``cand`` and then drops it, and is cut once the bound cannot
beat the best clique recorded so far. A clique is recorded only when
strictly larger than the best. Open nodes wait on an explicit stack, so the
depth of the search is not bounded by Python's recursion limit.

No bound can cut a node before the first clique is recorded, so a node is
coloured only when its bound is first checked, which waits for that clique;
the colouring is then of the node's ``cand`` at that time. A search whose
first descent reaches ``stop`` colours no node at all.

Why the first maximum clique recorded is the least one: the search visits
ascending vertex sequences in lexicographic order, so it reaches the least
maximum clique C* before any other maximum clique. Until then the best
recorded clique is smaller than omega. At every node on C*'s path the
remaining members of C* are still in ``cand``. The node's colour classes
were made for its ``cand`` when first checked, ``cand`` only shrinks after,
and a colouring of a set still colours each subset, so those members lie in
distinct classes. The bound is then at least omega, which exceeds the best
so far, and that path is never cut.

A caller that knows an upper bound on omega passes it as ``stop``; the
search then returns as soon as it records a clique of that size. If the bound
is omega, that clique is C* by the argument above, so the result is the same
tuple the full search returns. The clique is the witness and the bound its
certificate: a search that ends at any other size (it finishes below
``stop``, or it records a larger clique) raises AssertionError.
"""

from __future__ import annotations

import numpy as np


def adjacency_masks(adjacency: np.ndarray) -> list[int]:
    """Rows of a symmetric boolean matrix as neighbour bitmasks (diagonal ignored)."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") & ~(1 << i) for i, row in enumerate(packed)]


def _colour_classes(nb: list[int], cand: int) -> list[int]:
    """A greedy colouring of ``cand``, as one bitmask per colour class."""
    classes = []
    rest = cand
    while rest:
        cls = 0
        avail = rest
        while avail:
            bit = avail & -avail
            cls |= bit
            avail &= ~(bit | nb[bit.bit_length() - 1])
        classes.append(cls)
        rest &= ~cls
    return classes


def max_clique(adjacency: np.ndarray, stop: int | None = None) -> tuple[int, ...]:
    """Lexicographically least maximum clique of a symmetric boolean matrix,
    searched until a clique of size ``stop`` (default: every vertex) is found."""
    nb = adjacency_masks(adjacency)
    limit = len(nb) if stop is None else stop
    best: list[int] = []
    nodes: list[list] = []  # open nodes, deepest last: [chosen, cand, colour classes]

    def enter(chosen: list[int], cand: int) -> None:
        nonlocal best
        if cand:
            nodes.append([chosen, cand, None])  # coloured when first bounded
        elif len(chosen) > len(best):
            best = chosen

    enter([], (1 << len(nb)) - 1)
    while nodes:
        node = nodes[-1]
        chosen, cand, classes = node
        if not cand or len(best) >= limit:
            nodes.pop()
            continue
        if best:  # with no clique recorded, no bound can cut
            if classes is None:
                classes = node[2] = _colour_classes(nb, cand)
            if len(chosen) + sum(1 for cls in classes if cls & cand) <= len(best):
                nodes.pop()
                continue
        bit = cand & -cand
        node[1] = cand ^ bit
        v = bit.bit_length() - 1
        enter(chosen + [v], cand & nb[v])
    if stop is not None and len(best) != stop:
        raise AssertionError(f"clique search ended at size {len(best)}, not at the bound {stop}")
    # certificate: pairwise adjacent
    if not (adjacency[np.ix_(best, best)] | np.eye(len(best), dtype=bool)).all():
        raise AssertionError("returned set is not a clique")
    return tuple(best)
