"""Exact maximum-clique search on small graphs.

Branch and bound with a greedy-colouring bound (Tomita style) over bitmask
adjacency. ``max_clique`` returns the lexicographically least maximum clique,
so results are reproducible regardless of search order. The bitmasks are
built from the matrix once per call and never leave this module.
"""

from __future__ import annotations

import numpy as np


def adjacency_masks(adjacency: np.ndarray) -> list[int]:
    """Rows of a symmetric boolean matrix as neighbour bitmasks (diagonal ignored)."""
    packed = np.packbits(adjacency, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") & ~(1 << i) for i, row in enumerate(packed)]


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _colour_order(nb: list[int], cand: int) -> list[tuple[int, int]]:
    """Greedy sequential colouring of the candidate set.

    Returns (vertex, colour) pairs with colours ascending; the colour of a
    vertex bounds the clique size reachable through it within ``cand``.
    """
    order = []
    colour = 0
    rest = cand
    while rest:
        colour += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            bit = 1 << v
            avail &= ~(bit | nb[v])
            rest ^= bit
            order.append((v, colour))
    return order


def clique_number(nb: list[int], cand: int | None = None) -> int:
    """Size of a maximum clique among the vertices of ``cand``."""
    if cand is None:
        cand = (1 << len(nb)) - 1
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        for v, c in reversed(_colour_order(nb, cand)):
            if size + c <= best:
                return
            new = cand & nb[v]
            if new:
                expand(size + 1, new)
            elif size + 1 > best:
                best = size + 1
            cand ^= 1 << v
        return

    if cand:
        expand(0, cand)
    return best


def has_clique(nb: list[int], cand: int, k: int) -> bool:
    """Decision variant: is there a clique of size >= k inside ``cand``?"""
    if k <= 0:
        return True
    found = False

    def expand(size: int, cand: int) -> None:
        nonlocal found
        for v, c in reversed(_colour_order(nb, cand)):
            if found or size + c < k:
                return
            if size + 1 >= k:
                found = True
                return
            new = cand & nb[v]
            if new:
                expand(size + 1, new)
                if found:
                    return
            cand ^= 1 << v

    expand(0, cand)
    return found


def max_clique(adjacency: np.ndarray) -> tuple[int, ...]:
    """Lexicographically least maximum clique of a symmetric boolean matrix."""
    n = adjacency.shape[0]
    if n == 0:
        return ()
    nb = adjacency_masks(adjacency)
    full = (1 << n) - 1
    omega = clique_number(nb, full)
    chosen: list[int] = []
    cand = full
    need = omega
    while need > 0:
        for v in _bits(cand):
            rest = cand & nb[v]
            if need == 1 or has_clique(nb, rest, need - 1):
                chosen.append(v)
                cand = rest
                need -= 1
                break
        else:
            raise AssertionError("clique reconstruction failed")
    # certificate: pairwise adjacent
    if not (adjacency[np.ix_(chosen, chosen)] | np.eye(len(chosen), dtype=bool)).all():
        raise AssertionError("returned set is not a clique")
    return tuple(chosen)
