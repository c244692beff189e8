"""Independent oracles used to cross-check library results.

These deliberately avoid the library's own code paths: raw table scans,
naive subset enumeration, determinant arithmetic for commutative rings.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def brute_units(ring) -> set[int]:
    """Two-sided inverse scan over the raw multiplication table."""
    n, mul, one = ring.order, ring.mul, ring.one
    return {
        x
        for x in range(n)
        if any(mul[x, y] == one and mul[y, x] == one for y in range(n))
    }


def brute_radical(ring) -> set[int]:
    """Jacobson radical as the intersection of all maximal left ideals.

    Left ideals are enumerated from scratch: additive closures of {r*g1 + s*g2}
    are avoided by using the cyclic-ideal-sum route on raw tables.
    """
    n, add, mul = ring.order, ring.add, ring.mul
    cyclic = {frozenset(int(mul[r, g]) for r in range(n)) for g in range(n)}
    ideals = set(cyclic)
    work = list(ideals)
    while work:
        cur = work.pop()
        for other in list(ideals):
            s = frozenset(int(add[x, y]) for x in cur for y in other)
            if s not in ideals:
                ideals.add(s)
                work.append(s)
    proper = [i for i in ideals if len(i) < n]
    maximal = [i for i in proper if not any(i < j for j in proper)]
    out = set(range(n))
    for m in maximal:
        out &= m
    return out


def brute_ideals(ring, side: str) -> set[frozenset[int]]:
    """Ideals of one side as the additive subgroups closed under that side's
    multiplication.

    Subgroups are joins A + B of cyclic subgroups <x> = {0, x, x+x, ...},
    grown from {0}; each is then tested against every product r*x (left),
    x*r (right) or both (two_sided) on the raw table.
    """
    n, add, mul = ring.order, ring.add, ring.mul
    cyclic = set()
    for x in range(n):
        group, y = {0}, x
        while y not in group:
            group.add(y)
            y = int(add[y, x])
        cyclic.add(frozenset(group))
    subgroups = {frozenset([0])}
    work = list(subgroups)
    while work:
        cur = work.pop()
        for c in cyclic:
            joined = frozenset(int(add[x, y]) for x in cur for y in c)
            if joined not in subgroups:
                subgroups.add(joined)
                work.append(joined)

    def closed(s) -> bool:
        left = all(int(mul[r, x]) in s for r in range(n) for x in s)
        right = all(int(mul[x, r]) in s for r in range(n) for x in s)
        return {"left": left, "right": right, "two_sided": left and right}[side]

    return {s for s in subgroups if closed(s)}


def cyclic_join_ideals(add, mul) -> set[frozenset[int]]:
    """Left ideals of the ring with these tables, as sets.

    Starting from {0}, each ideal found is summed element by element with
    every cyclic left ideal R*g (column g of mul). Fast enough at order 64,
    where :func:`brute_ideals` is not; right ideals are the left ideals over
    ``mul.T``.
    """
    cyclic = [np.array(sorted(c)) for c in {frozenset(col.tolist()) for col in mul.T}]
    ideals = {frozenset([0])}
    worklist = list(ideals)
    while worklist:
        current = list(worklist.pop())
        for c in cyclic:
            total = frozenset(add[np.ix_(current, c)].ravel().tolist())
            if total not in ideals:
                ideals.add(total)
                worklist.append(total)
    return ideals


def det_is_unit(ring, matrix) -> bool:
    """Determinant-is-a-unit test; valid oracle for commutative rings only."""
    (a, b), (c, d) = matrix
    det = ring.sub_of(ring.mul_of(a, d), ring.mul_of(c, b))
    n, mul, one = ring.order, ring.mul, ring.one
    return any(mul[det, y] == one for y in range(n))


def brute_clique_number(adj) -> int:
    """Largest k for which some k-subset is pairwise adjacent."""
    n = adj.shape[0]
    best = 0
    for k in range(1, n + 1):
        if brute_has_clique(adj, k):
            best = k
        else:
            break
    return best


def brute_has_clique(adj, k: int) -> bool:
    """Enumerate subsets of size k, early-exiting on the first non-edge."""
    n = adj.shape[0]
    if k <= 1:
        return k <= n
    for subset in combinations(range(n), k):
        if all(adj[u, v] for u, v in combinations(subset, 2)):
            return True
    return False


def brute_lex_least_max_clique(adj) -> tuple[int, ...]:
    n = adj.shape[0]
    omega = brute_clique_number(adj)
    if omega == 0:
        return ()
    return min(
        s
        for s in combinations(range(n), omega)
        if all(adj[u, v] for u, v in combinations(s, 2))
    )
