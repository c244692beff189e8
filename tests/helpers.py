"""Independent oracles used to cross-check library results.

These deliberately avoid the library's own code paths: raw table scans,
naive subset enumeration, determinant arithmetic for commutative rings,
matrix arithmetic on tuples of tuples.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ringline import ClosureTooLarge, NotAutomorphism, validate_ring


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


def check_automorphism_per_pair(f, sigma) -> tuple[int, ...]:
    """Scan every pair (a, b) in row-major order, addition before
    multiplication, and raise on the first one sigma does not respect."""
    sig = tuple(int(s) for s in sigma)
    n = f.order
    if len(sig) != n or sorted(sig) != list(range(n)):
        raise NotAutomorphism("sigma is not a permutation of the elements")
    if sig[f.one] != f.one or sig[0] != 0:
        raise NotAutomorphism("sigma does not fix 0 and 1")
    for a in range(n):
        for b in range(n):
            if sig[f.add[a, b]] != f.add[sig[a], sig[b]]:
                raise NotAutomorphism(f"sigma breaks addition at ({a}, {b})")
            if sig[f.mul[a, b]] != f.mul[sig[a], sig[b]]:
                raise NotAutomorphism(f"sigma breaks multiplication at ({a}, {b})")
    return sig


def _mat_add(base, a, b):
    return tuple(
        tuple(int(base.add[x, y]) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def _mat_mul(base, a, b):
    dim = len(a)
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = 0
            for k in range(dim):
                acc = int(base.add[acc, base.mul[a[i][k], b[k][j]]])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def tuple_subring_closure(base, generators, dim=None, cap=1024):
    """Matrix subring closure on Python tuples of tuples: additive spans by
    breadth-first search, products entry by entry, tables filled pair by pair.
    Same contract as :func:`ringline.matrix_subring_closure`.
    """
    gens = [tuple(tuple(int(x) for x in row) for row in g) for g in generators]
    if gens:
        dim = len(gens[0])
        for g in gens:
            if len(g) != dim or any(len(row) != dim for row in g):
                raise ValueError("generators must be square matrices of equal size")
    elif dim is None:
        dim = 1
    zero = tuple(tuple(0 for _ in range(dim)) for _ in range(dim))
    one = tuple(
        tuple(base.one if i == j else 0 for j in range(dim)) for i in range(dim)
    )

    basis = [one] + [g for g in gens if g != zero]
    seen_basis = set(basis)

    def additive_span(bs):
        span = {zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for x in frontier:
                for b in bs:
                    s = _mat_add(base, x, b)
                    if s not in span:
                        if len(span) >= cap:
                            raise ClosureTooLarge(
                                f"closure exceeds {cap} elements"
                            )
                        span.add(s)
                        nxt.append(s)
            frontier = nxt
        return span

    span = additive_span(basis)
    while True:
        fresh = []
        for a in basis:
            for b in basis:
                p = _mat_mul(base, a, b)
                if p not in span and p not in seen_basis:
                    fresh.append(p)
                    seen_basis.add(p)
        if not fresh:
            break
        basis.extend(fresh)
        span = additive_span(basis)

    elems = sorted(span)
    index = {mat: i for i, mat in enumerate(elems)}
    n = len(elems)
    add = np.empty((n, n), dtype=np.int64)
    mul = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            add[i, j] = index[_mat_add(base, a, b)]
            mul[i, j] = index[_mat_mul(base, a, b)]
    return validate_ring(add, mul, index[one], name=f"closure({base.name},{dim}x{dim})")
