"""Independent oracles used to cross-check library results.

These deliberately avoid the library's own code paths: raw table scans,
naive subset enumeration, determinant arithmetic for commutative rings,
matrix arithmetic on tuples of tuples, a plain search over all
completions of a pair for 2x2 invertibility and admissibility, a column
count over all n^2 columns for invertibility between many rows, closed
forms for the first five signature columns, and whole-matrix neighbourhood
intersections over the points, without the twin classes. The maximal
ideals are filtered from the library's enumerated ideal lattices, a route
that shares no code with the maximal counts the fingerprint reads off the
blocks of R/J. Jacobson candidate C is counted by labelling the unit orbits
of pairs, the route the library's lines take, not by Burnside's lemma.
Ring files are written with one str() per entry and read with one int()
per token, the per-token route the library's whole-array reader replaced.
The additive generators are closed by numpy breadth-first steps, the route
the library's closure over lists replaced.
Rings are relabelled along a permutation of their elements and compared
table by table, and recipes are written back to text, by the tools at the
top of this module.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from ringline import (
    ClosureTooLarge,
    NotAutomorphism,
    RingRecipe,
    ideal_lattice,
    jacobson_radical,
    validate_ring,
)
from ringline.line import orbit_labels


def relabel(ring, perm: Sequence[int]):
    """Transport both tables along a bijection of element indices.

    ``perm[i]`` is the new index of old element ``i``; 0 must stay fixed so
    the result keeps the zero-at-index-0 convention. The result is validated.
    """
    n = ring.order
    p = list(int(x) for x in perm)
    if len(p) != n or sorted(p) != list(range(n)):
        raise ValueError("perm is not a permutation of the element indices")
    if p[0] != 0:
        raise ValueError("perm must fix the zero element")
    parr = np.array(p)
    back = np.argsort(parr)  # new index -> old index
    new_add = parr[ring.add[np.ix_(back, back)]]
    new_mul = parr[ring.mul[np.ix_(back, back)]]
    return validate_ring(new_add, new_mul, p[ring.one], name=f"{ring.name}~relabel")


def same_tables(first, second) -> bool:
    """Equal order, one, addition and multiplication tables."""
    return (
        first.order == second.order
        and first.one == second.one
        and np.array_equal(first.add, second.add)
        and np.array_equal(first.mul, second.mul)
    )


def recipe_text(recipe: RingRecipe) -> str:
    """The recipe written back as text: an atom ``head:value`` or a call."""
    if recipe.kind in ("zn", "gf", "algebra"):
        return f"{recipe.kind}:{recipe.args[0]}"
    parts = [recipe_text(a) if isinstance(a, RingRecipe) else str(a) for a in recipe.args]
    return f"{recipe.kind}({','.join(parts)})"


def additive_generators_oracle(add: np.ndarray) -> list[int]:
    """The greedy additive generators of core._additive_generators, each the
    least element not yet reached, with the reached set closed by one numpy
    breadth-first step per round over all generators so far."""
    reached = np.zeros(add.shape[0], dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        steps = add[:, gens]
        frontier = np.flatnonzero(reached)
        while frontier.size:
            fresh = np.zeros_like(reached)
            fresh[steps[frontier]] = True
            fresh &= ~reached
            reached |= fresh
            frontier = np.flatnonzero(fresh)
    return gens


def brute_units(ring) -> set[int]:
    """Two-sided inverse scan over the raw multiplication table."""
    n, mul, one = ring.order, ring.mul, ring.one
    return {
        x
        for x in range(n)
        if any(mul[x, y] == one and mul[y, x] == one for y in range(n))
    }


def two_sided_inverses(ring) -> np.ndarray:
    """The inverse table by its definition: for each x the y with x*y == 1
    and y*x == 1, or -1 when there is none."""
    both = (ring.mul == ring.one) & (ring.mul.T == ring.one)
    return np.where(both.any(axis=1), both.argmax(axis=1), -1)


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


def maximal_ideals(ring, side: str) -> list[frozenset[int]]:
    """The proper ideals of the side that no other proper ideal contains,
    filtered from the enumerated :func:`ringline.ideal_lattice`, the route
    that shares no code with the block counts of R/J."""
    proper = [i for i in ideal_lattice(ring, side) if len(i) < ring.order]
    return [i for i in proper if not any(i < j for j in proper)]


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


def jacobson_c_oracle(ring) -> int:
    """Nonzero left unit-orbits on J x J: the distinct orbit labels of the
    pair codes a*n+b with a, b in J, less the orbit of (0, 0)."""
    radical = np.array(sorted(jacobson_radical(ring)))
    codes = (radical[:, None] * ring.order + radical[None, :]).ravel()
    return len(np.unique(orbit_labels(ring, "left")[codes])) - 1


Pair = tuple[int, int]
Mat2 = tuple[Pair, Pair]


def is_invertible_2x2(ring, matrix: Mat2) -> bool:
    """True iff the matrix has a two-sided inverse over the ring.

    Solves M*X = I column by column over all |R|^2 candidate columns. A right
    inverse is two-sided: Y -> M*Y is onto (M*X*Z = Z), hence one-to-one on
    the finite set M2(R), and M*(X*M) = M*I gives X*M = I.
    """
    (a, b), (c, d) = matrix
    add, mul, one = ring.add, ring.mul, ring.one
    fab = add[np.ix_(mul[a], mul[b])]  # (x, z) -> a*x + b*z
    fcd = add[np.ix_(mul[c], mul[d])]
    col1 = (fab == one) & (fcd == 0)
    if not col1.any():
        return False
    col2 = (fab == 0) & (fcd == one)
    return bool(col2.any())


def invertible_between(ring, codes) -> np.ndarray:
    """inv[i, j]: rows codes[i] over codes[j] (pair codes a*n+b) stack to an
    invertible matrix.

    Row (a, b) sends the column (x, z) to a*x + b*z. The matrix has a right
    inverse iff some column goes to (1, 0) and another to (0, 1), and a right
    inverse is two-sided as in is_invertible_2x2. The column counts come from
    a float32 matrix product over all n^2 columns, exact since no count
    exceeds n^2.
    """
    n = ring.order
    a, b = np.divmod(np.asarray(codes), n)
    f = ring.add[ring.mul[a][:, :, None], ring.mul[b][:, None, :]].reshape(len(a), n * n)
    ones = (f == ring.one).astype(np.float32)
    zeros = (f == 0).astype(np.float32)
    first = ones @ zeros.T > 0  # [i, j]: some column goes to (1, 0)
    return first & first.T


def is_admissible(ring, pair: Pair) -> bool:
    """True iff some second row completes the pair to an invertible matrix.

    Plain search over all |R|^2 second rows (c, d) at once, free of the
    orbit and ideal shortcuts used by build_line so the two routes check
    each other. As in is_invertible_2x2, the matrix is invertible iff some
    column (x, z) goes to (1, 0) and another to (0, 1); only the columns
    with a*x + b*z in {0, 1} can, so only those are tried.
    """
    a, b = int(pair[0]), int(pair[1])
    add, mul, one = ring.add, ring.mul, ring.one
    fab = add[np.ix_(mul[a], mul[b])]  # (x, z) -> a*x + b*z
    x1, z1 = np.nonzero(fab == one)
    x0, z0 = np.nonzero(fab == 0)
    # [c, d, k]: c*x + d*z over the k-th column tried
    to_10 = (add[mul[:, x1][:, None, :], mul[:, z1][None, :, :]] == 0).any(axis=2)
    to_01 = (add[mul[:, x0][:, None, :], mul[:, z0][None, :, :]] == one).any(axis=2)
    return bool((to_10 & to_01).any())


def line_arrays_oracle(ring, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, rows, adjacency) of the line whose unit orbits the labels
    name, rebuilt without build_line: the pairs that pass is_admissible,
    grouped by label, and the distant relation by invertible_between."""
    n = ring.order
    classes: dict[int, list[int]] = {}
    for code in range(n * n):
        if is_admissible(ring, divmod(code, n)):
            classes.setdefault(int(labels[code]), []).append(code)
    codes = sorted(classes)
    return np.array(codes), np.array([classes[c] for c in codes]), invertible_between(ring, codes)


def closed_form_row(ring) -> tuple[int, int, int, int, int]:
    """(Tot, TpI, 1N, cap2N, cap3N) of either line over the ring, without
    building it.

    GL2(R) moves any pairwise-distant triple to (1,0), (0,1), (1,1), so each
    column is a count at those points. A point is a unit orbit of |U|
    admissible pairs, and (a, b) is admissible when a + b*t is a unit for
    some t (plain loops over t). Then Tot = |admissible| / |U|; the Type I
    points are (1, b) and (a, 1) with a a non-unit, 2n - |U| of them; (1,0)
    is distant from exactly the n points (c, 1); the common neighbours of
    (1,0) and (0,1) are the Type II points; and (a, b) is near all three of
    the triple when a, b and b - a are non-units.
    """
    n, add, mul = ring.order, ring.add.tolist(), ring.mul.tolist()
    units = brute_units(ring)
    unit = [x in units for x in range(n)]
    neg = [row.index(0) for row in add]
    admissible = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if any(unit[add[a][mul[b][t]]] for t in range(n))
    ]
    nunits = sum(unit)
    tot = len(admissible) // nunits
    tpi = 2 * n - nunits
    near_triple = sum(
        not (unit[a] or unit[b] or unit[add[b][neg[a]]]) for a, b in admissible
    )
    return tot, tpi, tot - 1 - n, tot - tpi, near_triple // nunits


def member_pairs(line, i: int) -> list[Pair]:
    """The admissible pairs of the line's i-th point, ascending, decoded from
    its member codes a*n+b."""
    return [divmod(c, line.ring.order) for c in line.points[i].members.tolist()]


def _spread(values: np.ndarray) -> tuple[int, int, int]:
    """(lo, hi, count) of the values; (0, 0, 0) when there are none."""
    if not values.size:
        return (0, 0, 0)
    return (int(values.min()), int(values.max()), int(values.size))


def _near(adjacency) -> np.ndarray:
    return ~adjacency & ~np.eye(len(adjacency), dtype=bool)


def pair_intersection_oracle(adjacency) -> tuple[int, int, int]:
    """(lo, hi, count) of |N(P) & N(Q)| over the distant pairs, read off one
    (points x points) product of the neighbour matrix, exact in float32."""
    near = _near(adjacency).astype(np.float32)
    i, j = np.nonzero(np.triu(adjacency))
    return _spread((near @ near.T)[i, j])


def triple_intersection_oracle(adjacency) -> tuple[int, int, int]:
    """(lo, hi, count) of |N(P) & N(Q) & N(S)| over the pairwise-distant
    triples: row p of a (distant pairs x points) product counts the common
    neighbours of the p-th pair (i, j) and each point k, kept when k is
    distant from both and k > j."""
    near = _near(adjacency)
    i, j = np.nonzero(np.triu(adjacency))
    counts = (near[i] & near[j]).astype(np.float32) @ near.T.astype(np.float32)
    later = adjacency[i] & adjacency[j] & (np.arange(len(adjacency)) > j[:, None])
    return _spread(counts[later])


def det_is_unit(ring, matrix: Mat2) -> bool:
    """Determinant-is-a-unit test; valid oracle for commutative rings only."""
    (a, b), (c, d) = matrix
    n, add, mul, one = ring.order, ring.add, ring.mul, ring.one
    det = add[mul[a, d], ring.neg[mul[c, b]]]
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


def emit_ring_file_oracle(ring) -> str:
    """The ring file format with one str() per table entry, a row at a time."""
    lines = [f"ring {ring.name}", f"order {ring.order}", f"one {ring.one}", "add"]
    lines.extend(" ".join(map(str, row.tolist())) for row in ring.add)
    lines.append("mul")
    lines.extend(" ".join(map(str, row.tolist())) for row in ring.mul)
    return "\n".join(lines) + "\n"


def ring_file_tables_oracle(text: str) -> tuple[list[list[int]], list[list[int]]]:
    """The add and mul tables of a well-formed ring file, every token read by
    int() behind the screen a ring file's integers pass: ASCII, no '+' or '_'."""
    kept = [line for raw in text.splitlines() if (line := raw.split("#", 1)[0].strip())]

    def integers(line: str) -> list[int]:
        assert line.isascii() and "+" not in line and "_" not in line, line
        return [int(t) for t in line.split()]

    n = integers(kept[1].split(None, 1)[1])[0]
    return (
        [integers(line) for line in kept[4 : 4 + n]],
        [integers(line) for line in kept[5 + n : 5 + 2 * n]],
    )
