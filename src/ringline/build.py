"""Constructors for the catalog rings, ring file I/O, and recipe strings.

Every constructor returns a ring that has been through the full validator.
Element indexing is canonical per constructor (documented on each one), so a
recipe always reproduces identical tables. A recipe is read from one list of
tokens, a ring file from its lines that hold tokens, each part at a fixed index.
A ring file's tables go in and out of text as whole arrays: one
``np.loadtxt`` call reads a table of plain rows, a line-by-line reader only
a table that holds an error or an unusual separator, and a table is written
from one gather of fixed-width byte slots, one slot per element index.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, Sequence

import numpy as np

from .core import FiniteRing, _integer, characteristic, is_commutative, validate_ring
from .errors import (
    ClosureTooLarge,
    NotAutomorphism,
    NotPrime,
    OrderTooLarge,
    RecipeError,
    RingSyntaxError,
)

ORDER_CAP = 1024  # largest ring any constructor builds; its tables hold n^2 entries
RECIPE_DEPTH_CAP = 64  # nested constructor calls; the deepest shipped recipe has 4

Matrix = tuple[tuple[int, ...], ...]
_MATRIX_BLOCK = 2**16  # matrix pairs per step when filling matrix ring tables


def _check_order(order: int, what: str, power: int = 1) -> None:
    """Refuse a construction before it allocates tables for ``order**power``
    elements. An order of at least 2 to a power past ORDER_CAP's bit length
    exceeds the cap, so such a power is refused without being computed."""
    if power > ORDER_CAP.bit_length() or order**power > ORDER_CAP:
        size = order if power == 1 else f"{order}^{power}"
        raise OrderTooLarge(f"{what} would have {size} elements (cap {ORDER_CAP})")


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# cyclic rings and Galois fields


def ring_zn(n: int) -> FiniteRing:
    """Integers mod n; element index equals residue value."""
    n = _integer(n, "modulus")
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    return structure_constants_algebra(n, 1, [[[1]]], name=f"Z{n}")


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    # mod is monic; classic long division over Z_p, remainder not trimmed
    r = list(a)
    d = len(mod) - 1
    while len(r) > d:
        coeff = r[-1]
        if coeff:
            shift = len(r) - 1 - d
            for i, cm in enumerate(mod):
                r[shift + i] = (r[shift + i] - coeff * cm) % p
        r.pop()
    return r


def _monic_polys(degree: int, p: int) -> Iterable[list[int]]:
    for lower in iter_product(range(p), repeat=degree):
        yield list(lower) + [1]


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Exhaustive trial division by all lower-degree monic polynomials."""
    k = len(poly) - 1
    if k < 1 or poly[-1] != 1:
        return False
    for d in range(1, k // 2 + 1):
        for g in _monic_polys(d, p):
            if not any(_poly_mod(poly, g, p)):
                return False
    return True


def default_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically first (by low-coefficient value) monic irreducible."""
    for poly in _monic_polys(k, p):
        if is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # impossible over Z_p


def ring_gf(p: int, k: int) -> FiniteRing:
    """Field GF(p^k) on polynomial residues modulo ``default_irreducible(p, k)``:
    the structure-constant algebra on the basis 1, x, ..., x^(k-1).

    Element index encodes the coefficient vector base p, constant term least
    significant, so index 1 is the field's one and indices 0..p-1 are the
    prime subfield.
    """
    if k < 1:
        raise ValueError("extension degree must be positive")
    if p > 1:  # the size first: trial division takes up to sqrt(p) steps
        _check_order(p, f"GF({p}^{k})", k)
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    poly = default_irreducible(p, k)
    # const[i][j] = coefficients of x^(i+j) mod poly
    const = [
        [(_poly_mod([0] * (i + j) + [1], poly, p) + [0] * k)[:k] for j in range(k)]
        for i in range(k)
    ]
    return structure_constants_algebra(p, k, const, name=f"GF({p**k})")


# ---------------------------------------------------------------------------
# dual numbers, products


def _pair_tables(f: FiniteRing, sigma: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Tables for a + b*x over f with x^2 = 0 and x*a = sigma(a)*x.

    Index is a + b*|f|.
    """
    n = f.order
    idx = np.arange(n * n)
    a_of = idx % n
    b_of = idx // n
    sig = np.asarray(sigma)
    add = f.add[np.ix_(a_of, a_of)] + f.add[np.ix_(b_of, b_of)] * n
    # (a1 + b1 x)(a2 + b2 x) = a1 a2 + (a1 b2 + b1 sigma(a2)) x
    xa = f.mul[np.ix_(a_of, a_of)]
    xb = f.add[f.mul[np.ix_(a_of, b_of)], f.mul[np.ix_(b_of, sig[a_of])]]
    mul = xa + xb * n
    return add, mul


def quotient_dual_numbers(f: FiniteRing) -> FiniteRing:
    """f[x]/(x^2) for a commutative base; index of a + b*x is a + b*|f|."""
    _check_order(f.order**2, f"{f.name}[x]/(x^2)")
    if not is_commutative(f):
        raise ValueError("dual numbers require a commutative base ring")
    add, mul = _pair_tables(f, list(range(f.order)))
    return validate_ring(add, mul, f.one, name=f"{f.name}[x]/(x^2)")


def frobenius_automorphism(f: FiniteRing, power: int = 1) -> tuple[int, ...]:
    """x -> x^(p^power) where p is the characteristic, for power >= 0.

    The iterates of x -> x^p on a finite ring repeat, so a large power is
    reduced along their cycle instead of being applied step by step.
    """
    if power < 0:
        raise ValueError(f"Frobenius power must be non-negative, got {power}")
    p = characteristic(f)
    if not _is_prime(p):
        raise NotAutomorphism(f"characteristic {p} is not prime")
    frob, idx = np.full(f.order, f.one), np.arange(f.order)
    for _ in range(p):  # frob[x] = x^p, one multiplication of every element per step
        frob = f.mul[frob, idx]
    maps = [tuple(range(f.order))]  # maps[i] is x -> x^(p^i)
    while len(maps) <= power:
        step = tuple(frob[list(maps[-1])].tolist())
        if step in maps:
            start = maps.index(step)
            return maps[start + (power - start) % (len(maps) - start)]
        maps.append(step)
    return maps[power]


def _check_automorphism(f: FiniteRing, sigma: Sequence[int]) -> tuple[int, ...]:
    sig = tuple(int(s) for s in sigma)
    n = f.order
    if len(sig) != n or sorted(sig) != list(range(n)):
        raise NotAutomorphism("sigma is not a permutation of the elements")
    if sig[f.one] != f.one or sig[0] != 0:
        raise NotAutomorphism("sigma does not fix 0 and 1")
    s = np.array(sig)
    breaks_add = s[f.add] != f.add[np.ix_(s, s)]
    breaks_mul = s[f.mul] != f.mul[np.ix_(s, s)]
    broken = np.argwhere(breaks_add | breaks_mul)
    if len(broken):  # first witness in row-major order; addition is checked first
        a, b = (int(v) for v in broken[0])
        what = "addition" if breaks_add[a, b] else "multiplication"
        raise NotAutomorphism(f"sigma breaks {what} at ({a}, {b})")
    return sig


def skew_dual_numbers(f: FiniteRing, sigma: Sequence[int]) -> FiniteRing:
    """a + b*x with x^2 = 0 and x*a = sigma(a)*x; noncommutative iff sigma != id."""
    _check_order(f.order**2, f"{f.name}[x;s]/(x^2)")
    if (f.inv[1:] < 0).any():
        raise ValueError("skew dual numbers require a field base")
    sig = _check_automorphism(f, sigma)
    add, mul = _pair_tables(f, sig)
    tag = "id" if sig == tuple(range(f.order)) else "s"
    return validate_ring(add, mul, f.one, name=f"{f.name}[x;{tag}]/(x^2)")


def direct_product(r1: FiniteRing, r2: FiniteRing) -> FiniteRing:
    """Componentwise ring on pairs; index of (a, b) is a*|r2| + b."""
    n1, n2 = r1.order, r2.order
    _check_order(n1 * n2, f"{r1.name}x{r2.name}")
    idx = np.arange(n1 * n2)
    i1 = idx // n2
    i2 = idx % n2
    add = r1.add[np.ix_(i1, i1)] * n2 + r2.add[np.ix_(i2, i2)]
    mul = r1.mul[np.ix_(i1, i1)] * n2 + r2.mul[np.ix_(i2, i2)]
    one = r1.one * n2 + r2.one
    return validate_ring(add, mul, one, name=f"{r1.name}x{r2.name}")


# ---------------------------------------------------------------------------
# matrix rings


def _matrix_mul(base: FiniteRing, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Stacked products over the base ring: ``out[i, j] = x[i] @ y[j]``."""
    prod = None
    for k in range(x.shape[-1]):
        term = base.mul[x[:, None, :, k, None], y[None, :, None, k, :]]
        prod = term if prod is None else base.add[prod, term]
    return prod


def _matrix_codes(base: FiniteRing, mats: np.ndarray) -> np.ndarray:
    """Entries read row-major as digits base |base|, first entry most
    significant, so code order is lexicographic order on entry tuples."""
    cells = mats.shape[-1] * mats.shape[-2]
    places = base.order ** np.arange(cells - 1, -1, -1, dtype=np.int64)
    return mats.reshape(*mats.shape[:-2], cells) @ places


def _matrix_ring(base: FiniteRing, mats: np.ndarray, name: str) -> FiniteRing:
    """Ring on a stack of distinct matrices closed under sum and product.

    Index is the rank of the matrix's code (:func:`_matrix_codes`), which
    puts the zero matrix at index 0. Tables are filled a block of rows at a
    time, so the working memory beyond the tables themselves is
    O(max(n, _MATRIX_BLOCK) * dim^2), not O(n^2 * dim^2).
    """
    codes = _matrix_codes(base, mats)
    by_code = np.argsort(codes)
    mats, codes = mats[by_code], codes[by_code]
    n = len(codes)
    add = np.empty((n, n), dtype=np.int64)
    mul = np.empty((n, n), dtype=np.int64)
    step = max(1, _MATRIX_BLOCK // n)
    for i in range(0, n, step):
        block = mats[i : i + step]
        sums = base.add[block[:, None], mats[None]]
        add[i : i + step] = np.searchsorted(codes, _matrix_codes(base, sums))
        prods = _matrix_mul(base, block, mats)
        mul[i : i + step] = np.searchsorted(codes, _matrix_codes(base, prods))
    one = _matrix_codes(base, np.eye(mats.shape[-1], dtype=np.int64) * base.one)
    return validate_ring(add, mul, int(np.searchsorted(codes, one)), name=name)


def _supported_matrices(base: FiniteRing, dim: int, triangular: bool, name: str) -> np.ndarray:
    """Every full or upper-triangular dim x dim matrix over the base ring."""
    if dim < 1:
        raise ValueError("matrix dimension must be positive")
    count = dim * (dim + 1) // 2 if triangular else dim * dim
    _check_order(base.order, name, count)  # before any list of dim^2 positions
    positions = [(i, j) for i in range(dim) for j in range(i if triangular else 0, dim)]
    digits = np.array(list(iter_product(range(base.order), repeat=count)), dtype=np.int64)
    rows, cols = zip(*positions)
    mats = np.zeros((len(digits), dim, dim), dtype=np.int64)
    mats[:, rows, cols] = digits
    return mats


def matrix_ring(base: FiniteRing, dim: int) -> FiniteRing:
    """Full dim x dim matrices over the base ring, indexed lexicographically
    on their row-major entry tuples."""
    name = base.name if dim == 1 else f"M{dim}({base.name})"
    return _matrix_ring(base, _supported_matrices(base, dim, False, name), name)


def triangular_ring(base: FiniteRing, dim: int) -> FiniteRing:
    """Upper-triangular dim x dim matrices over the base ring, indexed
    lexicographically on their row-major entry tuples."""
    name = base.name if dim == 1 else f"T{dim}({base.name})"
    return _matrix_ring(base, _supported_matrices(base, dim, True, name), name)


# ---------------------------------------------------------------------------
# structure-constant algebras


def structure_constants_algebra(
    m: int,
    rank: int,
    mul_constants: Sequence[Sequence[Sequence[int]]],
    name: str | None = None,
) -> FiniteRing:
    """Free Z_m-module on e0..e_{rank-1} with e0 = 1 and ei*ej given as
    coefficient vectors.

    Index of a coefficient tuple (c0, ..) is sum(ci * m^i); the validator
    enforces that the constants actually define a unital associative ring.
    """
    m, rank = _integer(m, "modulus"), _integer(rank, "rank")
    if m < 2 or rank < 1:
        raise ValueError("need modulus >= 2 and rank >= 1")
    name = name or f"Z{m}-algebra(rank {rank})"
    # before any numpy arithmetic with m, which may not fit in int64
    _check_order(m, name, rank)
    const = np.asarray(mul_constants, dtype=np.int64) % m
    if const.shape != (rank, rank, rank):
        raise ValueError(f"constants must be {rank}x{rank}x{rank} coefficient vectors")
    places = m ** np.arange(rank)
    coeffs = np.arange(m**rank)[:, None] // places % m
    # (sum ai ei)(sum bj ej) = sum_ij ai bj (ei ej), summed one coordinate at
    # a time, so no n x n x rank array is held
    add = sum((coeffs[:, None, k] + coeffs[None, :, k]) % m * places[k] for k in range(rank))
    mul = sum(coeffs @ const[:, :, k] @ coeffs.T % m * places[k] for k in range(rank))
    return validate_ring(add, mul, 1, name=name)  # e0 is the one


def _f2xy_constants() -> list[list[list[int]]]:
    # basis 1, x, y, xy with x^2 = y^2 = yx = 0 and x*y = xy
    e = lambda k: [1 if i == k else 0 for i in range(4)]
    zero = [0, 0, 0, 0]
    return [
        [e(0), e(1), e(2), e(3)],  # 1 * {1, x, y, xy}
        [e(1), zero, e(3), zero],  # x * {...}: x*y = xy, rest vanish
        [e(2), zero, zero, zero],  # y * {...}: yx = 0
        [e(3), zero, zero, zero],  # xy * {...}
    ]


NAMED_ALGEBRAS = {
    "f2xy": (
        lambda: structure_constants_algebra(2, 4, _f2xy_constants(), name="F2<x,y>/(x2,y2,yx)")
    ),
}


# ---------------------------------------------------------------------------
# matrix subring closure


def matrix_subring_closure(
    base: FiniteRing,
    generators: Sequence[Matrix],
    dim: int | None = None,
) -> FiniteRing:
    """Smallest subring of dim x dim matrices over ``base`` containing the
    generators, 0 and the identity; re-indexed as a standalone ring. A
    closure past ORDER_CAP, read at call time, raises ClosureTooLarge.

    Elements are sorted by entry tuple (row-major), which puts the zero
    matrix at index 0 as required. The sort key is an int64 code, so bases
    with |base|^(dim^2) >= 2^63 are refused with :class:`ClosureTooLarge`.
    """
    gens = [tuple(tuple(int(x) for x in row) for row in g) for g in generators]
    if gens:
        dim = len(gens[0])
        for g in gens:
            if len(g) != dim or any(len(row) != dim for row in g):
                raise ValueError("generators must be square matrices of equal size")
    elif dim is None:
        dim = 1
    if any(not 0 <= x < base.order for g in gens for row in g for x in row):
        raise ValueError(f"generator entries must be element indices 0..{base.order - 1}")
    if base.order ** (dim * dim) >= 2**63:
        raise ClosureTooLarge(
            f"{dim}x{dim} matrices over {base.name} have codes outside the int64 range"
        )
    one = np.eye(dim, dtype=np.int64) * base.one
    basis = np.concatenate([one[None], np.array(gens, dtype=np.int64).reshape(-1, dim, dim)])
    span = np.zeros((1, dim, dim), dtype=np.int64)
    span_codes = np.zeros(1, dtype=np.int64)

    def fresh(mats: np.ndarray) -> np.ndarray:
        """The distinct matrices of the stack that are not yet in the span."""
        codes, first = np.unique(_matrix_codes(base, mats), return_index=True)
        return mats[first[~np.isin(codes, span_codes)]]

    new = basis
    while len(new):
        # the span is a group, so span + <new> is reached from it by adding new
        frontier, steps = span, new
        while len(frontier):
            frontier = fresh(base.add[frontier[:, None], steps[None]].reshape(-1, dim, dim))
            if len(span) + len(frontier) > ORDER_CAP:
                raise ClosureTooLarge(f"closure exceeds {ORDER_CAP} elements")
            span = np.concatenate([span, frontier])
            span_codes = np.concatenate([span_codes, _matrix_codes(base, frontier)])
        new = fresh(_matrix_mul(base, basis, basis).reshape(-1, dim, dim))
        basis = np.concatenate([basis, new])
    return _matrix_ring(base, span, name=f"closure({base.name},{dim}x{dim})")


# ---------------------------------------------------------------------------
# ring files


_PLAIN_ROW = re.compile(r"[0-9 \t]+")  # no sign, '_', '.' or non-ASCII digit


def _plain_table(rows: list[str], n: int) -> np.ndarray | None:
    """The n x n table of n rows of ASCII digits, spaces and tabs, read by one
    np.loadtxt call, which reads such rows to the integers int() reads token
    by token; None for other rows, an entry past int64 or another shape."""
    if len(rows) != n or not all(map(_PLAIN_ROW.fullmatch, rows)):
        return None
    try:
        table = np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:  # an entry past int64, or rows of unequal length
        return None
    return table if table.shape == (n, n) else None


def emit_ring_file(ring: FiniteRing) -> str:
    """Canonical plain-text form; bit-exact round trip with parse_ring_file.

    Each index is rendered once, as an 8-byte slot: its ASCII digits, zero
    bytes, then a space (seven digits cover any table that fits in memory).
    A table's text is one gather of those slots read as uint64 words
    (:func:`_table_text`).
    """
    slots = b"".join(str(x).encode().ljust(7, b"\0") + b" " for x in range(ring.order))
    words = np.frombuffer(slots, dtype=np.uint64)
    return "".join([
        f"ring {ring.name}\norder {ring.order}\none {ring.one}\nadd\n",
        _table_text(words, ring.add),
        "mul\n",
        _table_text(words, ring.mul),
    ])


def _table_text(words: np.ndarray, table: np.ndarray) -> str:
    """The rows of ``table`` as text: the slots of its entries, the last byte
    of each row a newline, the zero bytes dropped. Each n^2 temporary is
    freed before the next is made."""
    rows = words[table].view(np.uint8)  # row i: the slots of table[i], 8n bytes
    rows[:, -1] = ord("\n")
    text = rows.tobytes()
    del rows
    return text.translate(None, b"\0").decode()


def parse_ring_file(text: str) -> FiniteRing:
    """Parse the ring file format; '#' starts a comment anywhere on a line.

    Among the lines that hold tokens, each part sits at a fixed index: 0
    ``ring``, 1 ``order``, 2 ``one``, 3 ``add`` and its n rows, 4 + n ``mul``
    and its n rows. Anything after them is trailing content.

    A table whose n rows hold only ASCII digits, spaces and tabs is read by
    one ``np.loadtxt`` call into an int64 array (:func:`_plain_table`). Any
    other table, or one with an entry past int64 or a row of the wrong
    length, goes through the per-line reader, which names the line of the
    first error, or reads the rare legal row the screen keeps out, such as
    one split by another whitespace character.
    """
    lines = enumerate(text.splitlines(), start=1)
    kept = [(lineno, line) for lineno, raw in lines if (line := raw.split("#", 1)[0].strip())]
    end = kept[-1][0] + 1 if kept else 1  # where a missing line is reported

    def integers(line: str) -> list[int]:  # int() alone reads '+2', '0_0', non-ASCII digits
        if not line.isascii() or "+" in line or "_" in line:
            raise ValueError(line)
        return [int(tok) for tok in line.split()]

    def tagged(i: int, tag: str) -> tuple[int, str]:
        """Line number of kept line i, and its tokens after its tag joined by spaces."""
        if i >= len(kept):
            raise RingSyntaxError(f"unexpected end of file, expected {tag!r}", end)
        lineno, tokens = kept[i][0], kept[i][1].split()
        if tokens[0] != tag:
            raise RingSyntaxError(f"expected {tag!r}, found {tokens[0]!r}", lineno)
        return lineno, " ".join(tokens[1:])

    def integer(i: int, tag: str) -> tuple[int, int]:
        """Line number and value of kept line i, which holds the tag and one integer."""
        lineno, rest = tagged(i, tag)
        try:
            (value,) = integers(rest)  # a token too many or few: ValueError
        except ValueError:
            raise RingSyntaxError(f"{tag!r} must be followed by one integer", lineno) from None
        return lineno, value

    lineno, name = tagged(0, "ring")
    if not name:
        raise RingSyntaxError("missing ring name", lineno)
    lineno, order = integer(1, "order")
    if order < 2:
        raise RingSyntaxError(f"order must be at least 2, got {order}", lineno)
    _check_order(order, name)
    _, one = integer(2, "one")
    tables = {}
    for i, tag in ((3, "add"), (4 + order, "mul")):
        lineno, rest = tagged(i, tag)
        if rest:
            raise RingSyntaxError(f"{tag!r} must be alone on its line", lineno)
        table = _plain_table([line for _, line in kept[i + 1 : i + 1 + order]], order)
        if table is not None:
            tables[tag] = table
            continue
        # the per-line reader names the line of an error; it splits a line
        # where it is read, not all n^2 entries as strings at once
        rows = tables[tag] = []
        for lineno, line in kept[i + 1 : i + 1 + order]:
            try:
                rows.append(row := integers(line))
            except ValueError:
                raise RingSyntaxError(f"non-integer entry in {tag} table", lineno) from None
            if len(row) != order:
                raise RingSyntaxError(f"{tag} row has {len(row)} entries, expected {order}", lineno)
        if len(rows) < order:
            raise RingSyntaxError(f"{tag} table ends early: expected {order} rows", end)
    if len(kept) > 5 + 2 * order:
        raise RingSyntaxError("trailing content after tables", kept[5 + 2 * order][0])
    return validate_ring(tables["add"], tables["mul"], one, name=name)


# ---------------------------------------------------------------------------
# recipes


def _gf_of_order(q: int) -> FiniteRing:
    """GF(q) for a prime power q = p^k; p is q's least factor above 1."""
    _check_order(q, f"GF({q})")
    p = next((d for d in range(2, q + 1) if q % d == 0), 2)
    for k in range(1, q.bit_length()):
        if p**k == q:
            return ring_gf(p, k)
    raise NotPrime(f"{q} is not a prime power")


def _named_algebra(name: str) -> FiniteRing:
    if name not in NAMED_ALGEBRAS:
        raise RecipeError(f"unknown named algebra {name!r}")
    return NAMED_ALGEBRAS[name]()


def _skew(f: FiniteRing, power: int = 1) -> FiniteRing:
    """Skew dual numbers over f twisted by x -> x^(p^power); power 0 is the identity."""
    sigma = tuple(range(f.order)) if power == 0 else frobenius_automorphism(f, power)
    return skew_dual_numbers(f, sigma)


# recipe head -> (the argument kinds it accepts, its constructor); an atom
# takes one integer or name after ':', a call rings and integers in parentheses
_RECIPE_HEADS = {
    "zn": ((("integer",),), ring_zn),
    "gf": ((("integer",),), _gf_of_order),
    "algebra": ((("name",),), _named_algebra),
    "dual": ((("ring",),), quotient_dual_numbers),
    "skew": ((("ring",), ("ring", "integer")), _skew),
    "mat": ((("ring", "integer"),), matrix_ring),
    "tri": ((("ring", "integer"),), triangular_ring),
    "prod": ((("ring", "ring"),), direct_product),
}
_ATOMS = frozenset(h for h, (kinds, _) in _RECIPE_HEADS.items() if "ring" not in kinds[0])


@dataclass(frozen=True)
class RingRecipe:
    """A parsed constructor call; same recipe, same tables."""

    kind: str
    args: tuple


# a recipe token: a head with its ':value', an integer, any other character or
# the empty token at the end; ASCII only, so a non-ASCII digit is no integer
_RECIPE_TOKEN = re.compile(
    r"(?P<head>[A-Za-z_]\w*)(?::(?P<value>\w*))?|(?P<int>\d+)|.|\Z", re.ASCII | re.DOTALL
)


def parse_recipe(text: str) -> RingRecipe:
    """Parse ``head:value`` atoms and ``head(arg,...)`` calls whose arguments
    are integers or recipes; no spaces inside, no trailing comma."""
    text = text.strip()
    tokens = list(_RECIPE_TOKEN.finditer(text))

    def near(i: int) -> str:
        return text[tokens[i].start() :]

    def integer(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # longer than the interpreter converts
            raise RecipeError(f"recipe integer of {len(digits)} digits is too long") from None

    def recipe(i: int, depth: int) -> tuple[RingRecipe, int]:
        """The recipe at token i, and the index of the token after it."""
        if depth > RECIPE_DEPTH_CAP:
            raise RecipeError(f"recipe nests constructors deeper than {RECIPE_DEPTH_CAP} levels")
        head, value = tokens[i]["head"], tokens[i]["value"]
        if head in _ATOMS and value:
            if _RECIPE_HEADS[head][0] == (("integer",),):
                if not value.isdigit():
                    raise RecipeError(f"'{head}:' needs an integer, got {value!r}")
                value = integer(value)
            return RingRecipe(head, (value,)), i + 1
        if (head in _ATOMS or head not in _RECIPE_HEADS or value is not None
                or tokens[i + 1][0] != "("):
            raise RecipeError(f"bad recipe syntax near {near(i)!r}")
        args: list = []
        i += 2 if tokens[i + 2][0] == ")" else 1  # at ')' if there are no arguments
        while tokens[i][0] != ")":  # at '(' or ',', and an argument follows
            if tokens[i + 1]["int"]:
                arg, i = integer(tokens[i + 1]["int"]), i + 2
            else:
                arg, i = recipe(i + 1, depth + 1)
            args.append(arg)
            if tokens[i][0] not in (",", ")"):
                raise RecipeError(f"expected ',' or ')' near {near(i)!r}")
        got = tuple("ring" if isinstance(a, RingRecipe) else "integer" for a in args)
        kinds = _RECIPE_HEADS[head][0]
        if got not in kinds:
            want = " or ".join(f"({', '.join(k)})" for k in kinds)
            raise RecipeError(f"{head} takes {want}, got ({', '.join(got)})")
        return RingRecipe(head, tuple(args)), i + 1

    parsed, i = recipe(0, 0)
    if i < len(tokens) - 1:
        raise RecipeError(f"trailing characters in recipe: {near(i)!r}")
    return parsed


def build_recipe(recipe: RingRecipe | str) -> FiniteRing:
    """Evaluate a recipe to a validated ring."""
    if isinstance(recipe, str):
        recipe = parse_recipe(recipe)
    if recipe.kind not in _RECIPE_HEADS:
        raise RecipeError(f"unknown recipe kind {recipe.kind!r}")
    construct = _RECIPE_HEADS[recipe.kind][1]
    return construct(*(build_recipe(a) if isinstance(a, RingRecipe) else a for a in recipe.args))


def ring_from_spec(spec: str) -> FiniteRing:
    """Build from a recipe string, or parse a ring file if ``spec`` is a path."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_ring_file(fh.read())
    return build_recipe(spec)
