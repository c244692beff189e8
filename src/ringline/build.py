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
from functools import reduce
from itertools import product as iter_product
from typing import Iterable, Sequence

import numpy as np

from .core import FiniteRing, _integer, characteristic, is_commutative, validate_ring
from .errors import (
    NotPrime,
    OrderTooLarge,
    RecipeError,
    RingSyntaxError,
)

ORDER_CAP = 1024  # largest ring any constructor builds; its tables hold n^2 entries
RECIPE_DEPTH_CAP = 64  # nested constructor calls; the deepest shipped recipe has 4


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
    p, k = _integer(p, "characteristic"), _integer(k, "extension degree")
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
    sig_a = np.asarray(sigma)[a_of]
    add = f.add[a_of][:, a_of] + f.add[b_of][:, b_of] * n
    # (a1 + b1 x)(a2 + b2 x) = a1 a2 + (a1 b2 + b1 sigma(a2)) x
    xa = f.mul[a_of][:, a_of]
    xb = f.add[f.mul[a_of][:, b_of], f.mul[b_of][:, sig_a]]
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
    """x -> x^(p^power) on a finite field f of characteristic p, for power >= 0.

    Every automorphism of GF(p^k) is one of these maps. x -> x^p has order
    k there, so the power is read mod k.
    """
    power = _integer(power, "Frobenius power")
    if power < 0:
        raise ValueError(f"Frobenius power must be non-negative, got {power}")
    if (f.inv[1:] < 0).any():
        raise ValueError(f"Frobenius automorphisms are taken on a field, not on {f.name}")
    p = characteristic(f)
    k = round(math.log(f.order, p))  # the order is exactly p^k
    frob, idx = np.full(f.order, f.one), np.arange(f.order)
    for _ in range(p):  # frob[x] = x^p, one multiplication of every element per step
        frob = f.mul[frob, idx]
    sigma = idx
    for _ in range(power % k):
        sigma = frob[sigma]
    return tuple(sigma.tolist())


def skew_dual_numbers(f: FiniteRing, power: int = 1) -> FiniteRing:
    """a + b*x over a field f with x^2 = 0 and x*a = sigma(a)*x, where sigma is
    x -> x^(p^power) (:func:`frobenius_automorphism`); power 0 is the identity.
    Noncommutative iff sigma != id; index of a + b*x is a + b*|f|."""
    _check_order(f.order**2, f"{f.name}[x;s]/(x^2)")
    if (f.inv[1:] < 0).any():
        raise ValueError("skew dual numbers require a field base")
    sigma = frobenius_automorphism(f, power)
    add, mul = _pair_tables(f, sigma)
    tag = "id" if sigma == tuple(range(f.order)) else "s"
    return validate_ring(add, mul, f.one, name=f"{f.name}[x;{tag}]/(x^2)")


def direct_product(r1: FiniteRing, r2: FiniteRing) -> FiniteRing:
    """Componentwise ring on pairs; index of (a, b) is a*|r2| + b."""
    n1, n2 = r1.order, r2.order
    _check_order(n1 * n2, f"{r1.name}x{r2.name}")
    idx = np.arange(n1 * n2)
    i1 = idx // n2
    i2 = idx % n2
    add = r1.add[i1][:, i1] * n2 + r2.add[i2][:, i2]
    mul = r1.mul[i1][:, i1] * n2 + r2.mul[i2][:, i2]
    one = r1.one * n2 + r2.one
    return validate_ring(add, mul, one, name=f"{r1.name}x{r2.name}")


# ---------------------------------------------------------------------------
# matrix rings


def _matrix_algebra(base: FiniteRing, dim: int, triangular: bool) -> FiniteRing:
    """Every full or upper-triangular dim x dim matrix over the base ring.

    The matrices are enumerated in lexicographic order of their free entries,
    row-major, so a matrix's index is those entries read as digits base
    |base|, first entry most significant, and the zero matrix is index 0.
    The tables are filled one free entry (i, j) at a time, like the
    structure-constant algebras, so each temporary is one n x n table. A
    product's entry sums base.mul over every k in a full ring, over i <= k <= j
    in a triangular one: an entry left out of a triangular ring is 0 and
    base.mul[0, x] = 0, so skipping it changes nothing.
    """
    dim = _integer(dim, "matrix dimension")
    if dim < 1:
        raise ValueError("matrix dimension must be positive")
    name = base.name if dim == 1 else f"{'T' if triangular else 'M'}{dim}({base.name})"
    count = dim * (dim + 1) // 2 if triangular else dim * dim
    _check_order(base.order, name, count)  # before any list of dim^2 positions
    free = [(i, j) for i in range(dim) for j in range(i if triangular else 0, dim)]
    places = [base.order**e for e in range(count - 1, -1, -1)]
    idx = np.arange(base.order**count)
    digit = {ij: idx // p % base.order for ij, p in zip(free, places)}
    add = np.zeros((len(idx), len(idx)), dtype=np.int64)
    mul = np.zeros_like(add)
    for (i, j), p in zip(free, places):  # table[x][:, y] is faster than table[x[:, None], y]
        add += base.add[digit[i, j]][:, digit[i, j]] * p
        ks = range(i, j + 1) if triangular else range(dim)
        terms = (base.mul[digit[i, k]][:, digit[k, j]] for k in ks)
        mul += reduce(lambda s, t: base.add[s, t], terms) * p
    one = base.one * sum(p for (i, j), p in zip(free, places) if i == j)
    return validate_ring(add, mul, one, name=name)


def matrix_ring(base: FiniteRing, dim: int) -> FiniteRing:
    """Full dim x dim matrices over the base ring, indexed lexicographically
    on their row-major entry tuples."""
    return _matrix_algebra(base, dim, triangular=False)


def triangular_ring(base: FiniteRing, dim: int) -> FiniteRing:
    """Upper-triangular dim x dim matrices over the base ring, indexed
    lexicographically on their row-major entry tuples."""
    return _matrix_algebra(base, dim, triangular=True)


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
    exact = np.asarray(mul_constants, dtype=object)
    if exact.shape != (rank, rank, rank):
        raise ValueError(f"constants must be {rank}x{rank}x{rank} coefficient vectors")
    const = np.reshape([_integer(c, "structure constant") % m for c in exact.flat], exact.shape)
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
# ring files


# non-empty rows, one a line: no sign, '_', '.' or non-ASCII digit
_PLAIN_ROWS = re.compile(r"[0-9 \t]+(?:\n[0-9 \t]+)*")


def _plain_table(rows: list[str], n: int) -> np.ndarray | None:
    """The n x n table of n rows of ASCII digits, spaces and tabs, read by one
    np.loadtxt call, which reads such rows to the integers int() reads token
    by token; None for other rows, an entry past int64 or another shape. The
    rows are lines of a file, so none holds a newline, and one match over
    them joined by newlines screens them all."""
    if len(rows) != n or not _PLAIN_ROWS.fullmatch("\n".join(rows)):
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


# recipe head -> (the argument kinds it accepts, its constructor); an atom
# takes one integer or name after ':', a call rings and integers in parentheses
_RECIPE_HEADS = {
    "zn": ((("integer",),), ring_zn),
    "gf": ((("integer",),), _gf_of_order),
    "algebra": ((("name",),), _named_algebra),
    "dual": ((("ring",),), quotient_dual_numbers),
    "skew": ((("ring",), ("ring", "integer")), skew_dual_numbers),
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
