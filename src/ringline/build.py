"""Constructors for the catalog rings, ring file I/O, and recipe strings.

Every constructor returns a ring that has been through the full validator.
Element indexing is canonical per constructor (documented on each one), so a
recipe always reproduces identical tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterable, Sequence

import numpy as np

from .core import FiniteRing, characteristic, is_commutative, unit_elements, validate_ring
from .errors import (
    ClosureTooLarge,
    NotAutomorphism,
    NotIrreducible,
    NotPrime,
    OrderTooLarge,
    RingSyntaxError,
)

ORDER_CAP = 1024  # largest ring any constructor builds; its tables hold n^2 entries
RECIPE_DEPTH_CAP = 64  # nested constructor calls; the deepest shipped recipe has 4

Matrix = tuple[tuple[int, ...], ...]
_MATRIX_BLOCK = 2**16  # matrix pairs per step when filling matrix ring tables


def _check_order(order: int, what: str) -> None:
    """Refuse a construction before it allocates tables for ``order`` elements."""
    if order > ORDER_CAP:
        raise OrderTooLarge(f"{what} would have {order} elements (cap {ORDER_CAP})")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


# ---------------------------------------------------------------------------
# cyclic rings and Galois fields


def ring_zn(n: int) -> FiniteRing:
    """Integers mod n; element index equals residue value."""
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    _check_order(n, f"Z{n}")
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return validate_ring(add, mul, 1, name=f"Z{n}")


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    # mod is monic; classic long division over Z_p
    r = list(a)
    d = len(mod) - 1
    while len(r) > d:
        coeff = r[-1]
        if coeff:
            shift = len(r) - 1 - d
            for i, cm in enumerate(mod):
                r[shift + i] = (r[shift + i] - coeff * cm) % p
        r.pop()
    return _poly_trim(r)


def _monic_polys(degree: int, p: int) -> Iterable[list[int]]:
    for lower in iter_product(range(p), repeat=degree):
        yield list(lower) + [1]


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Exhaustive trial division by all lower-degree monic polynomials."""
    k = len(poly) - 1
    if k < 1 or poly[-1] != 1:
        return False
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for g in _monic_polys(d, p):
            if not _poly_mod(poly, g, p):
                return False
    return True


def default_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically first (by low-coefficient value) monic irreducible."""
    if k == 1:
        return (0, 1)
    for poly in _monic_polys(k, p):
        if is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # impossible over Z_p


def ring_gf(p: int, k: int, poly: Sequence[int] | None = None) -> FiniteRing:
    """Field GF(p^k) on polynomial residues: the structure-constant algebra on
    the basis 1, x, ..., x^(k-1).

    Element index encodes the coefficient vector base p, constant term least
    significant, so index 1 is the field's one and indices 0..p-1 are the
    prime subfield.
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be positive")
    _check_order(p**k, f"GF({p}^{k})")
    if poly is None:
        poly = default_irreducible(p, k)
    poly = tuple(int(c) % p for c in poly)
    if len(poly) != k + 1 or poly[-1] != 1:
        raise NotIrreducible(f"need a monic polynomial of degree {k}, got {poly}")
    if not is_irreducible(poly, p):
        raise NotIrreducible(f"{poly} is reducible over Z_{p}")
    # const[i][j] = coefficients of x^(i+j) mod poly
    const = [
        [(_poly_mod([0] * (i + j) + [1], poly, p) + [0] * k)[:k] for j in range(k)]
        for i in range(k)
    ]
    return structure_constants_algebra(p, k, const, name=f"GF({p**k})")


# ---------------------------------------------------------------------------
# dual numbers, products


def _pair_tables(
    f: FiniteRing, sigma: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, int]:
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
    return add, mul, f.one


def quotient_dual_numbers(f: FiniteRing) -> FiniteRing:
    """f[x]/(x^2) for a commutative base; index of a + b*x is a + b*|f|."""
    _check_order(f.order**2, f"{f.name}[x]/(x^2)")
    if not is_commutative(f):
        raise ValueError("dual numbers require a commutative base ring")
    add, mul, one = _pair_tables(f, list(range(f.order)))
    return validate_ring(add, mul, one, name=f"{f.name}[x]/(x^2)")


def identity_automorphism(f: FiniteRing) -> tuple[int, ...]:
    return tuple(range(f.order))


def frobenius_automorphism(f: FiniteRing, power: int = 1) -> tuple[int, ...]:
    """x -> x^(p^power) where p is the characteristic."""
    p = characteristic(f)
    if not _is_prime(p):
        raise NotAutomorphism(f"characteristic {p} is not prime")
    sigma = list(range(f.order))
    for _ in range(power):
        sigma = [_ring_pow(f, sigma[x], p) for x in range(f.order)]
    return tuple(sigma)


def _ring_pow(f: FiniteRing, x: int, e: int) -> int:
    r = f.one
    for _ in range(e):
        r = int(f.mul[r, x])
    return r


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
    if len(unit_elements(f)) != f.order - 1:
        raise ValueError("skew dual numbers require a field base")
    sig = _check_automorphism(f, sigma)
    add, mul, one = _pair_tables(f, sig)
    tag = "id" if sig == tuple(range(f.order)) else "s"
    return validate_ring(add, mul, one, name=f"{f.name}[x;{tag}]/(x^2)")


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


def _supported_matrices(
    base: FiniteRing, positions: list[tuple[int, int]], dim: int, name: str
) -> np.ndarray:
    """Every dim x dim matrix over the base ring supported on ``positions``."""
    count = len(positions)
    _check_order(base.order**count, name)
    digits = np.array(list(iter_product(range(base.order), repeat=count)), dtype=np.int64)
    rows, cols = zip(*positions)
    mats = np.zeros((len(digits), dim, dim), dtype=np.int64)
    mats[:, rows, cols] = digits
    return mats


def matrix_ring(base: FiniteRing, dim: int) -> FiniteRing:
    """Full dim x dim matrices over the base ring, indexed lexicographically
    on their row-major entry tuples."""
    if dim < 1:
        raise ValueError("matrix dimension must be positive")
    positions = [(i, j) for i in range(dim) for j in range(dim)]
    name = base.name if dim == 1 else f"M{dim}({base.name})"
    return _matrix_ring(base, _supported_matrices(base, positions, dim, name), name)


def triangular_ring(base: FiniteRing, dim: int) -> FiniteRing:
    """Upper-triangular dim x dim matrices over the base ring, indexed
    lexicographically on their row-major entry tuples."""
    if dim < 1:
        raise ValueError("matrix dimension must be positive")
    positions = [(i, j) for i in range(dim) for j in range(i, dim)]
    name = base.name if dim == 1 else f"T{dim}({base.name})"
    return _matrix_ring(base, _supported_matrices(base, positions, dim, name), name)


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
    if m < 2 or rank < 1:
        raise ValueError("need modulus >= 2 and rank >= 1")
    const = np.asarray(mul_constants, dtype=np.int64) % m
    if const.shape != (rank, rank, rank):
        raise ValueError(f"constants must be {rank}x{rank}x{rank} coefficient vectors")
    n_el = m**rank
    _check_order(n_el, name or f"Z{m}-algebra(rank {rank})")
    coeffs = np.array(
        [[(v // m**i) % m for i in range(rank)] for v in range(n_el)], dtype=np.int64
    )
    places = m ** np.arange(rank)
    add = (((coeffs[:, None, :] + coeffs[None, :, :]) % m) * places).sum(axis=2)
    # (sum ai ei)(sum bj ej) = sum_ij ai bj (ei ej)
    pairwise = np.einsum("ui,vj,ijk->uvk", coeffs, coeffs, const) % m
    mul = (pairwise * places).sum(axis=2)
    one = 1  # e0
    return validate_ring(add, mul, one, name=name or f"Z{m}-algebra(rank {rank})")


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
    cap: int = ORDER_CAP,
) -> FiniteRing:
    """Smallest subring of dim x dim matrices over ``base`` containing the
    generators, 0 and the identity; re-indexed as a standalone ring.

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
            if len(span) + len(frontier) > cap:
                raise ClosureTooLarge(f"closure exceeds {cap} elements")
            span = np.concatenate([span, frontier])
            span_codes = np.concatenate([span_codes, _matrix_codes(base, frontier)])
        new = fresh(_matrix_mul(base, basis, basis).reshape(-1, dim, dim))
        basis = np.concatenate([basis, new])
    return _matrix_ring(base, span, name=f"closure({base.name},{dim}x{dim})")


# ---------------------------------------------------------------------------
# ring files


def emit_ring_file(ring: FiniteRing) -> str:
    """Canonical plain-text form; bit-exact round trip with parse_ring_file."""
    lines = [f"ring {ring.name}", f"order {ring.order}", f"one {ring.one}", "add"]
    lines.extend(" ".join(str(int(v)) for v in row) for row in ring.add)
    lines.append("mul")
    lines.extend(" ".join(str(int(v)) for v in row) for row in ring.mul)
    return "\n".join(lines) + "\n"


def parse_ring_file(text: str) -> FiniteRing:
    """Parse the ring file format; '#' starts a comment anywhere on a line."""
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows.append((lineno, stripped))
    pos = 0

    def take(expected: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(rows):
            raise RingSyntaxError(f"unexpected end of file, expected {expected!r}",
                                  rows[-1][0] + 1 if rows else 1)
        lineno, line = rows[pos]
        pos += 1
        parts = line.split()
        if parts[0] != expected:
            raise RingSyntaxError(f"expected {expected!r}, found {parts[0]!r}", lineno)
        return lineno, parts[1:]

    lineno, rest = take("ring")
    if not rest:
        raise RingSyntaxError("missing ring name", lineno)
    name = " ".join(rest)

    lineno, rest = take("order")
    try:
        order = int(rest[0])
    except (IndexError, ValueError):
        raise RingSyntaxError("order must be an integer", lineno) from None
    if order < 2:
        raise RingSyntaxError(f"order must be at least 2, got {order}", lineno)
    _check_order(order, name)

    lineno, rest = take("one")
    try:
        one = int(rest[0])
    except (IndexError, ValueError):
        raise RingSyntaxError("one must be an integer", lineno) from None

    def table(tag: str) -> list[list[int]]:
        nonlocal pos
        take(tag)
        out = []
        for _ in range(order):
            if pos >= len(rows):
                raise RingSyntaxError(
                    f"{tag} table ends early: expected {order} rows", rows[-1][0] + 1
                )
            lineno, line = rows[pos]
            pos += 1
            try:
                row = [int(tok) for tok in line.split()]
            except ValueError:
                raise RingSyntaxError(f"non-integer entry in {tag} table", lineno) from None
            if len(row) != order:
                raise RingSyntaxError(
                    f"{tag} row has {len(row)} entries, expected {order}", lineno
                )
            out.append(row)
        return out

    add = table("add")
    mul = table("mul")
    if pos != len(rows):
        raise RingSyntaxError("trailing content after tables", rows[pos][0])
    return validate_ring(add, mul, one, name=name)


# ---------------------------------------------------------------------------
# recipes


@dataclass(frozen=True)
class RingRecipe:
    """Serializable constructor call; same recipe, same tables."""

    kind: str
    args: tuple

    def to_string(self) -> str:
        if self.kind in ("zn", "gf"):
            return f"{self.kind}:{self.args[0]}"
        if self.kind == "algebra":
            return f"algebra:{self.args[0]}"
        parts = []
        for a in self.args:
            parts.append(a.to_string() if isinstance(a, RingRecipe) else str(a))
        return f"{self.kind}({','.join(parts)})"

    def __str__(self) -> str:
        return self.to_string()


_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_CALL_ARITY = {"dual": 1, "skew": (1, 2), "mat": 2, "tri": 2, "prod": 2}


def parse_recipe(text: str) -> RingRecipe:
    recipe, rest = _parse_recipe_expr(text.strip())
    if rest:
        raise ValueError(f"trailing characters in recipe: {rest!r}")
    return recipe


def _parse_recipe_expr(s: str, depth: int = 0) -> tuple[RingRecipe, str]:
    if depth > RECIPE_DEPTH_CAP:
        raise ValueError(f"recipe nests constructors deeper than {RECIPE_DEPTH_CAP} levels")
    m = _ATOM_RE.match(s)
    if not m:
        raise ValueError(f"bad recipe syntax near {s!r}")
    head = m.group(0)
    rest = s[m.end() :]
    if rest.startswith(":"):
        rest = rest[1:]
        m2 = re.match(r"[A-Za-z0-9_]+", rest)
        if not m2:
            raise ValueError(f"missing argument after '{head}:'")
        value = m2.group(0)
        rest = rest[m2.end() :]
        if head in ("zn", "gf"):
            if not value.isdigit():
                raise ValueError(f"'{head}:' needs an integer, got {value!r}")
            return RingRecipe(head, (int(value),)), rest
        if head == "algebra":
            return RingRecipe("algebra", (value,)), rest
        raise ValueError(f"unknown recipe atom {head!r}")
    if rest.startswith("("):
        if head not in _CALL_ARITY:
            raise ValueError(f"unknown recipe constructor {head!r}")
        rest = rest[1:]
        args: list = []
        while True:
            if rest.startswith(")"):
                rest = rest[1:]
                break
            m3 = re.match(r"\d+", rest)
            if m3 and rest[m3.end() : m3.end() + 1] in (",", ")"):
                args.append(int(m3.group(0)))
                rest = rest[m3.end() :]
            else:
                sub, rest = _parse_recipe_expr(rest, depth + 1)
                args.append(sub)
            if rest.startswith(","):
                rest = rest[1:]
            elif not rest.startswith(")"):
                raise ValueError(f"expected ',' or ')' near {rest!r}")
        arity = _CALL_ARITY[head]
        ok = len(args) in arity if isinstance(arity, tuple) else len(args) == arity
        if not ok:
            raise ValueError(f"{head} takes {arity} argument(s), got {len(args)}")
        return RingRecipe(head, tuple(args)), rest
    raise ValueError(f"unknown recipe {head!r} (expected ':' or '(' after it)")


def build_recipe(recipe: RingRecipe | str) -> FiniteRing:
    """Evaluate a recipe to a validated ring."""
    if isinstance(recipe, str):
        recipe = parse_recipe(recipe)
    kind, args = recipe.kind, recipe.args
    if kind == "zn":
        return ring_zn(args[0])
    if kind == "gf":
        q = args[0]
        _check_order(q, f"GF({q})")
        for p in range(2, q + 1):
            if _is_prime(p) and q % p == 0:
                k = 0
                m = q
                while m % p == 0:
                    m //= p
                    k += 1
                if m != 1:
                    raise NotPrime(f"{q} is not a prime power")
                return ring_gf(p, k)
        raise NotPrime(f"{q} is not a prime power")
    if kind == "algebra":
        try:
            return NAMED_ALGEBRAS[args[0]]()
        except KeyError:
            raise ValueError(f"unknown named algebra {args[0]!r}") from None
    if kind == "dual":
        return quotient_dual_numbers(build_recipe(args[0]))
    if kind == "skew":
        f = build_recipe(args[0])
        power = args[1] if len(args) > 1 else 1
        sigma = (
            identity_automorphism(f) if power == 0 else frobenius_automorphism(f, power)
        )
        return skew_dual_numbers(f, sigma)
    if kind == "mat":
        return matrix_ring(build_recipe(args[0]), args[1])
    if kind == "tri":
        return triangular_ring(build_recipe(args[0]), args[1])
    if kind == "prod":
        return direct_product(build_recipe(args[0]), build_recipe(args[1]))
    raise ValueError(f"unknown recipe kind {kind!r}")


def ring_from_spec(spec: str) -> FiniteRing:
    """Build from a recipe string, or parse a ring file if ``spec`` is a path."""
    import os

    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_ring_file(fh.read())
    return build_recipe(spec)
