"""ring-build: constructors, recipes, ring file round trips."""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import RECIPES, ring_of, run_python
from helpers import (
    brute_units,
    check_automorphism_per_pair,
    emit_ring_file_oracle,
    recipe_text,
    ring_file_tables_oracle,
    same_tables,
    tuple_subring_closure,
)

from ringline import (
    ClosureTooLarge,
    NotAutomorphism,
    NotClosed,
    NotPrime,
    OrderTooLarge,
    RecipeError,
    RingRecipe,
    RingSyntaxError,
    RinglineError,
    build_recipe,
    builtin_catalog,
    direct_product,
    emit_ring_file,
    fingerprint,
    is_commutative,
    matrix_ring,
    matrix_subring_closure,
    parse_recipe,
    parse_ring_file,
    quotient_dual_numbers,
    ring_gf,
    ring_zn,
    skew_dual_numbers,
    structure_constants_algebra,
    triangular_ring,
    unit_elements,
    validate_ring,
)
from ringline import build
from ringline.build import (
    ORDER_CAP,
    _check_automorphism,
    default_irreducible,
    frobenius_automorphism,
    is_irreducible,
)

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_RECIPES = sorted(
    json.loads((DATA.parent.parent / "perfbench" / "golden.json").read_text())["rings"]
)

FUZZ_RECIPES = ["zn:4", "dual(gf:2)", "tri(gf:2,2)", "skew(gf:4)"]
FUZZ_TOKEN = st.one_of(
    st.integers(-3, 20).map(str),
    st.integers(2**62, 2**70).map(str),
    st.integers(-(2**70), -(2**62)).map(str),
    st.sampled_from(["ring", "order", "one", "add", "mul", "#", "1.5", "0x3", "1e3", ""]),
    st.text(st.characters(exclude_categories=("Nd", "Cs")), min_size=1, max_size=4),
)

RECIPE_INTEGER = st.one_of(st.integers(0, 5), st.integers(2**62, 10**30)).map(str)
RECIPE_ATOM = st.one_of(
    st.sampled_from(["zn:", "gf:", "algebra:"]).flatmap(
        lambda head: RECIPE_INTEGER.map(lambda n: head + n)
    ),
    st.sampled_from(["algebra:f2xy", "algebra:x", "x", "-1", "zn", "\u00b2", ""]),
)
RECIPE_CONSTRUCTOR = st.sampled_from(["dual", "skew", "mat", "tri", "prod", "frob"])
# well-nested calls whose arguments may be of any kind, or a loose token string
RECIPE_TEXT = st.one_of(
    st.recursive(
        st.one_of(RECIPE_ATOM, RECIPE_INTEGER),
        lambda inner: st.builds(
            lambda head, args: f"{head}({','.join(args)})",
            RECIPE_CONSTRUCTOR,
            st.lists(inner, max_size=3),
        ),
        max_leaves=5,
    ),
    st.lists(
        st.one_of(RECIPE_ATOM, RECIPE_INTEGER, RECIPE_CONSTRUCTOR, st.sampled_from(",()")),
        max_size=12,
    ).map("".join),
)


# Malformed edits of the emitted zn:4 file (13 lines: ring, order, one, add,
# 4 rows, mul, 4 rows): the slice lines[start:stop] is replaced, and the
# exception class, its line (None when it has none) and its message pinned.
RING_FILE_CORPUS = {
    "empty": ((0, 13, []), RingSyntaxError, 1, "line 1: unexpected end of file, expected 'ring'"),
    "comments-only": (
        (0, 13, ["# nothing here", ""]),
        RingSyntaxError, 1, "line 1: unexpected end of file, expected 'ring'",
    ),
    "bad-ring-tag": ((0, 1, ["rng Z4"]), RingSyntaxError, 1, "line 1: expected 'ring', found 'rng'"),
    "no-ring-name": ((0, 1, ["ring"]), RingSyntaxError, 1, "line 1: missing ring name"),
    "one-missing": ((2, 3, []), RingSyntaxError, 3, "line 3: expected 'one', found 'add'"),
    "ends-after-order": (
        (2, 13, ["# comment", ""]),
        RingSyntaxError, 3, "line 3: unexpected end of file, expected 'one'",
    ),
    "ends-after-one": (
        (3, 13, []), RingSyntaxError, 4, "line 4: unexpected end of file, expected 'add'"
    ),
    "add-ends-early": (
        (6, 13, []), RingSyntaxError, 7, "line 7: add table ends early: expected 4 rows"
    ),
    "mul-ends-early": (
        (11, 13, []), RingSyntaxError, 12, "line 12: mul table ends early: expected 4 rows"
    ),
    "extra-add-row": (
        (4, 4, ["0 1 2 3"]), RingSyntaxError, 9, "line 9: expected 'mul', found '3'"
    ),
    "mul-tag-missing": ((8, 9, []), RingSyntaxError, 9, "line 9: expected 'mul', found '0'"),
    "non-integer": (
        (5, 6, ["1 2 x 0"]), RingSyntaxError, 6, "line 6: non-integer entry in add table"
    ),
    "float-entry": (
        (10, 11, ["0 1.5 2 3"]), RingSyntaxError, 11, "line 11: non-integer entry in mul table"
    ),
    "short-row": (
        (10, 11, ["0 1 2"]), RingSyntaxError, 11, "line 11: mul row has 3 entries, expected 4"
    ),
    "long-row": (
        (4, 5, ["0 1 2 3 4"]), RingSyntaxError, 5, "line 5: add row has 5 entries, expected 4"
    ),
    "trailing": (
        (13, 13, ["", "# end", "extra"]),
        RingSyntaxError, 16, "line 16: trailing content after tables",
    ),
    "order-2000": (
        (1, 2, ["order 2000"]), OrderTooLarge, None, "Z4 would have 2000 elements (cap 1024)"
    ),
    "beyond-int64": (
        (5, 6, ["1 2 3 99999999999999999999"]),
        NotClosed, None, "addition table has an entry outside the int64 range",
    ),
    # int() reads these; a ring file holds ASCII decimal integers only
    "non-ascii-order": (
        (1, 2, ["order \u0664"]), RingSyntaxError, 2,
        "line 2: 'order' must be followed by one integer",
    ),
    "signed-one": (
        (2, 3, ["one +1"]), RingSyntaxError, 3, "line 3: 'one' must be followed by one integer"
    ),
    "signed-and-non-ascii-entries": (
        (4, 5, ["0 1 +2 \u0663"]), RingSyntaxError, 5, "line 5: non-integer entry in add table"
    ),
    "underscore-entry": (
        (5, 6, ["1 2 3 0_0"]), RingSyntaxError, 6, "line 6: non-integer entry in add table"
    ),
    "underscore-mul-entry": (
        (12, 13, ["0 3 2 0_1"]), RingSyntaxError, 13, "line 13: non-integer entry in mul table"
    ),
    "negative-entry": (
        (5, 6, ["1 2 3 -1"]), NotClosed, None, "addition table entry at (1, 3) is outside [0, 4)"
    ),
}


@functools.lru_cache(maxsize=None)
def ring_of_recipe(recipe: str):
    return build_recipe(recipe)


class TestZn:
    def test_z4(self):
        ring = ring_zn(4)
        assert ring.order == 4 and set(unit_elements(ring)) == {1, 3}

    def test_z2(self):
        assert ring_zn(2).order == 2

    def test_z3(self):
        assert len(unit_elements(ring_zn(3))) == 2

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            ring_zn(1)

    @pytest.mark.parametrize("n", [4.0, 4.5, "4"])
    def test_non_integer_modulus_refused(self, n):
        """A float or string modulus is refused, not read as int(n) (4.0 built "Z4.0")."""
        with pytest.raises(ValueError, match="modulus must be an integer"):
            ring_zn(n)

    def test_numpy_integer_modulus(self):
        ring = ring_zn(np.int64(4))
        assert ring.name == "Z4" and same_tables(ring, ring_zn(4))

    def test_modulus_past_int64_refused_by_cap(self):
        """The order cap refuses the modulus before numpy arithmetic sees it."""
        with pytest.raises(OrderTooLarge):
            ring_zn(2**63)


class TestGf:
    def test_gf4_default_poly(self):
        assert default_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
        ring = ring_gf(2, 2)
        assert ring.order == 4 and len(unit_elements(ring)) == 3

    def test_gf2_and_gf3(self):
        assert ring_gf(2, 1).order == 2
        assert len(unit_elements(ring_gf(3, 1))) == 2

    def test_every_nonzero_element_invertible(self):
        for p, k in ((2, 2), (3, 1), (2, 3)):
            ring = ring_gf(p, k)
            assert len(unit_elements(ring)) == ring.order - 1

    def test_reducible_poly_rejected(self):
        assert not is_irreducible([1, 0, 1], 2)  # x^2 + 1 = (x+1)^2 over F2

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            ring_gf(4, 1)


class TestDualNumbers:
    def test_over_gf2(self):
        ring = quotient_dual_numbers(ring_gf(2, 1))
        assert ring.order == 4 and len(unit_elements(ring)) == 2

    def test_over_gf4(self):
        ring = quotient_dual_numbers(ring_gf(2, 2))
        assert ring.order == 16 and len(unit_elements(ring)) == 12

    def test_over_gf3(self):
        ring = quotient_dual_numbers(ring_gf(3, 1))
        assert ring.order == 9 and len(unit_elements(ring)) == 6

    def test_noncommutative_base_rejected(self):
        with pytest.raises(ValueError):
            quotient_dual_numbers(ring_of("t2f2"))


class TestDirectProduct:
    def test_gf4_x_z4(self):
        ring = direct_product(ring_gf(2, 2), ring_zn(4))
        assert ring.order == 16
        assert len(unit_elements(ring)) == 6
        assert ring.order - len(unit_elements(ring)) == 10

    def test_z3_x_t2f2_label(self):
        ring = ring_of("z3xt2f2")
        assert (ring.order, ring.order - len(unit_elements(ring))) == (24, 20)

    def test_z2_x_t2f2_label(self):
        ring = ring_of("z2xt2f2")
        assert (ring.order, ring.order - len(unit_elements(ring))) == (16, 14)

    def test_unit_count_multiplies(self):
        r1, r2 = ring_zn(4), ring_gf(3, 1)
        product = direct_product(r1, r2)
        assert len(unit_elements(product)) == len(unit_elements(r1)) * len(unit_elements(r2))


class TestMatrixRings:
    def test_m2f2(self):
        ring = matrix_ring(ring_gf(2, 1), 2)
        assert ring.order == 16
        assert len(unit_elements(ring)) == 6
        assert not is_commutative(ring)

    def test_m1_is_base(self):
        base = ring_zn(6)
        ring = matrix_ring(base, 1)
        assert same_tables(ring, base)

    def test_t2f2(self):
        ring = triangular_ring(ring_gf(2, 1), 2)
        assert ring.order == 8
        assert len(unit_elements(ring)) == 2
        assert ring.order - len(unit_elements(ring)) == 6
        assert not is_commutative(ring)

    def test_t2f3(self):
        ring = triangular_ring(ring_gf(3, 1), 2)
        assert ring.order == 27 and len(unit_elements(ring)) == 12

    def test_cap(self):
        with pytest.raises(OrderTooLarge):
            matrix_ring(ring_zn(17), 2)  # 17^4 > ORDER_CAP


class TestSkewDualNumbers:
    def test_frobenius_on_gf4(self):
        gf4 = ring_gf(2, 2)
        sigma = frobenius_automorphism(gf4)
        assert sigma != tuple(range(gf4.order))
        ring = skew_dual_numbers(gf4, sigma)
        assert ring.order == 16
        assert len(unit_elements(ring)) == 12
        assert not is_commutative(ring)

    def test_identity_reduces_to_dual_numbers(self):
        gf4 = ring_gf(2, 2)
        skew = skew_dual_numbers(gf4, tuple(range(gf4.order)))
        dual = quotient_dual_numbers(gf4)
        assert same_tables(skew, dual)
        assert is_commutative(skew)

    def test_gf2_identity(self):
        ring = skew_dual_numbers(ring_gf(2, 1), (0, 1))
        assert ring.order == 4

    def test_non_automorphism_rejected(self):
        gf4 = ring_gf(2, 2)
        # note (0,1,3,2) IS an automorphism of GF(4): it is the Frobenius map
        with pytest.raises(NotAutomorphism):
            skew_dual_numbers(gf4, (0, 2, 1, 3))  # moves 1
        with pytest.raises(NotAutomorphism):
            skew_dual_numbers(gf4, (1, 0, 2, 3))  # moves 0
        with pytest.raises(NotAutomorphism):
            skew_dual_numbers(gf4, (0, 1, 2, 2))  # not a bijection

    def test_field_base_required(self):
        with pytest.raises(ValueError):
            skew_dual_numbers(ring_zn(4), (0, 1, 2, 3))


def automorphism_outcome(check, ring, sigma) -> tuple:
    try:
        return ("ok", check(ring, sigma))
    except NotAutomorphism as exc:
        return ("raised", str(exc))


@given(recipe=st.sampled_from(["gf:4", "gf:8", "gf:9", "tri(gf:2,2)"]), data=st.data())
@settings(max_examples=80, deadline=None)
def test_automorphism_check_matches_per_pair_scan(recipe, data):
    """Same message and witness as the row-major scan over every pair.

    Over the fields no sigma fixing 0 and 1 breaks addition and
    multiplication at its first witness; over T2(GF(2)) some do.
    """
    ring = ring_of_recipe(recipe)
    sigma = list(frobenius_automorphism(ring, data.draw(st.integers(0, 3))))
    if data.draw(st.booleans()):
        others = [x for x in range(ring.order) if x not in (0, ring.one)]
        sigma = list(range(ring.order))
        for x, y in zip(others, data.draw(st.permutations(others))):
            sigma[x] = y
    element = st.integers(0, ring.order - 1)
    for _ in range(data.draw(st.integers(0, 2))):
        i, j = data.draw(element), data.draw(element)
        sigma[i], sigma[j] = sigma[j], sigma[i]
    assert automorphism_outcome(_check_automorphism, ring, sigma) == automorphism_outcome(
        check_automorphism_per_pair, ring, sigma
    )


class TestStructureConstants:
    def test_f2xy_candidate(self):
        ring = build_recipe("algebra:f2xy")
        assert ring.order == 16
        assert len(unit_elements(ring)) == 8
        assert not is_commutative(ring)
        assert brute_units(ring) == set(unit_elements(ring))

    def test_rank2_idempotent_is_z2_x_z2(self):
        # basis 1, x with x^2 = x splits as F2 x F2
        constants = [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]
        ring = structure_constants_algebra(2, 2, constants)
        assert fingerprint(ring) == fingerprint(direct_product(ring_zn(2), ring_zn(2)))

    def test_rank1_is_zm(self):
        ring = structure_constants_algebra(4, 1, [[[1]]])
        assert same_tables(ring, ring_zn(4))

    @pytest.mark.parametrize(
        "m, rank, what", [(4.0, 1, "modulus"), ("4", 1, "modulus"), (4, 1.0, "rank")]
    )
    def test_non_integer_modulus_or_rank_refused(self, m, rank, what):
        with pytest.raises(ValueError, match=f"{what} must be an integer"):
            structure_constants_algebra(m, rank, [[[1]]])

    def test_numpy_integer_modulus_and_rank(self):
        ring = structure_constants_algebra(np.int64(4), np.int32(1), [[[1]]])
        assert ring.name == "Z4-algebra(rank 1)" and same_tables(ring, ring_zn(4))

    def test_bad_constants_fail_validation(self):
        # x^2 = 1 and x*1 = 0 cannot give a unital ring
        from ringline import RingValidationError

        constants = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        with pytest.raises(RingValidationError):
            structure_constants_algebra(2, 2, constants)


class TestMatrixSubringClosure:
    def test_e11_e12_closes_to_upper_triangular(self):
        f2 = ring_gf(2, 1)
        e11 = ((1, 0), (0, 0))
        e12 = ((0, 1), (0, 0))
        ring = matrix_subring_closure(f2, [e11, e12])
        assert ring.order == 8
        assert fingerprint(ring) == fingerprint(ring_of("t2f2"))

    def test_empty_generators_give_prime_ring(self):
        for base, char in ((ring_gf(2, 1), 2), (ring_zn(6), 6)):
            ring = matrix_subring_closure(base, [], dim=2)
            assert ring.order == char

    def test_all_units_generate_full_matrix_ring(self):
        m2 = ring_of("m2f2")
        f2 = ring_gf(2, 1)
        unit_mats = []
        for u in unit_elements(m2):
            entries = [(u >> shift) & 1 for shift in (3, 2, 1, 0)]
            unit_mats.append(((entries[0], entries[1]), (entries[2], entries[3])))
        ring = matrix_subring_closure(f2, unit_mats)
        assert ring.order == 16
        assert fingerprint(ring) == fingerprint(m2)

    def test_idempotent(self):
        f2 = ring_gf(2, 1)
        ring = matrix_subring_closure(f2, [((1, 0), (0, 0)), ((0, 1), (0, 0))])
        # closing the closure adds nothing: regenerate from all its matrices
        masks = [(v >> 2 & 1, v >> 1 & 1, v & 1) for v in range(8)]
        mats = [((a, b), (0, c)) for a, b, c in masks]
        again = matrix_subring_closure(f2, mats)
        assert again.order == ring.order

    def test_closure_too_large(self, monkeypatch):
        """These generators close to all 256 matrices over GF(4): built under
        the shipped cap, refused once ORDER_CAP is patched to 64."""
        gf4 = ring_gf(2, 2)
        gens = [
            ((1, 1), (0, 0)),
            ((0, 0), (1, 1)),
            ((0, 2), (3, 0)),  # arbitrary field elements to force growth
        ]
        assert matrix_subring_closure(gf4, gens).order == 256
        monkeypatch.setattr(build, "ORDER_CAP", 64)
        with pytest.raises(ClosureTooLarge, match="exceeds 64"):
            matrix_subring_closure(gf4, gens)

    @pytest.mark.parametrize("entry", [2, -1])
    def test_generator_entry_outside_base_refused(self, entry):
        with pytest.raises(ValueError, match="element indices"):
            matrix_subring_closure(ring_gf(2, 1), [((entry, 0), (0, 0))])

    def test_codes_beyond_int64_refused_before_allocation(self):
        shift = tuple(tuple(int(j == i + 1) for j in range(8)) for i in range(8))
        tracemalloc.start()
        try:
            with pytest.raises(ClosureTooLarge, match="int64"):
                matrix_subring_closure(ring_gf(2, 1), [shift])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * ORDER_CAP**2  # less than one int64 table of order 1024

    @pytest.mark.parametrize(
        "recipe, dim, kind",
        [(r, d, k) for r in ("gf:2", "gf:3", "zn:4") for d in (1, 2) for k in ("mat", "tri")]
        + [("gf:2", 3, "mat"), ("gf:2", 3, "tri")],
    )
    def test_unit_closure_equals_constructor(self, recipe, dim, kind):
        """Over a prime ring the matrix units generate the whole support.

        Over any other base the closure lacks the base's non-prime scalars,
        so the cross-check is limited to bases that are their own prime ring.
        """
        base = ring_of_recipe(recipe)
        one = base.one
        units_ = [
            tuple(tuple(one if (r, c) == (i, j) else 0 for c in range(dim)) for r in range(dim))
            for i in range(dim)
            for j in range(i if kind == "tri" else 0, dim)
        ]
        expected = (matrix_ring if kind == "mat" else triangular_ring)(base, dim)
        assert same_tables(matrix_subring_closure(base, units_), expected)


CLOSURE_BASES = ["gf:2", "gf:3", "zn:4", "gf:4", "dual(gf:2)"]


@given(
    recipe=st.sampled_from(CLOSURE_BASES),
    dim=st.integers(1, 3),
    cap=st.sampled_from([8, 64]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_closure_matches_tuple_oracle(recipe, dim, cap, data):
    """Same (order, one, name, add, mul) as closure on tuples, or both refuse."""
    base = ring_of_recipe(recipe)
    entry = st.integers(0, base.order - 1)
    matrix = st.tuples(*[st.tuples(*[entry] * dim)] * dim)
    gens = data.draw(st.lists(matrix, min_size=1, max_size=3))

    def outcome(closure):
        try:
            ring = closure()
        except ClosureTooLarge as exc:
            return ("refused", str(exc))
        return (ring.order, ring.one, ring.name, ring.add.tobytes(), ring.mul.tobytes())

    with mock.patch.object(build, "ORDER_CAP", cap):  # the closure reads it when called
        got = outcome(lambda: matrix_subring_closure(base, gens))
    assert got == outcome(lambda: tuple_subring_closure(base, gens, cap=cap))


TABLE_DIGESTS = json.loads((DATA / "table_digests.json").read_text())


@pytest.mark.parametrize("recipe", sorted(TABLE_DIGESTS))
def test_tables_match_pinned_digests(recipe):
    """Element order and encoding of every constructor stay as first shipped."""
    ring = ring_of_recipe(recipe)
    assert {
        "name": ring.name,
        "order": ring.order,
        "one": ring.one,
        "add": hashlib.sha256(ring.add.tobytes()).hexdigest(),
        "mul": hashlib.sha256(ring.mul.tobytes()).hexdigest(),
    } == TABLE_DIGESTS[recipe]


def test_structure_constants_memory_bounded():
    """Tables are filled one coordinate at a time: GF(1024), rank 10, holds no
    n x n x rank array."""
    tracemalloc.start()
    try:
        ring = build_recipe("gf:1024")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ring.order == 1024
    assert peak < 96 * 2**20


def test_matrix_construction_memory_bounded():
    """Tables are filled a block of rows at a time: order 1024 without
    n^2 * dim^2 stacks."""
    tracemalloc.start()
    try:
        ring = build_recipe("tri(gf:2,4)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ring.order == 1024
    assert peak < 16 * 8 * ORDER_CAP**2  # 16 int64 tables of order 1024


class TestRingFiles:
    @pytest.mark.parametrize(
        "name", [e.name for e in builtin_catalog() if e.recipe is not None]
    )
    def test_round_trip_catalog(self, name):
        ring = ring_of(name)
        text = emit_ring_file(ring)
        back = parse_ring_file(text)
        assert same_tables(back, ring)
        assert emit_ring_file(back) == text

    def test_ring_names_survive_a_ring_file(self):
        """The name of every golden and recipe ring, its recipe text (the
        benchmark's relabelled rings) and its relabelled name are accepted,
        and a ring file gives each back unchanged."""
        for recipe in {*GOLDEN_RECIPES, *RECIPES.values()}:
            ring = build_recipe(recipe)
            for name in (ring.name, recipe, f"{ring.name}~relabel"):
                named = validate_ring(ring.add, ring.mul, ring.one, name=name)
                assert parse_ring_file(emit_ring_file(named)).name == name

    @pytest.mark.parametrize("name", ["", "a#b", "a  b", " a", "a ", "x\ny", "a\tb", "a\x1fb"])
    def test_ring_name_a_file_would_change_refused(self, name):
        """A ring file would drop what follows '#', fold or strip whitespace,
        or refuse an empty or split name, so validate_ring refuses them all."""
        ring = ring_zn(4)
        with pytest.raises(ValueError, match="ring name"):
            validate_ring(ring.add, ring.mul, ring.one, name=name)

    def test_shipped_fixture(self):
        ring = parse_ring_file((DATA / "m2gf2.ring").read_text())
        assert fingerprint(ring).as_tuple() == (16, 6, 10, 2, 1, 3, 3, 1, False)

    def test_comments_and_blank_lines(self):
        text = emit_ring_file(ring_zn(2))
        noisy = "# header\n" + text.replace("add", "add  # the addition table", 1) + "\n\n"
        assert same_tables(parse_ring_file(noisy), ring_zn(2))

    def test_order_mismatch(self):
        bad = "ring x\norder 3\none 1\nadd\n0 1\n1 0\n"
        with pytest.raises(RingSyntaxError) as info:
            parse_ring_file(bad)
        assert info.value.line == 5

    def test_order_cap_before_tables(self):
        with pytest.raises(OrderTooLarge):
            parse_ring_file("ring big\norder 2000\none 1\nadd\n0 1\n")

    def test_bad_keyword(self):
        with pytest.raises(RingSyntaxError):
            parse_ring_file("rng x\norder 2\n")

    def test_truncated(self):
        text = emit_ring_file(ring_zn(2))
        with pytest.raises(RingSyntaxError):
            parse_ring_file("\n".join(text.splitlines()[:-1]))

    @pytest.mark.parametrize("order", ["-1", "0", "1"])
    def test_order_below_two(self, order):
        with pytest.raises(RingSyntaxError, match="order must be at least 2") as info:
            parse_ring_file(f"ring x\norder {order}\none 1\nadd\n0\nmul\n0\n")
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "line,bad", [(2, "order 4 9"), (3, "one 1 3"), (2, "order"), (3, "one x")]
    )
    def test_header_takes_one_integer(self, line, bad):
        """A token too many or too few on the order or one line is refused,
        not ignored; a ring name may still hold spaces."""
        text = emit_ring_file(ring_zn(4)).splitlines()
        text[line - 1] = bad
        with pytest.raises(RingSyntaxError, match="must be followed by one integer") as info:
            parse_ring_file("\n".join(text))
        assert info.value.line == line
        text = emit_ring_file(ring_zn(4)).replace("ring Z4", "ring Z mod 4", 1)
        assert parse_ring_file(text).name == "Z mod 4"

    @pytest.mark.parametrize("line,bad", [(4, "add 7"), (9, "mul x y")])
    def test_table_tag_stands_alone(self, line, bad):
        """A token after the add or mul tag is refused, not ignored; a
        comment after the tag stays legal (test_comments_and_blank_lines)."""
        text = emit_ring_file(ring_zn(4)).splitlines()
        text[line - 1] = bad
        with pytest.raises(RingSyntaxError, match="must be alone on its line") as info:
            parse_ring_file("\n".join(text))
        assert info.value.line == line

    @pytest.mark.parametrize("case", sorted(RING_FILE_CORPUS))
    def test_malformed_corpus(self, case):
        """Each edit fails with the pinned class, line number and message."""
        (start, stop, replacement), error, line, message = RING_FILE_CORPUS[case]
        lines = emit_ring_file(ring_zn(4)).splitlines()
        lines[start:stop] = replacement
        with pytest.raises(error) as info:
            parse_ring_file("\n".join(lines) + "\n")
        assert (getattr(info.value, "line", None), str(info.value)) == (line, message)

    @given(recipe=st.sampled_from(FUZZ_RECIPES), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_file_parses_or_raises_ringline_error(self, recipe, data):
        """Token-level mutations of an emitted file: a ring or a RinglineError."""
        text = emit_ring_file(ring_of_recipe(recipe))
        lines = [line.split() for line in text.splitlines()]
        mutations = data.draw(st.integers(0, 3))
        for _ in range(mutations):
            i = data.draw(st.integers(0, len(lines) - 1))
            op = data.draw(st.sampled_from(["replace", "delete", "duplicate", "line"]))
            if op == "line":
                if data.draw(st.booleans()):
                    del lines[i]
                else:
                    lines.insert(i, list(lines[i]))
                if not lines:
                    lines.append([])
                continue
            if not lines[i]:
                continue
            j = data.draw(st.integers(0, len(lines[i]) - 1))
            if op == "replace":
                lines[i][j] = data.draw(FUZZ_TOKEN)
            elif op == "delete":
                del lines[i][j]
            else:
                lines[i].insert(j, lines[i][j])
        try:
            ring = parse_ring_file("\n".join(" ".join(line) for line in lines) + "\n")
        except RinglineError:
            return
        if mutations == 0:
            assert same_tables(ring, ring_of_recipe(recipe))

    def test_validation_failure_propagates(self):
        bad = "ring x\norder 2\none 1\nadd\n0 1\n1 0\nmul\n0 0\n0 0\n"
        from ringline import NoUnity

        with pytest.raises(NoUnity):
            parse_ring_file(bad)


# Edits of one table row of the emitted zn:n file: the last entry of row 1
# replaced, the row cut short or made long, or the row deleted. Each yields
# the exception class, line and message the per-token reader gave before
# tables were read as whole arrays.
ENTRY_EDITS = ["+1", "0_0", "\u0662", "2.0", "1e3"]  # int() or loadtxt reads some of these


def edited_row_outcome(n: int, tag: str, edit: str) -> tuple:
    what = {"add": "addition", "mul": "multiplication"}[tag]
    line = 6 if tag == "add" else 7 + n  # row 1 of the table
    if edit in ENTRY_EDITS:
        return RingSyntaxError, line, f"line {line}: non-integer entry in {tag} table"
    if edit in ("-1", str(2**63 - 1)):
        return NotClosed, None, f"{what} table entry at (1, {n - 1}) is outside [0, {n})"
    if edit in ("9" * 25, str(2**63)):
        return NotClosed, None, f"{what} table has an entry outside the int64 range"
    if edit in ("short", "long"):
        count = n - 1 if edit == "short" else n + 1
        return RingSyntaxError, line, f"line {line}: {tag} row has {count} entries, expected {n}"
    if tag == "add":  # the mul tag, now a line earlier, is read as the last add row
        return RingSyntaxError, 4 + n, f"line {4 + n}: non-integer entry in add table"
    return RingSyntaxError, 5 + 2 * n, f"line {5 + 2 * n}: mul table ends early: expected {n} rows"


@pytest.mark.parametrize(
    "edit",
    [*ENTRY_EDITS, "-1", "9" * 25, str(2**63 - 1), str(2**63), "short", "long", "missing"],
)
@pytest.mark.parametrize("tag", ["add", "mul"])
@pytest.mark.parametrize("n", [2, 4])
def test_table_row_edit_keeps_its_error(n, tag, edit):
    """Rows the plain-row screen keeps out, entries past int64 and rows of
    the wrong length or number fail as the per-token reader made them fail."""
    lines = emit_ring_file(ring_zn(n)).splitlines()
    i = 5 if tag == "add" else 6 + n  # 0-based index of row 1
    row = lines[i].split()
    if edit == "short":
        lines[i] = " ".join(row[:-1])
    elif edit == "long":
        lines[i] = " ".join(row + ["0"])
    elif edit == "missing":
        del lines[i]
    else:
        lines[i] = " ".join(row[:-1] + [edit])
    with pytest.raises(RinglineError) as info:
        parse_ring_file("\n".join(lines) + "\n")
    error, line, message = edited_row_outcome(n, tag, edit)
    assert (type(info.value), getattr(info.value, "line", None), str(info.value)) == (
        error, line, message
    )


ROW_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t", "\t\t ", "   "])


@given(
    recipe=st.sampled_from(GOLDEN_RECIPES),
    rnd=st.randoms(use_true_random=False),
    zeros=st.booleans(),
    comments=st.booleans(),
    blanks=st.booleans(),
    unit_separator=st.booleans(),
    separators=st.lists(ROW_SEPARATORS, min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_rewritten_file_reads_as_per_token_oracle(
    recipe, rnd, zeros, comments, blanks, unit_separator, separators
):
    """An emitted golden ring rewritten with runs of spaces and tabs, leading
    zeros, trailing comments and blank lines between rows reads to the
    tables int() gives token by token; with one row split by a unit
    separator, a whitespace character the plain-row screen keeps out."""
    ring = ring_of_recipe(recipe)
    out = []
    lines = emit_ring_file(ring).splitlines()
    odd_row = rnd.randrange(len(lines)) if unit_separator else None
    for k, line in enumerate(lines):
        tokens = line.split()
        if tokens[0].isdigit():  # a table row
            if zeros:
                tokens = ["0" * rnd.randrange(3) + t for t in tokens]
            gaps = [rnd.choice(separators) for _ in tokens[1:]]
            if k == odd_row:
                gaps[0] = "\x1f"
            line = rnd.choice(["", " ", "\t"]) + tokens[0]
            line += "".join(gap + t for gap, t in zip(gaps, tokens[1:]))
        if comments and rnd.random() < 0.3:
            line += rnd.choice(["#", " # 1 2", "\t#x +1 \u0662"])
        out.append(line)
        if blanks and rnd.random() < 0.3:
            out.append(rnd.choice(["", "  ", "\t", "# 0 1"]))
    text = "\n".join(out) + "\n"
    parsed = parse_ring_file(text)
    add, mul = ring_file_tables_oracle(text)
    assert (parsed.name, parsed.one) == (ring.name, ring.one)
    assert parsed.add.tolist() == add and parsed.mul.tolist() == mul
    assert same_tables(parsed, ring)


def test_plain_tables_take_one_loadtxt_call_each(monkeypatch):
    """Plain rows are read by one loadtxt call per table; a table with a row
    the screen keeps out is read line by line, to the same integers."""
    calls, loadtxt = [], np.loadtxt

    def counted(rows, **kwargs):
        calls.append(rows)
        return loadtxt(rows, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    lines = emit_ring_file(ring_zn(4)).splitlines()
    assert same_tables(parse_ring_file("\n".join(lines)), ring_zn(4))
    assert [len(block) for block in calls] == [4, 4]
    calls.clear()
    lines[11] = lines[11].replace(" ", "\x1f")
    assert same_tables(parse_ring_file("\n".join(lines)), ring_zn(4))
    assert [len(block) for block in calls] == [4]


# zn:10 to zn:1000 end at and just past a digit width; zn:1024 is the largest
@pytest.mark.parametrize(
    "recipe", [*GOLDEN_RECIPES, "zn:10", "zn:11", "zn:100", "zn:101", "zn:1000", "zn:1024"]
)
def test_emitter_matches_per_entry_oracle(recipe):
    ring = ring_of_recipe(recipe)
    assert emit_ring_file(ring) == emit_ring_file_oracle(ring)


def test_emit_order_1024_memory_bounded():
    """An order-1,024 ring is written with each n^2 temporary freed before
    the next is made: the peak was about 24 MB with one string per index."""
    ring = ring_of_recipe("zn:1024")
    tracemalloc.start()
    try:
        text = emit_ring_file(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == emit_ring_file_oracle(ring)
    assert peak < 32 * 2**20


def test_parse_order_1024_memory_bounded():
    """The tables of an order-1,024 file are read as arrays, without n^2
    Python ints: the per-token reader peaked at about 100 MB."""
    text = emit_ring_file(ring_of_recipe("zn:1024"))
    tracemalloc.start()
    try:
        ring = parse_ring_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_tables(ring, ring_of_recipe("zn:1024"))
    assert peak < 80 * 2**20


class TestRecipes:
    @pytest.mark.parametrize(
        "text",
        dict.fromkeys([  # drops repeats, so each id keeps its name
            "zn:4",
            "gf:9",
            "dual(gf:3)",
            "skew(gf:4)",
            "skew(gf:4,0)",
            "mat(gf:2,2)",
            "tri(gf:3,2)",
            "prod(gf:4,zn:4)",
            "prod(zn:3,tri(gf:2,2))",
            "algebra:f2xy",
            "dual(gf:2)",  # the README table
            *GOLDEN_RECIPES,
        ]),
    )
    def test_round_trip_and_determinism(self, text):
        recipe = parse_recipe(text)
        assert recipe_text(recipe) == text
        first = build_recipe(text)
        second = build_recipe(parse_recipe(text))
        assert same_tables(first, second)

    def test_parsed_values(self):
        """The README table's recipes, as the values the parser builds."""
        gf2, gf4, zn4 = RingRecipe("gf", (2,)), RingRecipe("gf", (4,)), RingRecipe("zn", (4,))
        expected = {
            "zn:4": zn4,
            "gf:9": RingRecipe("gf", (9,)),
            "dual(gf:2)": RingRecipe("dual", (gf2,)),
            "skew(gf:4)": RingRecipe("skew", (gf4,)),
            "mat(gf:2,2)": RingRecipe("mat", (gf2, 2)),
            "tri(gf:3,2)": RingRecipe("tri", (RingRecipe("gf", (3,)), 2)),
            "prod(gf:4,zn:4)": RingRecipe("prod", (gf4, zn4)),
            "algebra:f2xy": RingRecipe("algebra", ("f2xy",)),
        }
        assert {text: parse_recipe(text) for text in expected} == expected

    def test_gf_prime_power_resolution(self):
        assert build_recipe("gf:8").order == 8
        assert build_recipe("gf:9").order == 9

    def test_gf_non_prime_power(self):
        with pytest.raises(NotPrime):
            build_recipe("gf:6")

    def test_bad_syntax(self):
        for bad in ("zn:", "zn:x", "frob(gf:2)", "mat(gf:2)", "prod(zn:2", "zn:4,"):
            with pytest.raises(ValueError):
                parse_recipe(bad)

    def test_nesting_depth_capped(self):
        # parsed only: building 64 nested duals would need a 2^65-element ring
        recipe = parse_recipe("dual(" * 64 + "gf:2" + ")" * 64)
        for _ in range(64):
            assert recipe.kind == "dual"
            (recipe,) = recipe.args
        assert recipe == RingRecipe("gf", (2,))
        with pytest.raises(ValueError, match="deeper than 64"):
            parse_recipe("dual(" * 1500 + "gf:2" + ")" * 1500)

    @pytest.mark.parametrize(
        "recipe",
        [
            "zn:2000",
            "gf:1031",
            "dual(zn:40)",
            "skew(gf:37)",
            "prod(zn:40,zn:40)",
            "tri(zn:4,3)",
            "dual(" * 64 + "gf:2" + ")" * 64,
            "mat(gf:2,3000)",
            "mat(gf:2,20000)",
        ],
        ids=["zn", "gf", "dual", "skew", "prod", "tri", "nested-dual", "mat", "huge-mat"],
    )
    def test_order_cap_before_allocation(self, recipe):
        tracemalloc.start()
        try:
            with pytest.raises(OrderTooLarge):
                build_recipe(recipe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * ORDER_CAP**2  # less than one int64 table of a refused order

    @pytest.mark.parametrize(
        "construct",
        [
            lambda: ring_gf(10**400, 1),
            lambda: ring_gf(2, 11),
            lambda: ring_zn(10**400),
            lambda: structure_constants_algebra(10**400, 1, [[[1]]]),
            lambda: matrix_ring(ring_zn(2), 10**6),
            lambda: triangular_ring(ring_zn(2), 10**6),
            lambda: quotient_dual_numbers(ring_zn(64)),
            lambda: skew_dual_numbers(ring_gf(37, 1), range(37)),
            lambda: direct_product(ring_zn(64), ring_zn(64)),
        ],
        ids=["gf-past-float", "gf", "zn", "algebra", "mat", "tri", "dual", "skew", "prod"],
    )
    def test_constructor_order_cap_before_allocation(self, construct):
        """Library calls refuse an oversized order as recipes do, before any
        table or primality test; the bases they are given are small."""
        tracemalloc.start()
        try:
            with pytest.raises(OrderTooLarge):
                construct()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * ORDER_CAP**2

    def test_gf_order_checked_before_trial_division(self):
        """Trial division of 2^61 - 1, a prime, would take about 1.5e9 steps;
        the order cap refuses it first. Run apart so that a hang fails the test."""
        script = "import ringline\ntry:\n    ringline.ring_gf(2**61 - 1, 1)\n"
        script += "except ringline.OrderTooLarge as exc:\n    print(exc)\n"
        run = run_python([], script, timeout=5)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "GF(2305843009213693951^1) would have 2305843009213693951 elements (cap 1024)\n"

    @pytest.mark.parametrize(
        "bad", ["mat(2,2)", "dual(3)", "tri(3,gf:2)", "mat(gf:2,gf:2)", "skew(gf:4,gf:2)"]
    )
    def test_argument_kinds_checked(self, bad):
        with pytest.raises(ValueError, match="takes"):
            parse_recipe(bad)

    @pytest.mark.parametrize("bad", ["prod(zn:2,zn:3,)", "mat(gf:2,2,)", "skew(gf:4,)"])
    def test_trailing_comma_refused(self, bad):
        """After a comma an argument must follow."""
        parse_recipe(bad.replace(",)", ")"))
        with pytest.raises(RecipeError, match=r"bad recipe syntax near '\)'"):
            parse_recipe(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            *("zn:", "zn:x", "frob(gf:2)", "mat(gf:2)", "prod(zn:2", "zn:4,"),
            *("mat(2,2)", "dual(3)", "tri(3,gf:2)", "mat(gf:2,gf:2)", "skew(gf:4,gf:2)"),
            "dual(" * 1500 + "gf:2" + ")" * 1500,
            *("prod(zn:2,zn:3,)", "mat(gf:2,2,)", "skew(gf:4,)"),
            "zn:\u0663",  # a non-ASCII digit is no integer
            "mat(gf:2,\u0662)",
            "zn:" + "9" * 5000,  # more digits than int() converts
            "mat(gf:2," + "9" * 5000 + ")",
        ],
        ids=lambda bad: (
            "deep" if bad.startswith("dual(dual(") else bad.replace("9" * 5000, "9x5000")
        ),
    )
    def test_malformed_text_is_named_error(self, bad):
        with pytest.raises(RecipeError):
            parse_recipe(bad)

    def test_unknown_names_are_recipe_errors(self):
        with pytest.raises(RecipeError, match="unknown named algebra 'x'"):
            build_recipe("algebra:x")
        with pytest.raises(RecipeError, match="unknown recipe kind 'frob'"):
            build_recipe(RingRecipe("frob", ()))

    @pytest.mark.parametrize("recipe", ["zn:1", "tri(gf:2,0)", "dual(mat(gf:2,2))"])
    def test_domain_errors_stay_value_errors(self, recipe):
        """A well-formed recipe whose constructor refuses its arguments."""
        parse_recipe(recipe)
        with pytest.raises(ValueError) as info:
            build_recipe(recipe)
        assert not isinstance(info.value, RinglineError)

    @given(text=RECIPE_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_recipe_builds_or_raises(self, text):
        """Any recipe text is a ring, a ValueError or a RinglineError."""
        try:
            ring = build_recipe(text)
        except (ValueError, RinglineError):
            return
        assert 2 <= ring.order <= ORDER_CAP

    def test_frobenius_power_reduced_along_its_cycle(self):
        gf8 = ring_gf(2, 3)
        assert frobenius_automorphism(gf8, 3 * 10**20 + 1) == frobenius_automorphism(gf8, 1)
        assert frobenius_automorphism(gf8, 3) == tuple(range(gf8.order))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("power", [-1, -2])
    def test_negative_frobenius_power_refused(self, k, power):
        """A negative power is refused, not read from the end of the list of
        powers: there, -1 on GF(4) would give the identity, not the inverse
        Frobenius map (0, 1, 3, 2), and -2 an IndexError."""
        with pytest.raises(ValueError, match="non-negative"):
            frobenius_automorphism(ring_gf(2, k), power)

    def test_skew_identity_equals_dual(self):
        assert same_tables(
            build_recipe("skew(gf:4,0)"),
            quotient_dual_numbers(ring_gf(2, 2))
        )

    def test_every_constructor_output_validates(self):
        for name, recipe in (
            ("t2f2", "tri(gf:2,2)"),
            ("skew", "skew(gf:4)"),
            ("f2xy", "algebra:f2xy"),
            ("prod", "prod(gf:4,zn:4)"),
        ):
            ring = build_recipe(recipe)
            assert validate_ring(ring.add, ring.mul, ring.one, name=name).order == ring.order
