"""ring-build: constructors, recipes, ring file round trips."""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ring_of
from helpers import brute_units, check_automorphism_per_pair, tuple_subring_closure

from ringline import (
    ClosureTooLarge,
    NotAutomorphism,
    NotIrreducible,
    NotPrime,
    OrderTooLarge,
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
    units,
    validate_ring,
)
from ringline.build import (
    ORDER_CAP,
    _check_automorphism,
    default_irreducible,
    frobenius_automorphism,
    identity_automorphism,
    is_irreducible,
)

DATA = pathlib.Path(__file__).parent / "data"

FUZZ_RECIPES = ["zn:4", "dual(gf:2)", "tri(gf:2,2)", "skew(gf:4)"]
FUZZ_TOKEN = st.one_of(
    st.integers(-3, 20).map(str),
    st.integers(2**62, 2**70).map(str),
    st.integers(-(2**70), -(2**62)).map(str),
    st.sampled_from(["ring", "order", "one", "add", "mul", "#", "1.5", "0x3", "1e3", ""]),
    st.text(st.characters(exclude_categories=("Nd", "Cs")), min_size=1, max_size=4),
)


@functools.lru_cache(maxsize=None)
def ring_of_recipe(recipe: str):
    return build_recipe(recipe)


class TestZn:
    def test_z4(self):
        ring = ring_zn(4)
        assert ring.order == 4 and units(ring).members == {1, 3}

    def test_z2(self):
        assert ring_zn(2).order == 2

    def test_z3(self):
        assert len(units(ring_zn(3))) == 2

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            ring_zn(1)


class TestGf:
    def test_gf4_default_poly(self):
        assert default_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
        ring = ring_gf(2, 2)
        assert ring.order == 4 and len(units(ring)) == 3

    def test_gf2_and_gf3(self):
        assert ring_gf(2, 1).order == 2
        assert len(units(ring_gf(3, 1))) == 2

    def test_every_nonzero_element_invertible(self):
        for p, k in ((2, 2), (3, 1), (2, 3)):
            ring = ring_gf(p, k)
            assert len(units(ring)) == ring.order - 1

    def test_reducible_poly_rejected(self):
        assert not is_irreducible([1, 0, 1], 2)  # x^2 + 1 = (x+1)^2 over F2
        with pytest.raises(NotIrreducible):
            ring_gf(2, 2, poly=[1, 0, 1])

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            ring_gf(4, 1)


class TestDualNumbers:
    def test_over_gf2(self):
        ring = quotient_dual_numbers(ring_gf(2, 1))
        assert ring.order == 4 and len(units(ring)) == 2

    def test_over_gf4(self):
        ring = quotient_dual_numbers(ring_gf(2, 2))
        assert ring.order == 16 and len(units(ring)) == 12

    def test_over_gf3(self):
        ring = quotient_dual_numbers(ring_gf(3, 1))
        assert ring.order == 9 and len(units(ring)) == 6

    def test_noncommutative_base_rejected(self):
        with pytest.raises(ValueError):
            quotient_dual_numbers(ring_of("t2f2"))


class TestDirectProduct:
    def test_gf4_x_z4(self):
        ring = direct_product(ring_gf(2, 2), ring_zn(4))
        assert ring.order == 16
        assert len(units(ring)) == 6
        assert ring.order - len(units(ring)) == 10

    def test_z3_x_t2f2_label(self):
        ring = ring_of("z3xt2f2")
        assert (ring.order, ring.order - len(units(ring))) == (24, 20)

    def test_z2_x_t2f2_label(self):
        ring = ring_of("z2xt2f2")
        assert (ring.order, ring.order - len(units(ring))) == (16, 14)

    def test_unit_count_multiplies(self):
        r1, r2 = ring_zn(4), ring_gf(3, 1)
        assert len(units(direct_product(r1, r2))) == len(units(r1)) * len(units(r2))


class TestMatrixRings:
    def test_m2f2(self):
        ring = matrix_ring(ring_gf(2, 1), 2)
        assert ring.order == 16
        assert len(units(ring)) == 6
        assert not is_commutative(ring)

    def test_m1_is_base(self):
        base = ring_zn(6)
        ring = matrix_ring(base, 1)
        assert ring.same_tables(base)

    def test_t2f2(self):
        ring = triangular_ring(ring_gf(2, 1), 2)
        assert ring.order == 8
        assert len(units(ring)) == 2
        assert ring.order - len(units(ring)) == 6
        assert not is_commutative(ring)

    def test_t2f3(self):
        ring = triangular_ring(ring_gf(3, 1), 2)
        assert ring.order == 27 and len(units(ring)) == 12

    def test_cap(self):
        with pytest.raises(OrderTooLarge):
            matrix_ring(ring_zn(17), 2)  # 17^4 > ORDER_CAP


class TestSkewDualNumbers:
    def test_frobenius_on_gf4(self):
        gf4 = ring_gf(2, 2)
        sigma = frobenius_automorphism(gf4)
        assert sigma != identity_automorphism(gf4)
        ring = skew_dual_numbers(gf4, sigma)
        assert ring.order == 16
        assert len(units(ring)) == 12
        assert not is_commutative(ring)

    def test_identity_reduces_to_dual_numbers(self):
        gf4 = ring_gf(2, 2)
        skew = skew_dual_numbers(gf4, identity_automorphism(gf4))
        dual = quotient_dual_numbers(gf4)
        assert skew.same_tables(dual)
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
        assert len(units(ring)) == 8
        assert not is_commutative(ring)
        assert brute_units(ring) == set(units(ring).members)

    def test_rank2_idempotent_is_z2_x_z2(self):
        # basis 1, x with x^2 = x splits as F2 x F2
        constants = [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]
        ring = structure_constants_algebra(2, 2, constants)
        assert fingerprint(ring) == fingerprint(direct_product(ring_zn(2), ring_zn(2)))

    def test_rank1_is_zm(self):
        ring = structure_constants_algebra(4, 1, [[[1]]])
        assert ring.same_tables(ring_zn(4))

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
        for u in sorted(units(m2).members):
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

    def test_closure_too_large(self):
        gf16 = ring_gf(2, 4)
        gens = [
            ((1, 1), (0, 0)),
            ((0, 0), (1, 1)),
            ((0, 2), (3, 0)),  # arbitrary field elements to force growth
        ]
        with pytest.raises(ClosureTooLarge):
            matrix_subring_closure(gf16, gens, cap=64)

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
        assert matrix_subring_closure(base, units_).same_tables(expected)


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
            ring = closure(base, gens, cap=cap)
        except ClosureTooLarge as exc:
            return ("refused", str(exc))
        return (ring.order, ring.one, ring.name, ring.add.tobytes(), ring.mul.tobytes())

    assert outcome(matrix_subring_closure) == outcome(tuple_subring_closure)


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
        assert back.same_tables(ring)
        assert emit_ring_file(back) == text

    def test_shipped_fixture(self):
        ring = parse_ring_file((DATA / "m2gf2.ring").read_text())
        assert fingerprint(ring).as_tuple() == (16, 6, 10, 2, 1, 3, 3, 1, False)

    def test_comments_and_blank_lines(self):
        text = emit_ring_file(ring_zn(2))
        noisy = "# header\n" + text.replace("add", "add  # the addition table", 1) + "\n\n"
        assert parse_ring_file(noisy).same_tables(ring_zn(2))

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
            assert ring.same_tables(ring_of_recipe(recipe))

    def test_validation_failure_propagates(self):
        bad = "ring x\norder 2\none 1\nadd\n0 1\n1 0\nmul\n0 0\n0 0\n"
        from ringline import NoUnity

        with pytest.raises(NoUnity):
            parse_ring_file(bad)


class TestRecipes:
    @pytest.mark.parametrize(
        "text",
        [
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
        ],
    )
    def test_round_trip_and_determinism(self, text):
        recipe = parse_recipe(text)
        assert recipe.to_string() == text
        first = build_recipe(text)
        second = build_recipe(parse_recipe(text))
        assert first.same_tables(second)

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
        assert str(parse_recipe("dual(" * 64 + "gf:2" + ")" * 64)).count("dual") == 64
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
        ],
        ids=["zn", "gf", "dual", "skew", "prod", "tri", "nested-dual"],
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

    def test_skew_identity_equals_dual(self):
        assert build_recipe("skew(gf:4,0)").same_tables(
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
