"""ring-core: validation, element structure, ideals, fingerprints."""

from __future__ import annotations

import json
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ring_of
from helpers import brute_ideals, brute_radical, brute_units, cyclic_join_ideals

from ringline import (
    NoUnity,
    NotAbelianGroup,
    NotAssociative,
    NotClosed,
    NotDistributive,
    OrderTooLarge,
    RingValidationError,
    ZeroIndexNotZero,
    build_recipe,
    builtin_catalog,
    center,
    characteristic,
    direct_product,
    fingerprint,
    ideal_lattice,
    is_commutative,
    jacobson_radical,
    maximal_ideal_count,
    maximal_ideals,
    relabel,
    ring_gf,
    ring_zn,
    triangular_ring,
    units,
    validate_ring,
    zero_divisor_count,
)
from ringline import core

CATALOG_NAMES = [
    "t2f2", "t2f3", "z3xt2f2", "m2f2", "z2xt2f2",
    "gf4xz4", "gf4xdualf2", "skewgf4", "f2xy",
]
SIDES = ("left", "right", "two_sided")
CORRUPTIBLE = ["z4", "gf4", "dualf2", "t2f2", "m2f2", "skewgf4"]

# read only: perfbench/capture_golden.py writes it from known-good sources
GOLDEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def golden_rings() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["rings"]


def golden_structure() -> list:
    return [pytest.param(recipe, record, id=recipe) for recipe, record in golden_rings().items()]


def lattice_members(ring, side: str) -> list:
    return [i.members for i in ideal_lattice(ring, side)]


def z4_tables():
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul = [[(a * b) % 4 for b in range(4)] for a in range(4)]
    return add, mul


def validation_outcome(add, mul, one) -> tuple:
    try:
        validate_ring(add, mul, one)
    except RingValidationError as exc:
        return type(exc).__name__, str(exc), exc.witness
    return ("valid",)


def full_scan(add, mul) -> bool:
    """The per-element associativity and distributivity scans, raising on failure."""
    n = add.shape[0]
    core._check_associative(add, n, NotAbelianGroup, "addition")
    core._check_associative(mul, n, NotAssociative, "multiplication")
    core._check_distributive(add, mul, n)
    return True


@pytest.fixture
def refuse_full_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("full scan ran")

    monkeypatch.setattr(core, "_check_associative", refuse)
    monkeypatch.setattr(core, "_check_distributive", refuse)


class TestValidateRing:
    def test_z4_valid(self):
        add, mul = z4_tables()
        ring = validate_ring(add, mul, 1, name="Z4")
        assert ring.order == 4 and ring.one == 1

    def test_corrupted_mul_rejected_with_witness(self):
        add, mul = z4_tables()
        mul[2][3] = 1  # 2*3 must be 2 mod 4
        with pytest.raises((NotAssociative, NotDistributive)) as info:
            validate_ring(add, mul, 1)
        assert len(info.value.witness) == 3

    def test_constructor_output_revalidates(self):
        ring = triangular_ring(ring_gf(2, 2), 2)  # order 8... over GF(4): order 64
        again = validate_ring(ring.add, ring.mul, ring.one, name=ring.name)
        assert again.order == ring.order

    def test_not_closed(self):
        add, mul = z4_tables()
        mul[1][1] = 7
        with pytest.raises(NotClosed):
            validate_ring(add, mul, 1)

    def test_rectangular_rejected(self):
        with pytest.raises(NotClosed):
            validate_ring([[0, 1], [1, 0], [0, 0]], [[0, 0], [0, 1]], 1)

    def test_order_one_rejected(self):
        with pytest.raises(NotClosed):
            validate_ring([[0]], [[0]], 0)

    def test_zero_not_at_index_zero(self):
        # shift Z4 so that the additive identity sits at index 1
        perm = [1, 0, 2, 3]
        add, mul = z4_tables()
        add2 = [[perm[add[a][b]] for b in range(4)] for a in range(4)]
        add3 = [[add2[perm.index(i)][perm.index(j)] for j in range(4)] for i in range(4)]
        mul2 = [[perm[mul[a][b]] for b in range(4)] for a in range(4)]
        mul3 = [[mul2[perm.index(i)][perm.index(j)] for j in range(4)] for i in range(4)]
        with pytest.raises(ZeroIndexNotZero):
            validate_ring(add3, mul3, 0)

    def test_non_abelian_addition(self):
        add, mul = z4_tables()
        add[1][2], add[2][1] = add[2][1], 0  # breaks symmetry
        with pytest.raises(NotAbelianGroup):
            validate_ring(add, mul, 1)

    def test_no_unity(self):
        add, mul = z4_tables()
        with pytest.raises(NoUnity):
            validate_ring(add, mul, 2)

    @pytest.mark.parametrize("entry", [2**63, 10**20, -(2**70)])
    def test_entry_beyond_int64(self, entry):
        add, mul = z4_tables()
        mul[1][2] = entry
        with pytest.raises(NotClosed, match="multiplication table"):
            validate_ring(add, mul, 1)

    @pytest.mark.filterwarnings("error")
    def test_ragged_rows_rejected(self):
        with pytest.raises(NotClosed, match="addition table has rows of unequal length"):
            validate_ring([[0, 1], [1]], [[0, 0], [0, 1]], 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [2.0**63, -(2.0**64), np.inf])
    def test_float_entry_beyond_int64(self, entry):
        add, mul = z4_tables()
        mul = np.array(mul, dtype=np.float64)
        mul[1][2] = entry
        with pytest.raises(NotClosed, match="multiplication table has an entry outside the int64"):
            validate_ring(add, mul, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [1.5, np.nan])
    def test_float_entry_not_integer(self, entry):
        add, mul = z4_tables()
        mul = np.array(mul, dtype=np.float64)
        mul[1][2] = entry
        with pytest.raises(NotClosed, match="multiplication table has non-integer entries"):
            validate_ring(add, mul, 1)

    @given(
        name=st.sampled_from(CORRUPTIBLE),
        kind=st.sampled_from(
            ["entries", "symmetric", "intercalate", "rows", "values", "conjugate"]
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_generator_checks_agree_with_full_scan(self, name, kind, data):
        """Same class, message and witness as validation by the full scan alone."""
        ring = ring_of(name)
        n, one = ring.order, ring.one
        add, mul = ring.add.copy(), ring.mul.copy()
        element = st.integers(0, n - 1)
        if kind == "entries":
            for _ in range(data.draw(st.integers(1, 3))):
                table = data.draw(st.sampled_from([add, mul]))
                table[data.draw(element), data.draw(element)] = data.draw(element)
        elif kind == "symmetric":
            i, j = data.draw(element), data.draw(element)
            add[i, j] = add[j, i] = data.draw(element)
        elif kind == "intercalate":
            # swap i+i = k+k with i+k: addition stays a commutative loop
            pairs = [(i, k) for i in range(1, n) for k in range(i + 1, n) if add[i, i] == add[k, k]]
            i, k = data.draw(st.sampled_from(pairs))
            add[i, i], add[i, k] = add[i, k], add[i, i]
            add[k, k], add[k, i] = add[i, i], add[i, k]
            if data.draw(st.booleans()):
                mul[:] = 0  # distributive and associative over any addition
        else:
            # a permutation fixing 0 and 1 applied to the multiplication table
            others = [x for x in range(1, n) if x != one]
            perm = np.arange(n)
            perm[others] = data.draw(st.permutations(others))
            if kind == "rows":
                mul = mul[perm]
            elif kind == "values":
                mul = perm[mul]
            else:  # an isomorphic copy of mul over the unchanged addition
                inv = np.argsort(perm)
                mul = perm[mul[np.ix_(inv, inv)]]
        fast = validation_outcome(add, mul, one)
        with mock.patch.object(core, "_axioms_hold_on_generators", full_scan):
            assert fast == validation_outcome(add, mul, one)

    def test_valid_rings_skip_full_scan(self, refuse_full_scan):
        recipes = [e.recipe for e in builtin_catalog() if e.recipe is not None]
        for recipe in recipes + ["zn:1024"]:
            assert build_recipe(recipe).order > 1

    def test_corrupt_table_reaches_full_scan(self, refuse_full_scan):
        add, mul = z4_tables()
        mul[2][3] = 1
        with pytest.raises(AssertionError, match="full scan ran"):
            validate_ring(add, mul, 1)


class TestUnits:
    def test_z4(self):
        assert units(ring_of("z4")).members == {1, 3}

    def test_m2f2_has_six(self):
        # |GL2(F2)| = (4-1)(4-2) = 6
        ring = ring_of("m2f2")
        assert len(units(ring)) == 6
        assert brute_units(ring) == set(units(ring).members)

    def test_t2f3_has_twelve(self):
        # invertible diagonal pairs (2*2) times a free upper entry (3)
        ring = ring_of("t2f3")
        assert len(units(ring)) == 12
        assert brute_units(ring) == set(units(ring).members)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_partition_into_units_and_zero_divisors(self, name):
        ring = ring_of(name)
        assert len(units(ring)) + zero_divisor_count(ring) == ring.order


class TestZeroDivisorCount:
    def test_z4(self):
        assert zero_divisor_count(ring_of("z4")) == 2

    def test_m2f2_matches_sixteen_ten_label(self):
        assert zero_divisor_count(ring_of("m2f2")) == 10

    def test_t2f3_matches_label(self):
        assert zero_divisor_count(ring_of("t2f3")) == 15


class TestJacobsonRadical:
    def test_z4(self):
        ring = ring_of("z4")
        assert jacobson_radical(ring).members == {0, 2}
        assert brute_radical(ring) == {0, 2}

    def test_m2f2_trivial(self):
        ring = ring_of("m2f2")
        assert jacobson_radical(ring).members == {0}

    def test_t2f2_is_zero_and_strict_upper(self):
        ring = ring_of("t2f2")
        rad = jacobson_radical(ring)
        # entry tuple (e00, e01, e11) encoded big-endian base 2: e01 alone -> 2
        assert rad.members == {0, 2}

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_matches_maximal_left_ideal_intersection(self, name):
        ring = ring_of(name)
        assert set(jacobson_radical(ring).members) == brute_radical(ring)

    @pytest.mark.parametrize("name", ["z4", "t2f2", "m2f2", "skewgf4"])
    def test_radical_is_two_sided_ideal(self, name):
        ring = ring_of(name)
        members = jacobson_radical(ring).members
        for x in members:
            for y in members:
                assert ring.add_of(x, y) in members
            for r in range(ring.order):
                assert ring.mul_of(r, x) in members
                assert ring.mul_of(x, r) in members


class TestIdealLattice:
    def test_z4_two_sided(self):
        lattice = ideal_lattice(ring_of("z4"), "two_sided")
        assert [sorted(i.members) for i in lattice] == [[0], [0, 2], [0, 1, 2, 3]]

    def test_m2f2_right_and_two_sided(self):
        ring = ring_of("m2f2")
        assert maximal_ideal_count(ring, "right") == 3
        two_sided = ideal_lattice(ring, "two_sided")
        assert [len(i.members) for i in two_sided] == [1, 16]

    def test_m2f2_left(self):
        assert maximal_ideal_count(ring_of("m2f2"), "left") == 3

    def test_t2f2_right(self):
        assert maximal_ideal_count(ring_of("t2f2"), "right") == 2

    def test_z4_two_sided_maximal(self):
        assert maximal_ideal_count(ring_of("z4"), "two_sided") == 1

    def test_product_right_maximal_count(self):
        ring = direct_product(ring_zn(3), triangular_ring(ring_gf(2, 1), 2))
        assert maximal_ideal_count(ring, "right") == 3

    def test_lattice_contains_zero_and_ring(self):
        for name in ("z4", "t2f2", "m2f2"):
            ring = ring_of(name)
            sizes = [len(i.members) for i in ideal_lattice(ring, "left")]
            assert 1 in sizes and ring.order in sizes

    @pytest.mark.parametrize("name", ["z4", "gf4", "gf4xz4", "gf4xdualf2"])
    def test_commutative_sides_coincide(self, name):
        ring = ring_of(name)
        left = {i.members for i in ideal_lattice(ring, "left")}
        right = {i.members for i in ideal_lattice(ring, "right")}
        two = {i.members for i in ideal_lattice(ring, "two_sided")}
        assert left == right == two

    @pytest.mark.parametrize("side", ["twoSided", "two-sided", "twosided"])
    def test_only_canonical_sides(self, side):
        with pytest.raises(ValueError):
            ideal_lattice(ring_of("z4"), side)

    @pytest.mark.parametrize("name", ["z4", "t2f2", "m2f2", "skewgf4", "f2xy", "dualf2"])
    @pytest.mark.parametrize("side", SIDES)
    def test_matches_subgroup_oracle(self, name, side):
        ring = ring_of(name)
        expected = sorted(brute_ideals(ring, side), key=lambda s: (len(s), sorted(s)))
        assert lattice_members(ring, side) == expected

    @pytest.mark.parametrize("name", CATALOG_NAMES + ["z4", "dualf2"])
    def test_opposite_ring_swaps_sides(self, name):
        ring = ring_of(name)
        opposite = validate_ring(ring.add, ring.mul.T, ring.one)
        assert lattice_members(opposite, "left") == lattice_members(ring, "right")
        assert lattice_members(opposite, "right") == lattice_members(ring, "left")
        assert lattice_members(opposite, "two_sided") == lattice_members(ring, "two_sided")

    @pytest.mark.parametrize("recipe", list(golden_rings()))
    def test_matches_cyclic_join_oracle(self, recipe):
        """Full member lists against set-based cyclic joins, up to order 64."""
        ring = build_recipe(recipe)
        perm = [0] + random.Random(recipe).sample(range(1, ring.order), ring.order - 1)
        opposite = validate_ring(ring.add, ring.mul.T, ring.one)
        for r in (ring, relabel(ring, perm), opposite):
            left = cyclic_join_ideals(r.add, r.mul)
            right = cyclic_join_ideals(r.add, r.mul.T)
            for side, ideals in zip(SIDES, (left, right, left & right)):
                expected = sorted(ideals, key=lambda s: (len(s), sorted(s)))
                assert lattice_members(r, side) == expected

    def test_order_cap(self):
        ring = triangular_ring(ring_gf(2, 2), 2)  # order 64 passes the cap
        ideal_lattice(ring, "two_sided")
        big = direct_product(ring, ring_zn(2))  # 128 does not
        with pytest.raises(OrderTooLarge):
            ideal_lattice(big, "left")


class TestScalarInvariants:
    def test_characteristic_z4(self):
        assert characteristic(ring_of("z4")) == 4

    def test_characteristic_divides_order(self):
        for name in CATALOG_NAMES:
            ring = ring_of(name)
            assert ring.order % characteristic(ring) == 0

    def test_m2f2_not_commutative(self):
        ring = ring_of("m2f2")
        assert not is_commutative(ring)
        mul = ring.mul
        assert any(
            mul[a, b] != mul[b, a] for a in range(16) for b in range(16)
        )

    def test_gf4_center_is_whole_ring(self):
        ring = ring_of("gf4")
        assert center(ring).members == frozenset(range(4))

    def test_m2f2_center_is_scalars(self):
        assert len(center(ring_of("m2f2"))) == 2


class TestFingerprint:
    def test_m2f2(self):
        assert fingerprint(ring_of("m2f2")).as_tuple() == (
            16, 6, 10, 2, 1, 3, 3, 1, False,
        )

    def test_z4(self):
        assert fingerprint(ring_of("z4")).as_tuple() == (4, 2, 2, 4, 2, 1, 1, 1, True)

    def test_z3_x_t2f2(self):
        fp = fingerprint(ring_of("z3xt2f2"))
        assert (fp.order, fp.unit_count, fp.zero_divisor_count) == (24, 4, 20)

    @pytest.mark.parametrize("name", ["z4", "t2f2", "m2f2", "gf4xz4", "f2xy"])
    def test_invariant_under_relabeling(self, name):
        ring = ring_of(name)
        rng = random.Random(f"relabel-{name}")
        base = fingerprint(ring)
        for _ in range(3):
            perm = [0] + rng.sample(range(1, ring.order), ring.order - 1)
            assert fingerprint(relabel(ring, perm)) == base

    def test_relabel_requires_fixed_zero(self):
        with pytest.raises(ValueError):
            relabel(ring_of("z4"), [1, 0, 2, 3])

    def test_product_laws(self):
        for left_name, right_name in (("z4", "t2f2"), ("gf4", "z4"), ("gf3", "m2f2")):
            r1, r2 = ring_of(left_name), ring_of(right_name)
            prod = direct_product(r1, r2)
            assert len(units(prod)) == len(units(r1)) * len(units(r2))
            rad1 = jacobson_radical(r1).members
            rad2 = jacobson_radical(r2).members
            expected = {a * r2.order + b for a in rad1 for b in rad2}
            assert jacobson_radical(prod).members == expected
            char = characteristic(prod)
            c1, c2 = characteristic(r1), characteristic(r2)
            assert char == c1 * c2 // np.gcd(c1, c2)


class TestMaximalIdealHelpers:
    def test_maximal_ideals_are_proper_and_inclusion_maximal(self):
        ring = ring_of("m2f2")
        top = maximal_ideals(ring, "left")
        lattice = ideal_lattice(ring, "left")
        proper = [i.members for i in lattice if len(i.members) < ring.order]
        for m in top:
            assert len(m.members) < ring.order
            assert not any(m.members < other for other in proper)


@pytest.mark.parametrize("recipe,expected", golden_structure())
def test_matches_golden_structure(recipe, expected):
    """Fingerprints and ideal counts up to order 64 against the benchmark's golden file."""
    ring = build_recipe(recipe)
    perm = [0] + random.Random(recipe).sample(range(1, ring.order), ring.order - 1)
    for r in (ring, relabel(ring, perm)):
        assert list(fingerprint(r).as_tuple()) == expected["fingerprint"]
        assert [len(ideal_lattice(r, side)) for side in SIDES] == expected["ideals"]
