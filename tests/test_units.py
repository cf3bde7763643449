"""Dimension algebra, quantities, entropy conversion, constants."""

import copy
import json
import math
import pickle
import random
import struct
import sys

import pytest

import physcomp
from physcomp import units
from physcomp.errors import (
    DimensionMismatch,
    FileFormatError,
    NumericalOverflow,
    NumericalUnderflow,
)
from physcomp.units import (
    BIT,
    ENERGY,
    ENTROPY_THERMO,
    INFORMATION,
    JOULE,
    LENGTH,
    MASS,
    NAT,
    POWER,
    TEMPERATURE,
    TIME,
    Dimension,
    Quantity,
    bisect_root,
    constants,
    entropy_convert,
    in_range,
)

# frozen oracle values (arbitrary-precision evaluation of the pinned constants)
K_B_LN2 = 9.569929616929079e-24  # 1.380649e-23 * ln 2
NAT_IN_BITS = 1.4426950408889634  # 1 / ln 2
PLANCK_MASS = 2.176434342051127e-08  # sqrt(hbar c / G)
PLANCK_LENGTH = 1.61625502392855e-35  # sqrt(hbar G / c^3)


class TestDimension:
    def test_mul_adds_exponents(self):
        assert MASS * LENGTH == Dimension(mass=1, length=1)
        assert (MASS * LENGTH) / MASS == LENGTH

    def test_abelian_group_round_trip(self):
        dims = [MASS, LENGTH, TIME, ENERGY, ENTROPY_THERMO, INFORMATION]
        for a in dims:
            for b in dims:
                assert a * b / b == a
                assert a * b == b * a

    def test_integer_exponents_only(self):
        with pytest.raises(DimensionMismatch):
            ENERGY ** 0.5  # noqa: B018


class TestQuantity:
    def test_mul_definitional(self):
        force = Quantity(6.0, MASS * LENGTH / TIME**2)
        assert force.unit == "N"

    def test_add_mismatched_dimensions_is_error(self):
        with pytest.raises(TypeError):
            1 * JOULE + Quantity(1.0, LENGTH)  # noqa: B018

    def test_div_definitional(self):
        watt = Quantity(3.0, ENERGY / TIME)
        assert watt.dim == POWER
        assert watt.unit == "W"

    def test_value_in_a_named_unit_and_a_composed_one(self):
        assert (6 * JOULE).value_in("J") == 6.0
        jerk = Quantity(2.0, LENGTH / TIME**3)
        assert jerk.unit == "m·s^-3" and str(jerk) == "2 m·s^-3"
        assert (2 * BIT).value_in(NAT) == (2 * BIT).value_in("nat") == 2.0 * units.LN2
        with pytest.raises(DimensionMismatch, match=r"cannot express \[kg\] and \[s\]"):
            Quantity(1.0, MASS).value_in("s")

    def test_unit_follows_from_the_dimension(self):
        with pytest.raises(TypeError):
            Quantity(1.0, ENERGY, "eV")
        assert str(Quantity(1.0, ENERGY)) == "1 J"
        assert str(Quantity(2.0, MASS)) == "2 kg"
        with pytest.raises(TypeError):
            Quantity(1.0, MASS) + Quantity(1.0, TIME)  # noqa: B018

    def test_non_finite_rejected(self):
        with pytest.raises(DimensionMismatch):
            Quantity(math.nan, ENERGY)
        with pytest.raises(DimensionMismatch):
            Quantity(math.inf, ENERGY)

    @pytest.mark.parametrize("op", [
        lambda q: q + q, lambda q: q - q, lambda q: q / 2, lambda q: 2 / q, lambda q: q * q,
        lambda q: q * 2, lambda q: -q, lambda q: abs(q), lambda q: q**2, lambda q: q < q,
    ], ids=["add", "sub", "div-number", "number-div", "mul", "mul-number", "neg", "abs",
            "pow", "lt"])
    def test_quantity_has_no_arithmetic(self, op):
        # formulas compute on magnitudes; only number * unit builds a quantity
        with pytest.raises(TypeError):
            op(6 * JOULE)
        assert 2 * BIT == Quantity(2.0, INFORMATION)

    def test_equality_ignores_display_unit(self):
        # equal by magnitude and dimension, whatever unit it was written or is read in
        one_nat = 1 * NAT
        assert one_nat == Quantity(NAT_IN_BITS, INFORMATION) == NAT_IN_BITS * BIT
        assert one_nat.unit == "bit" and one_nat.value_in(NAT) == 1.0
        assert Quantity(1.0, INFORMATION) != Quantity(1.0, ENERGY)

    def test_comparisons_require_same_dimension(self):
        # equality holds only within one dimension; quantities are not ordered at all,
        # so a comparison across dimensions cannot pass silently either
        assert 1 * JOULE == 1 * JOULE and 1 * JOULE != 2 * JOULE
        assert (Quantity(1.0) == 1.0) is False  # a number is no Quantity
        assert Quantity(1.0, INFORMATION) != Quantity(1.0, ENERGY)
        with pytest.raises(TypeError):
            1 * JOULE < Quantity(1.0, TIME)  # noqa: B015
        with pytest.raises(TypeError):
            1 * JOULE <= 2 * JOULE  # noqa: B015

    def test_frozen_copyable_and_hashed_by_value(self):
        q = Quantity(2.0, ENERGY)
        for name in ("magnitude", "unit", "extra"):
            with pytest.raises(AttributeError):
                setattr(q, name, 3.0)
        with pytest.raises(AttributeError):
            del q.dim
        assert copy.deepcopy(q) == q == pickle.loads(pickle.dumps(q))
        assert hash(q) == hash(Quantity(2.0, ENERGY))
        assert repr(q) == (
            "Quantity(magnitude=2.0, dim=Dimension(mass=1, length=2, time=-2, "
            "temperature=0, current=0, information=0))"
        )


def test_records_are_frozen_values():
    # equal and hashed by their fields; assigning a field raises
    records = (
        MASS,
        units.PINNED,
        physcomp.blackhole.characterize(Quantity(1e3, MASS)),
        physcomp.catalog.builtin_systems()[0],
        physcomp.assembly.pathway_from_dict({"basis": "ab", "steps": [["a", "b"]]}),
    )
    for rec in records:
        twin = type(rec)(*rec)
        assert twin == rec and hash(twin) == hash(rec)
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)


def test_units_are_one_per_named_dimension_and_the_nat():
    named = ("kg", "m", "s", "K", "A", "bit", "J", "W", "N", "V", "F",
             "J/K", "J·s", "m/s", "1/s", "1/J", "bit/s")
    assert {k: q.magnitude for k, q in units.UNITS.items()} == {
        **dict.fromkeys(named, 1.0), "nat": 1.0 / math.log(2.0)
    }
    # the nat is an information quantity: its symbol is the bit's
    assert all(q.unit == ("bit" if q is NAT else k) for k, q in units.UNITS.items())


class TestEntropyConvert:
    def test_one_nat_is_bits(self):
        got = entropy_convert(NAT, "bits")
        assert got.dim == INFORMATION
        assert got.magnitude == pytest.approx(NAT_IN_BITS, rel=1e-12)

    def test_one_bit_thermodynamic(self):
        got = entropy_convert(BIT, "joules_per_kelvin")
        assert got.dim == ENTROPY_THERMO
        assert got.magnitude == pytest.approx(K_B_LN2, rel=1e-12)

    def test_zero_is_zero(self):
        assert (0 * BIT).value_in(NAT) == 0.0
        assert entropy_convert(0 * BIT, "joules_per_kelvin").magnitude == 0.0

    def test_round_trip_bits_nats_bits(self):
        for value in (1e-6, 1.0, 3.7, 1e40):
            start = Quantity(value, INFORMATION)
            back = entropy_convert(start.value_in(NAT) * NAT, "bits")
            assert back.magnitude == pytest.approx(value, rel=1e-15)

    def test_bits_keep_their_magnitude_exactly(self):
        # the magnitude is stored in bits: no ln 2 round trip moves a digit
        rng = random.Random(1)
        for _ in range(10_000):
            x = rng.uniform(0.0, 100.0)
            assert entropy_convert(Quantity(x, INFORMATION), "bits").magnitude == x

    def test_thermodynamic_round_trip(self):
        start = Quantity(2.5, INFORMATION)
        back = entropy_convert(
            entropy_convert(start, "joules_per_kelvin"), "bits"
        )
        assert back.magnitude == pytest.approx(2.5, rel=1e-12)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            entropy_convert(1 * JOULE, "bits")

    def test_unknown_unit_rejected(self):
        with pytest.raises(DimensionMismatch, match="unknown entropy unit 'bogus'"):
            entropy_convert(1 * BIT, "bogus")

    def test_nats_are_read_with_value_in_not_converted(self):
        with pytest.raises(DimensionMismatch, match="unknown entropy unit 'nats'"):
            entropy_convert(BIT, "nats")


class TestConstants:
    def test_speed_of_light_exact(self):
        assert constants().c.magnitude == 299792458.0

    def test_planck_mass_frozen(self):
        assert constants().planck_mass.magnitude == pytest.approx(
            PLANCK_MASS, rel=1e-12
        )

    def test_planck_length_frozen(self):
        assert constants().planck_length.magnitude == pytest.approx(
            PLANCK_LENGTH, rel=1e-12
        )

    def test_planck_identities(self):
        c = constants()
        assert c.planck_mass.magnitude**2 * c.G.magnitude / (
            c.hbar.magnitude * c.c.magnitude
        ) == pytest.approx(1.0, abs=1e-10)

    def test_dimensions_carried(self):
        c = constants()
        assert c.hbar.dim == ENERGY * TIME
        assert c.k_B.dim == ENERGY / TEMPERATURE
        assert c.solar_mass.dim == MASS

    def test_override_file(self, tmp_path):
        path = tmp_path / "consts.json"
        path.write_text(json.dumps({"G": 1.0e-10}))
        c = constants(str(path))
        assert c.G.magnitude == 1.0e-10
        # derived constants follow the override
        expect = math.sqrt(c.hbar.magnitude * c.c.magnitude / 1.0e-10)
        assert c.planck_mass.magnitude == pytest.approx(expect, rel=1e-12)
        # untouched keys keep their pins
        assert c.c.magnitude == 299792458.0

    def test_override_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "consts.json"
        path.write_text(json.dumps({"speed": 1.0}))
        with pytest.raises(FileFormatError):
            constants(str(path))

    def test_override_inconsistent_planck_mass_fails_self_check(self, tmp_path):
        path = tmp_path / "consts.json"
        path.write_text(json.dumps({"planck_mass": 1.0}))
        with pytest.raises(FileFormatError, match=r"constants inconsistent: m_P\^2"):
            constants(str(path))

    def test_override_non_number_rejected(self, tmp_path):
        path = tmp_path / "consts.json"
        path.write_text(json.dumps({"G": "strong"}))
        with pytest.raises(FileFormatError):
            constants(str(path))

    @pytest.mark.parametrize("value", [0, -1.0, 1e300])
    def test_override_out_of_range_rejected(self, tmp_path, value):
        # zero or negative, or a c whose cube overflows: one typed error
        path = tmp_path / "consts.json"
        path.write_text(json.dumps({"c": value}))
        with pytest.raises(FileFormatError):
            constants(str(path))

    def test_source_names_the_override(self, tmp_path):
        path = tmp_path / "consts.json"
        path.write_text(json.dumps({"G": 1.0e-10}))
        assert constants(str(path)).source == f"file:{path}"


class TestActiveSet:
    def test_starts_pinned_without_reading_the_environment(self):
        assert units.CONSTANTS is units.PINNED
        assert units.PINNED.source == "pinned"

    def test_using_rebinds_and_restores(self, tmp_path):
        path = tmp_path / "consts.json"
        path.write_text(json.dumps({"k_B": 2.0 * units.PINNED.k_B.magnitude}))
        override = constants(str(path))
        with units.using(override):
            assert units.CONSTANTS is override
            assert physcomp.CONSTANTS is override
            doubled = entropy_convert(Quantity(1.0, INFORMATION), "joules_per_kelvin")
        assert doubled.magnitude == pytest.approx(2.0 * K_B_LN2, rel=1e-15)
        assert units.CONSTANTS is units.PINNED
        assert physcomp.CONSTANTS is units.PINNED

    def test_using_restores_on_an_exception(self):
        override = constants()
        with pytest.raises(RuntimeError):
            with units.using(override):
                raise RuntimeError("inside")
        assert units.CONSTANTS is units.PINNED


class TestInRange:
    """The one rule for formula results: a normal double, or 0 from a 0 input."""

    @pytest.mark.parametrize("x", [1.0, -2.5, 2.2250738585072014e-308, 1.7976931348623157e308])
    def test_normal_passes(self, x):
        assert in_range(x, "f", a=1.0) == x

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_from_a_zero_input_passes(self, zero):
        assert in_range(zero, "f", a=3.0, b=-0.0) == 0.0
        assert in_range(zero, "f", a=3.0, b=0) == 0.0

    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -1e-310, 2.225073858507201e-308])
    def test_subnormal_or_lost_zero_underflows(self, x):
        with pytest.raises(NumericalUnderflow, match=r"^f\(x\) underflows to .* at a=2\.0, b='u'$"):
            in_range(x, "f(x)", a=2.0, b="u")

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_not_finite_overflows(self, x):
        with pytest.raises(NumericalOverflow, match=r"^f\(x\) overflows a double at a=0\.0$"):
            in_range(x, "f(x)", a=0.0)


def _double(rng):
    """A finite double of uniformly random bits, at most half the largest
    in size so that lo + hi stays finite."""
    while True:
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if abs(x) <= sys.float_info.max / 2:  # nan fails this too
            return x


def test_bisect_root_ends_at_the_root_or_a_neighbour():
    # above(x) is x < c, so the root is c itself
    rng = random.Random(30)
    edges = [(0.0, 0.0, 5e-324), (0.0, 5e-324, 5e-324), (1.0, 1.0, 1.0), (-0.0, 0.0, 0.0),
             (0.0, 1e-300, 0.5), (-1e300, 3.0, 1e300)]
    for lo, c, hi in edges + [sorted(_double(rng) for _ in range(3)) for _ in range(1000)]:
        got = bisect_root(lambda x: x < c, lo, hi)
        assert got in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)), (lo, c, hi)
