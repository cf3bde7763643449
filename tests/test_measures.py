"""Temporal/spatial/free complexity measures and error-correction accounting."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from physcomp.errors import InputError, NumericalOverflow
from physcomp.measures import (
    binary_entropy,
    error_correction_space,
    free_phi,
    free_phi_op_equivalent,
    landauer_cost,
    ml_min_time,
    phi_space,
    phi_time,
)
from physcomp.units import BIT, CONSTANTS, ENERGY, TEMPERATURE, TIME, Quantity

HBAR = CONSTANTS.hbar.magnitude
EV = CONSTANTS.electron_volt.magnitude

# frozen scalar oracles
PHI_TIME_1J_1S = 6.036760722267447e33  # 2 / (pi hbar)
ML_TIME_1EV = 1.0339169235974639e-15  # pi hbar / (2 eV), from pinned constants
LANDAUER_300K_1BIT = 2.870978885078724e-21  # k_B 300 ln2
H_1E_MINUS_3_BITS = 0.011407757737461138
EC_EXACT_1E6_1E_MINUS3 = 11407.757737461138
EC_ASYM_1E6_1E_MINUS3 = 9965.784284662088


def joules(x):
    return Quantity(x, ENERGY)


def seconds(x):
    return Quantity(x, TIME)


def kelvin_t(x):
    return Quantity(x, TEMPERATURE)


class TestPhiTime:
    def test_one_joule_one_second(self):
        assert phi_time(joules(1.0), seconds(1.0)) == pytest.approx(
            PHI_TIME_1J_1S, rel=1e-12
        )

    def test_zero_energy_zero_ops(self):
        assert phi_time(joules(0.0), seconds(1.0)) == 0.0

    def test_inverse_of_minimum_flip_time_is_one_op(self):
        assert phi_time(joules(math.pi * HBAR / 2.0), seconds(1.0)) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_negative_inputs_rejected(self):
        with pytest.raises(InputError, match="phi_time needs E >= 0 and t >= 0"):
            phi_time(joules(-1.0), seconds(1.0))
        with pytest.raises(InputError, match="phi_time needs E >= 0 and t >= 0"):
            phi_time(joules(1.0), seconds(-1.0))

    def test_subnormal_product_of_inputs(self):
        # E*t = 1e-320 is subnormal; 2Et/(pi hbar), correctly rounded, is not
        want = 6.036760722267446e-287
        assert phi_time(joules(1e-200), seconds(1e-120)) == want
        assert free_phi_op_equivalent(joules(1e-200), seconds(1e-120)) == want

    def test_overflow_at_the_double_limit(self):
        with pytest.raises(NumericalOverflow, match="E=1e\\+308, t=1.0"):
            phi_time(joules(1e308), seconds(1.0))


_DECADES = st.builds(lambda m, k: m * 10.0**k, st.floats(1.0, 10.0), st.integers(-300, 299))


@settings(max_examples=300, deadline=None)
@given(e=_DECADES, t=_DECADES)
@example(e=1e-200, t=1e-120)
@example(e=1e308 / 3, t=1e-300)
def test_phi_time_within_one_ulp_wherever_the_result_is_normal(e, t):
    # exact 2Et/D, D the one double pi*hbar the formula divides by
    exact = 2 * Fraction(e) * Fraction(t) / Fraction(math.pi * HBAR)
    assume(sys.float_info.min <= exact <= sys.float_info.max)
    want = float(exact)
    got = phi_time(joules(e), seconds(t))
    assert abs(got - want) <= math.ulp(want)


class TestMlMinTime:
    def test_one_electron_volt(self):
        t = ml_min_time(Quantity(EV, ENERGY))
        assert t.magnitude == pytest.approx(ML_TIME_1EV, rel=1e-12)

    def test_identity_with_phi_time(self):
        for e in (1e-21, 1.0, 3.7e5):
            assert phi_time(joules(e), ml_min_time(joules(e))) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_doubling_energy_halves_time(self):
        assert ml_min_time(joules(2.0)).magnitude == pytest.approx(
            ml_min_time(joules(1.0)).magnitude / 2.0, rel=1e-15
        )

    def test_non_positive_rejected(self):
        with pytest.raises(InputError, match="minimum flip time needs E > 0"):
            ml_min_time(joules(0.0))


class TestPhiSpace:
    def test_equilibrium_has_no_memory(self):
        assert phi_space(1e6 * BIT, 1e6 * BIT).magnitude == 0.0

    def test_zero_entropy_gives_everything(self):
        assert phi_space(1e6 * BIT, 0 * BIT).magnitude == 1e6

    def test_large_scale_arithmetic(self):
        got = phi_space(1.5e77 * BIT, 0.5e77 * BIT)
        assert got.magnitude == pytest.approx(1e77, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(InputError, match="need 0 <= S <= S_max"):
            phi_space(1 * BIT, 2 * BIT)


class TestLandauer:
    def test_room_temperature_bit(self):
        got = landauer_cost(kelvin_t(300.0), 1)
        assert got.magnitude == pytest.approx(LANDAUER_300K_1BIT, rel=1e-12)

    def test_zero_bits(self):
        assert landauer_cost(kelvin_t(300.0), 0).magnitude == 0.0

    def test_linearity_in_bits(self):
        one = landauer_cost(kelvin_t(77.0), 1).magnitude
        two = landauer_cost(kelvin_t(77.0), 2).magnitude
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_kt_order_of_magnitude(self):
        # k_B T at 300 K is within 25% of the 5e-21 J rule of thumb
        kt = CONSTANTS.k_B.magnitude * 300.0
        assert abs(kt - 5e-21) / 5e-21 < 0.25

    def test_non_positive_temperature(self):
        with pytest.raises(InputError, match="Landauer cost needs T > 0"):
            landauer_cost(kelvin_t(0.0), 1)


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert binary_entropy(0.5).magnitude == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0).magnitude == 0.0
        assert binary_entropy(1.0).magnitude == 0.0

    def test_scalar_example(self):
        assert binary_entropy(1e-3).magnitude == pytest.approx(
            H_1E_MINUS_3_BITS, rel=1e-12
        )

    def test_symmetry(self):
        for eps in (0.01, 0.2, 0.4):
            assert binary_entropy(eps).magnitude == pytest.approx(
                binary_entropy(1.0 - eps).magnitude, rel=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(InputError, match=r"probability must be in \[0, 1\]"):
            binary_entropy(-0.1)
        with pytest.raises(InputError, match=r"probability must be in \[0, 1\]"):
            binary_entropy(1.1)


class TestErrorCorrectionSpace:
    def test_exact_example(self):
        got = error_correction_space(1e6, 1e-3, "exact")
        assert got.magnitude == pytest.approx(EC_EXACT_1E6_1E_MINUS3, rel=1e-12)

    def test_asymptotic_example(self):
        got = error_correction_space(1e6, 1e-3, "asymptotic")
        assert got.magnitude == pytest.approx(EC_ASYM_1E6_1E_MINUS3, rel=1e-12)

    def test_error_free_needs_nothing(self):
        assert error_correction_space(1e6, 0.0, "exact").magnitude == 0.0
        assert error_correction_space(1e6, 0.0, "asymptotic").magnitude == 0.0

    def test_exact_dominates_asymptotic(self):
        for eps in (1e-310, 1e-6, 1e-4, 1e-2, 0.3):
            exact = error_correction_space(100.0, eps, "exact").magnitude
            asym = error_correction_space(100.0, eps, "asymptotic").magnitude
            assert exact >= asym

    def test_linear_in_op_count(self):
        base = error_correction_space(1.0, 1e-3, "exact").magnitude
        for t in (10.0, 1e4, 1e9):
            got = error_correction_space(t, 1e-3, "exact").magnitude
            assert got == pytest.approx(t * base, rel=1e-12)

    def test_ratio_tends_to_one_monotonically(self):
        ratios = []
        for eps in (1e-2, 1e-4, 1e-6):
            exact = error_correction_space(1.0, eps, "exact").magnitude
            asym = error_correction_space(1.0, eps, "asymptotic").magnitude
            ratios.append(exact / asym)
        assert 1.0 <= ratios[-1] <= 1.2
        assert ratios[0] > ratios[1] > ratios[2] >= 1.0

    def test_rate_above_half_rejected(self):
        with pytest.raises(InputError, match=r"error rate must be in \[0, 1/2\]"):
            error_correction_space(10.0, 0.6)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError, match="unknown mode 'bogus'"):
            error_correction_space(10.0, 0.1, mode="bogus")


class TestFreePhi:
    def test_identity_on_consumed_energy(self):
        assert free_phi(joules(1.0)).magnitude == 1.0

    def test_metabolism_op_budget_in_band(self):
        # 100 W for 1 s at one covalent-bond energy per op
        ops = free_phi(joules(100.0)).magnitude / 1.6e-19
        assert ops == pytest.approx(6.25e20, rel=1e-12)
        assert 1e20 <= ops <= 1e22

    def test_op_equivalent_of_minimal_action(self):
        assert free_phi_op_equivalent(
            joules(math.pi * HBAR / 2.0), seconds(1.0)
        ) == pytest.approx(1.0, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(InputError, match="consumed free energy must be >= 0"):
            free_phi(joules(-1.0))
