"""Black hole computer model: closed forms, scaling laws, Page curve, errors."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import binary_entropy_bits, bisect_error_rate, full_bisect_error_rate
from physcomp import blackhole as bh
from physcomp.errors import InputError, NumericalOverflow, NumericalUnderflow
from physcomp.measures import binary_entropy, phi_time
from physcomp.units import CONSTANTS, ENERGY, LN2, MASS, TIME, Quantity

C = CONSTANTS.c.magnitude
M_SUN = CONSTANTS.solar_mass
M_P = CONSTANTS.planck_mass.magnitude

# frozen scalar oracles for one solar mass with the pinned constants
SUN_LIFETIME_YEARS = 2.097105533248958e67
SUN_RADIUS_M = 2954.007736491099
SUN_TEMPERATURE_K = 6.168677824358304e-08
SUN_ENTROPY_NATS = 1.0494297066288975e77
QUOTED_LIFETIME_YEARS = 2.140e67

MASS_SET = [
    Quantity(1.0, MASS),
    Quantity(1e6, MASS),
    M_SUN,
]


def kg(x):
    return Quantity(x, MASS)


class TestCharacterize:
    def test_solar_mass_lifetime_matches_quote_within_5_percent(self):
        rep = bh.characterize(M_SUN)
        assert rep.lifetime_years == pytest.approx(SUN_LIFETIME_YEARS, rel=1e-12)
        # the quoted figure is sensitive to the pinned solar mass (M^3)
        assert abs(rep.lifetime_years - QUOTED_LIFETIME_YEARS) / QUOTED_LIFETIME_YEARS < 0.05

    def test_solar_mass_scalar_fields(self):
        rep = bh.characterize(M_SUN)
        assert rep.radius.magnitude == pytest.approx(SUN_RADIUS_M, rel=1e-12)
        assert rep.temperature.magnitude == pytest.approx(SUN_TEMPERATURE_K, rel=1e-12)
        assert rep.entropy_nats == pytest.approx(SUN_ENTROPY_NATS, rel=1e-12)
        assert rep.entropy_bits == pytest.approx(
            SUN_ENTROPY_NATS / math.log(2.0), rel=1e-12
        )

    def test_free_energy_is_half_rest_energy(self):
        for m in MASS_SET:
            rep = bh.characterize(m)
            rest = m.magnitude * C**2
            assert rep.free_energy.magnitude / rest == pytest.approx(0.5, abs=1e-12)

    def test_thermal_energy_is_other_half(self):
        # k_B T * S_nats = M c^2 / 2
        for m in MASS_SET:
            rep = bh.characterize(m)
            ts = CONSTANTS.k_B.magnitude * rep.temperature.magnitude * rep.entropy_nats
            assert ts == pytest.approx(m.magnitude * C**2 / 2.0, rel=1e-12)

    def test_serial_computer_identity(self):
        # minimum flip time at the per-bit energy share equals pi^2 R / c
        hbar = CONSTANTS.hbar.magnitude
        for m in MASS_SET:
            rep = bh.characterize(m)
            e_per_bit = m.magnitude * C**2 / rep.entropy_nats
            ml_time = math.pi * hbar / (2.0 * e_per_bit)
            assert ml_time == pytest.approx(rep.bit_flip_time.magnitude, rel=1e-12)

    def test_positive_fields(self):
        rep = bh.characterize(kg(1.0))
        assert rep.radius.magnitude > 0
        assert rep.temperature.magnitude > 0
        assert rep.lifetime.magnitude > 0
        assert rep.total_ops > 0
        assert rep.page_time_paper.magnitude == rep.lifetime.magnitude / 2.0

    def test_non_positive_mass_rejected(self):
        with pytest.raises(InputError, match="mass must be positive"):
            bh.characterize(kg(0.0))
        with pytest.raises(InputError, match="mass must be positive"):
            bh.characterize(kg(-1.0))

    def test_overflowing_mass_is_typed(self):
        # M^3 leaves the double range above ~5.6e102 kg, M^2 / m_P^2 above ~3e146 kg
        with pytest.raises(NumericalOverflow, match="lifetime"):
            bh.characterize(kg(1e120))
        with pytest.raises(NumericalOverflow, match="entropy"):
            bh.entropy_nats(kg(1e150))
        with pytest.raises(NumericalOverflow, match="lifetime"):
            bh.page_curve(kg(1e120), 3)

    def test_overflowing_op_count_is_typed(self):
        # ops/s * lifetime leaves the double range above ~2.5e68 kg, though
        # the lifetime itself stays finite up to ~5.6e102 kg
        with pytest.raises(NumericalOverflow, match="op count"):
            bh.total_ops(kg(1e70))
        with pytest.raises(NumericalOverflow, match="op count"):
            bh.characterize(kg(1e70))
        rep = bh.characterize(kg(1e67))
        assert math.isfinite(rep.total_ops)
        assert 0.0 < rep.max_error_rate < 0.5

    @pytest.mark.parametrize("formula, mass_kg, name", [
        (bh.hawking_temperature, 1e-290, "temperature"),
        (bh.ops_per_second, 1e300, "ops per second"),
        (bh.free_energy, 1e300, "free energy"),
    ])
    def test_overflowing_formula_is_typed(self, formula, mass_kg, name):
        with pytest.raises(NumericalOverflow, match=f"{name} .* overflows a double at M="):
            formula(kg(mass_kg))

    def test_underflowing_lifetime_is_typed(self):
        # t_M is 0 below ~3.3e-103 kg (M(t) would divide by it) and
        # subnormal, down to a single bit, below ~6.4e-98 kg
        for m in (kg(1e-105), kg(4e-103), kg(1e-100)):
            with pytest.raises(NumericalUnderflow, match="lifetime"):
                bh.lifetime(m)
            with pytest.raises(NumericalUnderflow, match="lifetime"):
                bh.characterize(m)
            with pytest.raises(NumericalUnderflow, match="lifetime"):
                bh.page_curve(m, 3)

    def test_smallest_reported_lifetime_is_normal(self):
        t_m = bh.lifetime(kg(1e-97)).magnitude
        assert sys.float_info.min <= t_m < 1e-300


class TestScalingLaws:
    def test_lifetime_cubes(self):
        t1 = bh.lifetime(kg(1.0)).magnitude
        t2 = bh.lifetime(kg(2.0)).magnitude
        assert t2 / t1 == pytest.approx(8.0, rel=1e-12)

    def test_total_ops_fourth_power(self):
        n1 = bh.total_ops(kg(3.0))
        n2 = bh.total_ops(kg(6.0))
        assert n2 / n1 == pytest.approx(16.0, rel=1e-12)

    def test_ops_scale_invariant(self):
        ratios = [bh.total_ops(kg(m)) / (m / M_P) ** 4 for m in (1.0, 10.0, 100.0)]
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-9)
        assert ratios[2] == pytest.approx(ratios[0], rel=1e-9)

    def test_ops_per_second_matches_phi_time(self):
        for m in (1.0, 1e10):
            rate = bh.ops_per_second(kg(m)).magnitude
            budget = phi_time(
                Quantity(m * C**2, ENERGY), Quantity(1.0, TIME)
            )
            assert rate == pytest.approx(budget, rel=1e-12)


class TestEvaporation:
    def test_endpoints(self):
        samples = bh.page_curve(kg(1e6), 3)
        assert samples[0].mass_kg == 1e6
        assert samples[-1].t_seconds == bh.lifetime(kg(1e6)).magnitude
        assert samples[-1].mass_kg == 0.0

    def test_half_life_closed_form(self):
        half = bh.page_curve(kg(1e6), 3)[1]
        assert half.t_seconds == bh.lifetime(kg(1e6)).magnitude / 2.0
        assert half.mass_kg == pytest.approx(1e6 * 2.0 ** (-1.0 / 3.0), rel=1e-12)

    def test_matches_numerical_integration_of_flux_law(self):
        # independent oracle: RK4 on dM/dt = -hbar c^4 / (15360 pi G^2 M^2)
        hbar, g_newton = CONSTANTS.hbar.magnitude, CONSTANTS.G.magnitude
        m0 = 1e6
        sample = bh.page_curve(kg(m0), 11)[9]  # t = 0.9 t_M

        def dm_dt(m):
            return -hbar * C**4 / (15360.0 * math.pi * g_newton**2 * m * m)

        n_steps = 2000
        h = sample.t_seconds / n_steps
        m = m0
        for _ in range(n_steps):
            k1 = dm_dt(m)
            k2 = dm_dt(m + 0.5 * h * k1)
            k3 = dm_dt(m + 0.5 * h * k2)
            k4 = dm_dt(m + h * k3)
            m += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        assert sample.mass_kg == pytest.approx(m, rel=1e-6)


class TestPageCurve:
    def test_radiation_entropy_vanishes_at_endpoints(self):
        samples = bh.page_curve(kg(1e6), 101)
        assert samples[0].radiation_entropy_bits == 0.0
        assert samples[-1].radiation_entropy_bits == 0.0

    def test_peak_at_crossover_fraction(self):
        n = 2001
        samples = bh.page_curve(kg(1e6), n)
        k = max(range(n), key=lambda i: samples[i].radiation_entropy_bits)
        t_m = bh.lifetime(kg(1e6)).magnitude
        frac = samples[k].t.magnitude / t_m
        assert abs(frac - bh.PAGE_FRACTION) <= 1.0 / (n - 1)

    def test_hole_entropy_monotone_decreasing(self):
        samples = bh.page_curve(kg(1e6), 101)
        hole = [s.hole_entropy_bits for s in samples]
        assert all(a >= b for a, b in zip(hole, hole[1:]))

    def test_csv_format(self):
        samples = bh.page_curve(kg(1e6), 3)
        lines = list(bh.timeline_csv_lines(samples))
        assert lines[0] == "t_seconds,mass_kg,hole_entropy_bits,radiation_entropy_bits"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1e6
        # 17 significant digits round-trip the doubles exactly
        assert float(lines[2].split(",")[1]) == 1e6 * 0.5 ** (1.0 / 3.0)


def _reference_rows(M0, n):
    """Page-curve rows from the per-sample public functions and the
    remaining mass M0 (1 - t/t_M)^(1/3)."""
    t_m = bh.lifetime(M0).magnitude
    s0_bits = bh.entropy_nats(M0) / LN2
    for i in range(n):
        t = t_m if i == n - 1 else t_m * i / (n - 1)
        m = M0.magnitude * (1.0 - t / t_m) ** (1.0 / 3.0)
        s_bits = bh.entropy_nats(kg(m)) / LN2 if m > 0.0 else 0.0
        yield t, m, s_bits, min(s0_bits - s_bits, s_bits)


def _bits(row):
    return [x.hex() for x in row]


class TestPageCurveRows:
    @pytest.mark.parametrize("n", [2, 3, 10001])
    @pytest.mark.parametrize("m0", [1e-6, 1.0, 1e12, M_SUN.magnitude, 1e6 * M_SUN.magnitude])
    def test_rows_match_per_sample_functions(self, m0, n):
        samples = bh.page_curve(kg(m0), n)
        assert len(samples) == n
        for got, want in zip(samples, _reference_rows(kg(m0), n)):
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("m0", [1e-6, 1e6 * M_SUN.magnitude])
    def test_csv_rows_match_field_formatting(self, m0):
        samples = bh.page_curve(kg(m0), 257)
        want = [bh.TIMELINE_CSV_HEADER] + [
            f"{s.t.magnitude:.17g},{s.mass.magnitude:.17g},"
            f"{s.hole_entropy_bits:.17g},{s.radiation_entropy_bits:.17g}"
            for s in samples
        ]
        assert list(bh.timeline_csv_lines(samples)) == want

    def test_sample_quantities(self):
        sample = bh.page_curve(kg(1e6), 3)[1]
        assert isinstance(sample.t, Quantity) and sample.t.dim == TIME
        assert isinstance(sample.mass, Quantity) and sample.mass.dim == MASS
        assert sample.t.magnitude == sample.t_seconds
        assert sample.mass.magnitude == sample.mass_kg


class TestErrorRateBisection:
    @settings(max_examples=100, deadline=None)
    @given(
        log_ops=st.floats(min_value=0.0, max_value=308.0),
        log_capacity=st.floats(min_value=-320.0, max_value=308.0),
    )
    @example(log_ops=300.0, log_capacity=-15.0)  # subnormal root
    @example(log_ops=308.0, log_capacity=-8.0)  # subnormal root
    @example(log_ops=300.0, log_capacity=-2.0)  # root near 1e-305
    @example(log_ops=308.0, log_capacity=-320.0)  # target underflows to 0
    @example(log_ops=6.0, log_capacity=3.0)
    def test_matches_full_bisection_bit_for_bit(self, log_ops, log_capacity):
        ops, capacity = 10.0**log_ops, 10.0**log_capacity
        got = bh.solve_error_rate(ops, capacity)
        assert got.hex() == full_bisect_error_rate(ops, capacity).hex()

    @pytest.mark.parametrize("mass_kg", [1e3, 1e10, 1e20, 1e30, 1e38])
    def test_sweep_mass_solve_evaluates_h_at_most_60_times(self, monkeypatch, mass_kg):
        calls = []

        def counting(eps):
            calls.append(eps)
            return binary_entropy(eps)

        monkeypatch.setattr(bh, "binary_entropy", counting)
        bh.max_error_rate(kg(mass_kg))
        assert 0 < len(calls) <= 60


class TestMaxErrorRate:
    def test_synthetic_case_against_oracle(self):
        got = bh.solve_error_rate(1e6, 1e3)
        want = bisect_error_rate(1e6, 1e3)
        assert got == pytest.approx(want, rel=1e-2)
        assert got == pytest.approx(6.5153e-5, rel=1e-3)

    def test_strictly_decreasing_in_mass(self):
        rates = [bh.max_error_rate(kg(m)) for m in (1e-6, 1e-5, 1e-4, 1e-3)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_definitional_round_trip(self):
        for m in (1e-6, 1.0, 1e6):
            eps = bh.max_error_rate(kg(m))
            s_bits = bh.entropy_nats(kg(m)) / math.log(2.0)
            assert binary_entropy_bits(eps) * bh.total_ops(kg(m)) == pytest.approx(
                s_bits, rel=1e-9
            )

    def test_sub_planckian_bound_is_vacuous(self):
        assert bh.max_error_rate(kg(M_P * 0.5)) == 0.5

    def test_no_ops_is_refused(self):
        with pytest.raises(InputError, match="op count and capacity must be positive"):
            bh.solve_error_rate(0, 1)

    def test_asymptotic_scaling_is_inverse_square_up_to_log(self):
        # eps_max * (M/m_P)^2 should vary only logarithmically in M:
        # multiplying it by the log of the ops/capacity ratio flattens it
        scaled = []
        for m in (1e-4, 1e-2, 1.0, 1e2):
            eps = bh.max_error_rate(kg(m))
            ratio = bh.total_ops(kg(m)) / (bh.entropy_nats(kg(m)) / math.log(2.0))
            scaled.append(eps * ratio * math.log2(ratio))
        assert max(scaled) / min(scaled) < 2.0
