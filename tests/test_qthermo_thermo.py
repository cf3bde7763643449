"""Entropy, Gibbs states, temperature solving, free energy, work."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import capped_bisect_beta
from _random_states import random_density, random_hermitian
from physcomp.errors import InputError, NumericalOverflow, NumericalUnderflow
from physcomp.qthermo import (
    DensityMatrix,
    GibbsState,
    HermitianOperator,
    extractable_work,
    gibbs_state,
    mean_energy,
    nonequilibrium_free_energy,
    solve_inverse_temperature,
    thermo,
    von_neumann_entropy,
)
from physcomp.qthermo.states import real_inner
from physcomp.units import CONSTANTS, ENERGY, NAT, TEMPERATURE, Quantity, entropy_convert

K_B = CONSTANTS.k_B.magnitude

# frozen scalar oracles
ENTROPY_25_75_BITS = 0.8112781244591328  # -(1/4 log2 1/4 + 3/4 log2 3/4)
KT_OVER_E_QUARTER = 0.9102392266268373  # 1/ln 3
F_MIXED_OVER_E = -0.1931471805599453  # 1/2 - ln 2
W_GROUND_OVER_E = 0.31326168751822286  # ln(1 + e^-1)


def kelvin(kt_joules: float) -> Quantity:
    """Temperature whose k_B T equals the given energy in joules."""
    return Quantity(kt_joules / K_B, TEMPERATURE)


def f_eq_is_subnormal(vals: np.ndarray, beta: float) -> bool:
    """Whether f_eq = -ln(Z)/beta, by a log-sum-exp of its own, is subnormal."""
    ref = vals.min() if beta >= 0.0 else vals.max()
    f_eq = ref - np.logaddexp.reduce(-beta * (vals - ref)) / beta
    return 0.0 < abs(f_eq) < sys.float_info.min


class TestVonNeumannEntropy:
    def test_maximally_mixed_qubit_is_one_bit(self):
        s = entropy_convert(von_neumann_entropy(DensityMatrix(np.eye(2) / 2)), "bits")
        assert s.magnitude == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_is_zero(self):
        rho = DensityMatrix(np.diag([0.0, 0.0, 1.0, 0.0]))
        assert von_neumann_entropy(rho).magnitude == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_example(self):
        s = entropy_convert(von_neumann_entropy(DensityMatrix(np.diag([0.25, 0.75]))), "bits")
        assert s.magnitude == pytest.approx(ENTROPY_25_75_BITS, rel=1e-12)

    def test_nats_display(self):
        s = von_neumann_entropy(DensityMatrix(np.eye(2) / 2)).value_in(NAT)
        assert s == pytest.approx(math.log(2.0), rel=1e-12)

    def test_bounds_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            s = entropy_convert(von_neumann_entropy(random_density(rng, d)), "bits").magnitude
            assert -1e-12 <= s <= math.log2(d) + 1e-12


class TestGibbsState:
    def test_two_level_closed_form(self):
        # k_B T = E / ln 3  =>  populations (3/4, 1/4)
        e = 1.0
        g = gibbs_state(HermitianOperator(np.diag([0.0, e])), kelvin(e / math.log(3.0)))
        probs = np.diag(g.rho.matrix).real
        assert probs[0] == pytest.approx(0.75, rel=1e-12)
        assert probs[1] == pytest.approx(0.25, rel=1e-12)
        assert g.partition_function == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_infinite_temperature_limit(self):
        g = gibbs_state(HermitianOperator(np.diag([0.0, 1.0])), kelvin(1e6))
        probs = np.diag(g.rho.matrix).real
        assert probs == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_degenerate_spectrum(self):
        g = gibbs_state(HermitianOperator(np.zeros((3, 3))), kelvin(1.0))
        assert np.allclose(g.rho.matrix, np.eye(3) / 3)
        assert g.partition_function == pytest.approx(3.0, rel=1e-12)

    def test_zero_temperature_rejected(self):
        with pytest.raises(InputError, match="Gibbs state undefined at T = 0"):
            gibbs_state(HermitianOperator(np.diag([0.0, 1.0])), 0 * Quantity(1.0, TEMPERATURE))

    def test_negative_temperature_inverts_populations(self):
        e = 1.0
        g = gibbs_state(HermitianOperator(np.diag([0.0, e])), kelvin(-e))
        probs = np.diag(g.rho.matrix).real
        assert probs[1] > probs[0]
        assert g.temperature.magnitude < 0.0

    def test_f_eq_matches_energy_minus_ts(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            h = random_hermitian(rng, d)
            kt = float(rng.uniform(0.2, 3.0))
            g = gibbs_state(h, kelvin(kt))
            e = mean_energy(g.rho, h).magnitude
            s_nats = von_neumann_entropy(g.rho).value_in(NAT)
            t = g.temperature.magnitude
            assert g.f_eq.magnitude == pytest.approx(
                e - t * K_B * s_nats, rel=1e-9, abs=1e-12
            )

    def test_energy_strictly_decreasing_in_beta(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 5)
        betas = np.linspace(-3.0, 3.0, 13)
        energies = []
        for b in betas:
            if b == 0.0:
                continue
            g = gibbs_state(h, kelvin(1.0 / b))
            energies.append(mean_energy(g.rho, h).magnitude)
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_partition_function_overflow_raises(self):
        # ln Z = 11604.5: the state, F_eq and ln Z are finite, Z is not
        ev = 1.602176634e-19
        g = gibbs_state(
            HermitianOperator(np.diag([-ev, 0.0])), Quantity(1.0, TEMPERATURE)
        )
        assert np.isfinite(g.rho.matrix).all()
        assert g.rho.matrix[0, 0].real == 1.0
        assert g.f_eq.magnitude == pytest.approx(-ev, rel=1e-12)
        assert g.log_partition_function == pytest.approx(ev / K_B, rel=1e-12)
        with pytest.raises(NumericalOverflow, match="ln_Z=11604.5"):
            g.partition_function
        def with_log_z(log_z):
            return GibbsState(g.rho, g.temperature, g.beta, g.f_eq, log_partition_function=log_z)

        # every normal Z is reported, up to the largest double
        assert with_log_z(709.78).partition_function == math.exp(709.78)
        assert with_log_z(-708.0).partition_function == math.exp(-708.0)
        # a subnormal Z has lost significant bits, and 0 is no value
        for log_z in (-720.0, -800.0):
            with pytest.raises(NumericalUnderflow, match=f"ln_Z={log_z}"):
                with_log_z(log_z).partition_function

    def test_f_eq_is_unsigned_zero_when_ln_z_is_zero(self):
        g = gibbs_state(HermitianOperator(np.diag([0.0, 1.0])), kelvin(1e-3))
        assert g.log_partition_function == 0.0
        assert math.copysign(1.0, g.f_eq.magnitude) == 1.0

    def test_f_eq_keeps_the_weights_below_one_ulp_of_one(self):
        # dE = 40 k_B T at 300 K: e^-40 = 4.2e-18 is lost in 1 + e^-40; the
        # oracle is 50-digit mpmath of -k_B T ln(1 + e^(-dE/(k_B T)))
        g = gibbs_state(HermitianOperator(np.diag([0.0, 1.6567788e-19])), Quantity(300.0, TEMPERATURE))
        assert g.f_eq.magnitude == pytest.approx(-1.75964581626422978e-38, rel=1e-12)

    def test_matches_pade_matrix_exponential(self):
        # independent construction: Pade expm of -H/(k_B T), not spectral
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(37)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            h = random_hermitian(rng, d)
            kt = float(rng.uniform(0.5, 3.0))
            g = gibbs_state(h, kelvin(kt))
            raw = expm(-h.matrix / kt)
            want = raw / raw.trace().real
            assert np.allclose(g.rho.matrix, want, atol=1e-12)
            assert g.partition_function == pytest.approx(
                raw.trace().real, rel=1e-12
            )


class TestThermalSpectrum:
    """Thermal states reuse the Hamiltonian's eigensystem."""

    @staticmethod
    def _count_diagonalizations(monkeypatch) -> tuple[HermitianOperator, list]:
        rng = np.random.default_rng(5)
        basis, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        h = HermitianOperator((basis * [-1.0, 0.0, 0.5, 2.0]) @ basis.conj().T)
        calls = []
        for name in ("eigh", "eigvalsh"):
            f = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, f=f, n=name: calls.append(n) or f(a))
        return h, calls

    @pytest.mark.parametrize(
        "solve",
        [
            lambda h: gibbs_state(h, kelvin(0.7)),
            lambda h: solve_inverse_temperature(h, Quantity(-0.5, ENERGY)),
        ],
        ids=["gibbs", "solve-temp"],
    )
    def test_one_diagonalization(self, monkeypatch, solve):
        h, calls = self._count_diagonalizations(monkeypatch)
        solve(h)
        # eigenvalues only: the thermal matrix is not built
        assert calls == ["eigvalsh"]

    def test_thermal_matrix_reuses_the_eigensystem(self, monkeypatch):
        h, calls = self._count_diagonalizations(monkeypatch)
        _, vecs = h.eigensystem()
        rho = gibbs_state(h, kelvin(0.7)).rho
        assert np.allclose(rho.matrix, (vecs * rho.probabilities) @ vecs.conj().T, atol=1e-15)
        # the probabilities come from eigvalsh whatever ran before
        assert calls == ["eigh", "eigvalsh"]

    def test_energy_needs_no_eigenvectors(self, monkeypatch):
        h, calls = self._count_diagonalizations(monkeypatch)
        T = kelvin(0.7)
        g = gibbs_state(h, T)
        e = mean_energy(g.rho, h).magnitude
        nonequilibrium_free_energy(g.rho, h, T)
        extractable_work(g.rho, h, T)
        # sum_k p_k E_k over the spectrum: the thermal matrix is not built
        assert calls == ["eigvalsh"]
        assert e == pytest.approx(real_inner(g.rho.matrix, h.matrix), rel=1e-12, abs=0.0)

    def test_rotated_two_level_deep_tail(self):
        # a 40 k_B T gap in a rotated basis: the excited population, about
        # 4e-18, is lost to rounding if the thermal matrix is rediagonalized
        c, s = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        h = HermitianOperator(rot @ np.diag([0.0, 40.0]) @ rot.T)
        g = gibbs_state(h, kelvin(1.0))
        want = math.exp(-40.0) / (1.0 + math.exp(-40.0))
        assert g.rho.probabilities.min() == pytest.approx(want, rel=1e-12, abs=0.0)


# energy scale of the property tests: spectra span a few E0, k_B T is
# 0.5-5 E0, and shifts up to 5000 E0 put |ln Z| far past ln(DBL_MAX) = 709.8
E0 = 1e-21


# the gauge also holds at 1e284 J; shifts near 1e300 J are out of reach, as
# T = k_B T / k_B must be a double (k_B * DBL_MAX is about 2.5e285 J)
@pytest.mark.parametrize("scale", [E0, 1e284])
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 8),
    kt=st.floats(0.5, 5.0),
    shift=st.floats(-5000.0, 5000.0),
)
@example(seed=1, d=2, kt=0.5, shift=-5000.0)
@example(seed=2, d=8, kt=5.0, shift=5000.0)
def test_energy_shift_is_a_gauge(scale, seed, d, kt, shift):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d, scale=scale)
    c = shift * scale
    h_c = HermitianOperator(h.matrix + c * np.eye(d))
    T = kelvin(kt * scale)
    g, g_c = gibbs_state(h, T), gibbs_state(h_c, T)
    assert np.allclose(g_c.rho.matrix, g.rho.matrix, rtol=0.0, atol=1e-9)
    assert g_c.f_eq.magnitude == pytest.approx(g.f_eq.magnitude + c, abs=1e-9 * scale)
    beta = g.beta.magnitude
    assert g_c.log_partition_function == pytest.approx(
        g.log_partition_function - beta * c, abs=1e-9
    )
    rho = random_density(rng, d)
    assert extractable_work(rho, h_c, T).magnitude == pytest.approx(
        extractable_work(rho, h, T).magnitude, rel=1e-6, abs=1e-9 * scale
    )
    e = mean_energy(g.rho, h).magnitude
    t = solve_inverse_temperature(h, Quantity(e, ENERGY)).temperature.magnitude
    t_c = solve_inverse_temperature(h_c, Quantity(e + c, ENERGY))
    assert t_c.temperature.magnitude == pytest.approx(t, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8), kt=st.floats(0.5, 5.0))
@example(seed=3, d=8, kt=0.5)
def test_work_is_positive_except_at_equilibrium(seed, d, kt):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d, scale=E0)
    T = kelvin(kt * E0)
    assert extractable_work(random_density(rng, d), h, T).magnitude > 0.0
    w_th = extractable_work(gibbs_state(h, T).rho, h, T).magnitude
    assert w_th == pytest.approx(0.0, abs=1e-12 * E0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 8),
    kt=st.floats(0.5, 5.0),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(seed=4, d=2, kt=5.0, sign=-1.0)
def test_solve_inverse_temperature_round_trips(seed, d, kt, sign):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d, scale=E0)
    T = kelvin(sign * kt * E0)
    e = mean_energy(gibbs_state(h, T).rho, h)
    t = solve_inverse_temperature(h, e).temperature.magnitude
    assert t == pytest.approx(T.magnitude, rel=1e-9)


# log-uniform temperatures over nine decades, both signs; at T = 50 K,
# 1/(k_B*beta) reads 50.000000000000007
@settings(max_examples=200, deadline=None)
@given(t=st.floats(-3.0, 6.0).map(lambda x: 10.0**x), sign=st.sampled_from([1.0, -1.0]))
@example(t=50.0, sign=1.0)
def test_gibbs_state_echoes_its_temperature(t, sign):
    T = Quantity(sign * t, TEMPERATURE)
    assert gibbs_state(HermitianOperator(np.diag([0.0, E0])), T).temperature == T


class TestSolveInverseTemperature:
    def test_two_level_quarter_energy(self):
        e = 1.0
        g = solve_inverse_temperature(
            HermitianOperator(np.diag([0.0, e])), Quantity(e / 4.0, ENERGY)
        )
        assert K_B * g.temperature.magnitude == pytest.approx(
            KT_OVER_E_QUARTER * e, rel=1e-8
        )

    def test_above_spectrum_rejected(self):
        with pytest.raises(InputError, match="outside open spectral interval"):
            solve_inverse_temperature(
                HermitianOperator(np.diag([0.0, 1.0])), Quantity(1.5, ENERGY)
            )

    def test_at_spectrum_edge_rejected(self):
        with pytest.raises(InputError, match="outside open spectral interval"):
            solve_inverse_temperature(
                HermitianOperator(np.diag([0.0, 1.0])), Quantity(0.0, ENERGY)
            )

    def test_temperature_beyond_the_double_range_raises(self):
        # E = 1 J on a 1e307 J gap needs beta ~ 7e-305 / J: k_B*beta underflows
        with pytest.raises(NumericalUnderflow, match="k_B\\*beta"):
            solve_inverse_temperature(
                HermitianOperator(np.diag([0.0, 1e307])), Quantity(1.0, ENERGY)
            )

    def test_uniform_average_is_infinite_temperature(self):
        with pytest.raises(InputError, match="uniform-average energy"):
            solve_inverse_temperature(
                HermitianOperator(np.diag([0.0, 1.0])), Quantity(0.5, ENERGY)
            )

    def test_negative_beta_side(self):
        e = 1.0
        g = solve_inverse_temperature(
            HermitianOperator(np.diag([0.0, e])), Quantity(0.75 * e, ENERGY)
        )
        assert g.temperature.magnitude < 0.0
        assert mean_energy(g.rho, HermitianOperator(np.diag([0.0, e]))).magnitude == (
            pytest.approx(0.75, abs=1e-9)
        )

    def test_round_trip_random_four_dimensional(self):
        # kT >= 0.3 * unit scale keeps beta(E) well conditioned: deeper in
        # the Boltzmann tail the target energy's own float representation
        # error is amplified by 1/|dE/dbeta| beyond any solver's control
        rng = np.random.default_rng(17)
        for _ in range(50):
            h = random_hermitian(rng, 4)
            kt = float(rng.uniform(0.3, 5.0)) * float(rng.choice([-1.0, 1.0]))
            g = gibbs_state(h, kelvin(kt))
            target = mean_energy(g.rho, h)
            solved = solve_inverse_temperature(h, target)
            assert solved.temperature.magnitude == pytest.approx(
                g.temperature.magnitude, rel=1e-8
            )

    def test_beta_matches_capped_bisection_bit_for_bit(self):
        compared = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 65))
            scale = 10.0 ** rng.uniform(-300.0, 300.0)
            h = HermitianOperator(np.diag(np.concatenate(([0.0], rng.uniform(0.0, scale, d - 1)))))
            vals = h.eigenvalues()
            e_min, e_max, e_mean = float(vals.min()), float(vals.max()), float(vals.mean())
            spread = e_max - e_min
            for e in (e_mean - 1e-11 * spread, e_mean + 1e-11 * spread,
                      e_min + 1e-9 * spread, e_max - 1e-9 * spread):
                want = capped_bisect_beta(
                    lambda b: thermo._energy_at_beta(vals, b), e, e_mean, spread
                )
                try:
                    got = solve_inverse_temperature(h, Quantity(e, ENERGY)).beta.magnitude
                except NumericalUnderflow:
                    # on spreads past about 1e285 J, k_B*beta underflows for either
                    # beta; near 1e-300 J, f_eq can be subnormal
                    assert (abs(K_B * want) < sys.float_info.min
                            or f_eq_is_subnormal(vals, want)), (seed, e)
                    continue
                assert not f_eq_is_subnormal(vals, want), (seed, e)
                assert got.hex() == want.hex(), (seed, e)
                compared += 1
        assert compared > 700


class TestFreeEnergyAndWork:
    def test_pure_ground_state_has_zero_free_energy(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        f = nonequilibrium_free_energy(rho, h, kelvin(2.0))
        assert f.magnitude == pytest.approx(0.0, abs=1e-12)

    def test_mixed_state_closed_form(self):
        e = 1.0
        h = HermitianOperator(np.diag([0.0, e]))
        f = nonequilibrium_free_energy(DensityMatrix(np.eye(2) / 2), h, kelvin(e))
        assert f.magnitude == pytest.approx(F_MIXED_OVER_E * e, rel=1e-12)

    def test_equilibrium_state_recovers_f_eq(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            h = random_hermitian(rng, 4)
            g = gibbs_state(h, kelvin(float(rng.uniform(0.2, 2.0))))
            f = nonequilibrium_free_energy(g.rho, h, g.temperature)
            assert f.magnitude == pytest.approx(g.f_eq.magnitude, rel=1e-9, abs=1e-12)

    def test_work_of_thermal_state_is_zero(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        g = gibbs_state(h, kelvin(0.7))
        w = extractable_work(g.rho, h, g.temperature)
        assert abs(w.magnitude) <= 1e-9

    def test_ground_state_work_closed_form(self):
        e = 1.0
        h = HermitianOperator(np.diag([0.0, e]))
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        w = extractable_work(rho, h, kelvin(e))
        assert w.magnitude == pytest.approx(W_GROUND_OVER_E * e, rel=1e-9)

    def test_dual_formula_and_positivity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            h = random_hermitian(rng, d)
            rho = random_density(rng, d)
            t = kelvin(float(rng.uniform(0.1, 3.0)))
            w = extractable_work(rho, h, t).magnitude
            f = nonequilibrium_free_energy(rho, h, t).magnitude
            f_eq = gibbs_state(h, t).f_eq.magnitude
            assert w >= -1e-12
            assert w == pytest.approx(f - f_eq, rel=1e-9, abs=1e-12)

    def test_zero_and_negative_temperature_rejected(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(InputError, match="extractable work needs T > 0"):
            extractable_work(rho, h, Quantity(0.0, TEMPERATURE))
        with pytest.raises(Exception):
            extractable_work(rho, h, Quantity(-1.0, TEMPERATURE))

    def test_free_energy_at_zero_temperature_rejected(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(InputError, match="free energy needs T != 0"):
            nonequilibrium_free_energy(rho, h, Quantity(0.0, TEMPERATURE))
