"""Bit-flip dynamics: the minimum-time flip, unitarity, energy spread."""

import math

import numpy as np
import pytest

from _random_states import random_density, random_hermitian
from physcomp.errors import InputError
from physcomp.qthermo import (
    DensityMatrix,
    HermitianOperator,
    StateVector,
    energy_spread,
    evolve,
)
from physcomp.units import CONSTANTS, TIME, Quantity

HBAR = CONSTANTS.hbar.magnitude


def flip_probability(H, t_seconds: float) -> float:
    psi = evolve(H, Quantity(t_seconds, TIME), StateVector(np.eye(2)[0]))
    return float(abs(psi.amplitudes[1]) ** 2)


class TestBitflipHamiltonian:
    def test_eigenvalues_are_plus_minus_e(self):
        e = 2.5
        h = HermitianOperator([[0.0, -e], [-e, 0.0]])
        assert h.eigenvalues() == pytest.approx([-e, e])

    def test_mean_energy_above_ground_is_e(self):
        # <0|H|0> = 0, ground energy -E, so the drive sits E above ground
        e = 1.0
        h = HermitianOperator([[0.0, -e], [-e, 0.0]])
        rho0 = DensityMatrix(np.diag([1.0, 0.0]))
        mean = float(np.trace(rho0.matrix @ h.matrix).real)
        assert mean == pytest.approx(0.0, abs=1e-15)
        assert mean - h.eigenvalues()[0] == pytest.approx(e, rel=1e-12)


class TestEvolve:
    def test_half_period_flips_the_bit(self):
        e = 1.0
        h = HermitianOperator([[0.0, -e], [-e, 0.0]])
        assert flip_probability(h, math.pi * HBAR / (2 * e)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_zero_time_is_identity(self):
        h = HermitianOperator([[0.0, -1.0], [-1.0, 0.0]])
        psi = evolve(h, Quantity(0.0, TIME), StateVector(np.eye(2)[0]))
        assert psi.amplitudes[0] == pytest.approx(1.0)
        assert psi.amplitudes[1] == pytest.approx(0.0)

    def test_quarter_period_is_half_probability(self):
        e = 1.0
        h = HermitianOperator([[0.0, -e], [-e, 0.0]])
        assert flip_probability(h, math.pi * HBAR / (4 * e)) == pytest.approx(
            0.5, rel=1e-10
        )

    def test_negative_time_rejected(self):
        h = HermitianOperator([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InputError, match="evolution time must be >= 0"):
            evolve(h, Quantity(-1.0, TIME), StateVector(np.eye(2)[0]))

    def test_unitarity_preserves_norm_and_overlaps(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            h = random_hermitian(rng, d, scale=1e-20)
            a = rng.normal(size=d) + 1j * rng.normal(size=d)
            b = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi_a = StateVector(a / np.linalg.norm(a))
            psi_b = StateVector(b / np.linalg.norm(b))
            t = Quantity(float(rng.uniform(0.0, 1e-13)), TIME)
            ua, ub = evolve(h, t, psi_a), evolve(h, t, psi_b)
            assert np.linalg.norm(ua.amplitudes) == pytest.approx(1.0, abs=1e-9)
            assert np.vdot(ua.amplitudes, ub.amplitudes) == pytest.approx(
                np.vdot(psi_a.amplitudes, psi_b.amplitudes), abs=1e-9)

    def test_first_complete_flip_time_is_the_bound(self):
        # scan then ternary-refine the first maximum of the flip probability;
        # it must land on pi hbar / (2E) within 1e-6 relative
        e = 3.7
        h = HermitianOperator([[0.0, -e], [-e, 0.0]])
        t_star = math.pi * HBAR / (2 * e)
        grid = np.linspace(0.0, 1.2 * t_star, 600)
        probs = [flip_probability(h, t) for t in grid]
        k = int(np.argmax(probs))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        for _ in range(120):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if flip_probability(h, m1) < flip_probability(h, m2):
                lo = m1
            else:
                hi = m2
        t_found = 0.5 * (lo + hi)
        assert t_found == pytest.approx(t_star, rel=1e-6)
        assert flip_probability(h, t_found) == pytest.approx(1.0, abs=1e-10)


class TestEnergySpread:
    def test_bitflip_spread_equals_drive_energy(self):
        e = 1.0
        h = HermitianOperator([[0.0, -e], [-e, 0.0]])
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert energy_spread(rho, h).magnitude == pytest.approx(e, abs=1e-10)

    def test_eigenstate_has_zero_spread(self):
        h = HermitianOperator(np.diag([0.0, 2.0, 5.0]))
        rho = DensityMatrix(np.diag([0.0, 1.0, 0.0]))
        assert energy_spread(rho, h).magnitude == pytest.approx(0.0, abs=1e-12)

    def test_mixed_two_level(self):
        e = 2.0
        h = HermitianOperator(np.diag([0.0, e]))
        spread = energy_spread(DensityMatrix(np.eye(2) / 2), h)
        assert spread.magnitude == pytest.approx(e / 2.0, rel=1e-12)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            s = energy_spread(random_density(rng, d), random_hermitian(rng, d))
            assert s.magnitude >= 0.0

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_matches_eigenbasis_and_scales_exactly_by_powers_of_two(self, k):
        # the spread is taken in units of a power of two, so H * 2^k gives
        # the spread * 2^k to the bit, far past where tr(rho H^2) is a double
        rng = np.random.default_rng(37)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            rho, h = random_density(rng, d), random_hermitian(rng, d)
            vals, vecs = np.linalg.eigh(h.matrix)
            pops = np.einsum("ik,ij,jk->k", vecs.conj(), rho.matrix, vecs).real
            mean = pops @ vals
            want = math.sqrt(pops @ (vals - mean) ** 2)
            base = energy_spread(rho, h).magnitude
            assert base == pytest.approx(want, rel=1e-10)
            scaled = energy_spread(rho, HermitianOperator(h.matrix * 2.0**k))
            assert scaled.magnitude == math.ldexp(base, k)
