"""Entropies, Gibbs states, free energy, and extractable work.

All routines work through the spectral decomposition of the Hamiltonian;
exponentials are shifted by the dominant eigenvalue so the Boltzmann
weights never overflow, and ln Z is kept instead of Z, so moving the
energy zero changes no state, work or temperature.
"""

from __future__ import annotations

import math

import numpy as np

from .. import units
from ..errors import InputError, NumericalError
from ..units import (
    ENERGY,
    INFORMATION,
    LN2,
    TEMPERATURE,
    DimensionMismatch,
    Dimension,
    Quantity,
    in_range,
    require,
)
from .states import DensityMatrix, GibbsState, HermitianOperator, real_inner

_INV_ENERGY = Dimension() / ENERGY

ENERGY_MATCH_RTOL = 1e-10  # relative to the spectral range
BETA_ZERO_RTOL = 1e-12


def _entropy(rho: DensityMatrix) -> float:
    """S = -sum(p ln p) in nats over the state's spectrum, with 0 ln 0 = 0."""
    p = rho.probabilities
    nz = p[p > 0.0]
    # 0.0 first: max() keeps its first argument on a tie, and a pure state
    # sums to -0.0
    return min(max(0.0, float(-(nz * np.log(nz)).sum())), math.log(rho.dim))


def von_neumann_entropy(rho: DensityMatrix, unit: str = "bits") -> Quantity:
    """S(rho), stored in bits and displayed in ``unit`` ("bits" or "nats")."""
    label = {"bits": "bit", "nats": "nat"}.get(unit)
    if label is None:
        raise DimensionMismatch(f"unknown entropy unit {unit!r}")
    return Quantity(_entropy(rho) / LN2, INFORMATION, label)


def mean_energy(rho: DensityMatrix, H: HermitianOperator) -> Quantity:
    H.check_acts_on(rho)
    return Quantity(real_inner(rho.matrix, H.matrix), ENERGY, "J")


def _boltzmann_weights(vals: np.ndarray, beta: float):
    """Populations exp(-beta(vals - ref)) / z, shifted by the dominant level
    ref so no weight overflows; returns (probs, ref, ln z).

    ln Z = -beta ref + ln z.
    """
    ref = vals.min() if beta >= 0.0 else vals.max()
    w = np.exp(-beta * (vals - ref))
    total = w.sum()
    return w / total, ref, math.log(total)


def _gibbs_from_beta(H: HermitianOperator, beta: float) -> GibbsState:
    probs, ref, log_z_shifted = _boltzmann_weights(H.eigenvalues(), beta)
    log_z = float(-beta * ref + log_z_shifted)
    # diagonal in H's eigenbasis: its matrix needs eigenvectors only if read
    rho = DensityMatrix.from_spectrum(probs, H)
    # T = 1/(k_B*beta) leaves the double range where k_B*beta does
    temperature = 1.0 / in_range(units.CONSTANTS.k_B.magnitude * beta, "k_B*beta", beta=beta)
    # + 0.0: ln Z = 0 would give -0.0
    f_eq = -log_z / beta + 0.0
    return GibbsState(
        rho=rho,
        temperature=Quantity(temperature, TEMPERATURE, "K"),
        beta=Quantity(beta, _INV_ENERGY),
        f_eq=Quantity(f_eq, ENERGY, "J"),
        log_partition_function=log_z,
    )


def gibbs_state(H: HermitianOperator, T: Quantity) -> GibbsState:
    """Thermal state exp(-H/(k_B T)) / Z at temperature T (nonzero, signed)."""
    t = require(T, TEMPERATURE, "temperature")
    if t == 0.0:
        raise InputError("Gibbs state undefined at T = 0")
    return _gibbs_from_beta(H, 1.0 / in_range(units.CONSTANTS.k_B.magnitude * t, "k_B*T", T=t))


def _energy_at_beta(vals: np.ndarray, beta: float) -> float:
    probs, _, _ = _boltzmann_weights(vals, beta)
    return float((probs * vals).sum())


def solve_inverse_temperature(
    H: HermitianOperator, E_target: Quantity
) -> GibbsState:
    """Find the Gibbs state whose mean energy equals ``E_target``.

    Mean energy is strictly decreasing in beta, so a sign-free bisection on
    beta converges for any target strictly inside the spectral range. A
    target at the uniform average tr H / d corresponds to beta = 0 and
    raises :class:`InputError`.
    """
    e = require(E_target, ENERGY, "target energy")
    vals = H.eigenvalues()
    e_min, e_max = float(vals.min()), float(vals.max())
    spread = e_max - e_min
    if not (e_min < e < e_max):
        raise InputError(
            f"target {e!r} J outside open spectral interval ({e_min!r}, {e_max!r})"
        )
    e_mean = float(vals.mean())
    if abs(e - e_mean) <= BETA_ZERO_RTOL * spread:
        raise InputError(
            "target equals the uniform-average energy: beta = 0 has no finite T"
        )

    # bracket: energy(0) = e_mean; expand towards the correct sign of beta
    sign = 1.0 if e < e_mean else -1.0
    beta = sign / spread
    while sign * _energy_at_beta(vals, beta) > sign * e:
        beta *= 2.0
    b_lo, b_hi = sorted((0.0, beta))

    # bisect beta all the way to float resolution, then check the energy:
    # stopping at the energy tolerance alone would leave beta (hence the
    # reported temperature) orders of magnitude less converged
    for _ in range(200):
        beta = 0.5 * (b_lo + b_hi)
        if beta <= b_lo or beta >= b_hi:
            break
        if _energy_at_beta(vals, beta) > e:
            b_lo = beta
        else:
            b_hi = beta
    beta = 0.5 * (b_lo + b_hi)
    if abs(_energy_at_beta(vals, beta) - e) <= ENERGY_MATCH_RTOL * spread:
        return _gibbs_from_beta(H, beta)
    raise NumericalError("inverse-temperature bisection did not converge")


def nonequilibrium_free_energy(
    rho: DensityMatrix, H: HermitianOperator, T: Quantity
) -> Quantity:
    """F(rho) = tr(rho H) - T k_B S(rho), in joules."""
    t = require(T, TEMPERATURE, "temperature")
    if t == 0.0:
        raise InputError("free energy needs T != 0")
    e = mean_energy(rho, H).magnitude
    k_b = units.CONSTANTS.k_B.magnitude
    return Quantity(e - t * k_b * _entropy(rho), ENERGY, "J")


def extractable_work(
    rho: DensityMatrix, H: HermitianOperator, T: Quantity
) -> Quantity:
    """W = F(rho) - F_eq = k_B T D(rho || rho_th), the work recoverable
    against a bath at T.

    Both free energies are measured from the ground level E_0:
    W = (tr(rho H) - E_0) - k_B T (S(rho) - ln sum_k exp(-(E_k - E_0)/(k_B T))),
    so no thermal log-weight is formed and W is a result wherever it is a
    double, even where D is not.
    """
    t = require(T, TEMPERATURE, "temperature")
    if t <= 0.0:
        raise InputError("extractable work needs T > 0")
    H.check_acts_on(rho)
    kt = in_range(units.CONSTANTS.k_B.magnitude * t, "k_B*T", T=t)
    _, e_0, log_z_shifted = _boltzmann_weights(H.eigenvalues(), 1.0 / kt)
    e = mean_energy(rho, H).magnitude
    w = float((e - e_0) - kt * (_entropy(rho) - log_z_shifted))
    # of the range rule only overflow applies: W = 0 at rho = rho_th
    if not math.isfinite(w):
        in_range(w, "k_B*T*D(rho||rho_th)", T=t, E=e, E_0=float(e_0))
    return Quantity(w, ENERGY, "J")


def extractable_pure_bits(
    n: int, s_per_dof: Quantity, s_max_per_dof: Quantity
) -> Quantity:
    """Asymptotic pure-bit yield n (S_max - S) for n degrees of freedom.

    Returned as a real-valued count of bits; flooring is the caller's call.
    """
    s = require(s_per_dof, INFORMATION, "entropy per dof")
    s_max = require(s_max_per_dof, INFORMATION, "max entropy per dof")
    if n < 0:
        raise InputError("degree-of-freedom count must be >= 0")
    if not (0.0 <= s <= s_max):
        raise InputError(
            f"entropy per dof must satisfy 0 <= S <= S_max, got {s!r}, {s_max!r}"
        )
    return Quantity(n * (s_max - s), INFORMATION, "bit")
