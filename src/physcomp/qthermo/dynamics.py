"""Unitary dynamics: time evolution of a pure state, and energy spread.

The spread Delta E bounds how fast a state can move: reaching an orthogonal
state takes at least pi hbar / (2 Delta E) (Mandelstam-Tamm).
"""

from __future__ import annotations

import math

import numpy as np

from .. import units
from ..errors import InputError
from ..units import ENERGY, TIME, Quantity, in_range, require
from .states import DensityMatrix, HermitianOperator, StateVector, real_inner


def evolve(H: HermitianOperator, t: Quantity, psi: StateVector) -> StateVector:
    """Apply exp(-i H t / hbar) to a pure state via spectral decomposition."""
    dt = require(t, TIME, "evolution time")
    if dt < 0.0:
        raise InputError("evolution time must be >= 0")
    H.check_acts_on(psi)
    vals, vecs = H.eigensystem()
    angles = vals * (dt / units.CONSTANTS.hbar.magnitude)
    top = float(np.abs(angles).max())
    # exp(-i*inf) is nan; a tiny angle is exact
    if not math.isfinite(top):
        in_range(top, "E*t/hbar", max_abs_E=float(np.abs(vals).max()), t=dt)
    phases = np.exp(-1j * angles)
    amp = vecs @ (phases * (vecs.conj().T @ psi.amplitudes))
    return StateVector(amp)


def energy_spread(rho: DensityMatrix, H: HermitianOperator) -> Quantity:
    """Standard deviation of energy, sqrt(tr rho (H - <H>)^2)."""
    H.check_acts_on(rho)
    # in units of 2^(e-1) <= max|H| (2^e overflows near 1e308), so H^2 stays
    # a double wherever the spread is one
    top = float(np.abs(H.matrix).max())
    scale = math.ldexp(1.0, max(math.frexp(top)[1] - 1, -1022))
    g = H.matrix / scale
    c = g - real_inner(rho.matrix, g) * np.eye(H.dim)
    var = max(real_inner(c, rho.matrix @ c), 0.0)
    spread = math.sqrt(var) * scale
    return Quantity(in_range(spread, "sqrt(<H^2>-<H>^2)", variance=var * scale * scale), ENERGY)
