"""The physical complexity measures and their error-correction accounting.

Temporal complexity counts the bit flips energy E can drive in time t,
2Et/(pi hbar). Spatial complexity is negentropy, S_max - S, in bits. Free
complexity is the free energy a computation consumes, convertible to an
op count through the same energy-time bound. Error correction at rate eps
per op consumes h(eps) fresh bits per op, which ties space to time.

User-facing entropies are in bits throughout; internal math is in nats.
"""

from __future__ import annotations

import math

from . import units
from .errors import InputError
from .units import ENERGY, INFORMATION, LN2, TEMPERATURE, TIME, Quantity, in_range, require


def phi_time(E: Quantity, t: Quantity) -> float:
    """Temporal complexity 2Et/(pi hbar): the op-count budget of E over t."""
    e = require(E, ENERGY, "energy")
    dt = require(t, TIME, "time")
    if e < 0.0 or dt < 0.0:
        raise InputError("phi_time needs E >= 0 and t >= 0")
    # mantissas in [1/2, 1) first, exponents added back last: E*t alone can
    # overflow, or lose bits as a subnormal, where the op count is normal
    (me, xe), (mt, xt) = math.frexp(e), math.frexp(dt)
    try:
        ops = math.ldexp(2.0 * (me * mt) / (math.pi * units.CONSTANTS.hbar.magnitude), xe + xt)
    except OverflowError:  # ldexp raises where * would give inf
        ops = math.inf
    return in_range(ops, "op count 2*E*t/(pi*hbar)", E=e, t=dt)


def ml_min_time(E: Quantity) -> Quantity:
    """Minimum time pi hbar / (2E) for one orthogonal state change."""
    e = require(E, ENERGY, "energy")
    if e <= 0.0:
        raise InputError("minimum flip time needs E > 0")
    t = math.pi * units.CONSTANTS.hbar.magnitude / (2.0 * e)
    return Quantity(in_range(t, "flip time pi*hbar/(2*E)", E=e), TIME)


def phi_space(s_max: Quantity, s: Quantity) -> Quantity:
    """Negentropy S_max - S: the bits of memory a system can supply."""
    hi = require(s_max, INFORMATION, "maximum entropy")
    lo = require(s, INFORMATION, "entropy")
    if not (0.0 <= lo <= hi):
        raise InputError(f"need 0 <= S <= S_max, got S={lo!r}, S_max={hi!r}")
    return Quantity(hi - lo, INFORMATION)


def landauer_cost(T: Quantity, n_bits: float) -> Quantity:
    """Free energy n k_B T ln 2 dissipated by erasing n bits at temperature T."""
    t = require(T, TEMPERATURE, "temperature")
    if t <= 0.0:
        raise InputError("Landauer cost needs T > 0")
    if n_bits < 0:
        raise InputError("bit count must be >= 0")
    cost = n_bits * units.CONSTANTS.k_B.magnitude * t * LN2
    return Quantity(in_range(cost, "n*k_B*T*ln2", n=n_bits, T=t), ENERGY)


def binary_entropy(eps: float) -> Quantity:
    """h(eps) = -eps log2 eps - (1-eps) log2 (1-eps), in bits."""
    if not (0.0 <= eps <= 1.0):
        raise InputError(f"probability must be in [0, 1], got {eps!r}")
    h = 0.0
    for p in (eps, 1.0 - eps):
        if p > 0.0:
            h -= p * math.log2(p)
    return Quantity(h, INFORMATION)


def error_correction_space(t_ops: float, eps: float, mode: str = "exact") -> Quantity:
    """Fresh ancilla bits consumed correcting ``t_ops`` steps at error rate eps.

    Exact mode charges the full injected entropy h(eps) per op; asymptotic
    mode charges the leading term eps log2(1/eps). Exact >= asymptotic on
    (0, 1/2).
    """
    if t_ops < 0:
        raise InputError("op count must be >= 0")
    if not (0.0 <= eps <= 0.5):
        raise InputError(f"error rate must be in [0, 1/2], got {eps!r}")
    if mode == "exact":
        per_op = binary_entropy(eps).magnitude
    elif mode == "asymptotic":
        per_op = -eps * math.log2(eps) if eps > 0.0 else 0.0  # 1/eps is inf below ~5.6e-309
    else:
        raise InputError(f"unknown mode {mode!r}")
    bits = in_range(t_ops * per_op, "t*h(eps)", t=t_ops, eps=eps, mode=mode)
    return Quantity(bits, INFORMATION)


def free_phi(delta_F: Quantity) -> Quantity:
    """Free complexity: the free energy consumed, identity in joules."""
    df = require(delta_F, ENERGY, "free energy")
    if df < 0.0:
        raise InputError("consumed free energy must be >= 0")
    return Quantity(df, ENERGY)


def free_phi_op_equivalent(delta_F: Quantity, t: Quantity) -> float:
    """Op count 2 F t / (pi hbar) the consumed free energy could have driven."""
    return phi_time(free_phi(delta_F), t)
