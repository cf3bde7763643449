"""Closed-form black hole computer model: geometry, thermodynamics, budgets.

A hole of mass M stores 4 pi (M/m_P)^2 nats behind a horizon of radius
2GM/c^2, runs at 2Mc^2/(pi hbar) ops per second, and evaporates in
5120 pi G^2 M^3 / (hbar c^4) seconds. Exactly half its rest energy is free
energy; each of its bits flips in pi^2 R / c, the same time light needs to
cross the hole, which is what makes it the ultimate serial computer.

The evaporation trajectory M(t) = M0 (1 - t/t_M)^(1/3) is the unique
solution of the constant-flux law dM/dt = -hbar c^4 / (15360 pi G^2 M^2)
with the quoted total lifetime; it is a model choice, not a quoted result.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence

from . import units
from .errors import InputError
from .measures import binary_entropy
from .units import (
    ENERGY,
    FREQUENCY,
    LENGTH,
    LN2,
    MASS,
    TEMPERATURE,
    TIME,
    Quantity,
    in_range,
    require,
)

PAGE_FRACTION = 1.0 - 2.0 ** (-1.5)  # entropy-crossover time / lifetime

# halvings of the bracket (0, 1/2) that leave hi = 2^-1074, the least double
_MAX_HALVINGS = 1073


class BlackHoleReport(
    namedtuple(
        "BlackHoleReport",
        "mass radius temperature entropy_nats entropy_bits lifetime lifetime_years"
        " ops_per_second total_ops bit_flip_time free_energy page_time_paper"
        " page_time_entropy max_error_rate",
    )
):
    """Every closed-form property of a black hole of mass M.

    Quantities: mass (kg), radius (m), temperature (K), lifetime (s),
    ops_per_second (1/s), bit_flip_time (s), free_energy (J),
    page_time_paper (s, half the lifetime) and page_time_entropy (s, the
    radiation-entropy crossover). The rest are floats.
    """

    __slots__ = ()


class TimelineSample(
    namedtuple(
        "TimelineSample", "t_seconds mass_kg hole_entropy_bits radiation_entropy_bits"
    )
):
    """One point on the evaporation timeline, in canonical units."""

    __slots__ = ()

    @property
    def t(self) -> Quantity:
        return Quantity(self.t_seconds, TIME)

    @property
    def mass(self) -> Quantity:
        return Quantity(self.mass_kg, MASS)


def _mass_kg(M: Quantity) -> float:
    m = require(M, MASS, "black hole mass")
    if m <= 0.0:
        raise InputError(f"mass must be positive, got {M}")
    return m


def _entropy_nats(m: float, m_p: float) -> float:
    try:
        return 4.0 * math.pi * (m / m_p) ** 2
    except OverflowError:  # float ** raises where * would give inf
        return math.inf


def _lifetime_s(m: float) -> float:
    k = units.CONSTANTS
    g, hbar, c = k.G.magnitude, k.hbar.magnitude, k.c.magnitude
    try:
        t_m = 5120.0 * math.pi * g**2 * m**3 / (hbar * c**4)
    except ArithmeticError:  # overflow, or hbar*c^4 underflowing to 0
        t_m = math.inf
    if not sys.float_info.min <= t_m < math.inf:
        # a product left the double range, maybe not t_M: mantissas first,
        # exponents last, as in measures.phi_time (only here: it can move a last bit)
        (mg, xg), (mm, xm), (mh, xh), (mc, xc) = map(math.frexp, (g, m, hbar, c))
        x = 2 * xg + 3 * xm - xh - 4 * xc
        try:
            t_m = math.ldexp(5120.0 * math.pi * mg**2 * mm**3 / (mh * mc**4), x)
        except OverflowError:  # ldexp raises where * would give inf
            t_m = math.inf
    # below ~6.4e-98 kg the lifetime is subnormal, down to one significant
    # bit, and below ~3.3e-103 kg it is 0, which M(t) would divide by
    return in_range(t_m, "lifetime 5120*pi*G^2*M^3/(hbar*c^4)", M=m)


def _mass_left(m0: float, t: float, t_m: float) -> float:
    return m0 * (1.0 - t / t_m) ** (1.0 / 3.0)


def schwarzschild_radius(M: Quantity) -> Quantity:
    k = units.CONSTANTS
    g, c = k.G.magnitude, k.c.magnitude
    m = _mass_kg(M)
    return Quantity(in_range(2.0 * g * m / c**2, "radius 2*G*M/c^2", M=m), LENGTH)


def entropy_nats(M: Quantity) -> float:
    m = _mass_kg(M)
    s = _entropy_nats(m, units.CONSTANTS.planck_mass.magnitude)
    return in_range(s, "entropy 4*pi*(M/m_P)^2", M=m)


def hawking_temperature(M: Quantity) -> Quantity:
    m = _mass_kg(M)
    k = units.CONSTANTS
    m_p, c, k_b = k.planck_mass.magnitude, k.c.magnitude, k.k_B.magnitude
    temp = m_p**2 * c**2 / (8.0 * math.pi * m) / k_b
    return Quantity(in_range(temp, "temperature m_P^2*c^2/(8*pi*M*k_B)", M=m), TEMPERATURE)


def lifetime(M: Quantity) -> Quantity:
    return Quantity(_lifetime_s(_mass_kg(M)), TIME)


def ops_per_second(M: Quantity) -> Quantity:
    m = _mass_kg(M)
    k = units.CONSTANTS
    c, hbar = k.c.magnitude, k.hbar.magnitude
    rate = 2.0 * m * c**2 / (math.pi * hbar)
    return Quantity(in_range(rate, "ops per second 2*M*c^2/(pi*hbar)", M=m), FREQUENCY)


def total_ops(M: Quantity) -> float:
    ops = ops_per_second(M).magnitude * lifetime(M).magnitude
    # above ~2.5e68 kg the count overflows though the lifetime is finite;
    # below ~2.64e-86 kg it is subnormal, and below ~2.7e-90 kg it is 0
    return in_range(ops, "total op count ops_per_second*t_M", M=M.magnitude)


def bit_flip_time(M: Quantity) -> Quantity:
    r = schwarzschild_radius(M).magnitude
    t = math.pi**2 * r / units.CONSTANTS.c.magnitude
    return Quantity(in_range(t, "bit flip time pi^2*R/c", M=M.magnitude), TIME)


def free_energy(M: Quantity) -> Quantity:
    m = _mass_kg(M)
    f = m * units.CONSTANTS.c.magnitude**2 / 2.0
    return Quantity(in_range(f, "free energy M*c^2/2", M=m), ENERGY)


def _forced_halvings(target: float) -> int:
    """Estimated count of opening bisection steps that only halve hi.

    h(eps) > eps log2(1/eps), so the root lies below target / log2(1/target)
    and a hi of 2^-k / 2 at or above that estimate is still above the root.
    """
    if not target > 0.0:  # zero or nan: no mid is ever below the target
        return _MAX_HALVINGS
    log2_t = math.log2(target)
    log2_est = log2_t - math.log2(-log2_t)
    return min(max(math.floor(-1.0 - log2_est), 0), _MAX_HALVINGS)


def solve_error_rate(ops: float, capacity_bits: float) -> float:
    """The eps in (0, 1/2) with h(eps) * ops = capacity, by bisection.

    Returns 1/2 when the capacity covers the full entropy production even
    at maximal error rate (the bound is vacuous).
    """
    if ops <= 0.0 or capacity_bits <= 0.0:
        raise InputError("op count and capacity must be positive")
    target = capacity_bits / ops  # bits of entropy affordable per op
    if target >= 1.0:
        return 0.5
    # bisect to float resolution: heavy holes sit at eps ~ 1e-13 and below,
    # where the nominal 1e-12 absolute tolerance would be the whole answer.
    # While lo == 0 each step only halves hi, so start from the state after
    # k such steps, (0, 2^-k / 2), once h there confirms it is still above
    # the root; bisect_root then visits the states the full bisection would.
    k = _forced_halvings(target)
    while k > 0 and binary_entropy(math.ldexp(0.5, -k)).magnitude < target:
        k -= 1
    return units.bisect_root(
        lambda x: binary_entropy(x).magnitude < target, 0.0, math.ldexp(0.5, -k)
    )


def max_error_rate(M: Quantity) -> float:
    """Largest per-op error rate whose correction entropy fits the hole.

    Solves h(eps) * total_ops = S_bits. For holes at or below the Planck
    mass the budget never binds and the vacuous 1/2 is returned.
    """
    m = _mass_kg(M)
    s_bits = entropy_nats(M) / LN2
    if m <= units.CONSTANTS.planck_mass.magnitude:
        return 0.5
    return solve_error_rate(total_ops(M), s_bits)


def characterize(M: Quantity) -> BlackHoleReport:
    """All closed-form properties of a hole of mass M."""
    s_nats = entropy_nats(M)
    t_m = lifetime(M)
    year = units.CONSTANTS.seconds_per_year.magnitude
    return BlackHoleReport(
        mass=M,
        radius=schwarzschild_radius(M),
        temperature=hawking_temperature(M),
        entropy_nats=s_nats,
        entropy_bits=s_nats / LN2,
        lifetime=t_m,
        lifetime_years=t_m.magnitude / year,
        ops_per_second=ops_per_second(M),
        total_ops=total_ops(M),
        bit_flip_time=bit_flip_time(M),
        free_energy=free_energy(M),
        page_time_paper=Quantity(t_m.magnitude / 2.0, TIME),
        page_time_entropy=Quantity(PAGE_FRACTION * t_m.magnitude, TIME),
        max_error_rate=max_error_rate(M),
    )


def page_curve(M0: Quantity, n_samples: int) -> list[TimelineSample]:
    """Evaporation timeline on a uniform grid over [0, t_M].

    The radiation entropy follows the standard crossover model
    min(S(M0) - S(M(t)), S(M(t))): it rises while the hole dominates, falls
    once the hole does, and vanishes at both endpoints.
    """
    m0 = _mass_kg(M0)
    if n_samples < 2:
        raise InputError("need at least 2 samples")
    t_m = _lifetime_s(m0)
    m_p = units.CONSTANTS.planck_mass.magnitude
    s0_bits = entropy_nats(M0) / LN2
    last = n_samples - 1
    out = []
    for i in range(n_samples):
        # pin the endpoint: t_m * i / (n-1) can land one ulp past t_m
        t = t_m if i == last else t_m * i / last
        m = _mass_left(m0, t, t_m)
        s_bits = _entropy_nats(m, m_p) / LN2 if m > 0.0 else 0.0
        out.append(TimelineSample(t, m, s_bits, min(s0_bits - s_bits, s_bits)))
    return out


TIMELINE_CSV_HEADER = "t_seconds,mass_kg,hole_entropy_bits,radiation_entropy_bits"


def timeline_csv_lines(samples: Sequence[TimelineSample]) -> Iterable[str]:
    """Render timeline samples as CSV rows at full double precision."""
    yield TIMELINE_CSV_HEADER
    yield from map("%.17g,%.17g,%.17g,%.17g".__mod__, samples)

