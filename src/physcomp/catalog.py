"""Reference computing systems and how far each sits from the Landauer limit.

The built-in entries are deliberately order-of-magnitude figures: a 5 nm
transistor burns about 1e-16 J per irreversible op, a covalent-bond bio-op
costs about one electron volt, and a resting human runs roughly 100 W of
molecular information processing. Comparisons against k_B T ln 2 quantify
the gap to the thermodynamic floor.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import units
from .errors import InputError
from .units import (
    CAPACITANCE,
    ENERGY,
    FREQUENCY,
    LN2,
    POWER,
    TEMPERATURE,
    VOLTAGE,
    Quantity,
    in_range,
    require,
)

COVALENT_BOND_J = 1.6e-19  # ~ one electron volt
ROOM_TEMPERATURE_K = 300.0


class ReferenceSystem(
    namedtuple(
        "ReferenceSystem",
        "name energy_per_op power op_rate provenance",
        defaults=(None, None, ""),
    )
):
    """A named computing system with its per-op energy scale.

    ``energy_per_op`` is in J, ``power`` (or None) in W, and ``op_rate`` (or
    None) in 1/s, for entries quoted as a rate.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if require(self.energy_per_op, ENERGY, f"{self.name}: energy per op") <= 0.0:
            raise InputError(f"{self.name}: energy per op must be positive")
        return self


def builtin_systems() -> tuple[ReferenceSystem, ...]:
    """The built-in reference systems, each tagged with where its number is from."""
    landauer_300 = units.CONSTANTS.k_B.magnitude * ROOM_TEMPERATURE_K * LN2
    return (
        ReferenceSystem(
            name="5nm-transistor",
            energy_per_op=Quantity(1e-16, ENERGY),
            provenance="dissipation per irreversible logical operation",
        ),
        ReferenceSystem(
            name="covalent-bio-op",
            energy_per_op=Quantity(COVALENT_BOND_J, ENERGY),
            provenance="covalent bond free energy scale",
        ),
        ReferenceSystem(
            name="hydrogen-bond",
            energy_per_op=Quantity(COVALENT_BOND_J / 10.0, ENERGY),
            provenance="hydrogen bonds, an order of magnitude lower",
        ),
        ReferenceSystem(
            name="van-der-waals",
            # two decades below covalent; the source says only "lower still"
            energy_per_op=Quantity(COVALENT_BOND_J / 100.0, ENERGY),
            provenance="van der Waals bonds, lower still",
        ),
        ReferenceSystem(
            name="human-metabolism",
            energy_per_op=Quantity(COVALENT_BOND_J, ENERGY),
            power=Quantity(100.0, POWER),
            provenance="individual human power budget",
        ),
        ReferenceSystem(
            name="world-compute",
            energy_per_op=Quantity(1e-16, ENERGY),
            # one zetaflop, flops counted as logical ops as the source does
            op_rate=Quantity(1e21, FREQUENCY),
            provenance="all electronic computers combined",
        ),
        ReferenceSystem(
            name="landauer-300K",
            energy_per_op=Quantity(landauer_300, ENERGY),
            provenance="Landauer limit",
        ),
    )


def get_system(name: str) -> ReferenceSystem:
    for sys_ in builtin_systems():
        if sys_.name == name:
            return sys_
    known = ", ".join(s.name for s in builtin_systems())
    raise InputError(f"unknown reference system {name!r}; known: {known}")


def inefficiency_factor(sys_: ReferenceSystem, T: Quantity) -> float:
    """Energy per op over k_B T ln 2: how far above the Landauer floor."""
    t = require(T, TEMPERATURE, "temperature")
    if t <= 0.0:
        raise InputError("inefficiency factor needs T > 0")
    # a subnormal floor has lost significant bits, and so has the quotient
    floor = in_range(units.CONSTANTS.k_B.magnitude * t * LN2, "k_B*T*ln2", T=t)
    return sys_.energy_per_op.magnitude / floor


def op_rate(power: Quantity, energy_per_op: Quantity) -> Quantity:
    """Operations per second sustainable at ``power`` given the per-op cost."""
    p = require(power, POWER, "power")
    e = require(energy_per_op, ENERGY, "energy per op")
    if p < 0.0:
        raise InputError("power must be >= 0")
    if e <= 0.0:
        raise InputError("energy per op must be positive")
    rate = in_range(p / e, "power/energy_per_op", power=p, energy_per_op=e)
    return Quantity(rate, FREQUENCY)


def switch_energy(C: Quantity, V: Quantity) -> Quantity:
    """Energy (1/2) C V^2 stored in switching a capacitance C through V."""
    c = require(C, CAPACITANCE, "capacitance")
    v = require(V, VOLTAGE, "voltage")
    if c <= 0.0:
        raise InputError("capacitance must be positive")
    try:
        energy = 0.5 * c * v**2
    except OverflowError:  # float ** raises where * would give inf
        energy = math.inf
    return Quantity(in_range(energy, "C*V^2/2", C=c, V=v), ENERGY)
