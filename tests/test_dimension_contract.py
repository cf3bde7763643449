"""One dimension contract for every public entry point that takes a Quantity.

Each dimensioned argument, given a plain float or a quantity of the wrong
dimension, raises DimensionMismatch naming the unit it must be in.
"""

import re

import numpy as np
import pytest

from physcomp import blackhole, catalog, measures, qthermo
from physcomp.errors import DimensionMismatch
from physcomp.units import (
    CAPACITANCE,
    ENERGY,
    INFORMATION,
    LENGTH,
    MASS,
    POWER,
    TEMPERATURE,
    TIME,
    VOLTAGE,
    Quantity,
)

J = Quantity(1e-20, ENERGY)
S = Quantity(1e-12, TIME)
K = Quantity(300.0, TEMPERATURE)
KG = Quantity(1e3, MASS)
BITS = Quantity(10.0, INFORMATION)
FEW_BITS = Quantity(3.0, INFORMATION)
W = Quantity(100.0, POWER)
F = Quantity(1e-15, CAPACITANCE)
V = Quantity(0.8, VOLTAGE)

H = qthermo.HermitianOperator(np.diag([0.0, 1e-21]))
RHO = qthermo.DensityMatrix(np.diag([0.5, 0.5]))
PSI = qthermo.StateVector(np.array([1.0, 0.0]))
GIBBS = qthermo.gibbs_state(H, K)

# (name, callable, valid arguments); every Quantity among them is checked
CASES = [
    ("measures.phi_time", measures.phi_time, (J, S)),
    ("measures.ml_min_time", measures.ml_min_time, (J,)),
    ("measures.phi_space", measures.phi_space, (BITS, FEW_BITS)),
    ("measures.landauer_cost", measures.landauer_cost, (K, 8.0)),
    ("measures.free_phi", measures.free_phi, (J,)),
    ("measures.free_phi_op_equivalent", measures.free_phi_op_equivalent, (J, S)),
    *(
        (f"blackhole.{fn.__name__}", fn, (KG,))
        for fn in (
            blackhole.schwarzschild_radius,
            blackhole.entropy_nats,
            blackhole.hawking_temperature,
            blackhole.lifetime,
            blackhole.ops_per_second,
            blackhole.total_ops,
            blackhole.bit_flip_time,
            blackhole.free_energy,
            blackhole.max_error_rate,
            blackhole.characterize,
        )
    ),
    ("blackhole.page_curve", blackhole.page_curve, (KG, 3)),
    ("catalog.ReferenceSystem", catalog.ReferenceSystem, ("x", J)),
    (
        "catalog.inefficiency_factor",
        catalog.inefficiency_factor,
        (catalog.get_system("5nm-transistor"), K),
    ),
    ("catalog.op_rate", catalog.op_rate, (W, J)),
    ("catalog.switch_energy", catalog.switch_energy, (F, V)),
    ("qthermo.gibbs_state", qthermo.gibbs_state, (H, K)),
    (
        "qthermo.solve_inverse_temperature",
        qthermo.solve_inverse_temperature,
        (H, Quantity(2e-22, ENERGY)),
    ),
    (
        "qthermo.nonequilibrium_free_energy",
        qthermo.nonequilibrium_free_energy,
        (RHO, H, K),
    ),
    ("qthermo.extractable_work", qthermo.extractable_work, (RHO, H, K)),
    ("qthermo.evolve", qthermo.evolve, (H, S, PSI)),
    (
        "qthermo.GibbsState",
        lambda temperature, f_eq: qthermo.GibbsState(
            GIBBS.rho, temperature, GIBBS.beta, f_eq, 0.0
        ),
        (K, J),
    ),
]

WRONG = {"float": lambda q: q.magnitude, "length": lambda q: Quantity(1.0, LENGTH)}


def _params():
    for name, fn, args in CASES:
        for k, arg in enumerate(args):
            if isinstance(arg, Quantity):
                for kind, make in WRONG.items():
                    yield pytest.param(fn, args, k, make, id=f"{name}[{k}]-{kind}")


@pytest.mark.parametrize("fn, args, k, make", list(_params()))
def test_wrong_dimension_names_the_unit(fn, args, k, make):
    bad = list(args)
    bad[k] = make(args[k])
    with pytest.raises(DimensionMismatch, match=f"must be in {re.escape(args[k].unit)}$"):
        fn(*bad)


@pytest.mark.parametrize("name, fn, args", CASES, ids=[c[0] for c in CASES])
def test_valid_arguments_pass(name, fn, args):
    fn(*args)


def test_length_is_never_a_valid_dimension():
    assert all(a.dim != LENGTH for _, _, args in CASES for a in args if isinstance(a, Quantity))
