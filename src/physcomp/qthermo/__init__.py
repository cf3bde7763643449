"""Finite-dimensional quantum thermodynamics."""

from .dynamics import energy_spread, evolve
from .states import (
    DensityMatrix,
    GibbsState,
    HermitianOperator,
    StateVector,
    load_density,
    load_hamiltonian,
    load_state_vector,
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)
from .thermo import (
    extractable_work,
    gibbs_state,
    mean_energy,
    nonequilibrium_free_energy,
    solve_inverse_temperature,
    von_neumann_entropy,
)

__all__ = [
    "DensityMatrix",
    "GibbsState",
    "HermitianOperator",
    "StateVector",
    "energy_spread",
    "evolve",
    "extractable_work",
    "gibbs_state",
    "load_density",
    "load_hamiltonian",
    "load_state_vector",
    "mean_energy",
    "nonequilibrium_free_energy",
    "read_matrix",
    "read_vector",
    "solve_inverse_temperature",
    "von_neumann_entropy",
    "write_matrix",
    "write_vector",
]
