"""Physical computational complexity toolkit.

Computes the physical counterparts of time and space complexity for
finite-dimensional quantum systems and closed-form physical systems:
op budgets from energy and time, memory from negentropy, free energy as
the unified resource, with sub-engines for quantum thermodynamics, black
hole computers, reference hardware, and assembly pathways.
"""

from . import units
from .errors import InputError, NumericalError, PhyscompError
from .units import Quantity, constants, entropy_convert

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "InputError",
    "NumericalError",
    "PhyscompError",
    "Quantity",
    "__version__",
    "assembly",
    "blackhole",
    "catalog",
    "constants",
    "entropy_convert",
    "measures",
    "qthermo",
    "units",
]


_SUBPACKAGES = ("assembly", "blackhole", "catalog", "measures", "qthermo")


def __getattr__(name: str):
    # the active constant set, which units.using rebinds: never a copy
    if name == "CONSTANTS":
        return units.CONSTANTS
    # each subpackage loads on first access, so a process compiles only the
    # code it runs, and only qthermo's users pay for numpy
    if name in _SUBPACKAGES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
