"""Exception hierarchy.

Two families matter to callers: ``InputError`` covers everything caused by
bad arguments or malformed files (CLI exit code 2), ``NumericalError``
covers failures of the numerics themselves (CLI exit code 3).
"""


class PhyscompError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PhyscompError):
    """Invalid argument, state, or file content."""


class NumericalError(PhyscompError):
    """Overflow or non-convergence inside a numerical routine."""


class DimensionMismatch(InputError):
    pass


class InvalidState(InputError):
    pass


class ZeroTemperature(InputError):
    pass


class NonPositiveTemperature(InputError):
    pass


class NonPositiveEnergy(InputError):
    pass


class NonPositiveMass(InputError):
    pass


class NonPositiveCapacitance(InputError):
    pass


class NegativeInput(InputError):
    pass


class EnergyOutOfRange(InputError):
    pass


class InfiniteTemperature(InputError):
    """Requested mean energy sits at beta = 0; no finite temperature exists."""


class EntropyOutOfRange(InputError):
    pass


class ProbabilityOutOfRange(InputError):
    pass


class TimeOutOfRange(InputError):
    pass


class SymbolNotInBasis(InputError):
    pass


class TargetTooLarge(InputError):
    pass


class MissingAnnotation(InputError):
    pass


class InvalidPathway(InputError):
    pass


class UnknownSystem(InputError):
    """No reference system of the given name."""


class FileFormatError(InputError):
    """Malformed matrix/vector/pathway file; message carries the position."""


class NumericalOverflow(NumericalError):
    pass


class NumericalUnderflow(NumericalError):
    """A positive input gives a result that rounds to zero in a double."""


class NonConvergence(NumericalError):
    pass
