"""Exception hierarchy.

Two families matter to callers: ``InputError`` covers everything caused by
bad arguments or malformed files (CLI exit code 2), ``NumericalError``
covers failures of the numerics themselves (CLI exit code 3). The message
says which check fired; the five named kinds below are the ones code or
README tells apart.
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


class FileFormatError(InputError):
    """Malformed matrix/vector/pathway file; message carries the position."""


class NumericalOverflow(NumericalError):
    pass


class NumericalUnderflow(NumericalError):
    """A positive input gives a result that rounds to zero in a double."""
