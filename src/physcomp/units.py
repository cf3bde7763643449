"""Dimensioned quantities, pinned physical constants, entropy-unit conversion.

A :class:`Quantity` is a float magnitude in canonical units (SI base units
plus the bit for information) paired with integer dimension exponents.
Formulas take Quantities, check each one's dimension with :func:`require`,
and compute on the magnitudes. A Quantity has no arithmetic: it is built as
``Quantity(x, dim)`` or ``number * unit``, and adding, multiplying or
ordering two of them raises ``TypeError``, so a mismatched dimension is
never silently cast.

Information is a base dimension of its own. The bit is its canonical unit;
the nat is the same dimension scaled by 1/ln 2.
"""

from __future__ import annotations

import io
import math
import os
import sys
from collections import namedtuple
from contextlib import contextmanager

from .errors import DimensionMismatch, FileFormatError, NumericalOverflow, NumericalUnderflow

LN2 = math.log(2.0)


class Dimension(
    namedtuple(
        "Dimension", "mass length time temperature current information", defaults=(0,) * 6
    )
):
    """Integer exponents over the base dimensions (abelian group under *).

    A tuple of the six exponents, so it compares and hashes by value.
    """

    __slots__ = ()

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(*(a + b for a, b in zip(self, other)))

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(*(a - b for a, b in zip(self, other)))

    def __pow__(self, n: int) -> "Dimension":
        if not isinstance(n, int):
            raise DimensionMismatch("dimension exponents must stay integers")
        return Dimension(*(a * n for a in self))


DIMENSIONLESS = Dimension()
MASS = Dimension(mass=1)
LENGTH = Dimension(length=1)
TIME = Dimension(time=1)
TEMPERATURE = Dimension(temperature=1)
CURRENT = Dimension(current=1)
INFORMATION = Dimension(information=1)

ENERGY = MASS * LENGTH**2 / TIME**2
POWER = ENERGY / TIME
VELOCITY = LENGTH / TIME
FREQUENCY = DIMENSIONLESS / TIME
ENTROPY_THERMO = ENERGY / TEMPERATURE  # J/K
CHARGE = CURRENT * TIME
VOLTAGE = ENERGY / CHARGE
CAPACITANCE = CHARGE / VOLTAGE
ACTION = ENERGY * TIME

_BASE_SYMBOLS = ("kg", "m", "s", "K", "A", "bit")

# Preferred symbols for dimensions that show up in reports.
_DIM_SYMBOLS = {
    DIMENSIONLESS: "",
    MASS: "kg",
    LENGTH: "m",
    TIME: "s",
    TEMPERATURE: "K",
    CURRENT: "A",
    INFORMATION: "bit",
    ENERGY: "J",
    POWER: "W",
    MASS * LENGTH / TIME**2: "N",
    VELOCITY: "m/s",
    FREQUENCY: "1/s",
    DIMENSIONLESS / ENERGY: "1/J",
    ENTROPY_THERMO: "J/K",
    VOLTAGE: "V",
    CAPACITANCE: "F",
    ACTION: "J·s",
    INFORMATION / TIME: "bit/s",
}


def _compose_symbol(dim: Dimension) -> str:
    sym = _DIM_SYMBOLS.get(dim)
    if sym is not None:
        return sym
    parts = []
    for base, e in zip(_BASE_SYMBOLS, dim):
        if e == 1:
            parts.append(base)
        elif e != 0:
            parts.append(f"{base}^{e}")
    return "·".join(parts)


def require(q, dim: Dimension, what: str) -> float:
    """The magnitude of ``q``, which must be a :class:`Quantity` of ``dim``."""
    if not isinstance(q, Quantity) or q.dim != dim:
        raise DimensionMismatch(f"{what} must be in {_compose_symbol(dim)}")
    return q.magnitude


def in_range(x: float, what: str, **inputs) -> float:
    """``x``, the value of formula ``what`` at ``inputs``, if it is a result.

    A result is a normal double, or 0 when some input is 0. A subnormal
    carries fewer significant bits, and 0 from nonzero inputs is no value:
    both raise :class:`NumericalUnderflow`. A result that is not finite (nan
    too) raises :class:`NumericalOverflow`.
    """
    if sys.float_info.min <= abs(x) <= sys.float_info.max or (
        x == 0.0 and 0.0 in inputs.values()
    ):
        return x
    at = ", ".join(f"{k}={v!r}" for k, v in inputs.items())
    if math.isfinite(x):
        raise NumericalUnderflow(f"{what} underflows to {x!r} at {at}")
    raise NumericalOverflow(f"{what} overflows a double at {at}")


def bisect_root(above, lo: float, hi: float) -> float:
    """Halve ``[lo, hi]`` until its midpoint equals an end and return that
    midpoint; ``above(x)`` is true when the root lies above ``x``."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if above(mid):
            lo = mid
        else:
            hi = mid


class Quantity:
    """A finite magnitude in canonical units plus its dimension; immutable.

    The magnitude is in canonical units (SI base units, bit for
    information), whose symbol :attr:`unit` follows from the dimension. Use
    :meth:`value_in` to read the number in some other unit, such as the nat.
    """

    __slots__ = ("magnitude", "dim")

    def __init__(self, magnitude: float, dim: Dimension = DIMENSIONLESS):
        if not math.isfinite(magnitude):
            raise DimensionMismatch(f"quantity magnitude must be finite, got {magnitude!r}")
        # __setattr__ refuses, so the slots are filled through their descriptors
        _SET_MAGNITUDE(self, magnitude)
        _SET_DIM(self, dim)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Quantity, (self.magnitude, self.dim)

    def __repr__(self):
        return f"Quantity(magnitude={self.magnitude!r}, dim={self.dim!r})"

    def __rmul__(self, number):
        """``number * unit``, as in ``1e-15 * FARAD``; a Quantity has no other
        arithmetic."""
        return Quantity(self.magnitude * number, self.dim)

    def __eq__(self, other):
        if not isinstance(other, Quantity):
            return NotImplemented
        return self.dim == other.dim and self.magnitude == other.magnitude

    def __hash__(self):
        return hash((self.magnitude, self.dim))

    # -- accessors ---------------------------------------------------------

    def value_in(self, unit: "Quantity | str") -> float:
        """Magnitude of this quantity expressed in ``unit``."""
        if isinstance(unit, str):
            unit = UNITS[unit]
        if not isinstance(unit, Quantity) or unit.dim != self.dim:
            raise DimensionMismatch(
                f"cannot express [{self.unit or '1'}] and "
                f"[{getattr(unit, 'unit', type(unit).__name__) or '1'}]"
            )
        return self.magnitude / unit.magnitude

    @property
    def unit(self) -> str:
        """Symbol of the canonical unit of this quantity's dimension."""
        return _compose_symbol(self.dim)

    def __str__(self):
        return f"{self.magnitude:g} {self.unit}".rstrip()


_SET_MAGNITUDE, _SET_DIM = (getattr(Quantity, f).__set__ for f in Quantity.__slots__)

# -- unit constants (canonical magnitudes) --------------------------------

# one unit of magnitude 1 per named dimension, and the nat
UNITS: dict[str, Quantity] = {sym: Quantity(1.0, dim) for dim, sym in _DIM_SYMBOLS.items() if sym}
NAT = UNITS["nat"] = Quantity(1.0 / LN2, INFORMATION)
BIT, JOULE, VOLT, FARAD = (UNITS[s] for s in ("bit", "J", "V", "F"))


def entropy_convert(s: Quantity, target_unit: str) -> Quantity:
    """Convert an entropy to ``"bits"`` or to thermodynamic ``"joules_per_kelvin"``.

    Accepts a quantity carrying either the information dimension or J/K;
    J/K = nats * k_B, with k_B from the active set. Nats are no target: an
    entropy in bits is read in nats with ``value_in(NAT)``.
    """
    k_b = CONSTANTS.k_B.magnitude
    if s.dim == INFORMATION:
        bits, nats = s.magnitude, s.magnitude * LN2
    elif s.dim == ENTROPY_THERMO:
        nats = s.magnitude / k_b
        bits = nats / LN2
    else:
        raise DimensionMismatch(
            f"entropy_convert needs information or J/K, got [{s.unit or '1'}]"
        )
    if target_unit == "bits":
        return Quantity(bits, INFORMATION)
    if target_unit == "joules_per_kelvin":
        return Quantity(nats * k_b, ENTROPY_THERMO)
    raise DimensionMismatch(f"unknown entropy unit {target_unit!r}")


# -- physical constants ----------------------------------------------------

# One row per constant: name, dimension, and the unit, pinned SI value and
# origin `physcomp constants` prints. CODATA 2018; c, k_B and the
# electron volt are exact by definition. A Planck unit has no pinned value:
# it is derived from hbar, c and G unless an override file gives it.
CONSTANT_TABLE = (
    ("hbar", ACTION, "J·s", 1.054571817e-34, "pinned CODATA 2018"),
    ("c", VELOCITY, "m/s", 299792458.0, "pinned exact"),
    ("G", LENGTH**3 / (MASS * TIME**2), "m^3·kg^-1·s^-2", 6.67430e-11, "pinned CODATA 2018"),
    ("k_B", ENTROPY_THERMO, "J/K", 1.380649e-23, "pinned exact"),
    ("planck_mass", MASS, "kg", None, "sqrt(hbar*c/G)"),
    ("planck_length", LENGTH, "m", None, "sqrt(hbar*G/c^3)"),
    ("solar_mass", MASS, "kg", 1.98892e30, "pinned"),
    ("electron_volt", ENERGY, "J", 1.602176634e-19, "pinned exact"),
    ("seconds_per_year", TIME, "s", 3.15576e7, "Julian year"),
)
_NAMES = tuple(row[0] for row in CONSTANT_TABLE)


class Constants(namedtuple("Constants", [*_NAMES, "source"])):
    """A constant set as dimensioned quantities, and where it came from.

    ``source`` is ``"pinned"`` or ``"file:PATH"`` for an override file.
    """

    __slots__ = ()


def finite_double(x) -> bool:
    """Whether the parsed JSON value ``x`` is a number held by a finite double.

    JSON booleans parse as ints and are not numbers here. JSON integers have
    no size limit: one beyond the double range makes ``math.isfinite`` raise
    ``OverflowError``, and counts as not finite here.
    """
    if isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except (OverflowError, TypeError):
        return False


# files this long (full-precision matrix files from about d = 80) decode
# with orjson, about 2x faster than json.loads; shorter ones are not worth
# its 6-13 ms import. qt input files this long are decoded only once
# (qthermo.filecache).
LARGE_FILE_BYTES = 2**18


def read_bytes(path: str) -> bytes:
    """The bytes of the file ``path``; :class:`FileFormatError` if it cannot
    be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FileFormatError(f"{path or repr(path)}: cannot read: {exc}")


def read_json(path: str, data: bytes | None = None):
    """The JSON value in the UTF-8 file ``path``, whose bytes are ``data``
    where the caller has read them; :class:`FileFormatError` if the file
    cannot be read or decoded. Value and message are those of ``json.loads``
    on the text ``open(path, encoding="utf-8")`` reads."""
    import json  # only file-reading runs load the decoder

    if data is None:
        data = read_bytes(path)
    if len(data) >= LARGE_FILE_BYTES:
        import orjson

        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass  # bad UTF-8, NaN, 1e400, lone surrogates: the text path takes them or says why
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: cannot read: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; :class:`FileFormatError` if the
    file cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileFormatError(f"{path or repr(path)}: cannot write: {exc}")


def check_writable(path: str) -> None:
    """Refuse an output path before the work, as :func:`write_text` would;
    a missing file is created and removed again, an existing one appended to
    with nothing, so a run that fails later leaves no trace."""
    try:
        try:
            open(path, "x", encoding="utf-8").close()
        except FileExistsError:
            open(path, "a", encoding="utf-8").close()
        else:
            os.remove(path)
    except OSError as exc:
        raise FileFormatError(f"{path or repr(path)}: cannot write: {exc}")


def _load_overrides(path: str) -> dict[str, float]:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise FileFormatError(f"{path}: constants override must be a flat object")
    out = {}
    for key, val in raw.items():
        if key not in _NAMES:
            raise FileFormatError(f"{path}: unknown constant {key!r}")
        if not finite_double(val) or val < sys.float_info.min:
            raise FileFormatError(f"{path}: {key}: expected a positive finite number")
        out[key] = float(val)
    return out


def constants(override_path: str | None = None) -> Constants:
    """Return the pinned constants, optionally patched from a config file.

    The override file is a flat JSON object, key = constant name, value =
    positive number in SI units. Missing keys fall back to the pinned
    defaults; Planck mass/length are derived from (possibly overridden)
    hbar, c, G, and one the file gives must match that to 1e-10; a refusal
    is a :class:`FileFormatError` that names the file. With no path, the
    pinned set; any other path, the empty one too, is read as a file.

    This only builds a set; :func:`using` makes it the one the physics reads.
    """
    values = {name: pinned for name, _, _, pinned, _ in CONSTANT_TABLE if pinned is not None}
    source = "pinned"
    if override_path is not None:
        values.update(_load_overrides(override_path))
        source = f"file:{override_path}"
    # each Planck unit squared, derived once, must be a normal finite double (a
    # subnormal one carries fewer bits); c**3 or value**2 above the double range
    # raises OverflowError, and a c**3 that rounds to 0 ZeroDivisionError
    hbar, c, g = values["hbar"], values["c"], values["G"]
    try:
        for name, square, identity in (("planck_mass", hbar * c / g, "m_P^2 != hbar c / G"),
                                       ("planck_length", hbar * g / c**3, "l_P^2 != hbar G / c^3")):
            if not sys.float_info.min <= square < math.inf:
                raise OverflowError
            value = values.setdefault(name, math.sqrt(square))
            if abs(value**2 / square - 1.0) > 1e-10:
                raise FileFormatError(f"{override_path}: constants inconsistent: {identity}")
    except ArithmeticError:
        raise FileFormatError(f"{override_path}: constants out of double range")
    return Constants(
        *(Quantity(values[name], dim) for name, dim, _, _, _ in CONSTANT_TABLE),
        source,
    )


PINNED = constants()

CONSTANTS = PINNED
"""The active constant set. Every formula reads it when called; rebind it
with :func:`using`, never by assignment."""


@contextmanager
def using(consts: Constants):
    """Make ``consts`` the active set inside the ``with`` block.

    The previous set comes back on exit, also when the block raises.
    """
    global CONSTANTS
    saved, CONSTANTS = CONSTANTS, consts
    try:
        yield consts
    finally:
        CONSTANTS = saved
