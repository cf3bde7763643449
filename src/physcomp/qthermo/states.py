"""Finite-dimensional quantum states and observables, plus their file format.

Matrices live in plain numpy arrays; Hamiltonian entries are in joules,
density matrices are dimensionless. Validation tolerances follow the
package-wide convention: hermiticity and trace to 1e-9 relative, negative
eigenvalues above -1e-9 are repaired (clamped and renormalized), anything
worse is rejected.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from itertools import chain

import numpy as np

from ..errors import FileFormatError, InvalidState
from ..units import (
    ENERGY,
    LARGE_FILE_BYTES,
    TEMPERATURE,
    finite_double,
    in_range,
    read_bytes,
    read_json,
    require,
    write_text,
)

HERMITIAN_RTOL = 1e-9
TRACE_TOL = 1e-9
PSD_FLOOR = -1e-9
NORM_TOL = 1e-9


def _as_complex_matrix(entries, what: str) -> np.ndarray:
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise InvalidState(f"{what} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise InvalidState(f"{what} contains non-finite entries")
    return arr


def _check_hermitian(arr: np.ndarray, what: str) -> np.ndarray:
    scale = np.abs(arr).max()
    dev = np.abs(arr - arr.conj().T).max()
    if scale > 0 and dev > HERMITIAN_RTOL * scale:
        raise InvalidState(
            f"{what} is not Hermitian: max|A - A^dag| = {dev:.3e} "
            f"exceeds {HERMITIAN_RTOL:g} * max|A| = {HERMITIAN_RTOL * scale:.3e}"
        )
    # halves first: A + A^dag overflows for entries above ~9e307
    return 0.5 * arr + 0.5 * arr.conj().T


def real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr(a^dag b), which is tr(a b) for Hermitian a and b.

    Summed elementwise by numpy rather than by BLAS ``zdotc``, so the
    digits do not depend on the BLAS kernel picked at run time.
    """
    return float((a.conj() * b).real.sum())


class HermitianOperator:
    """A d x d Hermitian observable; entries in joules for Hamiltonians.

    Each decomposition is computed on first use and cached on its own:
    ``eigenvalues()`` always runs ``eigvalsh`` and ``eigensystem()`` always
    runs ``eigh``, so neither depends on whether the other ran first.
    """

    def __init__(self, entries):
        mat = _as_complex_matrix(entries, "operator")
        self.matrix = _check_hermitian(mat, "operator")
        self.matrix.setflags(write=False)
        self._vals: np.ndarray | None = None
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _checked(self, vals: np.ndarray) -> np.ndarray:
        # finite entries can have eigenvalues beyond the double range
        top = float(np.abs(vals).max())
        in_range(top, "largest |eigenvalue| of H", max_abs_H=float(np.abs(self.matrix).max()))
        return vals

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvector columns from ``eigh``, cached."""
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.matrix)
            self._eig = (self._checked(vals), vecs)
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues (ascending) from ``eigvalsh``, cached; no eigenvectors."""
        if self._vals is None:
            self._vals = self._checked(np.linalg.eigvalsh(self.matrix))
        return self._vals

    def check_acts_on(self, state) -> None:
        """Refuse a state (density matrix or vector) of another dimension."""
        if state.dim != self.dim:
            raise InvalidState(
                f"Hamiltonian has dimension {self.dim} but the state has dimension {state.dim}"
            )


class DensityMatrix:
    """A valid quantum state: Hermitian, unit trace, positive semidefinite.

    The matrix is the validated input divided by its trace. Eigenvalues in
    [-1e-9, 0) are clamped to zero, the spectrum is renormalized and the
    matrix rebuilt from it; larger violations raise :class:`InvalidState`.
    Only a state made by :meth:`from_spectrum` builds its matrix on first read.
    """

    def __init__(self, entries):
        mat = _as_complex_matrix(entries, "density matrix")
        mat = _check_hermitian(mat, "density matrix")
        tr = mat.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidState(f"density matrix trace {tr!r} differs from 1")
        vals = np.linalg.eigvalsh(mat)
        if vals.min() < PSD_FLOOR:
            raise InvalidState(
                f"density matrix has eigenvalue {vals.min():.3e} below {PSD_FLOOR:g}"
            )
        self._basis = vecs = None
        if vals.min() < 0.0:
            vals, vecs = np.linalg.eigh(mat)
            vals = np.clip(vals, 0.0, None)
        self.probabilities = p = vals / vals.sum()
        self._matrix = mat / tr if vecs is None else (vecs * p) @ vecs.conj().T
        self._matrix.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        """The d x d matrix; a state made by :meth:`from_spectrum` builds
        sum_k p_k |v_k><v_k| on first read."""
        if self._matrix is None:
            vecs = self._basis.eigensystem()[1]
            self._matrix = (vecs * self.probabilities) @ vecs.conj().T
            self._matrix.setflags(write=False)
        return self._matrix

    @property
    def dim(self) -> int:
        return self.probabilities.size

    @classmethod
    def from_spectrum(cls, probabilities, operator: HermitianOperator) -> "DensityMatrix":
        """The state sum_k p_k |v_k><v_k| over the eigenvectors v_k of
        ``operator``, which are computed only if the matrix is read.

        No diagonalization of the state: the probabilities are kept exactly
        as given, after checking that they are nonnegative, sum to 1 within
        ``TRACE_TOL`` and match the operator's dimension.
        """
        p = np.asarray(probabilities, dtype=float)
        shape = operator.matrix.shape
        if p.ndim != 1 or shape != (p.size, p.size):
            raise InvalidState(
                f"spectrum of {p.shape} probabilities does not match "
                f"eigenvectors of shape {shape}"
            )
        if not p.min() >= 0.0:
            raise InvalidState(f"density matrix has probability {p.min():.3e} below 0")
        total = p.sum()
        if abs(total - 1.0) > TRACE_TOL:
            raise InvalidState(f"density matrix trace {total!r} differs from 1")
        rho = cls.__new__(cls)
        rho.probabilities, rho._basis, rho._matrix = p, operator, None
        return rho


class StateVector:
    """A pure state: complex amplitudes with unit norm (1e-9 tolerance)."""

    def __init__(self, amplitudes):
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise InvalidState(f"state vector must be 1-d, got shape {amp.shape}")
        if not np.all(np.isfinite(amp.view(float))):
            raise InvalidState("state vector contains non-finite amplitudes")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidState(f"state vector norm {norm!r} differs from 1")
        self.amplitudes = amp
        self.amplitudes.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


class GibbsState(
    namedtuple("GibbsState", "rho temperature beta f_eq log_partition_function")
):
    """Thermal state bundle: rho = exp(-H/(k_B T)) / Z.

    ``temperature`` (K) may be negative (bounded spectra admit population
    inversion) but never zero; ``beta`` is in 1/J and ``f_eq`` in J. Only
    ln Z is stored, finite in any gauge; Z raises when read if it is not a
    normal double.
    """

    __slots__ = ()

    def __new__(cls, rho, temperature, beta, f_eq, log_partition_function):
        require(temperature, TEMPERATURE, "GibbsState temperature")
        require(f_eq, ENERGY, "GibbsState f_eq")
        return super().__new__(cls, rho, temperature, beta, f_eq, log_partition_function)

    @property
    def partition_function(self) -> float:
        log_z = self.log_partition_function
        z = math.exp(log_z) if log_z <= 709.782712893384 else math.inf  # ln(DBL_MAX)
        return in_range(z, "partition function tr(exp(-H/(k_B*T)))", ln_Z=log_z)


# -- file format ------------------------------------------------------------
#
# A matrix file is a JSON object:
#   {"dim": d, "entries": [[ [re, im], ... d pairs ], ... d rows ], "units": "J"}
# "units" is present ("J") for Hamiltonians and absent for states.
# A vector file uses a flat length-d "entries" array of [re, im] pairs.


def _pair_array(entries, shape: tuple[int, ...]) -> np.ndarray | None:
    """``entries`` as a complex array of ``shape``, or None if they are not
    nested lists of that shape holding finite [re, im] pairs of JSON numbers.
    """
    level = [entries]
    for n in shape + (2,):
        if set(map(type, level)) != {list} or set(map(len, level)) != {n}:
            return None
        level = list(chain.from_iterable(level))
    # JSON numbers only: np.array would also take numeric strings and bools
    if not set(map(type, level)) <= {int, float}:
        return None
    try:
        flat = np.array(level, dtype=float)
    except OverflowError:  # an integer beyond the double range
        return None
    if not np.isfinite(flat).all():
        return None
    # consecutive (re, im) doubles are exactly numpy's complex layout
    return flat.view(complex).reshape(shape)


def _check_entries(level, depth: int, dim: int, where: str, path: str) -> None:
    """Raise naming the first entry at or below ``where`` that is not
    ``depth`` nested lists of ``dim`` items ending in [re, im] pairs."""
    if depth > 0:
        if not isinstance(level, list) or len(level) != dim:
            what = "rows" if depth > 1 else "pairs"
            raise FileFormatError(f"{path}: {where}: expected {dim} {what}")
        for i, item in enumerate(level):
            _check_entries(item, depth - 1, dim, f"{where}[{i}]", path)
    elif (
        not isinstance(level, (list, tuple))
        or len(level) != 2
        or not all(type(x) in (int, float) for x in level)  # JSON numbers, not bools
    ):
        raise FileFormatError(f"{path}: {where}: expected an [re, im] number pair")
    elif not (finite_double(level[0]) and finite_double(level[1])):
        raise FileFormatError(f"{path}: {where}: entries must be finite doubles")


# the "units" a matrix (ndim 2) or vector (ndim 1) file may carry, and the
# refusal of any other; a refused file is never cached
_UNITS = {2: ((None, "J"), 'only "J" is supported'), 1: ((None,), "states are dimensionless")}


def _read_entries(path: str, ndim: int) -> tuple[np.ndarray, str | None]:
    """Parse a matrix (ndim 2) or vector (ndim 1) file; returns (complex
    array, the file's "units" or None).

    A file of LARGE_FILE_BYTES bytes or more is decoded once: the parsed
    array is cached under the SHA-256 of the reader's code and the file's
    bytes, and a later read of the same bytes loads it (``filecache``).
    """
    accepted, refusal = _UNITS[ndim]
    data = read_bytes(path)
    key = None
    if len(data) >= LARGE_FILE_BYTES:
        from . import filecache

        key = filecache.key(data)
        hit = filecache.get(key, ndim, accepted)
        if hit is not None:
            return hit
    raw = read_json(path, data)
    del data  # 11 MB at d = 512
    if not isinstance(raw, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    dim = raw.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"{path}: dim: expected a positive integer")
    entries = raw.get("entries")
    out = _pair_array(entries, (dim,) * ndim)
    if out is None:  # walk the entries only to say which one is bad; it raises
        _check_entries(entries, ndim, dim, "entries", path)
    unit = raw.get("units")
    if unit not in accepted:
        raise FileFormatError(f"{path}: units: {refusal}")
    if key is not None:
        filecache.put(key, out, unit)
    return out, unit


def read_matrix(path: str) -> tuple[np.ndarray, str | None]:
    """Parse a matrix file; returns (complex d x d array, units or None)."""
    return _read_entries(path, 2)


def read_vector(path: str) -> np.ndarray:
    """Parse a vector file; returns the complex length-d array."""
    return _read_entries(path, 1)[0]


def _load(cls, path: str, entries: np.ndarray):
    """``cls(entries)``, with an invalid state reported against its file."""
    try:
        return cls(entries)
    except InvalidState as exc:
        raise FileFormatError(f"{path}: {exc}")


def load_hamiltonian(path: str) -> HermitianOperator:
    return _load(HermitianOperator, path, read_matrix(path)[0])


def load_density(path: str) -> DensityMatrix:
    mat, unit = read_matrix(path)
    if unit is not None:
        raise FileFormatError(f"{path}: units: states are dimensionless")
    return _load(DensityMatrix, path, mat)


def load_state_vector(path: str) -> StateVector:
    return _load(StateVector, path, read_vector(path))


def _write_entries(path: str, arr: np.ndarray, units: str | None = None) -> None:
    # float repr round-trips every double exactly; json.dumps (unlike
    # json.dump) runs the C encoder
    obj: dict = {
        "dim": arr.shape[0],
        "entries": np.stack([arr.real, arr.imag], -1).tolist(),
    }
    if units is not None:
        obj["units"] = units
    write_text(path, json.dumps(obj) + "\n")


def write_matrix(path: str, matrix: np.ndarray, units: str | None = None) -> None:
    _write_entries(path, np.asarray(matrix, dtype=complex), units)


def write_vector(path: str, amplitudes: np.ndarray) -> None:
    _write_entries(path, np.asarray(amplitudes, dtype=complex))
