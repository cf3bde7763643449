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
from ..units import ENERGY, TEMPERATURE, finite_double, in_range, read_json, require, write_text

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

    The spectrum is computed on first use and cached: ``eigenvalues()``
    alone runs ``eigvalsh``; ``eigensystem()`` runs ``eigh``, whose values
    ``eigenvalues()`` then returns.
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

    def _keep_values(self, vals: np.ndarray) -> None:
        # finite entries can have eigenvalues beyond the double range
        top = float(np.abs(vals).max())
        in_range(top, "largest |eigenvalue| of H", max_abs_H=float(np.abs(self.matrix).max()))
        self._vals = vals

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvector columns, cached."""
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.matrix)
            if self._vals is None:
                self._keep_values(vals)
            self._eig = (self._vals, vecs)
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues (ascending), cached; no eigenvectors are computed."""
        if self._vals is None:
            self._keep_values(np.linalg.eigvalsh(self.matrix))
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
        self._matrix = self._basis = None
        if vals.min() < 0.0:
            vals, self._basis = np.linalg.eigh(mat)
            vals = np.clip(vals, 0.0, None)
        else:
            self._matrix = mat / tr
            self._matrix.setflags(write=False)
        self.probabilities = vals / vals.sum()

    @property
    def matrix(self) -> np.ndarray:
        """The d x d matrix; a state known by its spectrum builds
        sum_k p_k |v_k><v_k| on first read."""
        if self._matrix is None:
            basis = self._basis
            vecs = basis.eigensystem()[1] if isinstance(basis, HermitianOperator) else basis
            self._matrix = (vecs * self.probabilities) @ vecs.conj().T
            self._matrix.setflags(write=False)
        return self._matrix

    @property
    def dim(self) -> int:
        return self.probabilities.size

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)

    @classmethod
    def from_spectrum(cls, probabilities, eigenvectors) -> "DensityMatrix":
        """The state sum_k p_k |v_k><v_k| from a known spectral decomposition.

        ``eigenvectors`` holds orthonormal columns v_k, or is the
        :class:`HermitianOperator` whose eigenvectors they are; those are
        computed only if the matrix is read. No diagonalization of the
        state: the probabilities are kept exactly as given, after checking
        that they are nonnegative, sum to 1 within ``TRACE_TOL`` and match
        the columns in number.
        """
        p = np.asarray(probabilities, dtype=float)
        if isinstance(eigenvectors, HermitianOperator):
            basis, shape = eigenvectors, eigenvectors.matrix.shape
        else:
            basis = np.asarray(eigenvectors, dtype=complex)
            shape = basis.shape
        if p.ndim != 1 or p.size < 1 or shape != (p.size, p.size):
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
        rho.probabilities, rho._basis, rho._matrix = p, basis, None
        return rho

    @classmethod
    def from_state(cls, psi: "StateVector") -> "DensityMatrix":
        amp = psi.amplitudes / np.linalg.norm(psi.amplitudes)
        return cls(np.outer(amp, amp.conj()))


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

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "StateVector":
        amp = np.zeros(dim, dtype=complex)
        amp[index] = 1.0
        return cls(amp)

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


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


def _read_entries(path: str, ndim: int) -> tuple[np.ndarray, str | None]:
    """Parse a matrix (ndim 2) or vector (ndim 1) file; returns (complex
    array, the file's "units" or None)."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    dim = raw.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError(f"{path}: dim: expected a positive integer")
    entries = raw.get("entries")
    out = _pair_array(entries, (dim,) * ndim)
    if out is None:  # walk the entries only to say which one is bad
        _check_entries(entries, ndim, dim, "entries", path)
        shape = f"{dim} rows of {dim} pairs" if ndim == 2 else f"{dim} pairs"
        raise FileFormatError(f"{path}: entries: expected {shape}")
    return out, raw.get("units")


def read_matrix(path: str) -> tuple[np.ndarray, str | None]:
    """Parse a matrix file; returns (complex d x d array, units or None)."""
    out, units = _read_entries(path, 2)
    if units is not None and units != "J":
        raise FileFormatError(f"{path}: units: only \"J\" is supported")
    return out, units


def read_vector(path: str) -> np.ndarray:
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
    mat, units = read_matrix(path)
    if units is not None:
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
