"""State/operator validation, PSD repair, and the matrix file format."""

import numpy as np
import pytest

from physcomp.errors import FileFormatError, InvalidState
from physcomp.qthermo import (
    DensityMatrix,
    HermitianOperator,
    StateVector,
    load_density,
    load_hamiltonian,
    load_state_vector,
    read_matrix,
    write_matrix,
    write_vector,
)


class TestHermitianOperator:
    def test_accepts_and_symmetrizes(self):
        h = HermitianOperator([[0.0, 1.0 + 1e-12j], [1.0 - 1e-12j, 2.0]])
        assert np.allclose(h.matrix, h.matrix.conj().T)
        assert h.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidState):
            HermitianOperator([[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InvalidState):
            HermitianOperator([[1.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidState):
            HermitianOperator([[np.inf, 0.0], [0.0, 0.0]])

    def test_eigensystem_cached_and_sorted(self):
        h = HermitianOperator(np.diag([3.0, -1.0, 2.0]))
        vals, vecs = h.eigensystem()
        assert list(vals) == [-1.0, 2.0, 3.0]
        assert h.eigensystem() is h.eigensystem()


class TestDensityMatrix:
    def test_trace_must_be_one(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_small_negative_eigenvalue_repaired(self):
        eps = 5e-10
        rho = DensityMatrix(np.diag([1.0 + eps, -eps]))
        assert rho.probabilities.min() == 0.0
        assert rho.probabilities.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.diag([1.1, -0.1]))

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(4)
        assert np.allclose(rho.matrix, np.eye(4) / 4)

    def test_from_state_projector(self):
        psi = StateVector([1 / np.sqrt(2), 1j / np.sqrt(2)])
        rho = DensityMatrix.from_state(psi)
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(InvalidState):
            StateVector([1.0, 1.0])

    def test_basis_state(self):
        psi = StateVector.basis_state(3, 1)
        assert psi.amplitudes[1] == 1.0
        assert psi.dim == 3

    def test_overlap(self):
        a = StateVector.basis_state(2, 0)
        b = StateVector.basis_state(2, 1)
        assert a.overlap(b) == 0.0
        assert a.overlap(a) == 1.0


class TestMatrixFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        path = str(tmp_path / "h.mat")
        mat = np.array([[0.0, -1.2345678901234567e-21], [-1.2345678901234567e-21, 3e7]])
        write_matrix(path, mat, units="J")
        back, units = read_matrix(path)
        assert units == "J"
        assert np.array_equal(back, mat.astype(complex))

    def test_written_bytes(self, tmp_path):
        # shortest round-trip repr, including subnormal, extreme and signed zero
        mat, vec = str(tmp_path / "h.mat"), str(tmp_path / "psi.vec")
        write_matrix(
            mat,
            np.array([[0.1 + 1e-300j, complex(5e-324, -0.0)], [1e300, complex(-0.0, 1.0)]]),
            units="J",
        )
        write_vector(vec, np.array([complex(0.1, -0.0), complex(1e300, 5e-324)]))
        with open(mat, "rb") as fh:
            assert fh.read() == (
                b'{"dim": 2, "entries": [[[0.1, 1e-300], [5e-324, -0.0]], '
                b'[[1e+300, 0.0], [-0.0, 1.0]]], "units": "J"}\n'
            )
        with open(vec, "rb") as fh:
            assert fh.read() == b'{"dim": 2, "entries": [[0.1, -0.0], [1e+300, 5e-324]]}\n'

    def test_load_hamiltonian(self, tmp_path):
        path = str(tmp_path / "h.mat")
        write_matrix(path, np.diag([0.0, 1.0]), units="J")
        h = load_hamiltonian(path)
        assert h.dim == 2

    def test_state_file_rejects_units(self, tmp_path):
        path = str(tmp_path / "rho.mat")
        write_matrix(path, np.eye(2) / 2, units="J")
        with pytest.raises(FileFormatError, match="units"):
            load_density(path)

    def test_positioned_error_bad_pair(self, tmp_path):
        path = tmp_path / "h.mat"
        path.write_text('{"dim": 2, "entries": [[[0,0],[0,0]],[["x",0],[1,0]]]}')
        with pytest.raises(FileFormatError, match=r"entries\[1\]\[0\]"):
            read_matrix(str(path))

    def test_positioned_error_wrong_row_count(self, tmp_path):
        path = tmp_path / "h.mat"
        path.write_text('{"dim": 3, "entries": [[[0,0]]]}')
        with pytest.raises(FileFormatError, match="expected 3 rows"):
            read_matrix(str(path))

    def test_positioned_error_bad_dim(self, tmp_path):
        path = tmp_path / "h.mat"
        path.write_text('{"dim": 0, "entries": []}')
        with pytest.raises(FileFormatError, match="dim"):
            read_matrix(str(path))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "h.mat"
        path.write_text('{"dim": 2,\n  broken')
        with pytest.raises(FileFormatError, match="line 2"):
            read_matrix(str(path))

    def test_vector_round_trip(self, tmp_path):
        path = str(tmp_path / "psi.vec")
        amp = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])
        write_vector(path, amp)
        psi = load_state_vector(path)
        assert np.array_equal(psi.amplitudes, amp)

    def test_invalid_state_in_file_becomes_file_error(self, tmp_path):
        path = str(tmp_path / "rho.mat")
        write_matrix(path, np.diag([0.9, 0.9]))
        with pytest.raises(FileFormatError, match="trace"):
            load_density(path)
