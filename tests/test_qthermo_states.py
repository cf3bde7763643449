"""State/operator validation, PSD repair, and the matrix file format."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physcomp.errors import FileFormatError, InvalidState, NumericalOverflow
from physcomp.units import ORJSON_MIN_CHARS, read_json
from physcomp.qthermo import (
    DensityMatrix,
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

    def test_eigensystem_at_the_double_limit_raises(self):
        # finite entries, eigenvalues 0 and 2e308
        h = HermitianOperator(np.full((2, 2), 1e308))
        with pytest.raises(NumericalOverflow, match="eigenvalue"):
            h.eigensystem()
        vals, _ = HermitianOperator(np.zeros((2, 2))).eigensystem()
        assert list(vals) == [0.0, 0.0]

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

    def test_from_spectrum_keeps_probabilities(self):
        vecs = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        rho = DensityMatrix.from_spectrum([0.75, 0.25], vecs)
        assert list(rho.probabilities) == [0.75, 0.25]
        assert np.allclose(rho.matrix, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)

    @pytest.mark.parametrize(
        "probs, vecs",
        [([1.1, -0.1], np.eye(2)), ([0.6, 0.6], np.eye(2)), ([1.0], np.eye(2))],
        ids=["negative", "trace", "shape"],
    )
    def test_from_spectrum_checks_invariants(self, probs, vecs):
        with pytest.raises(InvalidState):
            DensityMatrix.from_spectrum(probs, vecs)

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


# Positioned errors exactly as the per-entry parser printed them before
# parsing was vectorized; booleans were accepted as 1/0 then.
HUGE_INT = "1" + "0" * 400
MALFORMED = [
    (read_matrix, '[[[0, 0], [0, 0]], [["1.0", 0], [1, 0]]]', 2,
     "entries[1][0]: expected an [re, im] number pair"),
    (read_matrix, "[[[0, 0], [0, 0, 0]], [[0, 0], [1, 0]]]", 2,
     "entries[0][1]: expected an [re, im] number pair"),
    (read_matrix, "[[[0, 0], [0, 0]], [[0, 0]]]", 2, "entries[1]: expected 2 pairs"),
    (read_matrix, "[[[0, 0], [0, 0]], 7]", 2, "entries[1]: expected 2 pairs"),
    (read_matrix, "[[[0, 0], [0, %s]], [[0, 0], [1, 0]]]" % HUGE_INT, 2,
     "entries[0][1]: entries must be finite doubles"),
    (read_matrix, "[[[0, 0], [NaN, 0]], [[0, 0], [1, 0]]]", 2,
     "entries[0][1]: entries must be finite doubles"),
    (read_matrix, "[[[0, 0], [0, 0]], [[0, -Infinity], [1, 0]]]", 2,
     "entries[1][0]: entries must be finite doubles"),
    (read_matrix, "[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]", 3, "entries: expected 3 rows"),
    (read_matrix, "[[[0, 0], [0, 0]], [[0, 0], [true, 0]]]", 2,
     "entries[1][1]: expected an [re, im] number pair"),
    (read_vector, '[[0, 0], [0, "x"]]', 2, "entries[1]: expected an [re, im] number pair"),
    (read_vector, "[[0, 0, 1], [0, 0]]", 2, "entries[0]: expected an [re, im] number pair"),
    (read_vector, "[[0, 0], 1]", 2, "entries[1]: expected an [re, im] number pair"),
    (read_vector, "[[0, 0], [-%s, 0]]" % HUGE_INT, 2,
     "entries[1]: entries must be finite doubles"),
    (read_vector, "[[NaN, 0], [0, 0]]", 2, "entries[0]: entries must be finite doubles"),
    (read_vector, "[[0, 0], [0, Infinity]]", 2, "entries[1]: entries must be finite doubles"),
    (read_vector, "[[0, 0], [1, 0]]", 1, "entries: expected 1 pairs"),
    (read_vector, "[[false, 0], [1, 0]]", 2, "entries[0]: expected an [re, im] number pair"),
]
MALFORMED_IDS = [
    "m-string", "m-triple", "m-short-row", "m-row-not-list", "m-huge", "m-nan", "m-inf",
    "m-dim", "m-bool", "v-string", "v-triple", "v-not-pair", "v-huge", "v-nan", "v-inf",
    "v-dim", "v-bool",
]


# JSON allows trailing whitespace: a padded text takes the orjson decoder
PAD = " " * ORJSON_MIN_CHARS


class TestParserEquivalence:
    def test_exact_numbers_match_per_entry_complex(self, tmp_path, pad=""):
        # ints beyond 2**53 round once, as float(int) does; signed zero,
        # subnormal and extreme values survive bit for bit
        pairs = [[2**60 + 1, 10**30], [-0.0, 5e-324], [1e300, -(2**53 + 1)], [3, -0.0]]
        mat, vec = tmp_path / "m.json", tmp_path / "v.json"
        mat.write_text(json.dumps({"dim": 2, "entries": [pairs[:2], pairs[2:]]}) + pad)
        vec.write_text(json.dumps({"dim": 4, "entries": pairs}) + pad)
        want = np.array([complex(re, im) for re, im in pairs])
        got_mat, _ = read_matrix(str(mat))
        assert got_mat.ravel().view(np.uint64).tolist() == want.view(np.uint64).tolist()
        got_vec = read_vector(str(vec))
        assert got_vec.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_exact_numbers_match_per_entry_complex_padded(self, tmp_path):
        self.test_exact_numbers_match_per_entry_complex(tmp_path, PAD)

    @pytest.mark.parametrize("reader, entries, dim, message", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_file_message(self, tmp_path, reader, entries, dim, message, pad=""):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": %d, "entries": %s}' % (dim, entries) + pad)
        with pytest.raises(FileFormatError) as exc:
            reader(str(path))
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("reader, entries, dim, message", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_file_message_padded(self, tmp_path, reader, entries, dim, message):
        self.test_malformed_file_message(tmp_path, reader, entries, dim, message, PAD)

    def test_integer_beyond_64_bits_is_a_double_in_a_large_text(self, tmp_path):
        # the one known difference of the two decoders: orjson reads such an
        # integer as its nearest double, json.loads as an int
        path = tmp_path / "n.json"
        path.write_text("18446744073709551616")
        small = read_json(str(path))
        assert small == 2**64 and type(small) is int
        path.write_text("18446744073709551616" + PAD)
        assert repr(read_json(str(path))) == "1.8446744073709552e+19"
        # so a huge dim fails on a different check; both exit 2
        text = '{"dim": 18446744073709551616, "entries": [[[0, 0]]]}'
        path.write_text(text)
        with pytest.raises(FileFormatError, match="entries: expected 18446744073709551616 rows"):
            read_matrix(str(path))
        path.write_text(text + PAD)
        with pytest.raises(FileFormatError, match="dim: expected a positive integer"):
            read_matrix(str(path))


finite = st.floats(allow_nan=False, allow_infinity=False)
BAD_CELLS = ["1.0", None, [1.0], [1.0, 2.0, 3.0], [True, 0.0], [float("nan"), 0.0], [0.0, "x"]]


@st.composite
def matrices(draw):
    d = draw(st.integers(1, 5))
    parts = draw(st.lists(finite, min_size=2 * d * d, max_size=2 * d * d))
    return np.array(parts).view(complex).reshape(d, d)


@settings(max_examples=60, deadline=None)
@given(mat=matrices())
def test_random_matrix_round_trips_exactly(tmp_path_factory, mat):
    path = str(tmp_path_factory.mktemp("rt") / "m.json")
    write_matrix(path, mat)
    back, _ = read_matrix(path)
    assert back.view(np.uint64).tolist() == mat.view(np.uint64).tolist()


@settings(max_examples=30, deadline=None)
@given(mat=matrices())
def test_random_matrix_round_trips_exactly_padded(tmp_path_factory, mat):
    path = tmp_path_factory.mktemp("rt") / "m.json"
    write_matrix(str(path), mat)
    path.write_text(path.read_text() + PAD)
    back, _ = read_matrix(str(path))
    assert back.view(np.uint64).tolist() == mat.view(np.uint64).tolist()


_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # subnormals, -0.0
    st.integers(-(2**63), 2**64 - 1).map(str),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", '"\\ud800"', '"x"']),
)


def _same(a, b) -> bool:
    """Equal values of equal types, floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tokens=st.lists(_TOKENS, max_size=12), cut=st.none() | st.integers(0, 200))
def test_large_texts_decode_as_json_loads_does(tmp_path_factory, tokens, cut):
    text = "[" + ", ".join(tokens) + "]"
    if cut is not None:
        text = text[:cut]  # a truncated document when the cut falls inside
    path = tmp_path_factory.mktemp("js") / "t.json"
    path.write_text(text + PAD, encoding="utf-8")
    try:
        want = json.loads(text)
    except json.JSONDecodeError as exc:
        with pytest.raises(FileFormatError) as err:
            read_json(str(path))
        assert str(err.value) == f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"
    else:
        assert _same(read_json(str(path)), want)


@settings(max_examples=60, deadline=None)
@given(mat=matrices(), data=st.data())
def test_corrupted_entry_reported_at_its_index(tmp_path_factory, mat, data):
    d = mat.shape[0]
    i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    entries = np.stack([mat.real, mat.imag], -1).tolist()
    entries[i][j] = data.draw(st.sampled_from(BAD_CELLS))
    path = tmp_path_factory.mktemp("bad") / "m.json"
    path.write_text(json.dumps({"dim": d, "entries": entries}))
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: entries[{i}][{j}]: ")):
        read_matrix(str(path))
