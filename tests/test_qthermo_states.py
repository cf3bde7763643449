"""State/operator validation, PSD repair, and the matrix file format."""

import functools
import io
import json
import os
import random
import re
import types

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _random_states import random_density, random_hermitian
from physcomp import units as units_module
from physcomp.cli.main import run
from physcomp.errors import FileFormatError, InvalidState, NumericalOverflow
from physcomp.units import LARGE_FILE_BYTES, NAT, read_json
from physcomp.qthermo import (
    DensityMatrix,
    HermitianOperator,
    StateVector,
    load_density,
    load_hamiltonian,
    load_state_vector,
    read_matrix,
    read_vector,
    von_neumann_entropy,
    write_matrix,
    write_vector,
)
from physcomp.qthermo import filecache, states


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
        with pytest.raises(NumericalOverflow, match="eigenvalue"):
            h.eigenvalues()
        vals, _ = HermitianOperator(np.zeros((2, 2))).eigensystem()
        assert list(vals) == [0.0, 0.0]

    def test_eigensystem_cached_and_sorted(self):
        h = HermitianOperator(np.diag([3.0, -1.0, 2.0]))
        vals, vecs = h.eigensystem()
        assert list(vals) == [-1.0, 2.0, 3.0]
        assert h.eigensystem() is h.eigensystem()

    @pytest.mark.parametrize("seed", range(8))
    def test_each_spectrum_has_one_source(self, seed):
        # eigenvalues() is eigvalsh's and eigensystem() eigh's, whichever
        # ran first; the two routines can differ in the last digits
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, int(rng.integers(3, 65))).matrix
        first, second = HermitianOperator(m), HermitianOperator(m)
        vals = first.eigenvalues()
        second.eigensystem()
        assert second.eigenvalues().tobytes() == vals.tobytes()
        assert vals.tobytes() == np.linalg.eigvalsh(m).tobytes()
        assert first.eigensystem()[0].tobytes() == second.eigensystem()[0].tobytes()


class TestDensityMatrix:
    def test_trace_must_be_one(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_small_negative_eigenvalue_repaired(self):
        eps = 5e-10
        rho = DensityMatrix(np.diag([1.0 + eps, -eps]))
        assert rho.probabilities.min() == 0.0
        assert rho.probabilities.sum() == pytest.approx(1.0, abs=1e-15)

    def test_matrix_is_the_input_over_its_trace(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = a @ a.conj().T
        m = 0.5 * (m + m.conj().T)  # Hermitian to the bit
        m *= (1.0 + 1e-10) / m.trace().real  # a trace within tolerance of, not at, 1
        rho = DensityMatrix(m)
        assert np.array_equal(rho.matrix, m / m.trace().real)

    def test_large_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.diag([1.1, -0.1]))

    def test_from_spectrum_keeps_probabilities(self):
        # sigma_x: eigenvalues -1, +1 with eigenvectors (1, -1)/sqrt2, (1, 1)/sqrt2
        sigma_x = HermitianOperator([[0.0, 1.0], [1.0, 0.0]])
        rho = DensityMatrix.from_spectrum([0.25, 0.75], sigma_x)
        assert list(rho.probabilities) == [0.25, 0.75]
        assert np.allclose(rho.matrix, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)

    @pytest.mark.parametrize(
        "probs", [[1.1, -0.1], [0.6, 0.6], [1.0]], ids=["negative", "trace", "shape"]
    )
    def test_from_spectrum_checks_invariants(self, probs):
        with pytest.raises(InvalidState):
            DensityMatrix.from_spectrum(probs, HermitianOperator(np.eye(2)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 12))
def test_spectrum_matches_an_eigh_oracle(seed, d):
    rho = random_density(np.random.default_rng(seed), d)
    vals = np.linalg.eigh(rho.matrix)[0]
    want = vals / vals.sum()
    assert np.allclose(rho.probabilities, want, rtol=0.0, atol=1e-12)
    nz = want[want > 0.0]
    s = von_neumann_entropy(rho).value_in(NAT)
    assert s == pytest.approx(float(-(nz * np.log(nz)).sum()), rel=0.0, abs=1e-12)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(InvalidState):
            StateVector([1.0, 1.0])

    @pytest.mark.parametrize("amplitudes, message", [
        ([[1.0, 0.0]], r"must be 1-d, got shape \(1, 2\)"),
        ([], r"must be 1-d, got shape \(0,\)"),
        ([np.nan, 1.0], "non-finite amplitudes"),
        ([complex(0, np.inf)], "non-finite amplitudes"),
    ], ids=["2-d", "empty", "nan", "inf"])
    def test_shape_and_finiteness_enforced(self, amplitudes, message):
        with pytest.raises(InvalidState, match=message):
            StateVector(amplitudes)


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

    @pytest.mark.parametrize("unit", ["J", "eV", ""])
    @pytest.mark.parametrize("size", ["small", "large"])
    def test_vector_file_rejects_units(self, tmp_path, monkeypatch, unit, size):
        # a large file is decoded on both reads: a refused file is never stored
        cache = tmp_path / "cache"
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        path = tmp_path / "psi.vec"
        pad = " " * LARGE_FILE_BYTES if size == "large" else ""
        path.write_text('{"dim": 2, "entries": [[1, 0], [0, 0]], "units": "%s"}%s' % (unit, pad))
        for _ in range(2):
            with pytest.raises(FileFormatError) as exc:
                read_vector(str(path))
            assert str(exc.value) == f"{path}: units: states are dimensionless"
        assert list(cache.glob("physcomp/*")) == []

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


# JSON allows trailing whitespace: a padded file takes the orjson decoder
PAD = " " * LARGE_FILE_BYTES


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


class _Raw(str):
    """A JSON token written as it is: json.dumps cannot write 1e400 or NaN."""


def _dump(x) -> str:
    if isinstance(x, _Raw):
        return str(x)
    if isinstance(x, list):
        return "[" + ", ".join(map(_dump, x)) + "]"
    return json.dumps(x)


# what a defect puts in place of an entry, a pair or a row; a wrong length
# is the other defect
BAD_NODES = [{"re": 0.0}, "0.5", True, False, 10**400, -(10**400),
             _Raw("1e400"), _Raw("-1e400"), _Raw("NaN")]
POSITIONED = r"entries(\[\d+\])*: (expected .+|entries must be finite doubles)"


def _valid(rng, depth: int, ndim: int, dim: int):
    if depth == ndim:
        return [rng.choice([rng.uniform(-1, 1), rng.randint(-3, 3)]) for _ in range(2)]
    return [_valid(rng, depth + 1, ndim, dim) for _ in range(dim)]


def _slots(parent, key, depth: int):
    """Every (container, key, depth) under and including parent[key]."""
    yield parent, key, depth
    if isinstance(parent[key], list):
        for i in range(len(parent[key])):
            yield from _slots(parent[key], i, depth + 1)


def _add_defect(rng, doc: dict, ndim: int) -> None:
    parent, key, depth = rng.choice(list(_slots(doc, "entries", 0)))
    node = parent[key]
    if not isinstance(node, list) or rng.random() < 0.5:
        parent[key] = rng.choice(BAD_NODES)
        return
    want = doc["dim"] if depth < ndim else 2
    size = rng.choice([n for n in range(want + 3) if n != want])
    del node[size:]
    while len(node) < size:
        node.append(_valid(rng, depth + 1, ndim, doc["dim"]) if depth < ndim else 0.5)


@pytest.mark.parametrize("seed", range(8))
def test_the_two_entry_walkers_agree(tmp_path, seed):
    # _pair_array refuses a file without saying why and _check_entries names
    # the first bad entry; each file one refuses, the other must refuse with
    # a positioned message, or the reader would pass on a None array
    rng = random.Random(seed)
    path = tmp_path / "bad.json"
    for _ in range(50):
        ndim, dim = rng.choice([1, 2]), rng.randint(1, 4)
        doc = {"dim": dim, "entries": _valid(rng, 0, ndim, dim)}
        for _ in range(rng.randint(1, 3)):
            _add_defect(rng, doc, ndim)
        path.write_text('{"dim": %d, "entries": %s}' % (dim, _dump(doc["entries"])))
        entries = json.loads(path.read_text())["entries"]
        assert states._pair_array(entries, (dim,) * ndim) is None
        with pytest.raises(FileFormatError) as walked:
            states._check_entries(entries, ndim, dim, "entries", str(path))
        with pytest.raises(FileFormatError) as read:
            (read_matrix if ndim == 2 else read_vector)(str(path))
        assert str(read.value) == str(walked.value)
        assert re.fullmatch(re.escape(f"{path}: ") + POSITIONED, str(read.value))


class TestDecodedFileCache:
    """A matrix or vector file of LARGE_FILE_BYTES bytes or more is decoded
    once; later reads of the same bytes load the cached array."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        folder = tmp_path / "cache"
        monkeypatch.setenv("XDG_CACHE_HOME", str(folder))
        return folder / "physcomp"

    @pytest.fixture
    def decodes(self, monkeypatch):
        """The number of files the reader has decoded so far."""
        calls = []

        def counted(path, data=None):
            calls.append(path)
            return read_json(path, data)

        monkeypatch.setattr(states, "read_json", counted)
        return calls

    @pytest.fixture
    def ham(self, tmp_path):
        path = tmp_path / "h.json"
        h = random_hermitian(np.random.default_rng(96), 96, scale=1e-21)
        write_matrix(str(path), h.matrix, units="J")
        assert path.stat().st_size >= LARGE_FILE_BYTES
        return path

    @staticmethod
    def _bits(arr):
        return arr.shape, arr.view(np.uint64).tobytes()

    def test_second_read_is_bit_identical_and_decodes_nothing(self, cache, ham, monkeypatch):
        first, units = read_matrix(str(ham))
        assert cache.stat().st_mode & 0o777 == 0o700

        def refuse(*args, **kwargs):
            raise AssertionError("decoded a cached file")

        for module, name in ((states, "read_json"), (orjson, "loads"), (json, "loads")):
            monkeypatch.setattr(module, name, refuse)
        again, units_again = read_matrix(str(ham))
        assert self._bits(again) == self._bits(first)
        assert units_again == units == "J"

    def test_one_changed_byte_misses(self, cache, ham, decodes):
        first, _ = read_matrix(str(ham))
        text = ham.read_text()
        i = text.index("e-")  # the exponent of the first entry's value
        text = text[:i] + "e+" + text[i + 2:]
        ham.write_text(text)
        changed, _ = read_matrix(str(ham))
        assert len(decodes) == 2 and len(list(cache.iterdir())) == 2
        want = np.array(json.loads(text)["entries"]).view(complex)[..., 0]
        assert self._bits(changed) == self._bits(want)
        assert changed[0, 0] != first[0, 0]
        assert self._bits(changed.ravel()[1:]) == self._bits(first.ravel()[1:])

    def test_changed_reader_source_misses(self, cache, ham, decodes, monkeypatch):
        read_matrix(str(ham))
        monkeypatch.setattr(filecache, "_reader_digest", lambda: b"\0" * 32)
        read_matrix(str(ham))
        read_matrix(str(ham))
        assert len(decodes) == 2 and len(list(cache.iterdir())) == 2

    @pytest.mark.parametrize("module", [states, units_module, filecache],
                             ids=["states", "units", "filecache"])
    def test_each_reader_source_is_in_the_key(self, tmp_path, monkeypatch, module):
        # one more byte in any of the three sources gives every file a new key
        data = b" " * LARGE_FILE_BYTES
        before = filecache.key(data)
        changed = tmp_path / "changed.py"
        changed.write_bytes(units_module.read_bytes(module.__file__) + b"\n")
        monkeypatch.setattr(module, "__file__", str(changed))
        monkeypatch.setattr(filecache, "_reader_digest",
                            functools.cache(filecache._reader_digest.__wrapped__))
        assert filecache.key(data) != before

    def test_state_refused_for_its_units_still_serves_the_hamiltonian(self, cache, ham, decodes):
        # the same bytes are a valid --ham file, so the "J" matrix is stored
        with pytest.raises(FileFormatError) as exc:
            load_density(str(ham))
        assert str(exc.value) == f"{ham}: units: states are dimensionless"
        assert len(decodes) == 1 and len(list(cache.iterdir())) == 1
        assert load_hamiltonian(str(ham)).dim == 96
        assert len(decodes) == 1

    def test_vector_and_matrix_reads_do_not_share_entries(self, cache, tmp_path, decodes):
        path = tmp_path / "psi.json"
        write_vector(str(path), np.ones(2) / np.sqrt(2))
        path.write_text(path.read_text() + PAD)
        for _ in range(2):
            assert read_vector(str(path)).shape == (2,)
            with pytest.raises(FileFormatError, match="number pair"):
                read_matrix(str(path))
        assert len(decodes) == 3 and len(list(cache.iterdir())) == 1

    @pytest.mark.parametrize("damage", ["truncated", "one-value-changed", "units-dropped",
                                        "other-key", "complex64", "float64", "not-square", "flat",
                                        "empty", "fortran", "nan", "units-eV", "pickle"])
    def test_damaged_entry_is_ignored_and_rewritten(self, cache, ham, decodes, damage):
        first, _ = read_matrix(str(ham))
        (entry,) = cache.iterdir()
        good = entry.read_bytes()
        if damage == "truncated":
            entry.write_bytes(good[: len(good) // 2])
        elif damage == "one-value-changed":
            # still a well-formed entry of finite values: only the digest tells
            entry.write_bytes(good[:-1] + bytes([good[-1] ^ 1]))
            with entry.open("rb") as fh:
                fh.readline()
                assert np.isfinite(np.load(fh)).all()
        elif damage == "units-dropped":
            # the J tag removed: a Hamiltonian entry would pass for a state's
            entry.write_bytes(good.replace(b" J\n", b" \n", 1))
        elif damage == "other-key":
            # a whole entry, but stored under another file's key
            filecache.put("0" * 64, first * 2, "J")
            os.replace(cache / ("0" * 64), entry)
        elif damage == "pickle":
            with entry.open("wb") as fh:
                fh.write(good[: good.index(b"\n") + 1])
                np.save(fh, np.array([None] * 4, dtype=object), allow_pickle=True)
        else:
            # whole entries with a valid digest that no parse could have made
            bad = {
                "complex64": first.astype(np.complex64),
                "float64": first.real.copy(),
                "not-square": first[:-1],
                "flat": first.ravel(),
                "empty": first[:0, :0],
                "fortran": np.asfortranarray(first),
                "nan": np.where(np.eye(96, dtype=bool), np.nan, first),
                "units-eV": first,
            }[damage]
            filecache.put(entry.name, bad, "eV" if damage == "units-eV" else "J")
            assert entry.read_bytes() != good
        again, units = read_matrix(str(ham))
        assert self._bits(again) == self._bits(first) and units == "J"
        assert len(decodes) == 2
        assert entry.read_bytes() == good

    @pytest.mark.parametrize("owner", ["group-writable", "other-readable", "another-user"])
    def test_cache_directory_others_can_reach_is_not_used(self, cache, ham, decodes, monkeypatch,
                                                          owner):
        first, _ = read_matrix(str(ham))
        (entry,) = cache.iterdir()
        good = entry.read_bytes()
        if owner == "another-user":
            uid = os.getuid() + 1
            monkeypatch.setattr(os, "getuid", lambda: uid)
        else:
            cache.chmod(0o770 if owner == "group-writable" else 0o704)
        for _ in range(2):
            assert self._bits(read_matrix(str(ham))[0]) == self._bits(first)
        assert len(decodes) == 3
        assert list(cache.iterdir()) == [entry] and entry.read_bytes() == good

    def test_store_into_a_shared_directory_is_skipped(self, cache, ham, decodes):
        cache.mkdir(parents=True)
        cache.chmod(0o755)
        for _ in range(2):
            read_matrix(str(ham))
        assert len(decodes) == 2 and list(cache.iterdir()) == []

    def test_invalid_file_is_never_stored(self, cache, ham):
        ham.write_text(ham.read_text().replace('"entries": [[[', '"entries": [[["x", '))
        messages = []
        for _ in range(2):
            with pytest.raises(FileFormatError) as exc:
                read_matrix(str(ham))
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == f"{ham}: entries[0][0]: expected an [re, im] number pair"
        assert not cache.exists()

    def test_matrix_in_other_units_is_never_stored(self, cache, ham):
        ham.write_text(ham.read_text().replace('"units": "J"', '"units": "eV"'))
        for _ in range(2):
            with pytest.raises(FileFormatError, match='only "J" is supported'):
                read_matrix(str(ham))
        assert not cache.exists()

    def test_layouts_read_to_identical_bits_cold_and_warm(self, cache, tmp_path, decodes):
        rho = random_density(np.random.default_rng(97), 96).matrix
        obj = {"dim": 96, "entries": np.stack([rho.real, rho.imag], -1).tolist()}
        indented = json.dumps(obj, indent=2)
        layouts = {
            "compact.json": json.dumps(obj, separators=(",", ":")).encode(),
            "indented.json": indented.encode(),
            "crlf.json": indented.replace("\n", "\r\n").encode(),
        }
        reads = []
        for name, data in layouts.items():
            assert len(data) >= LARGE_FILE_BYTES
            (tmp_path / name).write_bytes(data)
            for _ in range(2):
                got, units = read_matrix(str(tmp_path / name))
                assert units is None
                reads.append(self._bits(got))
        assert reads == [self._bits(rho)] * 6
        assert len(decodes) == 3 and len(list(cache.iterdir())) == 3

    def test_store_evicts_least_recently_used(self, cache, tmp_path, monkeypatch):
        paths = []
        for i in range(3):
            path = tmp_path / f"h{i}.json"
            write_matrix(str(path), np.eye(96) * (i + 1), units="J")
            path.write_text(path.read_text() + PAD)
            paths.append(path)
        read_matrix(str(paths[0]))
        (entry,) = cache.iterdir()
        # room for two entries: the third store drops the oldest
        monkeypatch.setattr(filecache, "CACHE_MAX_BYTES", 2 * entry.stat().st_size)
        read_matrix(str(paths[1]))
        (second,) = set(cache.iterdir()) - {entry}
        os.utime(entry, (1, 1))
        os.utime(second, (2, 2))
        read_matrix(str(paths[0]))  # a hit: paths[0] is now the most recent
        read_matrix(str(paths[2]))
        kept = set(cache.iterdir())
        assert entry in kept and second not in kept and len(kept) == 2

    def test_small_files_skip_the_cache(self, cache, tmp_path):
        path = tmp_path / "h.json"
        write_matrix(str(path), np.eye(2), units="J")
        read_matrix(str(path))
        assert not cache.exists()

    def test_no_home_directory_skips_the_cache(self, tmp_path, ham, monkeypatch, decodes):
        # expanduser leaves "~" as it is when it finds no home directory
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setattr(os.path, "expanduser", lambda path: path)
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            assert read_matrix(str(ham))[0].shape == (96, 96)
        assert len(decodes) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.json"]

    def test_cache_home_naming_a_regular_file(self, tmp_path, ham, monkeypatch):
        argv = ["qt", "gibbs", "--ham", str(ham), "--temp", "300", "--format", "json"]
        results = []
        for home in ("cache", "cache", "file"):
            (tmp_path / "file").write_text("not a directory")
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / home))
            out, err = io.StringIO(), io.StringIO()
            results.append((run(argv, out, err), out.getvalue(), err.getvalue()))
        assert results[0] == results[1] == results[2]
        assert results[0][0] == 0 and results[0][2] == ""
        assert (tmp_path / "file").read_text() == "not a directory"


@pytest.mark.parametrize("case", ["not-utf8", "not-utf8-large", "missing", "directory"])
def test_cannot_read_message_is_the_text_readers(tmp_path, case):
    # a file is read once as bytes, then decoded as open(path,
    # encoding="utf-8") decodes it: the error names the same position
    path = tmp_path / "bad.json"
    if case.startswith("not-utf8"):
        pad = b" " * (LARGE_FILE_BYTES if case.endswith("large") else 3)
        path.write_bytes(b'{"dim": 1,' + pad + b'"units": "\xe9"}')
    elif case == "directory":
        path.mkdir()
    with pytest.raises((OSError, UnicodeDecodeError)) as want:
        with open(path, encoding="utf-8") as fh:
            fh.read()
    with pytest.raises(FileFormatError) as got:
        read_matrix(str(path))
    assert str(got.value) == f"{path}: cannot read: {want.value}"


@pytest.mark.parametrize("size", [0, LARGE_FILE_BYTES])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_invalid_json_line_is_the_text_readers(tmp_path, size, newline):
    # universal newlines: a lone CR ends a line as open() reads the file
    path = tmp_path / "bad.json"
    path.write_bytes(newline.join(['{"dim": 1,', '"entries": [[[0, 0]]],', " " * size + "oops}"]).encode())
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(fh.read())
    with pytest.raises(FileFormatError) as got:
        read_matrix(str(path))
    assert want.value.lineno == 3
    assert str(got.value) == f"{path}: invalid JSON at line 3: {want.value.msg}"


def test_valid_large_file_is_never_decoded_as_text(tmp_path, monkeypatch):
    # orjson reads the bytes themselves; only a file it refuses becomes text
    path = tmp_path / "h.json"
    write_matrix(str(path), random_hermitian(np.random.default_rng(98), 96, scale=1e-21).matrix,
                 units="J")
    assert path.stat().st_size >= LARGE_FILE_BYTES
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "first"))
    want, _ = read_matrix(str(path))

    def refuse(*args, **kwargs):
        raise AssertionError("decoded a large file as text")

    monkeypatch.setattr(units_module, "io", types.SimpleNamespace(BytesIO=io.BytesIO,
                                                                  TextIOWrapper=refuse))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
    got, units = read_matrix(str(path))
    assert units == "J"
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
