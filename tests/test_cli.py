"""CLI surface: subcommands, formats, determinism, exit codes, files."""

import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from physcomp.cli import main, run
from physcomp.cli.report import render_csv, render_json
from physcomp.qthermo import read_matrix, write_matrix, write_vector


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def two_level(tmp_path):
    """H = diag(0, 1) J plus its ground state, as files."""
    ham = str(tmp_path / "twolevel.mat")
    ground = str(tmp_path / "ground.mat")
    write_matrix(ham, np.diag([0.0, 1.0]), units="J")
    write_matrix(ground, np.diag([1.0, 0.0]))
    return ham, ground


class TestReports:
    def test_bh_solar_lifetime(self):
        code, out, err = invoke("bh", "--mass", "1", "--unit", "solar", "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        rows = {r["name"]: r for r in doc["results"]}
        years = rows["lifetime_years"]["value"]
        assert abs(years - 2.140e67) / 2.140e67 < 0.05
        assert rows["lifetime_years"]["unit"] == "yr"
        assert all(r["formula"] for r in doc["results"])

    def test_measure_binary_entropy_half(self):
        code, out, _ = invoke("measure", "binary-entropy", "--eps", "0.5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["value"] == 1
        assert doc["results"][0]["unit"] == "bit"

    def test_qt_work_ground_state(self, two_level):
        ham, ground = two_level
        code, out, _ = invoke(
            "qt", "work", "--ham", ham, "--state", ground,
            "--ktemp-joules", "1.0", "--format", "json",
        )
        assert code == 0
        rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        assert rows["extractable_work"] == pytest.approx(0.31326168751822286, rel=1e-9)

    def test_qt_solve_temp(self, two_level):
        ham, _ = two_level
        code, out, _ = invoke(
            "qt", "solve-temp", "--ham", ham, "--energy", "0.25", "--format", "json"
        )
        assert code == 0
        rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        k_b = 1.380649e-23
        assert rows["temperature"] * k_b == pytest.approx(0.9102392266268373, rel=1e-8)

    def test_qt_evolve_and_save(self, two_level, tmp_path):
        ham = str(tmp_path / "flip.mat")
        write_matrix(ham, [[0.0, -1.0], [-1.0, 0.0]], units="J")
        vec = str(tmp_path / "zero.vec")
        write_vector(vec, np.array([1.0 + 0j, 0.0]))
        saved = str(tmp_path / "out.vec")
        t_flip = 3.141592653589793 * 1.054571817e-34 / 2.0
        code, out, _ = invoke(
            "qt", "evolve", "--ham", ham, "--time", repr(t_flip),
            "--state-vector", vec, "--save-vector", saved, "--format", "json",
        )
        assert code == 0
        rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        assert rows["probability_1"] == pytest.approx(1.0, abs=1e-10)
        # the saved vector is a vector file; feeding it where a density
        # matrix is expected must fail cleanly with a positioned message
        code2, _, err2 = invoke("qt", "entropy", "--state", saved)
        assert code2 == 2
        assert "entries" in err2

    def test_constants_subcommand(self):
        code, out, _ = invoke("constants", "--format", "json")
        rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        assert rows["c"] == 299792458
        assert rows["hbar"] == 1.054571817e-34

    def test_assembly_subcommand(self):
        code, out, _ = invoke("assembly", "--target", "abab", "--basis", "ab", "--format", "json")
        assert code == 0
        rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        assert rows["assembly_index"] == 2
        assert rows["step_0"] == "a+b"

    def test_assembly_pathway_file_flow(self, tmp_path):
        pathway = str(tmp_path / "p.json")
        code, _, _ = invoke(
            "assembly", "--target", "aaaa", "--basis", "a", "--save-pathway", pathway
        )
        assert code == 0
        # annotate the saved pathway with energies, then total them
        doc = json.loads(open(pathway).read())
        doc["free_energy_joules"] = [2.0, 3.0]
        open(pathway, "w").write(json.dumps(doc))
        code, out, _ = invoke("assembly", "--pathway", pathway, "--format", "json")
        assert code == 0
        rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        assert rows["pathway_free_phi"] == 5.0

    def test_catalog_list_and_compare(self):
        code, out, _ = invoke("catalog", "list", "--format", "json")
        assert code == 0
        names = {r["name"] for r in json.loads(out)["results"]}
        assert "5nm-transistor.energy_per_op" in names
        code, out, _ = invoke("catalog", "compare", "--temp", "300", "--format", "json")
        rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        assert 1e4 <= rows["5nm-transistor.inefficiency"] <= 1e6


class TestTimeline:
    def test_csv_on_stdout(self):
        code, out, _ = invoke("bh", "timeline", "--mass", "1e6", "--samples", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t_seconds,mass_kg,hole_entropy_bits,radiation_entropy_bits"
        assert len(lines) == 6

    def test_csv_to_file(self, tmp_path):
        out_file = str(tmp_path / "curve.csv")
        code, out, _ = invoke(
            "bh", "page-curve", "--mass", "1e6", "--samples", "4", "--out", out_file
        )
        assert code == 0 and out == ""
        lines = open(out_file).read().strip().split("\n")
        assert len(lines) == 5

    def test_sweep(self):
        code, out, _ = invoke("bh", "--sweep", "1:100:3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("mass_kg,")
        assert len(lines) == 4
        masses = [float(l.split(",")[0]) for l in lines[1:]]
        assert masses == pytest.approx([1.0, 10.0, 100.0])

    def test_bad_sweep_spec(self):
        code, _, err = invoke("bh", "--sweep", "10:1:3")
        assert code == 2 and "sweep" in err.lower()


class TestDeterminismAndRoundTrip:
    def test_byte_identical_reruns(self):
        for argv in (
            ["bh", "--mass", "2.5", "--format", "json"],
            ["bh", "--mass", "2.5", "--format", "csv"],
            ["bh", "--mass", "2.5", "--format", "human"],
            ["catalog", "compare", "--format", "json"],
            ["bh", "timeline", "--mass", "1e6", "--samples", "7"],
        ):
            _, first, _ = invoke(*argv)
            _, second, _ = invoke(*argv)
            assert first == second

    def test_json_round_trip_bytes(self):
        _, out, _ = invoke("bh", "--mass", "3.7", "--format", "json")
        assert render_json(json.loads(out)) == out

    def test_csv_round_trip_values(self):
        _, out, _ = invoke("bh", "--mass", "3.7", "--format", "csv")
        lines = out.strip().split("\n")
        doc = {
            "results": [
                dict(zip(("name", "value", "unit", "formula"),
                         (n, float(v), u, f)))
                for n, v, u, f in (line.split(",") for line in lines[1:])
            ]
        }
        assert render_csv(doc) == out

    def test_constants_override_flag(self, tmp_path):
        override = tmp_path / "c.json"
        override.write_text(json.dumps({"solar_mass": 2.0e30}))
        _, out, _ = invoke(
            "bh", "--mass", "1", "--unit", "solar",
            "--constants", str(override), "--format", "json",
        )
        rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        assert rows["mass"] == 2.0e30


class TestExitCodes:
    def test_invalid_input_is_2(self):
        code, _, err = invoke("measure", "phi-time", "--energy", "-1", "--time", "1")
        assert code == 2
        assert "phi_time" in err and "Traceback" not in err

    def test_argparse_error_is_2(self):
        code, _, _ = invoke("measure", "phi-time", "--energy", "oops", "--time", "1")
        assert code == 2

    def test_unknown_subcommand_is_2(self):
        code, _, _ = invoke("warp-drive")
        assert code == 2

    def test_missing_file_is_2(self, tmp_path):
        code, _, err = invoke("qt", "entropy", "--state", str(tmp_path / "nope.mat"))
        assert code == 2
        assert "nope.mat" in err

    def test_numerical_failure_is_3(self):
        # (1/2) C V^2 with V = 1e200 V is past the double range
        code, out, err = invoke("catalog", "compare", "--capacitance", "1", "--volts", "1e200")
        assert out == ""
        _assert_one_line_error(code, err, "C*V^2/2", "overflows", exit_code=3)

    def test_conflicting_temperature_flags(self, two_level):
        ham, ground = two_level
        code, _, err = invoke(
            "qt", "work", "--ham", ham, "--state", ground,
            "--temp", "1", "--ktemp-joules", "1",
        )
        assert code == 2
        assert "exactly one" in err

    @pytest.mark.parametrize("op", ["work", "spread", "evolve"])
    def test_state_of_another_dimension_is_2(self, two_level, tmp_path, op):
        ham, _ = two_level
        state = str(tmp_path / "three.mat")
        if op == "evolve":
            write_vector(state, np.eye(3)[0])
            argv = ["--time", "1", "--state-vector", state]
        else:
            write_matrix(state, np.eye(3) / 3)
            argv = ["--state", state, *(["--temp", "300"] if op == "work" else [])]
        code, out, err = invoke("qt", op, "--ham", ham, *argv)
        assert out == ""
        _assert_one_line_error(code, err, "dimension 2", "dimension 3")

    @pytest.mark.parametrize(
        "argv",
        [
            ["bh", "timeline", "--mass", "1e3", "--samples", "3", "--out"],
            ["bh", "--sweep", "1:10:2", "--out"],
            ["assembly", "--target", "abab", "--basis", "ab", "--save-pathway"],
        ],
    )
    def test_unwritable_output_is_2(self, tmp_path, argv):
        path = str(tmp_path / "missing" / "out")
        code, out, err = invoke(*argv, path)
        assert out == ""
        _assert_one_line_error(code, err, f"{path}: cannot write:")


# a JSON integer beyond the double range: math.isfinite raises OverflowError on it
HUGE_INT = "1" + "0" * 400


def _assert_one_line_error(code, err, *fragments, exit_code=2):
    assert code == exit_code
    assert "Traceback" not in err and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


class TestOversizedIntegers:
    def test_matrix_file(self, tmp_path):
        path = tmp_path / "rho.mat"
        path.write_text('{"dim": 1, "entries": [[[%s, 0]]]}' % HUGE_INT)
        code, _, err = invoke("qt", "entropy", "--state", str(path))
        _assert_one_line_error(code, err, str(path), "entries[0][0]")

    def test_pathway_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            '{"basis": "a", "steps": [["a", "a"]], "free_energy_joules": [%s]}' % HUGE_INT
        )
        code, _, err = invoke("assembly", "--pathway", str(path))
        _assert_one_line_error(code, err, str(path), "free_energy_joules[0]")

    def test_constants_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"G": %s}' % HUGE_INT)
        code, _, err = invoke("constants", "--constants", str(path))
        _assert_one_line_error(code, err, str(path), "G")


class TestBooleans:
    """JSON true/false are not numbers, though Python counts bool as int."""

    def test_matrix_file(self, tmp_path):
        path = tmp_path / "rho.mat"
        path.write_text('{"dim": 1, "entries": [[[true, false]]]}')
        code, _, err = invoke("qt", "entropy", "--state", str(path))
        _assert_one_line_error(code, err, str(path), "entries[0][0]")

    def test_constants_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"G": true}')
        code, _, err = invoke("constants", "--constants", str(path))
        _assert_one_line_error(code, err, str(path), "G")


class TestNotUtf8:
    """A file that does not decode as UTF-8 is a malformed file."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        return str(path)

    def test_matrix_file(self, path):
        code, _, err = invoke("qt", "entropy", "--state", path)
        _assert_one_line_error(code, err, path, "cannot read")

    def test_constants_file(self, path):
        code, _, err = invoke("constants", "--constants", path)
        _assert_one_line_error(code, err, path, "cannot read")

    def test_pathway_file(self, path):
        code, _, err = invoke("assembly", "--pathway", path)
        _assert_one_line_error(code, err, path, "cannot read")


class TestFlagPlacement:
    """--format and --constants belong to the operation, not to measure or qt."""

    @pytest.fixture
    def over(self, tmp_path):
        path = tmp_path / "over.json"
        path.write_text('{"hbar": 2.109143634e-34}')
        return str(path)

    def test_before_measure_op_is_2(self, over):
        code, out, _ = invoke("measure", "--format", "json", "ml-time", "--energy", "1")
        assert code == 2 and out == ""
        code, out, _ = invoke("measure", "--constants", over, "ml-time", "--energy", "1")
        assert code == 2 and out == ""

    def test_before_qt_op_is_2(self, over, two_level):
        _, ground = two_level
        code, out, _ = invoke("qt", "--constants", over, "entropy", "--state", ground)
        assert code == 2 and out == ""
        code, out, _ = invoke("qt", "--format", "json", "entropy", "--state", ground)
        assert code == 2 and out == ""

    def test_after_measure_op(self, over):
        code, out, _ = invoke(
            "measure", "ml-time", "--energy", "1", "--format", "json", "--constants", over
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["inputs"]["constants"] == f"file:{over}"
        # pi * hbar / 2 with the doubled hbar
        assert doc["results"][0]["value"] == pytest.approx(math.pi * 2.109143634e-34 / 2)

    def test_after_qt_op(self, over, two_level):
        _, ground = two_level
        code, out, _ = invoke(
            "qt", "entropy", "--state", ground, "--format", "json", "--constants", over
        )
        assert code == 0
        assert json.loads(out)["inputs"]["constants"] == f"file:{over}"


class TestIgnoredFlags:
    """A flag that would have no effect is refused, not dropped."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bh", "--mass", "1", "--samples", "5"], "--samples has no effect in report mode"),
            (["bh", "timeline", "--mass", "1", "--sweep", "1:2:2"], "--sweep has no effect in timeline mode"),
            (["bh", "page-curve", "--sweep", "1:2:2"], "--sweep has no effect in page-curve mode"),
            (["bh", "--sweep", "1:2:2", "--mass", "1"], "--mass has no effect with --sweep"),
            (["bh", "--sweep", "1:2:2", "--unit", "solar"], "--unit has no effect with --sweep"),
            (["bh", "--sweep", "1:2:2", "--samples", "5"], "--samples has no effect with --sweep"),
            (["catalog", "compare", "--capacitance", "1e-15"], "give both --capacitance and --volts"),
            (["catalog", "compare", "--volts", "0.8"], "give both --capacitance and --volts"),
            (["catalog", "list", "--temp", "77"], "--temp has no effect in list mode"),
            (["catalog", "list", "--power", "100"], "--power has no effect in list mode"),
            (["catalog", "list", "--capacitance", "1e-15"], "--capacitance has no effect in list mode"),
            (["catalog", "list", "--volts", "0.8"], "--volts has no effect in list mode"),
        ],
    )
    def test_refused(self, argv, message):
        code, out, err = invoke(*argv)
        assert out == ""
        _assert_one_line_error(code, err, message)

    def test_report_writes_no_file(self, tmp_path):
        out_file = tmp_path / "x.csv"
        code, out, err = invoke("bh", "--mass", "1", "--out", str(out_file))
        assert out == "" and not out_file.exists()
        _assert_one_line_error(code, err, "--out has no effect in report mode")

    @pytest.mark.parametrize(
        "extra", [["--target", "ab"], ["--basis", "ab"], ["--save-pathway", "w.json"]]
    )
    def test_pathway_takes_no_search_flags(self, tmp_path, extra):
        path = tmp_path / "p.json"
        path.write_text('{"basis": "ab", "steps": [["a", "b"]]}')
        code, out, err = invoke("assembly", "--pathway", str(path), *extra)
        assert out == ""
        _assert_one_line_error(code, err, f"{extra[0]} has no effect with --pathway")

    def test_defaults_still_apply(self):
        code, out, _ = invoke("bh", "timeline", "--mass", "1e3")
        assert code == 0 and len(out.splitlines()) == 101  # header and 100 samples
        code, out, _ = invoke("catalog", "compare", "--format", "json")
        assert code == 0 and json.loads(out)["inputs"] == {"temp": 300.0}


class TestOpCountOverflow:
    """2*E*t/(pi*hbar) beyond the double range: exit 3, never an "inf" report."""

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_phi_time(self, fmt):
        code, out, err = invoke(
            "measure", "phi-time", "--energy", "1e300", "--time", "1e10", "--format", fmt
        )
        assert out == ""
        _assert_one_line_error(code, err, "op count", "1e+300", exit_code=3)

    def test_free_phi(self):
        code, out, err = invoke("measure", "free-phi", "--delta-f", "1e300", "--time", "1e10")
        assert out == ""
        _assert_one_line_error(code, err, "op count", "1e+300", exit_code=3)

    def test_largest_finite_op_count_still_reports(self):
        # 1e300 J over 1e-10 s is ~3e323 ops, already past the double range
        code, out, _ = invoke(
            "measure", "phi-time", "--energy", "1e300", "--time", "1e-30", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["results"][0]["value"] == pytest.approx(6.0367607222674476e303)

    def test_energy_near_double_limit(self):
        # 2*E alone overflows here; the op count itself does not
        code, out, _ = invoke(
            "measure", "phi-time", "--energy", "1e308", "--time", "1e-50", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["results"][0]["value"] == pytest.approx(6.0367607222674471e291)


class TestFormulaOverflow:
    """Formula results beyond the double range: exit 3 naming the formula."""

    @pytest.mark.parametrize(
        "argv, formula",
        [
            (["measure", "landauer", "--temp", "1e300", "--bits", "1e300"], "n*k_B*T*ln2"),
            (
                ["catalog", "compare", "--power", "1e300", "--system", "landauer-300K"],
                "power/energy_per_op",
            ),
        ],
    )
    def test_exit_3(self, argv, formula):
        code, out, err = invoke(*argv)
        assert out == ""
        _assert_one_line_error(code, err, formula, "overflows", exit_code=3)


class TestPartitionFunctionGauge:
    """ln Z is kept; Z is reported only while it is a finite double."""

    @pytest.fixture
    def deep_ground(self, tmp_path):
        # 1 eV below the zero: at 1 K, ln Z = 11604.5
        ham = str(tmp_path / "deep.mat")
        write_matrix(ham, np.diag([-1.602176634e-19, 0.0]), units="J")
        return ham

    def test_gibbs_reports_log_z(self, deep_ground):
        code, out, _ = invoke("qt", "gibbs", "--ham", deep_ground, "--temp", "1", "--format", "json")
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)["results"]}
        assert "partition_function" not in rows
        assert rows["log_partition_function"]["value"] == pytest.approx(11604.518, rel=1e-7)
        assert rows["log_partition_function"]["formula"] == "ln(tr(exp(-H/(k_B*T))))"
        assert rows["f_eq"]["value"] == pytest.approx(-1.602176634e-19, rel=1e-12)

    def test_solve_temp_reports_log_z(self, tmp_path):
        ham = str(tmp_path / "shifted.mat")
        write_matrix(ham, np.diag([-1e-18, -1e-18 + 1e-21]), units="J")
        code, out, _ = invoke(
            "qt", "solve-temp", "--ham", ham, "--energy=-9.9975e-19", "--format", "json"
        )
        assert code == 0
        names = [r["name"] for r in json.loads(out)["results"]]
        assert names == ["temperature", "beta", "log_partition_function", "f_eq"]

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_f_eq_is_unsigned_zero(self, two_level, fmt):
        # ln Z rounds to 0 when the excited level is 1 J above
        ham, _ = two_level
        code, out, _ = invoke("qt", "gibbs", "--ham", ham, "--temp", "1", "--format", fmt)
        assert code == 0
        if fmt == "json":
            f_eq = next(r for r in json.loads(out)["results"] if r["name"] == "f_eq")
            assert '"value": -0' not in out and f_eq["value"] == 0
        else:
            assert next(line for line in out.splitlines() if line.startswith("f_eq ")).split()[1] == "0"


class TestLandauerFloorUnderflow:
    def test_compare_is_3(self):
        code, out, err = invoke("catalog", "compare", "--temp", "1e-320")
        assert out == ""
        _assert_one_line_error(code, err, "underflows", "1e-320", exit_code=3)

    def test_subnormal_floor_is_3(self):
        # k_B*T*ln2 is the subnormal 1e-323 J here: a quotient by it is 3.2 % off
        code, out, err = invoke("catalog", "compare", "--temp", "1e-300")
        assert out == ""
        _assert_one_line_error(code, err, "k_B*T*ln2", "underflows", "1e-300", exit_code=3)

    def test_normal_floor_still_reports(self):
        # k_B*T*ln2 = 9.6e-308 J is normal: the quotient is correctly rounded
        code, out, _ = invoke(
            "catalog", "compare", "--temp", "1e-284", "--system", "world-compute",
            "--format", "json",
        )
        assert code == 0
        value = json.loads(out)["results"][0]["value"]
        k_b = 1.380649e-23
        assert value == 1e-16 / (k_b * 1e-284 * math.log(2.0))
        exact = Fraction(1e-16) / (Fraction(k_b) * Fraction(1e-284) * Fraction(math.log(2.0)))
        assert abs(Fraction(value) / exact - 1) < 1e-15


class TestHugeMass:
    """Masses whose M^3 or (M/m_P)^2 leaves the double range: exit 3, no traceback."""

    def test_report(self):
        code, _, err = invoke("bh", "--mass", "1e120")
        _assert_one_line_error(code, err, "lifetime", "1e+120", exit_code=3)

    def test_report_entropy(self):
        code, _, err = invoke("bh", "--mass", "1e150", "--format", "json")
        _assert_one_line_error(code, err, "entropy", "1e+150", exit_code=3)

    def test_sweep(self):
        # two points: 1e120 kg is the first to fail, past the op-count overflow
        code, out, err = invoke("bh", "--sweep", "1e3:1e120:2")
        assert out == ""
        _assert_one_line_error(code, err, "lifetime", exit_code=3)

    def test_page_curve(self, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, _, err = invoke(
            "bh", "page-curve", "--mass", "1e120", "--samples", "5", "--out", str(out_file)
        )
        _assert_one_line_error(code, err, "lifetime", exit_code=3)
        assert not out_file.exists()

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_report_op_count(self, fmt):
        code, out, err = invoke("bh", "--mass", "1e70", "--format", fmt)
        assert out == ""
        _assert_one_line_error(code, err, "op count", "1e+70", exit_code=3)

    def test_sweep_op_count(self):
        code, out, err = invoke("bh", "--sweep", "1e60:1e70:3")
        assert out == ""
        _assert_one_line_error(code, err, "op count", exit_code=3)

    def test_largest_finite_op_count_still_reports(self):
        code, out, _ = invoke("bh", "--mass", "1e67", "--format", "json")
        assert code == 0
        values = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        assert values["total_ops"] > 1e300
        assert 0.0 < values["max_error_rate"] < 0.5


class TestTinyMass:
    """Masses whose lifetime underflows to 0 or to a subnormal: exit 3, no traceback."""

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_report(self, fmt):
        code, out, err = invoke("bh", "--mass", "1e-105", "--format", fmt)
        assert out == ""
        _assert_one_line_error(code, err, "lifetime", "1e-105", exit_code=3)

    @pytest.mark.parametrize("mode", ["timeline", "page-curve"])
    def test_curves(self, mode, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, out, err = invoke(
            "bh", mode, "--mass", "1e-105", "--samples", "3", "--out", str(out_file)
        )
        assert out == ""
        _assert_one_line_error(code, err, "lifetime", "1e-105", exit_code=3)
        assert not out_file.exists()

    @pytest.mark.parametrize("mode", ["report", "timeline"])
    def test_subnormal_lifetime(self, mode):
        # t_M = 4.94e-324 s, a single significant bit
        samples = ["--samples", "6"] if mode == "timeline" else []
        code, out, err = invoke("bh", mode, "--mass", "4e-103", *samples)
        assert out == ""
        _assert_one_line_error(code, err, "lifetime", "4e-103", exit_code=3)

    def test_subnormal_op_count(self):
        # the lifetime is still normal here; total_ops = 0 (1e-86 kg: 4.6e-310)
        code, out, err = invoke("bh", "--mass", "1e-97")
        assert out == ""
        _assert_one_line_error(code, err, "op count", "1e-97", exit_code=3)

    def test_subnormal_op_count_sweep(self):
        code, out, err = invoke("bh", "--sweep", "1e-97:1e-80:3")
        assert out == ""
        _assert_one_line_error(code, err, "op count", exit_code=3)

    def test_smallest_normal_op_count_still_reports(self):
        code, out, _ = invoke("bh", "--mass", "1e-85", "--format", "json")
        assert code == 0
        values = [r["value"] for r in json.loads(out)["results"]]
        assert all(abs(v) >= sys.float_info.min for v in values)


class TestResultRange:
    """Every formula and unit conversion the CLI runs obeys units.in_range."""

    @pytest.mark.parametrize(
        "argv, formula",
        [
            (["bh", "--mass", "1e300", "--unit", "solar"], "mass*solar_mass"),
            (["bh", "--mass", "1e-320", "--unit", "planck"], "mass*planck_mass"),
            (["measure", "ml-time", "--energy", "1e300", "--energy-unit", "eV"], "pi*hbar/(2*E)"),
            (["measure", "ml-time", "--energy", "1e308"], "pi*hbar/(2*E)"),
            (
                ["measure", "ml-time", "--energy", "1e-310", "--energy-unit", "eV"],
                "energy*electron_volt",
            ),
            (["measure", "landauer", "--temp", "1e-320", "--bits", "1"], "n*k_B*T*ln2"),
            (["measure", "ec-space", "--ops", "1e-300", "--eps", "1e-20"], "t*h(eps)"),
            (["catalog", "compare", "--temp", "1e-300"], "k_B*T*ln2"),
        ],
    )
    def test_exit_3(self, argv, formula):
        code, out, err = invoke(*argv)
        assert out == ""
        _assert_one_line_error(code, err, formula, exit_code=3)

    def test_ktemp_joules_conversion(self, two_level):
        ham, _ = two_level
        code, out, err = invoke("qt", "gibbs", "--ham", ham, "--ktemp-joules", "1e300")
        assert out == ""
        _assert_one_line_error(code, err, "--ktemp-joules/k_B", "1e+300", exit_code=3)

    @pytest.mark.parametrize("op", ["gibbs", "work"])
    @pytest.mark.parametrize(
        "temp", [("--temp", "1e-310"), ("--temp", "1e-300"), ("--ktemp-joules", "1e-320")]
    )
    def test_k_b_t_below_normal_is_3(self, two_level, op, temp):
        ham, ground = two_level
        state = ["--state", ground] if op == "work" else []
        code, out, err = invoke("qt", op, "--ham", ham, *state, *temp)
        assert out == ""
        _assert_one_line_error(code, err, "k_B*T underflows", exit_code=3)

    def test_subnormal_partition_function_swaps_in_log_z(self, tmp_path):
        # ln Z = -720: Z = 2.03e-313 is subnormal
        ham = str(tmp_path / "h.mat")
        write_matrix(ham, np.diag([720 * 1.380649e-23 * 300, 1e-15]), units="J")
        code, out, _ = invoke("qt", "gibbs", "--ham", ham, "--temp", "300", "--format", "json")
        assert code == 0
        rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
        assert "partition_function" not in rows
        assert rows["log_partition_function"] == pytest.approx(-720.0, rel=1e-12)

    def test_spread_overflow_is_one_line(self, tmp_path):
        # eigenvalues 5e308 and 0 (four times), populations 1/5: the spread is 2e308 J
        ham, rho = str(tmp_path / "h.mat"), str(tmp_path / "rho.mat")
        write_matrix(ham, np.full((5, 5), 1e308), units="J")
        write_matrix(rho, np.eye(5) / 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = invoke("qt", "spread", "--ham", ham, "--state", rho)
        assert out == ""
        _assert_one_line_error(code, err, "sqrt(<H^2>-<H>^2)", "overflows", exit_code=3)

    @pytest.mark.parametrize(
        "h, rho, spread",
        [
            (np.array([[0.0, 1e200], [1e200, 0.0]]), np.diag([0.7, 0.3]), 1e200),
            # eigenvalues 0 and 2e308 J, each half populated
            (np.full((2, 2), 1e308), np.eye(2) / 2, 1e308),
        ],
        ids=["1e200-off-diagonal", "1e308-every-entry"],
    )
    def test_spread_is_a_double_where_h_squared_is_not(self, tmp_path, h, rho, spread):
        ham, state = str(tmp_path / "h.mat"), str(tmp_path / "rho.mat")
        write_matrix(ham, h, units="J")
        write_matrix(state, rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke("qt", "spread", "--ham", ham, "--state", state, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["results"][0]["value"] == pytest.approx(spread, rel=1e-14)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bh", "--mass", "inf"],
            ["bh", "--mass", "nan"],
            ["bh", "--mass=-inf", "--unit", "solar"],
            ["measure", "phi-time", "--energy", "nan", "--time", "1"],
            ["catalog", "compare", "--temp", "inf"],
            ["bh", "--sweep", "1:inf:3"],
            ["bh", "--sweep", "nan:1:3"],
        ],
    )
    def test_non_finite_flag_is_an_input_error(self, argv, capsys):
        code, out, err = invoke(*argv)
        assert code == 2 and out == ""
        # argparse writes its own message to sys.stderr
        message = err + capsys.readouterr().err
        assert "expected a finite number" in message or "STOP < inf" in message


class TestSignedZero:
    """-0 in, 0 out: JSON would read -0 back as the integer 0."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "landauer", "--temp", "300", "--bits", "-0"],
            ["measure", "ec-space", "--ops", "-0", "--eps", "0.1"],
            ["measure", "free-phi", "--delta-f", "-0"],
            ["catalog", "compare", "--power", "-0", "--system", "landauer-300K"],
            ["measure", "phi-time", "--energy", "-0", "--time", "1"],
        ],
    )
    @pytest.mark.parametrize("fmt", ["human", "json", "csv"])
    def test_no_minus_zero(self, argv, fmt):
        code, out, _ = invoke(*argv, "--format", fmt)
        assert code == 0
        assert "-0" not in out
        if fmt == "json":
            assert render_json(json.loads(out)) == out


_SCALARS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 1e16]),
    st.integers(),
    st.text(max_size=8),
)
_REPORTS = st.fixed_dictionaries(
    {
        "tool": st.just("physcomp"),
        "inputs": st.dictionaries(st.text(max_size=8), _SCALARS, max_size=4),
        "results": st.lists(
            st.fixed_dictionaries(
                {"name": st.text(max_size=8), "value": _SCALARS, "unit": st.text(max_size=3)}
            ),
            max_size=4,
        ),
        "warnings": st.lists(st.text(max_size=8), max_size=2),
    }
)


@settings(max_examples=80, deadline=None)
@given(report=_REPORTS)
@example(report={"tool": "physcomp", "inputs": {"e": -0.0}, "results": [], "warnings": []})
def test_report_json_re_renders_byte_identically(report):
    text = render_json(report)
    assert render_json(json.loads(text)) == text


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),  # nan and inf are written as NaN and Infinity
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]),
    st.text(max_size=6),
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
_CONSTANT_NAMES = ["hbar", "c", "G", "k_B", "planck_mass", "planck_length", "solar_mass",
                   "electron_volt", "seconds_per_year", "h"]
_CONSTANTS_FILES = st.one_of(
    _JSON,
    st.dictionaries(
        st.sampled_from(_CONSTANT_NAMES),
        st.one_of(st.floats(min_value=1e-320, max_value=1e308), _JSON_LEAVES),
        max_size=5,
    ),
)
_SYMBOLS = st.text(alphabet="ab", min_size=1, max_size=3)
_PATHWAY_FILES = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {"basis": st.one_of(st.just("ab"), _JSON_LEAVES)},
        optional={
            "steps": st.one_of(st.lists(st.lists(_SYMBOLS, max_size=3), max_size=4), _JSON),
            "target": st.one_of(_SYMBOLS, _JSON_LEAVES),
            "free_energy_joules": st.one_of(st.lists(_JSON_LEAVES, max_size=4), _JSON),
        },
    ),
)


def _assert_exit_0_or_one_line_error(argv, path, content, codes=(2,)):
    path.write_text(content, encoding="utf-8")
    code, out, err = invoke(*argv)
    assert code in (0, *codes), (content, err)
    if code != 0:
        assert out == ""
        _assert_one_line_error(code, err, exit_code=code)
    else:
        assert err == ""
    return code, err


@settings(max_examples=40, deadline=None)
@given(obj=_CONSTANTS_FILES)
@example(obj={"G": 1e-320})
@example(obj={"c": 1e300})
def test_fuzzed_constants_file(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("c") / "c.json"
    _assert_exit_0_or_one_line_error(["constants", "--constants", str(path)], path, json.dumps(obj))


@settings(max_examples=40, deadline=None)
@given(obj=_PATHWAY_FILES)
@example(obj={"basis": "ab", "steps": [["a", "b"]], "free_energy_joules": [1e308, 1e308]})
@example(obj={"basis": "ab", "steps": [["a", "b"], ["ab", "ab"]], "free_energy_joules": [1e308, 1e308]})
def test_fuzzed_pathway_file(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("p") / "p.json"
    argv = ["assembly", "--pathway", str(path)]
    code, err = _assert_exit_0_or_one_line_error(argv, path, json.dumps(obj), codes=(2, 3))
    if code == 3:  # only a free-energy sum that overflows
        assert "sum of step free energies overflows" in err


def test_pathway_free_energy_overflow_exits_3(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"basis": "ab", "steps": [["a", "b"], ["ab", "ab"]], "free_energy_joules": [1e308, 1e308]}')
    code, out, err = invoke("assembly", "--pathway", str(path))
    assert out == ""
    _assert_one_line_error(code, err, "sum of step free energies overflows", exit_code=3)


@pytest.mark.parametrize("op", ["gibbs", "work", "solve-temp", "evolve"])
def test_qt_on_a_spectrum_at_the_double_limit_exits_3(tmp_path, op):
    # every entry 1e308 J: the eigenvalues are 0 and 2e308 J
    ham, state, psi = (str(tmp_path / n) for n in ("h.json", "rho.json", "psi.json"))
    write_matrix(ham, np.full((2, 2), 1e308), units="J")
    write_matrix(state, np.eye(2) / 2)
    write_vector(psi, np.array([1.0, 0.0]))
    argv = {
        "gibbs": ["--ham", ham, "--temp", "1e300"],
        "work": ["--ham", ham, "--state", state, "--temp", "300"],
        "solve-temp": ["--ham", ham, "--energy", "1"],
        "evolve": ["--ham", ham, "--time", "1", "--state-vector", psi],
    }[op]
    code, out, err = invoke("qt", op, *argv)
    assert out == ""
    _assert_one_line_error(code, err, "numerical failure: ", exit_code=3)


@pytest.mark.parametrize("top", [1e307, 1e308])
def test_qt_on_a_finite_spectrum_near_the_double_limit(tmp_path, top):
    # H = diag(0, top) J loads; evolve needs the phase top * 1 s / hbar and
    # solve-temp a T near 1e327 K, both beyond a double, while W = F(rho) -
    # F_eq is a double although D(rho||rho_th) is not
    ham, state, psi, ground = (
        str(tmp_path / n) for n in ("h.json", "rho.json", "psi.json", "ground.json")
    )
    write_matrix(ham, np.diag([0.0, top]), units="J")
    write_matrix(state, np.eye(2) / 2)
    write_matrix(ground, np.diag([1.0, 0.0]))
    write_vector(psi, np.array([1.0, 0.0]))
    code, out, err = invoke("qt", "gibbs", "--ham", ham, "--temp", "300", "--format", "json")
    assert (code, err) == (0, "")
    rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert rows["mean_energy"] == 0.0 and rows["entropy"] == 0.0
    code, out, err = invoke(
        "qt", "work", "--ham", ham, "--state", state, "--temp", "300", "--format", "json"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["results"][0]["value"] == pytest.approx(top / 2, rel=1e-14)
    code, out, err = invoke("qt", "evolve", "--ham", ham, "--time", "1", "--state-vector", psi)
    assert out == ""
    _assert_one_line_error(code, err, "E*t/hbar overflows", exit_code=3)
    code, out, err = invoke("qt", "solve-temp", "--ham", ham, "--energy", "1")
    assert out == ""
    _assert_one_line_error(code, err, "k_B*beta underflows", exit_code=3)
    # the empty top level adds 0 to tr(rho ln rho_th), not -inf*0
    code, out, err = invoke(
        "qt", "work", "--ham", ham, "--state", ground, "--temp", "300", "--format", "json"
    )
    assert (code, err) == (0, "")
    assert [r["value"] for r in json.loads(out)["results"]] == [0.0, 0.0]
    code, out, err = invoke("qt", "spread", "--ham", ham, "--state", state, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"][0]["value"] == pytest.approx(top / 2, rel=1e-14)


def test_qt_work_on_a_spectrum_spanning_the_double_range(tmp_path):
    # H = diag(-1e308, 1e308) J: E_1 - E_0 overflows, so rho_th is the
    # ground state at any T, and W = tr(rho H) - E_0 - k_B T ln 2
    ham, half, top = (str(tmp_path / n) for n in ("h.json", "half.json", "top.json"))
    write_matrix(ham, np.diag([-1e308, 1e308]), units="J")
    write_matrix(half, np.eye(2) / 2)
    write_matrix(top, np.diag([0.0, 1.0]))
    code, out, err = invoke(
        "qt", "work", "--ham", ham, "--state", half, "--temp", "300", "--format", "json"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["results"][0]["value"] == 1e308
    # all weight on the top level: W = 2e308 J is not a double
    code, out, err = invoke("qt", "work", "--ham", ham, "--state", top, "--temp", "300")
    assert out == ""
    _assert_one_line_error(code, err, "k_B*T*D(rho||rho_th) overflows", exit_code=3)


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_pure_state_entropy_is_unsigned_zero(two_level, fmt):
    _, ground = two_level
    code, out, _ = invoke("qt", "entropy", "--state", ground, "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert '"value": 0}' in out and '"value": -0' not in out
    else:
        assert next(line for line in out.splitlines() if line.startswith("entropy ")).split()[1] == "0"


def test_saved_thermal_state_matches_boltzmann(tmp_path):
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    energies = np.array([-1.3, -0.2, 0.0, 0.4, 2.5])
    ham, saved = str(tmp_path / "h.mat"), str(tmp_path / "thermal.mat")
    write_matrix(ham, (basis * energies) @ basis.conj().T, units="J")
    code, _, _ = invoke("qt", "gibbs", "--ham", ham, "--ktemp-joules", "0.8", "--save-state", saved)
    assert code == 0
    weights = np.exp(-energies / 0.8)
    want = (basis * (weights / weights.sum())) @ basis.conj().T
    got, _ = read_matrix(saved)
    assert np.abs(got - want).max() <= 1e-12


_STARTUP = """
import io, sys
before = set(sys.modules)
from physcomp.cli.main import run
code = run(sys.argv[1:], io.StringIO(), io.StringIO())
print(code, *sorted(set(sys.modules) - before))
"""
_SUBPACKAGES = {f"physcomp.{n}" for n in ("assembly", "blackhole", "catalog", "measures", "qthermo")}


@pytest.mark.parametrize(
    "argv, own, reads_json",
    [
        (["constants"], set(), False),
        (["bh", "--mass", "1"], {"blackhole", "measures"}, False),  # bisection on binary_entropy
        (["measure", "landauer", "--temp", "300", "--bits", "1"], {"measures"}, False),
        (["catalog", "compare", "--format", "csv"], {"catalog"}, False),
        (["assembly", "--target", "abab", "--basis", "ab"], {"assembly"}, False),
        (["assembly", "--pathway", "path.json"], {"assembly"}, True),
        (["qt", "entropy", "--state", "rho.json"], {"qthermo"}, True),
    ],
    ids=["constants", "bh", "measure", "catalog", "assembly-target", "assembly-pathway", "qt"],
)
def test_startup_loads_only_its_own_modules(tmp_path, argv, own, reads_json):
    # one fresh interpreter per subcommand; the modules its run added
    (tmp_path / "path.json").write_text('{"basis": "ab", "steps": [["a", "b"]]}')
    (tmp_path / "rho.json").write_text('{"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}')
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PHYSCOMP_CONSTANTS", None)
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    code, *names = proc.stdout.split()
    loaded = set(names)
    assert code == "0"
    assert "dataclasses" not in loaded
    assert ("numpy" in loaded) == ("qthermo" in own)
    if "numpy" not in loaded:  # numpy itself imports inspect
        assert "inspect" not in loaded
    assert ("json" in loaded) == reads_json
    assert "orjson" not in loaded  # small files keep json.loads
    assert loaded & _SUBPACKAGES == {f"physcomp.{n}" for n in own}


class TestSpectralWork:
    """Each qt op runs only the LAPACK work its output needs."""

    @pytest.fixture
    def files(self, tmp_path):
        write_matrix(tmp_path / "h.json", np.array([[0.0, 1e-21], [1e-21, 2e-21]]), units="J")
        write_matrix(tmp_path / "rho.json", np.array([[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]]))
        write_vector(tmp_path / "psi.json", np.array([1.0, 0.0]))
        return tmp_path

    # (eigh calls, eigvalsh calls)
    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["entropy", "--state", "rho.json"], (0, 1)),
            (["solve-temp", "--ham", "h.json", "--energy", "5e-22"], (0, 1)),
            (["gibbs", "--ham", "h.json", "--temp", "100"], (0, 1)),
            (["gibbs", "--ham", "h.json", "--temp", "100", "--save-state", "th.json"], (1, 0)),
            (["work", "--ham", "h.json", "--state", "rho.json", "--temp", "100"], (0, 2)),
            (["spread", "--ham", "h.json", "--state", "rho.json"], (0, 1)),
            (["evolve", "--ham", "h.json", "--time", "1e-15", "--state-vector", "psi.json"], (1, 0)),
        ],
        ids=["entropy", "solve-temp", "gibbs", "gibbs-save", "work", "spread", "evolve"],
    )
    def test_decompositions(self, files, monkeypatch, argv, calls):
        seen = []
        for name in ("eigh", "eigvalsh"):
            f = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, f=f, n=name: seen.append(n) or f(a))
        monkeypatch.chdir(files)
        code, _, err = invoke("qt", *argv)
        assert code == 0, err
        assert (seen.count("eigh"), seen.count("eigvalsh")) == calls


class TestBlasThreads:
    """main() picks one BLAS thread unless the user chose a count; run() does not."""

    def _main(self, monkeypatch, env: dict) -> dict:
        monkeypatch.setattr(os, "environ", env)
        monkeypatch.setattr(sys, "argv", ["physcomp", "constants"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        return env

    def test_one_thread_when_unset(self, monkeypatch, capsys):
        env = self._main(monkeypatch, {"LANG": "C"})
        assert env == {"LANG": "C", "OPENBLAS_NUM_THREADS": "1"}

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_setting_kept(self, monkeypatch, capsys, var):
        assert self._main(monkeypatch, {var: "2"}) == {var: "2"}

    def test_run_leaves_the_environment_alone(self, monkeypatch, two_level):
        env: dict = {}
        monkeypatch.setattr(os, "environ", env)
        ham, ground = two_level
        assert invoke("qt", "work", "--ham", ham, "--state", ground, "--temp", "300")[0] == 0
        assert env == {}
