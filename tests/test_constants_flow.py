"""One constants path: an override reaches every formula, and only for its run.

Each key the override file accepts is doubled through ``--constants``.
Every output row that depends on a changed constant must move, and every
other row must keep its pinned bytes. Doubling is exact in binary, so a row
that does not read the constant cannot move by rounding either.
"""

import io
import json
import math
from fractions import Fraction

import pytest

from physcomp import units
from physcomp.cli import run

FIELDS = (
    "hbar", "c", "G", "k_B", "planck_mass", "planck_length",
    "solar_mass", "electron_volt", "seconds_per_year",
)
PINNED = {name: getattr(units.PINNED, name).magnitude for name in FIELDS}

# A Planck unit doubled alone breaks the set's self-check, so it moves
# together with the hbar that keeps m_P^2 = hbar c / G and l_P^2 = hbar G / c^3.
OVERRIDES = {name: {name: 2.0 * PINNED[name]} for name in FIELDS}
OVERRIDES["planck_mass"]["hbar"] = 4.0 * PINNED["hbar"]
OVERRIDES["planck_length"]["hbar"] = 4.0 * PINNED["hbar"]

LIFETIME = {"G", "hbar", "c"}
ENTROPY = {"planck_mass"}
ERROR_RATE = LIFETIME | ENTROPY
BH_ROWS = {
    "mass": set(),
    "radius": {"G", "c"},
    "temperature": {"planck_mass", "c", "k_B"},
    "entropy_nats": ENTROPY,
    "entropy_bits": ENTROPY,
    "lifetime": LIFETIME,
    "lifetime_years": LIFETIME | {"seconds_per_year"},
    "ops_per_second": {"c", "hbar"},
    "total_ops": LIFETIME,
    "bit_flip_time": {"G", "c"},
    "free_energy": {"c"},
    "page_time_paper": LIFETIME,
    "page_time_entropy": LIFETIME,
    "max_error_rate": ERROR_RATE,
}
SYSTEMS = (
    "5nm-transistor", "covalent-bio-op", "hydrogen-bond", "van-der-waals",
    "human-metabolism", "world-compute",
)

# argv -> {output row or CSV column: the constants it depends on}
CONSUMERS = {
    "constants": {name: {name} for name in FIELDS},
    "measure phi-time --energy 2 --energy-unit eV --time 1e-12": {
        "phi_time_ops": {"hbar", "electron_volt"},
    },
    "measure ml-time --energy 1e-19": {"min_flip_time": {"hbar"}},
    "measure free-phi --delta-f 1e-20 --time 1e-12": {
        "free_phi": set(),
        "op_equivalent": {"hbar"},
    },
    "measure landauer --temp 300 --bits 8": {"landauer_cost": {"k_B"}},
    "bh --mass 1e12": BH_ROWS,
    "bh --mass 2 --unit solar": {k: v | {"solar_mass"} for k, v in BH_ROWS.items()},
    # the other rows are functions of M / m_P alone, up to rounding
    "bh --mass 1e6 --unit planck": {"mass": {"planck_mass"}},
    "bh timeline --mass 1e3 --samples 5": {
        "t_seconds": LIFETIME,
        "mass_kg": set(),
        "hole_entropy_bits": ENTROPY,
        "radiation_entropy_bits": ENTROPY,
    },
    "bh --sweep 1e3:1e30:3": {
        "mass_kg": set(),
        "radius_m": {"G", "c"},
        "temperature_K": {"planck_mass", "c", "k_B"},
        "entropy_bits": ENTROPY,
        "lifetime_s": LIFETIME,
        "ops_per_second": {"c", "hbar"},
        "total_ops": LIFETIME,
        "max_error_rate": ERROR_RATE,
    },
    "catalog list": {
        **{f"{s}.energy_per_op": set() for s in SYSTEMS},
        "human-metabolism.power": set(),
        "world-compute.op_rate": set(),
        "landauer-300K.energy_per_op": {"k_B"},
    },
    "catalog compare --temp 77": {
        **{f"{s}.inefficiency": {"k_B"} for s in SYSTEMS},
        "human-metabolism.op_rate": set(),
        # (k_B 300 ln 2) / (k_B 77 ln 2): k_B cancels
        "landauer-300K.inefficiency": set(),
    },
    "qt gibbs --ham h.json --ktemp-joules 1e-21": {
        "temperature": {"k_B"},
        # beta = 1 / (k_B T) = 1 / (k_B T) in joules: nothing else moves
        "partition_function": set(),
        "f_eq": set(),
        "entropy": set(),
        "mean_energy": set(),
    },
    "qt evolve --ham flip.json --time 3e-15 --state-vector psi.json": {
        "probability_0": {"hbar"},
        "probability_1": {"hbar"},
    },
}

INPUTS = {
    "h.json": {"dim": 2, "entries": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2e-21, 0.0]]], "units": "J"},
    "flip.json": {"dim": 2, "entries": [[[0.0, 0.0], [-1e-20, 0.0]], [[-1e-20, 0.0], [0.0, 0.0]]], "units": "J"},
    "psi.json": {"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]},
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, obj in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


def csv_of(cmd: str, *extra: str) -> str:
    argv = cmd.split() + list(extra)
    if "--sweep" not in argv and "timeline" not in argv:
        argv += ["--format", "csv"]
    return invoke(argv)


def columns(text: str) -> dict:
    """Report CSV as row name -> value; timeline/sweep CSV as column -> values."""
    lines = text.splitlines()
    if lines[0] == "name,value,unit,formula":
        return {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: tuple(r[k] for r in rows) for k, name in enumerate(header)}


def changed_fields(override: dict) -> set:
    with open("override.json", "w") as fh:
        json.dump(override, fh)
    k = units.constants("override.json")
    return {name for name in FIELDS if getattr(k, name).magnitude != PINNED[name]}


@pytest.mark.parametrize("key", FIELDS)
def test_each_constant_reaches_each_consumer(key, workdir):
    changed = changed_fields(OVERRIDES[key])
    assert key in changed
    for cmd, rows in CONSUMERS.items():
        pinned = csv_of(cmd)
        overridden = csv_of(cmd, "--constants", "override.json")
        before, after = columns(pinned), columns(overridden)
        assert set(rows) <= set(before) == set(after), cmd
        for row, deps in rows.items():
            moved = before[row] != after[row]
            assert moved == bool(deps & changed), (cmd, row, sorted(changed))


def test_a_doubled_planck_unit_alone_is_rejected(workdir):
    for name in ("planck_mass", "planck_length"):
        (workdir / "bad.json").write_text(json.dumps({name: 2.0 * PINNED[name]}))
        err = io.StringIO()
        assert run(["bh", "--mass", "1", "--constants", "bad.json"], io.StringIO(), err) == 2
        assert "inconsistent" in err.getvalue()


def test_override_does_not_outlive_its_run(workdir):
    pinned = invoke(["bh", "--mass", "1", "--format", "json"])
    (workdir / "g.json").write_text(json.dumps({"G": 2.0 * PINNED["G"]}))
    invoke(["bh", "--mass", "1", "--format", "json", "--constants", "g.json"])
    assert invoke(["bh", "--mass", "1", "--format", "json"]) == pinned
    assert units.CONSTANTS is units.PINNED


def test_the_environment_names_no_constants(workdir, monkeypatch):
    # --constants FILE is the one way to an override; a variable left in the
    # shell by an older version changes no byte
    pinned = invoke(["bh", "--mass", "1", "--format", "json"])
    (workdir / "g.json").write_text(json.dumps({"G": 2.0 * PINNED["G"]}))
    monkeypatch.setenv("PHYSCOMP_CONSTANTS", "g.json")
    assert invoke(["bh", "--mass", "1", "--format", "json"]) == pinned


def test_report_names_its_override(workdir):
    (workdir / "g.json").write_text(json.dumps({"G": 2.0 * PINNED["G"]}))
    doc = json.loads(invoke(["bh", "--mass", "1", "--format", "json", "--constants", "g.json"]))
    assert doc["inputs"]["constants"] == "file:g.json"


def test_constants_labels_overridden_values(workdir):
    (workdir / "k.json").write_text(json.dumps({"k_B": 2.0 * PINNED["k_B"]}))
    text = invoke(["constants", "--format", "csv", "--constants", "k.json"])
    labels = {line.split(",")[0]: line.split(",")[3] for line in text.splitlines()[1:]}
    assert labels["k_B"] == "override"
    assert labels["c"] == "pinned exact"
    assert [name for name, label in labels.items() if label == "override"] == ["k_B"]


SUBCOMMANDS = (
    ["constants"],
    ["bh", "--mass", "1"],
    ["measure", "landauer", "--temp", "300", "--bits", "1"],
    ["qt", "evolve", "--ham", "flip.json", "--time", "1e-15", "--state-vector", "psi.json"],
    ["assembly", "--target", "abab", "--basis", "ab"],
    ["catalog", "list"],
)


# what bad.json holds; "missing" writes no file
BAD_OVERRIDES = {
    "missing": None,
    "boolean": '{"G": true}',
    "overflow": '{"hbar": 1e300, "G": 1e-300}',  # hbar c / G is beyond the double range
    "inconsistent": '{"planck_length": 1.0}',
    "subnormal": '{"hbar": 1e-285}',  # hbar G / c^3 is a subnormal double
}


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: a[0])
@pytest.mark.parametrize("route", ["flag", "env"])
@pytest.mark.parametrize("bad", list(BAD_OVERRIDES))
def test_bad_override_is_one_line_exit_2(argv, route, bad, workdir, monkeypatch):
    # route "env": a valid file named by the environment does not stand in
    # for the refused one
    if BAD_OVERRIDES[bad] is not None:
        (workdir / "bad.json").write_text(BAD_OVERRIDES[bad])
    argv = argv + ["--constants", "bad.json"]
    if route == "env":
        (workdir / "good.json").write_text(json.dumps({"G": 2.0 * PINNED["G"]}))
        monkeypatch.setenv("PHYSCOMP_CONSTANTS", "good.json")
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: bad.json: ")
    assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("mode", ["report", "timeline", "page-curve"])
def test_a_lifetime_whose_divisor_underflows_is_one_line(workdir, mode):
    # c = 1e-84 passes the Planck self-check, but hbar*c^4 rounds to 0
    (workdir / "c.json").write_text(json.dumps({"c": 1e-84}))
    out, err = io.StringIO(), io.StringIO()
    assert run(["bh", mode, "--mass", "1", "--constants", "c.json"], out, err) == 3
    assert out.getvalue() == ""
    assert err.getvalue() == "numerical failure: lifetime 5120*pi*G^2*M^3/(hbar*c^4) overflows a double at M=1.0\n"


def test_a_lifetime_whose_products_leave_the_double_range_is_exact(workdir):
    # with c = 1e-84 at M = 5.8e-117 kg, G^2*M^3 and hbar*c^4 both underflow
    # to 0, but t_M is a normal double: exact rational arithmetic says which
    (workdir / "c.json").write_text(json.dumps({"c": 1e-84}))
    out, err = io.StringIO(), io.StringIO()
    argv = ["bh", "--mass", "5.8e-117", "--constants", "c.json", "--format", "json"]
    assert run(argv, out, err) == 0, err.getvalue()
    rows = {r["name"]: r["value"] for r in json.loads(out.getvalue())["results"]}
    g, hbar = Fraction(PINNED["G"]), Fraction(PINNED["hbar"])
    exact = 5120 * Fraction(math.pi) * g**2 * Fraction(5.8e-117) ** 3 / (hbar * Fraction(1e-84) ** 4)
    assert rows["lifetime"] == float(exact) == 132568.12104977437
