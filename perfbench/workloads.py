"""The four seeded workloads: input files plus one pass of ``physcomp`` commands.

Each workload function writes its inputs into a fresh directory and
returns the commands of one pass, with their checks. The program sees only
the argv and the files; every expected value comes from ``checks``. File
names in argv and checks are relative: commands run, and are checked,
with that directory as the working directory.
"""

from __future__ import annotations

import json
import math
import random
from functools import partial
from pathlib import Path

import numpy as np

import checks as C
from reference import search_index

FORMATS = ("human", "json", "csv")
# Known defects a check failure can be attributed to, by name.
KNOWN_DEFECTS = {
    "constants-override-ignored": (
        "--constants reaches units.constants() but the physics modules use "
        "constants snapshotted at import (ROADMAP item 1)"
    ),
}
REFERENCE = Path(__file__).with_name("assembly_reference.json")


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def _report(kind, argv, fmt, verify_for, constants_file=None, k_over=None) -> C.Command:
    """A report-producing command; ``verify_for(k, k_cli)`` builds its check.

    ``k`` is the constant set the physics should use and ``k_cli`` the one
    the CLI's own unit conversions use. With ``--constants`` both should be
    the override; the known defect is exactly physics on the pinned set
    with CLI conversions on the override, and only that output is
    attributed to it.
    """
    argv = list(argv) + ["--format", fmt]
    pinned = C.constant_set()
    cmd = C.Command(kind, argv, partial(C.parse_report, fmt=fmt), verify_for(pinned, pinned))
    if constants_file is not None:
        cmd.argv += ["--constants", constants_file]
        cmd.verify = verify_for(k_over, k_over)
        cmd.defect = "constants-override-ignored"
        cmd.defect_verify = verify_for(pinned, k_over)
    return cmd


def _with_files(parse, files: dict):
    """Extend ``parse`` to also load the files the command wrote."""

    def parse_all(text: str) -> C.Parsed:
        parsed = parse(text)
        for name, loader in files.items():
            parsed.files[name] = loader(name)
        return parsed

    return parse_all


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- inputs shared by several workloads ------------------------------------------


def random_hamiltonian(rng: np.random.Generator, d: int, width: float) -> np.ndarray:
    """Random Hermitian matrix whose spectrum spans ``width`` joules."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (x + x.conj().T) / 2.0
    vals = np.linalg.eigvalsh(h)
    h = h * (width / (vals[-1] - vals[0]))
    return (h + h.conj().T) / 2.0


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def random_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def write_pathway_file(path: Path, target: str, basis: str, energies) -> tuple[int, list | None]:
    """A valid left-to-right pathway for ``target``; returns (steps, energies)."""
    steps = [[target[:i], target[i]] for i in range(1, len(target))]
    obj = {"basis": basis, "steps": steps}
    if energies is not None:
        obj["free_energy_joules"] = energies[: len(steps)]
    path.write_text(json.dumps(obj))
    return len(steps), obj.get("free_energy_joules")


def thermal_files(d: Path, rng: np.random.Generator, dim: int, temp: float) -> dict:
    """Write H, rho and psi of dimension ``dim``; return them with H's spectrum."""
    k_b = C.PINNED["k_B"]
    h = random_hamiltonian(rng, dim, 10.0 * k_b * temp)
    rho = random_density(rng, dim)
    psi = random_vector(rng, dim)
    names = {"ham": f"ham{dim}.json", "state": f"rho{dim}.json", "psi": f"psi{dim}.json"}
    C.write_matrix_file(str(d / names["ham"]), h, units="J")
    C.write_matrix_file(str(d / names["state"]), rho)
    C.write_matrix_file(str(d / names["psi"]), psi)
    return {"names": names, "spec": C.Spectrum(h), "rho": rho, "psi": psi}


def qt_command(op: str, t: dict, p: dict, fmt: str, tag: str,
               constants_file=None, k_over=None) -> C.Command:
    """One ``qt`` command on the inputs ``t`` from :func:`thermal_files`."""
    n = t["names"]
    argv = ["qt", op]
    saved = None
    if op == "entropy":
        argv += ["--state", n["state"], "--entropy-unit", p["unit"]]
    elif op == "gibbs":
        argv += ["--ham", n["ham"]]
        argv += ["--temp", repr(p["temp"])] if "kt" not in p else ["--ktemp-joules", repr(p["kt"])]
        if p.get("save"):
            saved = f"gibbs-{tag}.json"
            argv += ["--save-state", saved]
    elif op == "solve-temp":
        # "=" form: argparse takes a separate "-1e-20" for an option name
        argv += ["--ham", n["ham"], f"--energy={p['energy']!r}"]
    elif op == "work":
        argv += ["--ham", n["ham"], "--state", n["state"], "--temp", repr(p["temp"])]
    elif op == "evolve":
        argv += ["--ham", n["ham"], "--time", repr(p["time"]), "--state-vector", n["psi"]]
        saved = f"evolved-{tag}.json"
        argv += ["--save-vector", saved]
    elif op == "spread":
        argv += ["--ham", n["ham"], "--state", n["state"]]

    def verify_for(kk, k_cli):
        q = dict(p, psi=t["psi"])
        if "kt" in q:
            q["temp"] = q["kt"] / kk["k_B"]
        return C.thermo_verify(op, t["spec"], t["rho"], q, kk, saved)

    cmd = _report(f"qt {op} d={t['spec'].h.shape[0]}", argv, fmt, verify_for, constants_file, k_over)
    if saved is not None:
        cmd.parse = _with_files(cmd.parse, {saved: C.read_matrix_file})
    return cmd


# -- cli-startup --------------------------------------------------------------------


def cli_startup(d: Path, seed: int) -> list[C.Command]:
    """Short commands of every kind, shuffled; a quarter pass --constants FILE."""
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    override = {key: C.PINNED[key] * rng.uniform(1.2, 2.0) for key in ("hbar", "G", "k_B")}
    (d / "constants.json").write_text(json.dumps(override))
    k_over = C.constant_set(override)
    qt2 = thermal_files(d, nrng, 2, 300.0)
    energies = [_loguniform(rng, 1e-21, 1e-18) for _ in range(7)]

    def measure(op, p, extra):
        argv = ["measure", op] + [a for key, v in extra for a in (key, repr(v) if isinstance(v, float) else v)]
        return ("measure " + op, argv, lambda k, _: partial(C.expect_values, want=C.measure_expected(op, p, k)))

    def spec_measure(op):
        if op in ("phi-time", "ml-time"):
            unit = rng.choice(("J", "eV"))
            e = _loguniform(rng, 1e-3, 1e6) if unit == "eV" else _loguniform(rng, 1e-22, 1e3)
            p = {"energy": e, "energy_unit": unit}
            extra = [("--energy", e), ("--energy-unit", unit)]
            if op == "phi-time":
                p["time"] = _loguniform(rng, 1e-12, 1e3)
                extra.append(("--time", p["time"]))
            return measure(op, p, extra)
        if op == "phi-space":
            smax = _loguniform(rng, 1.0, 1e6)
            p = {"smax": smax, "s": rng.uniform(0.0, smax)}
            return measure(op, p, [("--smax", p["smax"]), ("--s", p["s"])])
        if op == "free-phi":
            p = {"delta_f": _loguniform(rng, 1e-21, 1e3)}
            extra = [("--delta-f", p["delta_f"])]
            if rng.random() < 0.5:
                p["time"] = _loguniform(rng, 1e-9, 1e3)
                extra.append(("--time", p["time"]))
            return measure(op, p, extra)
        if op == "landauer":
            p = {"temp": _loguniform(rng, 1.0, 1e4), "bits": _loguniform(rng, 1.0, 1e12)}
            return measure(op, p, [("--temp", p["temp"]), ("--bits", p["bits"])])
        if op == "binary-entropy":
            p = {"eps": rng.uniform(1e-6, 0.999)}
            return measure(op, p, [("--eps", p["eps"])])
        mode = "exact" if op == "ec-space" else "asymptotic"
        p = {"ops": _loguniform(rng, 1.0, 1e15), "eps": _loguniform(rng, 1e-12, 0.5), "mode": mode}
        return ("measure ec-space " + mode, ["measure", "ec-space", "--ops", repr(p["ops"]),
                "--eps", repr(p["eps"]), "--mode", mode],
                lambda k, _: partial(C.expect_values, want=C.measure_expected("ec-space", p, k)))

    def spec_bh(unit):
        value = {"kg": _loguniform(rng, 1e10, 1e40), "solar": _loguniform(rng, 1e-8, 1e8),
                 "planck": _loguniform(rng, 1e2, 1e38)}[unit]

        def verify_for(k, k_cli):
            scale = {"kg": 1.0, "solar": k_cli["solar_mass"], "planck": k_cli["planck_mass"]}[unit]
            return C.bh_report_verify(value * scale, k)

        return (f"bh report --unit {unit}", ["bh", "--mass", repr(value), "--unit", unit], verify_for)

    def spec_catalog(mode):
        p, argv = {}, ["catalog", mode]
        if rng.random() < 0.3:
            p["system"] = rng.choice(C.CATALOG)[0]
            argv += ["--system", p["system"]]
        if mode == "compare":
            p["temp"] = _loguniform(rng, 1.0, 1e4)
            argv += ["--temp", repr(p["temp"])]
            if rng.random() < 0.5:
                p["power"] = _loguniform(rng, 1e-3, 1e6)
                argv += ["--power", repr(p["power"])]
            if rng.random() < 0.5:
                p["capacitance"], p["volts"] = _loguniform(rng, 1e-18, 1e-9), rng.uniform(0.1, 5.0)
                argv += ["--capacitance", repr(p["capacitance"]), "--volts", repr(p["volts"])]
        return (f"catalog {mode}", argv,
                lambda k, _: partial(C.expect_values, want=C.catalog_expected(mode, p, k)))

    def spec_assembly(i, save):
        basis = rng.choice(("ab", "abc"))
        target = "".join(rng.choice(basis) for _ in range(rng.randint(4, 8)))
        index = search_index(target)[0]
        argv = ["assembly", "--target", target, "--basis", basis]
        saved = None
        if save:
            saved = f"witness-{i}.json"
            argv += ["--save-pathway", saved]
        return ("assembly search", argv, lambda k, _: C.assembly_verify(target, basis, index, saved), saved)

    def spec_pathway(i, with_energies):
        basis = rng.choice(("ab", "abc"))
        target = "".join(rng.choice(basis) for _ in range(rng.randint(3, 8)))
        name = f"pathway-{i}.json"
        steps, fe = write_pathway_file(d / name, target, basis, energies if with_energies else None)
        return ("assembly validate", ["assembly", "--pathway", name],
                lambda k, _: C.pathway_verify(target, steps, fe))

    def spec_qt(op, i):
        if op == "entropy":
            p = {"unit": rng.choice(("bits", "nats"))}
        elif rng.random() < 0.5:
            p = {"temp": _loguniform(rng, 30.0, 3000.0)}
        else:
            p = {"kt": C.PINNED["k_B"] * _loguniform(rng, 30.0, 3000.0)}
        return ("qt", op, p, i)

    commands = []
    for rnd in range(2):
        specs = [spec_measure(op) for op in ("phi-time", "ml-time", "phi-space", "free-phi",
                                             "landauer", "binary-entropy", "ec-space", "ec-asym")]
        specs += [spec_bh(u) for u in ("kg", "solar", "planck")]
        specs += [spec_catalog("list"), spec_catalog("compare"),
                  ("constants", ["constants"],
                   lambda k, _: partial(C.expect_values, want=C.constants_expected(k)))]
        specs += [spec_assembly(2 * rnd, False), spec_assembly(2 * rnd + 1, True),
                  spec_pathway(2 * rnd, True), spec_pathway(2 * rnd + 1, False)]
        specs += [spec_qt("entropy", rnd), spec_qt("gibbs", rnd)]
        for spec in specs:
            fmt = rng.choice(FORMATS)
            override = "constants.json" if rng.random() < 0.25 else None
            if spec[0] == "qt":
                _, op, p, i = spec
                commands.append(qt_command(op, qt2, p, fmt, f"2-{i}", override, k_over))
                continue
            kind, argv, verify_for = spec[:3]
            cmd = _report(kind, argv, fmt, verify_for, override, k_over)
            if len(spec) == 4 and spec[3]:
                cmd.parse = _with_files(cmd.parse, {spec[3]: _load_json})
            commands.append(cmd)
    rng.shuffle(commands)
    return commands


# -- assembly-search -----------------------------------------------------------------


def draw_seeded_targets(pools: dict, rng: random.Random) -> list[dict]:
    """One draw per stratum whose summed search work sits near the pool average.

    Single targets range over 100x in cost, so an unbalanced draw would make
    the workload's total time depend on the seed more than on the program.
    Redrawing until the total work (candidate checks of the reference
    search, a machine-independent cost) is within 2% of its expectation
    keeps every difficulty in play while holding the total steady.
    """
    budget = sum(sum(e["checks"] for e in pool) / len(pool) for pool in pools.values())
    best = None
    for _ in range(20000):
        pick = [rng.choice(pool) for pool in pools.values()]
        miss = abs(sum(e["checks"] for e in pick) - budget) / budget
        if best is None or miss < best[0]:
            best = (miss, pick)
        if miss <= 0.02:
            break
    return best[1]


def assembly_search(d: Path, seed: int) -> list[C.Command]:
    """Fixed cases (bench_assembly's list, unary, periodic) plus seeded targets."""
    rng = random.Random(seed)
    table = json.loads(REFERENCE.read_text())
    entries = table["fixed"] + draw_seeded_targets(table["pools"], rng)
    rng.shuffle(entries)
    commands = []
    for i, e in enumerate(entries):
        saved = f"witness-{i}.json"
        fmt = rng.choice(FORMATS)
        search = C.Command(
            "assembly search",
            ["assembly", "--target", e["target"], "--basis", e["basis"],
             "--save-pathway", saved, "--format", fmt],
            _with_files(partial(C.parse_report, fmt=fmt), {saved: _load_json}),
            C.assembly_verify(e["target"], e["basis"], e["index"], saved),
        )
        fmt = rng.choice(FORMATS)
        validate = C.Command(
            "assembly validate",
            ["assembly", "--pathway", saved, "--format", fmt],
            partial(C.parse_report, fmt=fmt),
            C.pathway_verify(e["target"], e["index"], None),
        )
        commands += [search, validate]
    return commands


# -- qthermo-dense -------------------------------------------------------------------


QT_OPS = ("entropy", "gibbs", "solve-temp", "work", "evolve", "spread")
# Runs of each command at d = 256; at d = 512 every command runs twice.
REPEATS_D256 = {"entropy": 8, "evolve": 8, "solve-temp": 8, "spread": 2, "work": 2, "gibbs": 2}


def qthermo_dense(d: Path, seed: int) -> list[C.Command]:
    """Every dense qt command at d = 256 and d = 512, two of them writing files.

    Each command runs with its own draws of temperature, energy, time and
    format, ``gibbs`` once with ``--save-state`` and once without per
    dimension. The 25 commands that read one d = 256 matrix and do little
    else (``entropy``, ``evolve``, ``solve-temp``, ``gibbs`` without a save)
    take about the same time, and the median (of 42) falls inside them;
    ``spread`` and ``work`` read two matrices and take longer. The 13 slow
    commands (d = 256 ``gibbs --save-state`` and all of d = 512) hold the
    tail (p76, the 32nd). Neither lands on the edge between groups of
    different cost, where one noisy sample would move it.
    """
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    k = C.constant_set()
    commands = []
    for dim in (256, 512):
        t = thermal_files(d, nrng, dim, 300.0)
        vals = t["spec"].vals
        runs = [(op, rep) for op in QT_OPS
                for rep in range(REPEATS_D256[op] if dim == 256 else 2)]
        for op, rep in runs:
            p = {"unit": rng.choice(("bits", "nats")), "temp": rng.uniform(150.0, 600.0),
                 "save": rep == 0, "time": rng.uniform(0.5, 2.0) * k["hbar"] / (k["k_B"] * 300.0)}
            side = rng.choice((vals.min(), vals.max()))
            p["energy"] = float(vals.mean() + rng.uniform(0.2, 0.8) * (side - vals.mean()))
            commands.append(qt_command(op, t, p, rng.choice(FORMATS), f"{dim}-{len(commands)}"))
    rng.shuffle(commands)
    return commands


# -- bh-curves -----------------------------------------------------------------------


def bh_curves(d: Path, seed: int) -> list[C.Command]:
    """Page curves and timelines with many samples, and wide mass sweeps."""
    rng = random.Random(seed)
    k = C.constant_set()
    commands = []
    for i in range(8):
        unit = rng.choice(("kg", "solar"))
        value = _loguniform(rng, 1e10, 1e30) if unit == "kg" else _loguniform(rng, 1e-6, 1e6)
        m = value * (k["solar_mass"] if unit == "solar" else 1.0)
        samples = rng.randint(8000, 12000)
        argv = ["bh", "page-curve", "--mass", repr(value), "--unit", unit, "--samples", str(samples)]
        commands.append(C.Command("bh page-curve", argv,
                                  partial(C.parse_csv, header=C.TIMELINE_HEADER),
                                  C.bh_curve_verify(m, samples, k)))
        out = f"timeline-{i}.csv"
        argv = ["bh", "timeline", "--mass", repr(value), "--unit", unit,
                "--samples", str(samples), "--out", out]

        def parse_file(_text, out=out):
            return C.parse_csv(Path(out).read_text(), C.TIMELINE_HEADER)

        commands.append(C.Command("bh timeline --out", argv, parse_file, C.bh_curve_verify(m, samples, k)))
    for _ in range(4):
        start = _loguniform(rng, 1e3, 1e8)
        stop = start * _loguniform(rng, 1e20, 1e30)
        count = rng.randint(250, 350)
        argv = ["bh", "--sweep", f"{start!r}:{stop!r}:{count}"]
        commands.append(C.Command("bh sweep", argv, partial(C.parse_csv, header=C.SWEEP_HEADER),
                                  C.bh_sweep_verify(start, stop, count, k)))
    rng.shuffle(commands)
    return commands


WORKLOADS = {
    "cli-startup": cli_startup,
    "assembly-search": assembly_search,
    "qthermo-dense": qthermo_dense,
    "bh-curves": bh_curves,
}
