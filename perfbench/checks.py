"""Output checks that do not trust the program.

Every expected value here is computed by the benchmark itself: closed forms
from the pinned constants (or from the override file a command passes),
independent numpy recomputation for the quantum-thermodynamics commands,
witness replay plus a committed reference table for assembly. Nothing in
this module imports ``physcomp``.

A check is split into ``parse`` (program output text -> structure) and
``verify`` (structure -> failure reason or None), so the self-test can
corrupt a parsed output and confirm that ``verify`` rejects it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

LN2 = math.log(2.0)

# CODATA 2018 (c, k_B and the electron volt are exact), plus the solar mass
# and the Julian year the toolkit documents as its pinned values.
PINNED = {
    "hbar": 1.054571817e-34,
    "c": 299792458.0,
    "G": 6.67430e-11,
    "k_B": 1.380649e-23,
    "solar_mass": 1.98892e30,
    "electron_volt": 1.602176634e-19,
    "seconds_per_year": 3.15576e7,
}

RTOL = 1e-9
# Evaluated as written, the (1-eps) log2(1-eps) term of h(eps) moves in
# steps of 2^-53 / ln 2 (1.6e-16) as 1-eps rounds; allow one and a half.
H_ROUNDING = 1.5 * 2.0**-53 / math.log(2.0)
TIMELINE_HEADER = "t_seconds,mass_kg,hole_entropy_bits,radiation_entropy_bits"
SWEEP_HEADER = (
    "mass_kg,radius_m,temperature_K,entropy_bits,lifetime_s,"
    "ops_per_second,total_ops,max_error_rate"
)


class CheckFailed(Exception):
    """An output differs from what the benchmark expects."""


def constant_set(overrides: dict | None = None) -> dict:
    """Pinned constants, patched by ``overrides``, with Planck units rederived."""
    k = dict(PINNED, **(overrides or {}))
    k["planck_mass"] = math.sqrt(k["hbar"] * k["c"] / k["G"])
    k["planck_length"] = math.sqrt(k["hbar"] * k["G"] / k["c"] ** 3)
    return k


def binary_entropy(eps: float) -> float:
    """h(eps) in bits, evaluated as written."""
    return sum(-p * math.log2(p) for p in (eps, 1.0 - eps) if p > 0.0)


def binary_entropy_log1p(eps: float) -> float:
    """h(eps) in bits without the rounding of 1 - eps."""
    return -eps * math.log2(eps) - (1.0 - eps) * math.log1p(-eps) / LN2


def _h_rounding(eps: float) -> float:
    """Absolute rounding of :func:`binary_entropy` at eps and the float above it."""
    return H_ROUNDING if 1.0 - math.nextafter(eps, 1.0) != 1.0 else 0.0


# -- parsing ----------------------------------------------------------------


@dataclass
class Parsed:
    """One command's output: report values by name, CSV rows, files it wrote."""

    values: dict = field(default_factory=dict)
    rows: np.ndarray | None = None
    files: dict = field(default_factory=dict)


def _scalar(text: str):
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def parse_report(text: str, fmt: str) -> Parsed:
    """Read a report in any of the three output formats into name -> value."""
    if fmt == "json":
        obj = json.loads(text)
        return Parsed({r["name"]: r["value"] for r in obj["results"]})
    lines = text.splitlines()
    if fmt == "csv":
        if lines[0] != "name,value,unit,formula":
            raise CheckFailed(f"bad CSV header {lines[0]!r}")
        rows = [line.split(",", 3) for line in lines[1:]]
        if any(len(r) != 4 for r in rows):
            raise CheckFailed("CSV row without four fields")
        return Parsed({r[0]: _scalar(r[1]) for r in rows})
    start = next(i for i, line in enumerate(lines) if line.startswith("result "))
    header = lines[start]
    cut = [header.index(col) for col in ("value", "unit", "formula")]
    values = {}
    for line in lines[start + 1 :]:
        if line.startswith("warning: "):
            break
        values[line[: cut[0]].rstrip()] = _scalar(line[cut[0] : cut[1]].strip())
    return Parsed(values)


def parse_csv(text: str, header: str) -> Parsed:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"CSV header {lines[:1]!r} is not {header!r}")
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return Parsed(rows=rows.reshape(len(lines) - 1, header.count(",") + 1))


def read_matrix_file(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    arr = np.array(obj["entries"], dtype=float)
    if arr.shape[:-1] != (obj["dim"],) * (arr.ndim - 1) or arr.shape[-1] != 2:
        raise CheckFailed(f"{path}: entries do not match dim {obj['dim']}")
    return arr[..., 0] + 1j * arr[..., 1]


def write_matrix_file(path: str, arr: np.ndarray, units: str | None = None) -> None:
    """Write the program's matrix/vector file format (exact doubles)."""
    pairs = np.stack([arr.real, arr.imag], axis=-1).tolist()
    obj = {"dim": arr.shape[0], "entries": pairs}
    if units:
        obj["units"] = units
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))  # dumps() uses the C encoder, dump() does not


# -- comparisons --------------------------------------------------------------


def close(got, want, rtol: float = RTOL, atol: float = 0.0) -> bool:
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return abs(got - want) <= rtol * max(abs(got), abs(want)) + atol


def expect_values(parsed: Parsed, want: dict, rtol: float = RTOL, atol: dict | None = None):
    """Names must match exactly and every value must agree with ``want``."""
    got = parsed.values
    if set(got) != set(want):
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        raise CheckFailed(f"result names differ: missing {missing}, unexpected {extra}")
    for name, value in want.items():
        if not close(got[name], value, rtol, (atol or {}).get(name, 0.0)):
            raise CheckFailed(f"{name} = {got[name]!r}, expected {value!r}")


# -- closed forms ---------------------------------------------------------------


def measure_expected(op: str, p: dict, k: dict) -> dict:
    hbar = k["hbar"]
    if op in ("phi-time", "ml-time"):
        e = p["energy"] * (k["electron_volt"] if p.get("energy_unit") == "eV" else 1.0)
        if op == "phi-time":
            return {"phi_time_ops": 2.0 * e * p["time"] / (math.pi * hbar)}
        return {"min_flip_time": math.pi * hbar / (2.0 * e)}
    if op == "phi-space":
        return {"phi_space": p["smax"] - p["s"]}
    if op == "free-phi":
        out = {"free_phi": p["delta_f"]}
        if "time" in p:
            out["op_equivalent"] = 2.0 * p["delta_f"] * p["time"] / (math.pi * hbar)
        return out
    if op == "landauer":
        return {"landauer_cost": p["bits"] * k["k_B"] * p["temp"] * LN2}
    if op == "binary-entropy":
        return {"binary_entropy": binary_entropy(p["eps"])}
    if op == "ec-space":
        eps = p["eps"]
        per_op = binary_entropy(eps) if p["mode"] == "exact" else eps * math.log2(1.0 / eps)
        return {"ec_space": p["ops"] * per_op}
    raise ValueError(op)


def bh_expected(m: float, k: dict) -> dict:
    """Every closed-form property of a hole of mass ``m`` kg except eps."""
    g, c, hbar = k["G"], k["c"], k["hbar"]
    m_p = k["planck_mass"]
    radius = 2.0 * g * m / c**2
    s_nats = 4.0 * math.pi * (m / m_p) ** 2
    t_m = 5120.0 * math.pi * g**2 * m**3 / (hbar * c**4)
    ops = 2.0 * m * c**2 / (math.pi * hbar)
    return {
        "mass": m,
        "radius": radius,
        "temperature": m_p**2 * c**2 / (8.0 * math.pi * m) / k["k_B"],
        "entropy_nats": s_nats,
        "entropy_bits": s_nats / LN2,
        "lifetime": t_m,
        "lifetime_years": t_m / k["seconds_per_year"],
        "ops_per_second": ops,
        "total_ops": ops * t_m,
        "bit_flip_time": math.pi**2 * radius / c,
        "free_energy": m * c**2 / 2.0,
        "page_time_paper": t_m / 2.0,
        "page_time_entropy": (1.0 - 2.0**-1.5) * t_m,
    }


def check_error_rate(eps: float, m: float, k: dict) -> None:
    """eps solves h(eps) * total_ops = S_bits, or is 1/2 when that cannot bind."""
    want = bh_expected(m, k)
    budget = want["entropy_bits"] / want["total_ops"]
    if m <= k["planck_mass"] or budget >= 1.0:
        if eps != 0.5:
            raise CheckFailed(f"max_error_rate {eps!r}, expected the vacuous 0.5")
        return
    # A root of h as written is defined only to within its rounding step
    # where 1 - eps rounds; a root of h with log1p is defined to RTOL
    # everywhere. Below eps = 2^-54, 1 - eps is 1 and h as written is
    # -eps log2(eps) exactly, so there both are checked to RTOL.
    if not (0.0 < eps < 0.5) or not (
        close(binary_entropy(eps), budget, RTOL, _h_rounding(eps))
        or close(binary_entropy_log1p(eps), budget, RTOL)
    ):
        raise CheckFailed(f"max_error_rate {eps!r}: h(eps) != S_bits / total_ops")


def error_rate_corruption(eps: float) -> float:
    """An eps whose h misses the original's by more than the check allows."""
    if eps == 0.5:
        return eps * (1.0 - 1e-6)
    miss = max(1e-6 * binary_entropy(eps), 4.0 * _h_rounding(eps))
    return eps + miss / math.log2((1.0 - eps) / eps)


def bh_report_verify(m: float, k: dict) -> Callable[[Parsed], None]:
    def verify(parsed: Parsed) -> None:
        want = bh_expected(m, k)
        want["max_error_rate"] = parsed.values.get("max_error_rate")
        expect_values(parsed, want)
        check_error_rate(parsed.values["max_error_rate"], m, k)

    return verify


def constants_expected(k: dict) -> dict:
    names = ("hbar", "c", "G", "k_B", "planck_mass", "planck_length",
             "solar_mass", "electron_volt", "seconds_per_year")
    return {n: k[n] for n in names}


# name, energy per op (J), power (W), op rate (1/s); the k_B T ln 2 entry
# at 300 K is filled in from the constant set in use.
CATALOG = (
    ("5nm-transistor", 1e-16, None, None),
    ("covalent-bio-op", 1.6e-19, None, None),
    ("hydrogen-bond", 1.6e-20, None, None),
    ("van-der-waals", 1.6e-21, None, None),
    ("human-metabolism", 1.6e-19, 100.0, None),
    ("world-compute", 1e-16, None, 1e21),
    ("landauer-300K", None, None, None),
)


def catalog_expected(mode: str, p: dict, k: dict) -> dict:
    systems = [
        (n, e if e is not None else k["k_B"] * 300.0 * LN2, pw, rate)
        for n, e, pw, rate in CATALOG
        if p.get("system") in (None, n)
    ]
    out = {}
    if mode == "list":
        for n, e, pw, rate in systems:
            out[f"{n}.energy_per_op"] = e
            if pw is not None:
                out[f"{n}.power"] = pw
            if rate is not None:
                out[f"{n}.op_rate"] = rate
        return out
    for n, e, pw, _ in systems:
        out[f"{n}.inefficiency"] = e / (k["k_B"] * p["temp"] * LN2)
        if pw is not None:
            out[f"{n}.op_rate"] = pw / e
    if "power" in p:
        for n, e, _, _ in systems:
            out[f"{n}.op_rate_at_power"] = p["power"] / e
    if "capacitance" in p:
        out["switch_energy"] = 0.5 * p["capacitance"] * p["volts"] ** 2
    return out


def bh_curve_verify(m: float, samples: int, k: dict) -> Callable[[Parsed], None]:
    """Header and row count, monotone t, M(t) = M0 (1 - t/t_M)^(1/3), entropies."""

    def verify(parsed: Parsed) -> None:
        rows = parsed.rows
        if rows.shape[0] != samples:
            raise CheckFailed(f"{rows.shape[0]} timeline rows, expected {samples}")
        t, mass, s_hole, s_rad = rows.T
        t_m = bh_expected(m, k)["lifetime"]
        if not np.all(np.diff(t) > 0.0):
            raise CheckFailed("timeline t is not strictly increasing")
        grid = t_m * np.arange(samples) / (samples - 1)
        grid[-1] = t_m
        if not np.allclose(t, grid, rtol=1e-12, atol=0.0):
            raise CheckFailed("timeline t is not the uniform grid over [0, t_M]")
        want_m = m * np.cbrt(np.clip(1.0 - t / t_m, 0.0, None))
        if np.max(np.abs(mass - want_m)) > 1e-9 * m:
            raise CheckFailed("mass column differs from M0 (1 - t/t_M)^(1/3)")
        s0 = 4.0 * math.pi * (m / k["planck_mass"]) ** 2 / LN2
        want_s = 4.0 * math.pi * (want_m / k["planck_mass"]) ** 2 / LN2
        if np.max(np.abs(s_hole - want_s)) > 1e-9 * s0:
            raise CheckFailed("hole entropy column differs from 4 pi (M/m_P)^2 / ln 2")
        if np.max(np.abs(s_rad - np.minimum(s0 - want_s, want_s))) > 1e-9 * s0:
            raise CheckFailed("radiation entropy column differs from min(S0 - S, S)")

    return verify


def bh_sweep_verify(start: float, stop: float, count: int, k: dict) -> Callable[[Parsed], None]:
    def verify(parsed: Parsed) -> None:
        rows = parsed.rows
        if rows.shape[0] != count:
            raise CheckFailed(f"{rows.shape[0]} sweep rows, expected {count}")
        la, lb = math.log10(start), math.log10(stop)
        names = ("mass", "radius", "temperature", "entropy_bits", "lifetime",
                 "ops_per_second", "total_ops")
        for i, row in enumerate(rows):
            m = 10 ** (la + (lb - la) * i / (count - 1))
            want = bh_expected(m, k)
            for col, name in enumerate(names):
                if not close(row[col], want[name]):
                    raise CheckFailed(f"sweep row {i}: {name} = {row[col]!r}, expected {want[name]!r}")
            check_error_rate(row[7], m, k)

    return verify


# -- assembly --------------------------------------------------------------------


def doubling_lower_bound(n: int) -> int:
    return max(math.ceil(math.log2(n)), 1) if n > 1 else 0


def greedy_upper_bound(target: str) -> int:
    """Joins of balanced halving with shared pieces built once."""
    pieces: set[str] = set()

    def build(s: str) -> None:
        if len(s) > 1 and s not in pieces:
            build(s[: len(s) // 2])
            build(s[len(s) // 2 :])
            pieces.add(s)

    build(target)
    return len(pieces)


def replay_witness(steps: list, basis: str, target: str) -> None:
    """Every operand is a basis symbol or an earlier product; the last is the target."""
    available = set(basis)
    for k, (left, right) in enumerate(steps):
        for operand in (left, right):
            if operand not in available:
                raise CheckFailed(f"witness step {k}: operand {operand!r} not yet available")
        available.add(left + right)
    if (steps[-1][0] + steps[-1][1] if steps else target) != target:
        raise CheckFailed("witness does not end in the target")


def assembly_verify(target: str, basis: str, index: int, saved: str | None = None):
    """Reported index = reference, inside the bounds, and the witness replays."""

    def verify(parsed: Parsed) -> None:
        got = parsed.values
        want_names = {"assembly_index"} | {f"step_{k}" for k in range(index)}
        if set(got) != want_names:
            raise CheckFailed(f"result names {sorted(got)} do not match index {index}")
        if got["assembly_index"] != index:
            raise CheckFailed(f"assembly_index {got['assembly_index']!r}, reference {index}")
        if not doubling_lower_bound(len(target)) <= index <= greedy_upper_bound(target):
            raise CheckFailed("reference index outside the doubling and greedy bounds")
        steps = [tuple(str(got[f"step_{k}"]).split("+")) for k in range(index)]
        replay_witness(steps, basis, target)
        if saved is not None:
            obj = parsed.files[saved]
            if obj.get("target") != target or sorted(obj["basis"]) != sorted(basis):
                raise CheckFailed("saved pathway names another target or basis")
            if [tuple(s) for s in obj["steps"]] != steps:
                raise CheckFailed("saved pathway differs from the printed witness")

    return verify


def pathway_verify(target: str, steps: int, free_energies: list | None):
    def verify(parsed: Parsed) -> None:
        want = {"target": target, "steps": steps}
        if free_energies is not None:
            want["pathway_free_phi"] = math.fsum(free_energies)
        expect_values(parsed, want)

    return verify


# -- quantum thermodynamics ----------------------------------------------------------


class Spectrum:
    """Independent eigen-decomposition of a Hamiltonian the benchmark wrote."""

    def __init__(self, h: np.ndarray):
        self.h = h
        self.vals, self.vecs = np.linalg.eigh(h)
        self.range = float(self.vals[-1] - self.vals[0])

    def thermal(self, beta: float):
        """(populations, ln Z) at inverse temperature beta, shifted for stability."""
        ref = self.vals.min() if beta >= 0 else self.vals.max()
        w = np.exp(-beta * (self.vals - ref))
        return w / w.sum(), float(-beta * ref + math.log(w.sum()))


def entropy_nats(rho: np.ndarray) -> float:
    p = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    p = p[p > 0.0] / p.sum()
    return float(-(p * np.log(p)).sum())


def thermo_verify(op: str, spec: Spectrum | None, rho: np.ndarray | None, p: dict,
                  k: dict, saved: str | None = None):
    """Expected values for one ``qt`` command, recomputed with numpy."""

    k_b = k["k_B"]

    def verify(parsed: Parsed) -> None:
        got = parsed.values
        e_tol = 1e-9 * spec.range if spec is not None else 0.0
        if op == "entropy":
            s = entropy_nats(rho)
            expect_values(parsed, {"entropy": s if p["unit"] == "nats" else s / LN2}, 1e-8, {"entropy": 1e-12})
        elif op == "gibbs":
            beta = 1.0 / (k_b * p["temp"])
            probs, log_z = spec.thermal(beta)
            nz = probs[probs > 0]
            want = {
                "temperature": p["temp"],
                "partition_function": math.exp(log_z),
                "f_eq": -log_z / beta,
                "entropy": float(-(nz * np.log(nz)).sum()) / LN2,
                "mean_energy": float(probs @ spec.vals),
            }
            expect_values(parsed, want, 1e-8, {"f_eq": e_tol, "mean_energy": e_tol, "entropy": 1e-12})
            if saved is not None:
                state = parsed.files[saved]
                if abs(np.trace(state).real - 1.0) > 1e-9:
                    raise CheckFailed("saved thermal state does not have unit trace")
                rho_th = (spec.vecs * probs) @ spec.vecs.conj().T
                if np.max(np.abs(state - rho_th)) > 1e-9:
                    raise CheckFailed("saved thermal state differs from exp(-beta H) / Z")
        elif op == "solve-temp":
            beta = got["beta"]
            probs, log_z = spec.thermal(beta)
            if not close(float(probs @ spec.vals), p["energy"], 0.0, 1e-8 * spec.range):
                raise CheckFailed("<H> at the reported beta misses the target energy")
            want = {"temperature": 1.0 / (k_b * beta), "beta": beta,
                    "partition_function": math.exp(log_z), "f_eq": -log_z / beta}
            expect_values(parsed, want, 1e-8, {"f_eq": e_tol})
        elif op == "work":
            beta = 1.0 / (k_b * p["temp"])
            _, log_z = spec.thermal(beta)
            f_rho = float(np.trace(rho @ spec.h).real) - k_b * p["temp"] * entropy_nats(rho)
            w = f_rho + log_z / beta
            if got.get("extractable_work", -1.0) < 0.0:
                raise CheckFailed("extractable work is negative")
            expect_values(parsed, {"extractable_work": w, "free_energy": f_rho}, 1e-8,
                          {"extractable_work": e_tol, "free_energy": e_tol})
        elif op == "evolve":
            phases = np.exp(-1j * spec.vals * (p["time"] / k["hbar"]))
            psi_t = spec.vecs @ (phases * (spec.vecs.conj().T @ p["psi"]))
            if len(psi_t) <= 16:
                expect_values(parsed, {f"probability_{i}": float(abs(a) ** 2) for i, a in enumerate(psi_t)},
                              1e-8, {f"probability_{i}": 1e-12 for i in range(len(psi_t))})
            else:
                expect_values(parsed, {})
            if saved is not None:
                vec = parsed.files[saved]
                if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
                    raise CheckFailed("saved state vector does not have unit norm")
                if np.max(np.abs(vec - psi_t)) > 1e-8:
                    raise CheckFailed("saved state vector differs from exp(-iHt/hbar) psi")
        elif op == "spread":
            mean = float(np.trace(rho @ spec.h).real)
            mean_sq = float(np.trace(rho @ spec.h @ spec.h).real)
            want = math.sqrt(max(mean_sq - mean * mean, 0.0))
            expect_values(parsed, {"energy_spread": want}, 1e-8, {"energy_spread": e_tol})
        else:
            raise ValueError(op)

    return verify


# -- commands and the self-test ------------------------------------------------------


@dataclass
class Command:
    """One ``physcomp`` invocation and how to judge its output."""

    kind: str
    argv: list
    parse: Callable[[str], Parsed]
    verify: Callable[[Parsed], None]
    # For commands that expose a known defect: a verify that accepts exactly
    # the output the defect produces, so such failures can be attributed.
    defect: str | None = None
    defect_verify: Callable[[Parsed], None] | None = None

    def judge(self, stdout: str) -> tuple[str | None, str | None]:
        """(failure reason or None, known defect the failure matches or None)."""
        parsed = None
        try:
            parsed = self.parse(stdout)
            self.verify(parsed)
        except Exception as exc:  # any malformed output is a failed check
            reason = f"{type(exc).__name__}: {exc}"
            if self.defect_verify is not None:
                try:
                    self.defect_verify(parsed)
                except Exception:
                    return reason, None
                return reason, self.defect
            return reason, None
        return None, None


def _fails(verify: Callable[[Parsed], None], parsed: Parsed) -> bool:
    try:
        verify(parsed)
    except Exception:
        return True
    return False


def mutations(cmd: Command, stdout: str) -> list[tuple[str, Callable[[], bool]]]:
    """Corruptions of a passing output; each callable is True when it is rejected."""
    out = []
    parsed = cmd.parse(stdout)
    numbers = [n for n, v in parsed.values.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool) and v != 0]
    if numbers:
        def perturbed(name=numbers[len(numbers) // 2]):
            p = cmd.parse(stdout)
            v = p.values[name]
            step = max(1, round(abs(v) * 1e-6)) if isinstance(v, int) else abs(v) * 1e-6
            p.values[name] = v + step
            return _fails(cmd.verify, p)
        out.append(("perturbed value", perturbed))
    if parsed.rows is not None and len(parsed.rows) > 2:
        def perturbed_cell():
            p = cmd.parse(stdout)
            p.rows[len(p.rows) // 2, 1] *= 1.0 + 1e-6
            return _fails(cmd.verify, p)
        out.append(("perturbed value", perturbed_cell))
    if isinstance(parsed.values.get("max_error_rate"), float):
        def perturbed_rate():
            p = cmd.parse(stdout)
            p.values["max_error_rate"] = error_rate_corruption(p.values["max_error_rate"])
            return _fails(cmd.verify, p)
        out.append(("perturbed error rate", perturbed_rate))
    if parsed.rows is not None and parsed.rows.shape[1] == SWEEP_HEADER.count(",") + 1:
        def perturbed_rate_cell():
            p = cmd.parse(stdout)
            row = p.rows[len(p.rows) // 2]
            row[7] = error_rate_corruption(row[7])
            return _fails(cmd.verify, p)
        out.append(("perturbed error rate", perturbed_rate_cell))
    if stdout.count("\n") > 2 and (parsed.rows is not None or stdout.startswith("name,")):
        def truncated():
            try:
                p = cmd.parse(stdout[: stdout.rstrip("\n").rfind("\n") + 1])
            except Exception:
                return True
            return _fails(cmd.verify, p)
        out.append(("truncated CSV", truncated))
    if isinstance(parsed.values.get("step_1"), str):
        def swapped():
            p = cmd.parse(stdout)
            last = f"step_{p.values['assembly_index'] - 1}"
            p.values["step_0"], p.values[last] = p.values[last], p.values["step_0"]
            return _fails(cmd.verify, p)
        out.append(("swapped witness step", swapped))
    return out


class Tally:
    """Attempted and failed commands, with every failure's attribution."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def add(self, cmd, reason, defect) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append({"kind": cmd.kind, "argv": cmd.argv, "reason": reason,
                                  "known_defect": defect})

    @property
    def unexplained(self) -> list[dict]:
        return [f for f in self.failures if f["known_defect"] is None]

    def summary(self) -> dict:
        known: dict[str, int] = {}
        for f in self.failures:
            if f["known_defect"]:
                known[f["known_defect"]] = known.get(f["known_defect"], 0) + 1
        return {"attempted": self.attempted, "failed": len(self.failures),
                "known_defects": known, "unexplained": self.unexplained[:10]}


def self_test(examples: dict) -> list[dict]:
    """Corrupt one passing output of each command kind; every corruption must fail."""
    results = []
    for kind, (cmd, stdout) in examples.items():
        for name, rejected in mutations(cmd, stdout):
            results.append({"kind": kind, "corruption": name, "rejected": rejected()})
    return results
