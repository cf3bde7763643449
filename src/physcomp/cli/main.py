"""Command-line surface: one subcommand per operation, deterministic reports.

Exit codes: 0 success, 2 invalid input (bad flags, malformed files, domain
errors), 3 numerical failure. User errors render as one-line messages on
stderr, never stack traces.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .. import __version__, units
from ..errors import InputError, NumericalError
from ..units import (
    ENERGY,
    FARAD,
    INFORMATION,
    MASS,
    POWER,
    TEMPERATURE,
    TIME,
    VOLT,
    Quantity,
    constants,
)
from .report import FORMATS, Report, render

MASS_UNITS = ("kg", "solar", "planck")
ENERGY_UNITS = ("J", "eV")


def _finite(text: str) -> float:
    """A float flag's value; argparse rejects inf and nan with exit 2."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _base_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=FORMATS, default="human", help="output rendering"
    )
    common.add_argument(
        "--constants",
        metavar="FILE",
        default=None,
        help="constants override file (flat JSON, SI units)",
    )

    parser = argparse.ArgumentParser(
        prog="physcomp",
        description="physical computational complexity toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("constants", parents=[common], help="pinned constant set")

    bh = sub.add_parser("bh", parents=[common], help="black hole computer model")
    bh.add_argument(
        "mode",
        nargs="?",
        choices=("report", "timeline", "page-curve"),
        default="report",
    )
    bh.add_argument("--mass", type=_finite, required=False, help="mass value")
    bh.add_argument("--unit", choices=MASS_UNITS, default=None, help="default kg")
    bh.add_argument("--samples", type=int, default=None, help="timeline samples (100)")
    bh.add_argument("--out", metavar="FILE", default=None, help="write CSV here")
    bh.add_argument(
        "--sweep",
        metavar="START:STOP:COUNT",
        default=None,
        help="log-spaced mass sweep (report mode), CSV output",
    )

    # --format and --constants belong to the operation, not to measure or qt
    me = sub.add_parser("measure", help="complexity measures")
    me_sub = me.add_subparsers(dest="measure_op", required=True)
    p = me_sub.add_parser("phi-time", parents=[common])
    p.add_argument("--energy", type=_finite, required=True)
    p.add_argument("--energy-unit", choices=ENERGY_UNITS, default="J")
    p.add_argument("--time", type=_finite, required=True, help="seconds")
    p = me_sub.add_parser("ml-time", parents=[common])
    p.add_argument("--energy", type=_finite, required=True)
    p.add_argument("--energy-unit", choices=ENERGY_UNITS, default="J")
    p = me_sub.add_parser("phi-space", parents=[common])
    p.add_argument("--smax", type=_finite, required=True, help="bits")
    p.add_argument("--s", type=_finite, required=True, help="bits")
    p = me_sub.add_parser("free-phi", parents=[common])
    p.add_argument("--delta-f", type=_finite, required=True, help="joules")
    p.add_argument("--time", type=_finite, default=None, help="seconds (op budget)")
    p = me_sub.add_parser("landauer", parents=[common])
    p.add_argument("--temp", type=_finite, required=True, help="kelvin")
    p.add_argument("--bits", type=_finite, required=True)
    p = me_sub.add_parser("binary-entropy", parents=[common])
    p.add_argument("--eps", type=_finite, required=True)
    p = me_sub.add_parser("ec-space", parents=[common])
    p.add_argument("--ops", type=_finite, required=True)
    p.add_argument("--eps", type=_finite, required=True)
    p.add_argument("--mode", choices=("exact", "asymptotic"), default="exact")

    qtp = sub.add_parser("qt", help="quantum thermodynamics")
    qt_sub = qtp.add_subparsers(dest="qt_op", required=True)

    def _temp_flags(sp):
        sp.add_argument("--temp", type=_finite, default=None, help="kelvin")
        sp.add_argument(
            "--ktemp-joules",
            type=_finite,
            default=None,
            help="k_B T directly, in joules",
        )

    p = qt_sub.add_parser("entropy", parents=[common])
    p.add_argument("--state", required=True, metavar="FILE")
    p.add_argument("--entropy-unit", choices=("bits", "nats"), default="bits")
    p = qt_sub.add_parser("gibbs", parents=[common])
    p.add_argument("--ham", required=True, metavar="FILE")
    _temp_flags(p)
    p.add_argument("--save-state", metavar="FILE", default=None)
    p = qt_sub.add_parser("solve-temp", parents=[common])
    p.add_argument("--ham", required=True, metavar="FILE")
    p.add_argument("--energy", type=_finite, required=True, help="joules")
    p = qt_sub.add_parser("work", parents=[common])
    p.add_argument("--ham", required=True, metavar="FILE")
    p.add_argument("--state", required=True, metavar="FILE")
    _temp_flags(p)
    p = qt_sub.add_parser("evolve", parents=[common])
    p.add_argument("--ham", required=True, metavar="FILE")
    p.add_argument("--time", type=_finite, required=True, help="seconds")
    p.add_argument("--state-vector", required=True, metavar="FILE")
    p.add_argument("--save-vector", metavar="FILE", default=None)
    p = qt_sub.add_parser("spread", parents=[common])
    p.add_argument("--ham", required=True, metavar="FILE")
    p.add_argument("--state", required=True, metavar="FILE")

    asm = sub.add_parser("assembly", parents=[common], help="assembly pathways")
    asm.add_argument("--target", default=None, help="string to assemble")
    asm.add_argument("--basis", default=None, help="symbols, e.g. 'ab'")
    asm.add_argument("--pathway", metavar="FILE", default=None, help="pathway file")
    asm.add_argument("--save-pathway", metavar="FILE", default=None)

    cat = sub.add_parser("catalog", parents=[common], help="reference systems")
    cat.add_argument("mode", nargs="?", choices=("list", "compare"), default="list")
    cat.add_argument("--temp", type=_finite, default=None, help="kelvin (300)")
    cat.add_argument("--system", default=None, help="restrict to one entry")
    cat.add_argument("--power", type=_finite, default=None, help="watts, adds op rate")
    cat.add_argument(
        "--capacitance", type=_finite, default=None, help="farads, adds switch energy"
    )
    cat.add_argument("--volts", type=_finite, default=None)

    return parser


def _unused(args, where: str, *flags: str) -> None:
    """Refuse a flag that was given where it would have no effect."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is not None:
            raise InputError(f"--{flag} has no effect {where}")


def _mass_quantity(args) -> Quantity:
    if args.mass is None:
        raise InputError("--mass is required")
    m = args.mass
    if args.unit != "kg":
        scale = getattr(units.CONSTANTS, f"{args.unit}_mass").magnitude
        m = units.in_range(m * scale, f"mass*{args.unit}_mass", mass=m)
    return Quantity(m, MASS, "kg")


def _energy_quantity(value: float, unit: str) -> Quantity:
    if unit == "eV":
        scale = units.CONSTANTS.electron_volt.magnitude
        value = units.in_range(value * scale, "energy*electron_volt", energy=value)
    return Quantity(value, ENERGY, "J")


def _temperature(args) -> Quantity:
    if (args.temp is None) == (args.ktemp_joules is None):
        raise InputError("give exactly one of --temp or --ktemp-joules")
    if args.temp is not None:
        return Quantity(args.temp, TEMPERATURE, "K")
    k_b = units.CONSTANTS.k_B.magnitude
    t = units.in_range(args.ktemp_joules / k_b, "--ktemp-joules/k_B", kT=args.ktemp_joules)
    return Quantity(t, TEMPERATURE, "K")


def _add_partition_function(rep: Report, g) -> None:
    """Report Z while it is a normal double, else ln Z in its place."""
    formula = "tr(exp(-H/(k_B*T)))"
    try:
        rep.add("partition_function", g.partition_function, "", formula)
    except NumericalError:
        rep.add("log_partition_function", g.log_partition_function, "", f"ln({formula})")


def _cmd_constants(args, out) -> Report:
    rep = Report("constants", __version__)
    for name, _, unit, _, origin in units.CONSTANT_TABLE:
        value = getattr(units.CONSTANTS, name).magnitude
        if value != getattr(units.PINNED, name).magnitude:
            origin = "override"
        rep.add(name, value, unit, origin)
    return rep


def _parse_sweep(spec: str) -> list[float]:
    try:
        start_s, stop_s, count_s = spec.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise InputError("--sweep expects START:STOP:COUNT")
    if not 0 < start < stop < math.inf or count < 2:
        raise InputError("--sweep needs 0 < START < STOP < inf and COUNT >= 2")
    la, lb = math.log10(start), math.log10(stop)
    return [10 ** (la + (lb - la) * i / (count - 1)) for i in range(count)]


SWEEP_CSV_HEADER = (
    "mass_kg,radius_m,temperature_K,entropy_bits,lifetime_s,"
    "ops_per_second,total_ops,max_error_rate"
)


def _cmd_bh(args, out) -> Report | None:
    from .. import blackhole

    if args.sweep is not None:
        if args.mode != "report":
            raise InputError(f"--sweep has no effect in {args.mode} mode")
        _unused(args, "with --sweep", "mass", "unit", "samples")
        lines = [SWEEP_CSV_HEADER]
        for m in _parse_sweep(args.sweep):
            r = blackhole.characterize(Quantity(m, MASS, "kg"))
            lines.append(
                f"{m:.17g},{r.radius.magnitude:.17g},"
                f"{r.temperature.magnitude:.17g},{r.entropy_bits:.17g},"
                f"{r.lifetime.magnitude:.17g},{r.ops_per_second.magnitude:.17g},"
                f"{r.total_ops:.17g},{r.max_error_rate:.17g}"
            )
        _write_lines(lines, args.out, out)
        return None
    if args.mode == "report":
        _unused(args, "in report mode", "out", "samples")
    args.unit = args.unit or "kg"
    mass = _mass_quantity(args)
    if args.mode in ("timeline", "page-curve"):
        samples = blackhole.page_curve(mass, 100 if args.samples is None else args.samples)
        _write_lines(list(blackhole.timeline_csv_lines(samples)), args.out, out)
        return None
    r = blackhole.characterize(mass)
    rep = Report("bh", __version__)
    rep.inputs = {"mass": args.mass, "unit": args.unit}
    rep.add("mass", r.mass.magnitude, "kg", "input")
    rep.add("radius", r.radius.magnitude, "m", "R=2*G*M/c^2")
    rep.add("temperature", r.temperature.magnitude, "K", "T=m_P^2*c^2/(8*pi*M*k_B)")
    rep.add("entropy_nats", r.entropy_nats, "nat", "S=4*pi*(M/m_P)^2")
    rep.add("entropy_bits", r.entropy_bits, "bit", "S/ln2")
    rep.add("lifetime", r.lifetime.magnitude, "s", "t_M=5120*pi*G^2*M^3/(hbar*c^4)")
    rep.add("lifetime_years", r.lifetime_years, "yr", "t_M/year")
    rep.add("ops_per_second", r.ops_per_second.magnitude, "1/s", "2*M*c^2/(pi*hbar)")
    rep.add("total_ops", r.total_ops, "", "ops_per_second*t_M")
    rep.add("bit_flip_time", r.bit_flip_time.magnitude, "s", "pi^2*R/c")
    rep.add("free_energy", r.free_energy.magnitude, "J", "F=M*c^2/2")
    rep.add("page_time_paper", r.page_time_paper.magnitude, "s", "t_M/2")
    rep.add(
        "page_time_entropy",
        r.page_time_entropy.magnitude,
        "s",
        "(1-2^-1.5)*t_M",
    )
    rep.add(
        "max_error_rate", r.max_error_rate, "", "h(eps)*total_ops=entropy_bits"
    )
    return rep


def _cmd_measure(args, out) -> Report:
    from .. import measures

    op = args.measure_op
    rep = Report(f"measure {op}", __version__)
    if op == "phi-time":
        e = _energy_quantity(args.energy, args.energy_unit)
        t = Quantity(args.time, TIME, "s")
        rep.inputs = {
            "energy": args.energy,
            "energy_unit": args.energy_unit,
            "time": args.time,
        }
        rep.add("phi_time_ops", measures.phi_time(e, t), "", "2*E*t/(pi*hbar)")
    elif op == "ml-time":
        e = _energy_quantity(args.energy, args.energy_unit)
        rep.inputs = {"energy": args.energy, "energy_unit": args.energy_unit}
        rep.add(
            "min_flip_time", measures.ml_min_time(e).magnitude, "s", "pi*hbar/(2*E)"
        )
    elif op == "phi-space":
        rep.inputs = {"smax": args.smax, "s": args.s}
        q = measures.phi_space(
            Quantity(args.smax, INFORMATION, "bit"), Quantity(args.s, INFORMATION, "bit")
        )
        rep.add("phi_space", q.magnitude, "bit", "S_max-S")
    elif op == "free-phi":
        df = Quantity(args.delta_f, ENERGY, "J")
        rep.inputs = {"delta_f": args.delta_f}
        rep.add("free_phi", measures.free_phi(df).magnitude, "J", "consumed free energy")
        if args.time is not None:
            rep.inputs["time"] = args.time
            t = Quantity(args.time, TIME, "s")
            rep.add(
                "op_equivalent",
                measures.free_phi_op_equivalent(df, t),
                "",
                "2*F*t/(pi*hbar)",
            )
    elif op == "landauer":
        rep.inputs = {"temp": args.temp, "bits": args.bits}
        q = measures.landauer_cost(Quantity(args.temp, TEMPERATURE, "K"), args.bits)
        rep.add("landauer_cost", q.magnitude, "J", "n*k_B*T*ln2")
    elif op == "binary-entropy":
        rep.inputs = {"eps": args.eps}
        rep.add(
            "binary_entropy",
            measures.binary_entropy(args.eps).magnitude,
            "bit",
            "-e*log2(e)-(1-e)*log2(1-e)",
        )
    elif op == "ec-space":
        rep.inputs = {"ops": args.ops, "eps": args.eps, "mode": args.mode}
        q = measures.error_correction_space(args.ops, args.eps, args.mode)
        formula = "t*h(eps)" if args.mode == "exact" else "t*eps*log2(1/eps)"
        rep.add("ec_space", q.magnitude, "bit", formula)
    return rep


def _cmd_qt(args, out) -> Report:
    import numpy as np

    from .. import qthermo as qt

    op = args.qt_op
    rep = Report(f"qt {op}", __version__)
    # a result out of range raises in units.in_range; numpy stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        if op == "entropy":
            rho = qt.load_density(args.state)
            rep.inputs = {"state": args.state, "entropy_unit": args.entropy_unit}
            s = qt.von_neumann_entropy(rho, args.entropy_unit)
            rep.add("entropy", s.expressed, s.unit, "-tr(rho*ln(rho))")
        elif op == "gibbs":
            ham = qt.load_hamiltonian(args.ham)
            T = _temperature(args)
            if args.save_state:
                ham.eigensystem()  # the saved matrix needs eigenvectors: one eigh
            g = qt.gibbs_state(ham, T)
            rep.inputs = {"ham": args.ham, "temperature_K": T.magnitude}
            rep.add("temperature", g.temperature.magnitude, "K", "input")
            _add_partition_function(rep, g)
            rep.add("f_eq", g.f_eq.magnitude, "J", "-k_B*T*ln(Z)")
            rep.add(
                "entropy",
                qt.von_neumann_entropy(g.rho).magnitude,
                "bit",
                "-tr(rho*ln(rho))",
            )
            # the state is diagonal in H's eigenbasis: tr(rho*H) = sum_k p_k E_k
            e = float((g.rho.probabilities * ham.eigenvalues()).sum())
            rep.add("mean_energy", e, "J", "tr(rho*H)")
            if args.save_state:
                qt.write_matrix(args.save_state, g.rho.matrix)
                rep.warn(f"thermal state written to {args.save_state}")
        elif op == "solve-temp":
            ham = qt.load_hamiltonian(args.ham)
            g = qt.solve_inverse_temperature(ham, Quantity(args.energy, ENERGY, "J"))
            rep.inputs = {"ham": args.ham, "energy": args.energy}
            rep.add("temperature", g.temperature.magnitude, "K", "tr(rho_th*H)=E")
            rep.add("beta", g.beta.magnitude, "1/J", "1/(k_B*T)")
            _add_partition_function(rep, g)
            rep.add("f_eq", g.f_eq.magnitude, "J", "-k_B*T*ln(Z)")
        elif op == "work":
            ham = qt.load_hamiltonian(args.ham)
            rho = qt.load_density(args.state)
            T = _temperature(args)
            rep.inputs = {
                "ham": args.ham,
                "state": args.state,
                "temperature_K": T.magnitude,
            }
            w = qt.extractable_work(rho, ham, T)
            rep.add("extractable_work", w.magnitude, "J", "k_B*T*D(rho||rho_th)")
            f = qt.nonequilibrium_free_energy(rho, ham, T)
            rep.add("free_energy", f.magnitude, "J", "tr(rho*H)-T*k_B*S")
        elif op == "evolve":
            ham = qt.load_hamiltonian(args.ham)
            psi = qt.load_state_vector(args.state_vector)
            t = Quantity(args.time, TIME, "s")
            rep.inputs = {
                "ham": args.ham,
                "state_vector": args.state_vector,
                "time": args.time,
            }
            out_state = qt.evolve(ham, t, psi)
            for k, amp in enumerate(out_state.amplitudes):
                if out_state.dim <= 16:
                    rep.add(
                        f"probability_{k}",
                        float(abs(amp) ** 2),
                        "",
                        "|<k|exp(-i*H*t/hbar)|psi>|^2",
                    )
            if out_state.dim > 16:
                rep.warn("state has more than 16 amplitudes; use --save-vector")
            if args.save_vector:
                qt.write_vector(args.save_vector, out_state.amplitudes)
                rep.warn(f"evolved state written to {args.save_vector}")
        elif op == "spread":
            ham = qt.load_hamiltonian(args.ham)
            rho = qt.load_density(args.state)
            rep.inputs = {"ham": args.ham, "state": args.state}
            rep.add(
                "energy_spread",
                qt.energy_spread(rho, ham).magnitude,
                "J",
                "sqrt(tr(rho*H^2)-tr(rho*H)^2)",
            )
    return rep


def _cmd_assembly(args, out) -> Report:
    from .. import assembly

    rep = Report("assembly", __version__)
    if args.pathway is not None:
        _unused(args, "with --pathway", "target", "basis", "save-pathway")
        p = assembly.load_pathway(args.pathway)
        rep.inputs = {"pathway": args.pathway}
        rep.add("target", p.target, "", "pathway file")
        rep.add("steps", len(p.steps), "", "join count")
        if p.step_free_energy is not None:
            rep.add(
                "pathway_free_phi",
                assembly.pathway_free_phi(p).magnitude,
                "J",
                "sum of step free energies",
            )
        else:
            rep.warn("pathway carries no free energies; only validated")
        return rep
    if args.target is None or args.basis is None:
        raise InputError("give --target and --basis, or --pathway FILE")
    index, pathway = assembly.assembly_index(args.target, set(args.basis))
    rep.inputs = {"target": args.target, "basis": args.basis}
    rep.add("assembly_index", index, "", "minimal joins with reuse")
    for k, (left, right) in enumerate(pathway.steps):
        rep.add(f"step_{k}", f"{left}+{right}", "", "join")
    if args.save_pathway:
        assembly.write_pathway(args.save_pathway, pathway)
        rep.warn(f"witness pathway written to {args.save_pathway}")
    return rep


def _cmd_catalog(args, out) -> Report:
    from .. import catalog

    rep = Report(f"catalog {args.mode}", __version__)
    if args.mode == "list":
        _unused(args, "in list mode", "temp", "power", "capacitance", "volts")
    elif (args.capacitance is None) != (args.volts is None):
        raise InputError("give both --capacitance and --volts, or neither")
    systems = catalog.builtin_systems()
    if args.system is not None:
        systems = (catalog.get_system(args.system),)
    if args.mode == "list":
        for s in systems:
            rep.add(f"{s.name}.energy_per_op", s.energy_per_op.magnitude, "J", s.provenance)
            if s.power is not None:
                rep.add(f"{s.name}.power", s.power.magnitude, "W", s.provenance)
            if s.op_rate is not None:
                rep.add(f"{s.name}.op_rate", s.op_rate.magnitude, "1/s", s.provenance)
        return rep
    temp = catalog.ROOM_TEMPERATURE_K if args.temp is None else args.temp
    T = Quantity(temp, TEMPERATURE, "K")
    rep.inputs = {"temp": temp}
    for s in systems:
        rep.add(
            f"{s.name}.inefficiency",
            catalog.inefficiency_factor(s, T),
            "",
            "energy_per_op/(k_B*T*ln2)",
        )
        if s.power is not None:
            rep.add(
                f"{s.name}.op_rate",
                catalog.op_rate(s.power, s.energy_per_op).magnitude,
                "1/s",
                "power/energy_per_op",
            )
    if args.power is not None:
        rep.inputs["power"] = args.power
        for s in systems:
            rep.add(
                f"{s.name}.op_rate_at_power",
                catalog.op_rate(
                    Quantity(args.power, POWER, "W"), s.energy_per_op
                ).magnitude,
                "1/s",
                "power/energy_per_op",
            )
    if args.capacitance is not None:
        rep.inputs["capacitance"] = args.capacitance
        rep.inputs["volts"] = args.volts
        q = catalog.switch_energy(args.capacitance * FARAD, args.volts * VOLT)
        rep.add("switch_energy", q.magnitude, "J", "C*V^2/2")
    return rep


def _write_lines(lines: list[str], out_path: str | None, out) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        units.write_text(out_path, text)
    else:
        out.write(text)


_HANDLERS = {
    "constants": _cmd_constants,
    "bh": _cmd_bh,
    "measure": _cmd_measure,
    "qt": _cmd_qt,
    "assembly": _cmd_assembly,
    "catalog": _cmd_catalog,
}


def run(argv, out=None, err=None) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _base_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the one place a run picks its constants: --constants FILE, else
        # the file named by PHYSCOMP_CONSTANTS, else the pinned set
        consts = constants(args.constants)
        with units.using(consts):
            report = _HANDLERS[args.command](args, out)
    except InputError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        err.write(f"numerical failure: {exc}\n")
        return 3
    if report is not None:
        if consts.source != "pinned":
            report.inputs["constants"] = consts.source
        out.write(render(report, args.format))
    return 0


# any of these set by the user chooses the OpenBLAS thread count
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main() -> None:
    """The process entry: one BLAS thread unless the user chose a count.

    At the d <= 512 this toolkit serves, a second thread saves less wall
    time than it burns CPU spinning. Set here, before numpy loads, and not
    in ``run``, which leaves its host process's environment alone.
    """
    if not any(v in os.environ for v in BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(run(sys.argv[1:]))
