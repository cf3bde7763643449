"""``physcomp qt``: quantum thermodynamics on matrix files, one operation each."""

from __future__ import annotations

from .. import units
from ..errors import InputError, NumericalError
from ..units import ENERGY, TEMPERATURE, TIME, Quantity
from .main import _finite
from .report import Report


def add_parser(sub, common, help: str) -> None:
    # --format and --constants belong to the operation, not to qt
    qtp = sub.add_parser("qt", help=help)
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


def _temperature(args) -> Quantity:
    if (args.temp is None) == (args.ktemp_joules is None):
        raise InputError("give exactly one of --temp or --ktemp-joules")
    if args.temp is not None:
        return Quantity(args.temp, TEMPERATURE)
    k_b = units.CONSTANTS.k_B.magnitude
    t = units.in_range(args.ktemp_joules / k_b, "--ktemp-joules/k_B", kT=args.ktemp_joules)
    return Quantity(t, TEMPERATURE)


def _add_partition_function(rep: Report, g) -> None:
    """Report Z while it is a normal double, else ln Z in its place."""
    formula = "tr(exp(-H/(k_B*T)))"
    try:
        rep.add("partition_function", g.partition_function, formula)
    except NumericalError:
        rep.add("log_partition_function", g.log_partition_function, f"ln({formula})")


def handle(args) -> Report:
    import numpy as np

    from .. import qthermo as qt

    op = args.qt_op
    rep = Report(f"qt {op}")
    # a result out of range raises in units.in_range; numpy stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        if op == "entropy":
            rho = qt.load_density(args.state)
            rep.inputs = {"state": args.state, "entropy_unit": args.entropy_unit}
            u = {"bits": "bit", "nats": "nat"}[args.entropy_unit]
            rep.add("entropy", qt.von_neumann_entropy(rho).value_in(u), "-tr(rho*ln(rho))", u)
        elif op == "gibbs":
            ham = qt.load_hamiltonian(args.ham)
            T = _temperature(args)
            g = qt.gibbs_state(ham, T)
            rep.inputs = {"ham": args.ham, "temperature_K": T.magnitude}
            rep.add("temperature", g.temperature, "input")
            _add_partition_function(rep, g)
            rep.add("f_eq", g.f_eq, "-k_B*T*ln(Z)")
            rep.add("entropy", qt.von_neumann_entropy(g.rho), "-tr(rho*ln(rho))")
            rep.add("mean_energy", qt.mean_energy(g.rho, ham), "tr(rho*H)")
            if args.save_state is not None:
                qt.write_matrix(args.save_state, g.rho.matrix)
                rep.warn(f"thermal state written to {args.save_state}")
        elif op == "solve-temp":
            ham = qt.load_hamiltonian(args.ham)
            g = qt.solve_inverse_temperature(ham, Quantity(args.energy, ENERGY))
            rep.inputs = {"ham": args.ham, "energy": args.energy}
            rep.add("temperature", g.temperature, "tr(rho_th*H)=E")
            rep.add("beta", g.beta, "1/(k_B*T)")
            _add_partition_function(rep, g)
            rep.add("f_eq", g.f_eq, "-k_B*T*ln(Z)")
        elif op == "work":
            ham = qt.load_hamiltonian(args.ham)
            rho = qt.load_density(args.state)
            T = _temperature(args)
            rep.inputs = {
                "ham": args.ham,
                "state": args.state,
                "temperature_K": T.magnitude,
            }
            rep.add("extractable_work", qt.extractable_work(rho, ham, T), "k_B*T*D(rho||rho_th)")
            rep.add("free_energy", qt.nonequilibrium_free_energy(rho, ham, T), "tr(rho*H)-T*k_B*S")
        elif op == "evolve":
            ham = qt.load_hamiltonian(args.ham)
            psi = qt.load_state_vector(args.state_vector)
            t = Quantity(args.time, TIME)
            rep.inputs = {
                "ham": args.ham,
                "state_vector": args.state_vector,
                "time": args.time,
            }
            out_state = qt.evolve(ham, t, psi)
            if out_state.dim <= 16:
                for k, amp in enumerate(out_state.amplitudes):
                    p = float(abs(amp) ** 2)
                    rep.add(f"probability_{k}", p, "|<k|exp(-i*H*t/hbar)|psi>|^2")
            else:
                rep.warn("state has more than 16 amplitudes; use --save-vector")
            if args.save_vector is not None:
                qt.write_vector(args.save_vector, out_state.amplitudes)
                rep.warn(f"evolved state written to {args.save_vector}")
        elif op == "spread":
            ham = qt.load_hamiltonian(args.ham)
            rho = qt.load_density(args.state)
            rep.inputs = {"ham": args.ham, "state": args.state}
            rep.add("energy_spread", qt.energy_spread(rho, ham), "sqrt(tr(rho*H^2)-tr(rho*H)^2)")
    return rep
