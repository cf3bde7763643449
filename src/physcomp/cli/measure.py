"""``physcomp measure``: the closed-form complexity measures, one operation each."""

from __future__ import annotations

from .. import units
from ..units import ENERGY, INFORMATION, TEMPERATURE, TIME, Quantity
from .main import _finite
from .report import Report

ENERGY_UNITS = ("J", "eV")


def add_parser(sub, common, help: str) -> None:
    # --format and --constants belong to the operation, not to measure
    me = sub.add_parser("measure", help=help)
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


def _energy_quantity(value: float, unit: str) -> Quantity:
    if unit == "eV":
        scale = units.CONSTANTS.electron_volt.magnitude
        value = units.in_range(value * scale, "energy*electron_volt", energy=value)
    return Quantity(value, ENERGY)


def handle(args) -> Report:
    from .. import measures

    op = args.measure_op
    rep = Report(f"measure {op}")
    if op == "phi-time":
        e = _energy_quantity(args.energy, args.energy_unit)
        t = Quantity(args.time, TIME)
        rep.inputs = {
            "energy": args.energy,
            "energy_unit": args.energy_unit,
            "time": args.time,
        }
        rep.add("phi_time_ops", measures.phi_time(e, t), "2*E*t/(pi*hbar)")
    elif op == "ml-time":
        e = _energy_quantity(args.energy, args.energy_unit)
        rep.inputs = {"energy": args.energy, "energy_unit": args.energy_unit}
        rep.add("min_flip_time", measures.ml_min_time(e), "pi*hbar/(2*E)")
    elif op == "phi-space":
        rep.inputs = {"smax": args.smax, "s": args.s}
        q = measures.phi_space(
            Quantity(args.smax, INFORMATION), Quantity(args.s, INFORMATION)
        )
        rep.add("phi_space", q, "S_max-S")
    elif op == "free-phi":
        df = Quantity(args.delta_f, ENERGY)
        rep.inputs = {"delta_f": args.delta_f}
        rep.add("free_phi", measures.free_phi(df), "consumed free energy")
        if args.time is not None:
            rep.inputs["time"] = args.time
            t = Quantity(args.time, TIME)
            rep.add("op_equivalent", measures.free_phi_op_equivalent(df, t), "2*F*t/(pi*hbar)")
    elif op == "landauer":
        rep.inputs = {"temp": args.temp, "bits": args.bits}
        q = measures.landauer_cost(Quantity(args.temp, TEMPERATURE), args.bits)
        rep.add("landauer_cost", q, "n*k_B*T*ln2")
    elif op == "binary-entropy":
        rep.inputs = {"eps": args.eps}
        rep.add("binary_entropy", measures.binary_entropy(args.eps), "-e*log2(e)-(1-e)*log2(1-e)")
    elif op == "ec-space":
        rep.inputs = {"ops": args.ops, "eps": args.eps, "mode": args.mode}
        q = measures.error_correction_space(args.ops, args.eps, args.mode)
        formula = "t*h(eps)" if args.mode == "exact" else "t*eps*log2(1/eps)"
        rep.add("ec_space", q, formula)
    return rep
