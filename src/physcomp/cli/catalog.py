"""``physcomp catalog``: the reference systems, listed or compared with the Landauer floor."""

from __future__ import annotations

from ..errors import InputError
from ..units import FARAD, POWER, TEMPERATURE, VOLT, Quantity
from .main import _finite, _unused
from .report import Report


def add_parser(sub, common, help: str) -> None:
    cat = sub.add_parser("catalog", parents=[common], help=help)
    cat.add_argument("mode", nargs="?", choices=("list", "compare"), default="list")
    cat.add_argument("--temp", type=_finite, default=None, help="kelvin (300)")
    cat.add_argument("--system", default=None, help="restrict to one entry")
    cat.add_argument("--power", type=_finite, default=None, help="watts, adds op rate")
    cat.add_argument(
        "--capacitance", type=_finite, default=None, help="farads, adds switch energy"
    )
    cat.add_argument("--volts", type=_finite, default=None)


def handle(args) -> Report:
    from .. import catalog

    rep = Report(f"catalog {args.mode}")
    if args.mode == "list":
        _unused(args, "in list mode", "temp", "power", "capacitance", "volts")
    elif (args.capacitance is None) != (args.volts is None):
        raise InputError("give both --capacitance and --volts, or neither")
    systems = catalog.builtin_systems()
    if args.system is not None:
        systems = (catalog.get_system(args.system),)
    if args.mode == "list":
        for s in systems:
            rep.add(f"{s.name}.energy_per_op", s.energy_per_op, s.provenance)
            if s.power is not None:
                rep.add(f"{s.name}.power", s.power, s.provenance)
            if s.op_rate is not None:
                rep.add(f"{s.name}.op_rate", s.op_rate, s.provenance)
        return rep
    temp = catalog.ROOM_TEMPERATURE_K if args.temp is None else args.temp
    T = Quantity(temp, TEMPERATURE)
    rep.inputs = {"temp": temp}
    for s in systems:
        inefficiency = catalog.inefficiency_factor(s, T)
        rep.add(f"{s.name}.inefficiency", inefficiency, "energy_per_op/(k_B*T*ln2)")
        if s.power is not None:
            rate = catalog.op_rate(s.power, s.energy_per_op)
            rep.add(f"{s.name}.op_rate", rate, "power/energy_per_op")
    if args.power is not None:
        rep.inputs["power"] = args.power
        power = Quantity(args.power, POWER)
        for s in systems:
            rate = catalog.op_rate(power, s.energy_per_op)
            rep.add(f"{s.name}.op_rate_at_power", rate, "power/energy_per_op")
    if args.capacitance is not None:
        rep.inputs["capacitance"] = args.capacitance
        rep.inputs["volts"] = args.volts
        q = catalog.switch_energy(args.capacitance * FARAD, args.volts * VOLT)
        rep.add("switch_energy", q, "C*V^2/2")
    return rep
