"""``physcomp bh``: a black hole's report, its timeline or page curve, or a mass sweep."""

from __future__ import annotations

import math

from .. import units
from ..errors import InputError
from ..units import MASS, Quantity
from .main import _finite, _unused
from .report import Report

MASS_UNITS = ("kg", "solar", "planck")

SWEEP_CSV_HEADER = (
    "mass_kg,radius_m,temperature_K,entropy_bits,lifetime_s,"
    "ops_per_second,total_ops,max_error_rate"
)


def add_parser(sub, common, help: str) -> None:
    bh = sub.add_parser("bh", parents=[common], help=help)
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
    bh.set_defaults(format=None)  # human in report mode; the other outputs are CSV


def _mass_quantity(args) -> Quantity:
    if args.mass is None:
        raise InputError("--mass is required")
    m = args.mass
    if args.unit != "kg":
        scale = getattr(units.CONSTANTS, f"{args.unit}_mass").magnitude
        m = units.in_range(m * scale, f"mass*{args.unit}_mass", mass=m)
    return Quantity(m, MASS)


def _parse_sweep(spec: str) -> list[float]:
    try:
        start_s, stop_s, count_s = spec.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise InputError("--sweep expects START:STOP:COUNT")
    if not 0 < start < stop < math.inf or count < 2:
        raise InputError("--sweep needs 0 < START < STOP < inf and COUNT >= 2")
    # the ends are the parsed bounds: 10 ** log10(x) need not give x back
    la, lb = math.log10(start), math.log10(stop)
    inner = (10 ** (la + (lb - la) * i / (count - 1)) for i in range(1, count - 1))
    return [start, *inner, stop]


def _csv_only(args, where: str) -> None:
    """Refuse a --format that was given where the output is always CSV."""
    if args.format not in (None, "csv"):
        raise InputError(f"--format {args.format} has no effect {where}; the output is CSV")


def handle(args) -> Report | str:
    from .. import blackhole

    if args.sweep is not None:
        if args.mode != "report":
            raise InputError(f"--sweep has no effect in {args.mode} mode")
        _unused(args, "with --sweep", "mass", "unit", "samples")
        _csv_only(args, "with --sweep")
        lines = [SWEEP_CSV_HEADER]
        for m in _parse_sweep(args.sweep):
            r = blackhole.characterize(Quantity(m, MASS))
            lines.append(
                f"{m:.17g},{r.radius.magnitude:.17g},"
                f"{r.temperature.magnitude:.17g},{r.entropy_bits:.17g},"
                f"{r.lifetime.magnitude:.17g},{r.ops_per_second.magnitude:.17g},"
                f"{r.total_ops:.17g},{r.max_error_rate:.17g}"
            )
        return "\n".join(lines) + "\n"
    if args.mode == "report":
        _unused(args, "in report mode", "out", "samples")
        args.format = args.format or "human"
    else:
        _csv_only(args, f"in {args.mode} mode")
    args.unit = args.unit or "kg"
    mass = _mass_quantity(args)
    if args.mode in ("timeline", "page-curve"):
        samples = blackhole.page_curve(mass, 100 if args.samples is None else args.samples)
        return "\n".join(blackhole.timeline_csv_lines(samples)) + "\n"
    r = blackhole.characterize(mass)
    rep = Report("bh")
    rep.inputs = {"mass": args.mass, "unit": args.unit}
    rep.add("mass", r.mass, "input")
    rep.add("radius", r.radius, "R=2*G*M/c^2")
    rep.add("temperature", r.temperature, "T=m_P^2*c^2/(8*pi*M*k_B)")
    rep.add("entropy_nats", r.entropy_nats, "S=4*pi*(M/m_P)^2", "nat")
    rep.add("entropy_bits", r.entropy_bits, "S/ln2", "bit")
    rep.add("lifetime", r.lifetime, "t_M=5120*pi*G^2*M^3/(hbar*c^4)")
    rep.add("lifetime_years", r.lifetime_years, "t_M/year", "yr")
    rep.add("ops_per_second", r.ops_per_second, "2*M*c^2/(pi*hbar)")
    rep.add("total_ops", r.total_ops, "ops_per_second*t_M")
    rep.add("bit_flip_time", r.bit_flip_time, "pi^2*R/c")
    rep.add("free_energy", r.free_energy, "F=M*c^2/2")
    rep.add("page_time_paper", r.page_time_paper, "t_M/2")
    rep.add("page_time_entropy", r.page_time_entropy, "(1-2^-1.5)*t_M")
    rep.add("max_error_rate", r.max_error_rate, "h(eps)*total_ops=entropy_bits")
    return rep
