"""Deterministic report rendering: human tables, canonical JSON, CSV.

Machine output is byte-stable: keys are sorted, floats are written with 17
significant digits (which round-trips a double exactly), -0.0 as 0, and
re-rendering a parsed report reproduces the bytes.
"""

from __future__ import annotations

from .. import __version__
from ..units import Quantity, in_range

FORMATS = ("human", "json", "csv")


class Report:
    """One command's inputs, result rows and warnings, before rendering."""

    __slots__ = ("subcommand", "inputs", "results", "warnings")

    def __init__(self, subcommand: str):
        self.subcommand = subcommand
        self.inputs = {}
        self.results = []  # (name, value, unit, formula)
        self.warnings = []

    def add(self, name: str, value, formula: str, unit: str = "") -> None:
        """One result row. A :class:`Quantity` brings its magnitude and the
        unit its dimension derives; a plain number or string takes ``unit``,
        or none for a count. A nonzero float must be a result by
        :func:`units.in_range`, in the unit it prints; set ``inputs`` first,
        since a refusal names them."""
        if isinstance(value, Quantity):
            if unit:
                raise TypeError(f"{name}: a Quantity's unit is its own, not {unit!r}")
            value, unit = value.magnitude, value.unit
        if isinstance(value, float) and value != 0.0:
            in_range(value, f"{name} {formula}" + (f" in {unit}" if unit else ""), **self.inputs)
        self.results.append((name, value, unit, formula))

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def to_dict(self) -> dict:
        return {
            "tool": "physcomp",
            "version": __version__,
            "subcommand": self.subcommand,
            "inputs": dict(self.inputs),
            "results": [
                {"name": n, "value": v, "unit": u, "formula": f}
                for n, v, u, f in self.results
            ],
            "warnings": list(self.warnings),
        }


def format_number(x) -> str:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return f"{x + 0.0:.17g}"  # + 0.0: -0.0 prints as 0


def _json_canonical(obj, dumps) -> str:
    if isinstance(obj, dict):
        items = ", ".join(
            f"{dumps(str(k), ensure_ascii=False)}: {_json_canonical(v, dumps)}"
            for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_canonical(v, dumps) for v in obj) + "]"
    if isinstance(obj, float):
        return f"{obj + 0.0:.17g}"  # JSON reads -0 back as the integer 0
    return dumps(obj, ensure_ascii=False)


def render_json(report_dict: dict) -> str:
    """Canonical JSON: sorted keys, 17-significant-digit floats."""
    import json  # human and CSV output never load the encoder

    return _json_canonical(report_dict, json.dumps) + "\n"


def render_csv(report_dict: dict) -> str:
    lines = ["name,value,unit,formula"]
    for row in report_dict["results"]:
        lines.append(
            f"{row['name']},{format_number(row['value'])},"
            f"{row['unit']},{row['formula']}"
        )
    return "\n".join(lines) + "\n"


def render_human(report_dict: dict) -> str:
    rows = [
        (row["name"], format_number(row["value"]), row["unit"], row["formula"])
        for row in report_dict["results"]
    ]
    header = ("result", "value", "unit", "formula")
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(4)
    ]
    out = [f"{report_dict['tool']} {report_dict['version']} {report_dict['subcommand']}"]
    if report_dict["inputs"]:
        joined = ", ".join(
            f"{k}={v + 0.0 if isinstance(v, float) else v}"
            for k, v in sorted(report_dict["inputs"].items())
        )
        out.append(f"inputs: {joined}")
    out.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for r in rows:
        out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    for w in report_dict["warnings"]:
        out.append(f"warning: {w}")
    return "\n".join(out) + "\n"


def render(report: Report, fmt: str) -> str:
    d = report.to_dict()
    if fmt == "json":
        return render_json(d)
    if fmt == "csv":
        return render_csv(d)
    return render_human(d)
