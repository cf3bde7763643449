"""Command-line surface: one subcommand per operation, deterministic reports.

Exit codes: 0 success, 2 invalid input (bad flags, malformed files, domain
errors), 3 numerical failure, 1 when the reader closes stdout before the
output is written. User errors render as one-line messages on stderr, never
stack traces.

Each subcommand other than ``constants`` lives in its own module of this
package (``physcomp.cli.bh`` for ``bh``, ...), which defines
``add_parser(sub, common, help)`` and ``handle(args)``, which returns a
``Report`` or CSV text: ``run`` refuses every output path before a handler
sees its flags, and writes the text to stdout or ``--out``. A process
imports only the module of the subcommand it runs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import os
import sys

from .. import __version__, units
from ..errors import InputError, NumericalError
from ..units import constants
from .report import FORMATS, Report, render

SUBCOMMANDS = {
    "constants": "pinned constant set",
    "bh": "black hole computer model",
    "measure": "complexity measures",
    "qt": "quantum thermodynamics",
    "assembly": "assembly pathways",
    "catalog": "reference systems",
}


def _finite(text: str) -> float:
    """A float flag's value; argparse rejects inf and nan with exit 2."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _unused(args, where: str, *flags: str) -> None:
    """Refuse a flag that was given where it would have no effect."""
    for flag in flags:
        if getattr(args, flag.replace("-", "_")) is not None:
            raise InputError(f"--{flag} has no effect {where}")


def _common() -> argparse.ArgumentParser:
    """The flags every report takes: a parent parser."""
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
    return common


def _base_parser(argv):
    """The parser, with arguments only under the subcommand ``argv`` names.

    Every subcommand is registered with its help, so the top-level help and
    the invalid-choice error list all six. The root parser has no option
    that takes a value, so the first token not starting with ``-`` names
    the subcommand. Returns the parser and that subcommand's module, or
    None where there is none to import.
    """
    parser = argparse.ArgumentParser(
        prog="physcomp",
        description="physical computational complexity toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((a for a in argv if not a.startswith("-")), None)
    module = None
    for name, text in SUBCOMMANDS.items():
        if name != named:
            sub.add_parser(name, help=text)
        elif name == "constants":
            sub.add_parser(name, parents=[_common()], help=text)
        else:
            module = importlib.import_module(f"{__package__}.{name}")
            module.add_parser(sub, _common(), text)
    return parser, module


def _constants_report() -> Report:
    rep = Report("constants")
    for name, _, unit, _, origin in units.CONSTANT_TABLE:
        value = getattr(units.CONSTANTS, name).magnitude
        if value != getattr(units.PINNED, name).magnitude:
            origin = "override"
        rep.add(name, value, origin, unit)
    return rep


def run(argv, out=None, err=None) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser, module = _base_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the one place a run picks its constants: --constants FILE, else
        # the pinned set
        consts = constants(args.constants)
        # an output file is refused before any work
        for dest in ("out", "save_state", "save_vector", "save_pathway"):
            if getattr(args, dest, None) is not None:
                units.check_writable(getattr(args, dest))
        with units.using(consts):
            result = _constants_report() if module is None else module.handle(args)
        if isinstance(result, Report):
            if consts.source != "pinned":
                result.inputs["constants"] = consts.source
            result = render(result, args.format)
        if getattr(args, "out", None) is not None:
            units.write_text(args.out, result)
        else:
            out.write(result)
    except InputError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        err.write(f"numerical failure: {exc}\n")
        return 3
    return 0


# any of these set by the user chooses the OpenBLAS thread count
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main() -> None:
    """The process entry: one BLAS thread unless the user chose a count.

    At the d <= 512 this toolkit serves, a second thread saves less wall
    time than it burns CPU spinning. Set here, before numpy loads, and not
    in ``run``, which leaves its host process's environment alone.

    The cyclic collector is off for the process: one run builds few
    reference cycles and ends soon, while a collection pass walks every
    container it has made (262,144 pair lists in a d = 512 matrix write).
    Once ``run`` returns, ``gc.freeze()`` moves every live object out of the
    collector's reach, so the interpreter's final collection has nothing to
    walk; ``atexit`` handlers and stream flushes still run.
    """
    if not any(v in os.environ for v in BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    gc.disable()
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit 1 with no traceback. With no
        # sys.stdout the interpreter's flush at exit skips the stream, and
        # the error the stream's own close meets then is dropped.
        sys.stdout = None
        code = 1
    gc.freeze()
    sys.exit(code)
