"""Assembly pathways: ordered join steps building a target from basic parts.

Objects are strings over a basis of single-character symbols; a join is
concatenation. A pathway is valid when every step's operands are either
basis symbols or products of strictly earlier steps, and the last product
is the target. Steps may carry a free energy, in which case the pathway's
free physical complexity is the sum.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ..errors import FileFormatError, InputError
from ..units import ENERGY, Quantity, finite_double, in_range, read_json, write_text


def check_basis(basis) -> frozenset[str]:
    symbols = frozenset(basis)
    if not symbols:
        raise InputError("basis must contain at least one symbol")
    for sym in symbols:
        if not isinstance(sym, str) or len(sym) != 1:
            raise InputError(f"basis symbols must be single characters, got {sym!r}")
    return symbols


class AssemblyPathway(
    namedtuple("AssemblyPathway", "basis steps target step_free_energy", defaults=(None,))
):
    """A join sequence; ``steps[i] = (left, right)`` producing ``left + right``.

    ``basis`` is a frozenset of symbols; ``step_free_energy`` is None or one
    :class:`Quantity` in joules per step.
    """

    __slots__ = ()

    def __new__(cls, basis, steps, target, step_free_energy=None):
        basis = check_basis(basis)
        steps = tuple((str(l), str(r)) for l, r in steps)
        self = super().__new__(cls, basis, steps, target, step_free_energy)
        self.validate()
        return self

    @property
    def products(self) -> tuple[str, ...]:
        return tuple(l + r for l, r in self.steps)

    def validate(self) -> None:
        available = set(self.basis)
        for k, (left, right) in enumerate(self.steps):
            for operand in (left, right):
                if operand not in available:
                    raise InputError(
                        f"step {k}: operand {operand!r} is neither a basis "
                        "symbol nor an earlier product"
                    )
            available.add(left + right)
        produced = self.products[-1] if self.steps else None
        if self.steps:
            if produced != self.target:
                raise InputError(
                    f"final product {produced!r} does not equal target {self.target!r}"
                )
        else:
            if self.target not in self.basis:
                raise InputError(
                    f"empty pathway target {self.target!r} must be a basis symbol"
                )
        if self.step_free_energy is not None:
            if len(self.step_free_energy) != len(self.steps):
                raise InputError(
                    f"{len(self.step_free_energy)} free energies for "
                    f"{len(self.steps)} steps"
                )
            for k, q in enumerate(self.step_free_energy):
                if not isinstance(q, Quantity) or q.dim != ENERGY:
                    raise InputError(f"step {k}: free energy must be in joules")


def pathway_free_phi(p: AssemblyPathway) -> Quantity:
    """Total free energy of the pathway: the sum over its annotated steps."""
    p.validate()
    if not p.steps:
        return Quantity(0.0, ENERGY)
    if p.step_free_energy is None:
        raise InputError("pathway carries no per-step free energies")
    total = sum(q.magnitude for q in p.step_free_energy)
    # of the range rule only overflow applies: a sum that cancels to 0 or
    # lands below the normal range is exact
    if not math.isfinite(total):
        in_range(total, "sum of step free energies", steps=len(p.steps))
    return Quantity(total, ENERGY)


# -- file format ------------------------------------------------------------
#
# {"basis": "ab", "steps": [["a","b"], ["ab","ab"]],
#  "free_energy_joules": [2.0, 3.0]}
# "target" may be given explicitly; otherwise it is the last step's product.


def pathway_to_dict(p: AssemblyPathway) -> dict:
    obj: dict = {
        "basis": "".join(sorted(p.basis)),
        "steps": [[l, r] for l, r in p.steps],
        "target": p.target,
    }
    if p.step_free_energy is not None:
        obj["free_energy_joules"] = [q.magnitude for q in p.step_free_energy]
    return obj


def pathway_from_dict(obj: dict, where: str = "pathway") -> AssemblyPathway:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{where}: expected an object")
    basis = obj.get("basis")
    if not isinstance(basis, str) or not basis:
        raise FileFormatError(f"{where}: basis: expected a non-empty string of symbols")
    steps_raw = obj.get("steps")
    if not isinstance(steps_raw, list):
        raise FileFormatError(f"{where}: steps: expected an array")
    steps = []
    for k, step in enumerate(steps_raw):
        if (
            not isinstance(step, list)
            or len(step) != 2
            or not all(isinstance(s, str) and s for s in step)
        ):
            raise FileFormatError(
                f"{where}: steps[{k}]: expected a [left, right] pair of strings"
            )
        steps.append((step[0], step[1]))
    energies = None
    if "free_energy_joules" in obj:
        raw = obj["free_energy_joules"]
        if not isinstance(raw, list):
            raise FileFormatError(
                f"{where}: free_energy_joules: expected an array of finite numbers"
            )
        for k, x in enumerate(raw):
            if not finite_double(x):
                raise FileFormatError(
                    f"{where}: free_energy_joules[{k}]: expected a finite number"
                )
        energies = tuple(Quantity(float(x), ENERGY) for x in raw)
    target = obj.get("target")
    if target is None:
        if not steps:
            raise FileFormatError(
                f"{where}: empty pathway needs an explicit \"target\""
            )
        target = steps[-1][0] + steps[-1][1]
    elif not isinstance(target, str) or not target:
        raise FileFormatError(f"{where}: target: expected a non-empty string")
    try:
        return AssemblyPathway(
            basis=frozenset(basis),
            steps=tuple(steps),
            target=target,
            step_free_energy=energies,
        )
    except InputError as exc:
        raise FileFormatError(f"{where}: {exc}")


def load_pathway(path: str) -> AssemblyPathway:
    return pathway_from_dict(read_json(path), where=path)


def write_pathway(path: str, p: AssemblyPathway) -> None:
    import json  # only writing runs load the encoder

    write_text(path, json.dumps(pathway_to_dict(p)) + "\n")
