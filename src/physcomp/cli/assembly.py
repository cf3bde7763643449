"""``physcomp assembly``: a target's assembly index and witness, or a pathway file's free energy."""

from __future__ import annotations

from ..errors import InputError
from .main import _unused
from .report import Report


def add_parser(sub, common, help: str) -> None:
    asm = sub.add_parser("assembly", parents=[common], help=help)
    asm.add_argument("--target", default=None, help="string to assemble")
    asm.add_argument("--basis", default=None, help="symbols, e.g. 'ab'")
    asm.add_argument("--pathway", metavar="FILE", default=None, help="pathway file")
    asm.add_argument("--save-pathway", metavar="FILE", default=None)


def handle(args) -> Report:
    from .. import assembly

    rep = Report("assembly")
    if args.pathway is not None:
        _unused(args, "with --pathway", "target", "basis", "save-pathway")
        p = assembly.load_pathway(args.pathway)
        rep.inputs = {"pathway": args.pathway}
        rep.add("target", p.target, "pathway file")
        rep.add("steps", len(p.steps), "join count")
        if p.step_free_energy is not None:
            rep.add("pathway_free_phi", assembly.pathway_free_phi(p), "sum of step free energies")
        else:
            rep.warn("pathway carries no free energies; only validated")
        return rep
    if args.target is None or args.basis is None:
        raise InputError("give --target and --basis, or --pathway FILE")
    index, pathway = assembly.assembly_index(args.target, set(args.basis))
    rep.inputs = {"target": args.target, "basis": args.basis}
    rep.add("assembly_index", index, "minimal joins with reuse")
    for k, (left, right) in enumerate(pathway.steps):
        rep.add(f"step_{k}", f"{left}+{right}", "join")
    if args.save_pathway is not None:
        assembly.write_pathway(args.save_pathway, pathway)
        rep.warn(f"witness pathway written to {args.save_pathway}")
    return rep
