"""Assembly index: minimal joins to build a target string, with witness.

The search runs over the distinct substrings of the target (nothing else
can appear in a minimal pathway, since concatenation keeps every used
piece contiguous in the final product). Intermediates are reusable for
free, so the index is the size of the smallest constructible product set
containing the target. Branch-and-bound: a doubling argument bounds the
steps still needed from below, a balanced-split pathway (shared pieces
memoized, built once) bounds the optimum from above. The deepening search
between the bounds is the hot loop; it lives in ``_purekernel``.
"""

from __future__ import annotations

from ..errors import SymbolNotInBasis, TargetTooLarge
from . import _purekernel
from .pathway import AssemblyPathway, check_basis

MAX_TARGET_LENGTH = 20


def active_backend() -> str:
    """Name of the search kernel, recorded with benchmark results."""
    return "pure"


def shortlex_key(s: str) -> tuple[int, str]:
    return (len(s), s)


def candidate_substrings(target: str) -> list[str]:
    """Distinct substrings of length >= 2, shortlex sorted (target is last)."""
    subs = {
        target[i:j]
        for i in range(len(target))
        for j in range(i + 2, len(target) + 1)
    }
    return sorted(subs, key=shortlex_key)


def doubling_lower_bound(n: int) -> int:
    """ceil(log2 n): each join at most doubles the longest piece."""
    steps, reach = 0, 1
    while reach < n:
        reach += reach
        steps += 1
    return steps


def greedy_doubling_upper_bound(target: str) -> int:
    """Joins used by balanced halving with shared pieces built once."""
    pieces: set[str] = set()

    def build(s: str) -> None:
        if len(s) == 1 or s in pieces:
            return
        half = len(s) // 2
        build(s[:half])
        build(s[half:])
        pieces.add(s)

    build(target)
    return len(pieces)


def _prepare(target: str):
    subs = candidate_substrings(target)
    index = {s: k for k, s in enumerate(subs)}
    lengths = [len(s) for s in subs]
    splits = []
    for s in subs:
        pairs = []
        for cut in range(1, len(s)):
            a, b = s[:cut], s[cut:]
            pairs.append(
                (-1 if len(a) == 1 else index[a], -1 if len(b) == 1 else index[b])
            )
        splits.append(pairs)
    return subs, lengths, splits, index[target]


def _witness(target: str, basis: frozenset[str], subs: list[str], seq: list[int]):
    """Turn the chosen product set into explicit steps, smallest cut first."""
    available = set(basis)
    steps = []
    for i in seq:
        product = subs[i]
        for cut in range(1, len(product)):
            left, right = product[:cut], product[cut:]
            if left in available and right in available:
                steps.append((left, right))
                break
        available.add(product)
    return AssemblyPathway(basis=basis, steps=tuple(steps), target=target)


def assembly_index(target: str, basis) -> tuple[int, AssemblyPathway]:
    """Minimal number of joins building ``target`` from ``basis``, plus witness.

    Previously assembled products may be reused at no cost. Ties among
    optimal pathways break to the shortlex-smallest product sequence, so
    the witness is deterministic.
    """
    symbols = check_basis(basis)
    if not isinstance(target, str) or not target:
        raise SymbolNotInBasis("target must be a non-empty string")
    if len(target) > MAX_TARGET_LENGTH:
        raise TargetTooLarge(
            f"target length {len(target)} exceeds the supported {MAX_TARGET_LENGTH}"
        )
    missing = set(target) - symbols
    if missing:
        raise SymbolNotInBasis(
            f"target symbols {sorted(missing)!r} are not in the basis"
        )
    if len(target) == 1:
        return 0, AssemblyPathway(basis=symbols, steps=(), target=target)

    subs, lengths, splits, target_id = _prepare(target)
    lower = doubling_lower_bound(len(target))
    upper = greedy_doubling_upper_bound(target)
    seq = _purekernel.solve_sequence(
        lengths, splits, target_id, len(target), lower, upper
    )
    return len(seq), _witness(target, symbols, subs, seq)
