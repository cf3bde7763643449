"""Assembly index: minimal joins to build a target string, with witness.

Candidates are the distinct substrings of the target of length >= 2,
shortlex sorted: nothing else can appear in a minimal pathway.
Intermediates are reused for free, so the index is the size of the
smallest set of candidates that holds the target and gives each member a
cut into two halves, each a basis symbol or a member. Operands are
strictly shorter than their product, so such a set builds in shortlex
order.

The search works from the target down, as molecular assembly tools do
(Seet et al., "Rapid computation of the assembly index of molecular
graphs", 2024). The longest member with no cut yet tries its cuts from
the left, adding the halves the set lacks, and a pass prunes any set
larger than its size. Passes deepen from the doubling lower bound.
Following a smallest set's own cuts from the target never leaves that
set, so the first set found is a smallest one. Sets are Python ints, bit
k for candidate k. The witness lists that first set in shortlex order.
"""

from __future__ import annotations

import itertools

from ..errors import InputError
from .pathway import AssemblyPathway, check_basis

MAX_TARGET_LENGTH = 20
# search nodes (dfs calls, over all deepening passes) before a target is
# refused: a count, not a clock, so the outcome does not depend on the host.
# Over 7x the 457,416 nodes of the costliest benchmark or test target.
NODE_BUDGET = 3_500_000


def active_backend() -> str:
    """Name of the search kernel, recorded with benchmark results."""
    return "pure"


def candidate_substrings(target: str) -> list[str]:
    """Distinct substrings of length >= 2, shortlex sorted (target is last)."""
    subs = {
        target[i:j]
        for i in range(len(target))
        for j in range(i + 2, len(target) + 1)
    }
    return sorted(subs, key=lambda s: (len(s), s))


def doubling_lower_bound(n: int) -> int:
    """ceil(log2 n): each join at most doubles the longest piece."""
    steps, reach = 0, 1
    while reach < n:
        reach += reach
        steps += 1
    return steps


def greedy_doubling_upper_bound(target: str) -> int:
    """Joins used by balanced halving with shared pieces built once.

    The search needs no upper bound; this is kept for perfbench's
    ``assembly.upper_gap`` and for the tests.
    """
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


def solve_sequence(subs: list[str]) -> list[int]:
    """Return the ids into ``subs`` of a smallest product set, ascending.

    ``subs`` is ``candidate_substrings(target)``; the target is its last id.
    """
    bit = {s: 1 << k for k, s in enumerate(subs)}
    # halves[i]: for each cut of candidate i, from the left, the mask of its
    # halves; a single symbol is a basis symbol, always present, with no bit
    halves = [
        [bit.get(s[:cut], 0) | bit.get(s[cut:], 0) for cut in range(1, len(s))]
        for s in subs
    ]
    target = len(subs) - 1
    tlen = len(subs[target])
    nodes, node_limit = 0, NODE_BUDGET

    def dfs(members: int, below: int, budget: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise InputError(
                f"assembly search for a length-{tlen} target over {len(set(subs[target]))} "
                f"symbols exceeds the budget of {node_limit} search nodes"
            )
        # members below ``below`` have no cut yet; halves are shorter, so
        # every member a cut adds lies below the one being cut
        pending = members & ((1 << below) - 1)
        if not pending:
            return members
        i = pending.bit_length() - 1
        for mask in halves[i]:
            grown = members | mask
            if grown.bit_count() <= budget:
                found = dfs(grown, i, budget)
                if found:
                    return found
        return 0

    for budget in itertools.count(max(doubling_lower_bound(tlen), 1)):
        found = dfs(1 << target, target + 1, budget)
        if found:
            return [k for k in range(target + 1) if found >> k & 1]


def _witness(target: str, basis: frozenset[str], subs: list[str], seq: list[int]):
    """List the chosen product set in shortlex order as explicit steps, each
    product joined at its leftmost cut whose halves are already available."""
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
    optimal pathways break to the first smallest product set the top-down
    search finds (longest uncut member first, its cuts from the left),
    listed in shortlex order, so the witness is deterministic.
    """
    symbols = check_basis(basis)
    if not isinstance(target, str) or not target:
        raise InputError("target must be a non-empty string")
    if len(target) > MAX_TARGET_LENGTH:
        raise InputError(
            f"target length {len(target)} exceeds the supported {MAX_TARGET_LENGTH}"
        )
    missing = set(target) - symbols
    if missing:
        raise InputError(
            f"target symbols {sorted(missing)!r} are not in the basis"
        )
    if len(target) == 1:
        return 0, AssemblyPathway(basis=symbols, steps=(), target=target)

    subs = candidate_substrings(target)
    seq = solve_sequence(subs)
    return len(seq), _witness(target, symbols, subs, seq)
