"""Assembly index: minimal joins to build a target string, with witness.

Candidates are the distinct substrings of the target of length >= 2,
shortlex sorted: nothing else can appear in a minimal pathway, and any
buildable product set can be built in shortlex order (operands are
strictly shorter than their product). Intermediates are reused for free,
so the index is the size of the smallest constructible set holding the
target. Iterative deepening between a doubling lower bound and a
balanced-split upper bound visits each set once per pass, so the first
solution at the optimal depth is the canonical (lexicographically
smallest) witness.

The kernel holds sets of candidates as Python ints, bit k for candidate k,
and extends a node's sets from the new product's table entries instead of
rescanning; with two joins left it answers at once. The enumeration order,
and so the witness, is that of a plain deepening search
(``tests/_oracles.plain_deepening_sequence``).
"""

from __future__ import annotations

from ..errors import InputError
from .pathway import AssemblyPathway, check_basis

MAX_TARGET_LENGTH = 20


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


def solve_sequence(subs: list[str]) -> list[int]:
    """Return the canonical optimal build sequence of ids into ``subs``.

    ``subs`` is ``candidate_substrings(target)``; the target is its last id.
    """
    index = {s: k for k, s in enumerate(subs)}
    lengths = [len(s) for s in subs]
    target = len(subs) - 1
    tlen = lengths[target]
    # made[j]: products of j with a basis symbol or with itself;
    # paired[j]: partner bit -> products of j with that partner candidate;
    # finish[j]: partners that, built next to j, complete the target.
    # Id -1 stands for a basis symbol, always available.
    made = [0] * len(subs)
    paired: list[dict[int, int]] = [{} for _ in subs]
    partners = [0] * len(subs)
    finish = [0] * len(subs)
    basis_made = basis_finish = 0
    for k, s in enumerate(subs):
        bit = 1 << k
        for cut in range(1, len(s)):
            a, b = index.get(s[:cut], -1), index.get(s[cut:], -1)
            a_bit = 1 << a if a >= 0 else 0
            b_bit = 1 << b if b >= 0 else 0
            if a < 0 and b < 0:
                basis_made |= bit
                continue
            if a < 0 or b < 0 or a == b:
                made[max(a, b)] |= bit
                if k == target:
                    basis_finish |= a_bit | b_bit
                continue
            paired[a][b_bit] = paired[a].get(b_bit, 0) | bit
            paired[b][a_bit] = paired[b].get(a_bit, 0) | bit
            partners[a] |= b_bit
            partners[b] |= a_bit
            if k == target:
                finish[a] |= b_bit
                finish[b] |= a_bit
    target_bit = 1 << target
    below_target = target_bit - 1
    seq: list[int] = []

    def dfs(start: int, built: int, avail: int, near: int, maxlen: int, remaining: int) -> bool:
        # each join at most doubles the longest available piece
        if maxlen << remaining < tlen:
            return False
        if remaining == 1:
            if avail & target_bit:
                seq.append(target)
                return True
            return False
        window = avail & below_target & ~((1 << start) - 1)
        if remaining == 2:
            # a child succeeds iff the target is constructible after it,
            # and then its own doubling check holds too
            if not avail & target_bit:
                window &= near
            if window:
                seq.append((window & -window).bit_length() - 1)
                seq.append(target)
                return True
            return False
        while window:
            low = window & -window
            window ^= low
            i = low.bit_length() - 1
            more = avail | made[i]
            with_i = paired[i]
            mates = built & partners[i]
            while mates:
                mate = mates & -mates
                mates ^= mate
                more |= with_i[mate]
            seq.append(i)
            bigger = lengths[i] if lengths[i] > maxlen else maxlen
            if dfs(i + 1, built | low, more, near | finish[i], bigger, remaining - 1):
                return True
            seq.pop()
        return False

    lower = doubling_lower_bound(tlen)
    upper = greedy_doubling_upper_bound(subs[target])
    for budget in range(max(lower, 1), upper + 1):
        if dfs(0, 0, basis_made, basis_finish, 1, budget):
            return seq
    raise AssertionError("greedy upper bound should always be attainable")


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
