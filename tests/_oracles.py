"""Independent reference implementations used only by the test suite.

These deliberately avoid the production code paths: the assembly oracles
search pathways exhaustively with plain string operations and no bounding
(one bottom-up over every buildable set, one top-down from the target's
own cuts), the plain deepening search enumerates buildable sets bottom up
and so shares no logic with the top-down assembly kernel, and the
entropy/bisection oracles are straight transcriptions of the defining
formulas.
"""

from __future__ import annotations

import itertools
import math


def shortlex_substrings(target: str) -> list[str]:
    """Distinct substrings of length >= 2, shortlex sorted (target is last)."""
    return sorted(
        {
            target[i:j]
            for i in range(len(target))
            for j in range(i + 2, len(target) + 1)
        },
        key=lambda s: (len(s), s),
    )


def brute_force_assembly_index(target: str, basis) -> int:
    """Exhaustive enumeration: try every pathway length from 1 upward.

    A pathway is modeled as the set of intermediate products it builds
    (all substrings of the target, each built once, reusable afterwards);
    sets are enumerated in shortlex order, which covers every buildable
    set because operands are always shorter than their product. No
    branch-and-bound, no greedy bound: pure enumeration.
    """
    symbols = set(basis)
    assert all(ch in symbols for ch in target)
    if len(target) == 1:
        return 0

    subs = shortlex_substrings(target)

    def buildable(s: str, built: set[str]) -> bool:
        for cut in range(1, len(s)):
            left, right = s[:cut], s[cut:]
            if (len(left) == 1 or left in built) and (
                len(right) == 1 or right in built
            ):
                return True
        return False

    def extend(built: set[str], start: int, remaining: int) -> bool:
        if remaining == 0:
            return target in built
        for k in range(start, len(subs)):
            s = subs[k]
            if s not in built and buildable(s, built):
                built.add(s)
                if extend(built, k + 1, remaining - 1):
                    return True
                built.remove(s)
        return False

    for depth in itertools.count(1):
        if extend(set(), 0, depth):
            return depth


def top_down_assembly_index(target: str, basis) -> int:
    """Demand-driven search: the size of the smallest set S of substrings of
    length >= 2 that holds the target and gives each member a cut into two
    halves, each a basis symbol or a member of S.

    The longest member not yet justified tries each of its cuts, adding the
    halves S lacks; the search deepens on |S|, with no other bound. It is
    complete: following a valid S*'s own cuts from the target builds a
    subset of S*.
    """
    assert all(ch in set(basis) for ch in target)

    def justify(members: frozenset, done: frozenset, budget: int) -> bool:
        pending = members - done
        if not pending:
            return True
        s = max(pending, key=lambda m: (len(m), m))
        for cut in range(1, len(s)):
            new = {h for h in (s[:cut], s[cut:]) if len(h) > 1} - members
            if len(members) + len(new) <= budget and justify(
                members | new, done | {s}, budget
            ):
                return True
        return False

    if len(target) == 1:
        return 0
    return next(n for n in itertools.count(1) if justify(frozenset([target]), frozenset(), n))


def deepening_inputs(target: str):
    """Candidate table for ``plain_deepening_sequence``, from plain strings.

    Returns ``(subs, lengths, splits, target_id)``: the shortlex candidates,
    their lengths, for each candidate the (left, right) id pairs of every
    cut (-1 for a single symbol), and the target's id.
    """
    subs = shortlex_substrings(target)
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


# A bottom-up deepening search: every node rescans each candidate's splits
# and only the doubling bound prunes. The kernel searches top down, and its
# index must equal the length of this sequence.
def plain_deepening_sequence(
    lengths: list[int],
    splits: list[list[tuple[int, int]]],
    target: int,
    tlen: int,
    lower: int,
    upper: int,
) -> list[int]:
    """Return the canonical optimal build sequence of candidate ids.

    ``splits[i]`` holds the (left, right) id pairs whose concatenation is
    candidate ``i``; id -1 stands for a basis symbol, always available.
    ``lower``/``upper`` bracket the optimum (doubling bound / greedy bound).
    """
    built = bytearray(len(lengths))
    seq: list[int] = []

    def constructible(i: int) -> bool:
        for a, b in splits[i]:
            if (a < 0 or built[a]) and (b < 0 or built[b]):
                return True
        return False

    def dfs(start: int, maxlen: int, remaining: int) -> bool:
        # each join at most doubles the longest available piece
        m, need = maxlen, 0
        while m < tlen:
            m += m
            need += 1
        if need > remaining:
            return False
        if remaining == 1:
            if constructible(target):
                seq.append(target)
                return True
            return False
        for i in range(start, target):
            if constructible(i):
                built[i] = 1
                seq.append(i)
                bigger = lengths[i] if lengths[i] > maxlen else maxlen
                if dfs(i + 1, bigger, remaining - 1):
                    return True
                built[i] = 0
                seq.pop()
        return False

    for budget in range(max(lower, 1), upper + 1):
        if dfs(0, 1, budget):
            return seq
    raise AssertionError("greedy upper bound should always be attainable")


def binary_entropy_bits(eps: float) -> float:
    h = 0.0
    for p in (eps, 1.0 - eps):
        if p > 0.0:
            h -= p * math.log2(p)
    return h


def bisect_error_rate(ops: float, capacity_bits: float, tol: float = 1e-12) -> float:
    """Solve h(eps) = capacity/ops on (0, 1/2) by plain interval halving."""
    target = capacity_bits / ops
    if target >= 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if binary_entropy_bits(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def full_bisect_error_rate(ops: float, capacity_bits: float) -> float:
    """Solve h(eps) = capacity/ops by halving [0, 1/2] until the midpoint
    no longer moves: every step from the first, none skipped."""
    target = capacity_bits / ops
    if target >= 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if binary_entropy_bits(mid) < target:
            lo = mid
        else:
            hi = mid


def capped_bisect_beta(energy, e: float, e_mean: float, spread: float) -> float:
    """The beta with energy(beta) = e, by a loop of its own: double the
    bracket (0, sign/spread) until it holds e, halve it at most 200 times or
    until the midpoint meets an end, then take the midpoint once more."""
    sign = 1.0 if e < e_mean else -1.0
    beta = sign / spread
    while sign * energy(beta) > sign * e:
        beta *= 2.0
    b_lo, b_hi = sorted((0.0, beta))
    for _ in range(200):
        beta = 0.5 * (b_lo + b_hi)
        if beta <= b_lo or beta >= b_hi:
            break
        if energy(beta) > e:
            b_lo = beta
        else:
            b_hi = beta
    return 0.5 * (b_lo + b_hi)
