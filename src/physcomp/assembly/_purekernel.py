"""Assembly search kernel, in plain Python.

Iterative deepening over canonically ordered product sets with
branch-and-bound pruning.

Candidates are the distinct substrings of the target with length >= 2,
shortlex sorted. In a minimal pathway every product is such a substring
and any buildable product set can be built in shortlex order (operands are
strictly shorter than their product), so enumerating strictly increasing
id sequences visits every feasible set exactly once per deepening pass.
The first solution found at the optimal depth is therefore the canonical
(lexicographically smallest) witness.

Sets of candidates are Python ints, bit k standing for candidate k. A node
carries the products built so far, the candidates they make constructible
and the candidates that would complete the target, and a child extends
each set from the new product's entries instead of rescanning every
candidate's splits. With two joins left the node answers at once: its
first constructible candidate that completes the target is the child the
plain search would have returned through. Nothing else changes what is
visited, so the enumeration order, and with it the witness, is that of a
plain deepening search (``tests/_oracles.plain_deepening_sequence``).
"""

from __future__ import annotations


def solve_sequence(
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
    # made[j]: products of j with a basis symbol or with itself;
    # paired[j]: partner bit -> products of j with that partner candidate;
    # finish[j]: partners that, built next to j, complete the target
    made = [0] * len(lengths)
    paired: list[dict[int, int]] = [{} for _ in lengths]
    partners = [0] * len(lengths)
    finish = [0] * len(lengths)
    basis_made = basis_finish = 0
    for k, pairs in enumerate(splits):
        bit = 1 << k
        for a, b in pairs:
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

    for budget in range(max(lower, 1), upper + 1):
        if dfs(0, 0, basis_made, basis_finish, 1, budget):
            return seq
    raise AssertionError("greedy upper bound should always be attainable")
