#!/usr/bin/env python3
"""Reference assembly indices for the ``assembly-search`` workload.

The benchmark checks every index the program reports against a table
committed next to it (``assembly_reference.json``). This module holds the
search that filled the table and regenerates it:

    python3 perfbench/reference.py            # rewrite the table
    python3 perfbench/reference.py --verify   # recompute and compare

The search here shares no code with ``physcomp``: it is a plain iterative
deepening over shortlex-ordered product sets, pruned only by the doubling
argument (each join at most doubles the longest piece). Unary targets get
their index from the addition-chain table instead, so those entries do not
depend on any search at all.

``checks`` counts how often this search tested whether a candidate piece
could be joined from pieces already built, the inner step of any such
search. It is a machine-independent measure of how hard a target is,
which the workload uses to draw targets of every difficulty for every
seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

TABLE = Path(__file__).with_name("assembly_reference.json")

# Shortest addition-chain lengths l(n), n = 0..20 (OEIS A003313; l(1) = 0).
# Building a^n by joins with reuse is exactly an addition chain for n.
ADDITION_CHAIN = (0, 0, 1, 2, 2, 3, 3, 4, 3, 4, 4, 5, 4, 5, 5, 5, 4, 5, 5, 6, 5)

# The case list of benchmarks/bench_assembly.py, materialized with its
# default --seed 7 in the same order (CASES, then HARD_CASES).
BENCH_ASSEMBLY_CASES = (
    ("periodic-12", "ab" * 6, "ab"),
    ("doubling-16", "a" * 16, "a"),
    ("random2-10", "babaaabaaa", "ab"),
    ("random2-12", "abbaaabaaaab", "ab"),
    ("random3-9", "aaacabbac", "abc"),
    ("random3-10", "acbccaaccc", "abc"),
    ("random2-14", "abaaaabbbbbbba", "ab"),
    ("random3-12", "acaacbcbbcbb", "abc"),
)

STRUCTURED_CASES = (
    ("unary-19", "a" * 19, "a"),
    ("unary-20", "a" * 20, "a"),
    ("periodic-14", "ab" * 7, "ab"),
    ("periodic3-12", "abc" * 4, "abc"),
)

# Seeded targets are drawn per (alphabet, length) stratum from these pools.
# abc stops at length 12: in the pure kernel a random abc target of length
# 13 takes 2-20 s and one of length 14 up to a minute, more than a run.
POOL_STRATA = (
    ("ab", 11), ("ab", 12), ("ab", 13), ("ab", 14), ("ab", 15),
    ("abc", 11), ("abc", 12),
)
POOL_SIZE = 16
POOL_SEED = 20250616


def search_index(target: str) -> tuple[int, int]:
    """Assembly index of ``target`` by exhaustive deepening; returns (index, checks)."""
    n = len(target)
    if n == 1:
        return 0, 0
    subs = sorted(
        {target[i:j] for i in range(n) for j in range(i + 2, n + 1)},
        key=lambda s: (len(s), s),
    )
    ids = {s: k for k, s in enumerate(subs)}
    parts = [
        [(ids.get(s[:c], -1), ids.get(s[c:], -1)) for c in range(1, len(s))]
        for s in subs
    ]
    sizes = [len(s) for s in subs]
    goal = ids[target]
    have = [False] * len(subs)
    checks = 0

    def ready(k: int) -> bool:
        nonlocal checks
        checks += 1
        return any((a < 0 or have[a]) and (b < 0 or have[b]) for a, b in parts[k])

    def extend(first: int, longest: int, left: int) -> bool:
        reach, need = longest, 0
        while reach < n:
            reach *= 2
            need += 1
        if need > left:
            return False
        if left == 1:
            return ready(goal)
        for k in range(first, goal):
            if ready(k):
                have[k] = True
                if extend(k + 1, max(longest, sizes[k]), left - 1):
                    return True
                have[k] = False
        return False

    depth = 1
    while not extend(0, 1, depth):
        depth += 1
    return depth, checks


def _entry(name: str, target: str, basis: str) -> dict:
    t0 = time.perf_counter()
    index, checks = search_index(target)
    seconds = time.perf_counter() - t0
    entry = {"name": name, "target": target, "basis": basis, "index": index,
             "checks": checks, "how": "perfbench exhaustive deepening search"}
    if set(target) == {"a"}:
        if ADDITION_CHAIN[len(target)] != index:
            raise SystemExit(f"{name}: search {index} != addition chain")
        entry["how"] = "addition-chain length l(n), OEIS A003313; search agrees"
    print(f"{name:<14} {target:<20} index={index:<3} checks={checks:<10} "
          f"{seconds:.2f}s", file=sys.stderr, flush=True)
    return entry


def build_table() -> dict:
    rng = random.Random(POOL_SEED)
    fixed = [_entry(*case) for case in BENCH_ASSEMBLY_CASES + STRUCTURED_CASES]
    pools = {}
    for alphabet, length in POOL_STRATA:
        seen: set[str] = set()
        while len(seen) < POOL_SIZE:
            seen.add("".join(rng.choice(alphabet) for _ in range(length)))
        key = f"{alphabet}-{length}"
        pools[key] = [
            _entry(f"{key}-{k}", t, alphabet) for k, t in enumerate(sorted(seen))
        ]
    return {
        "about": "assembly indices for perfbench; 'how' says how each was obtained",
        "pool_seed": POOL_SEED,
        "fixed": fixed,
        "pools": pools,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--verify", action="store_true",
                        help="recompute the table and compare with the committed one")
    args = parser.parse_args()
    table = build_table()
    if args.verify:
        if json.loads(TABLE.read_text()) != table:
            raise SystemExit("reference table differs from a fresh computation")
        print("reference table verified")
        return
    TABLE.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
