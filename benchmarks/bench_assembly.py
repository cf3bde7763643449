#!/usr/bin/env python3
"""Benchmark the assembly-index search.

The search is the package's only hot loop; everything else is closed-form
arithmetic or small dense linear algebra. Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_assembly.py [--hard] [--repeat N]

Prints the index and the best time of ``--repeat`` runs for each case.
"""

from __future__ import annotations

import argparse
import random
import time

from physcomp.assembly import assembly_index

CASES = [
    ("periodic-12", "ab" * 6, "ab"),
    ("doubling-16", "a" * 16, "a"),
    ("random2-10", None, "ab"),
    ("random2-12", None, "ab"),
    ("random3-9", None, "abc"),
    ("random3-10", None, "abc"),
]

HARD_CASES = [
    ("random2-14", None, "ab"),
    ("random3-12", None, "abc"),
]


def materialize(cases, rng):
    out = []
    for name, target, alphabet in cases:
        if target is None:
            length = int(name.rsplit("-", 1)[1])
            target = "".join(rng.choice(alphabet) for _ in range(length))
        out.append((name, target, alphabet))
    return out


def time_index(target: str, alphabet: str, repeat: int):
    best = float("inf")
    index = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        index, _ = assembly_index(target, set(alphabet))
        best = min(best, time.perf_counter() - t0)
    return best, index


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hard", action="store_true", help="include the slow cases")
    parser.add_argument("--repeat", type=int, default=3, help="timing repetitions")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    cases = materialize(CASES + (HARD_CASES if args.hard else []), random.Random(args.seed))

    header = f"{'case':<14} {'target':<16} {'index':>5} {'seconds':>10}"
    print(header)
    print("-" * len(header))
    for name, target, alphabet in cases:
        seconds, index = time_index(target, alphabet, args.repeat)
        shown = target if len(target) <= 16 else target[:13] + "..."
        print(f"{name:<14} {shown:<16} {index:>5} {seconds:10.4f}")


if __name__ == "__main__":
    main()
