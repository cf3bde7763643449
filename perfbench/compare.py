#!/usr/bin/env python3
"""Compare two sets of perfbench result records, workload by workload.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

The records are the files ``run.py`` writes to ``perfbench/.results/``.
For every end-to-end metric of every workload it prints each side's median
and quartiles and whether the new median is worse than the base by more
than the bound in ``BENCHMARK.json``. Where the base's own spread is wider
than the bound, the metric is reported as unresolved. Sets whose assembly
kernel backend differs are not compared: their timings measure different
code. The metrics are raw times, so run the two sets alternately (base,
new, base, ...) on one host; the median host-speed probe of each side is
printed to show drift between them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(paths: list) -> dict:
    """workload -> metric -> values, from trace-0 records."""
    out: dict = {}
    for path in paths:
        rec = json.loads(Path(path).read_text())
        for name, value in rec["metrics"].items():
            out.setdefault(rec["workload"], {}).setdefault(name, []).append(value)
    return out


def host_ms(paths: list) -> float:
    """Median ``python -c "import numpy"`` time over the records, in ms."""
    refs = [r for p in paths for r in json.loads(Path(p).read_text()).get("reference_s", [])]
    return 1000.0 * statistics.median(refs) if refs else float("nan")


def backends(paths: list) -> set:
    return {json.loads(Path(p).read_text())["provenance"]["kernel_backend"] for p in paths}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    kinds = backends(args.base) | backends(args.new)
    if len(kinds) != 1:
        print(f"refusing to compare: kernel backends differ ({', '.join(sorted(kinds))})",
              file=sys.stderr)
        return 2
    base, new = load(args.base), load(args.new)
    print(f"{'workload':<16} {'metric':<12} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8}  verdict")
    for spec in SPEC["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        for workload in sorted(set(base) & set(new)):
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = nq[1] / bq[1] - 1.0
            worse = change if spec["better"] == "lower" else -change
            if (bq[2] - bq[0]) / bq[1] > bound:
                verdict = "unresolved (base spread wider than bound)"
            elif worse > bound:
                verdict = f"WORSE than the {bound:.0%} bound"
            else:
                verdict = "within bound"
            print(f"{workload:<16} {name:<12} {bq[1]:>12.5g} [{bq[0]:.4g}, {bq[2]:.4g}]"
                  f" {nq[1]:>12.5g} [{nq[0]:.4g}, {nq[2]:.4g}] {change:>+8.1%}  {verdict}")
    print(f"host speed, median ms of a python -c 'import numpy' probe: "
          f"base {host_ms(args.base):.0f}, new {host_ms(args.new):.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
