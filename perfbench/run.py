#!/usr/bin/env python3
"""The physcomp benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root (it imports and runs ``src/physcomp``):

    python3 perfbench/run.py --workload cli-startup --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

``--trace 0`` measures the workload as closed-loop CLI traffic: one client
runs each ``physcomp`` command in a fresh process, starting it only after
the previous one exited, in passes over the seeded command list; the pass
count is sized so that a run takes about ``--seconds`` on the reference
machine. Every output is checked against values the
benchmark computes itself. ``--trace 1`` instead runs the commands of every
workload in-process through ``physcomp.cli.main.run`` with spans around the
calls into each module, and reports per-layer metrics (see ``layers.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A full record, with provenance, is written to
``perfbench/.results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from checks import Tally, self_test
from workloads import KNOWN_DEFECTS, WORKLOADS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
RESULTS = HERE / ".results"
SETUP_REPEATS = 3
# Seconds one pass over each workload's commands takes on the reference
# machine (2 CPUs, Python 3.11, pure assembly kernel). A run makes
# round(--seconds / this) passes, at least one, so the amount of work, and
# with it the number of samples and the tail percentile, is fixed per
# workload and the same for every program version.
NOMINAL_PASS_S = {"cli-startup": 6.8, "assembly-search": 12.4, "qthermo-dense": 31.0,
                  "bh-curves": 5.7}
COMMAND_TIMEOUT_S = 120.0
TAIL_BEYOND = 10

UNITS = {"setup_s": "s", "wall_s": "s", "cmd_ms_p50": "ms", "cmd_ms_tail": "ms",
         "cpu_s": "s", "peak_rss_mb": "MB", "fail_ratio": "1"}


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def provenance(seed: int, env: dict) -> dict:
    """What a run used: machine, interpreter, numpy and BLAS, kernel backend, commit."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backend = subprocess.run(
        [sys.executable, "-c", "from physcomp.assembly import active_backend; print(active_backend())"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "kernel_backend": backend,
        "commit": commit,
        "seed": seed,
    }


def run_command(argv: list, env: dict) -> dict:
    """Run one ``physcomp`` process to completion: wall and CPU seconds, max RSS, exit, output.

    CPU and max RSS are that process's own, from ``wait4``.
    """
    with open("stdout.txt", "wb") as out, open("stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "physcomp", *argv], stdout=out,
                                stderr=err, env=env)
        timed_out = threading.Event()
        timer = threading.Timer(COMMAND_TIMEOUT_S, lambda: (timed_out.set(), proc.kill()))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss,
            "code": proc.returncode, "timed_out": timed_out.is_set(),
            "stdout": Path("stdout.txt").read_text(encoding="utf-8"),
            "stderr": Path("stderr.txt").read_text(encoding="utf-8", errors="replace")}


def reference_time(env: dict) -> float:
    """Seconds a ``python -c "import numpy"`` process takes: host speed, recorded beside the metrics."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)
    return time.perf_counter() - t0


def judge(cmd, sample: dict) -> tuple[str | None, str | None]:
    """(failure reason or None, known defect it is attributed to or None)."""
    if sample["timed_out"]:
        return f"timeout after {COMMAND_TIMEOUT_S:g} s", None
    if sample["code"] != 0:
        return f"exit code {sample['code']}: {sample['stderr'].strip()[:200]}", None
    return cmd.judge(sample["stdout"])


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    return max(0, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))


def nearest_rank(values: list, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def setup(name: str, seed: int, env: dict):
    """Generate the inputs and warm up, SETUP_REPEATS times; returns commands and times."""
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_time(env))
        t0 = time.perf_counter()
        work = WORK / f"{name}-{seed}"
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        commands = WORKLOADS[name](work, seed)
        subprocess.run([sys.executable, "-m", "physcomp", "constants", "--format", "json"],
                       env=env, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return work, commands, times, refs


def measure(name: str, seed: int, seconds: float, env: dict) -> dict:
    work, commands, setup_times, refs = setup(name, seed, env)
    os.chdir(work)
    tally, examples, passes = Tally(), {}, []
    for _ in range(max(1, round(seconds / NOMINAL_PASS_S[name]))):
        refs.append(reference_time(env))
        samples = []
        for cmd in commands:
            sample = run_command(cmd.argv, env)
            reason, defect = judge(cmd, sample)
            tally.add(cmd, reason, defect)
            if reason is None and cmd.kind not in examples:
                examples[cmd.kind] = (cmd, sample["stdout"])
            samples.append((cmd.kind, sample["wall"], sample["cpu"], sample["rss_kb"]))
        passes.append(samples)
    tests = self_test(examples)
    os.chdir(ROOT)
    shutil.rmtree(work)

    walls = [s[1] for p in passes for s in p]
    pct = tail_percentile(len(walls))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(s[1] for s in p) for p in passes),
        "cmd_ms_p50": 1000.0 * statistics.median(walls),
        "cmd_ms_tail": 1000.0 * nearest_rank(walls, pct),
        "cpu_s": statistics.median(sum(s[2] for s in p) for p in passes),
        "peak_rss_mb": max(s[3] for p in passes for s in p) / 1024.0,
        "fail_ratio": len(tally.failures) / tally.attempted,
    }
    by_kind: dict[str, list] = {}
    for p in passes:
        for kind, wall, _, _ in p:
            by_kind.setdefault(kind, []).append(wall)
    return {
        "workload": name,
        "metrics": metrics,
        "reference_s": refs,  # one before each set-up and each pass
        "tail": {"percentile": pct, "samples": len(walls),
                 "beyond": len(walls) - math.ceil(pct / 100.0 * len(walls))},
        "passes": len(passes),
        "commands_per_pass": len(commands),
        "setup_times_s": setup_times,
        "kind_ms_p50": {k: 1000.0 * statistics.median(v) for k, v in sorted(by_kind.items())},
        "samples": passes,  # (kind, wall s, cpu s, max RSS KiB) per command
        "tally": tally,
        "self_test": tests,
    }


def print_report(result: dict, prov: dict) -> None:
    tally, m = result["tally"], result["metrics"]
    print(f"perfbench {result['workload']}  seed={prov['seed']}  "
          f"passes={result.get('passes', 1)}  commands/pass={result.get('commands_per_pass')}")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items() if k != "seed"))
    if "reference_s" in result:
        refs = ", ".join(f"{1000.0 * r:.0f}" for r in result["reference_s"])
        print(f"  host speed, ms of a python -c 'import numpy' process (not used in the metrics): {refs}")
    for name, value in m.items():
        note = ""
        if name == "cmd_ms_tail":
            t = result["tail"]
            note = f"p{t['percentile']} of {t['samples']} commands, {t['beyond']} beyond it"
        if name == "fail_ratio":
            s = tally.summary()
            note = f"{s['failed']} of {s['attempted']} commands failed"
            for defect, count in s["known_defects"].items():
                note += f"; {count} from known defect {defect}: {KNOWN_DEFECTS[defect]}"
            if s["unexplained"]:
                note += f"; {len(tally.unexplained)} UNEXPLAINED"
        unit = UNITS.get(name) or result.get("units", {}).get(name, "")
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())
    for f in tally.unexplained[:5]:
        print(f"  unexplained failure: {f['kind']} {' '.join(f['argv'])}: {f['reason']}")
    tests = result["self_test"]
    missed = [t for t in tests if not t["rejected"]]
    print(f"  self-test: {len(tests)} corrupted outputs, {len(tests) - len(missed)} rejected")
    for t in missed:
        print(f"  self-test MISSED: {t['corruption']} on {t['kind']}")


def finish(result: dict, prov: dict, metric_names, trace: int) -> None:
    """Write the full record, print the report and the one-line JSON result."""
    tally = result["tally"]
    tests = result["self_test"]
    correct = not tally.unexplained and bool(tests) and all(t["rejected"] for t in tests)
    print_report(result, prov)
    record = dict(result, tally=tally.summary(), provenance=prov, correct=correct)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{result['workload']}-seed{prov['seed']}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    units = dict(UNITS, **result.get("units", {}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {n: {"value": result["metrics"][n], "unit": units[n]} for n in metric_names},
    }))


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own), then one table."""
    merged, ok, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok, attempted, failed = ok and res["correct"], attempted + res["attempted"], failed + res["failed"]
        merged.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measuring time per run on the reference machine; sets the pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "physcomp" / "__init__.py").is_file():
        print("perfbench: src/physcomp not found; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    env = program_env()
    prov = provenance(args.seed, env)
    if args.trace:
        import layers

        result = layers.traced_run(args.workload, args.seed, env, ROOT, WORK, RESULTS)
        finish(result, prov, layers.METRICS, 1)
    else:
        result = measure(args.workload, args.seed, args.seconds, env)
        names = [n for n in UNITS if n != "fail_ratio"]
        finish(result, prov, names, 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
