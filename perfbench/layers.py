"""Per-layer metrics from an in-process traced run.

The layers are the package's modules: ``cli`` (import, argparse, dispatch and
``cli.report`` rendering), ``units``, ``measures``, ``catalog``,
``blackhole``, ``qthermo`` and ``assembly``. Spans are recorded from the
benchmark's side only: each public function the CLI calls into is replaced,
for the duration of the traced pass, by a wrapper that records a span
(name, start, end, parent span, command id, plus a few call facts such as
the matrix dimension). Nothing in ``src/`` changes.

Every workload's commands run once untraced and once traced, in-process
through ``physcomp.cli.main.run``, alternating which goes first; the
difference is the tracing overhead.
Each per-layer metric comes from the workload that exercises its layer, so
a traced run covers all four workloads whatever ``--workload`` says. Spans
stay in memory and are written to ``perfbench/.results/`` at the end.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from checks import Tally, self_test
from workloads import QT_OPS, WORKLOADS

DIMS = (256, 512)
METRICS_UNITS = {
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.run_self_ms": "ms",
    "cli.render_ms": "ms",
    "units.constants_load_ms": "ms",
    "units.constants_load_override_ms": "ms",
    "measures.call_us": "us",
    "catalog.compare_us": "us",
    "blackhole.characterize_us": "us",
    "blackhole.error_rate_evals": "count",
    "blackhole.page_curve_us_per_sample": "us",
    "blackhole.csv_us_per_row": "us",
    **{f"qthermo.{m}_ms.d{d}": "ms" for m in (
        "read_matrix", "read_vector", "hermitian_ctor", "density_ctor", "gibbs",
        "solve_temp", "work", "spread", "evolve", "write_matrix", "write_vector") for d in DIMS},
    **{f"qthermo.eigh_calls.{op}": "count" for op in QT_OPS},
    "assembly.index_s_sum": "s",
    "assembly.index_s_p50": "s",
    "assembly.candidates": "count",
    "assembly.deepening_passes": "count",
    "assembly.upper_gap": "count",
    "assembly.pathway_load_ms": "ms",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_ratio": "1",
}
METRICS = list(METRICS_UNITS)
IMPORT_PROBES = 7


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, command id, facts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command: int | None = None
        self.counts: dict[str, int] = {}
        self._undo: list = []

    def span(self, name: str, fn, facts=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.command, {}]
            self.spans.append(rec)
            self.stack.append(idx)
            before = dict(self.counts)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if facts is not None:
                rec[5].update(facts(args, result))
            rec[5].update({k: v - before.get(k, 0) for k, v in self.counts.items()
                           if v != before.get(k, 0)})
            return result

        return traced

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            if self.command is not None:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _dim(x) -> int:
    return int(x.shape[0])


def install(tr: Tracer) -> None:
    """Wrap the public functions the CLI calls, where the CLI looks them up."""
    from physcomp import assembly, blackhole, catalog, measures
    from physcomp import qthermo as qt
    from physcomp.qthermo import states

    main = importlib.import_module("physcomp.cli.main")

    tr.patch(main, "render", lambda f: tr.span("cli.render", f))
    tr.patch(main, "constants", lambda f: tr.span(
        "units.constants", f, lambda a, r: {"override": bool(a and a[0])}))
    for name in ("phi_time", "ml_min_time", "phi_space", "free_phi", "free_phi_op_equivalent",
                 "landauer_cost", "binary_entropy", "error_correction_space"):
        tr.patch(measures, name, lambda f, n=name: tr.span(f"measures.{n}", f))
    for name in ("builtin_systems", "get_system", "inefficiency_factor", "op_rate", "switch_energy"):
        tr.patch(catalog, name, lambda f, n=name: tr.span(f"catalog.{n}", f))
    tr.patch(blackhole, "binary_entropy", lambda f: tr.counter("h_evals", f))
    tr.patch(blackhole, "characterize", lambda f: tr.span("blackhole.characterize", f))
    tr.patch(blackhole, "page_curve", lambda f: tr.span(
        "blackhole.page_curve", f, lambda a, r: {"rows": len(r)}))
    # a generator: materialize inside the span so the span covers the rendering
    tr.patch(blackhole, "timeline_csv_lines", lambda f: tr.span(
        "blackhole.timeline_csv_lines", lambda s: iter(list(f(s))), lambda a, r: {"rows": len(a[0])}))
    tr.patch(states, "read_matrix", lambda f: tr.span(
        "qthermo.read_matrix", f, lambda a, r: {"d": _dim(r[0])}))
    tr.patch(states, "read_vector", lambda f: tr.span(
        "qthermo.read_vector", f, lambda a, r: {"d": _dim(r)}))
    for cls, name in ((states.HermitianOperator, "hermitian_ctor"),
                      (states.DensityMatrix, "density_ctor")):
        tr.patch(cls, "__init__", lambda f, n=name: tr.span(
            f"qthermo.{n}", f, lambda a, r: {"d": _dim(a[0].matrix)}))
    by_ham = lambda a, r: {"d": a[0].dim}  # noqa: E731
    by_second = lambda a, r: {"d": a[1].dim}  # noqa: E731
    for name, facts in (("gibbs_state", by_ham), ("solve_inverse_temperature", by_ham),
                        ("extractable_work", by_second), ("energy_spread", by_second),
                        ("evolve", by_ham), ("nonequilibrium_free_energy", by_second),
                        ("von_neumann_entropy", lambda a, r: {"d": a[0].dim}),
                        ("mean_energy", by_second),
                        ("load_density", None), ("load_hamiltonian", None), ("load_state_vector", None),
                        ("write_matrix", lambda a, r: {"d": _dim(a[1])}),
                        ("write_vector", lambda a, r: {"d": _dim(a[1])})):
        tr.patch(qt, name, lambda f, n=name, fa=facts: tr.span(f"qthermo.{n}", f, fa))
    tr.patch(numpy.linalg, "eigh", lambda f: tr.counter("eigh", f))
    tr.patch(assembly, "assembly_index", lambda f: tr.span(
        "assembly.assembly_index", f, lambda a, r: {"target": a[0], "index": r[0]}))
    tr.patch(assembly, "load_pathway", lambda f: tr.span("assembly.load_pathway", f))
    tr.patch(assembly, "pathway_free_phi", lambda f: tr.span("assembly.pathway_free_phi", f))
    tr.patch(assembly, "write_pathway", lambda f: tr.span("assembly.write_pathway", f))


def import_times(env: dict) -> tuple[float, float]:
    """Median cumulative import of physcomp.cli.main and of numpy, from -X importtime."""
    total, numpy_ms = [], []
    for _ in range(IMPORT_PROBES):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import physcomp.cli.main"],
                             env=env, capture_output=True, text=True, check=True).stderr
        ours, np_us = 0, 0
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            cumulative, depth, module = int(m.group(1)), len(m.group(2)), m.group(3)
            if depth == 1 and module.startswith("physcomp"):
                ours += cumulative
            if module == "numpy":
                np_us = cumulative
        total.append(ours / 1000.0)
        numpy_ms.append(np_us / 1000.0)
    return statistics.median(total), statistics.median(numpy_ms)


def _self_time(spans: list, idx: int) -> float:
    """Duration minus the union of the intervals its direct children cover."""
    name, start, end = spans[idx][:3]
    covered, last = 0.0, start
    for s in sorted((c for c in spans if c[3] == idx), key=lambda c: c[1]):
        lo, hi = max(s[1], last), min(s[2], end)
        if hi > lo:
            covered += hi - lo
            last = hi
    return (end - start) - covered


def _median(xs, scale=1.0) -> float:
    xs = list(xs)
    return scale * statistics.median(xs) if xs else float("nan")


def layer_metrics(spans: list, commands: dict) -> dict:
    """Per-layer metrics; ``commands`` maps command id -> (workload, Command)."""
    def of(workload: str, name: str):
        return [(i, s) for i, s in enumerate(spans)
                if s[0] == name and s[4] is not None and commands[s[4]][0] == workload]

    dur = lambda s: s[2] - s[1]  # noqa: E731
    m = {}
    runs = of("cli-startup", "cli.run")
    m["cli.run_self_ms"] = _median((_self_time(spans, i) for i, _ in runs), 1e3)
    m["cli.render_ms"] = _median((dur(s) for _, s in of("cli-startup", "cli.render")), 1e3)
    consts = of("cli-startup", "units.constants")
    m["units.constants_load_ms"] = _median((dur(s) for _, s in consts if not s[5]["override"]), 1e3)
    m["units.constants_load_override_ms"] = _median((dur(s) for _, s in consts if s[5]["override"]), 1e3)
    m["measures.call_us"] = _median(
        (dur(s) for s in spans if s[0].startswith("measures.") and s[4] is not None
         and commands[s[4]][0] == "cli-startup"
         and (s[3] is None or not spans[s[3]][0].startswith("measures."))), 1e6)
    compare = {}
    for s in spans:
        if s[0].startswith("catalog.") and s[4] is not None \
                and commands[s[4]][1].kind == "catalog compare" and commands[s[4]][0] == "cli-startup":
            compare[s[4]] = compare.get(s[4], 0.0) + dur(s)
    m["catalog.compare_us"] = _median(compare.values(), 1e6)

    chars = [s for _, s in of("bh-curves", "blackhole.characterize")]
    m["blackhole.characterize_us"] = _median((dur(s) for s in chars), 1e6)
    m["blackhole.error_rate_evals"] = _median(s[5].get("h_evals", 0) for s in chars)
    pages = [s for _, s in of("bh-curves", "blackhole.page_curve")]
    m["blackhole.page_curve_us_per_sample"] = 1e6 * sum(map(dur, pages)) / sum(s[5]["rows"] for s in pages)
    csv = [s for _, s in of("bh-curves", "blackhole.timeline_csv_lines")]
    m["blackhole.csv_us_per_row"] = 1e6 * sum(map(dur, csv)) / sum(s[5]["rows"] for s in csv)

    for metric, span in (("read_matrix", "read_matrix"), ("read_vector", "read_vector"),
                         ("hermitian_ctor", "hermitian_ctor"), ("density_ctor", "density_ctor"),
                         ("gibbs", "gibbs_state"), ("solve_temp", "solve_inverse_temperature"),
                         ("work", "extractable_work"), ("spread", "energy_spread"),
                         ("evolve", "evolve"), ("write_matrix", "write_matrix"),
                         ("write_vector", "write_vector")):
        for d in DIMS:
            m[f"qthermo.{metric}_ms.d{d}"] = _median(
                (dur(s) for _, s in of("qthermo-dense", f"qthermo.{span}") if s[5].get("d") == d), 1e3)
    for op in QT_OPS:
        m[f"qthermo.eigh_calls.{op}"] = max(
            s[5].get("eigh", 0) for _, s in of("qthermo-dense", "cli.run")
            if commands[s[4]][1].kind.startswith(f"qt {op} "))

    index = [s for _, s in of("assembly-search", "assembly.assembly_index")]
    m["assembly.index_s_sum"] = sum(map(dur, index))
    m["assembly.index_s_p50"] = _median(map(dur, index))
    # the program's own bounds and candidate set, and the index it reported
    from physcomp.assembly import search

    found = [(s[5]["target"], s[5]["index"]) for s in index]
    m["assembly.candidates"] = sum(len(search.candidate_substrings(t)) for t, _ in found)
    m["assembly.deepening_passes"] = sum(
        i - max(search.doubling_lower_bound(len(t)), 1) + 1 for t, i in found)
    m["assembly.upper_gap"] = sum(search.greedy_doubling_upper_bound(t) - i for t, i in found)
    loads = {}
    for _, s in of("assembly-search", "assembly.load_pathway") + of("assembly-search", "assembly.pathway_free_phi"):
        loads[s[4]] = loads.get(s[4], 0.0) + dur(s)
    m["assembly.pathway_load_ms"] = _median(loads.values(), 1e3)
    return m


def traced_run(workload: str, seed: int, env: dict, root: Path, work_root: Path,
               results: Path) -> dict:
    """One untraced and one traced in-process pass over every workload's commands."""
    sys.path.insert(0, str(root / "src"))
    # physcomp.cli re-exports main(), which shadows the submodule's name
    main = importlib.import_module("physcomp.cli.main")

    import_ms, numpy_ms = import_times(env)
    numpy.linalg.eigh(numpy.eye(2))  # the first LAPACK call of a process starts its threads
    tr = Tracer()
    run = tr.span("cli.run", main.run)
    tally, tests, commands = Tally(), [], {}
    untraced = traced = 0.0

    def plain(cmd) -> float:
        t0 = time.perf_counter()
        main.run(cmd.argv, out=io.StringIO(), err=io.StringIO())
        return time.perf_counter() - t0

    def with_spans(workload_name: str, cmd, examples: dict) -> float:
        install(tr)
        tr.command = len(commands)
        commands[tr.command] = (workload_name, cmd)
        out, err = io.StringIO(), io.StringIO()
        try:
            t0 = time.perf_counter()
            code = run(cmd.argv, out=out, err=err)
            seconds = time.perf_counter() - t0
        finally:
            tr.command = None
            tr.unpatch()
        if code != 0:
            reason, defect = f"exit code {code}: {err.getvalue().strip()[:200]}", None
        else:
            reason, defect = cmd.judge(out.getvalue())
        tally.add(cmd, reason, defect)
        if reason is None:
            examples.setdefault(cmd.kind, (cmd, out.getvalue()))
        return seconds

    for name, build in WORKLOADS.items():
        work = work_root / f"trace-{name}-{seed}"
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        cmds = build(work, seed)
        examples: dict = {}
        os.chdir(work)
        for i, cmd in enumerate(cmds):
            # alternate which run goes first, so warm-up favours neither
            if i % 2:
                traced += with_spans(name, cmd, examples)
                untraced += plain(cmd)
            else:
                untraced += plain(cmd)
                traced += with_spans(name, cmd, examples)
        tests += self_test(examples)
        os.chdir(root)
        shutil.rmtree(work)

    m = layer_metrics(tr.spans, commands)
    m.update({"cli.import_ms": import_ms, "cli.import_numpy_ms": numpy_ms,
              "trace.untraced_s": untraced, "trace.traced_s": traced,
              "trace.overhead_ratio": traced / untraced})
    results.mkdir(exist_ok=True)
    with open(results / f"spans-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for i, s in enumerate(tr.spans):
            fh.write(json.dumps({"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                                 "command": s[4], "facts": s[5]}) + "\n")
    return {"workload": workload, "metrics": {k: m[k] for k in METRICS}, "units": METRICS_UNITS,
            "tally": tally, "self_test": tests, "commands_per_pass": len(commands)}
