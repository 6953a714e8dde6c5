"""Campaign benchmark runner: one command, one workload, one seed.

Usage (from the repository root)::

    python3 campaign_bench/run.py --workload exact-replay --seed 1 \\
        --seconds 12 --trace 0

Runs the named workload (see ``workloads.py``) as a closed loop for at
least ``--seconds`` seconds of whole passes over its grid, checks every
cell against its reference outside the timed region, and prints the
metrics.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": <cells>, "failed": <cells>,
     "metrics": {name: {"value": ..., "unit": ...}}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the same untraced window, then a traced window of the same length, and
reports per-layer metrics (self time and calls per trial from spans,
engine counters from the untraced window) plus the tracing overhead.
``failed / attempted`` is the failed-cell fraction; any failure exits 1.
Host facts, exact counts and the per-cell log go to the stdout lines
before the JSON and to ``.bench_out/``; spans of a traced run are
written there too.  Nothing outside the checkout is read or written.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from host import (cpu_seconds, host_facts, peak_rss_kb, stop_children,
                  worker_pids)
from tracer import CELL, Tracer
from trained import ensure_trained, source_digest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
CACHE_DIR = ROOT / ".bench_cache"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Every model any workload trains (all are trained on a cold cache).
ALL_MODELS = ("lenet", "alexnet", "vgg11", "squeezenet", "resnet18")


@dataclass
class CellRecord:
    label: str
    key: tuple
    repeat: bool
    latency_s: float
    pair: Optional[tuple]
    from_cache: bool = False
    worker_cpu_s: float = 0.0
    error: Optional[str] = None
    mismatch: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None or self.mismatch

    @property
    def trials(self) -> int:
        """Trial replays this cell performed (0 when served from cache)."""
        if self.pair is None or self.from_cache:
            return 0
        return sum(arm.trials for arm in self.pair)


@dataclass
class PassRecord:
    wall_s: float
    cells: List[CellRecord]
    worker_cpu_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def trials(self) -> int:
        return sum(cell.trials for cell in self.cells)

    def fresh_arms(self):
        return [arm for cell in self.cells if cell.trials
                for arm in cell.pair]


def peak_rss_now(state) -> int:
    """VmHWM (KiB) of this process plus the live pool workers."""
    pids = worker_pids() if state.pool is not None else []
    return sum(peak_rss_kb(pid) or 0 for pid in [os.getpid()] + pids)


def run_window(workload, state, grid, seed: int, seconds: float,
               tracer) -> Tuple[List[PassRecord], int]:
    """Closed loop: whole passes over ``grid`` until ``seconds`` elapsed
    (and at least ``workload.min_passes`` passes ran).

    Returns the passes and the peak RSS after the first ``min_passes``
    passes — a fixed amount of work, so it does not grow with a faster
    host's extra passes.
    """
    passes: List[PassRecord] = []
    peak_kb = 0
    cell_id = 0
    deadline = time.perf_counter() + seconds
    while (len(passes) < workload.min_passes
           or time.perf_counter() < deadline):
        workload.begin_pass(state)
        pids = worker_pids() if state.pool is not None else []
        gc.collect()
        cells: List[CellRecord] = []
        start = time.perf_counter()
        for cell in grid:
            if tracer is not None:
                tracer.cell = cell_id
            cell_id += 1
            cpu_before = sum(cpu_seconds(pid) or 0.0 for pid in pids)
            record = CellRecord(label=cell.label(), key=cell.key,
                                repeat=cell.repeat, latency_s=0.0, pair=None)
            try:
                if tracer is not None:
                    with tracer.span(CELL):
                        run = workload.run_cell(state, cell, seed)
                else:
                    run = workload.run_cell(state, cell, seed)
            except Exception:  # recorded as a failed cell, run continues
                record.error = traceback.format_exc()
                print(f"cell {cell.label()} raised:\n{record.error}",
                      file=sys.stderr)
            else:
                record.pair = run.pair
                record.latency_s = run.latency_s
                record.from_cache = run.from_cache
            record.worker_cpu_s = (sum(cpu_seconds(pid) or 0.0
                                       for pid in pids) - cpu_before)
            cells.append(record)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.cell = -1
        passes.append(PassRecord(
            wall_s=wall, cells=cells,
            worker_cpu_s=sum(c.worker_cpu_s for c in cells),
            extra=workload.end_pass(state)))
        if len(passes) == workload.min_passes:
            peak_kb = peak_rss_now(state)
    return passes, peak_kb


# -- metric helpers ---------------------------------------------------------------


def tail(values: List[float]) -> tuple:
    """(value, percentile) of the highest percentile that still has
    ``TAIL_BEYOND`` samples beyond it; falls back to the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0, 0.0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = n - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / n


def exact_counts(record: PassRecord) -> Dict[str, object]:
    """Counts that must repeat exactly for a given seed."""
    arms = record.fresh_arms()
    nodes_full = sum(arm.nodes_full for arm in arms)
    batches = sum(arm.batch_count for arm in arms)
    tasks = record.extra.get("pool_tasks", 0)
    return {
        "trials_to_ci": record.trials,
        "sdc_counts": [sorted(c.pair[i].sdc_counts.items())
                       for c in record.cells if c.pair is not None
                       for i in (0, 1)],
        "recompute_fraction": (sum(a.nodes_recomputed for a in arms)
                               / nodes_full if nodes_full else 0.0),
        "occupancy": (sum(a.batched_trials for a in arms) / batches
                      if batches else 0.0),
        "payload_bytes_per_task": (record.extra.get("pool_payload_bytes", 0)
                                   / tasks if tasks else 0.0),
    }


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def latency_sample(passes: List[PassRecord], count: int) -> List[float]:
    """Cell latencies of the first ``count`` passes: a fixed sample size,
    so the tail percentile means the same thing in every run."""
    return [cell.latency_s for record in passes[:count]
            for cell in record.cells if not cell.failed]


def end_to_end(passes: List[PassRecord], setup_times: List[float],
               peak_rss_kb: int, latency_passes: int) -> Dict[str, tuple]:
    latencies = latency_sample(passes, latency_passes)
    tail_value, _ = tail(latencies)
    return {
        "setup_s": (median(setup_times), "s"),
        "trials_per_s": (median(r.trials / r.wall_s for r in passes), "1/s"),
        "time_to_ci_s": (median(r.wall_s for r in passes), "s"),
        "trials_to_ci": (median(r.trials for r in passes), "count"),
        "cell_s_p50": (median(latencies), "s"),
        "cell_s_tail": (tail_value, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, traced: List[PassRecord], untraced: List[PassRecord],
              setup_spans: Dict[str, List[float]], workers: int
              ) -> Dict[str, tuple]:
    """Per-layer metrics: span self times per trial from the traced
    window, engine and /proc counters from the untraced window."""
    cols = tracer.columns()
    in_window = cols["cells"] >= 0
    trials = sum(r.trials for r in traced) or 1

    def self_us(name: str) -> float:
        if name not in tracer.names:
            return 0.0
        mask = in_window & (cols["names"] == tracer.names.index(name))
        return float(cols["selfs"][mask].sum()) / 1e3 / trials

    def calls(name: str) -> float:
        if name not in tracer.names:
            return 0.0
        mask = in_window & (cols["names"] == tracer.names.index(name))
        return float(mask.sum()) / trials

    # Queue wait: service.submit returning -> WaveScheduler.execute starting.
    waits = []
    if "service.submit" in tracer.names and "service.execute" in tracer.names:
        submit_id = tracer.names.index("service.submit")
        execute_id = tracer.names.index("service.execute")
        for cell in np.unique(cols["cells"][in_window]):
            here = cols["cells"] == cell
            submits = cols["ends"][here & (cols["names"] == submit_id)]
            executes = cols["starts"][here & (cols["names"] == execute_id)]
            if len(submits) and len(executes):
                waits.append(max(0, int(executes.min()) - int(submits.min())))
    cell_id = tracer.names.index(CELL)
    cell_ns = float((cols["ends"] - cols["starts"])[
        in_window & (cols["names"] == cell_id)].sum())
    spanned_ns = float(cols["selfs"][in_window
                                     & (cols["names"] != cell_id)].sum())

    arms = [arm for r in untraced for arm in r.fresh_arms()]
    untraced_trials = sum(r.trials for r in untraced) or 1
    nodes_full = sum(a.nodes_full for a in arms)
    elements_full = sum(a.elements_full for a in arms)
    batches = sum(a.batch_count for a in arms)
    tasks = sum(r.extra.get("pool_tasks", 0) for r in untraced)
    pool_lookups = sum(r.extra.get("pool_hits", 0)
                       + r.extra.get("pool_misses", 0) for r in untraced)
    result_lookups = sum(r.extra.get("result_hits", 0)
                         + r.extra.get("result_misses", 0) for r in untraced)
    cells = [c for r in untraced for c in r.cells]
    worker_cpu = sum(r.worker_cpu_s for r in untraced)
    wall = sum(r.wall_s for r in untraced)

    untraced_tps = median(r.trials / r.wall_s for r in untraced)
    traced_tps = median(r.trials / r.wall_s for r in traced)
    untraced_ttc = median(r.wall_s for r in untraced)
    traced_ttc = median(r.wall_s for r in traced)

    metrics = {
        "models.prepare_s": (median(setup_spans["models.prepare"]), "s"),
        "core.profile_s": (median(setup_spans["core.profile"]), "s"),
        "core.transform_s": (median(setup_spans["core.transform"]), "s"),
        "injection.campaign_init_us": (self_us("injection.campaign_init"),
                                       "us/trial"),
        "graph.golden_run_us": (self_us("graph.golden_run"), "us/trial"),
        "injection.generate_plans_us": (self_us("injection.generate_plans"),
                                        "us/trial"),
        "injection.inject_self_us": (self_us("injection.inject"),
                                     "us/trial"),
        "injection.verdict_us": (self_us("injection.verdict"), "us/trial"),
        "graph.run_from_self_us": (self_us("graph.run_from"), "us/trial"),
        "graph.run_from_batched_self_us": (
            self_us("graph.run_from_batched"), "us/trial"),
        "injection.pack_batches_us": (self_us("injection.pack_batches"),
                                      "us/trial"),
        "injection.merge_us": (self_us("injection.merge"), "us/trial"),
    }
    for kind in ("conv", "dense", "pool", "elementwise"):
        metrics[f"ops.{kind}_us"] = (self_us(f"ops.{kind}"), "us/trial")
        metrics[f"ops.{kind}.calls"] = (calls(f"ops.{kind}"), "calls/trial")
    metrics.update({
        "quantization.apply_us": (self_us("quantization.apply"), "us/trial"),
        "quantization.apply.calls": (calls("quantization.apply"),
                                     "calls/trial"),
        "pool.run_plans_self_us": (self_us("pool.run_plans"), "us/trial"),
        "shm.encode_us": (self_us("shm.encode"), "us/trial"),
        "service.submit_us": (self_us("service.submit"), "us/trial"),
        "service.queue_wait_us": (sum(waits) / 1e3 / trials, "us/trial"),
        "service.execute_self_us": (self_us("service.execute"), "us/trial"),
        "graph.recompute_fraction": (
            sum(a.nodes_recomputed for a in arms) / nodes_full
            if nodes_full else 0.0, "fraction"),
        "graph.sparse_evaluated_fraction": (
            1.0 - sum(a.elements_evaluated for a in arms) / elements_full
            if elements_full else 0.0, "fraction"),
        "graph.dense_fallback_nodes": (
            sum(a.dense_fallback_nodes for a in arms) / untraced_trials,
            "nodes/trial"),
        "graph.max_ulp_deviation": (
            max((a.max_ulp_deviation for a in arms), default=0.0), "ulp"),
        "injection.occupancy": (
            sum(a.batched_trials for a in arms) / batches if batches
            else 0.0, "rows/batch"),
        "injection.batched_fraction": (
            sum(a.batched_trials for a in arms) / untraced_trials,
            "fraction"),
        "injection.union_overhead_nodes": (
            sum(a.union_overhead_nodes for a in arms) / batches if batches
            else 0.0, "nodes/batch"),
        "pool.tasks": (tasks / len(untraced), "tasks/pass"),
        "pool.hit_ratio": (
            sum(r.extra.get("pool_hits", 0) for r in untraced) / pool_lookups
            if pool_lookups else 0.0, "fraction"),
        "pool.payload_bytes_per_task": (
            sum(r.extra.get("pool_payload_bytes", 0) for r in untraced)
            / tasks if tasks else 0.0, "B/task"),
        "pool.worker_cpu_us": (worker_cpu * 1e6 / untraced_trials,
                               "us/trial"),
        "pool.worker_util": (worker_cpu / (workers * wall)
                             if workers else 0.0, "fraction"),
        "shm.segments_published": (
            sum(r.extra.get("shm_published", 0) for r in untraced)
            / len(untraced), "segments/pass"),
        "shm.segment_bytes": (
            median(r.extra.get("shm_segment_bytes", 0) for r in untraced),
            "B"),
        "service.result_hit_ratio": (
            sum(r.extra.get("result_hits", 0) for r in untraced)
            / result_lookups if result_lookups else 0.0, "fraction"),
        "service.repeat_share": (
            sum(c.repeat for c in cells) / len(cells), "fraction"),
        "exact.sdc_count": (
            sum(sum(a.sdc_counts.values()) for a in arms) / len(untraced),
            "count/pass"),
        "trace.untraced_trials_per_s": (untraced_tps, "1/s"),
        "trace.traced_trials_per_s": (traced_tps, "1/s"),
        "trace.untraced_time_to_ci_s": (untraced_ttc, "s"),
        "trace.traced_time_to_ci_s": (traced_ttc, "s"),
        "trace.overhead_pct": (100.0 * (traced_ttc / untraced_ttc - 1.0),
                               "%"),
        "trace.coverage": (spanned_ns / cell_ns if cell_ns else 0.0,
                           "fraction"),
        "trace.spans": (float(in_window.sum()), "count"),
    })
    return metrics


# -- main ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"campaign_bench: no repro package under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still unwinds, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, _terminated)
    try:
        return run_benchmark(args)
    finally:
        stop_children()


def run_benchmark(args) -> int:
    digest = source_digest(SRC / "repro")
    cache_dir = CACHE_DIR / digest[:16]
    train_s = ensure_trained(cache_dir, ALL_MODELS, SRC)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    facts = host_facts(ROOT, args.seed, digest)
    print("host " + json.dumps(facts, sort_keys=True))
    phases = {"train_s": train_s}

    tracer = Tracer() if args.trace else None
    setup_times: List[float] = []
    setup_spans: Dict[str, List[float]] = {
        "models.prepare": [], "core.profile": [], "core.transform": []}
    state = None
    traced: List[PassRecord] = []
    try:
        for repeat in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
                state = None
            gc.collect()
            if tracer is not None:
                tracer.cell = -2 - repeat
            start = time.perf_counter()
            state = workload.setup(cache_dir, args.seed, tracer)
            setup_times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.cell = -1
        if tracer is not None:
            cols = tracer.columns()
            for name in setup_spans:
                name_id = tracer.names.index(name)
                for repeat in range(SETUP_REPEATS):
                    mask = ((cols["names"] == name_id)
                            & (cols["cells"] == -2 - repeat))
                    setup_spans[name].append(float(
                        (cols["ends"] - cols["starts"])[mask].sum()) / 1e9)

        phases["setup_s"] = sum(setup_times)

        grid = workload.grid(args.seed)
        clock = time.perf_counter()
        untraced, peak_kb = run_window(workload, state, grid, args.seed,
                                       args.seconds, None)
        phases["window_s"] = time.perf_counter() - clock
        if tracer is not None:
            clock = time.perf_counter()
            tracer.install()
            tracer.enabled = True
            try:
                traced, _ = run_window(workload, state, grid, args.seed,
                                       args.seconds, tracer)
            finally:
                tracer.enabled = False
                tracer.uninstall()
            phases["traced_window_s"] = time.perf_counter() - clock

        # Correctness gate, outside every timed region.
        clock = time.perf_counter()
        references = {}
        for cell in grid:
            if cell.key not in references:
                references[cell.key] = workload.reference(state, cell,
                                                          args.seed)
        phases["check_s"] = time.perf_counter() - clock
    finally:
        if state is not None:
            workload.close(state)
    all_passes = untraced + traced
    for record in all_passes:
        for cell in record.cells:
            if cell.pair is not None and not workload.agrees(
                    cell.pair, references[cell.key]):
                cell.mismatch = True
                print(f"MISMATCH {cell.label}: "
                      f"{[a.sdc_counts for a in cell.pair]} vs reference "
                      f"{[a.sdc_counts for a in references[cell.key]]}",
                      file=sys.stderr)

    counts = [exact_counts(record) for record in all_passes]
    counts_repeat = all(c == counts[0] for c in counts)
    if not counts_repeat:
        print("exact counts differ between passes of one seed",
              file=sys.stderr)
    cells = [cell for record in all_passes for cell in record.cells]
    failed = sum(cell.failed for cell in cells)

    if args.trace:
        metrics = per_layer(tracer, traced, untraced, setup_spans,
                            getattr(workload, "workers", 0))
    else:
        metrics = end_to_end(untraced, setup_times, peak_kb,
                             workload.min_passes)

    latencies = latency_sample(untraced, workload.min_passes)
    _, tail_pct = tail(latencies)
    summary = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": facts,
        "phases_s": phases, "setup_s": setup_times,
        "passes": len(untraced),
        "traced_passes": len(traced), "cells_per_pass": len(grid),
        "latency_samples": len(latencies), "tail_percentile": tail_pct,
        "repeat_share": sum(c.repeat for c in grid) / len(grid),
        "exact_counts": counts[0], "exact_counts_repeat": counts_repeat,
        "pass_walls_s": [r.wall_s for r in untraced],
        "traced_pass_walls_s": [r.wall_s for r in traced],
        "cells": [{"label": c.label, "latency_s": c.latency_s,
                   "from_cache": c.from_cache, "trials": c.trials,
                   "worker_cpu_s": c.worker_cpu_s, "failed": c.failed}
                  for c in cells],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump(summary, handle, indent=1, default=str)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.npz",
                     {"workload": workload.name, "seed": args.seed})

    print(f"workload {workload.name}: {len(untraced)} passes x {len(grid)} "
          f"cells (repeat share {summary['repeat_share']:.2f}), "
          f"{len(latencies)} latency samples, tail = p{tail_pct:.1f}, "
          f"setup x{SETUP_REPEATS}")
    print("phases " + json.dumps({k: round(v, 2) for k, v in phases.items()}))
    print("exact " + json.dumps({k: v for k, v in counts[0].items()
                                 if k != "sdc_counts"}, sort_keys=True)
          + f" repeat={counts_repeat}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed}/{len(cells)}")
    correct = failed == 0 and counts_repeat
    print(json.dumps({
        "correct": correct, "attempted": len(cells), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
