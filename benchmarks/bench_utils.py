"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import os
from typing import Dict, Optional

#: Directory where every benchmark writes the table/series it regenerated:
#: the git-ignored ``.bench_out/results/`` at the repository root, so a
#: benchmark run never rewrites tracked files.  The committed tables in
#: ``benchmarks/results/`` (the measured side of the paper-vs-measured
#: comparison) are refreshed deliberately, by copying a run's files over.
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".bench_out", "results")


def peak_rss_bytes(pid: Optional[int] = None) -> Optional[int]:
    """Peak resident set size (``VmHWM``) of a process, in bytes.

    Read from ``/proc/<pid>/status`` — the high-water mark survives
    frees, so one read after a workload captures its peak.  Returns
    ``None`` where procfs is unavailable (non-Linux) or the process is
    gone; callers should skip RSS guards in that case.
    """
    pid = os.getpid() if pid is None else pid
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def worker_peak_rss_bytes(pool) -> Dict[int, int]:
    """Peak RSS per live worker process of a ``CampaignPool``.

    Must be called while the pool is open (worker pids come from the
    executor's process table); an empty mapping means no procfs.
    """
    executor = getattr(pool, "_executor", None)
    processes = getattr(executor, "_processes", None) or {}
    out: Dict[int, int] = {}
    for pid in list(processes):
        rss = peak_rss_bytes(pid)
        if rss is not None:
            out[pid] = rss
    return out


def run_and_report(benchmark, experiment_fn, scale, **kwargs):
    """Run one experiment under pytest-benchmark, print and persist its table."""
    result = benchmark.pedantic(lambda: experiment_fn(scale, **kwargs),
                                rounds=1, iterations=1)
    print()
    print(result.rendered)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{result.name}.txt")
    with open(path, "w") as handle:
        handle.write(f"{result.paper_reference} — {result.name}\n\n")
        handle.write(result.rendered + "\n")
    return result


def guard_minimum(result, label, value, minimum):
    """Performance regression guard: fail when ``value`` drops below ``minimum``.

    The measured value is appended to the experiment's results file in
    :data:`RESULTS_DIR` (:func:`run_and_report` rewrites the file at the
    start of each run, like every fig/table output); the perf trajectory
    across changes is the git history of the committed copies in
    ``benchmarks/results/``.
    """
    path = _record_guard(result, f"{label} = {value:.2f} (minimum {minimum})")
    assert value >= minimum, (
        f"performance regression: {label} = {value:.2f}, expected >= "
        f"{minimum} (see {path})")


def guard_maximum(result, label, value, maximum):
    """Regression guard on a lower-is-better quantity: fail when ``value``
    exceeds ``maximum`` (recorded like :func:`guard_minimum`)."""
    path = _record_guard(result, f"{label} = {value:.2f} (maximum {maximum})")
    assert value <= maximum, (
        f"performance regression: {label} = {value:.2f}, expected <= "
        f"{maximum} (see {path})")


def record_trend(result, label, value):
    """Record a wall-clock quantity without gating on it.

    For timing ratios too noisy to gate on this host class: the value is
    written to the results file like a guard's, so its trend stays in the
    record, and a deterministic work guard catches the regressions it used
    to catch.
    """
    _record_guard(result, f"{label} = {value:.2f}", kind="trend")


def _record_guard(result, line, kind="guard"):
    """Append one guard (or trend) line to the experiment's results file."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{result.name}.txt")
    with open(path, "a") as handle:
        handle.write(f"{kind}: {line}\n")
    return path
