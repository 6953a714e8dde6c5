"""Read-only host facts and ``/proc`` probes for the campaign benchmark.

Everything here observes the process from the outside: it reads procfs
and environment variables and calls one read-only OpenBLAS query.  It
never sets a thread count, an environment variable or an engine default.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Environment variables that size BLAS / OpenMP thread pools.
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Environment variables the engine itself reads.
ENGINE_ENV_VARS = ("REPRO_DISABLE_SHM", "REPRO_START_METHOD")

#: ``utime`` / ``stime`` are in clock ticks.
CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def openblas_threads() -> Optional[int]:
    """Effective OpenBLAS thread count of the loaded library, or None.

    Finds the OpenBLAS shared object numpy mapped into this process and
    calls its ``*get_num_threads*`` getter; a pure query.
    """
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def source_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts(root: Path, seed: int, source_digest: str) -> Dict:
    """Every host/runtime fact that moves the benchmark's numbers."""
    import numpy as np
    from repro.parallel import campaign_mp_context, shared_plane

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "openblas_threads": openblas_threads(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
        "engine_env": {name: os.environ.get(name)
                       for name in ENGINE_ENV_VARS},
        "start_method": campaign_mp_context().get_start_method(),
        "shm_available": shared_plane() is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": source_commit(root),
        "source_digest": source_digest,
        "seed": seed,
        "argv": sys.argv[1:],
    }


# -- procfs probes --------------------------------------------------------------


def peak_rss_kb(pid: int) -> Optional[int]:
    """``VmHWM`` (peak resident set) of one process in KiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def cpu_seconds(pid: int) -> Optional[float]:
    """``utime + stime`` of one process, in seconds."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return None
    # Fields after the parenthesised command name; utime/stime are the
    # 14th and 15th fields of the whole line.
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def child_pids() -> List[int]:
    """Live (or not yet reaped) child processes of this process."""
    me = os.getpid()
    pids: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me:
            pids.append(int(entry))
    return sorted(pids)


def worker_pids() -> List[int]:
    """Live child processes of this process that are pool workers.

    The multiprocessing resource tracker is a child too and is skipped.
    """
    pids: List[int] = []
    for pid in child_pids():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            pids.append(pid)
    return pids


def _reap(pid: int, timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for child ``pid``; True once reaped."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Call after the workload closed its pool.  Unlinks what is left of the
    shared-memory plane, so the multiprocessing resource tracker has
    nothing to clean up, then closes the tracker's pipe (it exits on end
    of file) and reaps it.  Any other child still running is sent
    SIGTERM, then SIGKILL, and reaped.
    """
    from multiprocessing import resource_tracker
    from repro.parallel import shared_plane

    plane = shared_plane()
    if plane is not None:
        plane.close()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    for pid in child_pids():
        if _reap(pid, 0.0):
            continue
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
        if not _reap(pid, timeout):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            _reap(pid, timeout)
