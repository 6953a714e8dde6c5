"""Campaign worker processes: start method, BLAS thread cap, fallback log.

Every multiprocess campaign path goes through
:class:`~repro.injection.pool.CampaignPool` — the ephemeral one of a
``run(workers=N)`` and the persistent ones of sweeps, the campaign
service and the experiments runner — and the pool starts its workers
with :func:`campaign_executor`.

**BLAS threads.**  numpy's OpenBLAS sizes its thread pool to the host's
CPUs, and a worker inherits that size.  N workers on C CPUs would run
``N x C`` BLAS threads that spin against each other, so each worker caps
its OpenBLAS at ``max(1, C // N)`` threads (never more than the parent
runs).  The initializer first imports what a campaign task imports
(numpy, and through :mod:`repro.injection` scipy, which maps its own
OpenBLAS), so every library a spawn worker will use is mapped; it then
calls each mapped library's own setter through :mod:`ctypes` — the one
mechanism covers fork and spawn workers alike — and stops each thread
server the setters restart, whose idle threads would otherwise
busy-wait.  The parent's
thread count is never touched, so serial campaigns keep every BLAS
thread; a pool stops the parent's idle server threads
(:func:`stop_blas_threads`) when it hands work to its workers.  The
initializer also freezes the objects a worker starts with
(:func:`gc.freeze`), so a fork child's collections leave the pages it
shares with its parent alone.

**Fallback log.**  Fast paths that fall back to a slower one (no
OpenBLAS setter for the cap, overlapping fault sites replayed per trial)
log once per cause to the ``repro.parallel`` logger via
:func:`log_fallback_once`.
"""

from __future__ import annotations

import ctypes
import gc
import logging
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

#: Environment knob for the CI smoke matrix: force the multiprocessing
#: start method campaigns and pools use (``fork`` / ``spawn``).
START_METHOD_ENV = "REPRO_START_METHOD"

#: Logger of the fan-out layer's fallbacks.
logger = logging.getLogger("repro.parallel")

#: OpenBLAS thread-count entry points, in lookup order: numpy wheels ship
#: scipy-openblas with 64-bit symbol suffixes; system builds export the
#: plain names.
_SETTERS = ("scipy_openblas_set_num_threads64_",
            "openblas_set_num_threads64_", "openblas_set_num_threads")
_GETTERS = ("scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_", "openblas_get_num_threads")
#: Stops OpenBLAS's thread server (the library's own fork handler).
_SHUTDOWN = ("blas_thread_shutdown_",)

_LOGGED_CAUSES: set = set()
_LOG_LOCK = threading.Lock()


def log_fallback_once(cause: str, message: str, *args) -> None:
    """Log a fast-path fallback at WARNING, once per ``cause`` per process."""
    with _LOG_LOCK:
        if cause in _LOGGED_CAUSES:
            return
        _LOGGED_CAUSES.add(cause)
    logger.warning(message, *args)


def campaign_mp_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context campaigns and pools fan out with.

    ``REPRO_START_METHOD`` (the CI smoke matrix knob) wins; otherwise
    fork where available — cheap worker start-up — with the platform
    default as the spawn-only fallback.
    """
    forced = os.environ.get(START_METHOD_ENV, "")
    if forced:
        return multiprocessing.get_context(forced)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - spawn-only hosts


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - non-Linux


def blas_threads_per_worker(workers: int, cpus: Optional[int] = None) -> int:
    """BLAS threads per worker when ``workers`` share ``cpus`` CPUs."""
    if cpus is None:
        cpus = usable_cpus()
    return max(1, cpus // workers)


def _mapped_openblas() -> List[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as handle:
            return sorted({line.split()[-1] for line in handle
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []


def _openblas_functions(symbols: Sequence[str]) -> List[object]:
    """Per mapped OpenBLAS, the first of ``symbols`` it exports."""
    functions = []
    for path in _mapped_openblas():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            function = getattr(library, symbol, None)
            if function is not None:
                functions.append(function)
                break
    return functions


def _openblas_function(symbols: Sequence[str],
                       ) -> Tuple[Optional[object], str]:
    """The first of ``symbols`` a mapped OpenBLAS exports, as ``(fn, "")``.

    ``(None, cause)`` when no OpenBLAS is mapped or none exports any of
    the symbols.
    """
    paths = _mapped_openblas()
    if not paths:
        return None, "no OpenBLAS library is mapped into the process"
    functions = _openblas_functions(symbols)
    if functions:
        return functions[0], ""
    return None, f"no {symbols[-1]} symbol in {', '.join(paths)}"


def openblas_threads() -> Optional[int]:
    """This process's OpenBLAS thread count, or ``None`` without OpenBLAS."""
    getter, _ = _openblas_function(_GETTERS)
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return int(getter())


def _init_worker(threads: Optional[int]) -> None:
    """Worker initializer: freeze the inherited heap, then set this
    process's OpenBLAS to ``threads`` (``None``: keep the inherited count).

    A fork worker inherits every object of its parent.  Left in the
    collector's generations, they are traversed by the worker's first
    full collection, which writes each one's header and so copies every
    page of the parent's heap into the worker; frozen, they never are.
    """
    gc.freeze()
    if threads is None:
        return
    # Map every OpenBLAS a campaign task uses before capping: numpy's,
    # and scipy's own copy, which ``repro.injection`` imports (through
    # ``scipy.special``).  A spawn worker has loaded neither yet.
    import numpy  # noqa: F401
    import repro.injection  # noqa: F401

    for setter in _openblas_functions(_SETTERS):
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(threads)
    # Setting the count (re)starts each thread server at the count the
    # library was loaded with (a fork child inherits it), even when the
    # cap leaves those threads idle.
    stop_blas_threads()


_stop_servers: Optional[List[object]] = None


def stop_blas_threads() -> None:
    """Stop this process's OpenBLAS thread servers until their next
    threaded call (a no-op without OpenBLAS).

    Server threads busy-wait for work before they sleep, about 0.1 s of a
    CPU each after every threaded call, so a process that has just handed
    its work to pool workers would take CPU from them.  The library's own
    fork handler makes the same stop before every fork; the thread count
    is kept, and the next threaded call restarts the server.  Every
    library mapped at the first call is stopped (callers import the
    campaign stack first).
    """
    global _stop_servers
    if _stop_servers is None:
        functions = _openblas_functions(_SHUTDOWN)
        if not functions:
            return
        for function in functions:
            function.argtypes = []
            function.restype = ctypes.c_int
        _stop_servers = functions
    for function in _stop_servers:
        function()


def campaign_executor(workers: int,
                      context: Optional[multiprocessing.context.BaseContext]
                      = None) -> ProcessPoolExecutor:
    """A ``workers``-process pool whose workers cap their BLAS threads.

    ``context`` defaults to :func:`campaign_mp_context`.  Each worker runs
    ``min(blas_threads_per_worker(workers), parent's count)`` OpenBLAS
    threads.  Where no OpenBLAS setter exists the workers keep the count
    they inherit, and the cause is logged once.
    """
    setter, cause = _openblas_function(_SETTERS)
    if setter is None:
        log_fallback_once(f"blas-cap: {cause}",
                          "campaign workers keep their inherited BLAS "
                          "thread count: %s", cause)
        threads = None
    else:
        threads = blas_threads_per_worker(workers)
        parent = openblas_threads()
        if parent is not None:
            threads = min(threads, parent)
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=context or campaign_mp_context(),
        initializer=_init_worker, initargs=(threads,))
