"""Long-lived campaign server: admission, scheduling, artifact reuse.

:class:`CampaignServer` is the in-process service façade the experiment
sweeps submit to.  One daemon scheduler thread drains a prioritized
:class:`~repro.service.queue.JobQueue` (admission backpressure included)
and executes each job through a :class:`~repro.service.scheduler
.WaveScheduler` that shares one borrowed
:class:`~repro.injection.pool.CampaignPool` (if any) and one
content-addressed :class:`~repro.service.store.ArtifactStore` across every
job.  :meth:`CampaignServer.submit` returns the job's :class:`Job`, the
one client handle: block on :meth:`Job.result`, iterate
:meth:`Job.iter_snapshots` for per-wave snapshots, read
:meth:`Job.describe`, or :meth:`Job.cancel`.

Submissions are round-tripped through ``encode_request`` /
``decode_request`` at the admission boundary, so only picklable specs are
admitted and the server's copy is isolated from client-side mutation.

The server runs jobs **one at a time** in admission-priority order:
campaign throughput comes from parallelism *inside* a job (the pool /
worker backends), not from racing jobs against each other — which keeps
wall-clock attribution per job meaningful and the pool's worker-side
campaign cache from thrashing between interleaved specs.
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Dict, Iterator, List, Optional

from ..injection.pool import CampaignPool
from .queue import JobQueue
from .scheduler import JobCancelled, WaveScheduler
from .serialization import CampaignRequest, decode_request, encode_request
from .store import ArtifactStore

#: Terminal job states.
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: Non-terminal job states.
PENDING = "pending"
RUNNING = "running"

TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class Job:
    """One submitted request: the scheduler's record and the client handle.

    Snapshots accumulate in ``_snapshots`` (each a merged-so-far result,
    the last one the final result); ``_condition`` serialises every state
    transition so ``wait`` / ``iter_snapshots`` never miss a wake-up.
    """

    def __init__(self, job_id: str, request: CampaignRequest,
                 priority: int) -> None:
        self.job_id = job_id
        self.request = request
        self.priority = priority
        self.state = PENDING
        self.error: Optional[str] = None
        self.outcome = None  # JobOutcome once finished
        self.cancel_requested = False
        self.waves_published = 0
        self._snapshots: List[Any] = []
        self._condition = threading.Condition()

    # -- scheduler side -----------------------------------------------------

    def publish(self, snapshot: Any) -> None:
        with self._condition:
            self._snapshots.append(snapshot)
            self.waves_published += 1
            self._condition.notify_all()

    def transition(self, state: str, outcome=None,
                   error: Optional[str] = None) -> None:
        with self._condition:
            self.state = state
            if outcome is not None:
                self.outcome = outcome
            if error is not None:
                self.error = error
            self._condition.notify_all()

    # -- client side --------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        with self._condition:
            return self._condition.wait_for(lambda: self.finished,
                                            timeout=timeout)

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the final result; raises on failure / cancellation."""
        if not self.wait(timeout=timeout):
            raise TimeoutError(
                f"job {self.job_id} still {self.state} after {timeout}s")
        if self.state == DONE:
            return self.outcome.result
        if self.state == CANCELLED:
            raise RuntimeError(f"job {self.job_id} was cancelled")
        raise RuntimeError(f"job {self.job_id} failed: {self.error}")

    def iter_snapshots(self, timeout: Optional[float] = None,
                       ) -> Iterator[Any]:
        """Yield merged-so-far snapshots as waves finish, then stop.

        The final snapshot equals the job's result (the scheduler always
        publishes it), so ``list(job.iter_snapshots())[-1]`` is the final
        result of a successful job.  Raises ``TimeoutError`` if no new
        snapshot (or terminal transition) arrives within ``timeout``.
        """
        cursor = 0
        while True:
            with self._condition:
                if not self._condition.wait_for(
                        lambda: len(self._snapshots) > cursor or self.finished,
                        timeout=timeout):
                    raise TimeoutError(
                        f"job {self.job_id}: no snapshot within {timeout}s")
                fresh = self._snapshots[cursor:]
                cursor = len(self._snapshots)
                drained = self.finished and cursor == len(self._snapshots)
            for snapshot in fresh:
                yield snapshot
            if drained:
                return

    def cancel(self) -> bool:
        """Request cancellation; returns whether the job can still stop.

        A pending job is skipped when popped; a running job stops at its
        next wave boundary.  A finished job returns False.
        """
        with self._condition:
            if self.finished:
                return False
            self.cancel_requested = True
            return True

    def describe(self) -> Dict[str, Any]:
        with self._condition:
            info = {"job_id": self.job_id, "state": self.state,
                    "kind": self.request.kind, "priority": self.priority,
                    "snapshots": len(self._snapshots),
                    "cancel_requested": self.cancel_requested}
            if self.error is not None:
                info["error"] = self.error
            if self.outcome is not None:
                info["from_cache"] = self.outcome.from_cache
                info["golden_seeded"] = self.outcome.golden_seeded
            return info


class CampaignServer:
    """In-process campaign service (queue + scheduler thread + store).

    Parameters
    ----------
    store:
        A shared :class:`ArtifactStore`, e.g. ``ArtifactStore(root=...)``
        to warm-start from disk; an in-memory one, freed at
        :meth:`close`, is created when not given.
    max_pending:
        Admission cap forwarded to the :class:`JobQueue` — submissions
        beyond this many pending jobs raise
        :class:`~repro.service.queue.AdmissionError`.
    pool:
        A :class:`CampaignPool` the server *borrows* for ``use_pool=True``
        jobs (e.g. the experiment runner's process-wide pool) and never
        closes.  Without one, ``use_pool=True`` jobs fail.
    """

    def __init__(self, store: Optional[ArtifactStore] = None,
                 max_pending: Optional[int] = None,
                 pool: Optional[CampaignPool] = None) -> None:
        self.store = store if store is not None else ArtifactStore()
        self._owns_store = store is None
        self.scheduler = WaveScheduler(store=self.store, pool=pool)
        self.queue = JobQueue(max_pending=max_pending)
        self._jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._counter = 0
        self._executed = 0
        self._closed = False
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="campaign-server")
        self._thread.start()

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "CampaignServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, drain: bool = True,
              timeout: Optional[float] = 60.0) -> None:
        """Stop admitting, optionally drain the backlog, stop the thread."""
        if self._closed:
            return
        if drain:
            for job in list(self._jobs.values()):
                job.wait(timeout=timeout)
        self._closed = True
        self.queue.close()
        self._thread.join(timeout=timeout)
        if self._owns_store:
            # Frees the memory tier of the store this server created.
            self.store.close()

    # -- submission ---------------------------------------------------------

    def submit(self, request: CampaignRequest, priority: int = 0) -> Job:
        """Admit a request; returns its :class:`Job` handle.

        Raises :class:`~repro.service.queue.AdmissionError` under
        backpressure and ``RuntimeError`` once the server is closed.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        # The encode/decode round trip is the admission contract: only
        # picklable specs pass, and the server's copy is detached from
        # the client's objects.
        admitted = decode_request(encode_request(request))
        with self._jobs_lock:
            self._counter += 1
            job = Job(f"job-{self._counter}", admitted, priority)
            self._jobs[job.job_id] = job
        try:
            self.queue.submit(job, priority=priority)
        except Exception:
            with self._jobs_lock:
                del self._jobs[job.job_id]
            raise
        return job

    # -- observation --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._jobs_lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        return {"jobs": states, "executed": self._executed,
                "pending": len(self.queue), "store": self.store.stats()}

    # -- scheduler thread ---------------------------------------------------

    def _serve(self) -> None:
        while True:
            job = self.queue.pop(timeout=0.1)
            if job is None:
                if self.queue.closed:
                    return
                continue
            if job.cancel_requested:
                job.transition(CANCELLED)
                continue
            job.transition(RUNNING)
            try:
                outcome = self.scheduler.execute(
                    job.request, publish=job.publish,
                    should_cancel=lambda: job.cancel_requested)
            except JobCancelled:
                job.transition(CANCELLED)
            except Exception:
                job.transition(FAILED, error=traceback.format_exc())
            else:
                self._executed += 1
                job.transition(DONE, outcome=outcome)
