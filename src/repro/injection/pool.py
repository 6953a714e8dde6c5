"""Campaign worker pool: the one fan-out backend of every campaign.

A multiprocess campaign pays two fixed costs: spawning worker processes
and, in each worker, a full campaign rebuild (model unpickle, state-space
profiling, golden-output pass, lazy golden activation caches).
:class:`CampaignPool` keeps its workers alive and caches rebuilt campaigns
*inside* them, keyed by a content fingerprint of the campaign spec, so a
campaign that shares a (model, inputs, fault model, criteria, dtype
policy, seed) with an earlier one skips both costs.  ``run(workers=N)``
and ``compare_protection(workers=N)`` open one ephemeral pool for the
whole call (every adaptive wave included); sweeps, the experiments runner
and the campaign service keep one pool across many campaigns.

**One options object.**  A task carries ``(fingerprint, plans, trial
offset, options)``: the run's own :class:`RunOptions`, unchanged, which
the worker hands straight to the cached campaign's backend dispatch
(:meth:`FaultInjectionCampaign._dispatch`), so a shard runs exactly the
code the serial path runs for the same plans.

**Spec on miss.**  A worker whose cache lacks the task's fingerprint
returns a miss marker, and the parent resends that one shard with the
pickled spec.  The parent pickles each spec once and holds the bytes per
fingerprint, so a warm pool ships a few KiB of plans per task, and a miss
costs one extra round trip.  The first dispatch of a fingerprint the pool
has never sent would bounce on every worker, so its shards carry the spec
from the start: the same payload, without the round trip.  A fork pool
goes further: it starts its workers with the first campaign it dispatches
already cached (an ephemeral pool with every campaign of the call; see
:meth:`CampaignPool.start_with`), so they inherit it and neither receive
nor rebuild it.

**Determinism.**  A pooled shard runs the same pre-sampled plans with the
same global trial offsets as the serial path, and the worker-side campaign
is a pure function of its spec (reuse only skips recomputing that pure
function), so pooled results are **bit-identical** to serial runs for
every pool size, reuse pattern and miss pattern — enforced by
``tests/test_parallel_campaign.py``, ``tests/test_union_cone_batching.py``
and ``tests/test_adaptive_campaign.py``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, List, Optional, Sequence, Tuple

from ..parallel.fanout import (campaign_executor, campaign_mp_context,
                               openblas_threads, stop_blas_threads)
from .campaign import (CampaignResult, CampaignSpec, FaultInjectionCampaign,
                       RunOptions, shard_plans)
from .injector import InjectionPlan

#: Rebuilt campaigns kept alive per worker process, most recently used
#: last; the parent keeps the same number of pickled specs.  Sweeps
#: interleave at most a handful of distinct campaign configs (model ×
#: datatype × protection), so a small cache captures the reuse while
#: bounding worker memory (each entry holds a model plus its golden
#: caches).
WORKER_CAMPAIGN_CACHE_LIMIT = 4

#: Per-worker campaign cache (lives in the *worker* processes; the parent's
#: copy stays empty).
_WORKER_CAMPAIGNS: "OrderedDict[str, FaultInjectionCampaign]" = OrderedDict()


def spec_fingerprint(spec: CampaignSpec) -> str:
    """Content fingerprint of a campaign spec.

    SHA-1 over the pickled configuration leaves — (model, inputs, fault
    model, criteria, dtype policy, seed) — so two campaign *objects* built
    from the same configuration share one fingerprint.  Pool workers key
    their campaign cache on it, and the campaign service's artifact store
    (:mod:`repro.service.store`) keys golden caches and finished results
    on it.  A spurious mismatch merely costs a rebuild / cache miss; a
    false match would need a SHA-1 collision on the pickled configuration.
    """
    payload = pickle.dumps((spec.model, spec.inputs, spec.fault_model,
                            spec.criteria, spec.dtype_policy, spec.seed),
                           protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha1(payload).hexdigest()


def _run_pooled_shard(fingerprint: str, spec: Optional[bytes],
                      payload: Sequence[Tuple[int, Sequence[Tuple[str, int]]]],
                      trial_offset: int, options: RunOptions,
                      ) -> Optional[CampaignResult]:
    """Worker entry point: run one shard of trials on the cached campaign.

    ``spec`` is the pickled :class:`CampaignSpec`, or ``None`` on a first
    send of a fingerprint the pool has dispatched before.  A worker that
    has ``fingerprint`` cached runs the shard on it; one that does not
    rebuilds (and caches) the campaign from ``spec``, or returns ``None``
    — the miss marker — when no spec came along.

    Module-level (not a closure) so it pickles under every multiprocessing
    start method.  ``trial_offset`` anchors the shard's per-trial RNG
    streams at the trials' global indices, and ``options`` is the run's
    own :class:`RunOptions`: the shard goes straight to the campaign's
    backend dispatch, in-process, which packs its own batches.
    """
    campaign = _WORKER_CAMPAIGNS.get(fingerprint)
    if campaign is not None:
        _WORKER_CAMPAIGNS.move_to_end(fingerprint)
    elif spec is None:
        return None
    else:
        campaign = pickle.loads(spec).build()
        _WORKER_CAMPAIGNS[fingerprint] = campaign
        while len(_WORKER_CAMPAIGNS) > WORKER_CAMPAIGN_CACHE_LIMIT:
            _WORKER_CAMPAIGNS.popitem(last=False)
    plans = [(input_index, InjectionPlan.from_payload(sites))
             for input_index, sites in payload]
    return campaign._dispatch(plans, options, trial_offset=trial_offset,
                              packing=None, pool=None)


class CampaignPool:
    """A persistent worker pool shared by many fault-injection campaigns.

    Parameters
    ----------
    workers:
        Number of worker processes kept alive for the pool's lifetime.
        Each worker caps its BLAS threads at ``max(1, CPUs // workers)``
        (see :func:`~repro.parallel.fanout.campaign_executor`).

    Usage::

        with CampaignPool(workers=4) as pool:
            for config in sweep:                  # fig6/fig9/fig11 grids
                campaign = build_campaign(config)
                result = campaign.run(trials=3000, pool=pool)

    The pool composes with everything ``run`` supports (``batch_trials``,
    ``keep_faults``, adaptive waves, paired comparisons via
    ``compare_protection(pool=...)``); ``workers`` is superseded by the
    pool's size.
    """

    def __init__(self, workers: int,
                 context: Optional[multiprocessing.context.BaseContext] = None,
                 ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self._context = context or campaign_mp_context()
        self._executor: Optional[ProcessPoolExecutor] = campaign_executor(
            workers, self._context)
        #: Pickled specs by fingerprint, most recently used last.
        self._specs: "OrderedDict[str, bytes]" = OrderedDict()
        #: Every fingerprint this pool has dispatched (or started its
        #: workers with): no worker can hold any other.  A few dozen bytes
        #: per distinct campaign, kept for the pool's lifetime.
        self._dispatched: set = set()
        #: Whether a task has gone to the executor, which starts the
        #: workers.
        self._started = False
        self._stats = {"tasks": 0, "misses": 0, "payload_bytes": 0}

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._executor is None

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        self._specs.clear()
        self._dispatched.clear()

    def __enter__(self) -> "CampaignPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ---------------------------------------------------------

    def _submit(self, fn, *args):
        self._started = True
        return self._executor.submit(fn, *args)

    def start_with(self, campaigns: Sequence[FaultInjectionCampaign]) -> None:
        """Start the workers with ``campaigns`` in their caches.

        Only a fork pool whose workers have not started can do this: its
        executor forks every worker on the first submit, and a fork child
        inherits the parent's memory, ``campaigns`` included, without
        pickling them.  Their golden outputs, which a campaign computes at
        its first verdict, are built here first, so that every worker
        inherits them instead of computing its own.  A worker that misses
        the campaigns anyway bounces its task and gets the spec, so this
        only saves work.  Otherwise (spawn, or workers already running)
        it does nothing.  :meth:`run_plans` calls it with the campaign it
        dispatches.
        """
        if (self._executor is None or self._started
                or self._context.get_start_method() != "fork"):
            return
        inherited = {}
        for campaign in campaigns:
            campaign._golden  # built once here, inherited by every worker
            inherited[campaign.spec_fingerprint()] = campaign
        added = [fingerprint for fingerprint in inherited
                 if fingerprint not in _WORKER_CAMPAIGNS]
        _WORKER_CAMPAIGNS.update(inherited)
        try:
            self._submit(int)  # forks every worker now
        finally:
            for fingerprint in added:
                del _WORKER_CAMPAIGNS[fingerprint]
        self._dispatched.update(inherited)

    def _shard_tasks(self, campaign: FaultInjectionCampaign,
                     plans: List[Tuple[int, InjectionPlan]],
                     options: RunOptions,
                     trial_offset: int = 0) -> List[tuple]:
        """The first-send argument tuples of :func:`_run_pooled_shard`,
        one per shard: ``(fingerprint, None, plans, offset, options)``."""
        fingerprint = campaign.spec_fingerprint()
        return [(fingerprint, None,
                 [(index, plan.to_payload()) for index, plan in chunk],
                 trial_offset + offset, options)
                for offset, chunk in shard_plans(plans, self.workers)]

    def run_plans(self, campaign: FaultInjectionCampaign,
                  plans: List[Tuple[int, InjectionPlan]],
                  options: RunOptions,
                  trial_offset: int = 0) -> CampaignResult:
        """Fan pre-sampled plans out across the workers and merge the shards.

        The entry point every campaign's backend dispatch takes when it
        fans out; ``options`` travels unchanged into each worker, and
        ``trial_offset`` is the global index of ``plans[0]``.  Plans are
        cut into contiguous shards
        (:func:`~repro.injection.campaign.shard_plans`) anchored at their
        global trial offsets, and the shard results merge with the
        order-insensitive :meth:`CampaignResult.merge`.  The first
        dispatch of a fork pool starts the workers with ``campaign``
        (:meth:`start_with`).  Otherwise the shards of a fingerprint the
        pool has never dispatched carry the spec; later ones do not, and a
        bounced shard is resent with the spec as soon as its miss marker
        arrives, so the other shards keep running meanwhile.
        """
        if self._executor is None:
            raise RuntimeError("CampaignPool is closed")
        self.start_with([campaign])
        tasks = self._shard_tasks(campaign, plans, options, trial_offset)
        fingerprint = campaign.spec_fingerprint()
        if fingerprint not in self._dispatched:
            self._dispatched.add(fingerprint)
            spec = self._pickled_spec(campaign)
            tasks = [(fingerprint, spec, *rest) for _, _, *rest in tasks]
            self._stats["misses"] += len(tasks)
            self._stats["payload_bytes"] += len(tasks) * len(spec)
        stop_blas_threads()  # this process only waits from here on
        pending = {self._submit(_run_pooled_shard, *task): index
                   for index, task in enumerate(tasks)}
        self._stats["tasks"] += len(tasks)
        results: List[Optional[CampaignResult]] = [None] * len(tasks)
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                result = future.result()
                if result is not None:
                    results[index] = result
                    continue
                spec = self._pickled_spec(campaign)
                _, _, *rest = tasks[index]
                pending[self._submit(_run_pooled_shard, fingerprint, spec,
                                     *rest)] = index
                self._stats["misses"] += 1
                self._stats["payload_bytes"] += len(spec)
        return CampaignResult.merge(results)

    def _pickled_spec(self, campaign: FaultInjectionCampaign) -> bytes:
        """``campaign``'s spec, pickled once per fingerprint."""
        fingerprint = campaign.spec_fingerprint()
        spec = self._specs.get(fingerprint)
        if spec is None:
            spec = pickle.dumps(campaign.spec(),
                                protocol=pickle.HIGHEST_PROTOCOL)
            self._specs[fingerprint] = spec
            while len(self._specs) > WORKER_CAMPAIGN_CACHE_LIMIT:
                self._specs.popitem(last=False)
        else:
            self._specs.move_to_end(fingerprint)
        return spec

    def stats(self) -> Dict[str, int]:
        """Aggregated dispatch counters.

        ``tasks`` counts first sends (one per shard), ``misses`` the
        tasks that needed the spec (the first dispatch of a fingerprint,
        sent with it, and tasks a worker bounced for want of the campaign,
        each resent once with it), ``hits`` the rest, and
        ``payload_bytes`` the total pickled-spec bytes those sends carried.
        """
        return dict(self._stats,
                    hits=self._stats["tasks"] - self._stats["misses"])

    def worker_blas_threads(self) -> Optional[int]:
        """The OpenBLAS thread count a pool worker reports (``None``
        without OpenBLAS)."""
        if self._executor is None:
            raise RuntimeError("CampaignPool is closed")
        return self._submit(openblas_threads).result()

    def run(self, campaign: FaultInjectionCampaign, trials: int = 100,
            plans: Optional[List[Tuple[int, InjectionPlan]]] = None,
            **kwargs) -> CampaignResult:
        """Convenience wrapper: sample plans (if needed) and fan them out.

        ``kwargs`` are :class:`RunOptions` fields (``keep_faults``,
        ``batch_trials``, ...)."""
        if plans is None:
            plans = campaign.generate_plans(trials)
        options = RunOptions(trials=len(plans), **kwargs)
        return self.run_plans(campaign, plans, options)
