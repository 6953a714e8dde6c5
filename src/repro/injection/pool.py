"""Persistent campaign worker pool for back-to-back experiment sweeps.

Experiment grids (the fig6 / fig9 / fig11-style sweeps) run many campaigns
back-to-back, and the per-campaign multiprocess backend of
:meth:`~repro.injection.campaign.FaultInjectionCampaign.run` pays two fixed
costs every time: spawning a fresh process pool and, in each worker, a full
campaign rebuild (model unpickle, state-space profiling, golden-output
pass, lazy golden activation caches).  :class:`CampaignPool` keeps one
process pool alive for the whole sweep and caches rebuilt campaigns
*inside* the workers, keyed by a content fingerprint of the campaign spec —
so every campaign after the first that shares a (model, inputs, fault
model, criteria, dtype policy, seed) skips both costs, and even distinct
campaigns skip the pool spawn.

The spec still travels with every task (a task cannot target a specific
worker), but unpickling a spec is orders of magnitude cheaper than the
rebuild it replaces; on a cache hit the worker drops it immediately.

**Determinism.**  A pooled run ships the same pre-sampled plan payloads and
per-trial RNG anchors as the fresh multiprocess path, and the worker-side
campaign is a pure function of its spec (reuse only skips recomputing that
pure function), so pooled results are **bit-identical** to fresh
per-campaign runs for every pool size and reuse pattern — enforced by
``tests/test_union_cone_batching.py``.

Adaptive campaigns (``run(target_half_width=...)``) lean on the pool the
same way a sweep does: every wave is one more dispatch of the same spec,
so across the many small waves of a sequentially-stopped campaign the
workers' cached campaigns are rebuilt once and reused for the rest —
wave granularity adds no per-wave rebuild cost.  The wave chunks carry
global trial offsets, so pooled adaptive results stay bit-identical to
the serial adaptive path (``tests/test_adaptive_campaign.py``).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.equivalence import DEFAULT_MAX_ULPS, EquivalenceMode
from ..parallel.shm import campaign_mp_context, shared_plane
from .campaign import (CampaignResult, CampaignSpec, FaultInjectionCampaign,
                       encode_campaign_spec, shard_plans)
from .injector import InjectionPlan

#: Rebuilt campaigns kept alive per worker process, most recently used
#: last.  Sweeps interleave at most a handful of distinct campaign configs
#: (model × datatype × protection), so a small cache captures the reuse
#: while bounding worker memory (each entry holds a model plus its golden
#: caches).
WORKER_CAMPAIGN_CACHE_LIMIT = 4

#: Per-worker campaign cache (lives in the *worker* processes; the parent's
#: copy stays empty).
_WORKER_CAMPAIGNS: "OrderedDict[str, FaultInjectionCampaign]" = OrderedDict()

#: Plane-encoded spec payloads the pool keeps pinned between campaigns,
#: most recently used last (see :attr:`CampaignPool._leases`).  Matches
#: :data:`WORKER_CAMPAIGN_CACHE_LIMIT`: the parent keeps a segment alive
#: exactly as long as the workers plausibly still have the campaign it
#: backs cached.
ENCODED_SPEC_LEASE_LIMIT = 4


def spec_fingerprint(spec: CampaignSpec) -> str:
    """Content fingerprint of a campaign spec (golden caches excluded).

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


def _cache_campaign(fingerprint: str,
                    campaign: FaultInjectionCampaign) -> None:
    _WORKER_CAMPAIGNS[fingerprint] = campaign
    while len(_WORKER_CAMPAIGNS) > WORKER_CAMPAIGN_CACHE_LIMIT:
        _WORKER_CAMPAIGNS.popitem(last=False)


def _run_shard_on(campaign: FaultInjectionCampaign,
                  payload: Sequence[Tuple[int, Sequence[Tuple[str, int]]]],
                  trial_offset: int, keep_faults: bool, incremental: bool,
                  batch_trials: int, equivalence: Optional[str],
                  max_ulps: float) -> CampaignResult:
    plans = [(input_index, InjectionPlan.from_payload(sites))
             for input_index, sites in payload]
    return campaign.run(plans=plans, keep_faults=keep_faults,
                        incremental=incremental, trial_offset=trial_offset,
                        batch_trials=batch_trials, equivalence=equivalence,
                        max_ulps=max_ulps)


def _run_pooled_shard(fingerprint: str, spec: CampaignSpec,
                      payload: Sequence[Tuple[int, Sequence[Tuple[str, int]]]],
                      trial_offset: int, keep_faults: bool,
                      incremental: bool, batch_trials: int,
                      equivalence: Optional[str],
                      max_ulps: float,
                      ) -> Tuple[CampaignResult, Dict[str, int]]:
    """Pooled worker entry: reuse (or rebuild and cache) the campaign, then
    run one shard of trials exactly like ``_run_campaign_shard``.

    Returns ``(result, stats)`` where ``stats`` carries the worker-cache
    hit/miss counters :meth:`CampaignPool.stats` aggregates.
    """
    stats = {"hits": 0, "misses": 0, "remaps": 0}
    campaign = _WORKER_CAMPAIGNS.get(fingerprint)
    if campaign is None:
        stats["misses"] = 1
        campaign = spec.build()
        _cache_campaign(fingerprint, campaign)
    else:
        stats["hits"] = 1
        _WORKER_CAMPAIGNS.move_to_end(fingerprint)
    result = _run_shard_on(campaign, payload, trial_offset, keep_faults,
                           incremental, batch_trials, equivalence, max_ulps)
    return result, stats


def _run_pooled_shard_shm(fingerprint: str, spec_payload,
                          payload: Sequence[Tuple[int, Sequence]],
                          trial_offset: int, keep_faults: bool,
                          incremental: bool, batch_trials: int,
                          equivalence: Optional[str],
                          max_ulps: float,
                          ) -> Tuple[CampaignResult, Dict[str, int]]:
    """Pooled worker entry for plane-encoded specs.

    On a campaign-cache hit the payload is dropped without even mapping
    its segments (the warm-pool fast path: no unpickle, no attach).  On
    a miss the worker maps the referenced segments — ``remaps`` counts
    segments this process had already attached for an earlier campaign,
    the re-map-instead-of-re-unpickle reuse the plane exists for — and
    rebuilds the campaign around read-only zero-copy views.
    """
    stats = {"hits": 0, "misses": 0, "remaps": 0}
    campaign = _WORKER_CAMPAIGNS.get(fingerprint)
    if campaign is None:
        from ..parallel import shm as shm_mod

        spec, decode_stats = shm_mod.decode(spec_payload)
        stats["misses"] = 1
        stats["remaps"] = decode_stats["segments_remapped"]
        campaign = spec.build()
        _cache_campaign(fingerprint, campaign)
    else:
        stats["hits"] = 1
        _WORKER_CAMPAIGNS.move_to_end(fingerprint)
    result = _run_shard_on(campaign, payload, trial_offset, keep_faults,
                           incremental, batch_trials, equivalence, max_ulps)
    return result, stats


class CampaignPool:
    """A persistent worker pool shared by many fault-injection campaigns.

    Parameters
    ----------
    workers:
        Number of worker processes kept alive for the pool's lifetime.

    Usage::

        with CampaignPool(workers=4) as pool:
            for config in sweep:                  # fig6/fig9/fig11 grids
                campaign = build_campaign(config)
                result = campaign.run(trials=3000, pool=pool)

    The pool composes with everything ``run`` supports in its multiprocess
    backend (``batch_trials``, ``keep_faults``, paired comparisons via
    ``compare_protection(pool=...)``); only ``workers`` is superseded by
    the pool's size.
    """

    def __init__(self, workers: int,
                 context: Optional[multiprocessing.context.BaseContext] = None,
                 use_shm: Optional[bool] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        if context is None:
            # fork (where available) keeps worker start-up cheap, matching
            # the fresh multiprocess backend's choice; REPRO_START_METHOD
            # forces a specific start method for the CI smoke matrix.
            context = campaign_mp_context()
        self._executor: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=workers, mp_context=context)
        #: ``None`` → use the shared-memory cache plane whenever it is
        #: available; ``False`` → always ship full pickled specs (the
        #: benchmark's before-phase); ``True`` → require the plane (still
        #: falls back per-call if publication fails).
        self.use_shm = use_shm
        #: Plane-encoded spec payloads kept pinned between campaigns,
        #: keyed by (fingerprint, shipped golden indices).  Holding the
        #: lease keeps the segments linked, so a warm pool re-dispatches
        #: the same few-KiB skeleton instead of re-publishing — and a
        #: worker that missed its campaign cache can still attach.
        self._leases: "OrderedDict[Tuple[str, Tuple[int, ...]], object]" = \
            OrderedDict()
        self._stats = {"tasks": 0, "hits": 0, "misses": 0, "remaps": 0,
                       "shm_tasks": 0, "payload_bytes": 0}

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._executor is None

    def close(self) -> None:
        """Shut the worker processes down and drop every plane lease
        (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        self._release_leases()

    def _release_leases(self) -> None:
        while self._leases:
            _, encoded = self._leases.popitem(last=False)
            encoded.release()

    def __enter__(self) -> "CampaignPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ---------------------------------------------------------

    #: Workers key their campaign cache on :func:`spec_fingerprint`, so two
    #: campaign *objects* built from the same configuration share one
    #: worker-side rebuild.
    fingerprint = staticmethod(spec_fingerprint)

    def run_plans(self, campaign: FaultInjectionCampaign,
                  plans: List[Tuple[int, InjectionPlan]], *,
                  keep_faults: bool = False,
                  incremental: bool = True,
                  trial_offset: int = 0,
                  batch_trials: int = 1,
                  equivalence=None,
                  max_ulps: float = DEFAULT_MAX_ULPS) -> CampaignResult:
        """Fan pre-sampled plans out across the persistent workers.

        The entry point :meth:`FaultInjectionCampaign.run` delegates to
        when called with ``pool=...``; mirrors the fresh multiprocess
        backend shard-for-shard (same contiguous chunks, same trial-offset
        RNG anchoring, same order-insensitive merge).
        """
        if self._executor is None:
            raise RuntimeError("CampaignPool is closed")
        spec = campaign.spec()
        fingerprint = campaign.spec_fingerprint()
        shards = shard_plans(plans, self.workers)
        payloads = [(offset, [(index, plan.to_payload())
                              for index, plan in chunk])
                    for offset, chunk in shards]
        mode_value = (EquivalenceMode.coerce(
            equivalence, EquivalenceMode.EXACT if batch_trials == 1
            else EquivalenceMode.ULP_TOLERANT).value
            if equivalence is not None else None)
        encoded = None
        if self.use_shm is not False:
            encoded = self._encoded_spec(campaign, spec, fingerprint, plans)
        if encoded is not None:
            submit = [(_run_pooled_shard_shm, encoded.payload)]
            per_task_bytes = encoded.payload_bytes
            self._stats["shm_tasks"] += len(payloads)
        else:
            submit = [(_run_pooled_shard, spec)]
            per_task_bytes = len(pickle.dumps(
                spec, protocol=pickle.HIGHEST_PROTOCOL))
        entry, travelling_spec = submit[0]
        futures = [self._executor.submit(
            entry, fingerprint, travelling_spec, chunk,
            trial_offset + offset, keep_faults, incremental, batch_trials,
            mode_value, max_ulps)
            for offset, chunk in payloads]
        outcomes = [future.result() for future in futures]
        self._stats["tasks"] += len(outcomes)
        self._stats["payload_bytes"] += per_task_bytes * len(outcomes)
        for _, worker_stats in outcomes:
            for key in ("hits", "misses", "remaps"):
                self._stats[key] += worker_stats[key]
        return CampaignResult.merge([result for result, _ in outcomes])

    def _encoded_spec(self, campaign: FaultInjectionCampaign,
                      spec: CampaignSpec, fingerprint: str,
                      plans: Sequence[Tuple[int, InjectionPlan]]):
        """The pinned plane encoding of ``spec``, built at most once per
        (fingerprint, shipped golden subset) while the lease is warm.

        Unlike the fresh multiprocess backend the pool never *builds*
        golden caches just to ship them (workers keep their own across
        campaigns); it ships whichever caches the parent campaign has
        already built for the planned inputs — through the plane they
        cost one ``/dev/shm`` copy total, not per worker.  Returns
        ``None`` when the plane is unavailable or declined (legacy
        pickled-spec dispatch).
        """
        plane = shared_plane()
        if plane is None:
            return None
        needed = {input_index for input_index, _ in plans}
        subset = {index: cache
                  for index, cache in sorted(campaign._golden_caches.items())
                  if index in needed}
        lease_key = (fingerprint, tuple(subset))
        encoded = self._leases.get(lease_key)
        if encoded is not None:
            self._leases.move_to_end(lease_key)
            return encoded
        if subset:
            spec.golden_caches = subset
        encoded = encode_campaign_spec(plane, spec, fingerprint)
        spec.golden_caches = None
        if encoded is None:
            return None
        self._leases[lease_key] = encoded
        while len(self._leases) > ENCODED_SPEC_LEASE_LIMIT:
            _, stale = self._leases.popitem(last=False)
            stale.release()
        return encoded

    def stats(self) -> Dict[str, int]:
        """Aggregated worker-cache and dispatch-payload counters.

        ``hits`` / ``misses`` count worker-side campaign-cache outcomes
        (one per task), ``remaps`` counts shared segments a worker
        re-mapped instead of re-unpickling, ``shm_tasks`` the tasks that
        travelled plane-encoded, and ``payload_bytes`` the total spec
        bytes actually pickled into the task queue.
        """
        return dict(self._stats)

    def run(self, campaign: FaultInjectionCampaign, trials: int = 100,
            plans: Optional[List[Tuple[int, InjectionPlan]]] = None,
            **kwargs) -> CampaignResult:
        """Convenience wrapper: sample plans (if needed) and fan them out."""
        if plans is None:
            plans = campaign.generate_plans(trials)
        return self.run_plans(campaign, plans, **kwargs)
