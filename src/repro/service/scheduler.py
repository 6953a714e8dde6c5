"""Wave-by-wave job execution for the campaign server.

One :class:`WaveScheduler` turns an admitted
:class:`~repro.service.serialization.CampaignRequest` into its final
result, reusing the campaign engine's own backend router
(:meth:`~repro.injection.FaultInjectionCampaign.run` with explicit
``plans`` / ``trial_offset``) so serial, batched, multiprocess, pooled and
adaptive jobs all execute exactly as a direct call would.  Along the way it

* serves repeat submissions straight from the artifact store's result
  cache (checked *before* the campaign is even built),
* seeds freshly built campaigns with stored golden activation caches and
  banks the caches back after the run,
* cuts bit-exact jobs into waves and streams the merged-so-far
  :class:`~repro.injection.CampaignResult` to the job's subscribers after
  each wave (adaptive jobs stream through the engine's own ``on_wave``
  hook), and
* polls a cancellation flag between waves, so a cancel lands at the next
  wave boundary instead of orphaning worker processes mid-shard.

Determinism: results depend only on ``(seed, trial index)``, never on how
trials are sharded, so the scheduler's waves are invisible in the output —
a spec submitted through the service yields counts and fault records
bit-identical to a direct ``run()`` on every backend.  Waves are cut only
on the bit-exact ``batch_trials=1`` path; batched (ULP-tolerant) jobs
dispatch once so the packer sees the full plan list and stays bit-aligned
with a direct batched run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..injection.campaign import (CampaignResult, FaultInjectionCampaign,
                                  compare_protection)
from ..injection.pool import CampaignPool
from .serialization import CampaignRequest
from .store import ArtifactStore

#: Waves a scheduler-chunked fixed-budget job is cut into (streaming
#: granularity; the count/fault content is wave-invariant).
DEFAULT_WAVE_COUNT = 4


class JobCancelled(Exception):
    """Raised inside the scheduler when a job's cancel flag is observed."""


@dataclass
class JobOutcome:
    """What executing one request produced (and how)."""

    result: Any  # CampaignResult, or (unprotected, protected) for compares
    from_cache: bool = False
    golden_seeded: bool = False
    golden_stored: bool = False
    waves_streamed: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


class WaveScheduler:
    """Executes admitted requests against a shared pool and artifact store.

    Parameters
    ----------
    store:
        Optional :class:`~repro.service.store.ArtifactStore` for result /
        golden-cache reuse.  Without one every job runs from scratch.
    pool:
        Optional persistent :class:`~repro.injection.pool.CampaignPool`
        jobs with ``use_pool=True`` are fanned out on.
    """

    def __init__(self, store: Optional[ArtifactStore] = None,
                 pool: Optional[CampaignPool] = None) -> None:
        self.store = store
        self.pool = pool

    # -- entry point --------------------------------------------------------

    def execute(self, request: CampaignRequest, *,
                publish: Optional[Callable[[Any], None]] = None,
                should_cancel: Optional[Callable[[], bool]] = None,
                ) -> JobOutcome:
        """Run one request to completion (or a cache hit / cancellation).

        ``publish`` receives every merged-so-far snapshot (including the
        final result, so a subscriber that arrives late still sees one
        terminal snapshot).  ``should_cancel`` is polled between waves;
        returning True raises :class:`JobCancelled`.
        """
        publish = publish or (lambda snapshot: None)
        should_cancel = should_cancel or (lambda: False)
        if request.options.trials <= 0:
            raise ValueError(
                f"trials must be positive, got {request.options.trials}")
        # Fingerprint once, at admission state: building and running the
        # campaign touches the spec's objects (lazy model/criteria state
        # rides along in their pickles), so a key computed *after* the run
        # would never match the next identical submission's lookup.
        result_key = request.result_key()
        spec_key = request.spec_key()

        if self.store is not None:
            cached = self.store.get("result", result_key)
            if cached is not None:
                publish(cached)
                return JobOutcome(result=cached, from_cache=True)
        if should_cancel():
            raise JobCancelled(result_key)

        if request.kind == "compare":
            outcome = self._run_compare(request, result_key, publish,
                                        should_cancel)
        else:
            outcome = self._run_campaign(request, result_key, spec_key,
                                         publish, should_cancel)

        if self.store is not None:
            self.store.put("result", result_key, outcome.result)
        return outcome

    # -- compare jobs -------------------------------------------------------

    def _run_compare(self, request: CampaignRequest, result_key: str,
                     publish, should_cancel) -> JobOutcome:
        options = request.options
        waves = [0]

        def on_wave(snapshots):
            if should_cancel():
                raise JobCancelled(result_key)
            waves[0] += 1
            publish(tuple(snapshots))

        pair = compare_protection(
            request.spec.model, request.protected_model, request.spec.inputs,
            fault_model=request.spec.fault_model,
            criteria=request.spec.criteria,
            dtype_policy=request.spec.dtype_policy,
            trials=options.trials, seed=request.spec.seed,
            incremental=options.incremental, workers=options.workers,
            batch_trials=options.batch_trials, equivalence=options.equivalence,
            pool=self._pool_for(options),
            target_half_width=options.target_half_width,
            wave_trials=options.wave_trials, strata=options.strata,
            z=options.z, interval_method=options.interval_method,
            joint_stop=options.joint_stop,
            on_wave=on_wave if self._engine_waved(options) else None)
        publish(pair)
        return JobOutcome(result=pair, waves_streamed=waves[0])

    # -- single campaigns ---------------------------------------------------

    def _run_campaign(self, request: CampaignRequest, result_key: str,
                      spec_key: str, publish, should_cancel) -> JobOutcome:
        options = request.options
        campaign = request.build_campaign()
        golden_seeded = self._seed_golden(spec_key, campaign)
        waves = [0]

        if self._engine_waved(options):
            # Adaptive / waved jobs: the engine owns the wave loop; stream
            # (and poll cancellation) through its on_wave hook.
            def on_wave(snapshot):
                if should_cancel():
                    raise JobCancelled(result_key)
                waves[0] += 1
                publish(snapshot)

            result = campaign.run(
                trials=options.trials, keep_faults=options.keep_faults,
                incremental=options.incremental, workers=options.workers,
                batch_trials=options.batch_trials,
                equivalence=options.equivalence, max_ulps=options.max_ulps,
                pool=self._pool_for(options),
                target_half_width=options.target_half_width,
                wave_trials=options.wave_trials, strata=options.strata,
                z=options.z, interval_method=options.interval_method,
                on_wave=on_wave)
        else:
            result = self._run_fixed_waved(campaign, options, publish,
                                           should_cancel, waves)

        publish(result)
        golden_stored = self._bank_golden(spec_key, campaign)
        return JobOutcome(result=result, golden_seeded=golden_seeded,
                          golden_stored=golden_stored,
                          waves_streamed=waves[0])

    def _run_fixed_waved(self, campaign: FaultInjectionCampaign, options,
                         publish, should_cancel, waves) -> CampaignResult:
        """Fixed-budget job: pre-sample once, dispatch wave-by-wave.

        Each wave is one ``run(plans=chunk, trial_offset=done)`` call —
        the same validated dispatch a direct run uses — and the
        order-insensitive :meth:`CampaignResult.merge` of the partials is
        bit-identical (counts and fault records) to the single dispatch,
        because every trial's RNG stream is keyed by its global index.
        """
        plans = campaign.generate_plans(options.trials)
        run_kwargs = dict(keep_faults=options.keep_faults,
                          incremental=options.incremental,
                          workers=options.workers,
                          batch_trials=options.batch_trials,
                          equivalence=options.equivalence,
                          max_ulps=options.max_ulps,
                          pool=self._pool_for(options),
                          interval_method=options.interval_method)
        if options.batch_trials > 1:
            # ULP-tolerant path: one dispatch keeps the packing global and
            # the result bit-aligned with a direct batched run.
            waves[0] += 1
            return campaign.run(plans=plans, **run_kwargs)
        wave = max(1, math.ceil(len(plans) / DEFAULT_WAVE_COUNT))
        partials = []
        done = 0
        while done < len(plans):
            if should_cancel():
                raise JobCancelled("cancelled between waves")
            chunk = plans[done:done + wave]
            partials.append(campaign.run(plans=chunk, trial_offset=done,
                                         **run_kwargs))
            done += len(chunk)
            waves[0] += 1
            merged = CampaignResult.merge(partials)
            merged.interval_method = options.interval_method
            if done < len(plans):  # final snapshot published by the caller
                publish(merged)
        return merged

    # -- golden caches ------------------------------------------------------

    def _seed_golden(self, spec_key: str,
                     campaign: FaultInjectionCampaign) -> bool:
        if self.store is None:
            return False
        caches = self.store.get("golden", spec_key)
        if caches is None:
            return False
        if hasattr(caches, "materialize"):
            # Plane-backed handle (see SharedGoldenCaches): the mapping
            # rebuilds around read-only zero-copy views of the shared
            # segments — no unpickle, no private copy.
            caches = caches.materialize()
        # Same seeding path CampaignSpec.build uses for shipped caches:
        # the caches are a pure function of the spec, so reuse only skips
        # recomputing them.
        campaign._golden_caches.update(
            {index: dict(cache) for index, cache in caches.items()})
        return True

    def _bank_golden(self, spec_key: str,
                     campaign: FaultInjectionCampaign) -> bool:
        if self.store is None:
            return False
        caches = campaign._golden_caches
        if not caches:  # pooled/worker runs build caches worker-side
            return False
        if self.store.contains("golden", spec_key):
            return False
        return self.store.put_golden_caches(
            spec_key,
            {index: dict(cache) for index, cache in caches.items()})

    # -- helpers ------------------------------------------------------------

    def _pool_for(self, options) -> Optional[CampaignPool]:
        if not options.use_pool:
            return None
        if self.pool is None:
            raise RuntimeError(
                "request has use_pool=True but the scheduler owns no "
                "CampaignPool; start the server with workers > 1 or submit "
                "with use_pool=False")
        return self.pool

    @staticmethod
    def _engine_waved(options) -> bool:
        """Whether the campaign engine itself runs this job in waves."""
        return (options.target_half_width is not None
                or options.strata is not None
                or options.wave_trials is not None)
