"""Wave-by-wave job execution for the campaign server.

One :class:`WaveScheduler` turns an admitted
:class:`~repro.service.serialization.CampaignRequest` into its final
result through the campaign engine's one driver,
:func:`~repro.injection.campaign.run_group`, with the request's own
:class:`~repro.injection.RunOptions` — so serial, batched, multiprocess,
pooled, adaptive and paired jobs all execute exactly as a direct call
would.  Along the way it

* serves repeat submissions straight from the artifact store's result
  cache (checked *before* any campaign is built),
* seeds a freshly built single campaign with stored golden activation
  caches and banks the caches back after the run,
* streams the merged-so-far :class:`~repro.injection.CampaignResult` (a
  ``(unprotected, protected)`` pair for compare jobs) to the job's
  subscribers after each wave, through the driver's ``on_wave`` hook, and
* polls a cancellation flag at every wave boundary, so a cancel lands
  there instead of orphaning worker processes mid-shard.

Adaptive and waved jobs stream the driver's own waves.  Fixed-budget
single campaigns on the bit-exact ``batch_trials=1`` path are cut into
:data:`DEFAULT_WAVE_COUNT` waves; results depend only on ``(seed, trial
index)``, never on how trials are cut, so those waves are invisible in
the output.  Fixed compare jobs run as one wave (one dispatch round per
arm, as a direct :func:`~repro.injection.compare_protection` makes), and
so do batched (ULP-tolerant) fixed jobs, so the packer sees the full plan
list and stays bit-aligned with a direct batched run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..injection.campaign import FaultInjectionCampaign, run_group
from ..injection.pool import CampaignPool
from .serialization import CampaignRequest, result_fingerprint
from .store import ArtifactStore

#: Waves a fixed-budget ``batch_trials=1`` job is cut into (streaming and
#: cancellation granularity; the count/fault content is wave-invariant).
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
        jobs with ``use_pool=True`` are fanned out on (borrowed: never
        closed here).
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
        terminal snapshot).  ``should_cancel`` is polled before the job
        starts and after every wave that leaves budget unspent; returning
        True raises :class:`JobCancelled`.
        """
        publish = publish or (lambda snapshot: None)
        should_cancel = should_cancel or (lambda: False)
        # Fingerprint each arm once, at admission state (before a build or
        # a run touches the spec's objects).  Every key below derives from
        # these, and each built campaign is handed its own, so no spec is
        # pickled and hashed again.
        arm_keys = request.arm_keys()
        result_key = result_fingerprint(request, arm_keys)
        spec_key = arm_keys[0]

        if self.store is not None:
            cached = self.store.get("result", result_key)
            if cached is not None:
                publish(cached)
                return JobOutcome(result=cached, from_cache=True)
        if should_cancel():
            raise JobCancelled(result_key)

        options = request.options
        campaigns = [spec.build(fingerprint=key) for spec, key
                     in zip(request.arm_specs(), arm_keys)]
        # Golden caches are reused for single campaigns only: a sweep's
        # compare jobs mostly differ in their protected arm, so banking
        # every arm would grow the in-memory store by a cache set per cell.
        single = request.kind == "campaign"
        golden_seeded = single and self._seed_golden(spec_key, campaigns[0])
        waves = [0]

        def on_wave(snapshots):
            # The last snapshot holds the final result objects, so every
            # subscriber sees the terminal snapshot; a cancel that arrives
            # during the last wave keeps the finished result.
            waves[0] += 1
            publish(snapshots[0] if single else tuple(snapshots))
            spent = max(snapshot.trials for snapshot in snapshots)
            if spent < options.trials and should_cancel():
                raise JobCancelled(result_key)

        results = run_group(
            campaigns, options, pool=self._pool_for(options),
            on_wave=on_wave,
            fixed_waves=(DEFAULT_WAVE_COUNT
                         if single and options.batch_trials == 1 else 1))
        result = results[0] if single else tuple(results)
        golden_stored = single and self._bank_golden(spec_key, campaigns[0])
        if self.store is not None:
            self.store.put("result", result_key, result)
        return JobOutcome(result=result, golden_seeded=golden_seeded,
                          golden_stored=golden_stored,
                          waves_streamed=waves[0])

    # -- golden caches ------------------------------------------------------

    def _seed_golden(self, spec_key: str,
                     campaign: FaultInjectionCampaign) -> bool:
        if self.store is None:
            return False
        caches = self.store.get("golden", spec_key)
        if caches is None:
            return False
        # The caches are a pure function of the spec, so reuse only skips
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
                "request has use_pool=True but the scheduler has no "
                "CampaignPool; start the server with pool=CampaignPool(...) "
                "or submit with use_pool=False")
        return self.pool
