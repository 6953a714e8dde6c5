"""End-to-end service smoke check (``python -m repro.service.smoke``).

Boots an in-process :class:`~repro.service.server.CampaignServer` on a
borrowed 2-worker :class:`~repro.injection.pool.CampaignPool`, submits
``request_from_campaign(...)`` requests and reads each :class:`Job`, and
asserts the service's load-bearing guarantees:

1. **Bit-identity** — the service's result matches a direct
   ``FaultInjectionCampaign.run()`` exactly (SDC counts and every fault
   record), and the streamed per-wave snapshots end in that same result.
2. **Artifact reuse** — the exact repeat is served from the result cache
   (observable hit counter, zero trials run) and the overlapping spec
   (same campaign, larger budget) reuses the stored golden caches.
3. **Pooled compare** — a paired compare job fanned out on the borrowed
   pool (``workers=2, use_pool=True``, the shape experiment sweeps
   submit) matches direct serial runs of both arms.

CI runs this as its service smoke job under both multiprocessing start
methods (``REPRO_START_METHOD``); it is deliberately tiny (untrained
LeNet, dozens of trials) so it finishes in seconds.
"""

from __future__ import annotations

import sys

from ..core import Ranger
from ..injection import CampaignPool, FaultInjectionCampaign
from ..models import prepare_model
from .serialization import request_from_campaign
from .server import CampaignServer

TRIALS = 24
OVERLAP_TRIALS = 48
TIMEOUT = 300.0


def main() -> int:
    prepared = prepare_model("lenet", train=False, seed=1)
    inputs, _ = prepared.dataset.sample_train(4, seed=0)
    model = prepared.model
    protected, _ = Ranger(seed=0).protect(model, profile_inputs=inputs)

    failures = []

    def check(condition: bool, label: str) -> None:
        print(f"  {'ok' if condition else 'FAIL'}: {label}")
        if not condition:
            failures.append(label)

    def direct(arm):
        return FaultInjectionCampaign(arm, inputs, seed=0).run(
            trials=TRIALS, keep_faults=True)

    reference = direct(model)
    with CampaignPool(workers=2) as pool, \
            CampaignServer(pool=pool) as server:
        print("service vs direct run (bit-identity):")
        job = server.submit(request_from_campaign(
            model, inputs, seed=0, trials=TRIALS, keep_faults=True))
        snapshots = list(job.iter_snapshots(timeout=TIMEOUT))
        served = snapshots[-1]
        check(served.sdc_counts == reference.sdc_counts, "sdc counts match")
        check(served.faults == reference.faults, "fault records match")
        check(len(snapshots) > 1, "per-wave snapshots streamed")
        check(all(earlier.trials <= later.trials for earlier, later
                  in zip(snapshots, snapshots[1:])),
              "snapshots are cumulative")

        print("exact repeat (result cache):")
        repeat = server.submit(request_from_campaign(
            model, inputs, seed=0, trials=TRIALS, keep_faults=True))
        repeat_result = repeat.result(timeout=TIMEOUT)
        check(repeat.describe().get("from_cache") is True,
              "repeat served from result cache")
        check(repeat_result.sdc_counts == reference.sdc_counts
              and repeat_result.faults == reference.faults,
              "cached result bit-identical")

        print("overlapping spec (golden cache):")
        overlap = server.submit(request_from_campaign(
            model, inputs, seed=0, trials=OVERLAP_TRIALS))
        overlap.result(timeout=TIMEOUT)
        check(overlap.describe().get("golden_seeded") is True,
              "overlapping job seeded from stored golden caches")

        print("compare job on the borrowed pool:")
        compare = server.submit(request_from_campaign(
            model, inputs, seed=0, trials=TRIALS, keep_faults=True,
            protected_model=protected, workers=2, use_pool=True))
        pair = compare.result(timeout=TIMEOUT)
        for label, arm, result in zip(("unprotected", "protected"),
                                      (reference, direct(protected)), pair):
            check(result.sdc_counts == arm.sdc_counts
                  and result.faults == arm.faults,
                  f"{label} arm matches a direct serial run")
        check(pool.stats()["tasks"] >= 2, "compare job ran on the pool")

        stats = server.stats()
        result_stats = stats["store"].get("result", {})
        golden_stats = stats["store"].get("golden", {})
        check(result_stats.get("hits", 0) >= 1, "result-cache hit recorded")
        check(golden_stats.get("hits", 0) >= 1, "golden-cache hit recorded")
        print(f"store stats: {stats['store']}")
        print(f"pool stats: {pool.stats()}")

    if failures:
        print(f"smoke FAILED ({len(failures)} checks): {failures}")
        return 1
    print("smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
