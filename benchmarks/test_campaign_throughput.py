"""Benchmark: fault-injection campaign throughput, incremental and parallel.

Measures trials/sec of the incremental execution engine (golden activation
cache + partial re-execution of the fault cone) against the legacy
full-re-execution flag, for paired (unprotected + Ranger) campaigns on the
deep models, under the paper's 32-bit and 16-bit fixed-point configurations —
plus the union-cone batched replay (`run(batch_trials=B)`, ULP_TOLERANT,
cross-site packing with occupancy/overhead accounting) against the
incremental reference on a longer plan list — the persistent `CampaignPool`
against fresh per-campaign worker pools, and the multiprocess fan-out's
scaling over worker counts.

The trials-to-target-CI section measures the statistical axis instead of
the mechanical one: how many trials sequential early stopping
(`run(target_half_width=...)`) and stratified allocation (`strata=...`)
consume to reach a ±5% confidence half-width, against the worst-case
fixed budget N(τ) = ⌈z²/4τ²⌉ = 385 that a non-adaptive campaign must
run.  Those trial counts are exact functions of the campaign seed, so
their guards are noise-free.

The regression guards pin the speedups that the engine's design delivers:
feed-forward deep models mask faults aggressively (ReLU / pooling / Ranger
clipping / fixed-point quantization squash the corrupted value, ending the
replay early), so SqueezeNet's paired campaigns run several times faster
incrementally; ResNet's skip connections propagate every surviving fault to
the output, which bounds its gain near the cone-size ratio (~2x).

The fan-out guards are CPU-gated: parallel speedup is a property of the host
(a 4-worker campaign cannot beat serial on a single-core container), so the
>=2x scaling bar is enforced only where >=4 CPUs are actually available;
smaller machines instead enforce that fan-out overhead stays bounded.  The
scaling experiment itself asserts bit-identical per-criterion counts across
all worker counts on every run, so the determinism guarantee is re-checked
wherever the benchmark executes.
"""

import os
import time

from repro.analysis import render_table
from repro.experiments import (
    ExperimentScale,
    run_adaptive_efficiency,
    run_campaign_throughput,
    run_parallel_scaling,
)
from repro.experiments.common import ExperimentResult, get_prepared
from repro.injection import CampaignPool, FaultInjectionCampaign, SingleBitFlip
from repro.quantization import FIXED32, fixed32_policy

from bench_utils import guard_minimum, run_and_report, worker_peak_rss_bytes

#: Dedicated scale: enough trials for stable timing ratios; models are
#: trained with the same configuration (and in-process cache) as the other
#: benchmarks.
THROUGHPUT_SCALE = ExperimentScale(
    trials=240,
    num_inputs=5,
    classifier_models=(),
    # vgg11 rides along for the batched-replay section only (its full-width
    # convolutions are the best BLAS-batching case in the zoo).
    large_classifier_models=("resnet18", "squeezenet", "vgg11"),
    steering_models=(),
    include_large_models=True,
    profile_samples=80,
    seed=0,
)


def test_campaign_throughput(benchmark):
    result = run_and_report(benchmark, run_campaign_throughput,
                            THROUGHPUT_SCALE)
    for model_name, by_dtype in result.data.items():
        if model_name == "pool":
            continue  # the pool section's flat stats (guarded below)
        for dtype_name, entry in by_dtype.items():
            for variant in ("unprotected", "protected"):
                if variant not in entry:
                    continue  # batched-section-only models (vgg11)
                # Partial re-execution must never be slower than full
                # re-execution by more than timing noise.
                guard_minimum(result,
                              f"{model_name}/{dtype_name}/{variant} speedup",
                              entry[variant]["speedup"], 1.2)
    # The headline targets: the deepest feed-forward model's paired
    # campaigns exceed 3x under the paper's 16-bit configuration, and the
    # 32-bit paired campaign stays comfortably above 2x.
    squeezenet = result.data["squeezenet"]
    guard_minimum(result, "squeezenet/fixed16 protected speedup",
                  squeezenet["fixed16"]["protected"]["speedup"], 3.0)
    guard_minimum(result, "squeezenet/fixed16 paired speedup",
                  squeezenet["fixed16"]["paired_speedup"], 2.5)
    guard_minimum(result, "squeezenet/fixed32 paired speedup",
                  squeezenet["fixed32"]["paired_speedup"], 2.0)
    resnet = result.data["resnet18"]
    guard_minimum(result, "resnet18/fixed32 paired speedup",
                  resnet["fixed32"]["paired_speedup"], 1.5)
    # Union-cone batched replay: never slower than incremental on any
    # measured configuration; VGG-11's full-width feed-forward convolutions
    # batch best (measured ~3.3-3.9x); squeezenet and resnet18 follow.
    # Guards sit 15-20% below the single-CPU container's measured minima.
    batched = {
        (model_name, dtype_name): entry["batched"]
        for model_name, by_dtype in result.data.items()
        if model_name != "pool"
        for dtype_name, entry in by_dtype.items()
        if "batched" in entry
    }
    for (model_name, dtype_name), stats in batched.items():
        guard_minimum(result,
                      f"{model_name}/{dtype_name} batched-vs-incremental "
                      f"speedup", stats["speedup"], 1.0)
    guard_minimum(result, "best batched-vs-incremental speedup",
                  max(stats["speedup"] for stats in batched.values()), 1.5)
    guard_minimum(result, "vgg11 batched-vs-incremental speedup (best dtype)",
                  max(stats["speedup"]
                      for (model, _), stats in batched.items()
                      if model == "vgg11"), 2.2)
    guard_minimum(result,
                  "squeezenet batched-vs-incremental speedup (best dtype)",
                  max(stats["speedup"]
                      for (model, _), stats in batched.items()
                      if model == "squeezenet"), 1.9)
    guard_minimum(result,
                  "resnet18 batched-vs-incremental speedup (best dtype)",
                  max(stats["speedup"]
                      for (model, _), stats in batched.items()
                      if model == "resnet18"), 1.6)
    # Occupancy: the union-cone packer must fill batches well past the
    # identical-site ceiling (~10 rows at this trial count).  Packing is
    # deterministic, so these guards carry no timing noise.
    for model_name in ("squeezenet", "resnet18"):
        for dtype_name in result.data[model_name]:
            stats = batched[(model_name, dtype_name)]
            guard_minimum(result,
                          f"{model_name}/{dtype_name} mean batch occupancy "
                          f"(B=32)", stats["mean_occupancy"], 24.0)
            guard_minimum(result,
                          f"{model_name}/{dtype_name} batched trial "
                          f"fraction", stats["batched_fraction"], 0.95)
    # Packing stays a rounding error of campaign wall time (<= 2% overall).
    total_pack = sum(stats["pack_seconds"] for stats in batched.values())
    total_batched = sum(stats["batched_seconds"] for stats in batched.values())
    guard_minimum(result, "packing-cost budget headroom (2% of wall time)",
                  0.02 * total_batched / total_pack, 1.0)
    # Persistent pool: back-to-back same-config campaigns must beat fresh
    # per-campaign pools (spawn + worker rebuild amortized away), and the
    # experiment asserts bit-identical counts on every run.  Like the
    # fan-out scaling guard below, the bar is CPU-gated: with two workers
    # oversubscribing a single core, fresh-vs-pooled timing is dominated by
    # scheduler noise (measured 0.75-1.36x across runs on the 1-CPU
    # container), so single-core hosts only bound the overhead.
    if (os.cpu_count() or 1) >= 2:
        guard_minimum(result, "CampaignPool reuse speedup over fresh fan-out",
                      result.data["pool"]["speedup"], 1.05)
    else:
        guard_minimum(result,
                      "CampaignPool reuse overhead bound (single cpu)",
                      result.data["pool"]["speedup"], 0.5)


#: Dedicated scale for the shm-dispatch section.  Per-task dispatch payload
#: bytes are a deterministic function of the campaign spec — not of wall
#: clock — so the campaign itself stays short; vgg11 is the zoo's heaviest
#: spec (largest weight arrays), the worst case legacy dispatch pickles
#: into every worker task.
SHM_DISPATCH_SCALE = ExperimentScale(
    trials=64,
    num_inputs=4,
    classifier_models=(),
    large_classifier_models=("vgg11",),
    steering_models=(),
    include_large_models=True,
    profile_samples=80,
    seed=0,
)

SHM_DISPATCH_WORKERS = 2
#: Back-to-back campaigns per dispatch backend (the second run exercises
#: the worker-side campaign-cache hit path, where shm dispatch skips the
#: spec decode entirely).
SHM_DISPATCH_REPEATS = 2


def run_shm_dispatch(scale):
    """Worker dispatch economics of the shared-memory cache plane.

    Runs the same vgg11 campaign through two fresh persistent pools — one
    forced onto the legacy pickle-everything dispatch (``use_shm=False``),
    one on the shared-memory cache plane (the default) — and reports the
    per-task dispatch payload bytes plus the peak worker RSS of each
    phase.  Each phase owns fresh worker processes because ``VmHWM`` is a
    per-process high-water mark and cannot be reset.  Per-criterion SDC
    counts must be identical across the two backends (the plane's
    bit-identity guarantee), asserted on every run.
    """
    prepared = get_prepared("vgg11", scale)
    inputs, _ = prepared.correctly_predicted_inputs(scale.num_inputs,
                                                    seed=scale.seed)

    def fresh_campaign() -> FaultInjectionCampaign:
        return FaultInjectionCampaign(
            prepared.model, inputs, fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), seed=scale.seed)

    plans = fresh_campaign().generate_plans(scale.trials)
    reference = None
    phases = {}
    for backend, use_shm in (("pickle", False), ("shm", None)):
        pool = CampaignPool(workers=SHM_DISPATCH_WORKERS, use_shm=use_shm)
        try:
            start = time.perf_counter()
            for _ in range(SHM_DISPATCH_REPEATS):
                result = fresh_campaign().run(plans=plans, pool=pool)
                if reference is None:
                    reference = result
                elif result.sdc_counts != reference.sdc_counts:
                    raise RuntimeError(
                        f"shm dispatch diverged from the pickle reference: "
                        f"{result.sdc_counts} != {reference.sdc_counts}")
            seconds = time.perf_counter() - start
            stats = pool.stats()
            # Worker pids are only reachable while the pool is open.
            rss = worker_peak_rss_bytes(pool)
        finally:
            pool.close()
        phases[backend] = dict(
            stats,
            seconds=seconds,
            payload_per_task=stats["payload_bytes"] / max(stats["tasks"], 1),
            peak_worker_rss=max(rss.values(), default=0),
        )

    payload_reduction = 1.0 - (phases["shm"]["payload_per_task"]
                               / phases["pickle"]["payload_per_task"])
    rss_ratio = (phases["pickle"]["peak_worker_rss"]
                 / phases["shm"]["peak_worker_rss"]
                 if phases["shm"]["peak_worker_rss"] else None)
    rows = [[backend, entry["tasks"], entry["shm_tasks"],
             entry["payload_per_task"], entry["hits"], entry["remaps"],
             entry["peak_worker_rss"] / 2 ** 20]
            for backend, entry in phases.items()]
    rendered = render_table(
        ["backend", "tasks", "shm tasks", "payload bytes/task",
         "worker-cache hits", "remaps", "peak worker RSS MiB"],
        rows,
        title=(f"Campaign dispatch — shared-memory cache plane vs. pickled "
               f"specs (vgg11, {scale.trials} trials, "
               f"{SHM_DISPATCH_WORKERS} workers, "
               f"{SHM_DISPATCH_REPEATS} campaigns/backend; payload "
               f"reduction {100.0 * payload_reduction:.1f}%)"))
    return ExperimentResult(
        name="shm_dispatch",
        paper_reference="Sec. IV campaign methodology",
        data={"phases": phases, "payload_reduction": payload_reduction,
              "rss_ratio": rss_ratio, "workers": SHM_DISPATCH_WORKERS},
        rendered=rendered)


def test_shm_dispatch_payload(benchmark):
    """Dispatch payload and worker RSS, legacy pickled specs vs. the plane.

    The payload guard is deterministic (payload bytes are a pure function
    of the spec and the plane's externalization rules — no timing in the
    ratio), so it carries no noise margin and holds on any host.  The RSS
    guard is a no-regression bound: with ``fork`` workers, copy-on-write
    already shares the parent's pages, so the plane's RSS win on a warm
    pool is modest — the guard catches the plane *costing* memory.
    """
    result = run_and_report(benchmark, run_shm_dispatch, SHM_DISPATCH_SCALE)
    phases = result.data["phases"]
    # Every task of the shm phase must actually travel via the plane, and
    # the legacy phase must never touch it (it is the before-measurement).
    assert phases["shm"]["shm_tasks"] == phases["shm"]["tasks"] > 0
    assert phases["pickle"]["shm_tasks"] == 0
    # The second campaign of the shm phase must be served from the
    # worker-side campaign cache without re-decoding the spec.
    guard_minimum(result, "shm worker-cache hits",
                  phases["shm"]["hits"], SHM_DISPATCH_WORKERS)
    # Headline: >=90% fewer dispatch payload bytes per worker task on the
    # vgg11-scale campaign (weights + inputs ride in shared segments; only
    # the graph skeleton and the segment manifest still travel).
    guard_minimum(result, "per-task dispatch payload reduction via shm",
                  result.data["payload_reduction"], 0.90)
    if result.data["rss_ratio"] is not None:
        guard_minimum(result, "peak worker RSS ratio (pickle/shm)",
                      result.data["rss_ratio"], 0.8)


#: Dedicated scale for the fan-out scaling sweep: one deep model, enough
#: trials that per-worker fixed costs (model unpickle + golden-cache build)
#: amortize away.
PARALLEL_SCALE = ExperimentScale(
    trials=320,
    num_inputs=4,
    classifier_models=(),
    large_classifier_models=("squeezenet",),
    steering_models=(),
    include_large_models=True,
    profile_samples=80,
    seed=0,
)


def test_parallel_scaling(benchmark):
    result = run_and_report(benchmark, run_parallel_scaling, PARALLEL_SCALE)
    cpus = result.data["cpus"]
    entry = result.data["squeezenet"]
    scaling = entry[4]["trials_per_sec"] / entry[1]["trials_per_sec"]
    if cpus >= 4:
        guard_minimum(result, "squeezenet workers=4 vs workers=1 scaling",
                      scaling, 2.0)
    elif cpus >= 2:
        # Two or three cores cannot reach the 4-way bar, and 4 workers
        # oversubscribing them while each rebuilds its golden caches can
        # eat most of the win; require the fan-out to roughly break even.
        guard_minimum(result,
                      f"squeezenet workers=4 vs workers=1 scaling "
                      f"({cpus} cpus)", scaling, 0.8)
    else:
        # Single-core host: parallel speedup is physically impossible, so
        # bound the fan-out overhead instead (4 workers must stay within
        # 4x of serial even while each rebuilds its own golden caches).
        guard_minimum(result,
                      "squeezenet workers=4 vs workers=1 overhead bound "
                      "(single cpu)", scaling, 0.25)


def test_adaptive_trials_to_target_ci(benchmark):
    """Trials-to-target-CI: sequential stopping vs. the fixed worst-case budget.

    Unlike the wall-clock sections above, every number here is a
    deterministic function of the campaign seed — the stopping rule fires
    at the same wave on every host — so the guards carry no noise margin:
    a guard trip means the statistics changed, not the machine.
    """
    result = run_and_report(benchmark, run_adaptive_efficiency,
                            THROUGHPUT_SCALE)
    for model_name, variants in result.data["models"].items():
        for variant, entry in variants.items():
            # Early stopping can never spend more than the fixed budget,
            # and both runs must actually deliver the target half-width.
            guard_minimum(result,
                          f"{model_name}/{variant} adaptive-vs-fixed trial "
                          f"ratio", entry["speedup"], 1.0)
            guard_minimum(result,
                          f"{model_name}/{variant} stratified-vs-fixed trial "
                          f"ratio", entry["stratified_speedup"], 1.0)
        # The headline claim: on Ranger-protected models the observed SDC
        # rate is near zero, the Wilson interval collapses after a few
        # waves, and the adaptive campaign reaches the same +-5% target
        # with >=3x fewer trials than the worst-case fixed budget.
        guard_minimum(result,
                      f"{model_name}/ranger adaptive-vs-fixed trial ratio "
                      f"(headline)", variants["ranger"]["speedup"], 3.0)
        guard_minimum(result,
                      f"{model_name}/ranger stratified-vs-fixed trial ratio "
                      f"(headline)", variants["ranger"]["stratified_speedup"],
                      3.0)
    # Where plain stopping can't save much (resnet18 unprotected sits near
    # p = 0.32, close to the worst case the fixed budget was sized for),
    # Neyman allocation still concentrates trials into the high-variance
    # strata and roughly halves the spend (measured 2.01x vs 1.09x).
    guard_minimum(result,
                  "resnet18/unprotected stratified-vs-fixed trial ratio "
                  "(importance-sampling win)",
                  result.data["models"]["resnet18"]["unprotected"]
                  ["stratified_speedup"], 1.5)
