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
import pickle
import time

from repro.analysis import render_table
from repro.experiments import (
    ExperimentScale,
    run_adaptive_efficiency,
    run_campaign_throughput,
    run_parallel_scaling,
)
from repro.experiments.common import ExperimentResult, get_prepared
from repro.experiments.throughput_experiments import fanout_note
from repro.injection import (CampaignPool, FaultInjectionCampaign, RunOptions,
                             SingleBitFlip)
from repro.injection.pool import _run_pooled_shard
from repro.quantization import FIXED32, fixed32_policy

from bench_utils import (guard_maximum, guard_minimum, record_trend,
                         run_and_report, worker_peak_rss_bytes)

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


#: Ceilings of the batched section's work per trial, (node-row
#: evaluations, conv output positions computed), per (model, datatype).
BATCHED_WORK_CEILINGS = {
    ("squeezenet", "fixed32"): (25.6, 422.0),
    ("squeezenet", "fixed16"): (24.7, 455.0),
    ("resnet18", "fixed32"): (35.8, 387.0),
    ("resnet18", "fixed16"): (37.0, 399.0),
}


#: Ceilings of resnet18's batched pointwise share: the spatial positions
#: its pointwise operators evaluate inside the carried boxes, over all
#: positions of the rows they re-evaluate, per datatype.  Measured 0.12
#: under both datatypes; the ceilings leave 2x headroom.
POINTWISE_SHARE_CEILINGS = {"fixed32": 0.25, "fixed16": 0.25}


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
    # Squeezenet's and resnet18's best-dtype ratios are recorded, not
    # gated: they sat inside run-to-run noise (squeezenet >= 1.9 read
    # 1.99-2.48), and a faster bit-exact B=1 divisor lowers them while the
    # batched path stands still.  The work guards below catch the batched
    # regressions they were meant to catch.
    for model_name in ("squeezenet", "resnet18"):
        record_trend(result,
                     f"{model_name} batched-vs-incremental speedup "
                     f"(best dtype)",
                     max(stats["speedup"]
                         for (model, _), stats in batched.items()
                         if model == model_name))
    # Batched work per trial: node-row evaluations and conv output
    # positions computed.  Both are fixed by the plans and the replay's
    # masking decisions, not by the clock; ceilings sit 2% above the
    # values measured before the B=1 per-call work (squeezenet 25.07 /
    # 24.22 rows, 414 / 446 positions; resnet18 35.07 / 36.29 rows, 379 /
    # 391 positions, fixed32 / fixed16).  Turning conv windowing off, or
    # keeping rows dirty once they match golden, trips them.
    for (model_name, dtype_name), (rows, positions) in (
            BATCHED_WORK_CEILINGS.items()):
        stats = batched[(model_name, dtype_name)]
        guard_maximum(result,
                      f"{model_name}/{dtype_name} batched rows evaluated "
                      f"per trial", stats["rows_per_trial"], rows)
        guard_maximum(result,
                      f"{model_name}/{dtype_name} batched conv positions "
                      f"per trial", stats["conv_positions_per_trial"],
                      positions)
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
    # Windowed conv replay: faults reach a small share of the output
    # positions of the convs resnet18 re-evaluates, so at most half of
    # them may be computed (measured 0.24, 1x1 kernels and wide windows
    # included).  The share is a deterministic function of the plans,
    # free of timing noise.
    for dtype_name in result.data["resnet18"]:
        guard_maximum(result, f"resnet18/{dtype_name} conv window share",
                      batched[("resnet18", dtype_name)]["conv_window_fraction"],
                      0.5)
    # Carried boxes: resnet18's pointwise operators (BatchNorm, ReLU, Add,
    # the Ranger clip) and their quantization evaluate only the positions
    # a fault reached.  The share is deterministic, like the window
    # share; whole-row pointwise evaluation reads 1.0 and trips it.
    for dtype_name, ceiling in POINTWISE_SHARE_CEILINGS.items():
        guard_maximum(result, f"resnet18/{dtype_name} pointwise box share",
                      batched[("resnet18", dtype_name)]
                      ["pointwise_box_fraction"], ceiling)
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


#: Dedicated scale for the dispatch-payload section.  Payload bytes and
#: worker-cache hits are deterministic functions of the campaign spec and
#: the plan shards — not of wall clock — so the campaign itself stays
#: short; vgg11 is the zoo's heaviest spec (largest weight arrays), the
#: worst case for a resend.
DISPATCH_SCALE = ExperimentScale(
    trials=64,
    num_inputs=4,
    classifier_models=(),
    large_classifier_models=("vgg11",),
    steering_models=(),
    include_large_models=True,
    profile_samples=80,
    seed=0,
)

DISPATCH_WORKERS = 2
#: Back-to-back campaigns on one pool: the first fills the worker caches
#: through resends, the second must travel without its spec.
DISPATCH_CAMPAIGNS = 2
#: Ceiling on one pickled hit task (fingerprint + plan payload).
HIT_TASK_MAX_BYTES = 16 * 2 ** 10
#: Ceiling on a resent spec's pickle over the bytes of the model's
#: parameters plus the campaign inputs (vgg11 read 2.0 while specs
#: carried gradients).
SPEC_MAX_OVERHEAD = 1.1


def run_dispatch_payload(scale):
    """Worker dispatch economics of spec-on-miss dispatch.

    Runs the same vgg11 campaign back-to-back on one fresh persistent
    pool and reports, per campaign, the first-send tasks, worker-cache
    hits, bounced tasks and resent spec bytes, next to the pickled size
    of one hit task and of the spec a miss resends.  Per-criterion SDC
    counts must equal the serial run's on every campaign, asserted on
    every run.
    """
    prepared = get_prepared("vgg11", scale)
    inputs, _ = prepared.correctly_predicted_inputs(scale.num_inputs,
                                                    seed=scale.seed)

    def fresh_campaign() -> FaultInjectionCampaign:
        return FaultInjectionCampaign(
            prepared.model, inputs, fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), seed=scale.seed)

    serial = fresh_campaign()
    plans = serial.generate_plans(scale.trials)
    reference = serial.run(plans=plans)
    campaigns = []
    with CampaignPool(workers=DISPATCH_WORKERS) as pool:
        for _ in range(DISPATCH_CAMPAIGNS):
            before = pool.stats()
            start = time.perf_counter()
            campaign = fresh_campaign()
            result = campaign.run(plans=plans, pool=pool)
            seconds = time.perf_counter() - start
            if result.sdc_counts != reference.sdc_counts:
                raise RuntimeError(
                    f"pooled dispatch diverged from the serial reference: "
                    f"{result.sdc_counts} != {reference.sdc_counts}")
            after = pool.stats()
            campaigns.append(dict(
                {key: after[key] - before[key] for key in after},
                seconds=seconds))
        hit_task = max(len(pickle.dumps((_run_pooled_shard, task),
                                        protocol=pickle.HIGHEST_PROTOCOL))
                       for task in pool._shard_tasks(
                           campaign, plans, RunOptions(trials=len(plans))))
        rss = worker_peak_rss_bytes(pool)
        blas_threads = pool.worker_blas_threads()
    spec_bytes = len(pickle.dumps(campaign.spec(),
                                  protocol=pickle.HIGHEST_PROTOCOL))
    parameter_bytes = sum(variable.value.nbytes
                          for variable in prepared.model.graph.variables())
    rows = [[index + 1, entry["tasks"], entry["hits"], entry["misses"],
             entry["payload_bytes"], entry["seconds"]]
            for index, entry in enumerate(campaigns)]
    rendered = render_table(
        ["campaign", "tasks", "worker-cache hits", "resends",
         "spec bytes resent", "seconds"],
        rows,
        title=(f"Campaign dispatch — spec on miss (vgg11, {scale.trials} "
               f"trials, {DISPATCH_WORKERS} workers; hit task "
               f"{hit_task} B, resent spec {spec_bytes} B for "
               f"{parameter_bytes + inputs.nbytes} B of parameters and "
               f"inputs; peak worker RSS "
               f"{max(rss.values(), default=0) / 2 ** 20:.1f} MiB; "
               f"{fanout_note(blas_threads)})"))
    return ExperimentResult(
        name="dispatch_payload",
        paper_reference="Sec. IV campaign methodology",
        data={"campaigns": campaigns, "hit_task_bytes": hit_task,
              "spec_bytes": spec_bytes, "parameter_bytes": parameter_bytes,
              "input_bytes": int(inputs.nbytes),
              "workers": DISPATCH_WORKERS},
        rendered=rendered)


def test_dispatch_payload(benchmark):
    """Spec-on-miss dispatch: warm tasks travel without the spec.

    Every guard is deterministic (task payloads are a pure function of
    the spec and the plan shards, hit counts of the worker caches), so
    none carries a noise margin.
    """
    result = run_and_report(benchmark, run_dispatch_payload, DISPATCH_SCALE)
    first, second = result.data["campaigns"]
    # Every resend carries exactly one pickled spec.
    for entry in (first, second):
        assert entry["hits"] + entry["misses"] == entry["tasks"] > 0
        assert (entry["payload_bytes"]
                == entry["misses"] * result.data["spec_bytes"])
    # The second campaign is served from the worker-side campaign caches.
    guard_minimum(result, "worker-cache hits on the second campaign",
                  second["hits"], DISPATCH_WORKERS)
    # A hit task carries the fingerprint and its plans, never the spec.
    guard_maximum(result, "pickled hit-task payload KiB",
                  result.data["hit_task_bytes"] / 2 ** 10,
                  HIT_TASK_MAX_BYTES / 2 ** 10)
    # A resent spec carries the weights and the inputs, not training
    # scratch (gradients, BatchNorm's x_hat cache), which doubled it.
    guard_maximum(result, "resent spec over parameter and input bytes",
                  result.data["spec_bytes"]
                  / (result.data["parameter_bytes"]
                     + result.data["input_bytes"]),
                  SPEC_MAX_OVERHEAD)


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
    # Deterministic on every host: sharding replays exactly the serial
    # run's node evaluations (a worker falling back to full re-execution,
    # or replaying a trial twice, changes the count).
    for workers, stats in entry.items():
        assert stats["nodes_recomputed"] == entry[1]["nodes_recomputed"] > 0, (
            f"workers={workers} replayed {stats['nodes_recomputed']} node "
            f"evaluations, serial {entry[1]['nodes_recomputed']}")


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
