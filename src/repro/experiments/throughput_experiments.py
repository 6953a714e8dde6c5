"""Campaign-throughput experiments: incremental execution and worker fan-out.

The paper's headline results are all driven by fault-injection campaigns of
thousands of trials.  Two engine features accelerate those campaigns, and
each has its own experiment here:

* **Incremental execution** (``run_campaign_throughput``) — golden activation
  cache + partial re-execution of the fault's downstream cone (see
  ``Executor.run_from``) replays each trial bit-identically to a full faulty
  run while re-evaluating only the nodes the fault can actually reach.  The
  speedup is strongly model- and datatype-dependent, because partial
  re-execution wins exactly where faults get *masked* (a corrupted value
  squashed by a ReLU, a max-pool, a Ranger clip, or fixed-point quantization
  kills the cone early): SqueezeNet-style feed-forward chains mask
  aggressively (up to ~8x under fixed16), while ResNet's skip connections
  carry every surviving fault to the output (~2x).

* **Batched multi-trial replay** (the ``batched`` section of
  ``run_campaign_throughput``) — trials that share an *input* are stacked
  along the batch dimension and replayed in one executor call
  (``run(batch_trials=B)``), so every re-evaluated node costs one BLAS
  call over its dirty rows instead of one call per trial.  Since the
  union-cone packer (``pack_batches``), trials no longer need to share a
  fault site: each row enters the replay at its own site and batches fill
  to (near) the full width B, which is why the table reports the *batch
  occupancy* (mean rows per batched call), the fraction of trials batched,
  the union-cone overhead (extra cone nodes the union walks beyond the
  largest member) and the packing cost as a fraction of campaign wall
  time.  Batched results carry the ``ULP_TOLERANT`` equivalence mode (BLAS
  kernels are not bit-stable across batch shapes); the experiment asserts
  per-criterion SDC-count agreement with the bit-exact incremental
  reference on every run, so verdict-set equivalence is re-checked
  wherever the benchmark executes.

* **Persistent campaign pool** (the ``pool`` section) — experiment sweeps
  run campaigns back-to-back, and a fresh ``run(workers=N)`` pays the
  process-pool spawn plus per-worker campaign rebuild every time.
  ``CampaignPool`` keeps workers (and their models + golden caches) alive
  across campaigns; the experiment times repeated same-config campaigns
  under both backends and asserts the pooled counts stay bit-identical to
  the fresh ones.

* **Multiprocess fan-out** (``run_parallel_scaling``) — once the
  ``(input, plan)`` pairs are pre-sampled, trials are embarrassingly
  parallel: ``FaultInjectionCampaign.run(workers=N)`` shards them across N
  worker processes that each rebuild model, executor and golden caches from
  a picklable campaign spec.  Per-trial RNG streams derived from the
  campaign seed make the sharded results bit-identical to the serial path
  for every worker count (this experiment asserts exactly that while it
  times the configurations), so scaling is purely a wall-clock knob.  The
  measured speedup is bounded by the machine's cores and by the per-worker
  fixed cost of rebuilding the golden caches.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis import render_table
from ..injection import CampaignPool, FaultInjectionCampaign, SingleBitFlip
from ..quantization import FIXED16, FIXED32, fixed16_policy, fixed32_policy
from .common import (
    ExperimentResult,
    ExperimentScale,
    get_prepared,
    protect_with_ranger,
)

#: Models the throughput benchmark targets, in preference order (the deep
#: models of the zoo).  Models absent from the scale's classifier list are
#: skipped, falling back to the first available classifier so the smoke
#: configuration still exercises the pipeline.
DEEP_MODELS = ("resnet18", "squeezenet")

#: Fixed-point configurations measured: the paper's primary 32-bit format
#: and the Section-V 16-bit format.
DATATYPE_CONFIGS = {
    "fixed32": (FIXED32, fixed32_policy),
    "fixed16": (FIXED16, fixed16_policy),
}


def _timed_run(campaign: FaultInjectionCampaign, plans, incremental: bool):
    start = time.perf_counter()
    result = campaign.run(plans=plans, incremental=incremental)
    return result, time.perf_counter() - start


def _measure_pair(model, inputs: np.ndarray, fmt, policy, trials: int,
                  seed: int) -> Dict[str, float]:
    """Full vs. incremental timings for one (model, datatype) campaign.

    Two same-seed campaigns are built so the full and incremental paths
    replay the exact same fault sequence; their per-trial SDC classifications
    must then agree exactly (the engine's bit-identity guarantee).
    """
    full_campaign = FaultInjectionCampaign(
        model, inputs, fault_model=SingleBitFlip(fmt), dtype_policy=policy,
        seed=seed)
    inc_campaign = FaultInjectionCampaign(
        model, inputs, fault_model=SingleBitFlip(fmt), dtype_policy=policy,
        seed=seed)
    plans = full_campaign.generate_plans(trials)
    inc_campaign.generate_plans(trials)  # consume the same RNG draws
    full_result, full_seconds = _timed_run(full_campaign, plans,
                                           incremental=False)
    inc_result, inc_seconds = _timed_run(inc_campaign, plans,
                                         incremental=True)
    if full_result.sdc_counts != inc_result.sdc_counts:
        raise RuntimeError(
            f"incremental replay diverged from full re-execution on "
            f"'{model.name}': {inc_result.sdc_counts} != "
            f"{full_result.sdc_counts}")
    return {
        "full_seconds": full_seconds,
        "incremental_seconds": inc_seconds,
        "full_trials_per_sec": trials / full_seconds,
        "incremental_trials_per_sec": trials / inc_seconds,
        "speedup": full_seconds / inc_seconds,
        "recompute_fraction": inc_result.recompute_fraction or 0.0,
    }


#: Batch width of the batched-replay throughput section.
BATCH_WIDTH = 32

#: Timing repeats per path in the batched section; the fastest repeat is
#: reported (deterministic replay engines — repeats only shed machine
#: noise, which otherwise dominates the single-CPU container's ratios:
#: identical configs measured ±10-15% wall clock run to run).
BATCHED_TIMING_REPEATS = 3

#: Models of the batched-replay section: the deep models plus VGG-11,
#: whose full-width convolutions give the BLAS the most to amortize per
#: stacked batch (measured ~2-3x; the width-0.5 SqueezeNet preset and
#: ResNet's skip-kept-alive cones sit lower).
BATCHED_MODELS = ("vgg11",) + DEEP_MODELS

#: Trials of the batched section, as a multiple of the scale's trial count:
#: batching pays off proportionally to how many trials share an
#: (input, fault site), so the batched comparison runs a longer campaign
#: (the regime real SDC studies operate in — the paper uses 3000/model).
BATCHED_TRIALS_FACTOR = 5

#: Inputs of the batched section (kept small for the same occupancy reason).
BATCHED_NUM_INPUTS = 2


def _measure_batched(model, inputs: np.ndarray, fmt, policy, trials: int,
                     seed: int) -> Dict[str, float]:
    """Incremental vs. batched timings for one (model, datatype) campaign.

    Both campaigns replay the same pre-sampled plans; the batched run's
    per-criterion SDC counts must equal the bit-exact incremental
    reference's (the ULP_TOLERANT verdict-agreement guarantee), which is
    asserted on every benchmark run.
    """
    inc_campaign = FaultInjectionCampaign(
        model, inputs, fault_model=SingleBitFlip(fmt), dtype_policy=policy,
        seed=seed)
    batched_campaign = FaultInjectionCampaign(
        model, inputs, fault_model=SingleBitFlip(fmt), dtype_policy=policy,
        seed=seed)
    plans = inc_campaign.generate_plans(trials)
    batched_campaign.generate_plans(trials)  # consume the same RNG draws
    # Both campaigns are deterministic replay engines, so the ratio is
    # timing-noise bound: time each path BATCHED_TIMING_REPEATS times and
    # keep the fastest (standard best-of-N benchmarking; later repeats
    # reuse the lazily-built golden caches, which both paths share).
    inc_result = inc_seconds = None
    for _ in range(BATCHED_TIMING_REPEATS):
        result, seconds = _timed_run(inc_campaign, plans, incremental=True)
        if inc_result is not None and result.sdc_counts != inc_result.sdc_counts:
            raise RuntimeError(
                f"incremental replay is not deterministic on "
                f"'{model.name}': {result.sdc_counts} != "
                f"{inc_result.sdc_counts}")
        inc_result = result
        inc_seconds = seconds if inc_seconds is None else min(inc_seconds,
                                                              seconds)
    # Cold packing cost, timed apart from the replay (the 2%-of-wall-time
    # budget guard in benchmarks/test_campaign_throughput.py watches it).
    start = time.perf_counter()
    packing = batched_campaign.pack_batches(plans, BATCH_WIDTH)
    pack_seconds = time.perf_counter() - start
    batched_result = batched_seconds = None
    for _ in range(BATCHED_TIMING_REPEATS):
        start = time.perf_counter()
        result = batched_campaign.run(plans=plans, batch_trials=BATCH_WIDTH,
                                      packing=packing)
        seconds = time.perf_counter() - start
        if result.sdc_counts != inc_result.sdc_counts:
            raise RuntimeError(
                f"batched replay verdicts diverged from the incremental "
                f"reference on '{model.name}': {result.sdc_counts} != "
                f"{inc_result.sdc_counts}")
        batched_result = result
        batched_seconds = seconds if batched_seconds is None \
            else min(batched_seconds, seconds)
    return {
        "incremental_seconds": inc_seconds,
        "batched_seconds": batched_seconds,
        "incremental_trials_per_sec": trials / inc_seconds,
        "batched_trials_per_sec": trials / batched_seconds,
        "speedup": inc_seconds / batched_seconds,
        "max_ulp_deviation": batched_result.max_ulp_deviation,
        "mean_occupancy": batched_result.mean_batch_occupancy or 0.0,
        "batched_fraction": batched_result.batched_fraction,
        "union_overhead_nodes": batched_result.union_overhead_nodes,
        "pack_seconds": pack_seconds,
        "pack_fraction": pack_seconds / (batched_seconds + pack_seconds),
    }


#: Pool-reuse section: back-to-back same-config campaigns and worker count.
POOL_REPEATS = 3
POOL_WORKERS = 2


def _measure_pool_reuse(prepared, scale) -> Dict[str, float]:
    """Fresh per-campaign fan-out vs. one persistent pool, back-to-back.

    Runs the same pre-sampled plans ``POOL_REPEATS`` times under each
    backend with a fresh same-seed campaign per repeat (every fresh run
    pays its own pool spawn and worker-side campaign rebuild; the pooled
    runs share one spawn and reuse the worker-side campaign after the
    first).  Per-criterion counts must stay identical across every run —
    the pool's bit-identity guarantee, asserted wherever the benchmark
    executes.
    """
    inputs, _ = prepared.correctly_predicted_inputs(scale.num_inputs,
                                                    seed=scale.seed)

    def fresh_campaign() -> FaultInjectionCampaign:
        return FaultInjectionCampaign(
            prepared.model, inputs, fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), seed=scale.seed)

    campaign = fresh_campaign()
    plans = campaign.generate_plans(scale.trials)
    reference = None

    def check(result) -> None:
        nonlocal reference
        if reference is None:
            reference = result
        elif result.sdc_counts != reference.sdc_counts:
            raise RuntimeError(
                f"pooled campaign diverged from the fresh reference on "
                f"'{prepared.model.name}': {result.sdc_counts} != "
                f"{reference.sdc_counts}")

    start = time.perf_counter()
    for position in range(POOL_REPEATS):
        check((campaign if position == 0 else fresh_campaign()).run(
            plans=plans, workers=POOL_WORKERS))
    fresh_seconds = time.perf_counter() - start
    with CampaignPool(workers=POOL_WORKERS) as pool:
        start = time.perf_counter()
        for _ in range(POOL_REPEATS):
            check(fresh_campaign().run(plans=plans, pool=pool))
        pooled_seconds = time.perf_counter() - start
    return {
        "fresh_seconds": fresh_seconds,
        "pooled_seconds": pooled_seconds,
        "speedup": fresh_seconds / pooled_seconds,
        "campaigns": POOL_REPEATS,
        "workers": POOL_WORKERS,
    }


def run_campaign_throughput(scale: Optional[ExperimentScale] = None,
                            models: Optional[Sequence[str]] = None,
                            ) -> ExperimentResult:
    """Trials/sec of incremental vs. full campaigns on the deep models."""
    scale = scale or ExperimentScale()
    available = scale.all_classifiers()
    if models is None:
        models = [m for m in DEEP_MODELS if m in available]
        if not models:
            models = list(available[:1])
    trials = scale.trials

    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for model_name in models:
        prepared = get_prepared(model_name, scale)
        protected, _ = protect_with_ranger(prepared, scale)
        inputs, _ = prepared.correctly_predicted_inputs(scale.num_inputs,
                                                        seed=scale.seed)
        data[model_name] = {}
        for dtype_name, (fmt, policy_factory) in DATATYPE_CONFIGS.items():
            entry: Dict[str, Dict[str, float]] = {}
            for variant, target in (("unprotected", prepared.model),
                                    ("protected", protected)):
                stats = _measure_pair(target, inputs, fmt, policy_factory(),
                                      trials, seed=scale.seed)
                entry[variant] = stats
                rows.append([model_name, dtype_name, variant,
                             stats["full_trials_per_sec"],
                             stats["incremental_trials_per_sec"],
                             stats["speedup"],
                             stats["recompute_fraction"]])
            paired_full = (entry["unprotected"]["full_seconds"]
                           + entry["protected"]["full_seconds"])
            paired_inc = (entry["unprotected"]["incremental_seconds"]
                          + entry["protected"]["incremental_seconds"])
            entry["paired_speedup"] = paired_full / paired_inc
            data[model_name][dtype_name] = entry
            rows.append([model_name, dtype_name, "paired",
                         2 * trials / paired_full, 2 * trials / paired_inc,
                         entry["paired_speedup"], float("nan")])

    rendered = render_table(
        ["model", "datatype", "variant", "full trials/s", "incr trials/s",
         "speedup", "recompute frac"],
        rows,
        title=(f"Campaign throughput — incremental vs. full re-execution "
               f"({trials} trials, {scale.num_inputs} inputs)"))

    # Batched multi-trial replay vs. the incremental reference, on a
    # longer plan list (batching amortizes with per-site occupancy).
    batched_trials = trials * BATCHED_TRIALS_FACTOR
    batched_rows: List[List] = []
    batched_models = [m for m in BATCHED_MODELS if m in available]
    if not batched_models:
        batched_models = list(models)
    for model_name in batched_models:
        prepared = get_prepared(model_name, scale)
        inputs, _ = prepared.correctly_predicted_inputs(BATCHED_NUM_INPUTS,
                                                        seed=scale.seed)
        for dtype_name, (fmt, policy_factory) in DATATYPE_CONFIGS.items():
            stats = _measure_batched(prepared.model, inputs, fmt,
                                     policy_factory(), batched_trials,
                                     seed=scale.seed)
            data.setdefault(model_name, {}).setdefault(dtype_name,
                                                       {})["batched"] = stats
            batched_rows.append([model_name, dtype_name,
                                 stats["incremental_trials_per_sec"],
                                 stats["batched_trials_per_sec"],
                                 stats["speedup"],
                                 stats["mean_occupancy"],
                                 stats["batched_fraction"],
                                 stats["union_overhead_nodes"],
                                 100.0 * stats["pack_fraction"],
                                 stats["max_ulp_deviation"]])
    rendered += "\n\n" + render_table(
        ["model", "datatype", "incr trials/s",
         f"batched[B={BATCH_WIDTH}] trials/s", "speedup",
         "occupancy rows/batch", "batched frac", "union overhead",
         "pack %", "max ulp dev"],
        batched_rows,
        title=(f"Campaign throughput — union-cone batched (ULP_TOLERANT) "
               f"vs. incremental replay ({batched_trials} trials, "
               f"{BATCHED_NUM_INPUTS} inputs)"))

    # Persistent pool vs. fresh fan-out over back-to-back campaigns.
    pool_model = "squeezenet" if "squeezenet" in available else models[0]
    pool_stats = _measure_pool_reuse(get_prepared(pool_model, scale), scale)
    data["pool"] = dict(pool_stats, model=pool_model)
    rendered += "\n\n" + render_table(
        ["model", "campaigns", "workers", "fresh s", "pooled s",
         "pool speedup"],
        [[pool_model, POOL_REPEATS, POOL_WORKERS,
          pool_stats["fresh_seconds"], pool_stats["pooled_seconds"],
          pool_stats["speedup"]]],
        title=("Campaign throughput — persistent CampaignPool vs. fresh "
               "per-campaign worker pools (same-config back-to-back "
               "campaigns, bit-identity asserted)"))
    return ExperimentResult(name="campaign_throughput",
                            paper_reference="Sec. IV campaign methodology",
                            data=data, rendered=rendered)


#: Worker counts the scaling experiment sweeps.
PARALLEL_WORKER_COUNTS = (1, 2, 4)


def run_parallel_scaling(scale: Optional[ExperimentScale] = None,
                         models: Optional[Sequence[str]] = None,
                         worker_counts: Optional[Sequence[int]] = None,
                         ) -> ExperimentResult:
    """Trials/sec of multiprocess campaign fan-out vs. the serial path.

    One set of plans is pre-sampled per model and replayed at every worker
    count by a *fresh* same-seed campaign (so each configuration pays its
    own golden-cache build, exactly like a worker process does).  The run
    raises if any configuration's per-criterion counts deviate from the
    serial reference — the determinism guarantee, checked en passant on
    every benchmark run.
    """
    scale = scale or ExperimentScale()
    worker_counts = tuple(worker_counts or PARALLEL_WORKER_COUNTS)
    available = scale.all_classifiers()
    if models is None:
        models = [m for m in ("squeezenet",) if m in available]
        if not models:
            models = list(available[:1])
    trials = scale.trials
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)

    rows: List[List] = []
    data: Dict[str, Dict] = {"cpus": cpus}
    for model_name in models:
        prepared = get_prepared(model_name, scale)
        inputs, _ = prepared.correctly_predicted_inputs(scale.num_inputs,
                                                        seed=scale.seed)

        def fresh_campaign() -> FaultInjectionCampaign:
            return FaultInjectionCampaign(
                prepared.model, inputs, fault_model=SingleBitFlip(FIXED32),
                dtype_policy=fixed32_policy(), seed=scale.seed)

        # The plan-sampling campaign doubles as the first timed configuration
        # (its lazy golden caches are still unbuilt, so it is indistinguishable
        # from a fresh one); later configurations get fresh same-seed campaigns
        # so each pays its own cache build.
        campaign = fresh_campaign()
        plans = campaign.generate_plans(trials)
        entry: Dict[int, Dict[str, float]] = {}
        reference = None
        for position, workers in enumerate(worker_counts):
            if position:
                campaign = fresh_campaign()
            start = time.perf_counter()
            result = campaign.run(plans=plans, workers=workers)
            seconds = time.perf_counter() - start
            if reference is None:
                reference = result
            elif result.sdc_counts != reference.sdc_counts:
                raise RuntimeError(
                    f"parallel campaign diverged from the "
                    f"workers={worker_counts[0]} reference on "
                    f"'{model_name}' with workers={workers}: "
                    f"{result.sdc_counts} != {reference.sdc_counts}")
            entry[workers] = {
                "seconds": seconds,
                "trials_per_sec": trials / seconds,
            }
        base_tps = entry[worker_counts[0]]["trials_per_sec"]
        for workers in worker_counts:
            stats = entry[workers]
            stats["speedup"] = stats["trials_per_sec"] / base_tps
            rows.append([model_name, workers, stats["trials_per_sec"],
                         stats["speedup"]])
        data[model_name] = entry

    rendered = render_table(
        ["model", "workers", "trials/s",
         f"speedup vs {worker_counts[0]} worker(s)"],
        rows,
        title=(f"Campaign fan-out scaling — {trials} trials, "
               f"{scale.num_inputs} inputs, {cpus} CPU(s) available"))
    return ExperimentResult(name="parallel_scaling",
                            paper_reference="Sec. IV campaign methodology",
                            data=data, rendered=rendered)
