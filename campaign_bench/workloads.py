"""The benchmark's three workloads: why each exists, what it loads, what
it bypasses.

All three are closed loops with one client: the next cell is issued only
after the previous one returned.  A *cell* is one paired campaign (the
unprotected model and its Ranger-clip protected variant replay the same
fault plans); a *pass* is one sweep over the workload's grid of cells.
``--seed`` picks the evaluation inputs (correctly predicted validation
images); models are trained and Ranger-profiled at the experiments' fixed
seed.  The replay workloads draw their fault plans from a fixed campaign
seed, so every seed replays the same fault sites (per-trial cost depends
on the fault site's cone, and the seed should not change how much work a
pass is); ``service-sweep`` seeds its campaigns with ``--seed``, because
its adaptive stopping is part of what it measures.

``exact-replay``
    Serial, bit-exact incremental replay (``workers=1``,
    ``batch_trials=1``, EXACT) on squeezenet and vgg11 x fixed32/fixed16,
    200 plans per squeezenet cell and 300 per vgg11 cell (so every cell
    takes about as long and latency percentiles do not straddle cell
    kinds) over 8 inputs.
    *Loads:* batch-1 ``Executor.run_from``, ``inject_cached``, fixed-point
    quantization, per-trial SDC verdicts, golden caches.
    *Bypasses:* packing and batched replay, the pool, the shared-memory
    plane and the service — so a refactor of those (or a unified replay
    core) should read *no change* here.
    *Check:* SDC counts bit-identical to full re-execution
    (``incremental=False``) on the same plans.

``batched-replay``
    Serial union-cone batched replay (``batch_trials=32``, ULP_TOLERANT)
    on resnet18 and vgg11 x fixed32/fixed16, 512 plans per cell over 2
    inputs, so batches run nearly full.
    *Loads:* ``run_from_batched``, ``pack_batches``, sparse deltas and
    conv — resnet18 is the conv-window target, vgg11 the best batching
    case.
    *Bypasses:* the pool, the shared-memory plane and the service.
    *Check:* SDC counts equal the EXACT incremental reference
    (``batch_trials=1``) on the same plans.

``service-sweep``
    The experiment runner's default path: every cell (lenet / alexnet /
    vgg11 x fixed32/fixed16 x two CI targets) is submitted to one
    ``CampaignServer`` that borrows a 2-worker ``CampaignPool``, runs
    adaptively (``target_half_width``, ``joint_stop=False``, small waves)
    and is awaited before the next is submitted.  A fixed quarter of the
    cells repeats an earlier cell exactly and is served from the
    artifact store's result cache; each pass starts a fresh server (and
    store) on the same pool.
    *Loads:* pool dispatch, shm encode, IPC, worker-cache hits, merges,
    the store's read and write paths — many small per-wave dispatches,
    where BLAS oversubscription of the workers shows.
    *Bypasses:* in-process replay (workers replay; the parent only builds
    golden outputs, dispatches and merges).
    *Check:* each cell's pair equals a direct serial ``compare_protection``
    on the same spec and options (trials, waves, SDC counts).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import Ranger
from repro.experiments.common import TRAINING_CONFIG
from repro.injection import (CampaignPool, FaultInjectionCampaign,
                             SingleBitFlip, compare_protection)
from repro.models import PreparedModel, prepare_model
from repro.parallel import shared_plane
from repro.quantization import FIXED16, FIXED32, fixed16_policy, fixed32_policy
from repro.service import CampaignServer, request_from_campaign

from trained import MODEL_SEED, load_trained

DTYPES = {"fixed32": (FIXED32, fixed32_policy),
          "fixed16": (FIXED16, fixed16_policy)}

#: Training-set images Ranger profiles (the experiments' default).
PROFILE_SAMPLES = 120

#: Campaign seed of the replay workloads' fault plans.
PLAN_SEED = 0


@dataclass(frozen=True)
class Cell:
    """One grid entry: (model, dtype, CI target or None), maybe a repeat."""

    model: str
    dtype: str
    target: Optional[float] = None
    repeat: bool = False

    @property
    def key(self) -> Tuple:
        return (self.model, self.dtype, self.target)

    def label(self) -> str:
        target = "" if self.target is None else f"/ci{self.target:g}"
        return f"{self.model}/{self.dtype}{target}" + (
            " (repeat)" if self.repeat else "")


@dataclass
class Subject:
    """A trained model, its protected variant and the evaluation inputs."""

    model: Any
    protected: Any
    inputs: np.ndarray


@dataclass
class State:
    """Everything one set-up produced."""

    subjects: Dict[str, Subject]
    pool: Optional[CampaignPool] = None
    server: Optional[CampaignServer] = None
    passes: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CellRun:
    """What one cell returned, as the client saw it."""

    pair: Tuple[Any, Any]
    latency_s: float
    from_cache: bool = False


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def prepare_subject(name: str, cache_dir: Path, num_inputs: int, seed: int,
                    tracer) -> Subject:
    """Set-up of one model: prepare, restore weights, profile, protect,
    pick inputs."""
    config = dict(TRAINING_CONFIG[name])
    config.pop("epochs", None)
    config.pop("learning_rate", None)
    with _span(tracer, "models.prepare"):
        fresh = prepare_model(name, train=False, use_cache=False,
                              seed=MODEL_SEED, **config)
        prepared = PreparedModel(model=load_trained(cache_dir, name),
                                 dataset=fresh.dataset, final_loss=None)
    ranger = Ranger(percentile=100.0, policy="clip", seed=MODEL_SEED)
    sample, _ = prepared.dataset.sample_train(PROFILE_SAMPLES,
                                              seed=MODEL_SEED)
    with _span(tracer, "core.profile"):
        profile = ranger.profile(prepared.model, sample)
    with _span(tracer, "core.transform"):
        protected, _ = ranger.transform(prepared.model,
                                        ranger.select_bounds(profile))
    with _span(tracer, "models.select_inputs"):
        inputs, _ = prepared.correctly_predicted_inputs(num_inputs, seed=seed)
    return Subject(model=prepared.model, protected=protected, inputs=inputs)


def arm_signature(result) -> Tuple:
    """What must match exactly between a cell and its reference."""
    return (result.trials, tuple(sorted(result.sdc_counts.items())))


def plane_stats() -> Dict[str, int]:
    """Counters of the process-wide shared-memory plane (zeros when shared
    memory is off)."""
    plane = shared_plane()
    if plane is None:
        return {"published": 0, "segment_bytes": 0}
    return plane.stats()


class Workload:
    """Base class: a grid of paired-campaign cells over some models."""

    name = ""
    why = ""
    models: Sequence[str] = ()
    dtypes: Sequence[str] = ("fixed32", "fixed16")
    num_inputs = 8
    #: Passes always run, whatever ``--seconds`` says, so percentiles
    #: have enough cells behind them.
    min_passes = 3

    def setup(self, cache_dir: Path, seed: int, tracer) -> State:
        return State(subjects={
            name: prepare_subject(name, cache_dir, self.num_inputs, seed,
                                  tracer)
            for name in self.models})

    def grid(self, seed: int) -> List[Cell]:
        return [Cell(model, dtype) for model in self.models
                for dtype in self.dtypes]

    def begin_pass(self, state: State) -> None:
        state.passes += 1

    def end_pass(self, state: State) -> Dict[str, float]:
        return {}

    def campaign_seed(self, seed: int) -> int:
        """The seed the workload's campaigns sample fault plans from."""
        return PLAN_SEED

    def run_cell(self, state: State, cell: Cell, seed: int) -> CellRun:
        subject = state.subjects[cell.model]
        fmt, policy = DTYPES[cell.dtype]
        start = time.perf_counter()
        pair = compare_protection(
            subject.model, subject.protected, subject.inputs,
            fault_model=SingleBitFlip(fmt), dtype_policy=policy(),
            seed=self.campaign_seed(seed), **self.cell_options(cell))
        return CellRun(pair=pair, latency_s=time.perf_counter() - start)

    def cell_options(self, cell: Cell) -> Dict[str, Any]:
        raise NotImplementedError

    def reference(self, state: State, cell: Cell, seed: int):
        subject = state.subjects[cell.model]
        fmt, policy = DTYPES[cell.dtype]
        return compare_protection(
            subject.model, subject.protected, subject.inputs,
            fault_model=SingleBitFlip(fmt), dtype_policy=policy(),
            seed=self.campaign_seed(seed), **self.reference_options(cell))

    def reference_options(self, cell: Cell) -> Dict[str, Any]:
        raise NotImplementedError

    def agrees(self, pair, reference) -> bool:
        return all(arm_signature(a) == arm_signature(b)
                   for a, b in zip(pair, reference))

    def close(self, state: State) -> None:
        pass


class ExactReplay(Workload):
    name = "exact-replay"
    why = ("serial bit-exact B=1 replay: run_from, inject_cached, "
           "fixed-point quantize, verdicts; no packing, pool, shm or service")
    models = ("squeezenet", "vgg11")
    plans = {"squeezenet": 200, "vgg11": 300}
    min_passes = 5

    def cell_options(self, cell: Cell) -> Dict[str, Any]:
        return dict(trials=self.plans[cell.model], workers=1, batch_trials=1,
                    equivalence="exact")

    def reference_options(self, cell: Cell) -> Dict[str, Any]:
        return dict(trials=self.plans[cell.model], workers=1,
                    incremental=False)


class BatchedReplay(Workload):
    name = "batched-replay"
    why = ("serial union-cone batched replay (B=32) on resnet18 and vgg11: "
           "run_from_batched, pack_batches, sparse deltas, conv")
    models = ("resnet18", "vgg11")
    num_inputs = 2
    plans = 512
    batch_trials = 32
    min_passes = 2

    def cell_options(self, cell: Cell) -> Dict[str, Any]:
        return dict(trials=self.plans, workers=1,
                    batch_trials=self.batch_trials,
                    equivalence="ulp_tolerant")

    def reference_options(self, cell: Cell) -> Dict[str, Any]:
        return dict(trials=self.plans, workers=1, batch_trials=1,
                    equivalence="exact")


class ServiceSweep(Workload):
    name = "service-sweep"
    why = ("adaptive paired cells through one CampaignServer on a 2-worker "
           "pool: dispatch, shm, IPC, worker caches, merge, result store")
    models = ("lenet", "alexnet", "vgg11")
    targets = (0.06, 0.04)
    num_inputs = 16
    budget = 1200
    wave_trials = 20
    workers = 2
    min_passes = 2
    #: Cells per pass that repeat an earlier cell exactly (of 12 fresh).
    repeats = 4

    def setup(self, cache_dir: Path, seed: int, tracer) -> State:
        state = super().setup(cache_dir, seed, tracer)
        try:
            with _span(tracer, "pool.spawn"):
                state.pool = CampaignPool(workers=self.workers)
                # Worker processes start on the first task: run a throwaway
                # two-trial campaign so the spawn is paid here, not in a
                # cell.
                warm = state.subjects[self.models[0]]
                state.pool.run(FaultInjectionCampaign(warm.model,
                                                      warm.inputs[:1],
                                                      seed=seed),
                               trials=2)
            with _span(tracer, "service.start"):
                state.server = CampaignServer(pool=state.pool)
        except BaseException:
            self.close(state)
            raise
        return state

    def grid(self, seed: int) -> List[Cell]:
        fresh = [Cell(model, dtype, target) for model in self.models
                 for dtype in self.dtypes for target in self.targets]
        rng = np.random.default_rng(seed)
        cells = list(fresh)
        for index in sorted(rng.choice(len(fresh), size=self.repeats,
                                       replace=False)):
            original = fresh[int(index)]
            later = int(rng.integers(cells.index(original) + 1,
                                     len(cells) + 1))
            cells.insert(later, Cell(original.model, original.dtype,
                                     original.target, repeat=True))
        return cells

    def begin_pass(self, state: State) -> None:
        if state.passes:
            # A fresh server and store per pass, so every pass pays the
            # same store misses; the pool (and its warm workers) stays.
            state.server.close()
            state.server = CampaignServer(pool=state.pool)
        state.passes += 1
        state.extra["pool_before"] = state.pool.stats()
        state.extra["plane_before"] = plane_stats()

    def end_pass(self, state: State) -> Dict[str, float]:
        before = state.extra.pop("pool_before")
        after = state.pool.stats()
        delta = {key: after[key] - before[key] for key in after}
        plane_before = state.extra.pop("plane_before")
        plane_after = plane_stats()
        results = state.server.stats()["store"].get(
            "result", {"hits": 0, "misses": 0})
        return {"pool_tasks": delta["tasks"], "pool_hits": delta["hits"],
                "pool_misses": delta["misses"],
                "pool_payload_bytes": delta["payload_bytes"],
                "shm_published": (plane_after["published"]
                                  - plane_before["published"]),
                "shm_segment_bytes": plane_after["segment_bytes"],
                "result_hits": results["hits"],
                "result_misses": results["misses"]}

    def campaign_seed(self, seed: int) -> int:
        return seed

    def options(self, cell: Cell) -> Dict[str, Any]:
        return dict(trials=self.budget, target_half_width=cell.target,
                    wave_trials=self.wave_trials, joint_stop=False)

    def run_cell(self, state: State, cell: Cell, seed: int) -> CellRun:
        subject = state.subjects[cell.model]
        fmt, policy = DTYPES[cell.dtype]
        request = request_from_campaign(
            subject.model, subject.inputs, fault_model=SingleBitFlip(fmt),
            dtype_policy=policy(), seed=seed,
            protected_model=subject.protected, workers=self.workers,
            use_pool=True, **self.options(cell))
        start = time.perf_counter()
        job = state.server.submit(request)
        pair = job.result(timeout=150)
        latency = time.perf_counter() - start
        return CellRun(pair=pair, latency_s=latency,
                       from_cache=bool(job.describe().get("from_cache")))

    def reference_options(self, cell: Cell) -> Dict[str, Any]:
        return dict(workers=1, **self.options(cell))

    def agrees(self, pair, reference) -> bool:
        return all(arm_signature(a) + (a.waves, a.trials_budget)
                   == arm_signature(b) + (b.waves, b.trials_budget)
                   for a, b in zip(pair, reference))

    def close(self, state: State) -> None:
        if state.server is not None:
            state.server.close()
        if state.pool is not None:
            state.pool.close()


WORKLOADS = {workload.name: workload
             for workload in (ExactReplay(), BatchedReplay(), ServiceSweep())}
