"""Shared infrastructure for the per-table / per-figure experiments.

Every experiment module exposes ``run_*`` functions that take an
:class:`ExperimentScale` and return an :class:`ExperimentResult`.  The scale
object controls how much work is done (fault-injection trials, number of
evaluation inputs, which models are included) so the same experiment
definition can be run as a seconds-long smoke test, the committed benchmark
configuration, or a paper-scale overnight campaign.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core import ProtectionInfo, Ranger
from ..injection import (
    CampaignPool,
    FaultInjectionCampaign,
    FaultModel,
    SingleBitFlip,
)
from ..models import CLASSIFIER_MODELS, STEERING_MODELS, PreparedModel, prepare_model
from ..quantization import FIXED16, FIXED32, fixed16_policy, fixed32_policy
from ..service import ArtifactStore, CampaignServer, request_from_campaign

#: Training configuration per model used by all experiments, calibrated so
#: the small presets reach usable accuracy in minutes on a laptop.
TRAINING_CONFIG: Dict[str, Dict[str, Any]] = {
    "lenet": {"epochs": 6, "learning_rate": 2e-3},
    "alexnet": {"epochs": 5, "learning_rate": 2e-3},
    "vgg11": {"epochs": 10, "learning_rate": 4e-3},
    "vgg16": {"epochs": 10, "learning_rate": 4e-3, "num_classes": 10},
    "resnet18": {"epochs": 3, "learning_rate": 2e-3},
    "squeezenet": {"epochs": 12, "learning_rate": 6e-3, "num_classes": 10,
                   "width_scale": 0.5},
    "dave": {"epochs": 12, "learning_rate": 3e-3},
    "comma": {"epochs": 8, "learning_rate": 2e-3},
}


@dataclass
class ExperimentScale:
    """How much work each experiment does.

    The defaults are the committed benchmark configuration; ``smoke()``
    returns a seconds-scale configuration used by the test suite and
    ``paper()`` approaches the paper's trial counts.
    """

    trials: int = 120
    num_inputs: int = 8
    classifier_models: Sequence[str] = ("lenet", "alexnet", "vgg11")
    large_classifier_models: Sequence[str] = ("vgg16", "resnet18", "squeezenet")
    steering_models: Sequence[str] = ("dave", "comma")
    include_large_models: bool = True
    profile_samples: int = 120
    seed: int = 0
    #: Worker processes for fault-injection campaigns (``run(workers=N)``).
    #: Campaign results are bit-identical for every value, so this is purely
    #: a wall-clock knob; 1 keeps everything in-process.
    workers: int = 1
    #: When set, each sweep cell runs **adaptively**: trials execute in
    #: waves and the cell stops once every criterion's CI half-width fits
    #: the target (``trials`` stays the hard budget).  Each stopped cell
    #: is a bit-exact prefix of its own fixed-budget run.
    target_half_width: Optional[float] = None
    #: Trials per adaptive wave (defaults to the engine's 10%-of-budget).
    wave_trials: Optional[int] = None
    #: With a target set, False lets the two arms of each paired cell stop
    #: independently (the protected arm's near-zero rates converge waves
    #: earlier); True stops both arms together, preserving full pairing.
    joint_stop: bool = True

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        return cls(trials=25, num_inputs=4,
                   classifier_models=("lenet",),
                   large_classifier_models=(),
                   steering_models=("comma",),
                   include_large_models=False, profile_samples=40)

    @classmethod
    def paper(cls) -> "ExperimentScale":
        return cls(trials=3000, num_inputs=10, profile_samples=2000)

    def all_classifiers(self) -> List[str]:
        models = list(self.classifier_models)
        if self.include_large_models:
            models.extend(self.large_classifier_models)
        return models

    def all_models(self) -> List[str]:
        return self.all_classifiers() + list(self.steering_models)


@dataclass
class ExperimentResult:
    """One reproduced table or figure."""

    name: str
    paper_reference: str
    data: Dict[str, Any]
    rendered: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"=== {self.name} ({self.paper_reference}) ===\n{self.rendered}"


def get_prepared(model_name: str, scale: ExperimentScale,
                 **overrides) -> PreparedModel:
    """Build + train a model with the experiment-wide training config."""
    config = dict(TRAINING_CONFIG.get(model_name, {}))
    config.update(overrides)
    epochs = config.pop("epochs", 6)
    learning_rate = config.pop("learning_rate", 2e-3)
    return prepare_model(model_name, epochs=epochs,
                         learning_rate=learning_rate, seed=scale.seed,
                         **config)


def protect_with_ranger(prepared: PreparedModel, scale: ExperimentScale,
                        percentile: float = 100.0, policy: str = "clip"):
    """Profile on a training-set sample and apply Ranger.

    The activation profile is cached in the process-wide artifact store
    (keyed by model, profiling inputs and seed): the bound-percentile
    sweeps re-protect the same model many times, and the profile — the
    expensive part, one forward pass per profiling input — is identical
    across percentiles because the percentile is applied at bound
    *selection* time.
    """
    ranger = Ranger(percentile=percentile, policy=policy, seed=scale.seed)
    sample, _ = prepared.dataset.sample_train(scale.profile_samples,
                                              seed=scale.seed)
    store = artifact_store()
    key = ArtifactStore.ranger_profile_key(prepared.model, sample, scale.seed)
    profile = store.get("ranger_profile", key)
    if profile is None:
        profile = ranger.profile(prepared.model, sample)
        store.put("ranger_profile", key, profile)
    bounds = ranger.select_bounds(profile)
    protected, report = ranger.transform(prepared.model, bounds)
    return protected, ProtectionInfo(bounds=bounds, report=report,
                                     profile=profile)


#: Process-wide persistent campaign pools, one per worker count, shared by
#: every experiment in the process (see :func:`campaign_pool`).
_CAMPAIGN_POOLS: Dict[int, CampaignPool] = {}


def campaign_pool(scale: ExperimentScale) -> Optional[CampaignPool]:
    """The shared persistent worker pool for ``scale.workers``, or None.

    Experiment sweeps run campaigns back-to-back (every paired SDC figure
    is a grid of model × datatype × protection campaigns), so when the
    scale asks for worker processes the runner keeps one
    :class:`~repro.injection.pool.CampaignPool` alive per worker count
    instead of spawning (and warming) a fresh process pool per campaign.
    Returns ``None`` for ``workers <= 1`` — campaigns then run in-process
    exactly as before.  Pools are created lazily and shut down at
    interpreter exit; results are bit-identical with and without the pool.
    """
    if scale.workers <= 1:
        return None
    pool = _CAMPAIGN_POOLS.get(scale.workers)
    if pool is None or pool.closed:
        pool = CampaignPool(workers=scale.workers)
        _CAMPAIGN_POOLS[scale.workers] = pool
        atexit.register(pool.close)
    return pool


def campaign_pool_stats() -> Dict[int, Dict[str, int]]:
    """Aggregated :meth:`CampaignPool.stats` per live pool worker count.

    The runner prints these next to the artifact-store summary so the
    worker-cache hit rate and the resent spec bytes are observable per
    sweep.
    """
    return {workers: pool.stats()
            for workers, pool in sorted(_CAMPAIGN_POOLS.items())
            if not pool.closed}


#: One content-addressed artifact store shared by every experiment (and
#: every campaign server) in the process — cross-figure reuse of results,
#: golden caches and Ranger profiles happens through it.
_ARTIFACT_STORE: Optional[ArtifactStore] = None

#: Process-wide campaign servers, one per worker count (each borrows the
#: matching persistent pool and shares :data:`_ARTIFACT_STORE`).
_CAMPAIGN_SERVERS: Dict[int, CampaignServer] = {}


def artifact_store() -> ArtifactStore:
    """The process-wide artifact store (created lazily, in-memory)."""
    global _ARTIFACT_STORE
    if _ARTIFACT_STORE is None:
        _ARTIFACT_STORE = ArtifactStore()
    return _ARTIFACT_STORE


def campaign_server(scale: ExperimentScale) -> CampaignServer:
    """The shared campaign server for ``scale.workers``.

    Sweep grids submit their paired campaigns here instead of calling the
    engine directly: every server shares one artifact store, so a
    (model × dtype × protection) cell that already ran — in *any*
    experiment of the process — is served from the result cache.  Servers
    are created lazily per worker count (borrowing the matching persistent
    :func:`campaign_pool`) and close at interpreter exit.
    """
    server = _CAMPAIGN_SERVERS.get(scale.workers)
    if server is None or server._closed:
        server = CampaignServer(store=artifact_store(),
                                pool=campaign_pool(scale))
        _CAMPAIGN_SERVERS[scale.workers] = server
        atexit.register(server.close)
    return server


def paired_sdc_rates(prepared: PreparedModel, protected, scale: ExperimentScale,
                     fault_model: Optional[FaultModel] = None,
                     dtype_policy=None, criteria=None
                     ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """SDC rates (percent) per criterion for the original and protected model,
    using the same fault plans on both.

    The paired campaign is submitted to the process-wide campaign service
    (:func:`campaign_server`): results are bit-identical to a direct
    :func:`~repro.injection.compare_protection`, and cells repeated across
    figures come back from the artifact store's result cache.
    ``scale.target_half_width`` makes each cell stop adaptively on its own
    criteria (``scale.joint_stop=False`` additionally lets the two arms
    stop independently).
    """
    inputs, _ = prepared.correctly_predicted_inputs(scale.num_inputs,
                                                    seed=scale.seed)
    fault_model = fault_model or SingleBitFlip(FIXED32)
    dtype_policy = (dtype_policy if dtype_policy is not None
                    else fixed32_policy())
    request = request_from_campaign(
        prepared.model, inputs, fault_model=fault_model, criteria=criteria,
        dtype_policy=dtype_policy, seed=scale.seed,
        protected_model=protected, trials=scale.trials,
        workers=scale.workers, use_pool=scale.workers > 1,
        target_half_width=scale.target_half_width,
        wave_trials=scale.wave_trials, joint_stop=scale.joint_stop)
    base, guarded = campaign_server(scale).submit(request).result()
    original = {c: base.sdc_rate_percent(c) for c in base.criteria}
    with_ranger = {c: guarded.sdc_rate_percent(c) for c in guarded.criteria}
    return original, with_ranger
