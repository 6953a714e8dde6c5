"""Fault injection: fault models, the injector, SDC criteria, and campaigns."""

from ..graph.equivalence import DEFAULT_MAX_ULPS, EquivalenceMode
from .campaign import (
    DEFAULT_INTERVAL_METHOD,
    CampaignResult,
    CampaignSpec,
    FaultInjectionCampaign,
    RunOptions,
    compare_protection,
    shard_plans,
)
from .fault_models import (
    ConsecutiveBitFlip,
    FaultModel,
    FaultSpec,
    MultiBitFlip,
    RandomValueFault,
    SingleBitFlip,
    StuckAtZeroFault,
)
from .injector import (
    FaultInjector,
    InjectionError,
    InjectionPlan,
    downstream_nodes,
    last_layer_exclusions,
)
from .pool import CampaignPool
from .sampling import (
    Stratification,
    StratumSpace,
    largest_remainder,
    neyman_allocation,
    stratum_rng,
    uniform_allocation,
)
from .sdc import (
    STEERING_THRESHOLDS,
    SDCCriterion,
    SteeringDeviation,
    TopKMisclassification,
    criteria_for_model,
)
from .streams import trial_rng, trial_rngs

__all__ = [
    "CampaignPool",
    "CampaignResult",
    "CampaignSpec",
    "ConsecutiveBitFlip",
    "DEFAULT_INTERVAL_METHOD",
    "DEFAULT_MAX_ULPS",
    "EquivalenceMode",
    "FaultInjectionCampaign",
    "FaultInjector",
    "FaultModel",
    "FaultSpec",
    "InjectionError",
    "InjectionPlan",
    "MultiBitFlip",
    "RandomValueFault",
    "RunOptions",
    "STEERING_THRESHOLDS",
    "SDCCriterion",
    "SingleBitFlip",
    "SteeringDeviation",
    "Stratification",
    "StratumSpace",
    "StuckAtZeroFault",
    "TopKMisclassification",
    "compare_protection",
    "criteria_for_model",
    "downstream_nodes",
    "largest_remainder",
    "last_layer_exclusions",
    "neyman_allocation",
    "shard_plans",
    "stratum_rng",
    "trial_rng",
    "trial_rngs",
    "uniform_allocation",
]
