"""Fault-injection campaigns and SDC-rate statistics.

A campaign reproduces the paper's experimental procedure:

1. pick a set of inputs the model handles correctly in the fault-free case;
2. record the fault-free ("golden") output for each input;
3. for each trial, pick an input, sample a random fault site, run one faulty
   inference, and classify the outcome against every SDC criterion;
4. report the SDC rate per criterion with a 95% confidence interval.

The same sequence of faults can be replayed against a protected model (Ranger
or a baseline) so the with/without comparison is paired, which substantially
reduces the variance of the measured SDC-rate *difference* at laptop-scale
trial counts.

Parallel execution
------------------

Trials are embarrassingly parallel once the ``(input, plan)`` pairs are
pre-sampled, so ``run(workers=N)`` shards them across ``N`` worker processes
of one ephemeral :class:`~repro.injection.pool.CampaignPool`.  Each worker
rebuilds its model, executor and golden activation caches from a picklable
:class:`CampaignSpec` and runs its contiguous shard of trials through the
same backend dispatch as the serial path, with the run's own
:class:`RunOptions`; the parent merges the per-worker partial results with
:meth:`CampaignResult.merge`.

**Determinism guarantee.**  Every trial draws its corruption randomness from
its own generator, derived from the campaign seed and the *global* trial
index via ``numpy.random.SeedSequence`` spawning (see :func:`trial_rng`).  A
trial's outcome therefore depends only on ``(seed, trial index)`` — never on
which process executes it, how the trial list is chunked, or how many workers
run — so ``run(workers=N)`` is bit-identical to the serial path for every
``N``, and two same-seed campaigns (e.g. the unprotected and protected sides
of :func:`compare_protection`) corrupt the same values with the same bits.

Batched execution
-----------------

``run(batch_trials=B)`` additionally stacks up to ``B`` trials that share an
input into one batched partial re-execution
(:meth:`Executor.run_from_batched` via
:meth:`FaultInjector.inject_cached_batch`): the corrupted activations
travel stacked along the batch dimension, so every re-evaluated node in the
replay costs one BLAS call over its dirty rows instead of one call per
trial.  Trials need **not** share a fault site — :meth:`pack_batches`
greedily fills batches to full width with trials whose cones converge early
(cone-suffix packing over the memoized ``Graph.downstream_union``), each
row enters the replay at its own site, and per-row membership masks confine
every row to its own cone, so cross-site batches cost no extra row
evaluations.  Trial *identity* is untouched — plans are pre-sampled exactly
as before and each trial keeps its own :func:`trial_rng` stream — so
batching composes with ``workers=N`` sharding and with paired comparisons,
and the applied-fault records stay bit-identical.  What weakens is the
*numerical* guarantee: BLAS kernels are not bit-stable across batch shapes,
so batched results carry the ``ULP_TOLERANT`` equivalence mode (same SDC
verdicts in practice, outputs within a few float64 ULPs of the batch-1
replay) and report the maximum deviation actually observed.  The default
``batch_trials=1`` path remains bit-exact (``EXACT``).

Adaptive campaigns
------------------

``run(target_half_width=...)`` executes the pre-sampled trials in waves
and stops once the confidence-interval half-width on every criterion
reaches the target — the statistical analogue of the kernel-level wins
above: a campaign whose SDC rate is far from 0.5 needs a small fraction
of the worst-case budget to pin its rate down.  Because plans are
pre-sampled for the whole budget and every trial keeps its index-keyed
:func:`trial_rng` stream, a stopped campaign is *bit-identical to a
prefix* of the fixed-budget run — adaptivity changes when the campaign
stops looking, never what any trial computes — and composes with every
backend above (each wave chunk goes through the same pool → batched →
serial dispatch).  ``run(strata=Stratification(...))``
additionally importance-samples the fault space: trials are allocated
across (layer × bit-band) strata — uniformly at first, then toward
strata whose verdicts are still uncertain — and the result carries
per-stratum counters that reweight into unbiased Horvitz–Thompson rate
estimates (see :mod:`repro.injection.sampling`).

One driver
----------

Fixed, waved, paired and served campaigns all run through one wave loop,
:func:`run_group`, configured by one frozen :class:`RunOptions` that
validates every option when it is built.  ``run()`` and
:func:`compare_protection` turn their keywords into a ``RunOptions``, and
the campaign service carries one per request, and the same object
travels into every pool worker; a fixed-budget run is a single wave over
its whole plan list, and a paired comparison is a group
of two campaigns that replay the leader's plans wave by wave.

For experiment sweeps that run many campaigns back-to-back (the fig6 /
fig9 / fig11-style grids), :class:`~repro.injection.pool.CampaignPool`
keeps worker processes — and their models, executors and golden activation
caches — alive across campaigns, so each campaign after the first skips
the per-campaign spawn and cache-rebuild fixed costs.  Results stay
bit-identical to fresh per-campaign runs (workers rebuild campaigns from
the same pure-function spec either way).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..analysis.metrics import (INTERVAL_METHODS, binomial_interval,
                                merge_count_dicts, merge_partial_count_dicts,
                                stratified_interval, stratified_rate)
from ..analysis.reporting import equivalence_note
from ..graph import DTypePolicy
from ..graph.equivalence import DEFAULT_MAX_ULPS, EquivalenceMode
from ..models.base import Model
from ..parallel.fanout import log_fallback_once
from .fault_models import FaultModel, FaultSpec, SingleBitFlip
from .injector import FaultInjector, InjectionPlan
from .sampling import (Stratification, StratumKey, StratumSpace,
                       neyman_allocation, stratum_rng, uniform_allocation)
from .sdc import SDCCriterion, criteria_for_model
from .streams import trial_rngs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pool imports us)
    from .pool import CampaignPool

#: First spawn-key element of the plan-sampling stream
#: (:meth:`FaultInjectionCampaign.generate_plans`): a two-element key, so
#: it can never collide with the single-element per-trial keys of
#: :func:`trial_rng` (SeedSequence keys of different lengths are distinct
#: streams) nor with the per-stratum keys rooted at
#: :data:`~repro.injection.sampling.STRATUM_STREAM_KEY`.
PLAN_STREAM_KEY = 1

#: Interval method campaign statistics default to (see
#: :func:`repro.analysis.binomial_interval`).  Wilson score: unlike the
#: old normal approximation, its error bars stay honest at the extreme
#: rates protected models produce — at 0 observed SDCs it reports the
#: correct nonzero upper bound instead of a degenerate ±~0% bar.
DEFAULT_INTERVAL_METHOD = "wilson"

#: Fraction of the trial budget one adaptive wave runs when the caller
#: does not pass ``wave_trials`` explicitly.
DEFAULT_WAVE_FRACTION = 0.1

#: Union-cone budget of the cross-site batch packer
#: (:meth:`FaultInjectionCampaign.pack_batches`): a trial joins a batch only
#: while the union of the members' fault cones stays within this factor of
#: the largest single member cone.  Feed-forward cones of topologically
#: adjacent sites nest like suffixes (union ≈ largest member, factor ~1.0);
#: the headroom admits branch divergence (fire modules, residual blocks)
#: while refusing pathological unions of far-apart sites.
DEFAULT_UNION_COST_FACTOR = 1.5


def shard_plans(plans: Sequence[Tuple[int, InjectionPlan]], shards: int
                ) -> List[Tuple[int, List[Tuple[int, InjectionPlan]]]]:
    """Split a trial list into at most ``shards`` contiguous chunks.

    Returns ``(trial_offset, chunk)`` pairs; the offset is the position of
    the chunk's first trial in the original list, which each worker needs to
    derive the correct per-trial RNG streams (see :func:`trial_rng`).  Chunks
    are contiguous and near-even; empty chunks are dropped.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    boundaries = np.array_split(np.arange(len(plans)), shards)
    out: List[Tuple[int, List[Tuple[int, InjectionPlan]]]] = []
    for indices in boundaries:
        if len(indices) == 0:
            continue
        start = int(indices[0])
        out.append((start, list(plans[start:start + len(indices)])))
    return out


@dataclass(frozen=True)
class RunOptions:
    """How a campaign, or a paired group of campaigns, runs.

    The one options object behind every entry point:
    :meth:`FaultInjectionCampaign.run` and :func:`compare_protection` build
    one from their keywords, and each campaign-service request carries one
    (see :mod:`repro.service.serialization`).  Construction validates every
    field, so all entry points refuse the same inputs with the same
    message.  Fields mirror the keywords of :meth:`FaultInjectionCampaign.run`
    and are plain picklable values.  ``use_pool`` routes a service job
    through the server's persistent :class:`~repro.injection.pool.CampaignPool`
    (a wall-clock knob: results are bit-identical on every backend);
    ``joint_stop`` only matters to paired groups (see
    :func:`compare_protection`).
    """

    trials: int = 100
    keep_faults: bool = False
    incremental: bool = True
    workers: int = 1
    batch_trials: int = 1
    equivalence: Optional[str] = None
    max_ulps: float = DEFAULT_MAX_ULPS
    use_pool: bool = False
    target_half_width: Optional[float] = None
    wave_trials: Optional[int] = None
    strata: Optional[Stratification] = None
    z: float = 1.96
    interval_method: str = DEFAULT_INTERVAL_METHOD
    joint_stop: bool = True

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.batch_trials < 1:
            raise ValueError(
                f"batch_trials must be positive, got {self.batch_trials}")
        if self.interval_method not in INTERVAL_METHODS:
            raise ValueError(
                f"unknown interval method {self.interval_method!r}; expected "
                f"one of {INTERVAL_METHODS}")
        mode = self.mode  # rejects unknown equivalence values
        if self.batch_trials > 1 and mode is EquivalenceMode.EXACT:
            raise ValueError(
                "batch_trials > 1 cannot satisfy EXACT equivalence: "
                "BLAS kernels are not bit-stable across batch shapes; "
                "request ULP_TOLERANT (the batched default) or run with "
                "batch_trials=1")
        if self.batch_trials > 1 and not self.incremental:
            raise ValueError(
                "batch_trials > 1 requires the incremental engine "
                "(batched replay resumes from golden activation caches)")
        if (self.target_half_width is not None
                and not 0.0 < self.target_half_width < 1.0):
            raise ValueError(
                f"target_half_width must be in (0, 1), got "
                f"{self.target_half_width}")
        if self.wave_trials is not None and self.wave_trials < 1:
            raise ValueError(
                f"wave_trials must be positive, got {self.wave_trials}")
        if self.strata is not None and not self.joint_stop:
            raise ValueError(
                "stratified groups stop jointly: the Neyman allocation pools "
                "every campaign's stratum statistics, so independent stopping "
                "would let an idle campaign perturb the plans the others draw")

    @property
    def mode(self) -> EquivalenceMode:
        """The equivalence mode the run satisfies: ``equivalence`` when
        given, else ``EXACT`` at ``batch_trials=1`` and ``ULP_TOLERANT``
        above it."""
        return EquivalenceMode.coerce(
            self.equivalence, EquivalenceMode.EXACT if self.batch_trials == 1
            else EquivalenceMode.ULP_TOLERANT)

    @property
    def waved(self) -> bool:
        """Whether the run is adaptive or waved: it reports its budget and
        wave count, and may stream ``on_wave`` snapshots."""
        return (self.target_half_width is not None
                or self.strata is not None
                or self.wave_trials is not None)

    def canonical(self) -> Tuple:
        """The deterministic tuple the campaign service's result
        fingerprint hashes (:func:`repro.service.result_fingerprint`).

        Includes everything that shapes a result's content — counts and
        fault records (trials, adaptivity, strata), metadata (equivalence
        mode, interval method) *and* the execution counters (backend
        knobs: ``workers`` / ``batch_trials`` / ``use_pool`` change
        ``nodes_recomputed`` even though counts stay bit-identical) — so a
        cache hit returns exactly what a fresh run would.  The leading tag
        versions the tuple's layout and the content it keys, so disk-tier
        entries keyed under an older tag never alias a current key
        (``"v3"``: served compare jobs began honouring ``keep_faults`` and
        ``max_ulps``).
        """
        strata = (None if self.strata is None
                  else (self.strata.layer_bands, self.strata.bit_bands))
        return ("v3", self.trials, self.keep_faults, self.incremental,
                self.workers, self.batch_trials, self.mode.value,
                self.max_ulps, self.use_pool,
                self.target_half_width, self.wave_trials, strata, self.z,
                self.interval_method, self.joint_stop)


@dataclass
class CampaignResult:
    """Aggregated results of one fault-injection campaign (or one shard)."""

    model_name: str
    fault_model: str
    trials: int
    sdc_counts: Dict[str, int]
    detected_count: int = 0
    faults: List[List[FaultSpec]] = field(default_factory=list)
    #: Incremental-execution statistics: how many node evaluations the
    #: campaign actually performed vs. what full re-execution would have
    #: performed.  Both stay 0 when the campaign ran in full mode.  For
    #: batched runs, one node re-evaluated for R of B stacked rows counts
    #: as R evaluations (the batched analogue of per-trial node counts).
    nodes_recomputed: int = 0
    nodes_full: int = 0
    #: The numerical guarantee these results satisfy (an
    #: :class:`~repro.graph.EquivalenceMode` value): ``"exact"`` for the
    #: bit-exact incremental/full paths, ``"ulp_tolerant"`` for batched
    #: replay (BLAS kernels are not bit-stable across batch shapes).
    equivalence: str = EquivalenceMode.EXACT.value
    #: Largest ULP distance between a row that batched change propagation
    #: declared clean and its batch-1 golden value — the tolerance the
    #: snapped-back rows consumed; rows that stay dirty are not measured
    #: (see :class:`~repro.graph.executor.BatchedExecutionResult`).  Always
    #: 0.0 for exact runs.
    max_ulp_deviation: float = 0.0
    #: Batch-occupancy statistics (all 0 outside the batched path):
    #: ``batch_count`` batched executor calls replayed ``batched_trials``
    #: trials, and the batches' union cones contained
    #: ``union_overhead_nodes`` more (node, needed)-restricted cone nodes
    #: than their largest single member's cone would alone — the static
    #: price of packing different sites together.  Without these the
    #: occupancy lift of cross-site packing is unmeasurable.
    batch_count: int = 0
    batched_trials: int = 0
    union_overhead_nodes: int = 0
    #: Conv output positions (summed over stacked rows) batched replay
    #: computed, and those a full conv would have computed; they differ
    #: where windowed conv served positions from the golden output (both
    #: 0 outside the batched path).
    conv_positions_evaluated: int = 0
    conv_positions_total: int = 0
    #: The same for batched replay's pointwise operators with NHWC
    #: outputs: spatial positions evaluated inside the carried boxes, and
    #: all positions of the re-evaluated rows.
    pointwise_positions_evaluated: int = 0
    pointwise_positions_total: int = 0
    #: Retired element-level replay counters, always 0: every replay
    #: evaluates whole dense rows.  Kept (and merged) so readers of the
    #: per-element accounting — the campaign benchmark's traced metrics —
    #: keep working; they report 0 elements and 0 fallback nodes.
    elements_evaluated: int = 0
    elements_full: int = 0
    dense_fallback_nodes: int = 0
    #: Interval method every rate statistic of this result uses (a
    #: :data:`repro.analysis.INTERVAL_METHODS` member).
    interval_method: str = DEFAULT_INTERVAL_METHOD
    #: Adaptive-campaign metadata (all zero / ``None`` for fixed-budget
    #: runs): the trial budget the campaign was allowed, how many waves it
    #: actually ran, and the CI half-width it was asked to reach.
    #: ``trials < trials_budget`` means the stopping rule fired early.
    trials_budget: int = 0
    waves: int = 0
    target_half_width: Optional[float] = None
    #: Stratified-sampling accounting (all empty for uniform campaigns).
    #: ``stratum_weights[h]`` is the probability a *uniform* fault lands in
    #: stratum ``h`` (``q_h``, summing to 1 over the stratum space);
    #: ``stratum_trials[h]`` / ``stratum_sdc_counts[criterion][h]`` are the
    #: trials allocated to and SDC counts observed in ``h``.  All three
    #: merge additively / by union, so shards stay order-insensitive.
    #: When present, ``sdc_rate`` / ``confidence_interval`` return the
    #: Horvitz–Thompson reweighted (unbiased) statistics instead of the
    #: allocation-biased raw ``sdc_counts / trials`` ratio.
    stratum_weights: Dict[StratumKey, float] = field(default_factory=dict)
    stratum_trials: Dict[StratumKey, int] = field(default_factory=dict)
    stratum_sdc_counts: Dict[str, Dict[StratumKey, int]] = field(
        default_factory=dict)

    @property
    def is_stratified(self) -> bool:
        """Whether rates are Horvitz–Thompson estimates over strata."""
        return bool(self.stratum_trials)

    @property
    def stopped_early(self) -> bool:
        """Whether the sequential stopping rule fired before the budget."""
        return 0 < self.trials < self.trials_budget

    @property
    def mean_batch_occupancy(self) -> Optional[float]:
        """Mean stacked rows per batched executor call (None when unbatched)."""
        if self.batch_count == 0:
            return None
        return self.batched_trials / self.batch_count

    @property
    def batched_fraction(self) -> float:
        """Fraction of trials replayed through the batched path."""
        if self.trials == 0:
            return 0.0
        return self.batched_trials / self.trials

    @property
    def conv_window_fraction(self) -> Optional[float]:
        """Share of batched conv output positions actually computed."""
        if self.conv_positions_total == 0:
            return None
        return self.conv_positions_evaluated / self.conv_positions_total

    @property
    def pointwise_box_fraction(self) -> Optional[float]:
        """Share of batched pointwise output positions actually computed."""
        if self.pointwise_positions_total == 0:
            return None
        return (self.pointwise_positions_evaluated
                / self.pointwise_positions_total)

    @property
    def recompute_fraction(self) -> Optional[float]:
        """Fraction of node evaluations partial re-execution paid for."""
        if self.nodes_full == 0:
            return None
        return self.nodes_recomputed / self.nodes_full

    def sdc_rate(self, criterion: str) -> float:
        """SDC rate (fraction in [0, 1]) for one criterion.

        For stratified campaigns this is the unbiased Horvitz–Thompson
        estimate (per-stratum rates reweighted by the strata's share of
        the fault space, see :func:`repro.analysis.stratified_rate`) —
        the raw ``sdc_counts / trials`` ratio is biased by the adaptive
        allocation and remains available through those fields directly.
        """
        if self.trials == 0:
            return 0.0
        if self.is_stratified:
            return stratified_rate(self.stratum_weights,
                                   self.stratum_sdc_counts[criterion],
                                   self.stratum_trials)
        return self.sdc_counts[criterion] / self.trials

    def sdc_rate_percent(self, criterion: str) -> float:
        return 100.0 * self.sdc_rate(criterion)

    def confidence_interval(self, criterion: str,
                            z: float = 1.96) -> Tuple[float, float]:
        """Confidence interval on the SDC rate (95% for the default z).

        Computed by ``interval_method`` — Wilson score by default, which
        (unlike the normal approximation this result used to apply) keeps
        a correct nonzero upper bound when 0 SDCs were observed.
        Stratified campaigns get the normal-approximation interval of the
        Horvitz–Thompson estimator with Jeffreys-smoothed per-stratum
        variances (:func:`repro.analysis.stratified_interval`).
        """
        if self.trials == 0:
            return 0.0, 0.0
        if self.is_stratified:
            return stratified_interval(self.stratum_weights,
                                       self.stratum_sdc_counts[criterion],
                                       self.stratum_trials, z=z)
        return binomial_interval(self.sdc_counts[criterion], self.trials,
                                 z=z, method=self.interval_method)

    def half_width(self, criterion: str, z: float = 1.96) -> float:
        """CI half-width on one criterion — the stopping-rule statistic."""
        low, high = self.confidence_interval(criterion, z)
        return (high - low) / 2.0

    def error_bar_percent(self, criterion: str, z: float = 1.96) -> float:
        return 100.0 * self.half_width(criterion, z)

    @property
    def criteria(self) -> List[str]:
        return list(self.sdc_counts.keys())

    @classmethod
    def merge(cls, shards: Iterable["CampaignResult"]) -> "CampaignResult":
        """Combine per-shard partial results into one campaign result.

        All counters are additive, so the merge is order-insensitive for
        every statistic: the merged ``sdc_rate``, ``confidence_interval``
        and ``recompute_fraction`` equal those of an unsharded run over the
        same trials.  Fault logs are concatenated in the given shard order
        (the parallel backend passes shards in trial order, so the merged
        log matches a serial ``keep_faults`` run).  Shards must describe the
        same campaign: same model, same fault model, same criterion set.
        """
        shards = list(shards)
        if not shards:
            raise ValueError("merge() requires at least one shard result")
        first = shards[0]
        for other in shards[1:]:
            if (other.model_name != first.model_name
                    or other.fault_model != first.fault_model):
                raise ValueError(
                    f"cannot merge results of different campaigns: "
                    f"{first.model_name} [{first.fault_model}] vs. "
                    f"{other.model_name} [{other.fault_model}]")
            if other.equivalence != first.equivalence:
                raise ValueError(
                    f"cannot merge shards with different equivalence "
                    f"guarantees: {first.equivalence} vs. "
                    f"{other.equivalence}")
            if other.interval_method != first.interval_method:
                raise ValueError(
                    f"cannot merge shards with different interval methods: "
                    f"{first.interval_method} vs. {other.interval_method}")
        # Stratum weights describe the stratum *space*, not a shard's
        # sample, so overlapping shards must agree on them; trials and
        # counts are per-shard samples and merge additively by key union.
        stratum_weights: Dict[StratumKey, float] = {}
        for shard in shards:
            for key, weight in shard.stratum_weights.items():
                if key in stratum_weights and stratum_weights[key] != weight:
                    raise ValueError(
                        f"cannot merge shards with conflicting weights for "
                        f"stratum {key}: {stratum_weights[key]} vs. {weight}")
                stratum_weights[key] = weight
        stratum_trials = merge_partial_count_dicts(
            s.stratum_trials for s in shards)
        criteria_with_strata = {name for s in shards
                                for name in s.stratum_sdc_counts}
        stratum_sdc_counts = {
            name: merge_partial_count_dicts(
                s.stratum_sdc_counts.get(name, {}) for s in shards)
            for name in sorted(criteria_with_strata)}
        return cls(
            model_name=first.model_name,
            fault_model=first.fault_model,
            trials=sum(s.trials for s in shards),
            sdc_counts=merge_count_dicts([s.sdc_counts for s in shards]),
            detected_count=sum(s.detected_count for s in shards),
            faults=[faults for s in shards for faults in s.faults],
            nodes_recomputed=sum(s.nodes_recomputed for s in shards),
            nodes_full=sum(s.nodes_full for s in shards),
            equivalence=first.equivalence,
            max_ulp_deviation=max(s.max_ulp_deviation for s in shards),
            batch_count=sum(s.batch_count for s in shards),
            batched_trials=sum(s.batched_trials for s in shards),
            union_overhead_nodes=sum(s.union_overhead_nodes for s in shards),
            conv_positions_evaluated=sum(s.conv_positions_evaluated
                                         for s in shards),
            conv_positions_total=sum(s.conv_positions_total for s in shards),
            pointwise_positions_evaluated=sum(
                s.pointwise_positions_evaluated for s in shards),
            pointwise_positions_total=sum(s.pointwise_positions_total
                                          for s in shards),
            elements_evaluated=sum(s.elements_evaluated for s in shards),
            elements_full=sum(s.elements_full for s in shards),
            dense_fallback_nodes=sum(s.dense_fallback_nodes for s in shards),
            interval_method=first.interval_method,
            trials_budget=max(s.trials_budget for s in shards),
            waves=max(s.waves for s in shards),
            target_half_width=next(
                (s.target_half_width for s in shards
                 if s.target_half_width is not None), None),
            stratum_weights=stratum_weights,
            stratum_trials=stratum_trials,
            stratum_sdc_counts=stratum_sdc_counts,
        )

    def summary(self) -> str:
        lines = [f"{self.model_name} [{self.fault_model}] — {self.trials} trials"]
        lines.append(
            "  " + equivalence_note(self.equivalence, self.max_ulp_deviation))
        if self.trials_budget:
            stopped = ("stopped early" if self.stopped_early
                       else "budget exhausted")
            target = (f", target ±{100.0 * self.target_half_width:.2f}%"
                      if self.target_half_width is not None else "")
            lines.append(
                f"  adaptive: {self.trials}/{self.trials_budget} trials in "
                f"{self.waves} waves ({stopped}{target})")
        if self.is_stratified:
            lines.append(
                f"  stratified: {len(self.stratum_trials)} strata sampled "
                f"(of {len(self.stratum_weights)}); rates are "
                f"Horvitz–Thompson reweighted")
        method = ("stratified-ht" if self.is_stratified
                  else self.interval_method)
        lines.append(f"  intervals: {method}")
        if self.batch_count:
            lines.append(
                f"  batched: {self.batched_trials}/{self.trials} trials "
                f"({100.0 * self.batched_fraction:.1f}%) in "
                f"{self.batch_count} batches, mean occupancy "
                f"{self.mean_batch_occupancy:.1f} rows/batch, union-cone "
                f"overhead {self.union_overhead_nodes} nodes")
        for criterion in self.criteria:
            count = self.sdc_counts[criterion]
            lines.append(
                f"  {criterion:20s} SDC rate = "
                f"{self.sdc_rate_percent(criterion):6.2f}% "
                f"(± {self.error_bar_percent(criterion):.2f}%) "
                f"[{count}/{self.trials} trials]")
        return "\n".join(lines)


class FaultInjectionCampaign:
    """Runs a fault-injection campaign against one model.

    Parameters
    ----------
    model:
        The model under test.
    inputs:
        Array of evaluation inputs (the paper uses inputs the model predicts
        correctly in the fault-free case; see
        ``PreparedModel.correctly_predicted_inputs``).
    fault_model:
        The fault model to apply (defaults to a 32-bit fixed-point single bit
        flip).
    criteria:
        SDC criteria; defaults to the model-appropriate set.
    dtype_policy:
        Optional executor dtype policy (e.g. a fixed-point policy).

    Construction profiles the injectable state space only.  The golden
    outputs the SDC verdicts compare against are computed at the first
    verdict, and each input's golden activation cache at its first
    trial, so a campaign whose trials all run in pool workers never pays
    for them in the parent.  A fork pool that starts its workers with
    the campaign (:meth:`~repro.injection.pool.CampaignPool.start_with`)
    builds the golden outputs before the fork, so the workers inherit
    them.
    """

    def __init__(self, model: Model, inputs: np.ndarray,
                 fault_model: Optional[FaultModel] = None,
                 criteria: Optional[Sequence[SDCCriterion]] = None,
                 dtype_policy: Optional[DTypePolicy] = None,
                 seed: int = 0) -> None:
        spec = CampaignSpec.of(model, inputs, fault_model=fault_model,
                               criteria=criteria, dtype_policy=dtype_policy,
                               seed=seed)
        self.model = model
        self.inputs = spec.inputs
        self.fault_model = spec.fault_model
        self.criteria = spec.criteria
        self.dtype_policy = dtype_policy
        self.seed = seed
        self.injector = FaultInjector(model, self.fault_model, seed=seed)
        self._executor = model.executor(dtype_policy)
        self.injector.profile_state_space(self.inputs[:1], self._executor)
        #: Golden outputs (:attr:`_golden`), computed at the first verdict.
        self._golden_outputs: Optional[List[np.ndarray]] = None
        #: Per-input golden activation caches for partial re-execution,
        #: built lazily the first time a trial uses an input.
        self._golden_caches: Dict[int, Dict[str, np.ndarray]] = {}
        #: Hoisted per-fault-node-set packing state of :meth:`pack_batches`:
        #: the within-plan overlap verdict and the needed-restricted union
        #: cone.  Both depend only on the node *set*, and campaigns sample
        #: the same sets over and over, so screening/packing cost stays
        #: O(trials log trials) instead of paying cone queries per trial.
        self._overlap_memo: Dict[frozenset, bool] = {}
        self._cone_memo: Dict[frozenset, frozenset] = {}
        self._needed_nodes: Optional[frozenset] = None
        #: Memoized :func:`~repro.injection.pool.spec_fingerprint` of
        #: this campaign's spec — every field it hashes is fixed at
        #: construction, so computing it once is safe
        #: (:meth:`CampaignSpec.build` may hand it over precomputed).
        self._fingerprint: Optional[str] = None

    # -- setup ------------------------------------------------------------------

    @property
    def _golden(self) -> List[np.ndarray]:
        """Golden output per input, computed on first use.

        Only a campaign that takes verdicts reads them: the parent of a
        pooled run never does, so it never pays the batched pass
        (:meth:`~repro.injection.pool.CampaignPool.start_with` builds
        them before it forks workers that inherit the campaign).
        """
        if self._golden_outputs is None:
            self._golden_outputs = self._compute_golden_outputs()
        return self._golden_outputs

    def _compute_golden_outputs(self) -> List[np.ndarray]:
        """Golden (fault-free) output per input, in one batched forward pass.

        Batched rows can differ from batch-1 runs in the last ulp (BLAS
        blocking), so these goldens are for *SDC classification only* —
        argmax / threshold comparisons, which a last-ulp difference cannot
        realistically flip.  Both the incremental and the full campaign
        paths compare faulty outputs against these same values, so the
        paths remain exactly equivalent to each other; bit-exact golden
        activations (for partial re-execution) come from the batch-1
        caches built by :meth:`_golden_cache`.
        """
        result = self._executor.run({self.model.input_name: self.inputs},
                                    outputs=[self.model.output_name])
        output = result.output(self.model.output_name)
        return [output[i:i + 1] for i in range(len(self.inputs))]

    def _golden_cache(self, input_index: int) -> Dict[str, np.ndarray]:
        """The full activation cache of input ``input_index``, built once.

        Caches are built at batch size 1 — the batch size every trial runs
        at — rather than sliced out of one batched pass: BLAS kernels pick
        different blocking for different batch shapes, so batched rows can
        differ from single-example runs in the last ulp, which would break
        the bit-identical guarantee of partial re-execution.
        """
        cache = self._golden_caches.get(input_index)
        if cache is None:
            batch = self.inputs[input_index:input_index + 1]
            result = self._executor.run({self.model.input_name: batch},
                                        outputs=[self.model.output_name])
            cache = result.values
            self._golden_caches[input_index] = cache
        return cache

    # -- plan generation -----------------------------------------------------------

    def generate_plans(self, trials: int
                       ) -> List[Tuple[int, InjectionPlan]]:
        """Pre-sample (input index, injection plan) pairs for ``trials`` runs.

        Sharing the returned list between the unprotected and protected
        campaigns makes the comparison paired.  Input indices and fault
        sites are each drawn in a single vectorized call.  The sampled list
        is a pure function of the campaign seed: parallel runs ship these
        pre-sampled pairs to the workers, so chunking and worker count
        cannot perturb them.

        The input-index stream is the ``(PLAN_STREAM_KEY, 0)``-keyed child
        of the campaign seed's ``SeedSequence`` — a properly spawned
        stream, statistically independent of every per-trial and
        per-stratum stream by construction (the old ``seed + 1`` ad-hoc
        derivation could collide with a sibling campaign seeded at
        ``seed + 1``).
        """
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=self.seed, spawn_key=(PLAN_STREAM_KEY, 0)))
        input_indices = rng.integers(len(self.inputs), size=trials)
        plans = self.injector.sample_plans(trials)
        return [(int(index), plan)
                for index, plan in zip(input_indices, plans)]

    # -- execution -----------------------------------------------------------------

    def spec(self) -> "CampaignSpec":
        """The picklable description a worker process rebuilds this campaign from."""
        return CampaignSpec(model=self.model, inputs=self.inputs,
                            fault_model=self.fault_model,
                            criteria=list(self.criteria),
                            dtype_policy=self.dtype_policy, seed=self.seed)

    def spec_fingerprint(self) -> str:
        """Content fingerprint of this campaign's spec, computed once.

        The SHA-1 the :class:`~repro.injection.pool.CampaignPool` worker
        cache and the service's :class:`~repro.service.store.ArtifactStore`
        key by.
        """
        if self._fingerprint is None:
            from .pool import spec_fingerprint
            self._fingerprint = spec_fingerprint(self.spec())
        return self._fingerprint

    def run(self, trials: int = 100,
            plans: Optional[List[Tuple[int, InjectionPlan]]] = None,
            keep_faults: bool = False,
            incremental: bool = True,
            workers: int = 1,
            trial_offset: int = 0,
            batch_trials: int = 1,
            equivalence=None,
            max_ulps: float = DEFAULT_MAX_ULPS,
            pool: Optional["CampaignPool"] = None,
            target_half_width: Optional[float] = None,
            wave_trials: Optional[int] = None,
            strata: Optional[Stratification] = None,
            z: float = 1.96,
            interval_method: str = DEFAULT_INTERVAL_METHOD,
            on_wave: Optional[Callable[[CampaignResult], None]] = None,
            ) -> CampaignResult:
        """Run the campaign and return aggregated SDC statistics.

        Parameters
        ----------
        incremental:
            When True (default), each input's golden activation cache is
            built once and every trial is replayed by partial re-execution
            of the fault's downstream cone (bit-identical to a full faulty
            run).  When False, every trial re-executes the whole graph —
            the legacy path, kept for equivalence testing and benchmarking.
        workers:
            Number of worker processes.  ``1`` (default) runs in-process;
            ``N > 1`` pre-samples the plans, shards them into contiguous
            chunks, and fans the chunks out over one ephemeral
            :class:`~repro.injection.pool.CampaignPool` of ``N`` processes
            (opened once for the whole call, every adaptive wave
            included) that rebuild the campaign from its :meth:`spec`.
            Results are bit-identical for every worker count (see the
            module docstring's determinism guarantee).
        trial_offset:
            Global index of the first trial in ``plans``, so a slice of a
            larger plan list derives the same per-trial RNG streams the
            whole run would.  Waved runs own the whole trial index space,
            so it must be 0 for them.
        batch_trials:
            Maximum number of trials replayed per batched executor call.
            ``1`` (default) keeps the bit-exact incremental path.  ``B > 1``
            packs trials that share an *input* — across different fault
            sites — into union-cone batches (:meth:`pack_batches`) and
            replays each batch by stacking its corrupted activations along
            the batch dimension, each row entering the replay at its own
            site (one BLAS call over a node's dirty rows instead of one
            call per trial) — see :meth:`FaultInjector.inject_cached_batch`.
            Trial identity is untouched (every trial keeps its own
            :func:`trial_rng` stream), so batching composes with
            ``workers=N`` and with paired comparisons; only the numerical
            guarantee weakens from bit-exact to ``ULP_TOLERANT``.
        equivalence:
            The :class:`~repro.graph.EquivalenceMode` (or its string value)
            the run must satisfy.  Defaults to ``EXACT`` for
            ``batch_trials=1`` and ``ULP_TOLERANT`` otherwise; requesting
            ``EXACT`` together with ``batch_trials > 1`` raises
            ``ValueError`` because batched BLAS calls cannot promise bit
            stability.
        max_ulps:
            Row-masking tolerance (float64 ULPs) for batched replay.
        pool:
            Optional :class:`~repro.injection.pool.CampaignPool`.  When
            given (and more than one trial is to run), the campaign is
            fanned out across the pool's persistent worker processes
            instead of an ephemeral pool — back-to-back campaigns then
            reuse the workers' models and golden caches.
            Results are bit-identical either way; ``workers`` is ignored
            in favour of the pool's size.
        target_half_width:
            When set, the campaign runs **adaptively**: trials execute in
            waves of ``wave_trials`` each, and the campaign stops as soon
            as the CI half-width on *every* criterion drops to the target
            (or the ``trials`` budget is exhausted).  Because plans are
            pre-sampled and every trial keeps its index-keyed
            :func:`trial_rng` stream, a stopped campaign is bit-identical
            to the same-length *prefix* of the fixed-budget run — only the
            point at which it stops looking is adaptive.  The returned
            result records ``trials_budget`` / ``waves`` /
            ``target_half_width``.
        wave_trials:
            Trials per adaptive wave; defaults to 10% of the budget
            (stratified campaigns bump it to at least one trial per
            stratum so the uniform first wave covers the space).  Setting
            it without a target runs waves to the full budget — useful
            with ``strata`` for pure importance sampling.
        strata:
            A :class:`~repro.injection.sampling.Stratification`: the
            campaign partitions the fault space into (layer band × bit
            band) strata, allocates the first wave uniformly and later
            waves Neyman-style toward strata with uncertain verdicts, and
            reports unbiased Horvitz–Thompson rates (see the result's
            ``stratum_*`` fields).  Sampling leaves the uniform
            distribution *within* each stratum untouched; only the
            between-strata allocation adapts, and the reweighting removes
            that bias.  Mutually exclusive with explicit ``plans``.
        z:
            Critical value of the stopping rule's intervals (1.96 ≈ 95%).
        interval_method:
            Interval flavour for the result's statistics and the stopping
            rule: ``"wilson"`` (default), ``"jeffreys"`` or ``"normal"``.
        on_wave:
            Optional per-wave snapshot hook for adaptive / waved runs:
            after every wave the merged-so-far :class:`CampaignResult` is
            passed to the callback (the order-insensitive merge makes
            each snapshot a valid partial result whose counts are a
            prefix of the final ones).  The campaign service streams
            these snapshots to subscribers; an exception raised by the
            callback aborts the run (the service uses this for
            cancellation).  Requires a waved run — set
            ``target_half_width`` or ``wave_trials``.
        """
        options = RunOptions(
            trials=len(plans) if plans is not None else trials,
            keep_faults=keep_faults, incremental=incremental,
            workers=workers, batch_trials=batch_trials,
            equivalence=equivalence, max_ulps=max_ulps,
            target_half_width=target_half_width, wave_trials=wave_trials,
            strata=strata, z=z, interval_method=interval_method)
        _check_on_wave(options, on_wave)
        hook = None if on_wave is None else (
            lambda snapshots: on_wave(snapshots[0]))
        return run_group([self], options, plans=plans,
                         trial_offset=trial_offset, pool=pool,
                         on_wave=hook)[0]

    def _dispatch(self, plans: List[Tuple[int, InjectionPlan]],
                  options: RunOptions, *, trial_offset: int,
                  packing: Optional[Tuple[List[Tuple[int, List[int]]],
                                          List[int]]],
                  pool: Optional["CampaignPool"]) -> CampaignResult:
        """Run one wave's plan list through the backend dispatch.

        The pool → batched → serial routing :func:`run_group` sends every
        wave chunk through, anchored by ``trial_offset``; a pool worker
        calls it directly for its shard (with ``pool=None``).
        """
        if pool is not None and len(plans) > 1:
            return pool.run_plans(self, plans, options, trial_offset)
        if options.batch_trials > 1:
            return self._run_batched(plans, options, trial_offset=trial_offset,
                                     packing=packing)
        sdc_counts = {criterion.name: 0 for criterion in self.criteria}
        fault_log = [None] * len(plans) if options.keep_faults else None
        nodes_recomputed = self._replay_each(
            plans, range(len(plans)), trial_offset, options.incremental,
            sdc_counts, fault_log)
        # Per-trial cost of the full path: the ancestor-pruned subgraph it
        # actually evaluates, not the whole graph.
        nodes_full = (len(plans) * self._full_cost() if options.incremental
                      else 0)
        return CampaignResult(model_name=self.model.name,
                              fault_model=self.fault_model.describe(),
                              trials=len(plans), sdc_counts=sdc_counts,
                              faults=fault_log or [],
                              nodes_recomputed=nodes_recomputed,
                              nodes_full=nodes_full,
                              equivalence=options.mode.value)

    def _full_cost(self) -> int:
        return len(self.model.graph.ancestors([self.model.output_name]))

    def _replay_each(self, plans: Sequence[Tuple[int, InjectionPlan]],
                     positions: Sequence[int], trial_offset: int,
                     incremental: bool, sdc_counts: Dict[str, int],
                     fault_log: Optional[List[Optional[List[FaultSpec]]]],
                     ) -> int:
        """Replay ``plans[p]`` for each ``p`` in ``positions``, one trial
        at a time: inject, count the SDC verdicts into ``sdc_counts`` and
        store the applied faults at ``fault_log[p]`` (``None``: keep no
        faults).  Returns the node evaluations the replays cost (0 when
        not ``incremental``: each trial then re-executes the whole graph).

        The one per-trial loop: serial runs pass every position, and
        batched runs the positions whose fault sites overlap.
        """
        nodes_recomputed = 0
        rngs = trial_rngs(self.seed, [trial_offset + position
                                      for position in positions])
        for position, rng in zip(positions, rngs):
            input_index, plan = plans[position]
            golden = self._golden[input_index]
            if incremental:
                faulty, faults, result = self.injector.inject_cached(
                    self._executor, self._golden_cache(input_index), plan,
                    rng=rng)
                nodes_recomputed += len(result.recomputed or ())
            else:
                batch = self.inputs[input_index:input_index + 1]
                faulty, faults = self.injector.inject(self._executor, batch,
                                                      plan, rng=rng)
            for criterion in self.criteria:
                if criterion.is_sdc(golden, faulty):
                    sdc_counts[criterion.name] += 1
            if fault_log is not None:
                fault_log[position] = faults
        return nodes_recomputed

    # -- batched scheduling ------------------------------------------------

    # Per-node-set memo helpers: overlap verdicts and cones depend only on
    # the fault-node *set*, which repeats across thousands of trials.

    def _sites_overlap(self, sites: frozenset) -> bool:
        verdict = self._overlap_memo.get(sites)
        if verdict is None:
            verdict = self.injector.sites_overlap(sites)
            self._overlap_memo[sites] = verdict
        return verdict

    def _cone_in_needed(self, sites: frozenset) -> frozenset:
        """The union cone of ``sites`` restricted to nodes the output needs."""
        cone = self._cone_memo.get(sites)
        if cone is None:
            graph = self.model.graph
            if self._needed_nodes is None:
                self._needed_nodes = frozenset(
                    graph.ancestors([self.model.output_name]))
            cone = graph.downstream_union(sites) & self._needed_nodes
            self._cone_memo[sites] = cone
        return cone

    def pack_batches(self, plans: Sequence[Tuple[int, InjectionPlan]],
                     batch_trials: int,
                     union_cost_factor: Optional[float] = None,
                     ) -> Tuple[List[Tuple[int, List[int]]], List[int]]:
        """Pack trials into cross-site batches by cone-suffix affinity.

        Trials only need to share an *input* to stack (each row enters the
        replay at its own fault site), so the packer greedily fills batches
        to the full ``batch_trials`` width instead of stopping at
        identical-site groups.  Per input, trials are ordered by the
        topological index of their earliest fault site (sites adjacent in
        topological order have nested, suffix-like cones in feed-forward
        graphs — their union costs barely more than the largest member),
        with identical fault-node sets kept adjacent; a trial joins the
        current batch
        while the batch has room **and** the union cone stays within
        ``union_cost_factor`` times the largest member cone (both
        restricted to the output's ancestor set).  A trial whose cone
        would blow that budget — pathological unions of far-apart sites —
        closes the batch and starts a fresh one, which degenerates to
        per-site groups in the worst case.

        All per-node-set state (overlap verdicts, union cones) is memoized,
        so packing costs O(trials log trials) set-joins in the trial count.
        Returns ``(batches, fallback)``: each batch is ``(input_index,
        positions)``, and ``fallback`` lists positions of plans with
        overlapping sites, which replay hook-based one at a time.  Packing
        is deterministic and never reorders trial identities (every
        position keeps its :func:`trial_rng` stream).
        """
        if union_cost_factor is None:
            union_cost_factor = DEFAULT_UNION_COST_FACTOR
        topo = self.model.graph.topo_index()
        fallback: List[int] = []
        per_input: Dict[int, List[Tuple[int, tuple, int, frozenset]]] = {}
        for position, (input_index, plan) in enumerate(plans):
            sites = frozenset(plan.node_names())
            if self._sites_overlap(sites):
                fallback.append(position)
                continue
            entry = min(topo[name] for name in sites)
            per_input.setdefault(input_index, []).append(
                (entry, tuple(sorted(sites)), position, sites))

        batches: List[Tuple[int, List[int]]] = []
        for input_index in sorted(per_input):
            items = per_input[input_index]
            items.sort(key=lambda item: item[:3])
            positions: List[int] = []
            union: set = set()
            largest_member = 0
            for _, _, position, sites in items:
                cone = self._cone_in_needed(sites)
                if positions:
                    grown_union = len(union) + len(cone - union)
                    grown_member = max(largest_member, len(cone))
                    if (len(positions) >= batch_trials
                            or grown_union > union_cost_factor * grown_member):
                        batches.append((input_index, positions))
                        positions, union, largest_member = [], set(), 0
                positions.append(position)
                union |= cone
                largest_member = max(largest_member, len(cone))
            if positions:
                batches.append((input_index, positions))
        return batches, fallback

    def _union_overhead(self, positions: Sequence[int],
                        plans: Sequence[Tuple[int, InjectionPlan]]) -> int:
        """Extra needed-cone nodes a batch's union walks beyond its largest
        member's cone — the static price of packing different sites
        together (0 for identical-site and perfectly nested batches).

        Computed against *this* campaign's graph, so a packing reused from
        a sibling campaign (the paired protected side) is priced against
        the graph that actually replays it.
        """
        cones = {self._cone_in_needed(frozenset(plans[p][1].node_names()))
                 for p in positions}
        if len(cones) <= 1:
            return 0
        union: set = set()
        for cone in cones:
            union |= cone
        return len(union) - max(len(cone) for cone in cones)

    def _run_batched(self, plans: List[Tuple[int, InjectionPlan]],
                     options: RunOptions, trial_offset: int,
                     packing: Optional[Tuple[List[Tuple[int, List[int]]],
                                             List[int]]],
                     ) -> CampaignResult:
        """Serial batched backend: replay packed trials in stacked passes.

        ``packing`` supplies the :meth:`pack_batches` groups of the group
        leader (``None``: pack here), so the paired arms of a comparison
        replay bit-aligned groups without packing twice.
        """
        mode = options.mode
        sdc_counts = {criterion.name: 0 for criterion in self.criteria}
        fault_log = [None] * len(plans) if options.keep_faults else None
        nodes_recomputed = 0
        nodes_full = len(plans) * self._full_cost()
        max_deviation = 0.0
        batched_trials = 0
        union_overhead = 0
        conv_evaluated = conv_total = 0
        pointwise_evaluated = pointwise_total = 0

        batches, fallback = (
            packing if packing is not None
            else self.pack_batches(plans, options.batch_trials))
        for input_index, positions in batches:
            cache = self._golden_cache(input_index)
            golden = self._golden[input_index]
            batch_plans = [plans[position][1] for position in positions]
            rngs = list(trial_rngs(self.seed, [trial_offset + position
                                               for position in positions]))
            stacked, faults, result = self.injector.inject_cached_batch(
                self._executor, cache, batch_plans, rngs,
                equivalence=mode, max_ulps=options.max_ulps,
                validate_overlap=False)  # the packer already screened
            nodes_recomputed += result.rows_evaluated
            max_deviation = max(max_deviation, result.max_ulp_deviation)
            conv_evaluated += result.conv_positions_evaluated
            conv_total += result.conv_positions_total
            pointwise_evaluated += result.pointwise_positions_evaluated
            pointwise_total += result.pointwise_positions_total
            batched_trials += len(positions)
            union_overhead += self._union_overhead(positions, plans)
            for criterion in self.criteria:
                verdicts = criterion.is_sdc_rows(golden, stacked)
                sdc_counts[criterion.name] += int(np.count_nonzero(verdicts))
            if fault_log is not None:
                for position, trial_faults in zip(positions, faults):
                    fault_log[position] = trial_faults
        if fallback:
            log_fallback_once(
                "batched: overlapping sites",
                "%d of %d trials have a fault site inside another site's "
                "cone and replay one at a time instead of batched",
                len(fallback), len(plans))
        nodes_recomputed += self._replay_each(
            plans, fallback, trial_offset, True, sdc_counts, fault_log)

        return CampaignResult(model_name=self.model.name,
                              fault_model=self.fault_model.describe(),
                              trials=len(plans), sdc_counts=sdc_counts,
                              faults=fault_log or [],
                              nodes_recomputed=nodes_recomputed,
                              nodes_full=nodes_full,
                              equivalence=mode.value,
                              max_ulp_deviation=max_deviation,
                              batch_count=len(batches),
                              batched_trials=batched_trials,
                              union_overhead_nodes=union_overhead,
                              conv_positions_evaluated=conv_evaluated,
                              conv_positions_total=conv_total,
                              pointwise_positions_evaluated=pointwise_evaluated,
                              pointwise_positions_total=pointwise_total)


@dataclass
class CampaignSpec:
    """Everything a worker process needs to rebuild a campaign.

    The spec is deliberately limited to picklable leaf state — the model
    (graph + weights, without training scratch such as gradients), the
    evaluation inputs, the fault model, the criterion list, the dtype
    policy and the seed.  ``build()`` reruns the campaign constructor,
    which re-profiles the injectable state space, so a rebuilt campaign
    is indistinguishable from the original (both are pure functions of
    this state).  Golden outputs and golden activation caches are a pure
    function of it too, so they never travel: a campaign computes them
    lazily, at its first verdict (a fork pool's
    :meth:`~repro.injection.pool.CampaignPool.start_with` builds the
    golden outputs before it forks, so its workers inherit them).
    """

    model: Model
    inputs: np.ndarray
    fault_model: FaultModel
    criteria: List[SDCCriterion]
    dtype_policy: Optional[DTypePolicy]
    seed: int

    @classmethod
    def of(cls, model: Model, inputs, *,
           fault_model: Optional[FaultModel] = None,
           criteria: Optional[Sequence[SDCCriterion]] = None,
           dtype_policy: Optional[DTypePolicy] = None,
           seed: int = 0) -> "CampaignSpec":
        """The spec of ``FaultInjectionCampaign(model, inputs, ...)``.

        Fills in the defaults (a single bit flip, the model-appropriate
        criteria) and checks the arguments exactly as the constructor
        does, without building the campaign.
        """
        if len(inputs) == 0:
            raise ValueError("campaign requires at least one evaluation input")
        criteria = list(criteria if criteria is not None
                        else criteria_for_model(model))
        if not criteria:
            raise ValueError("campaign requires at least one SDC criterion")
        return cls(model=model, inputs=np.asarray(inputs),
                   fault_model=fault_model or SingleBitFlip(),
                   criteria=criteria, dtype_policy=dtype_policy, seed=seed)

    def build(self, fingerprint: Optional[str] = None
              ) -> FaultInjectionCampaign:
        """Rebuild the campaign.  ``fingerprint`` is this spec's
        :func:`~repro.injection.pool.spec_fingerprint`, when the caller
        has computed it already: the campaign then never hashes its spec
        again."""
        campaign = FaultInjectionCampaign(self.model, self.inputs,
                                          fault_model=self.fault_model,
                                          criteria=self.criteria,
                                          dtype_policy=self.dtype_policy,
                                          seed=self.seed)
        campaign._fingerprint = fingerprint
        return campaign


@contextlib.contextmanager
def _fan_out(pool: Optional["CampaignPool"], workers: int,
             campaigns: Sequence["FaultInjectionCampaign"]):
    """The pool a call fans out over: the caller's ``pool``, else one
    ephemeral ``workers``-process pool for the whole call, whose workers
    start with ``campaigns`` cached where they can inherit them, else
    ``None`` (``workers == 1``: the call runs in-process)."""
    if pool is not None or workers <= 1:
        yield pool
        return
    from .pool import CampaignPool

    with CampaignPool(workers) as ephemeral:
        ephemeral.start_with(campaigns)
        yield ephemeral


def _check_on_wave(options: RunOptions, on_wave) -> None:
    if on_wave is not None and not options.waved:
        raise ValueError(
            "on_wave snapshots require a waved run; set wave_trials "
            "(or target_half_width) so there are waves to snapshot")


def run_group(campaigns: Sequence[FaultInjectionCampaign],
              options: RunOptions, *,
              plans: Optional[List[Tuple[int, InjectionPlan]]] = None,
              trial_offset: int = 0,
              pool: Optional["CampaignPool"] = None,
              on_wave: Optional[Callable[[List[CampaignResult]],
                                         None]] = None,
              fixed_waves: int = 1) -> List[CampaignResult]:
    """Drive one or more same-seed campaigns through waves.

    The one campaign driver: :meth:`FaultInjectionCampaign.run`,
    :func:`compare_protection` and the campaign service's scheduler all
    run through it.  ``campaigns[0]`` is the *leader*: it samples every
    plan (and packs every serial batched chunk) exactly once, and each
    wave's chunk is dispatched to **every** campaign with the same global
    trial offset — so a paired group replays identical faults with
    identical per-trial RNG streams.  ``options.workers > 1`` without a
    ``pool`` opens one ephemeral pool for the whole call.

    A fixed-budget run (``options.waved`` false) is one wave over the
    whole plan list, or ``fixed_waves`` equal waves: the service cuts
    ``batch_trials=1`` jobs into waves to stream and cancel at their
    boundaries, which leaves the result unchanged because every trial's
    RNG stream is keyed by its global index (batched runs would repack
    per wave, so they keep one).  Its results keep ``trials_budget == 0``
    and ``waves == 0``.  ``plans`` replaces the leader's sampled plans,
    and ``trial_offset`` (fixed runs only) anchors their RNG streams.

    A waved run executes waves of ``options.wave_trials`` trials (10% of
    the budget by default) and records ``trials_budget`` / ``waves`` /
    ``target_half_width`` on its results.  With ``joint_stop`` (the
    default) the whole group stops together on the first wave at which
    *all* campaigns meet ``target_half_width`` — the slower-converging
    arm sets the common stop point, which preserves the paired-difference
    structure of :func:`compare_protection`.  Without it each campaign
    stops **independently** as soon as its own criteria fit the target:
    a cell that converges early stops receiving waves while the others
    continue on the shared plan list.  Either way every campaign's result
    is exactly a prefix of its own fixed-budget run — stopping policy
    changes how many waves a campaign receives, never what any trial
    computes.

    Without ``strata``, plans are pre-sampled for the full budget up
    front and waves are consecutive slices, which is what makes a stopped
    campaign bit-identical to the same-length prefix of the fixed-budget
    run.  With ``strata``, each stratum draws plans from its own
    :func:`~repro.injection.sampling.stratum_rng` stream as its
    allocation grows (the first wave is uniform across strata, later
    waves Neyman-allocated toward uncertain strata), chunk results are
    tagged with per-stratum counters, and the merged results report
    unbiased Horvitz–Thompson rates.  Stratified groups must stop
    jointly (see :class:`RunOptions`).

    ``on_wave`` (when given) receives the list of merged-so-far results —
    one per campaign, aligned with ``campaigns`` — after every wave; the
    returned results are the objects of the last snapshot.
    """
    if options.strata is not None and plans is not None:
        raise ValueError(
            "stratified campaigns sample their own per-stratum plans; "
            "pass trials (the budget) instead of explicit plans")
    if trial_offset and options.waved:
        raise ValueError(
            "waved campaigns own the whole trial index space; "
            "trial_offset must be 0")
    leader = campaigns[0]
    budget = len(plans) if plans is not None else options.trials
    if not options.waved:
        wave = max(1, math.ceil(budget / fixed_waves))
    elif options.wave_trials is not None:
        wave = options.wave_trials
    else:
        wave = max(1, math.ceil(budget * DEFAULT_WAVE_FRACTION))
    target = options.target_half_width

    partials: List[List[CampaignResult]] = [[] for _ in campaigns]
    merged: List[Optional[CampaignResult]] = [None] * len(campaigns)

    def dispatch(index: int, chunk, offset: int, packing) -> CampaignResult:
        partial = campaigns[index]._dispatch(
            chunk, options, trial_offset=trial_offset + offset,
            packing=packing, pool=pool)
        partial.interval_method = options.interval_method
        return partial

    def pack(chunk):
        # The leader packs once per serial batched chunk and every
        # campaign replays the same groups; pooled shards pack their own.
        if options.batch_trials > 1 and pool is None:
            return leader.pack_batches(chunk, options.batch_trials)
        return None

    def merge(index: int) -> None:
        # Waved metadata rides on every snapshot, the final one included.
        result = CampaignResult.merge(partials[index])
        waves_by[index] += 1
        if options.waved:
            result.trials_budget = budget
            result.waves = waves_by[index]
            result.target_half_width = target
        merged[index] = result

    def meets_target(result: Optional[CampaignResult]) -> bool:
        if target is None or result is None:
            return False
        return all(result.half_width(criterion, z=options.z) <= target
                   for criterion in result.criteria)

    def target_reached() -> bool:
        if target is None:
            return False
        return all(meets_target(result) for result in merged)

    waves_run = 0
    waves_by = [0] * len(campaigns)
    active = [True] * len(campaigns)
    done = 0
    with _fan_out(pool, min(options.workers, budget), campaigns) as pool:
        if options.strata is None:
            if plans is None:
                plans = leader.generate_plans(budget)
            while done < budget:
                if options.joint_stop:
                    if target_reached():
                        break
                else:
                    for index in range(len(campaigns)):
                        if active[index] and meets_target(merged[index]):
                            active[index] = False
                    if not any(active):
                        break
                chunk = list(plans[done:done + min(wave, budget - done)])
                packing = pack(chunk)
                for index in range(len(campaigns)):
                    if not active[index]:
                        continue
                    partials[index].append(
                        dispatch(index, chunk, done, packing))
                    merge(index)
                done += len(chunk)
                waves_run += 1
                if on_wave is not None:
                    on_wave(list(merged))
        else:
            space = StratumSpace(leader.injector._site_sizes,
                                 leader.fault_model, options.strata)
            wave = max(wave, len(space))
            streams = {key: stratum_rng(leader.seed, index)
                       for index, key in enumerate(space.keys)}
            stratum_trials: Dict[StratumKey, int] = {
                key: 0 for key in space.keys}
            stratum_successes = [
                {criterion.name: {key: 0 for key in space.keys}
                 for criterion in campaign.criteria}
                for campaign in campaigns]
            while done < budget and not target_reached():
                wave_budget = min(wave, budget - done)
                if waves_run == 0:
                    allocation = uniform_allocation(space, wave_budget)
                else:
                    stats = {key: [(per_criterion[key], stratum_trials[key])
                                   for successes in stratum_successes
                                   for per_criterion in successes.values()]
                             for key in space.keys}
                    allocation = neyman_allocation(space, wave_budget, stats)
                for key in space.keys:
                    count = allocation.get(key, 0)
                    if count == 0:
                        continue
                    stream = streams[key]
                    input_indices = stream.integers(len(leader.inputs),
                                                    size=count)
                    stratum_plans = space.sample_stratum_plans(
                        leader.injector, key, count, stream)
                    chunk = [(int(input_index), plan) for input_index, plan
                             in zip(input_indices, stratum_plans)]
                    packing = pack(chunk)
                    for index in range(len(campaigns)):
                        partial = dispatch(index, chunk, done, packing)
                        partial.stratum_weights = dict(space.weights)
                        partial.stratum_trials = {key: partial.trials}
                        partial.stratum_sdc_counts = {
                            name: {key: count_} for name, count_
                            in partial.sdc_counts.items()}
                        for name, count_ in partial.sdc_counts.items():
                            stratum_successes[index][name][key] += count_
                        partials[index].append(partial)
                    stratum_trials[key] += count
                    done += count
                for index in range(len(campaigns)):
                    merge(index)
                waves_run += 1
                if on_wave is not None:
                    on_wave(list(merged))

    assert all(result is not None for result in merged)  # budget > 0
    return list(merged)


def compare_protection(unprotected: Model, protected: Model,
                       inputs: np.ndarray,
                       fault_model: Optional[FaultModel] = None,
                       criteria: Optional[Sequence[SDCCriterion]] = None,
                       dtype_policy: Optional[DTypePolicy] = None,
                       trials: int = 100, seed: int = 0,
                       incremental: bool = True,
                       workers: int = 1,
                       batch_trials: int = 1,
                       equivalence=None,
                       pool: Optional["CampaignPool"] = None,
                       target_half_width: Optional[float] = None,
                       wave_trials: Optional[int] = None,
                       strata: Optional[Stratification] = None,
                       z: float = 1.96,
                       interval_method: str = DEFAULT_INTERVAL_METHOD,
                       joint_stop: bool = True,
                       on_wave: Optional[Callable[[List[CampaignResult]],
                                                  None]] = None,
                       ) -> Tuple[CampaignResult, CampaignResult]:
    """Run paired campaigns on an unprotected model and a protected variant.

    The same fault plans (same input, same node, same element, same bit
    sequence) are replayed on both graphs — possible because protection
    transforms keep the original node names — so any difference in SDC rate
    is attributable to the protection.  Both campaigns are built from the
    same ``seed``, and each trial's corruption bits come from the per-trial
    stream :func:`trial_rng` derives from that seed, so the comparison stays
    bit-paired no matter how either campaign is sharded across ``workers``.

    With ``batch_trials > 1`` **both** sides replay batched: the packer
    groups are computed once on the unprotected side and reused by the
    protected side (protection transforms keep original node names, so the
    groups are valid on both graphs), which keeps the paired batches
    bit-aligned and halves the packing work.  ``pool`` fans both campaigns
    out over one persistent worker pool (see
    :class:`~repro.injection.pool.CampaignPool`).

    ``target_half_width`` / ``wave_trials`` / ``strata`` run the pair
    **adaptively** (see :meth:`FaultInjectionCampaign.run`) while keeping
    it paired: both arms replay the same wave chunks and, by default, stop
    together on the first wave at which *both* have met the target on
    every criterion — i.e. on the max of the arms' individually-required
    waves — so the paired-difference structure survives early stopping.
    ``joint_stop=False`` lets each arm stop **independently** once its own
    criteria fit the target (the protected arm's near-zero rates typically
    converge waves earlier than the unprotected arm's): each arm is still
    a bit-exact prefix of its own fixed-budget run, but the arms may now
    cover different trial prefixes, so the comparison is only paired over
    the shorter prefix — the trade sweep grids make to stop each
    (model × dtype × protection) cell on its own schedule.

    ``on_wave`` receives the ``[unprotected, protected]`` merged-so-far
    snapshot pair after every wave; like :meth:`FaultInjectionCampaign.run`
    it requires a waved run.
    """
    options = RunOptions(
        trials=trials, incremental=incremental, workers=workers,
        batch_trials=batch_trials, equivalence=equivalence,
        target_half_width=target_half_width, wave_trials=wave_trials,
        strata=strata, z=z, interval_method=interval_method,
        joint_stop=joint_stop)
    _check_on_wave(options, on_wave)
    arms = [FaultInjectionCampaign(model, inputs, fault_model=fault_model,
                                   criteria=criteria,
                                   dtype_policy=dtype_policy, seed=seed)
            for model in (unprotected, protected)]
    base, guarded = run_group(arms, options, pool=pool, on_wave=on_wave)
    return base, guarded
