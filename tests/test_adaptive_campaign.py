"""Adaptive campaigns: early stopping, stratified sampling, interval math.

The two guarantees under test, per the campaign module's contract:

* **Prefix bit-identity** — an adaptive campaign stopped after k waves is
  bit-identical (SDC counts *and* applied-fault records) to the first
  k·wave trials of the fixed-budget run, on every backend (serial,
  batched, workers, pool).
* **Unbiased stratified estimates** — per-stratum counters reweight into
  Horvitz–Thompson rate estimates whose merge is order-insensitive, and
  per-stratum sampling respects each stratum's (nodes × bit-band) box.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.analysis import (
    INTERVAL_METHODS,
    binomial_interval,
    interval_half_width,
    jeffreys_interval,
    merge_partial_count_dicts,
    normal_interval,
    stratified_interval,
    stratified_rate,
    stratified_variance,
    wilson_interval,
)
from repro.injection import (
    CampaignPool,
    CampaignResult,
    FaultInjectionCampaign,
    SingleBitFlip,
    Stratification,
    StratumSpace,
    StuckAtZeroFault,
    compare_protection,
    largest_remainder,
    neyman_allocation,
    uniform_allocation,
)
from repro.injection.sampling import stratum_rng
from repro.quantization import FIXED32, fixed32_policy
from repro.service import request_from_campaign

BUDGET = 120
WAVE = 20
TARGET = 0.12


@pytest.fixture(scope="module")
def campaign_inputs(lenet_prepared):
    inputs, _ = lenet_prepared.correctly_predicted_inputs(4, seed=0)
    return inputs


@pytest.fixture(scope="module")
def make_campaign(lenet_prepared, campaign_inputs):
    """Fresh same-seed campaigns — each draws identical plans."""
    def factory(seed=0):
        return FaultInjectionCampaign(lenet_prepared.model, campaign_inputs,
                                      fault_model=SingleBitFlip(FIXED32),
                                      dtype_policy=fixed32_policy(),
                                      seed=seed)
    return factory


def fault_keys(result):
    return [[(f.node_name, f.element_index, f.bit, f.original, f.corrupted)
             for f in trial] for trial in result.faults]


class TestIntervalMethods:
    def test_wilson_known_value(self):
        # Pinned against the closed form at s=15, n=100, z=1.96.
        low, high = wilson_interval(15, 100)
        assert low == pytest.approx(0.0931, abs=2e-3)
        assert high == pytest.approx(0.2328, abs=2e-3)

    def test_wilson_nonzero_upper_bound_at_zero_successes(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert high == pytest.approx(1.96 ** 2 / (50 + 1.96 ** 2))
        # The old normal approximation degenerates to a near-zero bar here.
        _, normal_high = normal_interval(0, 50)
        assert normal_high < high / 100

    def test_wilson_symmetry(self):
        low, high = wilson_interval(30, 100)
        low_c, high_c = wilson_interval(70, 100)
        assert low == pytest.approx(1 - high_c)
        assert high == pytest.approx(1 - low_c)

    def test_jeffreys_known_value(self):
        # Beta(5.5, 95.5) equal-tailed 95% interval.
        low, high = jeffreys_interval(5, 100)
        assert low == pytest.approx(0.0186, abs=2e-3)
        assert high == pytest.approx(0.1057, abs=2e-3)

    def test_jeffreys_boundary_convention(self):
        low, _ = jeffreys_interval(0, 40)
        _, high = jeffreys_interval(40, 40)
        assert low == 0.0
        assert high == 1.0

    def test_dispatch_and_half_width(self):
        for method in INTERVAL_METHODS:
            low, high = binomial_interval(7, 80, method=method)
            assert 0.0 <= low <= 7 / 80 <= high <= 1.0
            assert interval_half_width(7, 80, method=method) == pytest.approx(
                (high - low) / 2)
        with pytest.raises(ValueError):
            binomial_interval(1, 10, method="bayesian")

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)


class TestCampaignResultIntervals:
    def result(self, successes, trials, **kwargs):
        return CampaignResult(model_name="m", fault_model="f", trials=trials,
                              sdc_counts={"top1": successes}, **kwargs)

    def test_confidence_interval_is_wilson_by_default(self):
        result = self.result(9, 60)
        assert result.interval_method == "wilson"
        assert result.confidence_interval("top1") == wilson_interval(9, 60)
        assert result.half_width("top1") == pytest.approx(
            interval_half_width(9, 60))

    def test_zero_successes_keep_nonzero_error_bar(self):
        result = self.result(0, 200)
        assert result.error_bar_percent("top1") > 0.9  # ~0.95% for Wilson

    def test_method_surfaces_in_summary(self):
        assert "intervals: wilson" in self.result(3, 30).summary()
        jeffreys = self.result(3, 30, interval_method="jeffreys")
        assert "intervals: jeffreys" in jeffreys.summary()
        assert jeffreys.confidence_interval("top1") == jeffreys_interval(3, 30)

    def test_merge_rejects_mixed_methods(self):
        with pytest.raises(ValueError):
            CampaignResult.merge([self.result(1, 10),
                                  self.result(2, 10,
                                              interval_method="normal")])


class TestStratifiedEstimators:
    WEIGHTS = {"a": 0.6, "b": 0.3, "c": 0.1}

    def test_rate_is_hand_computed_ht_sum(self):
        counts = {"a": 1, "b": 6, "c": 4}
        trials = {"a": 10, "b": 12, "c": 8}
        expected = 0.6 * 1 / 10 + 0.3 * 6 / 12 + 0.1 * 4 / 8
        assert stratified_rate(self.WEIGHTS, counts, trials) == pytest.approx(
            expected)

    def test_unsampled_strata_renormalize(self):
        # Only stratum "a" sampled: the estimate conditions on it.
        assert stratified_rate(self.WEIGHTS, {"a": 2}, {"a": 10}) == \
            pytest.approx(0.2)

    def test_uniform_allocation_matches_binomial_rate(self):
        counts = {"a": 6, "b": 3, "c": 1}
        trials = {"a": 60, "b": 30, "c": 10}
        # Proportional allocation ⇒ HT estimate equals the pooled rate.
        assert stratified_rate(self.WEIGHTS, counts, trials) == pytest.approx(
            10 / 100)

    def test_variance_and_interval(self):
        counts = {"a": 1, "b": 6}
        trials = {"a": 10, "b": 12}
        weights = {"a": 0.5, "b": 0.5}
        var = sum(
            0.25 * ((s + 0.5) / (n + 1)) * (1 - (s + 0.5) / (n + 1)) / n
            for s, n in ((1, 10), (6, 12)))
        assert stratified_variance(weights, counts, trials) == pytest.approx(
            var)
        rate = stratified_rate(weights, counts, trials)
        low, high = stratified_interval(weights, counts, trials, z=1.96)
        assert (high - low) / 2 == pytest.approx(1.96 * var ** 0.5)
        assert low <= rate <= high

    def test_sampled_stratum_without_weight_rejected(self):
        with pytest.raises(ValueError):
            stratified_rate({"a": 1.0}, {"b": 1}, {"b": 5})

    def test_merge_partial_count_dicts_union(self):
        merged = merge_partial_count_dicts([{"a": 2}, {"a": 1, "b": 4}, {}])
        assert merged == {"a": 3, "b": 4}


class TestAllocation:
    def test_largest_remainder_sums_and_is_deterministic(self):
        for total in (1, 7, 100):
            counts = largest_remainder([0.5, 0.25, 0.25], total)
            assert sum(counts) == total
        assert largest_remainder([1, 1, 1], 10) == [4, 3, 3]
        assert largest_remainder([0, 0], 4) == [2, 2]

    def test_uniform_allocation_covers_every_stratum(self, make_campaign):
        campaign = make_campaign()
        space = StratumSpace(campaign.injector._site_sizes,
                             campaign.fault_model,
                             Stratification(layer_bands=3, bit_bands=4))
        allocation = uniform_allocation(space, 20)
        assert sum(allocation.values()) == 20
        assert all(allocation[key] >= 1 for key in space.keys)

    def test_neyman_favors_uncertain_strata(self, make_campaign):
        campaign = make_campaign()
        space = StratumSpace(campaign.injector._site_sizes,
                             campaign.fault_model,
                             Stratification(layer_bands=2, bit_bands=2))
        certain = {key: [(0, 40)] for key in space.keys}
        # One stratum sits at p≈0.5 — maximal binomial variance.
        uncertain_key = space.keys[0]
        certain[uncertain_key] = [(20, 40)]
        allocation = neyman_allocation(space, 40, certain)
        assert sum(allocation.values()) == 40
        others = [key for key in space.keys
                  if key != uncertain_key
                  and space.weights[key] <= space.weights[uncertain_key]]
        assert all(allocation[uncertain_key] > allocation[key]
                   for key in others)


class TestStratumSpace:
    def test_weights_sum_to_one_and_partitions_are_exact(self, make_campaign):
        campaign = make_campaign()
        sizes = campaign.injector._site_sizes
        space = StratumSpace(sizes, campaign.fault_model,
                             Stratification(layer_bands=3, bit_bands=4))
        assert sum(space.weights.values()) == pytest.approx(1.0)
        flattened = [name for band in space.layer_band_nodes for name in band]
        assert flattened == list(sizes)  # contiguous topo partition
        edges = [rng for rng in space.bit_band_ranges]
        assert edges[0][0] == 0
        assert edges[-1][1] == campaign.fault_model.total_bits
        for (_, previous_high), (low, _) in zip(edges, edges[1:]):
            assert previous_high == low

    def test_single_bit_band_leaves_plans_unrestricted(self, make_campaign):
        campaign = make_campaign()
        space = StratumSpace(campaign.injector._site_sizes,
                             campaign.fault_model,
                             Stratification(layer_bands=2, bit_bands=1))
        assert space.bit_band_ranges == [None]
        plans = space.sample_stratum_plans(campaign.injector, (0, 0), 3,
                                           stratum_rng(0, 0))
        assert all(plan.bit_ranges is None for plan in plans)

    def test_bit_bands_require_bit_semantics(self, make_campaign):
        campaign = make_campaign()
        with pytest.raises(ValueError, match="bit_bands=1"):
            StratumSpace(campaign.injector._site_sizes, StuckAtZeroFault(),
                         Stratification(layer_bands=2, bit_bands=4))

    def test_sampled_plans_respect_stratum_box(self, make_campaign):
        campaign = make_campaign()
        space = StratumSpace(campaign.injector._site_sizes,
                             campaign.fault_model,
                             Stratification(layer_bands=3, bit_bands=4))
        for key in ((0, 0), (1, 2), (2, 3)):
            plans = space.sample_stratum_plans(campaign.injector, key, 8,
                                               stratum_rng(0,
                                                           space.index_of(key)))
            nodes = set(space.layer_band_nodes[key[0]])
            low, high = space.bit_band_ranges[key[1]]
            for plan in plans:
                assert plan.node_names() <= nodes
                assert plan.bit_ranges == [(low, high)]

    def test_corrupted_bits_land_in_band(self, make_campaign):
        campaign = make_campaign()
        result = campaign.run(trials=24, wave_trials=12,
                              strata=Stratification(layer_bands=2,
                                                    bit_bands=4),
                              keep_faults=True)
        assert result.trials == 24
        total_bits = campaign.fault_model.total_bits
        band_width = total_bits // 4
        assert all(0 <= fault.bit < total_bits
                   for trial in result.faults for fault in trial)
        # With 4 bands over fixed32, every recorded bit must fall in one
        # aligned 8-bit band — and with 24 trials over 8 strata all 4 bit
        # bands are exercised.
        bands_seen = {fault.bit // band_width
                      for trial in result.faults for fault in trial}
        assert bands_seen == {0, 1, 2, 3}


class TestPrefixProperty:
    """Stopped adaptive run ≡ prefix of the fixed-budget run, per backend."""

    @pytest.fixture(scope="class")
    def reference(self, make_campaign):
        campaign = make_campaign()
        plans = campaign.generate_plans(BUDGET)
        adaptive = make_campaign().run(trials=BUDGET, target_half_width=TARGET,
                                       wave_trials=WAVE, keep_faults=True)
        assert adaptive.stopped_early
        assert adaptive.trials % WAVE == 0
        prefix = campaign.run(plans=plans[:adaptive.trials], keep_faults=True)
        return plans, adaptive, prefix

    def test_serial_prefix_bit_identity(self, reference):
        _, adaptive, prefix = reference
        assert adaptive.sdc_counts == prefix.sdc_counts
        assert fault_keys(adaptive) == fault_keys(prefix)
        assert adaptive.trials_budget == BUDGET
        assert adaptive.target_half_width == TARGET
        assert adaptive.waves == adaptive.trials // WAVE

    def test_stopping_rule_is_tight(self, reference, make_campaign):
        # The stop wave is the *first* wave meeting the target: the
        # half-width at the stop is under target, one wave earlier over.
        _, adaptive, _ = reference
        criterion = adaptive.criteria[0]
        assert adaptive.half_width(criterion) <= TARGET
        earlier = make_campaign().run(
            plans=make_campaign().generate_plans(BUDGET)[
                :adaptive.trials - WAVE])
        assert earlier.half_width(criterion) > TARGET

    def test_batched_prefix_bit_identity(self, reference, make_campaign):
        _, adaptive, prefix = reference
        batched = make_campaign().run(trials=BUDGET, target_half_width=TARGET,
                                      wave_trials=WAVE, batch_trials=4,
                                      keep_faults=True)
        assert batched.trials == adaptive.trials
        assert batched.sdc_counts == prefix.sdc_counts
        assert fault_keys(batched) == fault_keys(prefix)
        assert batched.equivalence == "ulp_tolerant"

    def test_workers_prefix_bit_identity(self, reference, make_campaign):
        _, adaptive, prefix = reference
        sharded = make_campaign().run(trials=BUDGET, target_half_width=TARGET,
                                      wave_trials=WAVE, workers=2,
                                      keep_faults=True)
        assert sharded.trials == adaptive.trials
        assert sharded.sdc_counts == prefix.sdc_counts
        assert fault_keys(sharded) == fault_keys(prefix)

    def test_pool_prefix_bit_identity(self, reference, make_campaign):
        _, adaptive, prefix = reference
        pool = CampaignPool(workers=2)
        try:
            pooled = make_campaign().run(trials=BUDGET,
                                         target_half_width=TARGET,
                                         wave_trials=WAVE, pool=pool,
                                         keep_faults=True)
        finally:
            pool.close()
        assert pooled.trials == adaptive.trials
        assert pooled.sdc_counts == prefix.sdc_counts
        assert fault_keys(pooled) == fault_keys(prefix)

    def test_budget_exhaustion_equals_fixed_run(self, make_campaign):
        # An unreachable target degenerates to the fixed-budget campaign.
        fixed = make_campaign().run(trials=60)
        adaptive = make_campaign().run(trials=60, target_half_width=0.001,
                                       wave_trials=25)
        assert not adaptive.stopped_early
        assert adaptive.trials == 60
        assert adaptive.waves == 3  # 25 + 25 + 10
        assert adaptive.sdc_counts == fixed.sdc_counts


class TestStratifiedCampaign:
    def test_backends_agree_exactly(self, make_campaign):
        kwargs = dict(trials=80, wave_trials=20,
                      strata=Stratification(layer_bands=3, bit_bands=4))
        serial = make_campaign().run(**kwargs)
        sharded = make_campaign().run(workers=2, **kwargs)
        assert serial.trials == sharded.trials == 80
        assert serial.stratum_trials == sharded.stratum_trials
        assert serial.stratum_sdc_counts == sharded.stratum_sdc_counts
        assert serial.sdc_rate("top1") == sharded.sdc_rate("top1")

    def test_result_reports_ht_statistics(self, make_campaign):
        result = make_campaign().run(trials=80, wave_trials=20,
                                     strata=Stratification(layer_bands=3,
                                                           bit_bands=4))
        assert result.is_stratified
        assert sum(result.stratum_trials.values()) == result.trials
        criterion = result.criteria[0]
        assert sum(result.stratum_sdc_counts[criterion].values()) == \
            result.sdc_counts[criterion]
        assert result.sdc_rate(criterion) == pytest.approx(stratified_rate(
            result.stratum_weights, result.stratum_sdc_counts[criterion],
            result.stratum_trials))
        assert "Horvitz–Thompson" in result.summary()

    def test_first_wave_is_uniform_across_strata(self, make_campaign):
        strata = Stratification(layer_bands=2, bit_bands=2)
        result = make_campaign().run(trials=8, wave_trials=8, strata=strata)
        assert result.waves == 1
        assert set(result.stratum_trials.values()) == {2}

    def test_merge_is_order_insensitive(self, make_campaign):
        result = make_campaign().run(trials=60, wave_trials=20,
                                     strata=Stratification(layer_bands=2,
                                                           bit_bands=2))
        halves = [
            CampaignResult(model_name=result.model_name,
                           fault_model=result.fault_model, trials=10,
                           sdc_counts={"top1": 2},
                           stratum_weights=dict(result.stratum_weights),
                           stratum_trials={(0, 0): 10},
                           stratum_sdc_counts={"top1": {(0, 0): 2}}),
            CampaignResult(model_name=result.model_name,
                           fault_model=result.fault_model, trials=6,
                           sdc_counts={"top1": 1},
                           stratum_weights=dict(result.stratum_weights),
                           stratum_trials={(0, 0): 2, (1, 1): 4},
                           stratum_sdc_counts={"top1": {(0, 0): 0,
                                                        (1, 1): 1}}),
        ]
        forward = CampaignResult.merge(halves)
        backward = CampaignResult.merge(halves[::-1])
        assert forward.stratum_trials == backward.stratum_trials == \
            {(0, 0): 12, (1, 1): 4}
        assert forward.stratum_sdc_counts == backward.stratum_sdc_counts
        assert forward.sdc_rate("top1") == backward.sdc_rate("top1")

    def test_merge_rejects_conflicting_weights(self):
        shard = CampaignResult(model_name="m", fault_model="f", trials=4,
                               sdc_counts={"top1": 1},
                               stratum_weights={(0, 0): 0.5},
                               stratum_trials={(0, 0): 4},
                               stratum_sdc_counts={"top1": {(0, 0): 1}})
        conflicting = CampaignResult(model_name="m", fault_model="f", trials=4,
                                     sdc_counts={"top1": 0},
                                     stratum_weights={(0, 0): 0.25},
                                     stratum_trials={(0, 0): 4},
                                     stratum_sdc_counts={"top1": {(0, 0): 0}})
        with pytest.raises(ValueError, match="conflicting weights"):
            CampaignResult.merge([shard, conflicting])


class TestPairedAdaptive:
    def test_arms_stop_together_and_stay_paired(self, lenet_prepared,
                                                lenet_protected,
                                                campaign_inputs):
        protected, _ = lenet_protected
        base, guarded = compare_protection(
            lenet_prepared.model, protected, campaign_inputs,
            fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), trials=BUDGET, seed=0,
            target_half_width=TARGET, wave_trials=WAVE)
        assert base.trials == guarded.trials
        assert base.waves == guarded.waves
        assert base.trials_budget == guarded.trials_budget == BUDGET
        # Ranger suppresses SDCs, so the protected arm can never need
        # *more* trials than the unprotected one at the same target; and
        # the pair must stop on the max of the arms' requirements: both
        # arms meet the target at the common stop.
        for result in (base, guarded):
            assert result.half_width(result.criteria[0]) <= TARGET
        assert guarded.sdc_counts["top1"] <= base.sdc_counts["top1"]


class TestIndependentStopping:
    """``joint_stop=False``: each arm/cell stops on its own criteria."""

    @pytest.fixture(scope="class")
    def independent_pair(self, lenet_prepared, lenet_protected,
                         campaign_inputs):
        protected, _ = lenet_protected
        return compare_protection(
            lenet_prepared.model, protected, campaign_inputs,
            fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), trials=BUDGET, seed=0,
            target_half_width=TARGET, wave_trials=WAVE, joint_stop=False)

    def test_arms_stop_on_their_own_schedules(self, independent_pair,
                                              lenet_prepared,
                                              lenet_protected,
                                              campaign_inputs):
        base, guarded = independent_pair
        protected, _ = lenet_protected
        # the protected arm's near-zero rate converges waves earlier
        assert guarded.trials < base.trials
        assert guarded.waves < base.waves
        for result in (base, guarded):
            assert result.half_width(result.criteria[0]) <= TARGET
        joint_base, joint_guarded = compare_protection(
            lenet_prepared.model, protected, campaign_inputs,
            fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), trials=BUDGET, seed=0,
            target_half_width=TARGET, wave_trials=WAVE)
        # the slower arm is unaffected; the faster arm stops strictly
        # earlier than the joint stop would have held it
        assert joint_base.trials == base.trials
        assert guarded.trials < joint_guarded.trials

    def test_each_arm_is_a_prefix_of_its_fixed_budget_run(
            self, independent_pair, lenet_prepared, lenet_protected,
            campaign_inputs):
        # The group's leader (the unprotected arm) samples every plan;
        # both arms replay prefixes of that one plan stream.
        base, guarded = independent_pair
        protected, _ = lenet_protected
        leader = FaultInjectionCampaign(
            lenet_prepared.model, campaign_inputs,
            fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), seed=0)
        plans = leader.generate_plans(BUDGET)
        prefix_base = leader.run(plans=plans[:base.trials])
        assert base.sdc_counts == prefix_base.sdc_counts
        assert base.trials == prefix_base.trials
        follower = FaultInjectionCampaign(
            protected, campaign_inputs, fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), seed=0)
        prefix_guarded = follower.run(plans=plans[:guarded.trials])
        assert guarded.sdc_counts == prefix_guarded.sdc_counts
        assert guarded.trials == prefix_guarded.trials

    def test_strata_reject_independent_stopping(self, lenet_prepared,
                                                lenet_protected,
                                                campaign_inputs):
        protected, _ = lenet_protected
        with pytest.raises(ValueError, match="stop jointly"):
            compare_protection(
                lenet_prepared.model, protected, campaign_inputs,
                fault_model=SingleBitFlip(FIXED32),
                dtype_policy=fixed32_policy(), trials=BUDGET, seed=0,
                wave_trials=WAVE, strata=Stratification(2, 2),
                joint_stop=False)


class TestWaveSnapshots:
    """The ``on_wave`` streaming hook the campaign service builds on."""

    def test_snapshots_are_cumulative_and_end_at_the_result(
            self, make_campaign):
        snapshots = []
        result = make_campaign().run(trials=BUDGET, target_half_width=TARGET,
                                     wave_trials=WAVE, keep_faults=True,
                                     on_wave=snapshots.append)
        assert len(snapshots) == result.waves
        trials_seen = [snapshot.trials for snapshot in snapshots]
        assert trials_seen == sorted(trials_seen)
        assert snapshots[-1].trials == result.trials
        assert snapshots[-1].sdc_counts == result.sdc_counts
        assert fault_keys(snapshots[-1]) == fault_keys(result)

    def test_snapshot_exception_aborts_the_run(self, make_campaign):
        class Abort(RuntimeError):
            pass

        def hook(snapshot):
            raise Abort("stop")

        with pytest.raises(Abort):
            make_campaign().run(trials=BUDGET, target_half_width=TARGET,
                                wave_trials=WAVE, on_wave=hook)

    def test_on_wave_requires_a_waved_run(self, make_campaign,
                                          lenet_prepared, lenet_protected,
                                          campaign_inputs):
        with pytest.raises(ValueError, match="on_wave"):
            make_campaign().run(trials=10, on_wave=lambda snapshot: None)
        protected, _ = lenet_protected
        with pytest.raises(ValueError, match="on_wave"):
            compare_protection(lenet_prepared.model, protected,
                               campaign_inputs, trials=10,
                               on_wave=lambda snapshots: None)

    def test_compare_on_wave_streams_pairs(self, lenet_prepared,
                                           lenet_protected, campaign_inputs):
        protected, _ = lenet_protected
        waves = []
        base, guarded = compare_protection(
            lenet_prepared.model, protected, campaign_inputs,
            fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), trials=BUDGET, seed=0,
            target_half_width=TARGET, wave_trials=WAVE,
            on_wave=waves.append)
        assert len(waves) == base.waves
        assert all(len(pair) == 2 for pair in waves)
        assert waves[-1][0].sdc_counts == base.sdc_counts
        assert waves[-1][1].sdc_counts == guarded.sdc_counts


#: Invalid inputs, each with the message every entry point must refuse
#: it with.  The ``on_wave`` case clears the waves the waved-compare column
#: adds, and skips ``request_from_campaign`` (``on_wave`` is not a
#: ``RunOptions`` field).
INVALID_OPTIONS = {
    "exact-batched": (dict(batch_trials=4, equivalence="exact"),
                      "batch_trials > 1 cannot satisfy EXACT equivalence"),
    "zero-batch": (dict(batch_trials=0),
                   "batch_trials must be positive, got 0"),
    "zero-workers": (dict(workers=0), "workers must be positive, got 0"),
    "full-batched": (dict(incremental=False, batch_trials=4),
                     "batch_trials > 1 requires the incremental engine"),
    "interval-method": (dict(interval_method="clopper"),
                        "unknown interval method 'clopper'"),
    "target": (dict(target_half_width=1.5),
               "target_half_width must be in (0, 1), got 1.5"),
    "zero-wave": (dict(wave_trials=0), "wave_trials must be positive, got 0"),
    "on-wave": (dict(on_wave=lambda snapshot: None, wave_trials=None),
                "on_wave snapshots require a waved run"),
}
ENTRY_POINTS = ("run", "compare", "waved-compare", "request")


class TestValidation:
    @pytest.mark.parametrize("case,entry", [
        pytest.param(case, entry, id=f"{case}-{entry}")
        for case in INVALID_OPTIONS for entry in ENTRY_POINTS
        if not (case == "on-wave" and entry == "request")])
    def test_entry_points_refuse_alike(self, case, entry, make_campaign,
                                       lenet_prepared, lenet_protected,
                                       campaign_inputs):
        """``run()``, fixed and waved ``compare_protection()`` and
        ``request_from_campaign()`` share one validation."""
        kwargs, message = INVALID_OPTIONS[case]
        protected, _ = lenet_protected
        with pytest.raises(ValueError, match=re.escape(message)):
            if entry == "run":
                make_campaign().run(trials=20, **kwargs)
            elif entry == "request":
                request_from_campaign(lenet_prepared.model, campaign_inputs,
                                      trials=20, **kwargs)
            else:
                waved = entry == "waved-compare"
                compare_protection(lenet_prepared.model, protected,
                                   campaign_inputs, trials=20,
                                   **{"wave_trials": 10 if waved else None,
                                      **kwargs})

    def test_bad_target(self, make_campaign):
        with pytest.raises(ValueError, match="target_half_width"):
            make_campaign().run(trials=10, target_half_width=1.5)

    def test_strata_with_explicit_plans(self, make_campaign):
        campaign = make_campaign()
        plans = campaign.generate_plans(4)
        with pytest.raises(ValueError, match="per-stratum plans"):
            campaign.run(plans=plans, strata=Stratification(2, 2))

    def test_adaptive_rejects_trial_offset(self, make_campaign):
        with pytest.raises(ValueError, match="trial_offset"):
            make_campaign().run(trials=10, target_half_width=0.2,
                                trial_offset=5)

    def test_bad_interval_method(self, make_campaign):
        with pytest.raises(ValueError, match="interval method"):
            make_campaign().run(trials=10, interval_method="clopper")

    def test_bad_wave_trials(self, make_campaign):
        with pytest.raises(ValueError, match="wave_trials"):
            make_campaign().run(trials=10, target_half_width=0.2,
                                wave_trials=0)

    def test_corrupt_in_band_validation(self):
        fault_model = SingleBitFlip(FIXED32)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            fault_model.corrupt_in_band(1.0, rng, 8, 40)
        with pytest.raises(NotImplementedError, match="bit_bands=1"):
            StuckAtZeroFault().corrupt_in_band(1.0, rng, 0, 8)


class TestPlanStream:
    def test_generate_plans_is_a_pure_function_of_the_seed(self,
                                                           make_campaign):
        first = make_campaign().generate_plans(12)
        second = make_campaign().generate_plans(12)
        assert [(i, p.sites) for i, p in first] == \
            [(i, p.sites) for i, p in second]

    def test_plan_stream_no_longer_collides_with_sibling_seed(self,
                                                              make_campaign):
        # The old `seed + 1` derivation made the seed-0 campaign's input
        # stream identical to default_rng(1); the SeedSequence child must
        # not reproduce it.
        campaign = make_campaign()
        indices = [i for i, _ in campaign.generate_plans(64)]
        legacy = np.random.default_rng(campaign.seed + 1).integers(
            len(campaign.inputs), size=64)
        assert indices != list(legacy)
