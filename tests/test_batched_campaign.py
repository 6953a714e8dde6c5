"""Equivalence suite for the batched multi-trial replay engine.

``run(batch_trials=B)`` stacks trials that share an (input, fault-node set)
into one batched partial re-execution.  The guarantees under test:

1. **Trial identity is exact.**  Batched trials keep their per-trial RNG
   streams, so the applied-fault records are *bit-identical* to the
   incremental path for every batch width, and batching composes with
   ``workers=N`` sharding and with paired comparisons.
2. **Verdict sets agree under ULP_TOLERANT.**  Batched outputs may differ
   from batch-1 replays in the last ULPs (BLAS batch-shape instability),
   but every trial's SDC verdict — and therefore every per-criterion count
   — matches the bit-exact incremental reference across the zoo subset,
   datatypes and protection variants.
3. **The default stays bit-exact.**  ``batch_trials=1`` runs the unchanged
   incremental path and carries the EXACT equivalence mode; requesting
   EXACT together with ``batch_trials > 1`` is refused.
4. **Results carry their tolerance.**  Batched results report the
   ULP_TOLERANT mode and the maximum deviation consumed by row masking;
   merge() refuses to mix guarantees.
"""

import numpy as np
import pytest

from repro.core import Ranger
from repro.injection import (
    CampaignResult,
    EquivalenceMode,
    FaultInjectionCampaign,
    FaultInjector,
    MultiBitFlip,
    SingleBitFlip,
    compare_protection,
    trial_rng,
)
from repro.injection.injector import InjectionPlan
from repro.models import prepare_model
from repro.quantization import FIXED16, FIXED32, fixed16_policy

ZOO_SUBSET = ("lenet", "squeezenet")
TRIALS = 24
BATCH_WIDTHS = (2, 4, 16)


@pytest.fixture(scope="module", params=ZOO_SUBSET)
def subset_prepared(request):
    return prepare_model(request.param, train=False, seed=1)


class TestVerdictAgreement:
    @pytest.mark.parametrize("use_fixed_point", [False, True],
                             ids=["float64", "fixed16"])
    @pytest.mark.parametrize("use_ranger", [False, True],
                             ids=["unprotected", "ranger"])
    def test_batched_counts_and_faults_match_incremental(
            self, subset_prepared, use_fixed_point, use_ranger):
        prepared = subset_prepared
        model = prepared.model
        if use_ranger:
            sample, _ = prepared.dataset.sample_train(4, seed=0)
            model, _ = Ranger(seed=0).protect(prepared.model,
                                              profile_inputs=sample)
        dtype_policy = fixed16_policy() if use_fixed_point else None
        inputs = prepared.dataset.x_val[:2]

        def build():
            return FaultInjectionCampaign(model, inputs,
                                          fault_model=SingleBitFlip(FIXED16),
                                          dtype_policy=dtype_policy, seed=0)

        serial = build()
        plans = serial.generate_plans(TRIALS)
        reference = serial.run(plans=plans, keep_faults=True)
        assert reference.equivalence == "exact"
        for width in BATCH_WIDTHS:
            result = build().run(plans=plans, keep_faults=True,
                                 batch_trials=width)
            assert result.equivalence == "ulp_tolerant"
            # Identical SDC verdict sets (per-criterion counts) ...
            assert result.sdc_counts == reference.sdc_counts, width
            # ... and bit-identical fault records: batching never changes
            # which bits land where.
            assert result.faults == reference.faults, width
            assert result.trials == reference.trials

    def test_trialwise_outputs_agree_on_argmax(self, lenet_prepared):
        """Row i of a batched replay and trial i's batch-1 replay agree."""
        prepared = lenet_prepared
        model = prepared.model
        injector = FaultInjector(model, SingleBitFlip(FIXED32), seed=3)
        x = prepared.dataset.x_val[:1]
        sizes = injector.profile_state_space(x)
        executor = model.executor()
        cache = executor.run({model.input_name: x},
                             outputs=[model.output_name]).values
        names = list(sizes)
        for site in (names[0], names[len(names) // 2], names[-1]):
            plans = [InjectionPlan(sites=[(site, element)])
                     for element in range(0, sizes[site],
                                          max(1, sizes[site] // 5))]
            rngs = [trial_rng(11, index) for index in range(len(plans))]
            stacked, batch_faults, _ = injector.inject_cached_batch(
                executor, cache, plans, rngs)
            for row, plan in enumerate(plans):
                out, faults, _ = injector.inject_cached(
                    executor, cache, plan, rng=trial_rng(11, row))
                assert faults == batch_faults[row]
                assert np.argmax(stacked[row]) == np.argmax(out)
                np.testing.assert_allclose(stacked[row], out[0],
                                           rtol=1e-12, atol=1e-15)

    def test_multibit_batches_match_incremental(self, lenet_prepared):
        """Multi-site plans batch too; overlapping ones fall back cleanly."""
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)

        def build():
            return FaultInjectionCampaign(lenet_prepared.model, inputs,
                                          fault_model=MultiBitFlip(3, FIXED32),
                                          seed=0)

        serial = build()
        plans = serial.generate_plans(16)
        reference = serial.run(plans=plans, keep_faults=True)
        result = build().run(plans=plans, keep_faults=True, batch_trials=4)
        assert result.sdc_counts == reference.sdc_counts
        assert result.faults == reference.faults


class TestComposition:
    def test_batched_composes_with_workers(self, lenet_prepared):
        inputs, _ = lenet_prepared.correctly_predicted_inputs(3, seed=0)

        def build():
            return FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)

        serial = build()
        plans = serial.generate_plans(20)
        reference = serial.run(plans=plans, keep_faults=True, batch_trials=4)
        fanned = build().run(plans=plans, keep_faults=True, batch_trials=4,
                             workers=2)
        assert fanned.sdc_counts == reference.sdc_counts
        assert fanned.faults == reference.faults
        assert fanned.equivalence == "ulp_tolerant"

    def test_compare_protection_stays_paired_when_batched(
            self, lenet_prepared, lenet_protected):
        protected, _ = lenet_protected
        inputs, _ = lenet_prepared.correctly_predicted_inputs(4, seed=0)
        serial = compare_protection(lenet_prepared.model, protected, inputs,
                                    trials=20, seed=3)
        batched = compare_protection(lenet_prepared.model, protected, inputs,
                                     trials=20, seed=3, batch_trials=4)
        for reference, result in zip(serial, batched):
            assert result.sdc_counts == reference.sdc_counts
            assert result.trials == reference.trials


class TestGuarantScaffolding:
    def test_exact_with_batching_is_refused(self, lenet_prepared):
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)
        with pytest.raises(ValueError, match="EXACT"):
            campaign.run(trials=4, batch_trials=2, equivalence="exact")
        with pytest.raises(ValueError, match="incremental"):
            campaign.run(trials=4, batch_trials=2, incremental=False)
        with pytest.raises(ValueError, match="batch_trials"):
            campaign.run(trials=4, batch_trials=0)

    def test_default_path_reports_exact(self, lenet_prepared):
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)
        result = campaign.run(trials=5)
        assert result.equivalence == EquivalenceMode.EXACT.value
        assert result.max_ulp_deviation == 0.0
        assert "equivalence: exact" in result.summary()

    def test_batched_summary_reports_tolerance(self, lenet_prepared):
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)
        result = campaign.run(trials=8, batch_trials=4)
        assert result.equivalence == "ulp_tolerant"
        text = result.summary()
        assert "equivalence: ulp_tolerant" in text
        assert "max observed deviation" in text

    def test_merge_refuses_mixed_guarantees(self):
        exact = CampaignResult(model_name="m", fault_model="f", trials=5,
                               sdc_counts={"top1": 1})
        tolerant = CampaignResult(model_name="m", fault_model="f", trials=5,
                                  sdc_counts={"top1": 2},
                                  equivalence="ulp_tolerant",
                                  max_ulp_deviation=3.0)
        with pytest.raises(ValueError, match="equivalence"):
            CampaignResult.merge([exact, tolerant])
        merged = CampaignResult.merge([tolerant, tolerant])
        assert merged.equivalence == "ulp_tolerant"
        assert merged.max_ulp_deviation == 3.0

    def test_equivalence_mode_coercion(self):
        assert EquivalenceMode.coerce(None, EquivalenceMode.EXACT) \
            is EquivalenceMode.EXACT
        assert EquivalenceMode.coerce("ULP_TOLERANT", EquivalenceMode.EXACT) \
            is EquivalenceMode.ULP_TOLERANT
        assert EquivalenceMode.coerce(EquivalenceMode.ULP_TOLERANT,
                                      EquivalenceMode.EXACT) \
            is EquivalenceMode.ULP_TOLERANT
        with pytest.raises(ValueError, match="unknown equivalence"):
            EquivalenceMode.coerce("approximate", EquivalenceMode.EXACT)


class TestVectorizedCriteria:
    """is_sdc_rows must agree with the scalar is_sdc on every row."""

    def test_topk_rows_match_scalar_including_ties(self):
        from repro.injection import TopKMisclassification

        rng = np.random.default_rng(0)
        golden = rng.random((1, 8))
        rows = rng.random((64, 8))
        # Inject ties on a fraction of rows to exercise argsort tie-breaking.
        golden_label = int(np.argmax(golden))
        rows[::5, golden_label] = rows[::5].max(axis=1)
        rows[::7, (golden_label + 3) % 8] = rows[::7, golden_label]
        for k in (1, 2, 5):
            criterion = TopKMisclassification(k=k)
            vector = criterion.is_sdc_rows(golden, rows)
            scalar = [criterion.is_sdc(golden, rows[i:i + 1])
                      for i in range(len(rows))]
            assert vector.tolist() == scalar, k

    def test_topk_tie_parity_beyond_introsort_stability(self):
        """Ties in wide outputs: scalar and vectorized paths must agree.

        np.argsort's default kind is only incidentally stable below ~16
        elements; the scalar path pins kind="stable" so tied grid values
        (routine under fixed-point quantization) rank identically in both
        paths for any class count.
        """
        from repro.injection import TopKMisclassification

        rng = np.random.default_rng(5)
        classes = 64
        for trial in range(200):
            golden = rng.random((1, classes))
            # Quantize onto a coarse grid to force many exact ties.
            rows = np.round(rng.random((8, classes)) * 4.0) / 4.0
            for k in (2, 5, 10):
                criterion = TopKMisclassification(k=k)
                vector = criterion.is_sdc_rows(golden, rows)
                scalar = [criterion.is_sdc(golden, rows[i:i + 1])
                          for i in range(len(rows))]
                assert vector.tolist() == scalar, (trial, k)

    def test_steering_rows_match_scalar(self):
        from repro.injection import SteeringDeviation

        rng = np.random.default_rng(1)
        golden = rng.normal(scale=0.3, size=(1, 1))
        rows = golden + rng.normal(scale=0.5, size=(32, 1))
        rows[3, 0] = np.nan  # non-finite deviation counts as SDC
        rows[4, 0] = np.inf
        for threshold in (15.0, 30.0):
            criterion = SteeringDeviation(threshold_degrees=threshold,
                                          angle_unit="radians")
            vector = criterion.is_sdc_rows(golden, rows)
            scalar = [criterion.is_sdc(golden, rows[i:i + 1])
                      for i in range(len(rows))]
            assert vector.tolist() == scalar, threshold

    def test_default_rows_implementation_loops(self):
        from repro.injection import SDCCriterion

        class EveryOther(SDCCriterion):
            def is_sdc(self, golden, faulty):
                return bool(np.asarray(faulty).reshape(-1)[0] > 0)

        rows = np.array([[1.0], [-1.0], [2.0]])
        verdicts = EveryOther().is_sdc_rows(np.zeros((1, 1)), rows)
        assert verdicts.tolist() == [True, False, True]


class TestSpecRebuild:
    def test_pickled_spec_rebuilds_bit_identically(self, lenet_prepared):
        """Workers rebuild campaigns (golden caches included) from the
        pickled spec alone; the rebuild replays bit-identically."""
        import pickle

        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)
        plans = campaign.generate_plans(6)
        restored = pickle.loads(pickle.dumps(campaign.spec()))
        rebuilt = restored.build()
        assert not rebuilt._golden_caches
        result = rebuilt.run(plans=plans, keep_faults=True)
        reference = campaign.run(plans=plans, keep_faults=True)
        assert result.sdc_counts == reference.sdc_counts
        assert result.faults == reference.faults

    def test_spec_never_carries_golden_caches(self, lenet_prepared):
        """Golden caches built by a run stay out of the spec: its pickle
        (and so every resend) is the same bytes before and after."""
        import pickle

        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)
        before = pickle.dumps(campaign.spec(), protocol=pickle.HIGHEST_PROTOCOL)
        campaign.run(plans=campaign.generate_plans(6))
        assert campaign._golden_caches
        after = pickle.dumps(campaign.spec(), protocol=pickle.HIGHEST_PROTOCOL)
        assert after == before

    def test_fingerprints_do_not_depend_on_a_run(self, lenet_prepared):
        """A fixed16 B=1 run quantizes through the policy's format; what
        the format keeps for that stays out of its pickle, so the spec
        fingerprint and a request's ``spec_key`` (worker-cache and store
        keys) are the same before and after, and equal those of formats
        that never quantized anything."""
        from dataclasses import replace

        from repro.injection.pool import spec_fingerprint
        from repro.quantization import FixedPointFormat, FixedPointPolicy
        from repro.service import request_from_campaign

        def fresh_fixed16():
            # Equal to FIXED16, but untouched by any earlier quantize.
            fmt = FixedPointFormat(FIXED16.integer_bits,
                                   FIXED16.fraction_bits)
            return dict(fault_model=SingleBitFlip(fmt),
                        dtype_policy=FixedPointPolicy(fmt))

        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        ingredients = fresh_fixed16()
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs,
                                          seed=0, **ingredients)
        # Built before anything quantized with its formats.
        expected = spec_fingerprint(replace(campaign.spec(),
                                            **fresh_fixed16()))

        def keys():
            request = request_from_campaign(lenet_prepared.model, inputs,
                                            seed=0, **ingredients)
            return spec_fingerprint(campaign.spec()), request.arm_keys()[0]

        before = keys()
        result = campaign.run(plans=campaign.generate_plans(6),
                              batch_trials=1)
        assert result.nodes_recomputed > 0  # the replay quantized
        assert keys() == before == (expected, expected)
