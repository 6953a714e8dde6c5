"""Unit and property tests for Ranger: bounds, profiler, transform, policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ops
from repro.core import (
    ActivationProfiler,
    ClipToBound,
    LayerObservation,
    ProtectionInfo,
    Ranger,
    RangerTransform,
    ReplaceWithRandom,
    ResetToZero,
    RestrictionBounds,
    apply_ranger,
    make_restriction_op,
    protect_model,
)
from repro.graph import Executor
from repro.injection import FaultInjector, SingleBitFlip
from repro.injection.campaign import CampaignSpec
from repro.injection.pool import spec_fingerprint
from repro.models import build_lenet, build_squeezenet
from repro.quantization import FIXED32


class TestLayerObservation:
    def test_tracks_min_max(self):
        obs = LayerObservation("layer")
        obs.update(np.array([1.0, 5.0, -2.0]))
        obs.update(np.array([0.5, 7.0]))
        assert obs.min_value == -2.0
        assert obs.max_value == 7.0
        assert obs.count == 5

    def test_percentile_100_is_max(self):
        obs = LayerObservation("layer")
        obs.update(np.arange(100, dtype=float))
        assert obs.percentile_bound(100.0) == 99.0

    def test_lower_percentile_below_max(self):
        obs = LayerObservation("layer", reservoir_size=1000)
        obs.update(np.arange(1000, dtype=float))
        assert obs.percentile_bound(90.0) < obs.percentile_bound(100.0)

    def test_empty_observation_raises(self):
        with pytest.raises(ValueError):
            LayerObservation("layer").percentile_bound(100.0)

    def test_reservoir_respects_size(self):
        obs = LayerObservation("layer", reservoir_size=64)
        obs.update(np.random.default_rng(0).normal(size=10_000))
        assert obs._reservoir.size == 64


class TestRestrictionBounds:
    def test_lookup_and_contains(self):
        bounds = RestrictionBounds({"a": (0.0, 1.0), "b": (-1.0, 2.0)})
        assert "a" in bounds and "c" not in bounds
        assert bounds["b"] == (-1.0, 2.0)
        assert len(bounds) == 2

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            RestrictionBounds({"a": (2.0, 1.0)})

    def test_merged_for_concat(self):
        bounds = RestrictionBounds({"a": (0.0, 5.0), "b": (-1.0, 3.0)})
        assert bounds.merged(["a", "b"]) == (-1.0, 5.0)

    def test_serialization_round_trip(self):
        bounds = RestrictionBounds({"a": (0.0, 4.5)}, percentile=99.0)
        restored = RestrictionBounds.from_dict(bounds.to_dict(),
                                               percentile=99.0)
        assert restored["a"] == (0.0, 4.5)

    def test_scaled(self):
        bounds = RestrictionBounds({"a": (0.0, 10.0)})
        assert bounds.scaled(0.5)["a"] == (0.0, 5.0)


class TestPolicies:
    def test_clip_policy(self):
        op = ClipToBound(0.0, 2.0)
        np.testing.assert_allclose(op.forward(np.array([-1.0, 1.0, 9.0])),
                                   [0.0, 1.0, 2.0])

    def test_zero_policy(self):
        op = ResetToZero(0.0, 2.0)
        np.testing.assert_allclose(op.forward(np.array([-1.0, 1.0, 9.0])),
                                   [0.0, 1.0, 0.0])

    def test_random_policy_in_range(self):
        op = ReplaceWithRandom(0.0, 2.0, seed=0)
        out = op.forward(np.array([5.0, 1.0, -3.0]))
        assert np.all(out <= 2.0) and np.all(out >= 0.0)
        assert out[1] == 1.0  # in-range values untouched

    def test_policy_registry(self):
        assert isinstance(make_restriction_op("clip", 0, 1), ClipToBound)
        assert isinstance(make_restriction_op("zero", 0, 1), ResetToZero)
        assert isinstance(make_restriction_op("random", 0, 1),
                          ReplaceWithRandom)
        with pytest.raises(ValueError):
            make_restriction_op("median", 0, 1)

    def test_protection_ops_not_injectable(self):
        op = ClipToBound(0.0, 1.0)
        assert op.category == "protection"
        assert not op.injectable

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            ClipToBound(3.0, 1.0)


class TestRandomPolicyCampaigns:
    """A ``Ranger(policy="random")`` model holds no generator state, so
    its campaigns key and replay alike on every path (lenet, fixed32).
    Bounds profiled on two inputs leave the golden runs of others out of
    range, so every run draws replacements, faulty or not."""

    TRIALS = 48

    @pytest.fixture(scope="class")
    def spec(self, lenet_prepared):
        sample, _ = lenet_prepared.dataset.sample_train(2, seed=0)
        protected, _ = Ranger(policy="random", seed=0).protect(
            lenet_prepared.model, profile_inputs=sample)
        inputs, _ = lenet_prepared.correctly_predicted_inputs(3, seed=0)
        return CampaignSpec.of(protected, inputs,
                               fault_model=SingleBitFlip(FIXED32), seed=0)

    def test_spec_key_survives_a_run(self, spec):
        key = spec_fingerprint(spec)
        spec.build().run(trials=8)
        assert spec_fingerprint(spec) == key

    def test_every_path_replays_the_serial_run(self, spec):
        plans = spec.build().generate_plans(self.TRIALS)
        serial = spec.build().run(plans=plans, keep_faults=True)
        assert any(isinstance(node.op, ReplaceWithRandom)
                   for node in spec.model.graph.nodes())
        for options in ({"incremental": False}, {"workers": 2}):
            result = spec.build().run(plans=plans, keep_faults=True,
                                      **options)
            assert result.sdc_counts == serial.sdc_counts, options
            assert result.faults == serial.faults, options
        batched = spec.build().run(plans=plans, batch_trials=8)
        assert batched.sdc_counts == serial.sdc_counts


class TestProfiler:
    def test_profiles_every_relu(self, lenet_prepared):
        profiler = ActivationProfiler(lenet_prepared.model)
        sample, _ = lenet_prepared.dataset.sample_train(30, seed=0)
        profile = profiler.profile(sample)
        relu_nodes = [n.name for n in lenet_prepared.model.graph
                      if n.category == "activation"]
        assert set(profile.observations) == set(relu_nodes)
        bounds = profile.select_bounds(100.0)
        assert all(high >= low for low, high in
                   (bounds[name] for name in relu_nodes))

    def test_inherent_bounds_for_tanh_model(self):
        model = build_lenet(activation="tanh", seed=3)
        profiler = ActivationProfiler(model)
        profile = profiler.profile(np.random.default_rng(0).random((4, 20, 20, 1)))
        assert profile.observations == {}
        assert all(bound == (-1.0, 1.0) for bound in profile.inherent.values())

    def test_percentile_tightens_bounds(self, lenet_prepared):
        profiler = ActivationProfiler(lenet_prepared.model)
        sample, _ = lenet_prepared.dataset.sample_train(50, seed=0)
        profile = profiler.profile(sample)
        loose = profile.select_bounds(100.0)
        tight = profile.select_bounds(95.0)
        assert all(tight[name][1] <= loose[name][1]
                   for name in profile.observations)

    def test_requires_inputs(self, lenet_prepared):
        with pytest.raises(ValueError):
            ActivationProfiler(lenet_prepared.model).profile(np.empty((0, 20, 20, 1)))

    def test_convergence_curve_normalized(self, lenet_prepared):
        profiler = ActivationProfiler(lenet_prepared.model)
        sample, _ = lenet_prepared.dataset.sample_train(40, seed=0)
        curves = profiler.convergence_curve(sample, fractions=(0.25, 0.5, 1.0))
        for curve in curves.values():
            assert curve[-1] == pytest.approx(1.0)
            assert all(0.0 <= v <= 1.0 + 1e-9 for v in curve)
            assert all(curve[i] <= curve[i + 1] + 1e-9
                       for i in range(len(curve) - 1))


class TestTransform:
    def test_inserts_protection_after_activations(self, lenet_prepared,
                                                  lenet_protected):
        protected, info = lenet_protected
        guards = [n for n in protected.graph if n.category == "protection"]
        assert len(guards) == info.num_protected_layers
        # Every ReLU before the last layer must be guarded.
        relu_nodes = [n.name for n in lenet_prepared.model.graph
                      if n.category == "activation"]
        assert set(info.report.protected_nodes) >= set(relu_nodes[:-1])

    def test_pooling_after_relu_is_guarded(self, lenet_protected):
        protected, info = lenet_protected
        assert any(name.startswith("pool") for name in
                   info.report.protected_nodes)

    def test_original_graph_untouched(self, lenet_prepared, lenet_protected):
        assert all(n.category != "protection"
                   for n in lenet_prepared.model.graph)

    def test_fault_free_output_unchanged(self, lenet_prepared,
                                         lenet_protected):
        """With max-value bounds, protection never alters fault-free outputs."""
        protected, _ = lenet_protected
        x = lenet_prepared.dataset.x_train[:8]
        np.testing.assert_allclose(lenet_prepared.model.predict(x),
                                   protected.predict(x), atol=1e-9)

    def test_concat_bound_merging_on_squeezenet(self):
        model = build_squeezenet(seed=5)
        rng = np.random.default_rng(0)
        sample = rng.random((6,) + tuple(model.config["input_shape"]))
        protected, info = protect_model(model, sample)
        concat_nodes = [n.name for n in model.graph if n.category == "concat"]
        protected_concats = [n for n in concat_nodes
                             if n in info.report.node_bounds]
        assert protected_concats, "fire-module concats should be protected"
        for concat_name in protected_concats:
            node = model.graph.node(concat_name)
            low, high = info.report.node_bounds[concat_name]
            input_bounds = [info.report.node_bounds[i] for i in node.inputs]
            assert low == pytest.approx(min(b[0] for b in input_bounds))
            assert high == pytest.approx(max(b[1] for b in input_bounds))

    def test_act_only_ablation_protects_fewer_nodes(self, lenet_prepared):
        ranger = Ranger(seed=0)
        sample, _ = lenet_prepared.dataset.sample_train(30, seed=0)
        profile = ranger.profile(lenet_prepared.model, sample)
        bounds = ranger.select_bounds(profile)
        _, full_report = apply_ranger(lenet_prepared.model, bounds,
                                      protect_extended=True)
        _, act_report = apply_ranger(lenet_prepared.model, bounds,
                                     protect_extended=False)
        assert act_report.num_inserted < full_report.num_inserted

    def test_last_layer_not_protected(self, lenet_protected):
        _, info = lenet_protected
        assert all(not name.startswith("fc3")
                   for name in info.report.protected_nodes)
        assert "softmax" not in info.report.protected_nodes

    def test_insertion_time_recorded(self, lenet_protected):
        _, info = lenet_protected
        assert info.insertion_seconds > 0.0


class TestRangerAPI:
    def test_protect_requires_inputs_or_bounds(self, lenet_prepared):
        with pytest.raises(ValueError):
            Ranger().protect(lenet_prepared.model)

    def test_protect_with_precomputed_bounds(self, lenet_prepared):
        bounds = RestrictionBounds({
            node.name: (0.0, 100.0)
            for node in lenet_prepared.model.graph
            if node.category == "activation"})
        protected, info = Ranger().protect(lenet_prepared.model, bounds=bounds)
        assert info.profile is None
        assert info.num_protected_layers > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Ranger(percentile=0.0)
        with pytest.raises(ValueError):
            Ranger(sample_fraction=0.0)

    def test_sample_fraction_subsamples(self, lenet_prepared):
        ranger = Ranger(sample_fraction=0.25, seed=0)
        profile = ranger.profile(lenet_prepared.model,
                                 lenet_prepared.dataset.x_train[:40])
        assert profile.samples_used == 10

    def test_memory_overhead_accounting(self, lenet_protected):
        _, info = lenet_protected
        assert info.memory_overhead_values() == 2 * len(info.bounds)

    def test_protected_model_corrects_large_fault(self, lenet_prepared,
                                                  lenet_protected):
        """A huge injected value must not change the protected model's label."""
        protected, _ = lenet_protected
        x, y = lenet_prepared.correctly_predicted_inputs(1, seed=3)
        golden_label = int(protected.predict(x).argmax())

        injector = FaultInjector(protected, SingleBitFlip(), seed=0)
        injector.profile_state_space(x)
        executor = protected.executor()

        # Force a worst-case corruption: overwrite one conv activation with a
        # huge value by monkey-patching the fault model.
        class HugeFault(SingleBitFlip):
            def corrupt(self, value, rng):
                return 1e9, 30

        injector.fault_model = HugeFault()
        plan = injector.sample_plan()
        faulty, _ = injector.inject(executor, x, plan)
        assert int(np.argmax(faulty)) == golden_label


# ---------------------------------------------------------------------------
# Property-based tests on the core invariant
# ---------------------------------------------------------------------------

@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_clip_output_always_within_bounds(value, low_raw, span):
    low, high = -low_raw, -low_raw + span
    op = ClipToBound(low, high)
    out = float(op.forward(np.array([value]))[0])
    assert low <= out <= high


@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1,
                max_size=64),
       st.floats(min_value=0.5, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_clip_never_moves_in_range_values(values, bound):
    """Values already inside the restriction range are never modified."""
    x = np.asarray(values)
    op = ClipToBound(-bound, bound)
    out = op.forward(x)
    inside = (x >= -bound) & (x <= bound)
    np.testing.assert_array_equal(out[inside], x[inside])


@given(st.floats(min_value=0.1, max_value=20.0),
       st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=50, deadline=None)
def test_clip_reduces_deviation(bound, corrupted):
    """Clipping never increases the deviation from an in-range golden value."""
    golden = bound / 2.0
    op = ClipToBound(0.0, bound)
    clipped = float(op.forward(np.array([corrupted]))[0])
    assert abs(clipped - golden) <= abs(corrupted - golden) + 1e-9
