"""Equivalence suite for cross-site (union-cone) batched replay.

PR 4's batched engine only stacked trials that shared an ``(input,
fault-node set)``; the union-cone engine batches trials across *different*
fault sites: each row enters the replay at its own injection node
(per-node row-membership masks), the executor walks the union cone of
every site in the batch, and per-row dirty tracking confines each row to
its own site's cone.  The guarantees under test:

1. **Trial identity is exact.**  Cross-site batches keep per-trial RNG
   streams, so applied-fault records are *bit-identical* to the
   incremental path for every packing, and batching composes with
   ``workers=N``, paired comparisons and the persistent pool.
2. **Verdict sets agree under ULP_TOLERANT** across the zoo subset ×
   {fixed16, fixed32} × {unprotected, Ranger} × batch widths {8, 32} —
   and on ResNet-18, whose skip connections force every surviving row
   through the convergence adds.
3. **Adversarial cone shapes behave.**  Disjoint cones keep each other's
   rows golden, nested cones pass early rows *through* later entry nodes,
   skip-connection convergence merges packed rows correctly, and a
   batch-coupled operator anywhere in the union is refused with
   ``GraphError``.
4. **The packer is safe.**  ``pack_batches`` partitions every position,
   respects the width cap, never mixes inputs, falls back to per-site
   groups when the union-cone budget is exceeded, and is deterministic.
5. **``CampaignPool`` is invisible in the results.**  Pooled sweeps are
   bit-identical to fresh per-campaign runs, including paired comparisons
   and reuse across distinct campaign configurations.
"""

import math
from collections import Counter

import numpy as np
import pytest

from repro import ops
from repro.core import Ranger
from repro.graph import EquivalenceMode, Executor, Graph, GraphError
from repro.injection import (
    CampaignPool,
    CampaignResult,
    FaultInjectionCampaign,
    FaultInjector,
    RunOptions,
    SingleBitFlip,
    compare_protection,
    trial_rng,
)
from repro.injection.injector import InjectionPlan
from repro.models import prepare_model
from repro.quantization import FIXED16, FIXED32, fixed16_policy, fixed32_policy

ZOO_SUBSET = ("lenet", "squeezenet")
TRIALS = 32
BATCH_WIDTHS = (8, 32)
DTYPE_POLICIES = {"fixed16": fixed16_policy, "fixed32": fixed32_policy}


def same_site_batch_count(campaign, plans, width):
    """Batches an identical-site grouping needs for ``plans``.

    Trials stack only when they share an input *and* a fault-node set, in
    chunks of at most ``width``; plans whose sites overlap replay alone
    and form no batch.  The baseline cross-site packing must beat.
    """
    groups = Counter()
    for input_index, plan in plans:
        sites = frozenset(plan.node_names())
        if not campaign.injector.sites_overlap(sites):
            groups[input_index, sites] += 1
    return sum(math.ceil(size / width) for size in groups.values())


@pytest.fixture(scope="module", params=ZOO_SUBSET)
def subset_prepared(request):
    return prepare_model(request.param, train=False, seed=1)


@pytest.fixture(scope="module")
def resnet_prepared():
    return prepare_model("resnet18", train=False, seed=1)


# ---------------------------------------------------------------------------
# Hand-built graphs: the adversarial cone shapes, checked row-for-row
# against the batch-1 ``run_from`` replay.  Every operator here is
# elementwise (no BLAS), so batched rows must be *bit-identical* to their
# batch-1 replays and the tests can compare raw bytes under EXACT mode.
# ---------------------------------------------------------------------------


def chain_graph():
    """x -> a -> b -> c -> out (one straight cone; b's cone nests in a's)."""
    g = Graph("chain")
    g.add("x", ops.Placeholder(name="x", shape=(4,)))
    g.add("a", ops.Scale(1.5), inputs=["x"])
    g.add("b", ops.ReLU(), inputs=["a"])
    g.add("c", ops.Scale(0.5), inputs=["b"])
    g.add("out", ops.Identity(), inputs=["c"])
    g.mark_output("out")
    return g


def branch_graph():
    """Two disjoint branches joined by a feature-axis concat at the top."""
    g = Graph("branches")
    g.add("x", ops.Placeholder(name="x", shape=(4,)))
    g.add("left", ops.Scale(2.0), inputs=["x"])
    g.add("left_relu", ops.ReLU(), inputs=["left"])
    g.add("right", ops.Scale(-1.0), inputs=["x"])
    g.add("right_relu", ops.ReLU(), inputs=["right"])
    g.add("join", ops.Concatenate(axis=-1),
          inputs=["left_relu", "right_relu"])
    g.add("out", ops.Identity(), inputs=["join"])
    g.mark_output("out")
    return g


def skip_graph():
    """x -> a -> b -> add(a, b) -> out: a residual-style convergence."""
    g = Graph("skip")
    g.add("x", ops.Placeholder(name="x", shape=(4,)))
    g.add("a", ops.Scale(1.25), inputs=["x"])
    g.add("b", ops.ReLU(), inputs=["a"])
    g.add("add", ops.Add(), inputs=["a", "b"])
    g.add("out", ops.Identity(), inputs=["add"])
    g.mark_output("out")
    return g


def run_cross_site(graph, entries, feed):
    """Batched replay with per-row entries vs. per-row run_from replays.

    ``entries`` maps node -> list of (row, corrupted (1, ...) value); the
    batch width is the total row count.  Returns (batched outputs, list of
    per-row reference outputs).
    """
    executor = Executor(graph)
    cache = executor.run(feed).values
    batch = sum(len(rows) for rows in entries.values())
    masks, packed = {}, {}
    per_row_site = {}
    for name, rows in entries.items():
        mask = np.zeros(batch, dtype=bool)
        values = []
        for row, value in rows:
            mask[row] = True
            per_row_site[row] = (name, value)
        for row in sorted(row for row, _ in rows):
            values.append(np.asarray(dict(rows)[row])[0])
        masks[name] = mask
        packed[name] = np.stack(values)
    result = executor.run_from_batched(
        cache, stacked_dirty_values=packed, dirty_row_masks=masks,
        equivalence=EquivalenceMode.EXACT)
    references = []
    for row in range(batch):
        name, value = per_row_site[row]
        references.append(executor.run_from(
            cache, dirty_values={name: np.asarray(value)}))
    return result, references


class TestAdversarialCones:
    FEED = {"x": np.array([[1.0, -2.0, 3.0, 0.5]])}

    def test_nested_cones_flow_through_entry_nodes(self):
        """Row 0 enters upstream of row 1's entry; both replay bit-exactly.

        Row 0's dirt must be re-evaluated *through* node ``c`` even though
        ``c`` is row 1's entry node (where row 1's value is installed
        as-is).
        """
        graph = chain_graph()
        result, refs = run_cross_site(graph, {
            "a": [(0, np.array([[9.0, 9.0, 9.0, 9.0]]))],
            "c": [(1, np.array([[-4.0, -4.0, -4.0, -4.0]]))],
        }, self.FEED)
        stacked = result.output("out")
        for row, ref in enumerate(refs):
            assert stacked[row].tobytes() == ref.output("out").tobytes(), row
        # c was re-evaluated (for row 0) even though it is row 1's entry.
        assert "c" in result.recomputed

    def test_disjoint_cones_keep_foreign_rows_golden(self):
        graph = branch_graph()
        result, refs = run_cross_site(graph, {
            "left": [(0, np.array([[5.0, 5.0, 5.0, 5.0]]))],
            "right": [(1, np.array([[7.0, 7.0, 7.0, 7.0]]))],
        }, self.FEED)
        stacked = result.output("out")
        for row, ref in enumerate(refs):
            assert stacked[row].tobytes() == ref.output("out").tobytes(), row
        # Row 0 must never be evaluated in the right branch or vice versa:
        # each branch relu saw exactly one dirty row (2 row-evals), and the
        # post-convergence nodes (join, out) saw both rows (2 × 2).
        assert result.recomputed == {"left_relu", "right_relu", "join", "out"}
        assert result.rows_evaluated == 6

    def test_skip_connection_convergence_merges_rows(self):
        graph = skip_graph()
        result, refs = run_cross_site(graph, {
            "a": [(0, np.array([[2.0, -3.0, 1.0, 4.0]])),
                  (2, np.array([[0.5, 0.5, 0.5, 0.5]]))],
            "b": [(1, np.array([[6.0, 6.0, 6.0, 6.0]]))],
        }, self.FEED)
        stacked = result.output("out")
        for row, ref in enumerate(refs):
            assert stacked[row].tobytes() == ref.output("out").tobytes(), row

    def test_requested_outputs_outlive_their_last_reader(self):
        """Dirty rows are dropped once no later node reads them, except at
        requested outputs: ``a`` (last read by ``add``) and ``b`` still
        report their replayed rows, not the golden cache."""
        graph = skip_graph()
        executor = Executor(graph)
        cache = executor.run(self.FEED).values
        stacked = np.array([[9.0, -9.0, 2.0, 1.0], [0.5, 0.5, -0.5, 4.0]])
        result = executor.run_from_batched(
            cache, stacked_dirty_values={"x": stacked},
            outputs=["a", "b", "out"], equivalence=EquivalenceMode.EXACT)
        for row in range(len(stacked)):
            ref = executor.run_from(
                cache, dirty_values={"x": stacked[row:row + 1]},
                outputs=["a", "b", "out"])
            for name in ("a", "b", "out"):
                assert (result.outputs[name][row].tobytes()
                        == ref.outputs[name][0].tobytes()), (row, name)

    def test_batch_coupled_op_in_union_is_refused(self):
        g = Graph("coupled")
        g.add("x", ops.Placeholder(name="x", shape=(4,)))
        g.add("a", ops.Scale(2.0), inputs=["x"])
        drop = ops.Dropout(rate=0.5)
        drop.training = True
        g.add("drop", drop, inputs=["a"])
        g.add("out", ops.Identity(), inputs=["drop"])
        g.mark_output("out")
        executor = Executor(g)
        drop.training = False
        cache = executor.run({"x": np.ones((1, 4))}).values
        drop.training = True
        masks = {"a": np.array([True, False]), "x": np.array([False, True])}
        packed = {"a": np.full((1, 4), 3.0), "x": np.full((1, 4), 2.0)}
        with pytest.raises(GraphError, match="batch-coupled"):
            executor.run_from_batched(cache, stacked_dirty_values=packed,
                                      dirty_row_masks=masks)

    def test_mask_validation(self):
        graph = chain_graph()
        executor = Executor(graph)
        cache = executor.run(self.FEED).values
        with pytest.raises(GraphError, match="no stacked dirty value"):
            executor.run_from_batched(
                cache, stacked_dirty_values={"a": np.ones((1, 4))},
                dirty_row_masks={"b": np.array([True, False])})
        with pytest.raises(GraphError, match="row mask selects"):
            executor.run_from_batched(
                cache, stacked_dirty_values={"a": np.ones((2, 4))},
                dirty_row_masks={"a": np.array([True, False, False])})
        with pytest.raises(GraphError, match="disagree on the batch size"):
            executor.run_from_batched(
                cache,
                stacked_dirty_values={"a": np.ones((1, 4)),
                                      "b": np.ones((3, 4))},
                dirty_row_masks={"a": np.array([True, False])})

    def test_batch_invariant_entry_is_refused(self):
        """A stacked override at a Variable/Constant cannot stack rows —
        it must be refused, not silently served from the golden cache."""
        g = Graph("invariant")
        g.add("x", ops.Placeholder(name="x", shape=(3,)))
        g.add("w", ops.Variable(np.array([1.0, 2.0, 3.0]), name="w"))
        g.add("sum", ops.Add(), inputs=["x", "w"])
        g.mark_output("sum")
        executor = Executor(g)
        cache = executor.run({"x": np.ones((1, 3))}).values
        with pytest.raises(GraphError, match="batch-invariant"):
            executor.run_from_batched(
                cache, stacked_dirty_values={"w": np.ones((2, 3))})


# ---------------------------------------------------------------------------
# Injector-level: heterogeneous plans in one inject_cached_batch call.
# ---------------------------------------------------------------------------


class TestHeterogeneousInjectorBatches:
    def test_mixed_site_rows_match_their_batch1_replays(self, lenet_prepared):
        """One batch mixing early/middle/late sites: row i must agree with
        trial i's own batch-1 replay (bit-identical faults, same argmax)."""
        model = lenet_prepared.model
        injector = FaultInjector(model, SingleBitFlip(FIXED32), seed=3)
        x = lenet_prepared.dataset.x_val[:1]
        sizes = injector.profile_state_space(x)
        executor = model.executor()
        cache = executor.run({model.input_name: x},
                             outputs=[model.output_name]).values
        names = list(sizes)
        sites = [names[0], names[len(names) // 2], names[-1]]
        plans = [InjectionPlan(sites=[(site, element * 7)])
                 for site in sites for element in range(4)]
        rngs = [trial_rng(11, index) for index in range(len(plans))]
        stacked, batch_faults, result = injector.inject_cached_batch(
            executor, cache, plans, rngs)
        assert result.outputs[model.output_name].shape[0] == len(plans)
        for row, plan in enumerate(plans):
            out, faults, _ = injector.inject_cached(
                executor, cache, plan, rng=trial_rng(11, row))
            assert faults == batch_faults[row]
            assert np.argmax(stacked[row]) == np.argmax(out)
            np.testing.assert_allclose(stacked[row], out[0],
                                       rtol=1e-12, atol=1e-15)

    def test_nested_sites_across_trials(self, lenet_prepared):
        """Trial A's site upstream of trial B's site — allowed and exact
        (the within-plan overlap rejection must not fire across trials)."""
        model = lenet_prepared.model
        injector = FaultInjector(model, SingleBitFlip(FIXED32), seed=5)
        x = lenet_prepared.dataset.x_val[:1]
        sizes = injector.profile_state_space(x)
        executor = model.executor()
        cache = executor.run({model.input_name: x},
                             outputs=[model.output_name]).values
        names = list(sizes)
        upstream, downstream = names[0], names[1]
        assert downstream in model.graph.downstream(upstream)
        plans = [InjectionPlan(sites=[(upstream, 3)]),
                 InjectionPlan(sites=[(downstream, 5)]),
                 InjectionPlan(sites=[(upstream, 11)])]
        rngs = [trial_rng(7, index) for index in range(len(plans))]
        stacked, batch_faults, _ = injector.inject_cached_batch(
            executor, cache, plans, rngs)
        for row, plan in enumerate(plans):
            out, faults, _ = injector.inject_cached(
                executor, cache, plan, rng=trial_rng(7, row))
            assert faults == batch_faults[row]
            np.testing.assert_allclose(stacked[row], out[0],
                                       rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# Campaign-level equivalence across the zoo subset.
# ---------------------------------------------------------------------------


class TestZooEquivalence:
    @pytest.mark.parametrize("dtype_name", sorted(DTYPE_POLICIES))
    @pytest.mark.parametrize("use_ranger", [False, True],
                             ids=["unprotected", "ranger"])
    def test_union_batches_match_incremental(self, subset_prepared,
                                             dtype_name, use_ranger):
        prepared = subset_prepared
        model = prepared.model
        if use_ranger:
            sample, _ = prepared.dataset.sample_train(4, seed=0)
            model, _ = Ranger(seed=0).protect(prepared.model,
                                              profile_inputs=sample)
        policy = DTYPE_POLICIES[dtype_name]()
        inputs = prepared.dataset.x_val[:2]

        def build():
            return FaultInjectionCampaign(model, inputs,
                                          fault_model=SingleBitFlip(FIXED16),
                                          dtype_policy=policy, seed=0)

        serial = build()
        plans = serial.generate_plans(TRIALS)
        reference = serial.run(plans=plans, keep_faults=True)
        for width in BATCH_WIDTHS:
            result = build().run(plans=plans, keep_faults=True,
                                 batch_trials=width)
            assert result.equivalence == "ulp_tolerant"
            assert result.sdc_counts == reference.sdc_counts, width
            assert result.faults == reference.faults, width
            # The packer crossed sites: strictly fewer batches than the
            # identical-site grouping would need.
            assert result.batch_count < same_site_batch_count(
                serial, plans, width), width
            assert result.batched_fraction > 0.9
            assert result.mean_batch_occupancy > 2.0

    def test_resnet_skip_connections_match_incremental(self, resnet_prepared):
        """Skip-connection convergence at model scale: every surviving row
        rides the residual adds to the output, packed and merged."""
        prepared = resnet_prepared
        inputs = prepared.dataset.x_val[:2]

        def build():
            return FaultInjectionCampaign(prepared.model, inputs,
                                          fault_model=SingleBitFlip(FIXED32),
                                          dtype_policy=fixed32_policy(),
                                          seed=0)

        serial = build()
        plans = serial.generate_plans(24)
        reference = serial.run(plans=plans, keep_faults=True)
        result = build().run(plans=plans, keep_faults=True, batch_trials=8)
        assert result.sdc_counts == reference.sdc_counts
        assert result.faults == reference.faults
        assert result.batch_count < same_site_batch_count(serial, plans, 8)


# ---------------------------------------------------------------------------
# The packer.
# ---------------------------------------------------------------------------


class TestPackBatches:
    def make_campaign(self, prepared):
        return FaultInjectionCampaign(prepared.model,
                                      prepared.dataset.x_val[:3], seed=0)

    def test_partition_width_and_input_purity(self, lenet_prepared):
        campaign = self.make_campaign(lenet_prepared)
        plans = campaign.generate_plans(50)
        for width in (4, 16):
            batches, fallback = campaign.pack_batches(plans, width)
            positions = sorted(p for _, chunk in batches for p in chunk)
            assert positions + sorted(fallback) and \
                sorted(positions + fallback) == list(range(50))
            for input_index, chunk in batches:
                assert 0 < len(chunk) <= width
                assert all(plans[p][0] == input_index for p in chunk)

    def test_packing_is_deterministic(self, lenet_prepared):
        campaign = self.make_campaign(lenet_prepared)
        plans = campaign.generate_plans(40)
        assert campaign.pack_batches(plans, 8) == \
            campaign.pack_batches(plans, 8)

    def test_identical_sites_stay_adjacent(self, lenet_prepared):
        """Trials at one site always land in the same (or consecutive)
        batches — the packer must not interleave distinct sites between
        them when cones are identical."""
        campaign = self.make_campaign(lenet_prepared)
        names = list(campaign.injector._site_sizes)
        plans = [(0, InjectionPlan(sites=[(names[i % 2], i)]))
                 for i in range(12)]
        batches, fallback = campaign.pack_batches(plans, 12)
        assert not fallback
        assert len(batches) == 1  # both sites' cones nest: one full batch
        # Same-site trials are contiguous in pack order (site-major).
        site_order = [plans[p][1].sites[0][0] for p in batches[0][1]]
        changes = sum(1 for a, b in zip(site_order, site_order[1:]) if a != b)
        assert changes == 1
        assert sorted(batches[0][1]) == list(range(12))

    def test_union_budget_falls_back_to_per_site_groups(self, lenet_prepared):
        """A sub-1.0 budget factor can never admit a second distinct cone,
        so packing degenerates to identical-cone groups."""
        campaign = self.make_campaign(lenet_prepared)
        plans = campaign.generate_plans(30)
        batches, fallback = campaign.pack_batches(plans, 32,
                                                  union_cost_factor=0.99)
        for input_index, chunk in batches:
            cones = {frozenset(plans[p][1].node_names()) for p in chunk}
            sizes = {len(campaign._cone_in_needed(c)) for c in cones}
            union = set()
            for cone in cones:
                union |= campaign._cone_in_needed(cone)
            # Union never exceeds the largest member: nested-only packing.
            assert len(union) <= max(sizes)

    def test_overlapping_plans_fall_back(self, lenet_prepared):
        campaign = self.make_campaign(lenet_prepared)
        names = list(campaign.injector._site_sizes)
        upstream, downstream = names[0], names[1]
        plans = [(0, InjectionPlan(sites=[(upstream, 0), (downstream, 1)])),
                 (0, InjectionPlan(sites=[(upstream, 2)]))]
        batches, fallback = campaign.pack_batches(plans, 8)
        assert fallback == [0]
        assert [p for _, chunk in batches for p in chunk] == [1]


# ---------------------------------------------------------------------------
# Occupancy accounting.
# ---------------------------------------------------------------------------


class TestOccupancyReporting:
    def test_summary_and_properties(self, lenet_prepared):
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)
        result = campaign.run(trials=24, batch_trials=8)
        assert result.batch_count > 0
        assert result.batched_trials + 0 <= result.trials
        assert result.mean_batch_occupancy > 1.0
        assert 0.0 < result.batched_fraction <= 1.0
        text = result.summary()
        assert "mean occupancy" in text
        assert "union-cone overhead" in text

    def test_unbatched_results_report_no_occupancy(self, lenet_prepared):
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)
        result = campaign.run(trials=5)
        assert result.batch_count == 0
        assert result.mean_batch_occupancy is None
        assert result.batched_fraction == 0.0
        assert "occupancy" not in result.summary()

    def test_merge_adds_occupancy_counters(self):
        shard = CampaignResult(model_name="m", fault_model="f", trials=10,
                               sdc_counts={"top1": 1},
                               equivalence="ulp_tolerant",
                               batch_count=2, batched_trials=9,
                               union_overhead_nodes=5)
        merged = CampaignResult.merge([shard, shard])
        assert merged.batch_count == 4
        assert merged.batched_trials == 18
        assert merged.union_overhead_nodes == 10
        assert merged.mean_batch_occupancy == pytest.approx(4.5)

    def test_workers_carry_occupancy_counters(self, lenet_prepared):
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)

        def build():
            return FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)

        serial = build()
        plans = serial.generate_plans(24)
        reference = serial.run(plans=plans, batch_trials=8)
        fanned = build().run(plans=plans, batch_trials=8, workers=2)
        assert fanned.batched_trials == reference.batched_trials == 24
        assert fanned.sdc_counts == reference.sdc_counts


# ---------------------------------------------------------------------------
# Paired comparisons: the protected side batches too, on shared packing.
# ---------------------------------------------------------------------------


class TestPairedBatchedComparison:
    def test_both_sides_batch_and_stay_paired(self, lenet_prepared,
                                              lenet_protected):
        protected, _ = lenet_protected
        inputs, _ = lenet_prepared.correctly_predicted_inputs(3, seed=0)
        serial = compare_protection(lenet_prepared.model, protected, inputs,
                                    trials=24, seed=3)
        batched = compare_protection(lenet_prepared.model, protected, inputs,
                                     trials=24, seed=3, batch_trials=8)
        for reference, result in zip(serial, batched):
            assert result.sdc_counts == reference.sdc_counts
            assert result.trials == reference.trials
            # The protected side replays batched too, on the shared packing.
            assert result.batch_count > 0
            assert result.batched_fraction > 0.9
        base, guarded = batched
        assert base.batch_count == guarded.batch_count
        assert base.batched_trials == guarded.batched_trials


# ---------------------------------------------------------------------------
# The persistent pool.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def campaign_pool():
    with CampaignPool(workers=2) as pool:
        yield pool


class TestCampaignPool:
    def test_pooled_run_is_bit_identical(self, lenet_prepared, campaign_pool):
        inputs, _ = lenet_prepared.correctly_predicted_inputs(3, seed=0)

        def build():
            return FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)

        serial = build()
        plans = serial.generate_plans(18)
        reference = serial.run(plans=plans, keep_faults=True)
        pooled = build().run(plans=plans, keep_faults=True,
                             pool=campaign_pool)
        repeat = build().run(plans=plans, keep_faults=True,
                             pool=campaign_pool)  # worker-side cache hit
        for result in (pooled, repeat):
            assert result.sdc_counts == reference.sdc_counts
            assert result.faults == reference.faults
            assert result.trials == reference.trials

    def test_pool_reuse_across_distinct_campaigns(self, lenet_prepared,
                                                  campaign_pool):
        """Interleaved configs must not bleed into each other's results."""
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        configs = [SingleBitFlip(FIXED32), SingleBitFlip(FIXED16)]
        for fault_model in configs * 2:
            campaign = FaultInjectionCampaign(lenet_prepared.model, inputs,
                                              fault_model=fault_model, seed=1)
            plans = campaign.generate_plans(10)
            reference = FaultInjectionCampaign(
                lenet_prepared.model, inputs, fault_model=fault_model,
                seed=1).run(plans=plans, keep_faults=True)
            pooled = campaign.run(plans=plans, keep_faults=True,
                                  pool=campaign_pool)
            assert pooled.sdc_counts == reference.sdc_counts
            assert pooled.faults == reference.faults

    def test_pooled_batched_compare_protection(self, lenet_prepared,
                                               lenet_protected,
                                               campaign_pool):
        protected, _ = lenet_protected
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        serial = compare_protection(lenet_prepared.model, protected, inputs,
                                    trials=16, seed=2, batch_trials=4)
        pooled = compare_protection(lenet_prepared.model, protected, inputs,
                                    trials=16, seed=2, batch_trials=4,
                                    pool=campaign_pool)
        for reference, result in zip(serial, pooled):
            assert result.sdc_counts == reference.sdc_counts
            assert result.equivalence == reference.equivalence

    def test_pool_run_convenience_and_close(self, lenet_prepared):
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)
        plans = campaign.generate_plans(8)
        reference = campaign.run(plans=plans)
        pool = CampaignPool(workers=2)
        try:
            result = pool.run(campaign, plans=plans)
        finally:
            pool.close()
        assert result.sdc_counts == reference.sdc_counts
        assert pool.closed
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_plans(campaign, plans, RunOptions(trials=len(plans)))

    def test_pool_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            CampaignPool(workers=0)
