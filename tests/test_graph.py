"""Unit tests for the dataflow graph, executor and builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ops
from repro.graph import (
    Executor,
    Graph,
    GraphBuilder,
    GraphError,
    set_training_mode,
)
from repro.quantization import FIXED16, FixedPointPolicy


def tiny_graph():
    """x -> relu -> clip, with one variable added in."""
    g = Graph("tiny")
    g.add("x", ops.Placeholder("x"))
    g.add("w", ops.Variable(np.array([[2.0]]), name="w"))
    g.add("matmul", ops.MatMul(), ["x", "w"])
    g.add("relu", ops.ReLU(), ["matmul"])
    g.mark_output("relu")
    return g


class TestGraphStructure:
    def test_add_and_lookup(self):
        g = tiny_graph()
        assert "relu" in g
        assert len(g) == 4
        assert g.node("relu").inputs == ("matmul",)

    def test_duplicate_name_rejected(self):
        g = tiny_graph()
        with pytest.raises(GraphError, match="already exists"):
            g.add("relu", ops.ReLU(), ["matmul"])

    def test_unknown_input_rejected(self):
        g = Graph()
        with pytest.raises(GraphError, match="unknown input"):
            g.add("a", ops.ReLU(), ["missing"])

    def test_unknown_node_lookup(self):
        with pytest.raises(GraphError):
            tiny_graph().node("nope")

    def test_unique_name(self):
        g = tiny_graph()
        assert g.unique_name("fresh") == "fresh"
        assert g.unique_name("relu") == "relu_1"

    def test_consumers(self):
        g = tiny_graph()
        assert [n.name for n in g.consumers("matmul")] == ["relu"]

    def test_topological_order_is_insertion_order(self):
        g = tiny_graph()
        assert g.topological_order() == ["x", "w", "matmul", "relu"]

    def test_placeholders_and_variables(self):
        g = tiny_graph()
        assert [p.name for p in g.placeholders()] == ["x"]
        assert len(g.variables()) == 1
        assert g.num_parameters() == 1

    def test_nodes_by_category(self):
        g = tiny_graph()
        assert [n.name for n in g.nodes_by_category("activation")] == ["relu"]

    def test_mark_output_unknown(self):
        with pytest.raises(GraphError):
            tiny_graph().mark_output("missing")

    def test_adjacency_and_cone_queries(self):
        g = tiny_graph()
        assert g.successors("x") == ["matmul"]
        assert g.successors("matmul") == ["relu"]
        assert g.predecessors("matmul") == ["x", "w"]
        assert g.downstream("matmul") == {"matmul", "relu"}
        assert g.downstream(["x", "w"]) == {"x", "w", "matmul", "relu"}
        assert g.ancestors("relu") == {"x", "w", "matmul", "relu"}
        assert g.ancestors("w") == {"w"}
        with pytest.raises(GraphError):
            g.downstream("missing")
        with pytest.raises(GraphError):
            g.ancestors("missing")

    def test_cone_memos_survive_appends(self):
        g = tiny_graph()
        assert g.downstream("matmul") == {"matmul", "relu"}
        g.add("relu2", ops.ReLU(), ["matmul"])
        assert g.downstream("matmul") == {"matmul", "relu", "relu2"}
        assert g.topo_index()["relu2"] == 4

    def test_downstream_matches_consumer_fixpoint(self):
        """The BFS cone equals the definition via repeated consumer scans."""
        g = tiny_graph()
        g.add("relu2", ops.ReLU(), ["matmul"])
        expected = {"matmul"}
        changed = True
        while changed:
            changed = False
            for node in g:
                if node.name not in expected and \
                        any(i in expected for i in node.inputs):
                    expected.add(node.name)
                    changed = True
        assert g.downstream("matmul") == expected

    def test_summary_mentions_every_node(self):
        text = tiny_graph().summary()
        for name in ("x", "w", "matmul", "relu"):
            assert name in text


class TestGraphDuplication:
    def test_plain_duplicate_preserves_semantics(self):
        g = tiny_graph()
        copy = g.duplicate()
        x = np.array([[3.0]])
        out_orig = Executor(g).run({"x": x}).output()
        out_copy = Executor(copy).run({"x": x}).output()
        np.testing.assert_allclose(out_orig, out_copy)

    def test_duplicate_shares_operator_instances(self):
        g = tiny_graph()
        copy = g.duplicate()
        assert copy.node("w").op is g.node("w").op

    def test_node_hook_can_splice_nodes(self):
        """The import_graph_def + input_map pattern Ranger relies on."""
        g = tiny_graph()

        def hook(new_graph, copied):
            if copied.name == "relu":
                new_graph.add("relu/clip", ops.ClipByValue(0.0, 1.0),
                              ["relu"])
                return "relu/clip"
            return None

        protected = g.duplicate(node_hook=hook)
        assert "relu/clip" in protected
        x = np.array([[5.0]])  # relu output would be 10, clipped to 1
        out = Executor(protected).run({"x": x}).output()
        assert out[0, 0] == pytest.approx(1.0)

    def test_original_graph_untouched_by_hooked_duplicate(self):
        g = tiny_graph()
        g.duplicate(node_hook=lambda ng, n: None)
        assert len(g) == 4

    def test_outputs_remapped_through_hook(self):
        g = tiny_graph()

        def hook(new_graph, copied):
            if copied.name == "relu":
                new_graph.add("guard", ops.ClipByValue(0.0, 2.0), ["relu"])
                return "guard"
            return None

        protected = g.duplicate(node_hook=hook)
        assert protected.outputs == ["guard"]

    def test_bad_hook_replacement_rejected(self):
        g = tiny_graph()
        with pytest.raises(GraphError):
            g.duplicate(node_hook=lambda ng, n: "not-a-node")


class TestExecutor:
    def test_missing_feed_raises(self):
        with pytest.raises(GraphError, match="placeholder"):
            Executor(tiny_graph()).run({})

    def test_requested_output_not_in_graph(self):
        with pytest.raises(GraphError):
            Executor(tiny_graph()).run({"x": np.ones((1, 1))},
                                       outputs=["missing"])

    def test_no_outputs_configured(self):
        g = Graph()
        g.add("x", ops.Placeholder("x"))
        with pytest.raises(GraphError, match="no outputs"):
            Executor(g).run({"x": np.ones(1)})

    def test_output_hook_modifies_value(self):
        g = tiny_graph()
        ex = Executor(g)

        def hook(node, value):
            if node.name == "matmul":
                return value * 0.0
            return value

        ex.add_output_hook(hook)
        out = ex.run({"x": np.array([[4.0]])}).output()
        assert out[0, 0] == 0.0
        ex.remove_output_hook(hook)
        out = ex.run({"x": np.array([[4.0]])}).output()
        assert out[0, 0] == 8.0

    def test_observer_sees_every_node(self):
        g = tiny_graph()
        ex = Executor(g)
        seen = []
        ex.add_observer(lambda node, value: seen.append(node.name))
        ex.run({"x": np.array([[1.0]])})
        assert set(seen) == {"x", "w", "matmul", "relu"}

    def test_values_contains_intermediates(self):
        result = Executor(tiny_graph()).run({"x": np.array([[2.0]])})
        assert result.values["matmul"][0, 0] == 4.0

    def test_fixed_point_policy_quantizes(self):
        g = tiny_graph()
        ex = Executor(g, dtype_policy=FixedPointPolicy(FIXED16))
        out = ex.run({"x": np.array([[1.3]])}).output()
        # Q14.2 resolution is 0.25, so 2.6 is quantized to a multiple of 0.25.
        assert out[0, 0] % 0.25 == pytest.approx(0.0)

    def test_gradients_flow_to_variables(self):
        g = tiny_graph()
        ex = Executor(g)
        x = np.array([[3.0]])
        _, grads = ex.run_with_gradients({"x": x}, {"relu": np.array([[1.0]])})
        w = g.variables()[0]
        assert w.grad is not None
        assert w.grad[0, 0] == pytest.approx(3.0)
        assert grads["x"][0, 0] == pytest.approx(2.0)

    def test_set_training_mode(self):
        b = GraphBuilder("m", seed=0)
        x = b.input((4,), "input")
        d = b.dropout(x, 0.5, "drop")
        b.output(d)
        set_training_mode(b.graph, True)
        assert b.graph.node("drop").op.training is True
        set_training_mode(b.graph, False)
        assert b.graph.node("drop").op.training is False

    def test_set_training_mode_drops_replay_schedules(self):
        """Schedules hoist the pointwise contract, which BatchNorm holds
        at inference only."""
        g = Graph("bn")
        g.add("x", ops.Placeholder("x"))
        g.add("gamma", ops.Variable(np.ones(2)))
        g.add("beta", ops.Variable(np.zeros(2)))
        g.add("bn", ops.BatchNorm(), ["x", "gamma", "beta"])
        g.mark_output("bn")
        step, = g.cone_schedule(frozenset({"bn"}), ("bn",)).steps
        assert step.kind == "pointwise"
        set_training_mode(g, True)
        step, = g.cone_schedule(frozenset({"bn"}), ("bn",)).steps
        assert step.kind == "op"


class TestReplayMemos:
    """The per-graph replay memos are LRU caches of fixed size."""

    @staticmethod
    def chain():
        g = Graph("chain")
        g.add("x", ops.Placeholder("x"))
        previous = "x"
        for step in range(6):
            name = f"n{step}"
            g.add(name, ops.Scale(1.5) if step % 2 else ops.ReLU(),
                  [previous])
            previous = name
        g.mark_output(previous)
        return g

    def test_many_batches_keep_the_schedule_memo_at_its_cap(self,
                                                           monkeypatch):
        from repro.graph import graph as graph_module
        monkeypatch.setattr(graph_module, "SCHEDULE_MEMO_LIMIT", 3)
        g = self.chain()
        reference = Executor(self.chain())
        executor = Executor(g)
        feed = {"x": np.linspace(-1.0, 1.0, 6).reshape(1, 6)}
        cache = executor.run(feed).values
        sites = [f"n{step}" for step in range(5)]
        pairs = [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]
        for _ in range(2):
            for pair in pairs:
                values = {site: -cache[site] - 1.0 for site in pair}
                masks = {site: np.array([site == pair[0], site == pair[1]])
                         for site in pair}
                stacked = {site: values[site] for site in pair}
                got = executor.run_from_batched(
                    cache, stacked_dirty_values=stacked,
                    dirty_row_masks=masks)
                want = reference.run_from_batched(
                    cache, stacked_dirty_values=stacked,
                    dirty_row_masks=masks)
                assert got.output().tobytes() == want.output().tobytes()
                assert got.rows_evaluated == want.rows_evaluated
                assert len(g._schedule_memo) <= 3
                # The one just used is the most recent.
                assert next(reversed(g._schedule_memo))[0] == frozenset(pair)
        assert len(g._schedule_memo) == 3
        # Least recently used goes first: a hit keeps its schedule.
        requested = tuple(g.outputs)
        keys = [(frozenset(pair), requested) for pair in pairs[:4]]
        for key in keys[:3] + keys[:1]:
            g.cone_schedule(*key)
        kept = g.cone_schedule(*keys[0])
        g.cone_schedule(*keys[3])
        assert set(g._schedule_memo) == {keys[0], keys[2], keys[3]}
        assert g.cone_schedule(*keys[0]) is kept

    def test_many_site_sets_keep_the_union_memo_at_its_cap(self,
                                                           monkeypatch):
        from repro.graph import graph as graph_module
        monkeypatch.setattr(graph_module, "UNION_MEMO_LIMIT", 4)
        g = self.chain()
        sites = [f"n{step}" for step in range(6)]
        for i, a in enumerate(sites):
            for b in sites[i:]:
                union = g.downstream_union(frozenset({a, b}))
                assert union == frozenset(g.downstream([a, b]))
                assert len(g._union_memo) <= 4
        assert len(g._union_memo) == 4


def branchy_graph():
    """x -> matmul -> {relu (output), relu_dead} — one dead branch."""
    g = tiny_graph()
    g.add("relu_dead", ops.ReLU(), ["matmul"])
    return g


class TestPrunedExecution:
    def test_prune_skips_non_ancestors(self):
        g = branchy_graph()
        result = Executor(g).run({"x": np.array([[2.0]])})
        assert "relu_dead" not in result.values
        assert result.output()[0, 0] == 4.0

    def test_observers_never_see_pruned_nodes(self):
        g = branchy_graph()
        ex = Executor(g)
        seen = []
        ex.add_observer(lambda node, value: seen.append(node.name))
        ex.run({"x": np.array([[1.0]])})
        assert "relu_dead" not in seen


class TestPartialReExecution:
    def _cache(self, g, x_value=2.0):
        ex = Executor(g)
        return ex, ex.run({"x": np.array([[x_value]])}).values

    def test_dirty_value_propagates(self):
        g = tiny_graph()
        ex, cache = self._cache(g)
        result = ex.run_from(cache, dirty_values={"matmul": np.array([[-1.0]])})
        assert result.output()[0, 0] == 0.0
        assert result.recomputed == {"relu"}
        # The cache itself is left untouched.
        assert cache["relu"][0, 0] == 4.0

    def test_masked_change_terminates_early(self):
        g = tiny_graph()
        g.add("relu2", ops.ReLU(), ["relu"])
        g.outputs[:] = ["relu2"]
        ex, cache = self._cache(g, x_value=-3.0)  # relu output is 0
        # A corrupted matmul value that is still negative is squashed by the
        # first ReLU: nothing downstream of it may be re-evaluated.
        result = ex.run_from(cache, dirty_values={"matmul": np.array([[-9.0]])})
        assert result.recomputed == {"relu"}
        assert result.output()[0, 0] == 0.0

    def test_identical_override_recomputes_nothing(self):
        g = tiny_graph()
        ex, cache = self._cache(g)
        result = ex.run_from(cache, dirty_values={"matmul": cache["matmul"]})
        assert result.recomputed == set()
        assert result.output()[0, 0] == 4.0

    def test_dirty_node_reevaluated_with_hooks_and_policy(self):
        g = tiny_graph()
        ex, cache = self._cache(g)
        calls = []
        ex.add_output_hook(lambda node, out: (calls.append(node.name), out)[1])
        result = ex.run_from(cache, dirty=["matmul"])
        # Re-evaluating from clean cached inputs reproduces the cache bit for
        # bit, so the change dies at the seed itself.
        assert result.recomputed == {"matmul"}
        assert calls == ["matmul"]
        assert result.output()[0, 0] == 4.0

    def test_dirty_placeholder_requires_feed(self):
        g = tiny_graph()
        ex, cache = self._cache(g)
        with pytest.raises(GraphError, match="no value was fed"):
            ex.run_from(cache, dirty=["x"])
        result = ex.run_from(cache, dirty=["x"],
                             feed={"x": np.array([[5.0]])})
        assert result.output()[0, 0] == 10.0

    def test_missing_cache_entry_raises(self):
        g = tiny_graph()
        ex, cache = self._cache(g)
        partial_cache = {"x": cache["x"]}  # matmul's other input is missing
        with pytest.raises(GraphError, match="no cached value"):
            ex.run_from(partial_cache, dirty=["x"],
                        feed={"x": np.array([[1.0]])})

    def test_unknown_dirty_node_rejected(self):
        g = tiny_graph()
        ex, cache = self._cache(g)
        with pytest.raises(GraphError, match="unknown dirty node"):
            ex.run_from(cache, dirty=["nope"])

    def test_equals_full_run_bitwise(self):
        g = tiny_graph()
        g.add("relu2", ops.ReLU(), ["relu"])
        g.outputs[:] = ["relu2"]
        ex, cache = self._cache(g, x_value=1.7)
        corrupted = np.array([[123.456]])
        partial = ex.run_from(cache, dirty_values={"matmul": corrupted})
        # Reference: full run with a hook that swaps in the same value.
        ref = Executor(g)
        ref.add_output_hook(
            lambda node, out: corrupted if node.name == "matmul" else out)
        full = ref.run({"x": np.array([[1.7]])})
        assert partial.output().tobytes() == full.output().tobytes()


class TestGraphBuilder:
    def test_conv_layer_node_granularity(self):
        b = GraphBuilder("m", seed=0)
        x = b.input((8, 8, 3), "input")
        out = b.conv2d(x, 3, 4, 3, name="c1")
        g = b.graph
        assert "c1/kernel" in g and "c1/conv" in g
        assert "c1/bias_add" in g and "c1/relu" in g
        assert out == "c1/relu"

    def test_dense_without_activation(self):
        b = GraphBuilder("m", seed=0)
        x = b.input((6,), "input")
        out = b.dense(x, 6, 2, name="fc", activation=None)
        assert out == "fc/bias_add"

    def test_deterministic_weights_given_seed(self):
        def build(seed):
            b = GraphBuilder("m", seed=seed)
            x = b.input((6,), "input")
            b.dense(x, 6, 2, name="fc", activation=None)
            return b.graph.node("fc/weight").op.value

        np.testing.assert_array_equal(build(7), build(7))
        assert not np.array_equal(build(7), build(8))

    def test_forward_through_builder_graph(self, rng):
        b = GraphBuilder("m", seed=0)
        x = b.input((5, 5, 1), "input")
        h = b.conv2d(x, 1, 2, 3, name="c1")
        h = b.max_pool(h, 2, name="p1")
        h = b.flatten(h)
        h = b.dense(h, 2 * 2 * 2, 3, name="fc", activation=None)
        b.output(b.softmax(h))
        out = Executor(b.graph).run({"input": rng.normal(size=(2, 5, 5, 1))})
        assert out.output().shape == (2, 3)


@given(st.floats(min_value=-8.0, max_value=8.0),
       st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_duplicate_equivalence_property(x_value, weight):
    """Duplicated graphs always compute the same function as the original."""
    g = Graph("prop")
    g.add("x", ops.Placeholder("x"))
    g.add("w", ops.Variable(np.array([[weight]])))
    g.add("matmul", ops.MatMul(), ["x", "w"])
    g.add("tanh", ops.Tanh(), ["matmul"])
    g.mark_output("tanh")
    copy = g.duplicate()
    feed = {"x": np.array([[x_value]])}
    np.testing.assert_allclose(Executor(g).run(feed).output(),
                               Executor(copy).run(feed).output())
