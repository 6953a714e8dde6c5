"""Edge-case coverage for ``Executor.run_from`` partial re-execution.

The incremental engine's happy path is covered by the zoo-wide equivalence
suite (``tests/test_incremental.py``); this module pins down the corners:
faults seeded at a graph *input* node, cone queries with multiple requested
outputs, and degraded caches — a dirty node (or a cone input) missing from
the cache must raise a descriptive :class:`GraphError`, never a bare
``KeyError``.
"""

import numpy as np
import pytest

from repro import ops
from repro.graph import Executor, Graph, GraphError


def small_graph():
    """input -> scale -> relu -> (out_a); relu -> neg_scale -> (out_b)."""
    g = Graph("edges")
    g.add("x", ops.Placeholder(name="x", shape=(4,)))
    g.add("scale", ops.Scale(2.0), inputs=["x"])
    g.add("relu", ops.ReLU(), inputs=["scale"])
    g.add("out_a", ops.Identity(), inputs=["relu"])
    g.add("neg", ops.Scale(-1.0), inputs=["relu"])
    g.add("out_b", ops.Identity(), inputs=["neg"])
    g.mark_output("out_a")
    g.mark_output("out_b")
    return g


@pytest.fixture()
def executor():
    return Executor(small_graph())


@pytest.fixture()
def cache(executor):
    return executor.run({"x": np.arange(4.0)[None]}).values


class TestInputNodeFaults:
    def test_dirty_placeholder_replays_from_new_feed(self, executor, cache):
        """A fault at the graph input: re-feed the placeholder and replay."""
        corrupted = np.arange(4.0)[None] + 1.0
        result = executor.run_from(cache, dirty="x", feed={"x": corrupted})
        expected = executor.run({"x": corrupted})
        assert result.output("out_a").tobytes() == \
            expected.output("out_a").tobytes()
        assert result.output("out_b").tobytes() == \
            expected.output("out_b").tobytes()
        assert "x" in result.recomputed

    def test_dirty_placeholder_without_feed_raises(self, executor, cache):
        with pytest.raises(GraphError, match="no value was fed"):
            executor.run_from(cache, dirty="x")

    def test_placeholder_override_skips_reevaluation(self, executor, cache):
        """dirty_values at an input node installs the value directly."""
        corrupted = np.array([[5.0, -1.0, 2.0, 0.0]])
        result = executor.run_from(cache, dirty_values={"x": corrupted})
        expected = executor.run({"x": corrupted})
        assert result.output("out_a").tobytes() == \
            expected.output("out_a").tobytes()
        # The placeholder itself was not re-evaluated, only its consumers.
        assert "x" not in result.recomputed
        assert "scale" in result.recomputed


class TestMultiOutputCones:
    def test_both_outputs_recomputed_from_shared_cone(self, executor, cache):
        dirty = np.array([[9.0, 9.0, 9.0, 9.0]])
        result = executor.run_from(cache, dirty_values={"relu": dirty})
        assert result.output("out_a").tobytes() == \
            np.ascontiguousarray(dirty).tobytes()
        assert result.output("out_b").tobytes() == \
            np.ascontiguousarray(-dirty).tobytes()
        # Only the cone below the dirty node was touched.
        assert result.recomputed == {"out_a", "neg", "out_b"}

    def test_output_subset_prunes_sibling_branch(self, executor, cache):
        dirty = np.array([[9.0, 9.0, 9.0, 9.0]])
        result = executor.run_from(cache, dirty_values={"relu": dirty},
                                   outputs=["out_b"])
        assert result.recomputed == {"neg", "out_b"}
        assert "out_a" not in result.recomputed

    def test_output_outside_cone_served_from_cache(self, executor, cache):
        """A requested output the fault cannot reach keeps its cached bits."""
        dirty = np.array([[1.0, 1.0, 1.0, 1.0]])
        result = executor.run_from(cache, dirty_values={"neg": dirty},
                                   outputs=["out_a", "out_b"])
        assert result.output("out_a").tobytes() == cache["out_a"].tobytes()
        assert result.recomputed == {"out_b"}


class TestDegradedCaches:
    def test_missing_cone_input_raises_graph_error(self, executor, cache):
        """A cone node's input missing from the cache: clear error, not KeyError."""
        broken = dict(cache)
        del broken["relu"]  # input of 'neg' and 'out_a'
        with pytest.raises(GraphError, match="no cached value for input"):
            executor.run_from(broken, dirty="neg")

    def test_missing_dirty_seed_inputs_raise_graph_error(self, executor, cache):
        broken = {"x": cache["x"]}  # only the placeholder survives
        with pytest.raises(GraphError, match="no cached value"):
            executor.run_from(broken, dirty="relu")

    def test_unknown_dirty_node_raises(self, executor, cache):
        with pytest.raises(GraphError, match="unknown dirty node"):
            executor.run_from(cache, dirty="nonexistent")

    def test_requested_output_missing_everywhere_raises(self, executor, cache):
        broken = dict(cache)
        del broken["out_a"]
        # The dirty cone ('neg' onward) never reaches out_a, and the cache
        # does not hold it either: the error must name the output.
        dirty = np.array([[1.0, 1.0, 1.0, 1.0]])
        with pytest.raises(GraphError, match="out_a"):
            executor.run_from(broken, dirty_values={"neg": dirty},
                              outputs=["out_a", "out_b"])

    def test_no_keyerror_escapes_degraded_caches(self, executor, cache):
        """Sweep: dropping any single cache entry yields GraphError or success."""
        dirty = np.array([[3.0, 1.0, 4.0, 1.0]])
        for name in list(cache):
            broken = dict(cache)
            del broken[name]
            try:
                executor.run_from(broken, dirty_values={"scale": dirty})
            except GraphError:
                pass  # acceptable: descriptive failure
            except KeyError as exc:  # pragma: no cover - the regression
                pytest.fail(f"raw KeyError leaked for missing '{name}': {exc}")


class TestExactBitIdentity:
    def test_negative_zero_is_not_snapped_to_golden(self):
        """EXACT rows are clean only when bit-identical: -0.0 replayed
        against a golden +0.0 must keep its sign bit, as a full run does."""
        g = Graph("signed_zero")
        g.add("x", ops.Placeholder(name="x"))
        g.add("out", ops.Scale(1.0), inputs=["x"])
        g.mark_output("out")
        executor = Executor(g)
        cache = executor.run({"x": np.zeros((1, 1))}).values
        dirty = np.array([[-0.0]])
        expected = executor.run({"x": dirty}).output().tobytes()
        assert expected == bytes.fromhex("0000000000000080")
        one_row = executor.run_from(cache, dirty_values={"x": dirty})
        batched = executor.run_from_batched(
            cache, stacked_dirty_values={"x": dirty}, equivalence="exact")
        assert one_row.output().tobytes() == expected
        assert batched.output().tobytes() == expected

    def test_batch_invariant_seed_is_refused(self):
        """Weights and constants are shared by every row of the replay core,
        so re-evaluating one as a seed is refused with a GraphError."""
        g = Graph("weights")
        g.add("x", ops.Placeholder(name="x"))
        g.add("w", ops.Variable(np.ones((2, 2))))
        g.add("out", ops.MatMul(), inputs=["x", "w"])
        g.mark_output("out")
        executor = Executor(g)
        cache = executor.run({"x": np.ones((1, 2))}).values
        with pytest.raises(GraphError, match="batch-invariant"):
            executor.run_from(cache, dirty="w")
