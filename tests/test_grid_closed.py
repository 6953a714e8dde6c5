"""The grid-closure contract and the dtype-policy skip it licenses.

A grid-closed operator (:attr:`repro.ops.base.Operator.grid_closed`) only
selects, moves, pads or zeroes its inputs' elements, so on inputs that are
on a fixed-point grid its output is on the grid too, and the executor does
not quantize it again.  This module checks

* the contract itself, for every operator that claims it: on random
  on-grid inputs (``+0.0``, both saturation bounds and NaN included) the
  output's bytes equal ``quantize(output)``'s;
* which nodes the graph lets skip (:meth:`Graph.grid_closed_nodes`);
* that ``Executor.run`` and the replay core skip exactly those nodes, keep
  every policy call under hooks and observers, and give the bytes of the
  unskipped oracle — also when a fault model installs entry rows that are
  off the grid (a float32 bit flip under a 16-bit policy).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ops
from repro.core.policies import ClipToBound
from repro.graph import Executor, Graph
from repro.graph import executor as executor_module
from repro.graph.executor import set_training_mode
from repro.ops.base import Operator
from repro.quantization import (FIXED16, FIXED32, FixedPointPolicy,
                                flip_float32_bit)

FORMATS = {"fixed16": FIXED16, "fixed32": FIXED32}


def grid_values(fmt):
    """Elements on ``fmt``'s grid, its special points weighted up."""
    half = 2 ** (fmt.total_bits - 1)
    return st.one_of(
        st.sampled_from([0.0, fmt.min_value, fmt.max_value, math.nan]),
        st.integers(-half, half - 1).map(lambda code: code * fmt.scale))


def grid_array(draw, fmt, shape):
    count = int(np.prod(shape))
    values = draw(st.lists(grid_values(fmt), min_size=count, max_size=count))
    return np.array(values, dtype=np.float64).reshape(shape)


def nhwc(draw, low=1, high=4):
    return (draw(st.integers(1, 2)), draw(st.integers(low, high)),
            draw(st.integers(low, high)), draw(st.integers(1, 3)))


def _pool(cls):
    def build(draw, fmt):
        pool = draw(st.integers(1, 3))
        shape = nhwc(draw, low=pool, high=pool + 2)
        op = cls(pool=pool, stride=draw(st.integers(1, 3)),
                 padding=draw(st.sampled_from(["valid", "same"])))
        return op, [grid_array(draw, fmt, shape)]
    return build


def _concat(draw, fmt):
    axis = draw(st.sampled_from([0, 1, 2, -1]))
    shape = nhwc(draw)
    other = list(shape)
    other[axis] = draw(st.integers(1, 3))
    return (ops.Concatenate(axis=axis),
            [grid_array(draw, fmt, shape), grid_array(draw, fmt, other)])


def _reshape(draw, fmt):
    shape = nhwc(draw)
    target = draw(st.sampled_from([(shape[1] * shape[2] * shape[3],),
                                   (shape[2], shape[1], shape[3])]))
    return ops.Reshape(target), [grid_array(draw, fmt, shape)]


def _pad(draw, fmt):
    pads = [draw(st.integers(0, 2)) for _ in range(4)]
    return (ops.Pad2D(pads[:2], pads[2:]),
            [grid_array(draw, fmt, nhwc(draw))])


def _dropout(draw, fmt):
    return (ops.Dropout(rate=draw(st.sampled_from([0.0, 0.3, 0.5]))),
            [grid_array(draw, fmt, nhwc(draw))])


def _selection(cls):
    def build(draw, fmt):
        shape = nhwc(draw)
        bound = draw(st.sampled_from([shape, shape[-1:]]))
        return cls(), [grid_array(draw, fmt, shape),
                       grid_array(draw, fmt, bound)]
    return build


def _unary(cls):
    def build(draw, fmt):
        return cls(), [grid_array(draw, fmt, nhwc(draw))]
    return build


def _bias_add(draw, fmt):
    shape = nhwc(draw)
    return ops.BiasAdd(), [grid_array(draw, fmt, shape),
                           grid_array(draw, fmt, shape[-1:])]


def _add(draw, fmt):
    shape = nhwc(draw)
    return ops.Add(), [grid_array(draw, fmt, shape),
                       grid_array(draw, fmt, shape)]


def _clip_to_bound(draw, fmt):
    low, high = sorted(draw(st.floats(-100, 100)) for _ in range(2))
    return ClipToBound(low, high), [grid_array(draw, fmt, nhwc(draw))]


#: One input builder per operator class: every class that claims the
#: contract, and the arithmetic operators nearest to claiming it (whose
#: property fails when they are marked closed).
BUILDERS = {
    ops.ReLU: _unary(ops.ReLU),
    ops.MaxPool2D: _pool(ops.MaxPool2D),
    ops.Concatenate: _concat,
    ops.Flatten: _unary(ops.Flatten),
    ops.Reshape: _reshape,
    ops.Pad2D: _pad,
    ops.Identity: _unary(ops.Identity),
    ops.Dropout: _dropout,
    ops.Maximum: _selection(ops.Maximum),
    ops.Minimum: _selection(ops.Minimum),
    ops.BiasAdd: _bias_add,
    ops.AvgPool2D: _pool(ops.AvgPool2D),
    ops.Add: _add,
    ClipToBound: _clip_to_bound,
}

CLOSED = [cls for cls in BUILDERS if cls.grid_closed is not False]


def repro_operator_classes():
    """Every operator class the library defines."""
    found, stack = set(), [Operator]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                stack.append(sub)
    return {cls for cls in found if cls.__module__.startswith("repro.")}


def test_every_closed_operator_has_a_builder():
    claimed = {cls for cls in repro_operator_classes()
               if cls.grid_closed is not False}
    assert claimed <= set(BUILDERS), sorted(
        cls.__name__ for cls in claimed - set(BUILDERS))
    assert set(CLOSED) == claimed


@pytest.mark.parametrize("cls", CLOSED, ids=lambda cls: cls.__name__)
@given(data=st.data(), dtype=st.sampled_from(sorted(FORMATS)))
def test_closed_output_is_on_the_grid(cls, data, dtype):
    """On on-grid inputs a grid-closed operator's output has the bytes of
    its quantization."""
    fmt = FORMATS[dtype]
    op, inputs = BUILDERS[cls](data.draw, fmt)
    assert op.grid_closed
    for value in inputs:
        assert fmt.quantize(value).tobytes() == value.tobytes()
    out = np.ascontiguousarray(op.forward(*inputs))
    assert out.dtype == np.float64
    assert fmt.quantize(out).tobytes() == out.tobytes()


def test_training_dropout_is_not_closed():
    dropout = ops.Dropout(rate=0.5)
    assert dropout.grid_closed
    dropout.training = True
    assert not dropout.grid_closed


# ---------------------------------------------------------------------------
# The graph's skip facts and the executor's skip
# ---------------------------------------------------------------------------


def cnn():
    """x -> conv -> bias -> relu -> pool -> pad -> flatten, plus a ReLU on
    the input and a Maximum against a constant, which must keep their
    policy call."""
    rng = np.random.default_rng(3)
    g = Graph("grid")
    g.add("x", ops.Placeholder(name="x", shape=(6, 6, 2)))
    g.add("k", ops.Variable(rng.normal(size=(3, 3, 2, 4))))
    g.add("b", ops.Variable(rng.normal(size=4)))
    g.add("conv", ops.Conv2D(padding="same"), ["x", "k"])
    g.add("bias", ops.BiasAdd(), ["conv", "b"])
    g.add("relu", ops.ReLU(), ["bias"])
    g.add("pool", ops.MaxPool2D(pool=2), ["relu"])
    g.add("pad", ops.Pad2D((1, 0), (0, 1)), ["pool"])
    g.add("flat", ops.Flatten(), ["pad"])
    g.add("relu_in", ops.ReLU(), ["x"])
    g.add("floor", ops.Constant(np.full(2, 0.3)))
    g.add("kept", ops.Maximum(), ["relu_in", "floor"])
    g.add("drop", ops.Dropout(rate=0.5), ["kept"])
    g.mark_output("flat")
    g.mark_output("drop")
    return g


FEED = {"x": np.random.default_rng(4).normal(size=(1, 6, 6, 2)) * 3}


class RecordingPolicy(FixedPointPolicy):
    """A 16-bit policy that records the nodes it is applied to."""

    def __init__(self):
        super().__init__(FIXED16)
        self.applied = []

    def apply(self, node, value):
        self.applied.append(node.name)
        return super().apply(node, value)


def test_grid_closed_nodes_need_policy_outputs():
    g = cnn()
    assert g.grid_closed_nodes() == {"relu", "pool", "pad", "flat", "drop"}
    steps = {step.node.name: step.grid_closed
             for step in g.cone_schedule(frozenset({"bias"}), ("flat",)).steps}
    assert steps == {"bias": False, "relu": True, "pool": True, "pad": True,
                     "flat": True}
    set_training_mode(g, True)
    assert "drop" not in g.grid_closed_nodes()


def test_run_skips_closed_nodes_with_the_same_bytes():
    policy = RecordingPolicy()
    executor = Executor(cnn(), policy)
    skipped = executor.run(FEED)
    assert not set(policy.applied) & executor.graph.grid_closed_nodes()
    policy.applied.clear()
    executor.add_observer(lambda node, out: None)
    full = executor.run(FEED)
    assert set(policy.applied) == {node.name for node in executor.graph}
    assert skipped.values.keys() == full.values.keys()
    for name, value in full.values.items():
        assert skipped.values[name].tobytes() == value.tobytes(), name


def corrupt(cache, flip):
    """The cached ``bias`` output with ``flip`` applied to every element
    (so that every window maximum of the pooling downstream is hit)."""
    return np.vectorize(flip, otypes=[np.float64])(cache["bias"])


def hooked_replay(executor, feed, corrupted):
    """The unskipped oracle: a full run with the corruption installed by
    an output hook."""
    def hook(node, out):
        return corrupted if node.name == "bias" else out
    executor.add_output_hook(hook)
    try:
        return executor.run(feed, outputs=["flat"]).output("flat")
    finally:
        executor.remove_output_hook(hook)


@pytest.mark.parametrize("bit", [0, 1, 5, 13, 15])
def test_on_grid_entry_skips_closed_consumers(bit):
    """Entry rows from a fixed-point flip in the policy's own format pass
    the entry check: the closed nodes downstream skip the policy."""
    policy = RecordingPolicy()
    executor = Executor(cnn(), policy)
    cache = executor.run(FEED).values
    corrupted = corrupt(cache, lambda v: FIXED16.flip_bit(v, bit))
    policy.applied.clear()
    result = executor.run_from(cache, dirty_values={"bias": corrupted},
                               outputs=["flat"])
    assert not set(policy.applied) & {"relu", "pool", "pad", "flat"}
    assert result.output("flat").tobytes() == \
        hooked_replay(executor, FEED, corrupted).tobytes()


@pytest.mark.parametrize("bit", range(0, 17, 2))
def test_off_grid_entry_keeps_the_policy(bit):
    """A float32 flip of a low mantissa bit under the 16-bit policy puts
    entry rows off the grid: the closed reader of the entry quantizes, and
    the replay has the bytes of the unskipped full run."""
    policy = RecordingPolicy()
    executor = Executor(cnn(), policy)
    cache = executor.run(FEED).values
    corrupted = corrupt(cache, lambda v: flip_float32_bit(v, bit))
    assert FIXED16.quantize(corrupted).tobytes() != corrupted.tobytes()
    policy.applied.clear()
    result = executor.run_from(cache, dirty_values={"bias": corrupted},
                               outputs=["flat"])
    assert "relu" in policy.applied
    assert result.output("flat").tobytes() == \
        hooked_replay(executor, FEED, corrupted).tobytes()


@pytest.mark.parametrize("boxed", [False, True], ids=["whole", "boxed"])
def test_off_grid_entry_in_a_batch(boxed, monkeypatch):
    """Batched replay checks each entry (inside its rows' boxes when they
    carry boxes); an off-grid one keeps the policy on its closed readers,
    and every row equals its oracle's value."""
    if boxed:  # let the small test values carry boxes
        monkeypatch.setattr(executor_module, "BOX_MIN_ELEMENTS", 0)
    executor = Executor(cnn(), FixedPointPolicy(FIXED16))
    cache = executor.run(FEED).values
    rows = [corrupt(cache, lambda v: FIXED16.flip_bit(v, 14)),
            corrupt(cache, lambda v: flip_float32_bit(v, 3))]
    stacked = np.concatenate(rows)
    result = executor.run_from_batched(
        cache, stacked_dirty_values={"bias": stacked}, outputs=["flat"])
    for row, corrupted in enumerate(rows):
        np.testing.assert_array_equal(
            result.output("flat")[row],
            hooked_replay(executor, FEED, corrupted)[0])
