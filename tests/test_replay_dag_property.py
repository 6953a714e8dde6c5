"""Property-based replay equivalence on small random DAGs.

``tests/test_replay_property.py`` exercises replay on fixed zoo models;
this suite draws the graph itself.  Hypothesis builds small NHWC DAGs out
of Conv2D (1x1 and 3x3), MatMul + BiasAdd, ReLU, ClipByValue,
inference-mode BatchNorm, MaxPool2D / AvgPool2D and GlobalAvgPool, wired
with fan-out (any earlier tensor may be read again), Add skips and
channel Concatenates, under the float64 and fixed16 policies.  Fault
values are the golden activations with a few elements bit-flipped,
negated, sign-flipped at zero, blown up or left unchanged.

Two replay contracts are checked against them:

* **One-row replay is bit-exact.**  ``run_from(cache, dirty_values=...)``
  returns the same bytes as a full ``Executor.run`` whose output hook
  swaps in the same values, for the graph output and for intermediate
  nodes requested as extra outputs, and re-evaluates only nodes inside
  the fault sites' downstream cone (never a site itself).
* **Batched rows stay within tolerance.**  A ULP_TOLERANT
  ``run_from_batched`` over several rows, each entering at its own sites
  (per-node row masks), returns every row within ``DEFAULT_MAX_ULPS``
  ULPs *of the row's scale* of that row's one-row replay: the absolute
  deviation is at most ``DEFAULT_MAX_ULPS * eps * scale``, where the
  scale is the largest magnitude in the golden cache and the replayed
  row.  ULPs of the output value itself are no bound: BLAS rounds a
  ``(1, 4) @ W`` product differently from a ``(2, 4) @ W`` one, and when
  the dot product cancels to a small value that noise is 64 ULPs of it.

Example budgets come from the Hypothesis profiles registered in
``tests/conftest.py``.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro import ops
from repro.graph import (DEFAULT_MAX_ULPS, DTypePolicy, EquivalenceMode,
                         Executor, Graph)
from repro.quantization import fixed16_policy

POLICIES = {"float64": DTypePolicy, "fixed16": fixed16_policy}
KINDS = ("conv", "relu", "clip", "batchnorm", "maxpool", "avgpool", "add",
         "concat")
MAX_OPS = 7
MAX_CHANNELS = 3
MAX_ROWS = 5
EPS = np.finfo(np.float64).eps


@dataclass
class Case:
    """A drawn graph, its executor under one policy, and the golden run."""

    graph: Graph
    policy: str
    feed: Dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self.executor = Executor(self.graph, POLICIES[self.policy]())
        self.cache = self.executor.run(self.feed).values
        # Fault sites: every cached activation except the batch-invariant
        # weights (no fault model corrupts those).
        self.sites = sorted(
            name for name in self.cache
            if self.graph.node(name).op.batch_axis is not None)

    def full_run(self, dirty_values: Dict[str, np.ndarray]
                 ) -> Dict[str, np.ndarray]:
        """The oracle: every value of a full forward pass with the dirty
        values hooked in."""
        reference = Executor(self.graph, POLICIES[self.policy]())
        reference.add_output_hook(
            lambda node, out: dirty_values.get(node.name, out))
        return reference.run(self.feed).values


def _variable(rng: np.random.Generator, shape, scale: float = 1.0):
    return ops.Variable(rng.normal(0.0, scale, size=shape))


@st.composite
def replay_dags(draw) -> Case:
    """A random DAG of 1..MAX_OPS spatial operators plus a dense head."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    side = draw(st.sampled_from((4, 6)))
    graph = Graph("dag")
    graph.add("x", ops.Placeholder(name="x"))
    shapes: Dict[str, Tuple[int, int, int]] = {
        "x": (side, side, draw(st.integers(1, MAX_CHANNELS)))}
    for step in range(draw(st.integers(1, MAX_OPS))):
        name = f"n{step}"
        src = draw(st.sampled_from(sorted(shapes)))
        h, w, c = shapes[src]
        kind = draw(st.sampled_from(KINDS))
        if kind in ("maxpool", "avgpool") and min(h, w) < 2:
            kind = "relu"
        if kind == "conv":
            size = draw(st.sampled_from((1, 3)))
            out_c = draw(st.integers(1, MAX_CHANNELS))
            graph.add(f"{name}/kernel",
                      _variable(rng, (size, size, c, out_c), 0.5))
            graph.add(name, ops.Conv2D(padding="same"),
                      inputs=[src, f"{name}/kernel"])
            c = out_c
        elif kind == "relu":
            graph.add(name, ops.ReLU(), inputs=[src])
        elif kind == "clip":
            low = float(draw(st.integers(-4, 0)))
            graph.add(name, ops.ClipByValue(low, low + draw(
                st.integers(1, 6))), inputs=[src])
        elif kind == "batchnorm":
            norm = ops.BatchNorm()
            norm.moving_mean = rng.normal(0.0, 0.5, size=c)
            norm.moving_var = rng.uniform(0.5, 2.0, size=c)
            graph.add(f"{name}/gamma", _variable(rng, (c,)))
            graph.add(f"{name}/beta", _variable(rng, (c,)))
            graph.add(name, norm,
                      inputs=[src, f"{name}/gamma", f"{name}/beta"])
        elif kind in ("maxpool", "avgpool"):
            pool_type = ops.MaxPool2D if kind == "maxpool" else ops.AvgPool2D
            stride = draw(st.sampled_from((1, 2)))
            padding = draw(st.sampled_from(("valid", "same")))
            graph.add(name, pool_type(2, stride=stride, padding=padding),
                      inputs=[src])
            h = ops.conv_output_size(h, 2, stride, padding)
            w = ops.conv_output_size(w, 2, stride, padding)
        elif kind == "add":
            partner = draw(st.sampled_from(
                sorted(n for n, s in shapes.items() if s == (h, w, c))))
            graph.add(name, ops.Add(), inputs=[src, partner])
        else:  # concat along channels
            partner = draw(st.sampled_from(
                sorted(n for n, s in shapes.items() if s[:2] == (h, w))))
            graph.add(name, ops.Concatenate(axis=-1), inputs=[src, partner])
            c += shapes[partner][2]
        shapes[name] = (h, w, c)
    last = f"n{step}"
    classes = draw(st.integers(1, 3))
    graph.add("gap", ops.GlobalAvgPool(), inputs=[last])
    graph.add("fc/weight", _variable(rng, (shapes[last][2], classes)))
    graph.add("fc", ops.MatMul(), inputs=["gap", "fc/weight"])
    graph.add("fc/bias", _variable(rng, (classes,)))
    graph.add("out", ops.BiasAdd(), inputs=["fc", "fc/bias"])
    graph.mark_output("out")
    x = rng.uniform(-4.0, 4.0, size=(1,) + shapes["x"])
    return Case(graph, draw(st.sampled_from(sorted(POLICIES))), {"x": x})


CORRUPTIONS = ("flip", "negate", "signed_zero", "huge", "unchanged")


@st.composite
def fault_values(draw, case: Case, max_sites: int = 2
                 ) -> Dict[str, np.ndarray]:
    """1..max_sites sites, each with a few elements corrupted."""
    sites = draw(st.lists(st.sampled_from(case.sites), min_size=1,
                          max_size=max_sites, unique=True))
    values = {}
    for site in sites:
        value = np.array(case.cache[site], dtype=np.float64)
        flat = value.reshape(-1)
        for _ in range(draw(st.integers(1, 3))):
            element = draw(st.integers(0, flat.size - 1))
            how = draw(st.sampled_from(CORRUPTIONS))
            if how == "flip":
                # Bits 0..61 and the sign: never an inf or a NaN.
                bit = draw(st.one_of(st.integers(0, 61), st.just(63)))
                bits = flat[element:element + 1].view(np.uint64)
                bits ^= np.uint64(1 << bit)
            elif how == "negate":
                flat[element] = -flat[element]
            elif how == "signed_zero":
                flat[element] = -0.0 if flat[element] == 0.0 else 0.0
            elif how == "huge":
                flat[element] = draw(st.sampled_from((1e4, -1e4)))
        values[site] = value
    return values


@given(data=st.data())
def test_one_row_replay_matches_full_run(data):
    case = data.draw(replay_dags(), label="dag")
    dirty_values = data.draw(fault_values(case), label="faults")
    outputs = ["out"] + data.draw(
        st.lists(st.sampled_from(case.sites), max_size=2, unique=True),
        label="extra outputs")
    result = case.executor.run_from(case.cache, dirty_values=dirty_values,
                                    outputs=outputs)
    expected = case.full_run(dirty_values)
    for name in outputs:
        assert result.outputs[name].tobytes() == expected[name].tobytes(), \
            name
    assert result.recomputed <= case.graph.downstream(dirty_values)
    assert not result.recomputed & set(dirty_values)


@given(data=st.data())
def test_batched_rows_stay_within_tolerance_of_one_row_replays(data):
    case = data.draw(replay_dags(), label="dag")
    rows: List[Dict[str, np.ndarray]] = data.draw(
        st.lists(fault_values(case), min_size=2, max_size=MAX_ROWS),
        label="rows")
    members: Dict[str, List[int]] = {}
    for row, values in enumerate(rows):
        for site in values:
            members.setdefault(site, []).append(row)
    stacked = {site: np.concatenate([rows[row][site] for row in member])
               for site, member in members.items()}
    masks = {site: np.isin(np.arange(len(rows)), member)
             for site, member in members.items()}
    batched = case.executor.run_from_batched(
        case.cache, stacked_dirty_values=stacked, dirty_row_masks=masks,
        equivalence=EquivalenceMode.ULP_TOLERANT)
    stacked_out = batched.output()
    assert stacked_out.shape[0] == len(rows)
    golden_scale = max(float(np.abs(value).max())
                       for value in case.cache.values())
    for row, values in enumerate(rows):
        one_row = case.executor.run_from(case.cache,
                                         dirty_values=values).output()
        scale = max(golden_scale, float(np.abs(one_row).max()))
        deviation = float(np.abs(stacked_out[row:row + 1] - one_row).max())
        assert deviation <= DEFAULT_MAX_ULPS * EPS * scale, (row, deviation)
