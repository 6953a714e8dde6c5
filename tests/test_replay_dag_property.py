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

Windowed replay carries a box per dirty row (``repro.ops.boxes``); two
more properties pin it down:

* **Boxes change no bytes.**  ULP_TOLERANT ``run_from_batched`` with
  boxes born on every NHWC value returns the same output bytes,
  ``rows_evaluated`` and conv positions as the same call with every
  operator's ``pointwise`` contract switched off (pointwise steps then
  evaluate whole rows).
* **Boxes are sound and tight.**  Outside the box each helper computes, a
  row is bit-identical to golden; shrinking any non-empty box by one row
  or column breaks that (the box is the tight bounding box); a conv's or
  pool's output differs from golden only inside the window the box
  reaches.

Example budgets come from the Hypothesis profiles registered in
``tests/conftest.py``.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro import core, ops
from repro.graph import (DEFAULT_MAX_ULPS, DTypePolicy, EquivalenceMode,
                         Executor, Graph)
from repro.graph import executor as executor_module
from repro.ops.boxes import RowBoxes, diff_boxes, gather, splice, tighten, union
from repro.ops.conv import reachable_boxes
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


def _pointwise_classes():
    """Every operator class that declares the pointwise contract."""
    seen, pending = [], [ops.Operator]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                pending.append(sub)
    return [cls for cls in seen if "pointwise" in cls.__dict__]


def _batched_rows(case: Case, rows: List[Dict[str, np.ndarray]]):
    """One ULP_TOLERANT cross-site replay of ``rows`` (per-site masks)."""
    members: Dict[str, List[int]] = {}
    for row, values in enumerate(rows):
        for site in values:
            members.setdefault(site, []).append(row)
    stacked = {site: np.concatenate([rows[row][site] for row in member])
               for site, member in members.items()}
    masks = {site: np.isin(np.arange(len(rows)), member)
             for site, member in members.items()}
    return case.executor.run_from_batched(
        case.cache, stacked_dirty_values=stacked, dirty_row_masks=masks,
        outputs=["out"] + [site for site in case.sites if site != "x"],
        equivalence=EquivalenceMode.ULP_TOLERANT)


@given(data=st.data())
def test_boxes_change_no_bytes(data):
    case = data.draw(replay_dags(), label="dag")
    rows = data.draw(st.lists(fault_values(case), min_size=1,
                              max_size=MAX_ROWS), label="rows")
    with pytest.MonkeyPatch.context() as patch:
        # The drawn values are tiny: let boxes be born on all of them.
        patch.setattr(executor_module, "BOX_MIN_ELEMENTS", 0)
        boxed = _batched_rows(case, rows)
        for cls in _pointwise_classes():
            patch.setattr(cls, "pointwise", False)
        case.graph.clear_schedules()
        whole = _batched_rows(case, rows)
    case.graph.clear_schedules()
    assert boxed.pointwise_positions_evaluated <= \
        boxed.pointwise_positions_total
    assert boxed.rows_evaluated == whole.rows_evaluated
    assert boxed.recomputed == whole.recomputed
    assert boxed.conv_positions_evaluated == whole.conv_positions_evaluated
    assert boxed.conv_positions_total == whole.conv_positions_total
    assert boxed.max_ulp_deviation == whole.max_ulp_deviation
    for name, value in whole.outputs.items():
        assert boxed.outputs[name].tobytes() == value.tobytes(), name


def test_boxes_engage_on_a_windowed_chain():
    """A fault in one corner of a conv -> BN -> ReLU -> clip -> conv chain
    is evaluated inside its box, with the same bytes as whole rows."""
    rng = np.random.default_rng(7)
    graph = Graph("chain")
    graph.add("x", ops.Placeholder(name="x"))
    graph.add("k1", _variable(rng, (3, 3, 2, 4), 0.5))
    graph.add("c1", ops.Conv2D(), inputs=["x", "k1"])
    norm = ops.BatchNorm()
    norm.moving_mean = rng.normal(0.0, 0.5, size=4)
    norm.moving_var = rng.uniform(0.5, 2.0, size=4)
    graph.add("g", _variable(rng, (4,)))
    graph.add("b", _variable(rng, (4,)))
    graph.add("bn", norm, inputs=["c1", "g", "b"])
    graph.add("relu", ops.ReLU(), inputs=["bn"])
    graph.add("clip", core.policies.ClipToBound(-1.0, 1.5), inputs=["relu"])
    graph.add("k2", _variable(rng, (3, 3, 4, 3), 0.5))
    graph.add("out", ops.Conv2D(), inputs=["clip", "k2"])
    graph.mark_output("out")
    case = Case(graph, "fixed16", {"x": rng.uniform(-4, 4, (1, 12, 12, 2))})
    rows = []
    for corner in range(4):
        value = np.array(case.cache["c1"])
        value[0, 11 * (corner % 2), 11 * (corner // 2), :] += 3.0
        rows.append({"c1": value})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor_module, "BOX_MIN_ELEMENTS", 0)
        boxed = _batched_rows(case, rows)
        for cls in _pointwise_classes():
            patch.setattr(cls, "pointwise", False)
        graph.clear_schedules()
        whole = _batched_rows(case, rows)
    assert 0 < boxed.pointwise_positions_evaluated \
        < boxed.pointwise_positions_total / 4
    assert boxed.rows_evaluated == whole.rows_evaluated
    assert boxed.conv_positions_evaluated == whole.conv_positions_evaluated
    for name, value in whole.outputs.items():
        assert boxed.outputs[name].tobytes() == value.tobytes(), name


@st.composite
def changed_rows(draw):
    """A golden NHWC row and 1..4 rows that differ from it in a few
    positions (bit flips, sign flips at zero, large values) or nowhere."""
    h, w, c = (draw(st.integers(1, 7)), draw(st.integers(1, 7)),
               draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    golden = rng.normal(size=(1, h, w, c))
    golden[rng.random(golden.shape) < 0.2] = 0.0
    rows = np.repeat(golden, draw(st.integers(1, 4)), axis=0)
    for row in rows:
        for _ in range(draw(st.integers(0, 3))):
            i, j, k = (draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)),
                       draw(st.integers(0, c - 1)))
            how = draw(st.sampled_from(("flip", "signed_zero", "huge")))
            if how == "flip":
                bits = row[i, j, k:k + 1].view(np.uint64)
                bits ^= np.uint64(1 << draw(st.integers(0, 61)))
            elif how == "signed_zero":
                row[i, j, k] = -0.0 if row[i, j, k] == 0.0 else 0.0
            else:
                row[i, j, k] = 1e4
    return golden, rows


def _golden_outside(boxes: RowBoxes, rows: np.ndarray,
                    golden: np.ndarray) -> bool:
    """Outside its box, every row is bit-identical to golden."""
    rebuilt = splice(golden, boxes, gather(rows, boxes))
    return rebuilt.tobytes() == rows.tobytes()


def _shrunk(boxes: RowBoxes, row: int, side: int) -> RowBoxes:
    """``boxes`` with one side of row ``row``'s box moved in by one."""
    bounds = boxes.bounds.copy()
    bounds[side, row] += 1 if side in (0, 2) else -1
    return RowBoxes(bounds)


def _assert_tight(boxes: RowBoxes, rows: np.ndarray,
                  golden: np.ndarray) -> None:
    assert _golden_outside(boxes, rows, golden)
    for row in np.flatnonzero(boxes.sizes):
        for side in range(4):
            assert not _golden_outside(_shrunk(boxes, row, side), rows,
                                       golden), (row, side)


@given(case=changed_rows())
def test_diff_boxes_are_sound_and_tight(case):
    golden, rows = case
    boxes = diff_boxes(rows, golden)
    _assert_tight(boxes, rows, golden)
    unchanged = [row.tobytes() == golden.tobytes() for row in rows]
    assert list(boxes.sizes == 0) == unchanged


@given(case=changed_rows(), data=st.data())
def test_tighten_finds_the_tight_box_inside_any_region(case, data):
    golden, rows = case
    _, h, w, _ = rows.shape
    exact = diff_boxes(rows, golden)
    # Any region that holds the changes: the tight box widened at random.
    grow = np.array([[data.draw(st.integers(0, 2)) for _ in rows]
                     for _ in range(4)])
    region = union([(np.arange(len(rows)), exact),
                    (np.arange(len(rows)), RowBoxes(np.stack([
                        np.maximum(exact.top - grow[0], 0),
                        np.minimum(exact.bottom + grow[1], h - 1),
                        np.maximum(exact.left - grow[2], 0),
                        np.minimum(exact.right + grow[3], w - 1)])))],
                   len(rows), h, w)
    assert _golden_outside(region, rows, golden)
    golden_rows = np.repeat(golden, len(rows), axis=0)
    tight = tighten(gather(rows, region), gather(golden_rows, region),
                    region)
    assert np.array_equal(tight.bounds[:, tight.sizes > 0],
                          exact.bounds[:, exact.sizes > 0])
    assert np.array_equal(tight.sizes, exact.sizes)
    _assert_tight(tight, rows, golden)


@given(case=changed_rows(), data=st.data())
def test_windowed_ops_change_only_the_reachable_box(case, data):
    golden, rows = case
    _, h, w, c = rows.shape
    kernel = data.draw(st.sampled_from((1, 2, 3)))
    stride = data.draw(st.sampled_from((1, 2)))
    padding = data.draw(st.sampled_from(("same", "valid")))
    if padding == "valid" and kernel > min(h, w):
        padding = "same"
    op = data.draw(st.sampled_from(("conv", "maxpool", "avgpool")))
    if op == "conv":
        weights = np.random.default_rng(3).normal(size=(kernel, kernel, c, 2))
        layer = ops.Conv2D(stride=stride, padding=padding)
        apply = lambda value: layer.forward(value, weights)  # noqa: E731
    else:
        pool = ops.MaxPool2D if op == "maxpool" else ops.AvgPool2D
        layer = pool(kernel, stride=stride, padding=padding)
        apply = layer.forward
    golden_out = apply(golden)
    boxes = reachable_boxes(diff_boxes(rows, golden), h, w, (kernel, kernel),
                            stride, padding, *golden_out.shape[1:3])
    # One row at a time: the same shapes as the golden run, so every
    # position outside the window reads the same inputs in the same order.
    out = np.concatenate([apply(rows[i:i + 1]) for i in range(len(rows))])
    assert _golden_outside(boxes, out, golden_out)


@given(case=changed_rows())
def test_union_holds_both_boxes_and_no_more(case):
    golden, rows = case
    _, h, w, _ = rows.shape
    first = diff_boxes(rows, golden)
    count = len(rows)
    second = RowBoxes(first.bounds[:, ::-1].copy())  # any other boxes
    merged = union([(np.arange(count), first), (np.arange(count), second)],
                   count, h, w)
    for row in range(count):
        live = [part for part in (first, second) if part.sizes[row]]
        if not live:
            assert merged.sizes[row] == 0
            continue
        assert merged.top[row] == min(part.top[row] for part in live)
        assert merged.bottom[row] == max(part.bottom[row] for part in live)
        assert merged.left[row] == min(part.left[row] for part in live)
        assert merged.right[row] == max(part.right[row] for part in live)
