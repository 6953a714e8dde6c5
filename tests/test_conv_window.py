"""Windowed conv replay: the window kernel and the contracts it rests on.

Batched (ULP_TOLERANT) replay hands each re-evaluated ``Conv2D`` its
batch-1 golden input and output, and the conv computes each row only at
the output positions whose receptive field touches a changed input
(:func:`repro.ops.conv.conv_window`).  The suite checks:

* **The kernel.**  Outside each row's reachable window (every output
  position that reads the bounding box of the row's changed inputs,
  found here by brute force) the output is bit-identical to golden;
  inside it, within ``DEFAULT_MAX_ULPS`` of the full conv (ULPs of the
  result, or of the summed term magnitudes where the sum cancels).  Shrinking the
  kernel's window by one row or column makes this property fail.  1x1
  kernels always run the full conv.
* **Policy idempotence.**  The spliced golden positions pass through the
  dtype policy a second time, so every shipped policy must map its own
  output to the same bytes.
* **Exact paths never window.**  ``run_from`` and
  ``run_from_batched(equivalence="exact")`` always run the full conv.
* **Counters and fallback logging** of the batched campaign path.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.graph import DEFAULT_MAX_ULPS, DTypePolicy, EquivalenceMode
from repro.graph.equivalence import ulp_distance
from repro.injection import (CampaignResult, FaultInjectionCampaign,
                             FaultInjector, SingleBitFlip, trial_rng)
from repro.injection.injector import InjectionPlan
from repro.models import prepare_model
from repro.ops import conv
from repro.ops.conv import Conv2D, ConvGolden, compute_padding
from repro.quantization import (FIXED16, FIXED32, FixedPointPolicy,
                                fixed32_policy)

#: Values a perturbed input position takes besides a random shift.
SPECIAL_VALUES = (np.nan, -0.0, 0.0, FIXED32.max_value, FIXED32.min_value,
                  FIXED16.max_value, 1e300, -np.inf)


@st.composite
def conv_cases(draw):
    """A conv configuration, a golden batch-1 input and perturbed rows."""
    kernel = draw(st.sampled_from((1, 3, 5)))
    stride = draw(st.sampled_from((1, 2)))
    padding = draw(st.sampled_from(("same", "valid")))
    low = kernel if padding == "valid" else 1
    height = draw(st.integers(low, 9))
    width = draw(st.integers(low, 9))
    channels = draw(st.integers(1, 3))
    out_channels = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    golden = rng.normal(size=(1, height, width, channels))
    golden[rng.random(golden.shape) < 0.1] = 0.0
    weights = rng.normal(size=(kernel, kernel, channels, out_channels))
    x = np.repeat(golden, rows, axis=0)
    for row in range(rows):
        # Zero, one or many perturbed positions per row.
        hits = draw(st.sampled_from((0, 1, 1, 3, 8)))
        for _ in range(hits):
            i = draw(st.integers(0, height - 1))
            j = draw(st.integers(0, width - 1))
            c = draw(st.integers(0, channels - 1))
            x[row, i, j, c] = draw(st.one_of(
                st.sampled_from(SPECIAL_VALUES),
                st.floats(-4, 4).map(lambda d, v=x[row, i, j, c]: v + d)))
    return Conv2D(stride, padding), golden, weights, x


def reachable_window(op, golden, weights, x):
    """Brute force: output positions (per row) that read an input inside
    the bounding box of the row's changed positions."""
    kh, kw = weights.shape[:2]
    rows, h, w, _ = x.shape
    changed = bounding_boxes(
        (x.view(np.uint64) != golden.view(np.uint64)).any(axis=3))
    pt, _ = compute_padding(h, kh, op.stride, op.padding)
    pl, _ = compute_padding(w, kw, op.stride, op.padding)
    out_h, out_w = op.forward(golden, weights).shape[1:3]
    reach = np.zeros((rows, out_h, out_w), dtype=bool)
    for oh in range(out_h):
        for ow in range(out_w):
            top, left = oh * op.stride - pt, ow * op.stride - pl
            patch = changed[:, max(top, 0):max(top + kh, 0),
                            max(left, 0):max(left + kw, 0)]
            reach[:, oh, ow] = patch.reshape(rows, -1).any(axis=1)
    return reach


def bounding_boxes(masks):
    """Each row's 2-D mask widened to its bounding box."""
    boxes = np.zeros_like(masks)
    for row, mask in enumerate(masks):
        if mask.any():
            rows_hit = np.flatnonzero(mask.any(axis=1))
            cols_hit = np.flatnonzero(mask.any(axis=0))
            boxes[row, rows_hit[0]:rows_hit[-1] + 1,
                  cols_hit[0]:cols_hit[-1] + 1] = True
    return boxes


def windowed(op, golden, weights, x):
    """The window kernel's output, forced past the full-conv fallback."""
    record = ConvGolden(golden, op.forward(golden, weights))
    with mock.patch.object(conv, "WINDOW_MAX_SHARE", 1.0):
        out = op.forward(x, weights, golden=record)
    return out, record


class TestWindowKernel:
    @given(conv_cases())
    def test_golden_outside_window_tolerant_inside(self, case):
        op, golden, weights, x = case
        with np.errstate(all="ignore"):
            out, record = windowed(op, golden, weights, x)
            full = op.forward(x, weights)
            golden_out = op.forward(golden, weights)
        if weights.shape[0] == 1:  # 1x1 kernels always run the full conv
            assert out.tobytes() == full.tobytes()
            assert record.positions_evaluated == int(np.prod(out.shape[:3]))
            return
        window = reachable_window(op, golden, weights, x)
        assert record.positions_evaluated == int(window.sum())
        outside = ~window
        assert (np.broadcast_to(golden_out, out.shape)[outside].tobytes()
                == out[outside].tobytes())
        inside, reference = out[window], full[window]
        # A subset GEMM may round differently from the full one; under
        # cancellation a last-ULP difference of the summed terms is many
        # ULPs of the (small) result, so the tolerance also admits
        # DEFAULT_MAX_ULPS ULPs of the terms' magnitude sum |x| * |w|.
        with np.errstate(all="ignore"):
            terms = op.forward(np.abs(x), np.abs(weights))[window]
            error = np.abs(inside - reference)
        close = ((ulp_distance(inside, reference) <= DEFAULT_MAX_ULPS)
                 | (error <= DEFAULT_MAX_ULPS * np.finfo(float).eps * terms)
                 | (np.isnan(inside) & np.isnan(reference)))
        assert close.all()

    def test_wide_window_runs_the_full_conv(self):
        rng = np.random.default_rng(0)
        op = Conv2D(1, "same")
        golden = rng.normal(size=(1, 6, 6, 2))
        weights = rng.normal(size=(3, 3, 2, 4))
        x = np.repeat(golden, 3, axis=0)
        x[:, 0, 0, 0] += 1.0
        x[:, 5, 5, 1] += 1.0  # every row's window covers the whole output
        record = ConvGolden(golden, op.forward(golden, weights))
        out = op.forward(x, weights, golden=record)
        assert out.tobytes() == op.forward(x, weights).tobytes()
        assert record.positions_evaluated == 3 * 6 * 6

    def test_unchanged_rows_are_golden_copies(self):
        rng = np.random.default_rng(1)
        op = Conv2D(2, "valid")
        golden = rng.normal(size=(1, 7, 7, 3))
        weights = rng.normal(size=(3, 3, 3, 2))
        golden_out = op.forward(golden, weights)
        record = ConvGolden(golden, golden_out)
        out = op.forward(np.repeat(golden, 4, axis=0), weights, golden=record)
        assert record.positions_evaluated == 0
        assert out.tobytes() == np.repeat(golden_out, 4, axis=0).tobytes()


#: Shipped dtype policies; each must be idempotent bit for bit.
POLICIES = {"float64": DTypePolicy(), "fixed32": FixedPointPolicy(FIXED32),
            "fixed16": FixedPointPolicy(FIXED16)}


class TestPolicyIdempotence:
    @given(policy=st.sampled_from(sorted(POLICIES)),
           values=hnp.arrays(np.float64, st.integers(1, 64), elements=st.one_of(
               st.floats(allow_nan=True, allow_infinity=True),
               st.sampled_from((0.0, -0.0, np.nan, FIXED32.max_value,
                                FIXED32.min_value, FIXED16.max_value,
                                FIXED16.min_value, 1e300, -1e300)))))
    def test_apply_twice_equals_apply_once(self, policy, values):
        policy = POLICIES[policy]
        node = mock.Mock(category="compute")
        once = np.array(policy.apply(node, values))
        assert np.asarray(policy.apply(node, once)).tobytes() == once.tobytes()


@pytest.fixture(scope="module")
def conv_replay():
    """Untrained LeNet under fixed32: executor, golden cache, injector and
    the earliest fault site whose cone re-evaluates a conv."""
    prepared = prepare_model("lenet", train=False, seed=1)
    model = prepared.model
    executor = model.executor(fixed32_policy())
    x = prepared.dataset.x_val[:1]
    cache = executor.run({model.input_name: x},
                         outputs=[model.output_name]).values
    injector = FaultInjector(model, SingleBitFlip(FIXED32), seed=3)
    sizes = injector.profile_state_space(x, executor)
    graph = model.graph
    convs = {node.name for node in graph if isinstance(node.op, Conv2D)}
    site = next(name for name in sorted(sizes, key=graph.topo_index().get)
                if (graph.downstream({name}) - {name}) & convs)
    return model, executor, cache, injector, site


@pytest.fixture
def conv_calls(monkeypatch):
    """Records the ``golden`` argument of every Conv2D.forward call."""
    calls = []
    forward = Conv2D.forward

    def recording(self, x, kernel, golden=None):
        calls.append(golden)
        return forward(self, x, kernel, golden=golden)

    monkeypatch.setattr(Conv2D, "forward", recording)
    return calls


class TestExactPathsNeverWindow:
    def test_run_from_keeps_the_full_conv(self, conv_replay, conv_calls):
        model, executor, cache, injector, site = conv_replay
        for trial in range(8):
            plan = InjectionPlan(sites=[(site, trial)])
            injector.inject_cached(executor, cache, plan,
                                   rng=trial_rng(5, trial))
        assert conv_calls and all(golden is None for golden in conv_calls)

    @pytest.mark.parametrize("mode", list(EquivalenceMode))
    def test_batched_windows_only_when_tolerant(self, conv_replay,
                                                conv_calls, mode):
        model, executor, cache, injector, site = conv_replay
        plans = [InjectionPlan(sites=[(site, trial)]) for trial in range(8)]
        rngs = [trial_rng(5, trial) for trial in range(8)]
        _, _, result = injector.inject_cached_batch(
            executor, cache, plans, rngs, equivalence=mode)
        assert conv_calls and result.conv_positions_total > 0
        if mode is EquivalenceMode.EXACT:
            assert all(golden is None for golden in conv_calls)
            assert (result.conv_positions_evaluated
                    == result.conv_positions_total)
        else:
            assert all(golden is not None for golden in conv_calls)
            assert (0 < result.conv_positions_evaluated
                    < result.conv_positions_total)


class TestCampaignCounters:
    def test_batched_campaign_reports_window_share(self, untrained_lenet):
        inputs = untrained_lenet.dataset.x_val[:2]
        campaign = FaultInjectionCampaign(untrained_lenet.model, inputs,
                                          seed=0)
        result = campaign.run(trials=48, batch_trials=16)
        assert 0 < result.conv_positions_evaluated \
            < result.conv_positions_total
        assert 0.0 < result.conv_window_fraction < 1.0
        incremental = campaign.run(trials=48)
        assert incremental.conv_positions_total == 0
        assert incremental.conv_window_fraction is None

    def test_counters_merge_additively(self):
        shards = [CampaignResult("m", "f", trials=1, sdc_counts={"top1": 0},
                                 conv_positions_evaluated=evaluated,
                                 conv_positions_total=total)
                  for evaluated, total in ((3, 10), (5, 30))]
        merged = CampaignResult.merge(shards)
        assert merged.conv_positions_evaluated == 8
        assert merged.conv_positions_total == 40
        assert merged.conv_window_fraction == 0.2


class TestOverlapFallbackLogging:
    def test_logged_once_per_process(self, untrained_lenet, fallback_log):
        inputs = untrained_lenet.dataset.x_val[:1]
        campaign = FaultInjectionCampaign(untrained_lenet.model, inputs,
                                          seed=0)
        names = list(campaign.injector._site_sizes)
        overlapping = InjectionPlan(sites=[(names[0], 0), (names[1], 1)])
        plans = [(0, overlapping), (0, InjectionPlan(sites=[(names[0], 2)]))]
        for _ in range(2):
            campaign.run(plans=plans, batch_trials=4)
        messages = [record.getMessage() for record in fallback_log.records
                    if "one at a time" in record.getMessage()]
        assert messages == [
            "1 of 2 trials have a fault site inside another site's cone "
            "and replay one at a time instead of batched"]
