"""Property-based safety net for the dense partial re-execution engine.

Every campaign trial is replayed from a golden activation cache, either
one at a time (``inject_cached`` -> ``Executor.run_from``) or stacked
(``inject_cached_batch`` -> ``Executor.run_from_batched``).  Hypothesis
draws random fault plans on untrained LeNet and ResNet-18 — single-site
and multi-site, with repeated elements (including element indices that
wrap onto the same flat position) and sites biased toward ResNet's skip
connections — and checks the two replay contracts:

* **B=1 is bit-exact.**  ``inject_cached`` returns the same output bytes
  and the same fault records as a full faulty run (``inject``, the
  ``incremental=False`` oracle) for the same per-trial RNG stream.
* **Batched replay keeps trial identity and verdicts.**  For every plan
  whose sites do not lie in each other's cones, ``inject_cached_batch``
  yields the batch-1 fault records exactly and the same SDC verdict on
  every criterion (rows may differ from batch 1 by BLAS noise only).

Example budgets come from the Hypothesis profiles registered in
``tests/conftest.py``.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro import ops
from repro.injection import (FaultInjector, SingleBitFlip, criteria_for_model,
                             trial_rng)
from repro.injection.injector import InjectionPlan
from repro.models import prepare_model
from repro.quantization import FIXED16, FIXED32, fixed16_policy, fixed32_policy

MODELS = ("lenet", "resnet18")
DTYPES = {"fixed32": (FIXED32, fixed32_policy),
          "fixed16": (FIXED16, fixed16_policy)}
SEED = 7
MAX_SITES = 3
MAX_BATCH = 12


class Replay:
    """One (model, datatype) configuration with its golden cache."""

    def __init__(self, model_name: str, dtype_name: str) -> None:
        prepared = prepare_model(model_name, train=False, seed=1)
        fmt, policy_factory = DTYPES[dtype_name]
        self.model = prepared.model
        self.graph = self.model.graph
        self.injector = FaultInjector(self.model, SingleBitFlip(fmt),
                                      seed=SEED)
        self.executor = self.model.executor(policy_factory())
        self.x = prepared.dataset.x_val[:1]
        self.sizes = self.injector.profile_state_space(self.x, self.executor)
        self.names = sorted(self.sizes)
        self.cache = self.executor.run({self.model.input_name: self.x},
                                       outputs=[self.model.output_name]).values
        self.golden = self.cache[self.model.output_name]
        self.criteria = criteria_for_model(self.model)
        # Residual adds and the nodes feeding them: faults here travel
        # both the shortcut and the block, converging at the add.
        self.skip_sites = sorted(
            name for name in self.names
            if isinstance(self.graph.node(name).op, ops.Add)
            or any(isinstance(self.graph.node(c).op, ops.Add)
                   for c in self.graph.successors(name)))

    def cached(self, plan, trial):
        return self.injector.inject_cached(self.executor, self.cache, plan,
                                           rng=trial_rng(SEED, trial))

    def full(self, plan, trial):
        return self.injector.inject(self.executor, self.x, plan,
                                    rng=trial_rng(SEED, trial))


@pytest.fixture(scope="module",
                params=[(m, d) for m in MODELS for d in DTYPES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def replay(request):
    return Replay(*request.param)


@st.composite
def fault_plans(draw, replay):
    """A plan of 1..MAX_SITES sites, some repeating an earlier element."""
    pool = st.sampled_from(replay.names)
    if replay.skip_sites:
        pool = st.one_of(st.sampled_from(replay.skip_sites), pool)
    sites = []
    for _ in range(draw(st.integers(1, MAX_SITES))):
        if sites and draw(st.booleans()):
            # Repeat an earlier site's element, possibly through a wrapped
            # index (element + k * size lands on the same flat position).
            name, element = draw(st.sampled_from(sites))
            element = element % replay.sizes[name] \
                + draw(st.integers(0, 2)) * replay.sizes[name]
        else:
            name = draw(pool)
            element = draw(st.integers(0, 2 * replay.sizes[name] - 1))
        sites.append((name, element))
    return InjectionPlan(sites=sites)


def output_bytes(output) -> bytes:
    return np.ascontiguousarray(output).tobytes()


@given(data=st.data())
def test_cached_replay_is_byte_identical_to_full_run(replay, data):
    plan = data.draw(fault_plans(replay), label="plan")
    trial = data.draw(st.integers(0, 10_000), label="trial")
    out_c, faults_c, _ = replay.cached(plan, trial)
    out_f, faults_f = replay.full(plan, trial)
    assert faults_c == faults_f
    assert len(faults_c) == len(plan.sites)
    assert output_bytes(out_c) == output_bytes(out_f)


@given(data=st.data())
def test_batched_replay_matches_batch1(replay, data):
    plans = data.draw(st.lists(fault_plans(replay), min_size=1,
                               max_size=MAX_BATCH), label="plans")
    batchable = [trial for trial, plan in enumerate(plans)
                 if not replay.injector.plan_sites_overlap(plan,
                                                           replay.graph)]
    if not batchable:
        return
    reference = {trial: replay.cached(plans[trial], trial)
                 for trial in batchable}
    stacked, faults, _ = replay.injector.inject_cached_batch(
        replay.executor, replay.cache, [plans[t] for t in batchable],
        [trial_rng(SEED, t) for t in batchable])
    assert len(stacked) == len(batchable)
    for row, trial in enumerate(batchable):
        assert faults[row] == reference[trial][1]
    for criterion in replay.criteria:
        verdicts = criterion.is_sdc_rows(replay.golden, stacked)
        expected = [criterion.is_sdc(replay.golden, reference[t][0])
                    for t in batchable]
        assert list(verdicts) == expected, criterion.name


def test_same_element_double_flip_compounds(replay):
    """Two flips at one element consume the RNG in site order and the
    second lands on the first one's corrupted value, in every path."""
    site = replay.skip_sites[0] if replay.skip_sites else replay.names[0]
    size = replay.sizes[site]
    # element + size wraps onto the same flat index as element.
    plan = InjectionPlan(sites=[(site, 5), (site, 5 + size)])
    out_c, faults_c, _ = replay.cached(plan, 0)
    out_f, faults_f = replay.full(plan, 0)
    assert len(faults_c) == 2
    assert faults_c[0].element_index == faults_c[1].element_index == 5
    assert faults_c[1].original == faults_c[0].corrupted
    assert faults_c == faults_f
    assert output_bytes(out_c) == output_bytes(out_f)
    _, faults_b, _ = replay.injector.inject_cached_batch(
        replay.executor, replay.cache, [plan], [trial_rng(SEED, 0)])
    assert faults_b[0] == faults_c
