"""Equivalence and determinism suite for the multiprocess campaign backend.

``FaultInjectionCampaign.run(workers=N)`` must be **bit-identical** to the
serial incremental path for every worker count: same per-criterion counts,
same applied-fault records, same incremental-execution statistics.  The
guarantee rests on three properties, each tested here:

1. every trial draws its corruption randomness from a per-trial stream
   derived from the campaign seed and the *global* trial index
   (``trial_rng``), so outcomes cannot depend on execution order, chunking
   or worker count;
2. plans are pre-sampled once in the parent and shipped to the workers, so
   the sampled ``(input, plan)`` pairs are a pure function of the seed;
3. ``CampaignResult.merge`` aggregates purely additive counters, so merged
   statistics equal those of an unsharded run in any shard order.

Every fan-out goes through :class:`~repro.injection.pool.CampaignPool`,
whose tasks carry only ``(fingerprint, plans)``: a worker lacking the
campaign bounces the task and the parent resends it with the pickled spec.
``TestSpecOnMiss`` covers that protocol under both start methods, and
``TestPoolLifecycle`` the pool's worker processes and LRU caches.  The
workers' BLAS thread cap is tested here too (``TestWorkerBlasThreads``),
so the CI fork/spawn matrix, which runs this file, covers both start
methods.
"""

import gc
import itertools
import multiprocessing
import os
import pickle
import signal
import time
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import Ranger
from repro.injection import (
    CampaignPool,
    CampaignResult,
    FaultInjectionCampaign,
    InjectionPlan,
    MultiBitFlip,
    RunOptions,
    SingleBitFlip,
    StuckAtZeroFault,
    compare_protection,
    shard_plans,
    trial_rng,
)
from repro.injection import pool as pool_module
from repro.injection.pool import (WORKER_CAMPAIGN_CACHE_LIMIT,
                                  _run_pooled_shard)
from repro.models import prepare_model
from repro.parallel import (START_METHOD_ENV, blas_threads_per_worker,
                            fanout, openblas_threads)
from repro.quantization import FIXED16, FIXED32, fixed16_policy

#: Models the parallel-vs-serial sweep covers: the smallest model of the zoo
#: and the deep feed-forward model the throughput benchmarks target.  Models
#: are built untrained (deterministically initialized) — training does not
#: change the execution semantics under test and skipping it keeps the
#: sweep fast.
ZOO_SUBSET = ("lenet", "squeezenet")

WORKER_COUNTS = (1, 2, 4)
TRIALS = 12


@pytest.fixture(scope="module", params=ZOO_SUBSET)
def subset_prepared(request):
    return prepare_model(request.param, train=False, seed=1)


def _fault_records(result):
    """The per-trial (site, bit) sequences — the model-independent fault identity."""
    return [[(f.node_name, f.element_index, f.bit) for f in trial]
            for trial in result.faults]


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("use_fixed_point", [False, True],
                             ids=["float64", "fixed16"])
    @pytest.mark.parametrize("use_ranger", [False, True],
                             ids=["unprotected", "ranger"])
    def test_workers_replay_bit_identically(self, subset_prepared,
                                            use_fixed_point, use_ranger):
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
        reference = serial.run(plans=plans, keep_faults=True,
                               incremental=True)
        for workers in WORKER_COUNTS:
            result = build().run(plans=plans, keep_faults=True,
                                 workers=workers)
            assert result.trials == reference.trials == TRIALS
            assert result.sdc_counts == reference.sdc_counts, workers
            # FaultSpec equality is exact float equality: the same bits were
            # flipped in the same values.
            assert result.faults == reference.faults, workers
            assert result.nodes_recomputed == reference.nodes_recomputed
            assert result.nodes_full == reference.nodes_full

    def test_multibit_overlapping_sites_parallelize(self, lenet_prepared):
        """The hook-based replay of overlapping plans is fan-out safe too."""
        inputs, _ = lenet_prepared.correctly_predicted_inputs(3, seed=0)

        def build():
            return FaultInjectionCampaign(lenet_prepared.model, inputs,
                                          fault_model=MultiBitFlip(3, FIXED32),
                                          seed=0)

        serial = build()
        plans = serial.generate_plans(16)
        reference = serial.run(plans=plans, keep_faults=True)
        result = build().run(plans=plans, keep_faults=True, workers=3)
        assert result.sdc_counts == reference.sdc_counts
        assert result.faults == reference.faults

    def test_worker_shard_rebuilds_from_pickled_spec(self, lenet_prepared,
                                                     monkeypatch):
        """One shard run through the pickled worker protocol equals serial."""
        monkeypatch.setattr(pool_module, "_WORKER_CAMPAIGNS", OrderedDict())
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)
        plans = campaign.generate_plans(8)
        reference = campaign.run(plans=plans, keep_faults=True)
        spec = pickle.dumps(campaign.spec())
        payload = [(index, plan.to_payload()) for index, plan in plans]
        fingerprint = campaign.spec_fingerprint()
        options = RunOptions(trials=len(plans), keep_faults=True)
        assert _run_pooled_shard(fingerprint, None, payload, 0,
                                 options) is None  # miss marker
        shard = _run_pooled_shard(fingerprint, spec, payload, 0, options)
        assert shard.sdc_counts == reference.sdc_counts
        assert shard.faults == reference.faults

    def test_worker_shard_goes_straight_to_dispatch(self, lenet_prepared,
                                                    monkeypatch):
        """A worker runs its shard through one backend dispatch with the
        run's own options, not a second pass of the wave driver."""
        from repro.injection import campaign as campaign_module
        monkeypatch.setattr(pool_module, "_WORKER_CAMPAIGNS", OrderedDict())
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)
        plans = campaign.generate_plans(8)
        reference = campaign.run(plans=plans, keep_faults=True)
        options = RunOptions(trials=len(plans), keep_faults=True)
        dispatched, grouped = [], []
        real_dispatch = FaultInjectionCampaign._dispatch
        real_group = campaign_module.run_group
        monkeypatch.setattr(
            FaultInjectionCampaign, "_dispatch",
            lambda self, *args, **kwargs: dispatched.append(args[1])
            or real_dispatch(self, *args, **kwargs))
        monkeypatch.setattr(
            campaign_module, "run_group",
            lambda *args, **kwargs: grouped.append(args)
            or real_group(*args, **kwargs))
        shard = _run_pooled_shard(
            campaign.spec_fingerprint(), pickle.dumps(campaign.spec()),
            [(index, plan.to_payload()) for index, plan in plans], 0,
            options)
        assert dispatched == [options]
        assert grouped == []
        assert shard.faults == reference.faults

    def test_plan_payload_roundtrip(self):
        plan = InjectionPlan(sites=[("conv1/relu", 17), ("pool2", 3)])
        assert InjectionPlan.from_payload(plan.to_payload()) == plan


class TestMergeProperties:
    @staticmethod
    def _shard(counts, trials, detected=0, recomputed=0, full=0):
        return CampaignResult(model_name="m", fault_model="f", trials=trials,
                              sdc_counts=dict(counts),
                              detected_count=detected,
                              nodes_recomputed=recomputed, nodes_full=full)

    def test_counts_additive_in_any_order(self):
        shards = [self._shard({"top1": 3, "top5": 1}, 10, recomputed=5, full=20),
                  self._shard({"top1": 1, "top5": 0}, 6, recomputed=2, full=12),
                  self._shard({"top1": 0, "top5": 2}, 4, recomputed=1, full=8)]
        expected = CampaignResult.merge(shards)
        assert expected.trials == 20
        assert expected.sdc_counts == {"top1": 4, "top5": 3}
        assert expected.nodes_recomputed == 8
        assert expected.nodes_full == 40
        for permutation in itertools.permutations(shards):
            merged = CampaignResult.merge(permutation)
            assert merged.sdc_counts == expected.sdc_counts
            assert merged.trials == expected.trials
            assert merged.recompute_fraction == expected.recompute_fraction
            for criterion in ("top1", "top5"):
                assert merged.sdc_rate(criterion) == expected.sdc_rate(criterion)
                assert (merged.confidence_interval(criterion)
                        == expected.confidence_interval(criterion))

    def test_empty_shard_is_identity(self):
        shard = self._shard({"top1": 2}, 9, recomputed=3, full=18)
        empty = self._shard({"top1": 0}, 0)
        merged = CampaignResult.merge([empty, shard, empty])
        assert merged.trials == shard.trials
        assert merged.sdc_counts == shard.sdc_counts
        assert merged.sdc_rate("top1") == shard.sdc_rate("top1")
        assert merged.confidence_interval("top1") == shard.confidence_interval("top1")
        assert merged.recompute_fraction == shard.recompute_fraction

    def test_single_shard_merge_preserves_statistics(self):
        shard = self._shard({"top1": 4}, 11, detected=2, recomputed=7, full=33)
        merged = CampaignResult.merge([shard])
        assert merged == shard

    def test_merge_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            CampaignResult.merge([])
        a = self._shard({"top1": 1}, 5)
        b = CampaignResult(model_name="other", fault_model="f", trials=5,
                           sdc_counts={"top1": 0})
        with pytest.raises(ValueError):
            CampaignResult.merge([a, b])
        c = self._shard({"top5": 1}, 5)  # different criterion set
        with pytest.raises(ValueError):
            CampaignResult.merge([a, c])

    def test_merged_run_equals_unsharded_run(self, lenet_prepared):
        """Shard a real campaign by hand; the merge reproduces the whole."""
        inputs, _ = lenet_prepared.correctly_predicted_inputs(3, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)
        plans = campaign.generate_plans(30)
        whole = campaign.run(plans=plans, keep_faults=True)
        for shards in (2, 3, 5):
            partials = [campaign.run(plans=chunk, keep_faults=True,
                                     trial_offset=offset)
                        for offset, chunk in shard_plans(plans, shards)]
            merged = CampaignResult.merge(partials)
            assert merged.trials == whole.trials
            assert merged.sdc_counts == whole.sdc_counts
            assert merged.faults == whole.faults
            assert merged.sdc_rate("top1") == whole.sdc_rate("top1")
            assert (merged.confidence_interval("top1")
                    == whole.confidence_interval("top1"))
            assert merged.recompute_fraction == whole.recompute_fraction


class TestSeedPartitioning:
    def test_same_seed_samples_same_plans(self, lenet_prepared):
        """Plan sampling is a pure function of the campaign seed."""
        inputs, _ = lenet_prepared.correctly_predicted_inputs(3, seed=0)

        def sample():
            campaign = FaultInjectionCampaign(lenet_prepared.model, inputs,
                                              seed=5)
            return campaign.generate_plans(25)

        first, second = sample(), sample()
        assert [(i, p.to_payload()) for i, p in first] \
            == [(i, p.to_payload()) for i, p in second]

    def test_sharding_never_perturbs_the_plan_list(self, lenet_prepared):
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=1)
        plans = campaign.generate_plans(17)
        for shards in (1, 2, 4, 17, 30):
            chunks = shard_plans(plans, shards)
            reassembled = [pair for _, chunk in chunks for pair in chunk]
            assert reassembled == plans
            # Offsets are the chunk positions in the original trial order.
            position = 0
            for offset, chunk in chunks:
                assert offset == position
                position += len(chunk)

    def test_trial_rng_streams_are_spawn_children(self):
        """trial_rng(seed, i) is the i-th SeedSequence.spawn child of the seed."""
        children = np.random.SeedSequence(7).spawn(6)
        for index, child in enumerate(children):
            expected = np.random.default_rng(child).integers(0, 2 ** 63, 8)
            derived = trial_rng(7, index).integers(0, 2 ** 63, 8)
            assert (expected == derived).all()

    def test_trial_streams_never_repeat_across_trials(self):
        """Guards against accidental RNG-stream reuse between trials/workers."""
        draws = {tuple(trial_rng(0, index).integers(0, 2 ** 63, 4))
                 for index in range(64)}
        assert len(draws) == 64

    def test_chunk_size_cannot_change_results(self, lenet_prepared):
        """Same seed, any chunking: bit-identical counts and fault records."""
        inputs, _ = lenet_prepared.correctly_predicted_inputs(3, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=0)
        plans = campaign.generate_plans(20)
        whole = campaign.run(plans=plans, keep_faults=True)
        for workers in (2, 3, 5):
            partials = [campaign.run(plans=chunk, keep_faults=True,
                                     trial_offset=offset)
                        for offset, chunk in shard_plans(plans, workers)]
            merged = CampaignResult.merge(partials)
            assert merged.sdc_counts == whole.sdc_counts
            assert merged.faults == whole.faults


class TestPairedComparison:
    def test_paired_campaigns_flip_identical_bits(self, lenet_prepared,
                                                  lenet_protected):
        """Unprotected and protected campaigns consume the same bit draws."""
        protected, _ = lenet_protected
        inputs, _ = lenet_prepared.correctly_predicted_inputs(4, seed=0)
        base = FaultInjectionCampaign(lenet_prepared.model, inputs, seed=2)
        guarded = FaultInjectionCampaign(protected, inputs, seed=2)
        plans = base.generate_plans(20)
        base_result = base.run(plans=plans, keep_faults=True)
        guarded_result = guarded.run(plans=plans, keep_faults=True)
        assert _fault_records(base_result) == _fault_records(guarded_result)

    def test_compare_protection_invariant_under_fan_out(self, lenet_prepared,
                                                        lenet_protected):
        protected, _ = lenet_protected
        inputs, _ = lenet_prepared.correctly_predicted_inputs(4, seed=0)
        serial = compare_protection(lenet_prepared.model, protected, inputs,
                                    trials=20, seed=3)
        fanned = compare_protection(lenet_prepared.model, protected, inputs,
                                    trials=20, seed=3, workers=2)
        for reference, result in zip(serial, fanned):
            assert result.sdc_counts == reference.sdc_counts
            assert result.trials == reference.trials


class TestSummaryCounts:
    def test_summary_reports_zero_sdc_criteria(self, lenet_prepared):
        """A criterion with zero observed SDCs still shows its trial count."""

        class NoOpFault(StuckAtZeroFault):
            def corrupt(self, value, rng):
                return value, None

        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        campaign = FaultInjectionCampaign(lenet_prepared.model, inputs,
                                          fault_model=NoOpFault(), seed=0)
        text = campaign.run(trials=10).summary()
        assert "[0/10 trials]" in text

    def test_summary_reports_counts_per_criterion(self):
        result = CampaignResult(model_name="m", fault_model="f", trials=8,
                                sdc_counts={"top1": 3, "top5": 0})
        text = result.summary()
        assert "[3/8 trials]" in text
        assert "[0/8 trials]" in text


def _worker_report(_):
    """(pid, OpenBLAS threads) of the worker running this task.  The
    short sleep keeps one worker from draining a whole round of tasks."""
    time.sleep(0.05)
    return os.getpid(), openblas_threads()


def _worker_threads(_):
    """(pid, OS threads) of the worker running this task."""
    time.sleep(0.05)
    return os.getpid(), len(os.listdir("/proc/self/task"))


def _reports_from_every_worker(executor, workers, timeout=60.0,
                               probe=_worker_report):
    """Map each of ``executor``'s ``workers`` processes to its ``probe``
    report (by default its BLAS count)."""
    reports = {}
    deadline = time.monotonic() + timeout
    while len(reports) < workers and time.monotonic() < deadline:
        reports.update(executor.map(probe, range(2 * workers)))
    assert len(reports) == workers, reports
    return reports


requires_openblas = pytest.mark.skipif(
    openblas_threads() is None, reason="no OpenBLAS mapped into the process")


class TestWorkerBlasThreads:
    """Campaign workers cap OpenBLAS at ``max(1, CPUs // workers)`` threads
    (never above the parent's count) and leave the parent's untouched."""

    def test_threads_per_worker_divide_the_cpus(self):
        assert [blas_threads_per_worker(workers, cpus=2)
                for workers in (1, 2, 4)] == [2, 1, 1]

    @requires_openblas
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_workers_report_the_derived_count(self, workers):
        parent = openblas_threads()
        expected = min(blas_threads_per_worker(workers), parent)
        with CampaignPool(workers=workers) as pool:
            reports = _reports_from_every_worker(pool._executor, workers)
            assert pool.worker_blas_threads() == expected
        assert set(reports.values()) == {expected}
        assert openblas_threads() == parent

    @requires_openblas
    def test_fresh_shard_workers_report_the_derived_count(
            self, untrained_lenet, monkeypatch):
        real_executor = pool_module.campaign_executor
        reports = {}

        def probed_executor(workers, context=None):
            executor = real_executor(workers, context)
            reports.update(_reports_from_every_worker(executor, workers))
            return executor

        monkeypatch.setattr(pool_module, "campaign_executor",
                            probed_executor)
        parent = openblas_threads()
        inputs = untrained_lenet.dataset.x_val[:2]
        campaign = FaultInjectionCampaign(untrained_lenet.model, inputs,
                                          fault_model=SingleBitFlip(FIXED16),
                                          seed=3)
        plans = campaign.generate_plans(TRIALS)
        serial = campaign.run(plans=plans)
        fanned = campaign.run(plans=plans, workers=2)
        assert fanned.sdc_counts == serial.sdc_counts
        assert len(reports) == 2
        assert set(reports.values()) == {
            min(blas_threads_per_worker(2), parent)}
        assert openblas_threads() == parent

    @requires_openblas
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task")
        or "fork" not in multiprocessing.get_all_start_methods(),
        reason="counts a fork worker's threads in /proc")
    def test_workers_stop_the_blas_threads_the_cap_starts(self):
        """Setting the count restarts the thread server OpenBLAS shut down
        for the fork, and its threads busy-wait before they sleep; a
        worker stops them, so it runs on its main thread alone until a
        threaded BLAS call."""
        with CampaignPool(workers=2,
                          context=multiprocessing.get_context("fork")) as pool:
            reports = _reports_from_every_worker(pool._executor, 2,
                                                 probe=_worker_threads)
        assert set(reports.values()) == {1}

    @requires_openblas
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task")
        or "spawn" not in multiprocessing.get_all_start_methods(),
        reason="counts a spawn worker's threads in /proc")
    def test_spawn_workers_stop_every_blas_they_map(self):
        """A spawn worker loads its libraries afresh, scipy's own OpenBLAS
        among them (the campaign stack imports ``scipy.special``); each
        one starts a thread server at load.  The worker caps and stops
        every one it maps, so it too runs on its main thread alone."""
        with CampaignPool(workers=2,
                          context=multiprocessing.get_context("spawn")) as pool:
            reports = _reports_from_every_worker(pool._executor, 2,
                                                 probe=_worker_threads)
        assert set(reports.values()) == {1}

    def test_workers_freeze_the_inherited_heap(self):
        """A worker moves what it starts with out of the collector's
        generations, so its collections never traverse (and copy) the
        pages a fork child shares with its parent."""
        with CampaignPool(workers=1) as pool:
            assert pool._executor.submit(gc.get_freeze_count).result() > 0

    @pytest.mark.parametrize("cause, patch", [
        ("no OpenBLAS library is mapped",
         lambda mp: mp.setattr(fanout, "_mapped_openblas", lambda: [])),
        pytest.param(
            "no no_such_setter symbol",
            lambda mp: mp.setattr(fanout, "_SETTERS", ("no_such_setter",)),
            marks=requires_openblas),
    ], ids=["no-library", "no-setter"])
    def test_uncappable_workers_log_once_per_cause(self, fallback_log,
                                                   monkeypatch, cause, patch):
        patch(monkeypatch)
        for _ in range(2):
            CampaignPool(workers=2).close()
        messages = [record.getMessage() for record in fallback_log.records
                    if record.name == "repro.parallel"]
        assert len(messages) == 1
        assert cause in messages[0]


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, monkeypatch):
    """Run the test's pools (ephemeral ones included) under each start
    method."""
    monkeypatch.setenv(START_METHOD_ENV, request.param)


def _spec_bytes(campaign):
    return len(pickle.dumps(campaign.spec(), protocol=pickle.HIGHEST_PROTOCOL))


def _running_pool(workers):
    """A pool whose workers run already, so that its first dispatch
    cannot start them with the campaign and sends the spec instead."""
    pool = CampaignPool(workers=workers)
    pool.worker_blas_threads()
    return pool


def _count_submits(pool):
    """Record, for every shard ``pool`` submits from now on, whether it
    carries the spec."""
    submitted = []
    real_submit = pool._executor.submit

    def counted(fn, *args):
        if fn is pool_module._run_pooled_shard:
            submitted.append(args[1] is not None)
        return real_submit(fn, *args)

    pool._executor.submit = counted
    return submitted


@pytest.mark.usefixtures("start_method")
class TestSpecOnMiss:
    """Tasks carry ``(fingerprint, plans)``; a worker without the campaign
    bounces the task and the parent resends it with the pickled spec."""

    @staticmethod
    def _campaign(prepared, seed=0):
        return FaultInjectionCampaign(prepared.model,
                                      prepared.dataset.x_val[:2],
                                      fault_model=SingleBitFlip(FIXED16),
                                      seed=seed)

    def test_bounced_tasks_resend_bit_identically(self, untrained_lenet):
        serial = self._campaign(untrained_lenet)
        plans = serial.generate_plans(TRIALS)
        reference = serial.run(plans=plans, keep_faults=True)
        campaign = self._campaign(untrained_lenet)
        with _running_pool(2) as pool:
            # As if the pool had sent the campaign before: its first sends
            # go without the spec, and the workers bounce them all.
            pool._dispatched.add(campaign.spec_fingerprint())
            submitted = _count_submits(pool)
            result = campaign.run(plans=plans, keep_faults=True, pool=pool)
            stats = pool.stats()
        assert submitted == [False, False, True, True]
        assert stats["misses"] == stats["tasks"] == 2
        assert result.sdc_counts == reference.sdc_counts
        assert result.faults == reference.faults
        assert result.nodes_recomputed == reference.nodes_recomputed

    def test_first_dispatch_carries_the_spec(self, untrained_lenet):
        """A fingerprint the pool never sent would bounce on every worker,
        so its shards go out with the spec and none is resent."""
        serial = self._campaign(untrained_lenet)
        plans = serial.generate_plans(TRIALS)
        reference = serial.run(plans=plans, keep_faults=True)
        campaign = self._campaign(untrained_lenet)
        with _running_pool(2) as pool:
            submitted = _count_submits(pool)
            result = campaign.run(plans=plans, keep_faults=True, pool=pool)
            stats = pool.stats()
        assert submitted == [True, True]
        assert stats["misses"] == stats["tasks"] == 2
        assert stats["payload_bytes"] == 2 * _spec_bytes(campaign)
        assert result.sdc_counts == reference.sdc_counts
        assert result.faults == reference.faults

    def test_fork_pool_starts_its_workers_with_the_first_campaign(
            self, untrained_lenet):
        """A fork pool's first dispatch forks the workers with the campaign
        cached, so no task carries the spec; a spawn pool's carries it."""
        serial = self._campaign(untrained_lenet)
        plans = serial.generate_plans(TRIALS)
        reference = serial.run(plans=plans, keep_faults=True)
        campaign = self._campaign(untrained_lenet)
        fork = os.environ[START_METHOD_ENV] == "fork"
        with CampaignPool(workers=2) as pool:
            submitted = _count_submits(pool)
            result = campaign.run(plans=plans, keep_faults=True, pool=pool)
            stats = pool.stats()
        # Under fork the first submit only forks the workers.
        assert submitted == ([False, False] if fork else [True, True])
        assert stats["misses"] == (0 if fork else 2)
        assert result.sdc_counts == reference.sdc_counts
        assert result.faults == reference.faults

    def test_ephemeral_fork_workers_inherit_the_campaigns(
            self, untrained_lenet, lenet_prepared, lenet_protected,
            monkeypatch):
        """``run(workers=N)`` and ``compare_protection(workers=N)`` start
        fork workers with their campaigns cached, so no spec is pickled;
        spawn workers get it with the first dispatch, once per campaign."""
        pickled = []
        real_pickled_spec = CampaignPool._pickled_spec

        def counted(pool, campaign):
            pickled.append(campaign.spec_fingerprint())
            return real_pickled_spec(pool, campaign)

        monkeypatch.setattr(CampaignPool, "_pickled_spec", counted)
        fork = os.environ[START_METHOD_ENV] == "fork"
        campaign = self._campaign(untrained_lenet)
        plans = campaign.generate_plans(TRIALS)
        reference = campaign.run(plans=plans, keep_faults=True)
        result = self._campaign(untrained_lenet).run(
            plans=plans, keep_faults=True, workers=2)
        assert result.sdc_counts == reference.sdc_counts
        assert result.faults == reference.faults
        assert pickled == ([] if fork else [campaign.spec_fingerprint()])
        del pickled[:]
        protected, _ = lenet_protected
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        serial = compare_protection(lenet_prepared.model, protected, inputs,
                                    trials=TRIALS, seed=3)
        fanned = compare_protection(lenet_prepared.model, protected, inputs,
                                    trials=TRIALS, seed=3, workers=2)
        for expected, got in zip(serial, fanned):
            assert got.sdc_counts == expected.sdc_counts
        assert len(pickled) == (0 if fork else 2)

    def test_fork_workers_inherit_the_golden_outputs(
            self, untrained_lenet, lenet_prepared, lenet_protected,
            monkeypatch):
        """A campaign computes its golden outputs at its first verdict.
        ``start_with`` builds them in the parent before the fork, once
        per campaign, so no fork worker runs a golden-output pass; a
        spawn pool starts no workers with campaigns, and its parent runs
        none (its workers compute their own)."""
        campaign = self._campaign(untrained_lenet)
        plans = campaign.generate_plans(TRIALS)
        reference = campaign.run(plans=plans, keep_faults=True)
        protected, _ = lenet_protected
        inputs, _ = lenet_prepared.correctly_predicted_inputs(2, seed=0)
        serial = compare_protection(lenet_prepared.model, protected, inputs,
                                    trials=TRIALS, seed=3)
        parent = os.getpid()
        passes = []
        real_golden = FaultInjectionCampaign._compute_golden_outputs

        def counted(campaign):
            if os.getpid() != parent:
                raise AssertionError("a fork worker ran a golden pass")
            passes.append(campaign)
            return real_golden(campaign)

        monkeypatch.setattr(FaultInjectionCampaign, "_compute_golden_outputs",
                            counted)
        fork = os.environ[START_METHOD_ENV] == "fork"
        result = self._campaign(untrained_lenet).run(
            plans=plans, keep_faults=True, workers=2)
        assert result.sdc_counts == reference.sdc_counts
        assert result.faults == reference.faults
        assert len(passes) == (1 if fork else 0)
        del passes[:]
        fanned = compare_protection(lenet_prepared.model, protected, inputs,
                                    trials=TRIALS, seed=3, workers=2)
        for expected, got in zip(serial, fanned):
            assert got.sdc_counts == expected.sdc_counts
        assert len(passes) == (2 if fork else 0)

    def test_evicted_campaign_is_resent(self, untrained_lenet):
        campaigns = [self._campaign(untrained_lenet, seed=seed)
                     for seed in range(WORKER_CAMPAIGN_CACHE_LIMIT + 1)]
        with _running_pool(1) as pool:
            for campaign in campaigns:
                campaign.run(trials=2, pool=pool)
            assert pool.stats()["misses"] == len(campaigns)
            # The one worker kept the newest LIMIT campaigns.
            for campaign in campaigns[1:]:
                campaign.run(trials=2, pool=pool)
            assert pool.stats()["misses"] == len(campaigns)
            before = pool.stats()
            campaigns[0].run(trials=2, pool=pool)
            after = pool.stats()
        assert after["misses"] - before["misses"] == 1
        assert (after["payload_bytes"] - before["payload_bytes"]
                == _spec_bytes(campaigns[0]))

    def test_payload_counts_only_resent_specs(self, untrained_lenet):
        campaign = self._campaign(untrained_lenet)
        with _running_pool(2) as pool:
            for _ in range(3):
                campaign.run(trials=TRIALS, pool=pool)
            stats = pool.stats()
            hit_task = pool._shard_tasks(campaign,
                                         campaign.generate_plans(TRIALS),
                                         RunOptions(trials=TRIALS))[0]
        assert stats["tasks"] == 3 * 2
        assert stats["hits"] + stats["misses"] == stats["tasks"]
        assert stats["misses"] >= 2
        assert stats["payload_bytes"] == stats["misses"] * _spec_bytes(
            campaign)
        # A hit travels without the spec.
        assert hit_task[1] is None
        assert len(pickle.dumps(hit_task)) < _spec_bytes(campaign)

    def test_adaptive_run_opens_one_pool(self, untrained_lenet, monkeypatch):
        real_executor = pool_module.campaign_executor
        opened = []

        def counted_executor(workers, context=None):
            opened.append(workers)
            return real_executor(workers, context)

        monkeypatch.setattr(pool_module, "campaign_executor",
                            counted_executor)
        options = dict(trials=60, wave_trials=10, target_half_width=0.01)
        reference = self._campaign(untrained_lenet).run(**options)
        result = self._campaign(untrained_lenet).run(workers=2, **options)
        assert opened == [2]
        assert result.waves == reference.waves > 1
        assert result.trials == reference.trials
        assert result.sdc_counts == reference.sdc_counts


def _child_pids():
    return {child.pid for child in multiprocessing.active_children()}


class TestPoolLifecycle:
    """Worker processes and pickled specs live exactly as long as their
    pool, and the two caches (parent specs, worker campaigns) stay LRU
    bounded at ``WORKER_CAMPAIGN_CACHE_LIMIT``."""

    @staticmethod
    def _campaign(prepared, seed=0):
        return FaultInjectionCampaign(prepared.model,
                                      prepared.dataset.x_val[:2],
                                      fault_model=SingleBitFlip(FIXED16),
                                      seed=seed)

    def test_ephemeral_pools_leave_no_workers(self, untrained_lenet,
                                              monkeypatch):
        real_executor = pool_module.campaign_executor
        opened = []

        def counted_executor(workers, context=None):
            opened.append(workers)
            return real_executor(workers, context)

        monkeypatch.setattr(pool_module, "campaign_executor",
                            counted_executor)
        before = _child_pids()
        campaign = self._campaign(untrained_lenet)
        plans = campaign.generate_plans(TRIALS)
        reference = self._campaign(untrained_lenet).run(plans=plans)
        result = campaign.run(plans=plans, workers=2)
        assert result.sdc_counts == reference.sdc_counts
        assert _child_pids() <= before
        inputs = untrained_lenet.dataset.x_val[:2]
        serial = compare_protection(untrained_lenet.model,
                                    untrained_lenet.model, inputs,
                                    trials=TRIALS, seed=3)
        fanned = compare_protection(untrained_lenet.model,
                                    untrained_lenet.model, inputs,
                                    trials=TRIALS, seed=3, workers=2)
        for reference, result in zip(serial, fanned):
            assert result.sdc_counts == reference.sdc_counts
        # One executor per call, each shut down before the call returned.
        assert opened == [2, 2]
        assert _child_pids() <= before

    def test_close_stops_workers_and_drops_specs(self, untrained_lenet):
        campaign = self._campaign(untrained_lenet)
        pool = _running_pool(2)
        try:
            campaign.run(trials=TRIALS, pool=pool)
            workers = set(pool._executor._processes)
            assert workers and workers <= _child_pids()
            assert list(pool._specs) == [campaign.spec_fingerprint()]
        finally:
            pool.close()
        assert pool.closed
        assert not pool._specs
        assert not workers & _child_pids()
        with pytest.raises(RuntimeError, match="closed"):
            pool.worker_blas_threads()

    def test_worker_crash_surfaces_and_close_still_works(self,
                                                         untrained_lenet):
        campaign = self._campaign(untrained_lenet)
        plans = campaign.generate_plans(TRIALS)
        pool = CampaignPool(workers=2)
        try:
            campaign.run(plans=plans, pool=pool)
            workers = set(pool._executor._processes)
            os.kill(next(iter(workers)), signal.SIGKILL)
            # The executor notices the death on the next interaction.
            with pytest.raises(BrokenProcessPool):
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    campaign.run(plans=plans, pool=pool)
        finally:
            pool.close()
        assert pool.closed
        assert not workers & _child_pids()

    def test_parent_pickles_each_spec_once_lru(self, untrained_lenet):
        campaigns = [self._campaign(untrained_lenet, seed=seed)
                     for seed in range(WORKER_CAMPAIGN_CACHE_LIMIT + 1)]
        with CampaignPool(workers=1) as pool:
            first = pool._pickled_spec(campaigns[0])
            assert pool._pickled_spec(campaigns[0]) is first
            assert pickle.loads(first).build().spec_fingerprint() == (
                campaigns[0].spec_fingerprint())
            for campaign in campaigns[1:-1]:
                pool._pickled_spec(campaign)
            # Touching the oldest spec protects it from the next eviction.
            assert pool._pickled_spec(campaigns[0]) is first
            pool._pickled_spec(campaigns[-1])
            held = list(pool._specs)
        assert len(held) == WORKER_CAMPAIGN_CACHE_LIMIT
        assert campaigns[1].spec_fingerprint() not in held
        assert held[-2:] == [campaigns[0].spec_fingerprint(),
                             campaigns[-1].spec_fingerprint()]

    def test_worker_cache_evicts_least_recently_used(self, untrained_lenet,
                                                     monkeypatch):
        monkeypatch.setattr(pool_module, "_WORKER_CAMPAIGNS", OrderedDict())
        campaigns = [self._campaign(untrained_lenet, seed=seed)
                     for seed in range(WORKER_CAMPAIGN_CACHE_LIMIT + 1)]
        plans = campaigns[0].generate_plans(2)
        payload = [(index, plan.to_payload()) for index, plan in plans]

        def shard(campaign, with_spec):
            spec = pickle.dumps(campaign.spec()) if with_spec else None
            return _run_pooled_shard(campaign.spec_fingerprint(), spec,
                                     payload, 0, RunOptions(trials=2))

        for campaign in campaigns[:-1]:
            assert shard(campaign, with_spec=True) is not None
        assert shard(campaigns[0], with_spec=False) is not None  # a hit
        assert shard(campaigns[-1], with_spec=True) is not None
        cached = pool_module._WORKER_CAMPAIGNS
        assert len(cached) == WORKER_CAMPAIGN_CACHE_LIMIT
        assert shard(campaigns[1], with_spec=False) is None  # evicted
        assert shard(campaigns[0], with_spec=False) is not None
        assert (shard(campaigns[-1], with_spec=False).sdc_counts
                == campaigns[-1].run(plans=plans).sdc_counts)

    def test_equal_configs_share_a_warm_worker(self, untrained_lenet):
        first = self._campaign(untrained_lenet)
        second = self._campaign(untrained_lenet)
        assert first is not second
        assert first.spec_fingerprint() == second.spec_fingerprint()
        assert (self._campaign(untrained_lenet, seed=1).spec_fingerprint()
                != first.spec_fingerprint())
        plans = first.generate_plans(TRIALS)
        reference = self._campaign(untrained_lenet).run(plans=plans,
                                                        keep_faults=True)
        with _running_pool(1) as pool:
            first.run(plans=plans, pool=pool)
            assert pool.stats()["misses"] == 1
            result = second.run(plans=plans, keep_faults=True, pool=pool)
            stats = pool.stats()
        # The second object's task hit the worker the first one warmed.
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert result.sdc_counts == reference.sdc_counts
        assert result.faults == reference.faults


class TestServerPoolOwnership:
    def test_server_leaves_a_borrowed_pool_running(self, untrained_lenet):
        from repro.service import CampaignServer, request_from_campaign
        from repro.service.scheduler import DEFAULT_WAVE_COUNT

        inputs = untrained_lenet.dataset.x_val[:2]
        campaign = FaultInjectionCampaign(untrained_lenet.model, inputs,
                                          seed=0)
        plans = campaign.generate_plans(8)
        with CampaignPool(workers=1) as pool:
            with CampaignServer(pool=pool) as server:
                job = server.submit(request_from_campaign(
                    untrained_lenet.model, inputs, seed=0, trials=8,
                    use_pool=True))
                served = job.result(timeout=600.0)
            assert not pool.closed
            assert pool.stats()["tasks"] == DEFAULT_WAVE_COUNT
            # The caller's pool outlives the server and still runs.
            assert (campaign.run(plans=plans, pool=pool).sdc_counts
                    == campaign.run(plans=plans).sdc_counts
                    == served.sdc_counts)
        assert pool.closed
