"""Campaign service: queue, scheduler, artifact store, server end-to-end.

The acceptance guarantees under test:

* **Bit-identity** — a spec submitted through the service yields a
  ``CampaignResult`` with the same SDC counts and fault records as a
  direct ``FaultInjectionCampaign.run()`` on every backend (serial,
  batched, workers, pool, adaptive).
* **Streaming** — per-wave snapshots are cumulative partial merges whose
  last element equals the final (and direct) result.
* **Artifact reuse** — an exact repeat submission is served from the
  result cache (observable hit counter), and an overlapping spec reuses
  the stored golden activation caches.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.graph import Executor, GraphBuilder
from repro.injection import (CampaignPool, FaultInjectionCampaign,
                             SingleBitFlip, compare_protection)
from repro.injection.campaign import CampaignSpec
from repro.models import Model, prepare_model
from repro.nn import SGD, SoftmaxCrossEntropy, Trainer
from repro.ops import BatchNorm, Dropout
from repro.quantization import FIXED32, fixed32_policy
from repro.service import (
    AdmissionError,
    ArtifactStore,
    CampaignServer,
    JobQueue,
    RunOptions,
    WaveScheduler,
    request_from_campaign,
    result_fingerprint,
)
from repro.service.scheduler import DEFAULT_WAVE_COUNT

TRIALS = 24


@pytest.fixture(scope="module")
def service_inputs(lenet_prepared):
    inputs, _ = lenet_prepared.correctly_predicted_inputs(3, seed=0)
    return inputs


@pytest.fixture(scope="module")
def direct_reference(lenet_prepared, service_inputs):
    """The direct-run result every service backend must match bit-for-bit."""
    campaign = FaultInjectionCampaign(
        lenet_prepared.model, service_inputs,
        fault_model=SingleBitFlip(FIXED32), dtype_policy=fixed32_policy(),
        seed=0)
    return campaign.run(trials=TRIALS, keep_faults=True)


def _batch_norms(model):
    return [node.op for node in model.graph.nodes()
            if isinstance(node.op, BatchNorm)]


def submit_kwargs(**options):
    base = dict(fault_model=SingleBitFlip(FIXED32),
                dtype_policy=fixed32_policy(), seed=0, trials=TRIALS,
                keep_faults=True)
    base.update(options)
    return base


def submit(server, model, inputs, **options):
    """Submit ``request_from_campaign(model, inputs, ...)``; returns the
    :class:`~repro.service.Job`."""
    return server.submit(request_from_campaign(model, inputs,
                                               **submit_kwargs(**options)))


def keys(request):
    """The request's golden-cache key and result key."""
    arm_keys = request.arm_keys()
    return arm_keys[0], result_fingerprint(request, arm_keys)


class TestJobQueue:
    def test_priority_order(self):
        queue = JobQueue()
        queue.submit("low", priority=0)
        queue.submit("high", priority=5)
        queue.submit("mid", priority=2)
        assert [queue.pop() for _ in range(3)] == ["high", "mid", "low"]

    def test_fifo_within_priority(self):
        queue = JobQueue()
        for item in "abcd":
            queue.submit(item, priority=1)
        assert [queue.pop() for _ in range(4)] == list("abcd")

    def test_admission_backpressure(self):
        queue = JobQueue(max_pending=2)
        queue.submit(1)
        queue.submit(2)
        with pytest.raises(AdmissionError):
            queue.submit(3)
        queue.pop()
        queue.submit(3)  # capacity freed by the pop

    def test_pop_timeout_returns_none(self):
        queue = JobQueue()
        assert queue.pop(timeout=0.01) is None

    def test_close_wakes_blocked_pop_and_refuses_submit(self):
        queue = JobQueue()
        popped = []
        thread = threading.Thread(
            target=lambda: popped.append(queue.pop(timeout=5.0)))
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5.0)
        assert popped == [None]
        with pytest.raises(RuntimeError):
            queue.submit("x")

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            JobQueue(max_pending=0)


class TestArtifactStore:
    def test_hit_miss_counters(self):
        store = ArtifactStore()
        assert store.get("result", "k") is None
        store.put("result", "k", 41)
        assert store.get("result", "k") == 41
        assert store.stats()["result"] == {"hits": 1, "misses": 1,
                                           "entries": 1}

    def test_contains_does_not_perturb_counters(self):
        store = ArtifactStore()
        store.put("golden", "k", {0: {}})
        assert store.contains("golden", "k")
        assert not store.contains("golden", "other")
        assert "golden" not in store.stats() or \
            store.stats()["golden"]["misses"] == 0

    def test_disk_write_through_and_reload(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        store.put("result", "deadbeef", {"rate": 0.5})
        assert (tmp_path / "result" / "deadbeef.pkl").exists()
        # A fresh store over the same root serves the artifact (one hit).
        reloaded = ArtifactStore(root=tmp_path)
        assert reloaded.get("result", "deadbeef") == {"rate": 0.5}
        assert reloaded.stats()["result"]["hits"] == 1

    def test_golden_budget_rejects_oversized_payloads(self):
        import numpy as np
        store = ArtifactStore(golden_budget_bytes=8)
        big = {0: {"node": np.zeros(64)}}
        assert not store.put_golden_caches("key", big)
        assert not store.contains("golden", "key")
        small = {0: {"node": np.zeros(1)}}
        assert store.put_golden_caches("key", small)


class TestRequestFingerprints:
    def test_identical_requests_share_keys(self, lenet_prepared,
                                           service_inputs):
        first = request_from_campaign(lenet_prepared.model, service_inputs,
                                      **submit_kwargs())
        second = request_from_campaign(lenet_prepared.model, service_inputs,
                                       **submit_kwargs())
        assert keys(first) == keys(second)

    def test_backend_knobs_change_result_key_not_spec_key(
            self, lenet_prepared, service_inputs):
        plain = request_from_campaign(lenet_prepared.model, service_inputs,
                                      **submit_kwargs())
        batched = request_from_campaign(lenet_prepared.model, service_inputs,
                                        **submit_kwargs(batch_trials=8))
        assert keys(plain)[0] == keys(batched)[0]
        assert keys(plain)[1] != keys(batched)[1]

    def test_fingerprint_survives_pickle_round_trip(self, lenet_prepared,
                                                    service_inputs):
        request = request_from_campaign(lenet_prepared.model, service_inputs,
                                        **submit_kwargs())
        clone = pickle.loads(pickle.dumps(request))
        assert keys(clone) == keys(request)

    def test_fingerprint_does_not_depend_on_the_hash_seed(self):
        """A fixed32 spec fingerprints alike in processes with different
        string-hash seeds, before and after a pickle round trip."""
        script = (
            "import pickle\n"
            "from repro.injection import FaultInjectionCampaign, SingleBitFlip\n"
            "from repro.injection.pool import spec_fingerprint\n"
            "from repro.models import prepare_model\n"
            "from repro.quantization import FIXED32, fixed32_policy\n"
            "prepared = prepare_model('lenet', train=False, seed=1)\n"
            "inputs, _ = prepared.dataset.sample_train(2, seed=0)\n"
            "spec = FaultInjectionCampaign(\n"
            "    prepared.model, inputs, fault_model=SingleBitFlip(FIXED32),\n"
            "    dtype_policy=fixed32_policy(), seed=0).spec()\n"
            "print(spec_fingerprint(spec))\n"
            "print(spec_fingerprint(pickle.loads(pickle.dumps(spec))))\n")
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(sys.modules["repro"].__file__)))
        prints = set()
        for seed in ("0", "34", "41"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            prints.update(done.stdout.split())
        assert len(prints) == 1, prints

    def test_fingerprint_stable_after_graph_queries(self, lenet_prepared,
                                                    service_inputs):
        """Running a campaign fills the graph's lazy cone memos; the
        pickle (and therefore every content key) must not see them."""
        request = request_from_campaign(lenet_prepared.model, service_inputs,
                                        **submit_kwargs())
        before = keys(request)
        FaultInjectionCampaign(
            lenet_prepared.model, service_inputs,
            fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), seed=0).run(trials=2)
        assert keys(request) == before

    def test_fingerprint_ignores_training_scratch(self):
        """A BatchNorm model's spec pickles to the same bytes, and keys
        the same, before any forward pass, after a batched replay (which
        fills BatchNorm's ``x_hat`` cache) and after a backward pass
        (which fills every ``Variable.grad``).  The unpickled model still
        runs forward bit for bit and trains."""
        prepared = prepare_model("resnet18", train=False, seed=1,
                                 use_cache=False)
        model = prepared.model
        inputs, labels = prepared.dataset.sample_train(2, seed=0)
        request = request_from_campaign(
            model, inputs, fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), seed=0)
        pickled = pickle.dumps(request.spec, protocol=pickle.HIGHEST_PROTOCOL)
        key = keys(request)
        request.spec.build().run(trials=8, batch_trials=8)
        assert any(op._cache is not None for op in _batch_norms(model))
        assert pickle.dumps(request.spec,
                            protocol=pickle.HIGHEST_PROTOCOL) == pickled
        assert keys(request) == key
        loss = SoftmaxCrossEntropy()
        executor = Executor(model.graph)
        logits = executor.run({model.input_name: inputs},
                              outputs=[model.logits_name])
        executor.run_with_gradients(
            {model.input_name: inputs},
            {model.logits_name: loss.gradient(
                logits.output(model.logits_name), labels)})
        assert all(v.grad is not None for v in model.graph.variables())
        assert pickle.dumps(request.spec,
                            protocol=pickle.HIGHEST_PROTOCOL) == pickled
        assert keys(request) == key

        clone = pickle.loads(pickled).model
        assert all(v.grad is None for v in clone.graph.variables())
        assert (clone.predict_logits(inputs).tobytes()
                == model.predict_logits(inputs).tobytes())
        before = [v.value.copy() for v in clone.graph.variables()]
        trainer = Trainer(clone.graph, loss, SGD(learning_rate=0.1),
                          output_node=clone.logits_name)
        history = trainer.fit(inputs, labels, epochs=1, batch_size=2)
        assert np.isfinite(history.final_loss)
        assert any(not np.array_equal(old, v.value) for old, v
                   in zip(before, clone.graph.variables()))

    def test_fingerprint_ignores_training_scratch_of_dropout(self):
        """A model trained in this process keeps its last Dropout mask
        until an inference pass clears it; the spec pickles to the same
        bytes, and keys the same, either way."""
        builder = GraphBuilder("dropout_mlp", seed=3)
        node = builder.input((6,), "input")
        node = builder.dense(node, 6, 16, name="fc1")
        node = builder.dropout(node, 0.5, name="drop")
        logits = builder.dense(node, 16, 3, name="fc2", activation=None)
        probs = builder.softmax(logits, "softmax")
        builder.output(probs)
        builder.graph.mark_output(logits)
        model = Model(name="dropout_mlp", graph=builder.graph,
                      input_name="input", logits_name=logits,
                      output_name=probs, task="classification",
                      activation="relu", dataset="synthetic")
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(8, 6))
        labels = rng.integers(0, 3, size=8)
        Trainer(model.graph, SoftmaxCrossEntropy(), SGD(learning_rate=0.1),
                output_node=logits).fit(inputs, labels, epochs=1,
                                        batch_size=8)
        dropout = model.graph.node("drop").op
        assert isinstance(dropout, Dropout) and dropout._mask is not None

        request = request_from_campaign(
            model, inputs[:2], fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), seed=0)
        pickled = pickle.dumps(request.spec, protocol=pickle.HIGHEST_PROTOCOL)
        key = keys(request)
        model.predict_logits(inputs[:2])
        assert dropout._mask is None
        assert pickle.dumps(request.spec,
                            protocol=pickle.HIGHEST_PROTOCOL) == pickled
        assert keys(request) == key

    def test_options_waved_flag(self):
        assert not RunOptions().waved
        assert RunOptions(target_half_width=0.1).waved
        assert RunOptions(wave_trials=5).waved


class TestServiceBitIdentity:
    """Service result == direct run, on every backend."""

    @pytest.fixture(scope="class")
    def server(self):
        with CampaignPool(workers=2) as pool, \
                CampaignServer(pool=pool) as server:
            yield server

    @pytest.mark.parametrize("options", [
        {},
        {"batch_trials": 8},
        {"workers": 2},
        {"use_pool": True},
        {"target_half_width": 0.25, "wave_trials": 6},
    ], ids=["serial", "batched", "workers", "pool", "adaptive"])
    def test_backend_matches_direct_run(self, server, lenet_prepared,
                                        service_inputs, direct_reference,
                                        options):
        result = submit(server, lenet_prepared.model, service_inputs,
                        **options).result(timeout=600.0)
        # the direct run takes the same engine options (an adaptive job
        # stops early on both sides; backend knobs don't change content)
        run_options = {key: value for key, value in options.items()
                       if key != "use_pool"}
        direct = FaultInjectionCampaign(
            lenet_prepared.model, service_inputs,
            fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), seed=0).run(
                trials=TRIALS, keep_faults=True, **run_options)
        assert result.sdc_counts == direct.sdc_counts
        assert result.faults == direct.faults
        assert result.trials == direct.trials
        if not run_options:  # non-adaptive backends all match the serial ref
            assert result.sdc_counts == direct_reference.sdc_counts
            assert result.faults == direct_reference.faults

    def test_streaming_snapshots_are_cumulative_prefixes(
            self, server, lenet_prepared, service_inputs, direct_reference):
        # seed=1 keeps this spec distinct from the cached backend runs.
        job = submit(server, lenet_prepared.model, service_inputs, seed=1)
        snapshots = list(job.iter_snapshots(timeout=600.0))
        assert len(snapshots) > 1
        trials_seen = [snapshot.trials for snapshot in snapshots]
        assert trials_seen == sorted(trials_seen)
        final = snapshots[-1]
        direct = FaultInjectionCampaign(
            lenet_prepared.model, service_inputs,
            fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), seed=1).run(trials=TRIALS,
                                                       keep_faults=True)
        assert final.sdc_counts == direct.sdc_counts
        assert final.faults == direct.faults
        # every snapshot's fault records are a prefix of the final ones
        for snapshot in snapshots:
            assert snapshot.faults == final.faults[:len(snapshot.faults)]

    def test_compare_job_matches_direct_compare(self, server, lenet_prepared,
                                                lenet_protected,
                                                service_inputs):
        from repro.injection import compare_protection
        protected, _ = lenet_protected
        base, guarded = submit(
            server, lenet_prepared.model, service_inputs,
            protected_model=protected, keep_faults=False, workers=2,
            use_pool=True).result(timeout=600.0)
        direct_base, direct_guarded = compare_protection(
            lenet_prepared.model, protected, service_inputs,
            fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), trials=TRIALS, seed=0)
        assert base.sdc_counts == direct_base.sdc_counts
        assert guarded.sdc_counts == direct_guarded.sdc_counts


class TestArtifactReuse:
    def test_repeat_submission_hits_result_cache(self, lenet_prepared,
                                                 service_inputs,
                                                 direct_reference):
        with CampaignServer() as server:
            first = submit(server, lenet_prepared.model, service_inputs)
            first.result(timeout=600.0)
            assert first.describe()["from_cache"] is False
            repeat = submit(server, lenet_prepared.model, service_inputs)
            served = repeat.result(timeout=600.0)
            assert repeat.describe()["from_cache"] is True
            assert served.sdc_counts == direct_reference.sdc_counts
            assert served.faults == direct_reference.faults
            stats = server.stats()["store"]
            assert stats["result"]["hits"] == 1
            assert stats["result"]["misses"] == 1  # only the first lookup

    def test_overlapping_spec_reuses_golden_caches(self, lenet_prepared,
                                                   service_inputs):
        with CampaignServer() as server:
            first = submit(server, lenet_prepared.model, service_inputs)
            first.result(timeout=600.0)
            assert first.describe()["golden_seeded"] is False
            # Same spec, different budget and options: result key differs,
            # spec key (and therefore the golden caches) is shared.
            overlap = submit(server, lenet_prepared.model, service_inputs,
                             trials=TRIALS * 2, keep_faults=False)
            overlap.result(timeout=600.0)
            assert overlap.describe()["from_cache"] is False
            assert overlap.describe()["golden_seeded"] is True
            assert server.stats()["store"]["golden"]["hits"] == 1

    def test_cached_result_equals_fresh_on_new_server(self, lenet_prepared,
                                                      service_inputs,
                                                      tmp_path):
        store = ArtifactStore(root=tmp_path)
        with CampaignServer(store=store) as server:
            fresh = submit(server, lenet_prepared.model,
                           service_inputs).result(timeout=600.0)
        # a second server over the same disk root serves from cache
        with CampaignServer(store=ArtifactStore(root=tmp_path)) as server:
            job = submit(server, lenet_prepared.model, service_inputs)
            cached = job.result(timeout=600.0)
            assert job.describe()["from_cache"] is True
        assert cached.sdc_counts == fresh.sdc_counts
        assert cached.faults == fresh.faults


def _count_calls(monkeypatch, function):
    """Count every call of ``function`` (a module-level function) through
    any ``repro`` module that binds it; returns the list of call args."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "repro"
                and getattr(module, function.__name__, None) is function):
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


class TestControlPlaneWork:
    """The parent of a pooled job does only the work the job needs: one
    spec fingerprint per arm, and no golden-output pass (only the
    workers take verdicts).  Deterministic counts, no clock."""

    def test_pooled_compare_job_fingerprints_each_arm_once(
            self, lenet_prepared, lenet_protected, service_inputs,
            monkeypatch):
        from repro.injection import pool as pool_module

        protected, _ = lenet_protected
        request = request_from_campaign(
            lenet_prepared.model, service_inputs,
            protected_model=protected, workers=2, use_pool=True,
            **submit_kwargs())
        with CampaignPool(workers=2) as pool, \
                CampaignServer(pool=pool) as server:
            pool.worker_blas_threads()  # the workers run already
            fingerprints = _count_calls(monkeypatch,
                                        pool_module.spec_fingerprint)
            golden = []
            real_golden = FaultInjectionCampaign._compute_golden_outputs
            monkeypatch.setattr(
                FaultInjectionCampaign, "_compute_golden_outputs",
                lambda campaign: golden.append(campaign)
                or real_golden(campaign))
            builds = []
            real_build = CampaignSpec.build
            monkeypatch.setattr(
                CampaignSpec, "build",
                lambda spec, **kwargs: builds.append(spec)
                or real_build(spec, **kwargs))

            fresh = server.submit(request)
            pair = fresh.result(timeout=600.0)
            assert fresh.describe()["from_cache"] is False
            assert len(fingerprints) == 2
            assert len(builds) == 2
            assert golden == []
            dispatched = pool.stats()

            del fingerprints[:], builds[:]
            repeat = server.submit(request)
            assert repeat.result(timeout=600.0) == pair
            assert repeat.describe()["from_cache"] is True
            assert len(fingerprints) == 2
            assert builds == []
            assert golden == []
            assert pool.stats() == dispatched

        monkeypatch.undo()
        direct = compare_protection(
            lenet_prepared.model, protected, service_inputs,
            fault_model=SingleBitFlip(FIXED32),
            dtype_policy=fixed32_policy(), trials=TRIALS, seed=0)
        for served, expected in zip(pair, direct):
            assert served.sdc_counts == expected.sdc_counts


class TestWaveScheduler:
    """Deterministic cancellation coverage, no thread timing involved."""

    def test_cancel_before_any_work(self, lenet_prepared, service_inputs):
        from repro.service import JobCancelled, WaveScheduler
        request = request_from_campaign(lenet_prepared.model, service_inputs,
                                        **submit_kwargs())
        with pytest.raises(JobCancelled):
            WaveScheduler().execute(request, should_cancel=lambda: True)

    def test_cancel_lands_at_wave_boundary(self, lenet_prepared,
                                           service_inputs):
        from repro.service import JobCancelled, WaveScheduler
        request = request_from_campaign(lenet_prepared.model, service_inputs,
                                        **submit_kwargs())
        snapshots = []
        with pytest.raises(JobCancelled):
            WaveScheduler().execute(request, publish=snapshots.append,
                                    should_cancel=lambda: len(snapshots) >= 1)
        assert len(snapshots) == 1  # first wave published, second never ran
        assert snapshots[0].trials < TRIALS

    def test_cancel_adaptive_job_via_on_wave(self, lenet_prepared,
                                             service_inputs):
        from repro.service import JobCancelled, WaveScheduler
        request = request_from_campaign(
            lenet_prepared.model, service_inputs,
            **submit_kwargs(wave_trials=6, target_half_width=0.01))
        snapshots = []
        with pytest.raises(JobCancelled):
            WaveScheduler().execute(request, publish=snapshots.append,
                                    should_cancel=lambda: len(snapshots) >= 1)
        assert len(snapshots) == 1


class TestOneDriver:
    """Served jobs run through the campaign engine's one driver."""

    def test_compare_job_keeps_faults_per_arm(self, lenet_prepared,
                                              lenet_protected,
                                              service_inputs):
        protected, _ = lenet_protected
        request = request_from_campaign(
            lenet_prepared.model, service_inputs, protected_model=protected,
            **submit_kwargs())
        served = WaveScheduler().execute(request).result
        for arm, result in zip((lenet_prepared.model, protected), served):
            direct = FaultInjectionCampaign(
                arm, service_inputs, fault_model=SingleBitFlip(FIXED32),
                dtype_policy=fixed32_policy(), seed=0).run(
                    trials=TRIALS, keep_faults=True)
            assert len(result.faults) == TRIALS
            assert result.faults == direct.faults
            assert result.sdc_counts == direct.sdc_counts

    def test_fixed_workers_job_opens_one_executor(self, monkeypatch,
                                                  lenet_prepared,
                                                  service_inputs,
                                                  direct_reference):
        from repro.injection import pool as pool_module
        opened = []

        def counting_executor(*args, **kwargs):
            opened.append(args)
            return campaign_executor(*args, **kwargs)

        campaign_executor = pool_module.campaign_executor
        monkeypatch.setattr(pool_module, "campaign_executor",
                            counting_executor)
        request = request_from_campaign(lenet_prepared.model, service_inputs,
                                        **submit_kwargs(workers=2))
        snapshots = []
        outcome = WaveScheduler().execute(request, publish=snapshots.append)
        assert len(opened) == 1
        assert len(snapshots) == DEFAULT_WAVE_COUNT
        assert outcome.waves_streamed == DEFAULT_WAVE_COUNT
        assert outcome.result.faults == direct_reference.faults

    def test_fixed_serial_job_equals_direct_run_field_for_field(
            self, lenet_prepared, service_inputs, direct_reference):
        request = request_from_campaign(lenet_prepared.model, service_inputs,
                                        **submit_kwargs())
        served = WaveScheduler().execute(request).result
        assert dataclasses.asdict(served) == \
            dataclasses.asdict(direct_reference)

    def test_fixed_compare_job_is_one_wave(self, lenet_prepared,
                                           lenet_protected, service_inputs):
        protected, _ = lenet_protected
        request = request_from_campaign(
            lenet_prepared.model, service_inputs, protected_model=protected,
            **submit_kwargs())
        snapshots = []
        outcome = WaveScheduler().execute(request, publish=snapshots.append)
        assert outcome.waves_streamed == 1
        assert snapshots == [outcome.result]

    def test_stale_compare_result_is_not_served(self, lenet_prepared,
                                                lenet_protected,
                                                service_inputs):
        # Under the "v2" key layout compare jobs dropped keep_faults; a
        # disk store may still hold such a result, and it must miss.
        import hashlib
        from repro.injection.pool import spec_fingerprint
        protected, _ = lenet_protected
        request = request_from_campaign(
            lenet_prepared.model, service_inputs, protected_model=protected,
            **submit_kwargs())
        canonical = request.options.canonical()
        assert canonical[0] == "v3"
        old = hashlib.sha1()
        for spec in request.arm_specs():
            old.update(spec_fingerprint(spec).encode("ascii"))
        old.update(repr(("v2",) + canonical[1:]).encode("utf-8"))
        fresh = WaveScheduler().execute(request).result
        stale = tuple(dataclasses.replace(arm, faults=[]) for arm in fresh)
        store = ArtifactStore()
        store.put("result", old.hexdigest(), stale)
        outcome = WaveScheduler(store=store).execute(request)
        assert outcome.from_cache is False
        assert [arm.faults for arm in outcome.result] == \
            [arm.faults for arm in fresh]
        assert all(len(arm.faults) == TRIALS for arm in outcome.result)

    def test_final_snapshot_carries_wave_metadata(self, lenet_prepared,
                                                  service_inputs):
        request = request_from_campaign(lenet_prepared.model, service_inputs,
                                        **submit_kwargs(wave_trials=6))
        snapshots = []
        outcome = WaveScheduler().execute(request, publish=snapshots.append)
        assert snapshots[-1] is outcome.result
        assert [snapshot.waves for snapshot in snapshots] == [1, 2, 3, 4]
        assert all(snapshot.trials_budget == TRIALS
                   for snapshot in snapshots)

    def test_cancel_during_last_wave_keeps_result(self, lenet_prepared,
                                                  service_inputs,
                                                  direct_reference):
        request = request_from_campaign(lenet_prepared.model, service_inputs,
                                        **submit_kwargs())
        snapshots = []
        outcome = WaveScheduler().execute(
            request, publish=snapshots.append,
            should_cancel=lambda: len(snapshots) >= DEFAULT_WAVE_COUNT)
        assert len(snapshots) == DEFAULT_WAVE_COUNT
        assert outcome.result.faults == direct_reference.faults


class TestServerLifecycle:
    def test_cancel_pending_job(self, lenet_prepared, service_inputs):
        # A server whose queue is stalled behind a slow job would be
        # flaky to arrange; instead cancel before the scheduler thread can
        # pop by submitting against a closed-queue-free server and racing
        # the flag — the deterministic part is the API contract below.
        with CampaignServer() as server:
            job = submit(server, lenet_prepared.model, service_inputs)
            job.result(timeout=600.0)
            # finished jobs can no longer be cancelled
            assert job.cancel() is False
            assert job.describe()["state"] == "done"

    def test_cancel_flags_only_unfinished_jobs(self, lenet_prepared,
                                               service_inputs):
        from repro.service import Job
        from repro.service.server import CANCELLED, DONE
        request = request_from_campaign(lenet_prepared.model, service_inputs,
                                        **submit_kwargs())
        job = Job("job-1", request, priority=0)
        assert job.cancel() is True
        assert job.describe()["cancel_requested"] is True
        job.transition(CANCELLED)
        assert job.cancel() is False
        done = Job("job-2", request, priority=0)
        done.transition(DONE)
        assert done.cancel() is False
        assert done.cancel_requested is False

    def test_failed_job_surfaces_error(self, lenet_prepared, service_inputs):
        with CampaignServer() as server:
            request = request_from_campaign(
                lenet_prepared.model, service_inputs,
                **submit_kwargs(use_pool=True))
            job = server.submit(request)  # no pool on this server
            with pytest.raises(RuntimeError, match="failed"):
                job.result(timeout=600.0)
            assert job.state == "failed"
            assert "CampaignPool" in job.error

    def test_unrunnable_request_fails_its_job(self, lenet_prepared,
                                              service_inputs):
        """A request is built without running the model, so inputs the
        model cannot take are refused when the job builds its campaign:
        the job fails with the constructor's error, and the server goes
        on serving."""
        bad = np.zeros((2, 7, 7, 1))
        with pytest.raises(Exception) as direct:
            FaultInjectionCampaign(lenet_prepared.model, bad)
        request = request_from_campaign(lenet_prepared.model, bad,
                                        **submit_kwargs())
        with CampaignServer() as server:
            job = server.submit(request)
            with pytest.raises(RuntimeError, match="failed"):
                job.result(timeout=600.0)
            assert job.state == "failed"
            assert (f"{type(direct.value).__name__}: {direct.value}"
                    in job.error)
            good = server.submit(request_from_campaign(
                lenet_prepared.model, service_inputs, **submit_kwargs()))
            assert good.result(timeout=600.0).trials == TRIALS

    def test_submit_after_close_rejected(self, lenet_prepared,
                                         service_inputs):
        server = CampaignServer()
        server.close()
        with pytest.raises(RuntimeError):
            server.submit(request_from_campaign(
                lenet_prepared.model, service_inputs, **submit_kwargs()))

    def test_unpicklable_submission_rejected_at_admission(self):
        with CampaignServer() as server:
            with pytest.raises(Exception):
                # not a CampaignRequest at all — decode_request rejects it
                server.submit("not a request")


@pytest.mark.slow
class TestServiceSoak:
    def test_many_overlapping_submissions_drain(self, lenet_prepared,
                                                service_inputs,
                                                direct_reference):
        """A burst of interleaved repeat/overlap jobs all finish, cache
        hits accumulate, and every result stays bit-identical."""
        with CampaignServer(max_pending=64) as server:
            jobs = [server.submit(request_from_campaign(
                lenet_prepared.model, service_inputs, **submit_kwargs()),
                priority=round_index % 3) for round_index in range(6)]
            results = [job.result(timeout=600.0) for job in jobs]
            for result in results:
                assert result.sdc_counts == direct_reference.sdc_counts
                assert result.faults == direct_reference.faults
            stats = server.stats()
            assert stats["store"]["result"]["hits"] >= 5
            assert stats["jobs"].get("done") == 6
