"""Server behavior: sync/async submission, batching, failure isolation."""

import sys
import threading

import numpy as np
import pytest

from repro.serve import InferenceEngine, ServeServer

from tests.serve.conftest import make_ring_graph


@pytest.fixture(scope="module")
def engine(node_artifact):
    return InferenceEngine.from_artifact(node_artifact)


@pytest.fixture(scope="module")
def foreign(node_artifact):
    return make_ring_graph(
        10, node_artifact.features["num_features"], seed=2, name="ring"
    )


class TestLifecycle:
    def test_double_start_is_an_error(self, engine):
        with ServeServer(engine) as server:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()

    def test_submit_before_start_is_rejected(self, engine, foreign):
        server = ServeServer(engine)
        with pytest.raises(RuntimeError, match="not accepting requests"):
            server.submit_async(node_ids=np.array([0]))
        with pytest.raises(RuntimeError, match="not accepting requests"):
            server.submit_async(node_ids=np.array([0]), graph=foreign)

    def test_invalid_config_is_rejected(self, engine):
        with pytest.raises(ValueError, match="max_batch"):
            ServeServer(engine, max_batch=0)
        with pytest.raises(ValueError, match="workers"):
            ServeServer(engine, workers=0)

    def test_stop_drains_pending_requests(self, engine, foreign):
        server = ServeServer(engine, max_batch=4)
        server.start()
        pendings = [
            server.submit_async(node_ids=np.array([i]), graph=foreign)
            for i in range(8)
        ]
        server.stop()
        for pending in pendings:
            assert pending.result(timeout=5.0) is not None
            assert pending.latency >= 0.0


class TestSubmission:
    def test_sync_submit_matches_engine(self, engine):
        ids = np.array([0, 1, 2, 3])
        with ServeServer(engine) as server:
            served = server.submit(node_ids=ids, timeout=10.0)
        assert np.array_equal(served, engine.predict(node_ids=ids))

    def test_concurrent_batch_matches_singles(self, engine):
        rng = np.random.default_rng(0)
        id_sets = [
            rng.integers(0, engine.num_targets, size=3) for __ in range(16)
        ]
        with ServeServer(engine, max_batch=8, workers=2) as server:
            pendings = [
                server.submit_async(node_ids=ids) for ids in id_sets
            ]
            results = [p.result(timeout=10.0) for p in pendings]
        for ids, result in zip(id_sets, results):
            assert np.array_equal(result, engine.predict(node_ids=ids))

    def test_failed_request_does_not_kill_the_worker(self, engine, foreign):
        bad = np.array([foreign.num_nodes + 10_000])
        with ServeServer(engine) as server:
            with pytest.raises(IndexError):
                server.submit(node_ids=bad, graph=foreign, timeout=10.0)
            # The worker resolved the failure and kept going:
            good = server.submit(node_ids=np.array([0]), graph=foreign, timeout=10.0)
        assert np.array_equal(
            good, engine.predict(node_ids=np.array([0]), graph=foreign)
        )


class TestInlineMemo:
    """Requests on the artifact's own graph never reach the queue."""

    def test_pinned_only_traffic_runs_no_batch(self, node_artifact):
        engine = InferenceEngine.from_artifact(node_artifact)
        with ServeServer(engine, max_batch=4, workers=2) as server:
            pendings = [
                server.submit_async(node_ids=np.array([i, i + 1]))
                for i in range(12)
            ]
            # Answered on the submitting thread: resolved on return.
            assert all(p.resolved_at is not None for p in pendings)
            results = [p.result(timeout=0) for p in pendings]
        registry = engine.metrics.registry
        assert registry.counter("serve.batches").value == 0.0
        assert registry.counter("serve.requests").value == 12.0
        for i, result in enumerate(results):
            assert np.array_equal(result, engine.predict(node_ids=[i, i + 1]))

    def test_mixed_traffic_batches_only_foreign_requests(self, node_artifact, foreign):
        engine = InferenceEngine.from_artifact(node_artifact)
        with ServeServer(engine, max_batch=64) as server:
            pendings = [
                server.submit_async(
                    node_ids=np.array([i]), graph=foreign if i % 2 else None
                )
                for i in range(8)
            ]
            for pending in pendings:
                pending.result(timeout=10.0)
        batch_sizes = engine.metrics.registry.histogram("serve.batch_size")
        assert batch_sizes.total == 4.0  # the four foreign requests
        assert engine.metrics.registry.counter("serve.requests").value == 8.0

    def test_counters_exact_under_concurrent_inline_and_queued_traffic(
        self, node_artifact, foreign
    ):
        """Caller threads (memo answers) and workers (forwards) update
        the same counters; a lost read-modify-write would show here."""
        engine = InferenceEngine.from_artifact(node_artifact)
        clients, per_client = 6, 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServeServer(engine, max_batch=8, workers=3) as server:
                def client():
                    for i in range(per_client):
                        server.submit(
                            node_ids=np.array([i % 10]),
                            graph=foreign if i % 4 == 0 else None,
                            timeout=30.0,
                        )

                threads = [threading.Thread(target=client) for __ in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        registry = engine.metrics.registry
        total = clients * per_client
        assert registry.counter("serve.requests").value == total
        assert registry.histogram("serve.latency_s").count == total
        assert len(engine.metrics.latencies) == total
