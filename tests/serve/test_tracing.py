"""Request tracing through the server: tree integrity under concurrency.

The load-bearing guarantee: N requests submitted from N threads
produce N complete, disjoint span trees — correct parent links, exactly
the stages of the request's path (all six for a queued forward
request, ``slice``/``resolve`` for one answered from the memo on the
caller's thread), no orphans — no matter how threads interleave.
Plus the identity guarantee tracing rests on: recording a trace
changes no prediction bytes.
"""

import threading

import numpy as np
import pytest

from repro.obs import InMemorySink, get_tracer
from repro.obs.context import PATH_STAGES, REQUEST_SPAN
from repro.serve import InferenceEngine, ServeServer

from tests.serve.conftest import (
    collect_trees,
    foreign_graph,
    tree_problems,
)


@pytest.fixture()
def engine(node_artifact):
    return InferenceEngine.from_artifact(node_artifact)


@pytest.fixture(scope="module")
def foreign(node_artifact):
    return foreign_graph(node_artifact)


class TestConcurrentTraceIntegrity:
    def test_n_threads_produce_n_disjoint_complete_trees(self, engine, foreign):
        num_threads = 8
        sink = InMemorySink()
        ids = [np.array([index, index + 1]) for index in range(num_threads)]
        # Odd threads send their own graph (queued, forward path); even
        # threads ask the artifact's graph (memo path, inline).
        graphs = [foreign if index % 2 else None for index in range(num_threads)]
        pendings = [None] * num_threads
        with get_tracer().collect(sink):
            with ServeServer(engine, max_batch=4, workers=2) as server:
                barrier = threading.Barrier(num_threads)

                def client(index):
                    barrier.wait()
                    pendings[index] = server.submit_async(
                        node_ids=ids[index], graph=graphs[index]
                    )
                    pendings[index].result(timeout=30)

                threads = [
                    threading.Thread(target=client, args=(index,))
                    for index in range(num_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()

        trees = collect_trees(sink.spans)
        assert len(trees) == num_threads
        all_ids = [span.span_id for span in sink.spans]
        assert len(all_ids) == len(set(all_ids)), "span ids must be unique"
        # Every tree is complete, and every request resolved inside it.
        assert tree_problems(sink.spans, pendings) == []
        paths = []
        for tree in trees.values():
            root = tree["root"]
            assert root.name == REQUEST_SPAN
            assert root.parent_id is None and root.depth == 0
            assert root.attrs["status"] == "ok"
            paths.append(root.attrs["path"])
        assert sorted(paths) == ["forward"] * 4 + ["memo"] * 4

    def test_stage_windows_sit_inside_the_root(self, engine, foreign):
        for graph in (None, foreign):  # memo path, then forward path
            sink = InMemorySink()
            with get_tracer().collect(sink):
                with ServeServer(engine, max_batch=4) as server:
                    server.submit(node_ids=np.array([0, 1, 2]), graph=graph)
            ((_, tree),) = collect_trees(sink.spans).items()
            root = tree["root"]
            for span in tree["stages"]:
                assert span.t_start >= root.t_start - 1e-9
                assert span.t_end <= root.t_end + 1e-9
            stage_sum = sum(span.duration for span in tree["stages"])
            # enqueue/queue_wait overlap by a hair; everything else is
            # sequential, so the sum stays in the same ballpark as the root.
            assert 0.0 < stage_sum <= 2.0 * root.duration

    def test_error_trees_are_complete_too(self, engine, foreign):
        sink = InMemorySink()
        with get_tracer().collect(sink):
            with ServeServer(engine, max_batch=4) as server:
                pending = server.submit_async(
                    node_ids=np.array([10 ** 9]),  # out of range -> engine error
                    graph=foreign,
                )
                with pytest.raises(IndexError):
                    pending.result(timeout=30)
        ((_, tree),) = collect_trees(sink.spans).items()
        assert tree_problems(sink.spans, [pending]) == []
        assert tree["root"].attrs["status"] == "error"
        assert tree["root"].attrs["path"] == "forward"
        names = {span.name for span in tree["stages"]}
        # the slice never finished; the queue-side stages, the forward
        # and the terminal resolve did.
        assert {"enqueue", "queue_wait", "batch_assemble", "forward",
                "resolve"} <= names
        assert engine.metrics.registry.counter("serve.errors").value == 1.0

    def test_out_of_range_pinned_id_fails_inline(self, engine):
        sink = InMemorySink()
        with get_tracer().collect(sink):
            with ServeServer(engine, max_batch=4) as server:
                pending = server.submit_async(node_ids=np.array([10 ** 9]))
                # Answered on this thread: already failed on return.
                assert pending.resolved_at is not None
                with pytest.raises(IndexError):
                    pending.result(timeout=0)
        ((_, tree),) = collect_trees(sink.spans).items()
        root = tree["root"]
        assert root.attrs["status"] == "error"
        assert root.attrs["error"] == "IndexError"
        assert root.attrs["path"] == "memo"
        assert {span.name for span in tree["stages"]} == set(PATH_STAGES["memo"])
        assert engine.metrics.registry.counter("serve.errors").value == 1.0
        assert engine.metrics.registry.counter("serve.requests").value == 1.0


class TestTracedUntracedIdentity:
    def test_predictions_bit_identical_with_and_without_sink(self, node_artifact):
        ids = np.arange(6)
        outputs = []
        for traced in (False, True):
            engine = InferenceEngine.from_artifact(node_artifact)
            sink = InMemorySink()
            if traced:
                with get_tracer().collect(sink):
                    with ServeServer(engine, max_batch=8) as server:
                        outputs.append(server.submit(node_ids=ids))
            else:
                with ServeServer(engine, max_batch=8) as server:
                    outputs.append(server.submit(node_ids=ids))
        assert np.array_equal(outputs[0], outputs[1])

    def test_direct_predict_records_no_request_spans(self, engine, foreign):
        sink = InMemorySink()
        with get_tracer().collect(sink):
            engine.predict(node_ids=np.arange(3), graph=foreign)
        assert collect_trees(sink.spans) == {}
        assert any(span.name == "serve.forward" for span in sink.spans)


class TestDeadlineAccounting:
    def test_deadline_misses_counted_not_shed(self, engine):
        with ServeServer(engine, max_batch=4) as server:
            value = server.submit(node_ids=np.array([0]), deadline_s=0.0)
        assert value is not None  # the answer still came back
        counters = engine.metrics.registry
        assert counters.counter("serve.deadline_exceeded").value == 1.0
        assert counters.counter("serve.errors").value == 0.0

    def test_generous_deadline_does_not_count(self, engine):
        with ServeServer(engine, max_batch=4) as server:
            server.submit(node_ids=np.array([0]), deadline_s=60.0)
        assert (
            engine.metrics.registry.counter("serve.deadline_exceeded").value
            == 0.0
        )

    def test_slo_summary_in_finalize(self, engine):
        with ServeServer(engine, max_batch=4) as server:
            server.submit(node_ids=np.array([0]), deadline_s=0.0)
            server.submit(node_ids=np.array([1]), deadline_s=60.0)
        summary = engine.metrics.finalize()
        slo = summary["slo"]
        assert slo["deadline_exceeded"] == 1.0
        assert slo["errors"] == 0.0
        assert slo["availability"] == 0.5
        assert "stages" in summary
        # Both requests were answered from the memo.
        assert set(summary["stages"]) == set(PATH_STAGES["memo"])
