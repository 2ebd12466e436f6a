"""The ``repro report serve`` dashboard over a synthetic serve trace."""

import types

import pytest

from repro.obs import JsonlSink, MetricsRegistry, Tracer
from repro.obs.context import PATH_STAGES, REQUEST_STAGES, RequestTracer
from repro.obs.serve_report import (
    _render_queue_timeline,
    load_request_trees,
    render_serve_report,
)
from repro.obs.sinks import read_records


class FakeClock:
    def __init__(self, step: float = 0.5):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def write_trace(path, requests=3, with_metrics=False, memo=0):
    """Record ``requests`` complete forward-path request trees, then
    ``memo`` complete memo-path ones, with a fake clock."""
    tracer = Tracer(clock=FakeClock())
    factory = RequestTracer(tracer)
    with JsonlSink(path, meta={"label": "serve:test"}) as sink:
        tracer.add_sink(sink)
        for index in range(requests + memo):
            path_name = "forward" if index < requests else "memo"
            trace = factory.start_request(path=path_name)
            for stage in PATH_STAGES[path_name]:
                trace.stage(stage).finish()
            trace.finish(status="ok")
        tracer.remove_sink(sink)
        if with_metrics:
            registry = MetricsRegistry()
            registry.counter("serve.requests").inc(requests)
            registry.counter("serve.errors").inc(1)
            registry.counter("serve.deadline_exceeded")
            registry.gauge("serve.slo.availability").set(0.75)
            sink.write_metrics(registry)
    return path


class TestLoadRequestTrees:
    def test_trees_reassemble_with_all_stages(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", requests=3)
        trees = load_request_trees(read_records(path, kind="trace"))
        assert len(trees) == 3
        for tree in trees:
            assert {span["name"] for span in tree.stages} == set(REQUEST_STAGES)
            for span in tree.stages:
                assert span["parent"] == tree.root["id"]

    def test_trace_ids_in_order(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", requests=2)
        trees = load_request_trees(read_records(path, kind="trace"))
        assert [tree.trace_id for tree in trees] == [
            "t-00000000", "t-00000001",
        ]


def queued(start: float, end: float):
    """A request tree stand-in holding one queue_wait stage."""
    return types.SimpleNamespace(
        stages=[{"name": "queue_wait", "start": start, "end": end}]
    )


class TestQueueTimeline:
    def test_waiting_request_holds_its_depth_between_events(self):
        # One request waits the whole window and a second joins for its
        # last 5%: no bucket of the window has an empty queue.
        lines = _render_queue_timeline([queued(0.0, 1.0), queued(0.95, 1.0)])
        assert lines[1] == "waiting " + "▄" * 30 + "██" + " (peak 2)"

    def test_gap_between_requests_reads_empty(self):
        lines = _render_queue_timeline([queued(0.0, 0.25), queued(0.75, 1.0)])
        cells = lines[1].split()[1]
        assert cells == "█" * 9 + "▁" * 15 + "█" * 8
        assert lines[1].endswith("(peak 1)")


class TestRenderServeReport:
    def test_sections_present(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl")
        text = render_serve_report(path, top=2)
        assert "Per-stage latency breakdown" in text
        assert "Queue-depth timeline" in text
        assert "Slowest traces (top 2)" in text
        for stage in REQUEST_STAGES:
            assert stage in text
        assert "requests: 3 (3 with every stage of their path; 3 forward, 0 memo)" in text

    def test_trees_complete_against_their_own_path(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", requests=2, memo=3)
        trees = load_request_trees(read_records(path, kind="trace"))
        assert [tree.path for tree in trees] == ["forward"] * 2 + ["memo"] * 3
        assert all(tree.complete() for tree in trees)
        text = render_serve_report(path)
        assert "requests: 5 (5 with every stage of their path; 2 forward, 3 memo)" in text

    def test_memo_tree_missing_resolve_is_incomplete(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            tracer.add_sink(sink)
            trace = RequestTracer(tracer).start_request(path="memo")
            trace.stage("slice").finish()
            trace.finish(status="ok")
            tracer.remove_sink(sink)
        (tree,) = load_request_trees(read_records(path, kind="trace"))
        assert not tree.complete()
        assert "requests: 1 (0 with every stage" in render_serve_report(path)

    def test_stage_sums_consistent_with_latency(self, tmp_path):
        # Fake clock: every span is exactly one step long; the root
        # opens first and closes last, so stage coverage is < 100% but
        # every per-trace coverage line parses and is positive.
        path = write_trace(tmp_path / "trace.jsonl")
        trees = load_request_trees(read_records(path, kind="trace"))
        for tree in trees:
            assert 0.0 < tree.stage_sum() <= tree.duration

    def test_deterministic_output(self, tmp_path):
        a = render_serve_report(write_trace(tmp_path / "a.jsonl"))
        b = render_serve_report(write_trace(tmp_path / "b.jsonl"))
        assert a.replace("a.jsonl", "") == b.replace("b.jsonl", "")

    def test_slo_section_from_metrics_record(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", with_metrics=True)
        text = render_serve_report(path)
        assert "== SLO ==" in text
        assert "requests 3, errors 1, deadline_exceeded 0" in text
        assert "availability 0.750000" in text

    def test_no_slo_section_without_metrics(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl")
        assert "== SLO ==" not in render_serve_report(path)

    def test_rejects_trace_without_requests(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        with JsonlSink(path):
            pass
        with pytest.raises(ValueError, match="no serve.request spans"):
            render_serve_report(path)
