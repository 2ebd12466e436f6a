"""End-to-end profiling: traces from a real (tiny) search, and the
guarantee that profiling never perturbs numerical results."""

import numpy as np

from repro.core.search import SaneSearcher, SearchConfig
from repro.core.search_space import SearchSpace
from repro.obs import ProfileSession, read_records

SMALL_SPACE = SearchSpace(
    num_layers=2, node_ops=("gcn", "sage-mean"), layer_ops=("concat", "max")
)
FAST = SearchConfig(epochs=3, hidden_dim=8, dropout=0.1)


class TestBitIdenticalResults:
    def test_profiled_search_matches_unprofiled(self, tiny_graph, tmp_path):
        plain = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=7)
        plain_result = plain.search()

        profiled = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=7)
        with ProfileSession(
            trace_path=tmp_path / "trace.jsonl", label="test"
        ) as session:
            profiled_result = profiled.search()

        assert profiled_result.architecture == plain_result.architecture
        assert np.array_equal(
            profiled.supernet.alpha_node.data, plain.supernet.alpha_node.data
        )
        assert np.array_equal(
            profiled.supernet.alpha_skip.data, plain.supernet.alpha_skip.data
        )
        for snap_a, snap_b in zip(
            profiled_result.alpha_snapshots, plain_result.alpha_snapshots
        ):
            assert np.array_equal(snap_a["node"], snap_b["node"])
        assert session.duration > 0

    def test_profiling_leaves_no_global_state(self, tiny_graph, tmp_path):
        from repro.autograd.tensor import get_tape_hook
        from repro.obs import get_tracer

        with ProfileSession(trace_path=tmp_path / "t.jsonl"):
            SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=0).search()
        assert get_tape_hook() is None
        assert get_tracer().current is None
        assert get_tracer()._sinks == []


class TestSessionTrace:
    def test_trace_contains_spans_ops_and_metrics(self, tiny_graph, tmp_path):
        path = tmp_path / "trace.jsonl"
        with ProfileSession(trace_path=path, label="search:test") as session:
            SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=0).search()
            session.metrics.gauge("score").set(1.0)

        records = read_records(path, kind="trace")
        assert records[0]["label"] == "search:test"
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"search:test", "search", "epoch", "weight_step"} <= names
        op_stats = [r for r in records if r["type"] == "op_stats"]
        assert op_stats and any(s["name"] == "linear" for s in op_stats[0]["data"])
        metrics = [r for r in records if r["type"] == "metrics"]
        assert metrics[0]["data"]["gauges"]["score"]["value"] == 1.0

    def test_report_renders_all_sections(self, tiny_graph):
        with ProfileSession() as session:  # no trace file needed
            SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=0).search()
            session.metrics.counter("searches").inc()
        report = session.report(top=5)
        assert "== Phase breakdown (spans) ==" in report
        assert "search/epoch" in report
        assert "search/epoch/weight_step/op" in report
        assert "autograd ops (by backward time)" in report
        assert "== Metrics ==" in report

    def test_autograd_disabled_session_has_no_op_stats(self, tiny_graph, tmp_path):
        path = tmp_path / "trace.jsonl"
        with ProfileSession(trace_path=path, autograd=False) as session:
            SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=0).search()
        assert session.op_stats() == []
        records = read_records(path, kind="trace")
        op_stats = [r for r in records if r["type"] == "op_stats"]
        assert op_stats[0]["data"] == []
        assert any(r["type"] == "span" for r in records)
