"""Span aggregation and hotspot-report formatting (deterministic dicts)."""

import pytest

from repro.obs import aggregate_spans, hotspot_report


def span_record(id_, name, parent, start, end, depth=0):
    return {
        "type": "span",
        "id": id_,
        "parent": parent,
        "depth": depth,
        "name": name,
        "kind": "span",
        "start": start,
        "end": end,
        "dur": end - start,
    }


def sample_spans():
    # search [0, 10] -> epoch#1 [1, 4], epoch#2 [4, 9] -> forward [5, 7]
    return [
        span_record(0, "search", None, 0.0, 10.0),
        span_record(1, "epoch", 0, 1.0, 4.0, depth=1),
        span_record(2, "epoch", 0, 4.0, 9.0, depth=1),
        span_record(3, "forward", 2, 5.0, 7.0, depth=2),
    ]


class TestAggregateSpans:
    def test_paths_counts_and_totals(self):
        by_path = {a.path: a for a in aggregate_spans(sample_spans())}
        assert set(by_path) == {"search", "search/epoch", "search/epoch/forward"}
        assert by_path["search"].count == 1
        assert by_path["search/epoch"].count == 2
        assert by_path["search/epoch"].total == pytest.approx(8.0)
        assert by_path["search/epoch"].mean == pytest.approx(4.0)
        assert by_path["search/epoch"].minimum == pytest.approx(3.0)
        assert by_path["search/epoch"].maximum == pytest.approx(5.0)

    def test_self_time_excludes_direct_children(self):
        by_path = {a.path: a for a in aggregate_spans(sample_spans())}
        assert by_path["search"].self_time == pytest.approx(2.0)  # 10 - 8
        assert by_path["search/epoch"].self_time == pytest.approx(6.0)  # 8 - 2
        assert by_path["search/epoch/forward"].self_time == pytest.approx(2.0)

    def test_self_times_sum_to_root_wall_time(self):
        aggregates = aggregate_spans(sample_spans())
        assert sum(a.self_time for a in aggregates) == pytest.approx(10.0)

    def test_sorted_by_cumulative_time_descending(self):
        paths = [a.path for a in aggregate_spans(sample_spans())]
        assert paths == ["search", "search/epoch", "search/epoch/forward"]

    def test_accepts_live_span_objects(self):
        from repro.obs import InMemorySink, Tracer

        tracer = Tracer()
        sink = InMemorySink()
        tracer.add_sink(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        paths = {a.path for a in aggregate_spans(sink.spans)}
        assert paths == {"outer", "outer/inner"}


class TestHotspotReport:
    def test_phase_section_lists_every_path(self):
        text = hotspot_report(sample_spans())
        assert "== Phase breakdown (spans) ==" in text
        for path in ("search", "search/epoch", "search/epoch/forward"):
            assert path in text
        assert "10.0000" in text  # search cum seconds

    def test_op_section_ranked_and_truncated(self):
        op_stats = [
            {"name": f"op{i}", "tape_entries": 1, "backward_calls": 1,
             "backward_time": float(i), "output_bytes": 1024 * i}
            for i in range(5)
        ]
        text = hotspot_report([], op_stats=op_stats, top=3)
        assert "== Top 3 autograd ops (by backward time) ==" in text
        assert "op4" in text and "op2" in text
        assert "op1" not in text and "op0" not in text
        assert "4.0KB" in text  # output_bytes rendered human-readable

    def test_metrics_section(self):
        metrics = {
            "counters": {"epochs": {"value": 3.0}},
            "gauges": {"lr": {"value": 0.01}},
            "histograms": {
                "loss": {"count": 2, "mean": 0.5, "min": 0.25, "max": 0.75},
            },
        }
        text = hotspot_report([], metrics=metrics)
        assert "== Metrics ==" in text
        assert "epochs: 3.0" in text
        assert "loss: count=2 mean=0.5" in text

    def test_empty_inputs_yield_placeholder(self):
        assert hotspot_report([]) == (
            "(empty trace: no spans, op stats, or metrics recorded)"
        )
