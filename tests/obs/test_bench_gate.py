"""Bench regression gate: direction inference, classification, rendering."""

import json
from pathlib import Path

import pytest

from repro.obs.bench_gate import (
    compare_bench,
    is_seconds,
    is_tail_percentile,
    is_wall_clock,
    load_bench,
    metric_direction,
    render_bench_diff,
    scalar_metrics,
)


def _payload(gauges: dict, spans=(), scale="smoke") -> dict:
    return {
        "bench": "demo",
        "version": 1,
        "scale": scale,
        "spans": list(spans),
        "metrics": {
            "gauges": {k: {"value": v} for k, v in gauges.items()},
            "counters": {},
            "histograms": {},
        },
        "extra": {},
    }


class TestMetricDirection:
    @pytest.mark.parametrize(
        "name",
        ["search_time_s.sane.cora", "train_loss", "latency_ms", "peak.memory"],
    )
    def test_lower_is_better(self, name):
        assert metric_direction(name) == -1

    @pytest.mark.parametrize(
        "name",
        ["speedup.cora", "final_score.sane.ppi", "val_accuracy", "micro_f1"],
    )
    def test_higher_is_better(self, name):
        assert metric_direction(name) == 1

    def test_unknown_token_never_gates(self):
        assert metric_direction("candidates.total") == 0
        deltas = compare_bench(
            _payload({"candidates.total": 10.0}),
            _payload({"candidates.total": 2.0}),
        )
        assert deltas[0].status == "info"
        assert not deltas[0].gates


class TestCompareBench:
    @pytest.mark.parametrize("name", ["serve.errors", "serve.deadline_exceeded"])
    def test_failure_count_against_zero_baseline_gates(self, name):
        # Failure counters are counts, not timings: lower is better on
        # the strict tolerance, so any failure against 0 gates.
        assert metric_direction(name) == -1
        assert not is_wall_clock(name)
        base, current = _payload({}), _payload({})
        base["metrics"]["counters"] = {name: {"value": 0.0}}
        current["metrics"]["counters"] = {name: {"value": 7.0}}
        [delta] = compare_bench(base, current)
        assert delta.status == "regression"
        assert delta.gates
        [clean] = compare_bench(base, base)
        assert clean.status == "ok"

    def test_within_tolerance_is_ok(self):
        deltas = compare_bench(
            _payload({"final_score.cora": 0.80}),
            _payload({"final_score.cora": 0.78}),  # -2.5% < 10%
        )
        assert deltas[0].status == "ok"

    def test_degraded_score_beyond_tolerance_gates(self):
        deltas = compare_bench(
            _payload({"final_score.cora": 0.80}),
            _payload({"final_score.cora": 0.60}),  # -25%
        )
        assert deltas[0].status == "regression"
        assert deltas[0].gates

    def test_improvement_is_flagged_but_never_gates(self):
        deltas = compare_bench(
            _payload({"search_time_s.cora": 10.0}),
            _payload({"search_time_s.cora": 4.0}),
        )
        assert deltas[0].status == "improved"
        assert not deltas[0].gates

    def test_time_metrics_use_the_looser_tolerance(self):
        base = _payload({"search_time_s.cora": 10.0})
        ok = compare_bench(base, _payload({"search_time_s.cora": 13.0}))  # +30%
        assert ok[0].status == "ok"
        bad = compare_bench(base, _payload({"search_time_s.cora": 16.0}))  # +60%
        assert bad[0].status == "regression"

    def test_speedup_ratio_uses_the_wall_clock_tolerance(self):
        # A speedup gauge is higher-is-better but is a ratio of two
        # wall-clock measurements — a 20% run-to-run wobble must not gate.
        assert is_wall_clock("speedup.pubmed")
        base = _payload({"speedup.pubmed": 2.5})
        ok = compare_bench(base, _payload({"speedup.pubmed": 2.0}))  # -20%
        assert ok[0].status == "ok"
        assert not ok[0].gates
        bad = compare_bench(base, _payload({"speedup.pubmed": 1.0}))  # -60%
        assert bad[0].status == "regression"

    def test_missing_metric_gates_and_new_metric_does_not(self):
        deltas = compare_bench(
            _payload({"final_score.a": 0.5}),
            _payload({"final_score.b": 0.5}),
        )
        by_name = {d.name: d for d in deltas}
        assert by_name["final_score.a"].status == "missing"
        assert by_name["final_score.a"].gates
        assert by_name["final_score.b"].status == "new"
        assert not by_name["final_score.b"].gates

    def test_self_compare_is_entirely_ok(self):
        payload = _payload({"final_score.cora": 0.8, "search_time_s.cora": 2.0})
        deltas = compare_bench(payload, payload)
        assert all(d.status == "ok" for d in deltas)

    def test_sub_floor_duration_jitter_never_gates(self):
        # A 30 µs tail doubling is timer noise, not a regression: with
        # both sides under the floor the relative tolerance is moot.
        base = _payload({"serve.stage.resolve.p50_s": 3.3e-05})
        noisy = _payload({"serve.stage.resolve.p50_s": 6.1e-05})  # +85%
        deltas = compare_bench(base, noisy, abs_floor_s=1e-3)
        assert deltas[0].status == "ok"
        assert not deltas[0].gates
        # The same delta without a floor gates — the floor is the fix.
        assert compare_bench(base, noisy)[0].status == "regression"

    def test_sub_floor_improvement_is_noise_too(self):
        base = _payload({"serve.stage.slice.p99_s": 6.0e-05})
        fast = _payload({"serve.stage.slice.p99_s": 1.0e-05})
        deltas = compare_bench(base, fast, abs_floor_s=1e-3)
        assert deltas[0].status == "ok"

    def test_climbing_past_the_floor_still_gates(self):
        # 33 µs -> 5 ms is a real regression; only *both*-below-floor
        # deltas are forgiven.
        base = _payload({"serve.stage.resolve.p50_s": 3.3e-05})
        slow = _payload({"serve.stage.resolve.p50_s": 5.0e-03})
        deltas = compare_bench(base, slow, abs_floor_s=1e-3)
        assert deltas[0].status == "regression"
        assert deltas[0].gates

    def test_floor_only_touches_seconds_metrics(self):
        # A score of 0.0008 is not a duration: the floor must not
        # forgive a 50% accuracy collapse just because it is small.
        assert not is_seconds("final_score.cora")
        assert not is_seconds("kernel.index_add.bytes_moved")
        assert is_seconds("serve.stage.forward.p99_s")
        assert is_seconds("search_time_s.sane.cora")
        base = _payload({"final_score.cora": 8e-04})
        bad = _payload({"final_score.cora": 4e-04})
        deltas = compare_bench(base, bad, abs_floor_s=1e-3)
        assert deltas[0].status == "regression"

    def test_tail_percentiles_report_noisy_instead_of_gating(self):
        # A p99 over a few hundred samples is max-like: one co-tenant
        # scheduler burst moves it 4x while the median sits still. It
        # must not hard-gate by default — but the move stays visible.
        assert is_tail_percentile("serve.c16.p99_latency_s")
        assert is_tail_percentile("serve.latency.p99_s")
        assert not is_tail_percentile("serve.c16.p50_latency_s")
        base = _payload({"serve.latency.p99_s": 2.2e-03})
        burst = _payload({"serve.latency.p99_s": 5.8e-03})  # +164%
        deltas = compare_bench(base, burst)
        assert deltas[0].status == "noisy"
        assert not deltas[0].gates

    def test_tail_within_tolerance_is_plain_ok(self):
        base = _payload({"serve.latency.p99_s": 2.2e-03})
        near = _payload({"serve.latency.p99_s": 2.4e-03})  # +9%
        assert compare_bench(base, near)[0].status == "ok"

    def test_vanished_tail_metric_still_gates(self):
        # "noisy" forgives magnitude, not absence: a payload that stops
        # emitting its p99 gauge is a shape regression.
        deltas = compare_bench(
            _payload({"serve.latency.p99_s": 2.2e-03}), _payload({})
        )
        assert deltas[0].status == "missing"
        assert deltas[0].gates

    def test_median_regressions_still_hard_gate(self):
        base = _payload({"serve.c1.p50_latency_s": 2.0e-03})
        slow = _payload({"serve.c1.p50_latency_s": 4.0e-03})  # +100%
        deltas = compare_bench(base, slow, abs_floor_s=1e-3)
        assert deltas[0].status == "regression"
        assert deltas[0].gates



class TestLoadersAndRender:
    def test_load_bench_rejects_non_bench_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ValueError):
            load_bench(path)

    def test_scalar_metrics_flatten_all_kinds(self):
        payload = _payload({"g": 1.0})
        payload["metrics"]["counters"]["c"] = {"value": 2.0}
        payload["metrics"]["histograms"]["h"] = {"mean": 3.0, "count": 4}
        assert scalar_metrics(payload) == {"g": 1.0, "c": 2.0, "h": 3.0}

    def test_render_verdict_and_notes(self):
        deltas = compare_bench(
            _payload({"final_score.cora": 0.8}),
            _payload({"final_score.cora": 0.6}),
        )
        text = render_bench_diff("BENCH_demo.json", deltas, notes=["scale mismatch"])
        assert "== Bench BENCH_demo.json: REGRESSION (1 gated metric(s)) ==" in text
        assert "note: scale mismatch" in text
        assert "regression" in text

    def test_render_ok_verdict(self):
        payload = _payload({"final_score.cora": 0.8})
        text = render_bench_diff("b", compare_bench(payload, payload))
        assert "== Bench b: ok (0 gated metric(s)) ==" in text


class TestWriteBench:
    """One writer for BENCH payloads; its bytes are pinned."""

    SPANS = [
        {"id": 0, "parent": None, "name": "bench", "dur": 2.5},
        {"id": 1, "parent": 0, "name": "epoch", "dur": 1.0},
        {"id": 2, "parent": 0, "name": "epoch", "dur": 1.25},
        {"id": 3, "parent": 1, "name": "forward", "dur": 0.5},
    ]
    EXTRA = {"levels": [{"concurrency": 1, "rps": 301.5}], "note": "writer"}
    PINNED = Path(__file__).parent / "fixtures" / "bench-writer.json"

    @staticmethod
    def _registry():
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("serve.requests").inc(24)
        registry.gauge("search_time_s").set(2.5)
        registry.histogram("serve.latency_s").observe(0.001)
        registry.histogram("serve.latency_s").observe(0.003)
        return registry

    @pytest.fixture(autouse=True)
    def _bench_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SCALE", "smoke")

    def test_payload_bytes_are_pinned(self, tmp_path):
        from repro.obs.bench_gate import write_bench

        path = write_bench("writer", self.SPANS, self._registry(), self.EXTRA)
        assert path == tmp_path / "BENCH_writer.json"
        assert path.read_bytes() == self.PINNED.read_bytes()
        assert load_bench(path)["bench"] == "writer"

    def test_serve_bench_writes_the_same_bytes(self):
        from repro.serve import emit_serve_bench

        path = emit_serve_bench(
            "writer", [], spans=self.SPANS, registry=self._registry(),
            extra=self.EXTRA,
        )
        assert path.read_bytes() == self.PINNED.read_bytes()

    def test_benchmark_harness_writes_the_same_bytes(self):
        from benchmarks.common import emit_metrics

        path = emit_metrics(
            "writer", spans=self.SPANS, metrics=self._registry(),
            extra=self.EXTRA,
        )
        assert path.read_bytes() == self.PINNED.read_bytes()
