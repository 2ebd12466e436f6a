"""Load generator and serve-bench payload shape."""

import numpy as np
import pytest

from repro.obs.bench_gate import load_bench, metric_direction, scalar_metrics
from repro.obs.report import nearest_rank
from repro.serve import (
    InferenceEngine,
    ServeServer,
    bench_metrics,
    emit_serve_bench,
    render_load_report,
    run_load,
    sweep_levels,
)


class TestPercentile:
    def test_nearest_rank_picks_elements(self):
        samples = [0.1, 0.2, 0.3, 0.4]
        assert nearest_rank(samples, 50.0) == 0.2
        assert nearest_rank(samples, 99.0) == 0.4
        assert nearest_rank(samples, 100.0) == 0.4

    def test_single_sample(self):
        assert nearest_rank([7.0], 50.0) == 7.0
        assert nearest_rank([7.0], 99.0) == 7.0


class TestSweeps:
    def test_every_scale_has_at_least_three_levels(self):
        for name in ("smoke", "default", "full"):
            assert len(sweep_levels(name)) >= 3

    def test_full_reaches_ten_thousand_clients(self):
        assert sweep_levels("full")[-1] == 10_000

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError, match="unknown scale"):
            sweep_levels("galactic")


class TestRunLoad:
    @pytest.fixture(scope="class")
    def results(self, node_artifact):
        engine = InferenceEngine.from_artifact(node_artifact)
        with ServeServer(engine, max_batch=16) as server:
            return run_load(server, (1, 4), requests_per_level=12, seed=0)

    def test_budget_and_latency_shape(self, results):
        assert [r.concurrency for r in results] == [1, 4]
        for level in results:
            assert level.requests == 12
            assert level.rps > 0.0
            assert 0.0 < level.p50_s <= level.p99_s

    def test_report_renders_every_level(self, results):
        text = render_load_report(results)
        assert "req/s" in text and "p99_ms" in text
        for level in results:
            assert f"{level.rps:.1f}" in text

    def test_bench_gauges_have_gateable_names(self, results):
        snapshot = bench_metrics(results).snapshot()
        gauges = snapshot["gauges"]
        for level in results:
            prefix = f"serve.c{level.concurrency}"
            assert metric_direction(f"{prefix}.rps") == 1
            assert metric_direction(f"{prefix}.p50_latency_s") == -1
            assert gauges[f"{prefix}.rps"]["value"] == level.rps
            assert gauges[f"{prefix}.p99_latency_s"]["value"] == level.p99_s

    def test_emit_serve_bench_payload_loads_in_the_gate(
        self, results, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        path = emit_serve_bench(
            "serve_smoketest", results, extra={"note": "unit"}
        )
        assert path == tmp_path / "BENCH_serve_smoketest.json"
        payload = load_bench(path)
        assert payload["bench"] == "serve_smoketest"
        assert payload["extra"]["note"] == "unit"
        metrics = scalar_metrics(payload)
        assert f"serve.c{results[0].concurrency}.rps" in metrics

    def test_request_sequence_is_seeded(self, node_artifact):
        """Two same-seed sweeps ask for the same ids -> same predictions."""
        engine = InferenceEngine.from_artifact(node_artifact)

        captured: list[list] = []

        class Recording(ServeServer):
            def submit_async(self, node_ids=None, graph=None,
                             deadline_s=None):
                captured[-1].append(np.asarray(node_ids).copy())
                return super().submit_async(
                    node_ids=node_ids, graph=graph, deadline_s=deadline_s
                )

        for __ in range(2):
            captured.append([])
            with Recording(engine, max_batch=8) as server:
                run_load(server, (2,), requests_per_level=6, seed=123)
        first, second = captured
        assert len(first) == len(second) == 6
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
