"""Reservoir sampling and serve metrics: exactness below cap, bounds above."""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.report import nearest_rank
from repro.serve import Reservoir
from repro.serve.metrics import DEFAULT_RESERVOIR_CAPACITY, ServeMetrics


class TestReservoir:
    def test_below_capacity_is_exact_and_ordered(self):
        reservoir = Reservoir(capacity=10)
        values = [0.5, 0.1, 0.9, 0.3]
        for value in values:
            reservoir.add(value)
        assert reservoir.values() == values
        assert len(reservoir) == 4
        assert bool(reservoir)

    def test_append_alias_matches_list_protocol(self):
        reservoir = Reservoir(capacity=4)
        reservoir.append(1.0)
        reservoir.append(2.0)
        assert list(reservoir) == [1.0, 2.0]

    def test_size_is_bounded_above_capacity(self):
        reservoir = Reservoir(capacity=16, seed=0)
        for index in range(1000):
            reservoir.add(float(index))
        assert len(reservoir) == 1000  # count keeps the true total
        assert len(reservoir.values()) == 16

    def test_same_seed_same_stream_same_retained_set(self):
        kept = []
        for __ in range(2):
            reservoir = Reservoir(capacity=8, seed=3)
            for index in range(500):
                reservoir.add(float(index))
            kept.append(reservoir.values())
        assert kept[0] == kept[1]

    def test_different_seeds_diverge(self):
        sets = []
        for seed in (0, 1):
            reservoir = Reservoir(capacity=8, seed=seed)
            for index in range(500):
                reservoir.add(float(index))
            sets.append(reservoir.values())
        assert sets[0] != sets[1]

    def test_percentile_matches_exact_below_capacity(self):
        reservoir = Reservoir(capacity=100)
        samples = [float(i) for i in range(50)]
        for value in samples:
            reservoir.add(value)
        for q in (50.0, 95.0, 99.0):
            assert reservoir.percentile(q) == nearest_rank(samples, q)

    def test_percentile_with_tag_returns_exemplar(self):
        reservoir = Reservoir(capacity=10)
        reservoir.add(0.1, tag="t-0")
        reservoir.add(0.9, tag="t-1")
        reservoir.add(0.5, tag="t-2")
        value, tag = reservoir.percentile_with_tag(99.0)
        assert value == 0.9 and tag == "t-1"
        value, tag = reservoir.percentile_with_tag(50.0)
        assert value == 0.5 and tag == "t-2"

    def test_empty_reservoir(self):
        reservoir = Reservoir(capacity=4)
        assert not reservoir
        with pytest.raises(ValueError, match="empty"):
            reservoir.percentile(99.0)
        with pytest.raises(ValueError, match="empty"):
            reservoir.percentile_with_tag(99.0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Reservoir(capacity=0)

    def test_default_capacity_covers_full_bench(self):
        # The throughput bench observes 5 levels x 2048 requests; the
        # default cap must keep the bench path exact (and so bit-stable).
        assert DEFAULT_RESERVOIR_CAPACITY >= 5 * 2048


class TestServeMetrics:
    def test_counters_preregistered_at_zero(self):
        metrics = ServeMetrics()
        snapshot = metrics.registry.snapshot()
        for name in ("serve.requests", "serve.errors",
                     "serve.deadline_exceeded"):
            assert snapshot["counters"][name]["value"] == 0.0

    def test_stage_gauges_and_exemplars_after_finalize(self):
        metrics = ServeMetrics()
        for index in range(10):
            metrics.observe_latency(0.01 * (index + 1), trace_id=f"t-{index}")
            metrics.observe_stage(
                "forward", 0.002 * (index + 1), trace_id=f"t-{index}"
            )
        summary = metrics.finalize(wall_s=1.0)
        assert summary["requests"] == 10
        gauges = metrics.registry.snapshot()["gauges"]
        assert gauges["serve.stage.forward.p50_s"]["value"] == pytest.approx(
            0.010
        )
        assert gauges["serve.stage.forward.p99_s"]["value"] == pytest.approx(
            0.020
        )
        # The p99 gauge carries the trace id of the sample behind it.
        assert metrics.exemplars["serve.stage.forward.p99_s"] == "t-9"
        assert metrics.exemplars["serve.latency.p99_s"] == "t-9"

    def test_slo_math(self):
        metrics = ServeMetrics(slo_target=0.9)
        metrics.observe_requests(10)
        for __ in range(10):
            metrics.observe_latency(0.01)
        metrics.observe_error()
        slo = metrics.slo_summary()
        assert slo["requests"] == 10.0
        assert slo["errors"] == 1.0
        assert slo["availability"] == pytest.approx(0.9)
        # 1 bad request, budget (1 - 0.9) * 10 = 1 request: fully spent.
        assert slo["budget_consumed"] == pytest.approx(1.0)
        gauges = metrics.registry.snapshot()["gauges"]
        assert gauges["serve.slo.availability"]["value"] == pytest.approx(0.9)

    def test_slo_with_no_traffic(self):
        slo = ServeMetrics().slo_summary()
        assert slo["requests"] == 0.0
        assert slo["availability"] == 1.0
        assert slo["budget_consumed"] == 0.0

    def test_deadline_misses_count_against_budget(self):
        metrics = ServeMetrics(slo_target=0.5)
        metrics.observe_requests(4)
        for __ in range(4):
            metrics.observe_latency(0.01)
        metrics.observe_deadline_exceeded()
        slo = metrics.slo_summary()
        assert slo["deadline_exceeded"] == 1.0
        assert slo["availability"] == pytest.approx(0.75)
        assert slo["budget_consumed"] == pytest.approx(0.5)
