"""Tape health: anomaly provenance, gradient gauges, zero-overhead."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, ops
from repro.autograd.tensor import get_tape_hook
from repro.core.search import SaneSearcher, SearchConfig
from repro.core.search_space import SearchSpace
from repro.graph.datasets import transductive_split
from repro.graph.generators import citation_graph
from repro.obs import EventRecorder
from repro.obs import events as events_module
from repro.obs.health import (
    HealthMonitor,
    NumericsAnomaly,
    check_numerics,
    enabled,
    get_monitor,
)
from repro.obs.spans import get_tracer, op_scope

SMALL_SPACE = SearchSpace(
    num_layers=2, node_ops=("gcn", "sage-mean"), layer_ops=("concat", "max")
)
FAST = SearchConfig(epochs=3, hidden_dim=8, dropout=0.1)


def _module_tiny_graph():
    """Module-scope twin of the ``tiny_graph`` fixture (hypothesis tests
    cannot use function-scoped fixtures)."""
    generator = np.random.default_rng(7)
    graph = citation_graph(
        num_nodes=120,
        num_classes=4,
        num_features=24,
        rng=generator,
        avg_degree=4.0,
        homophily=0.85,
        feature_signal=0.6,
        words_per_node=6,
        name="tiny",
    )
    return transductive_split(graph, generator)


GRAPH = _module_tiny_graph()


def _current_epoch():
    epoch = get_tracer().position()[1]
    return epoch[1] if epoch is not None else None


def _drain_spans():
    """Close spans a raised anomaly left open (the manual search span)."""
    tracer = get_tracer()
    if tracer._stack:
        tracer._stack[0].finish()


def _poison_forward(candidate, target_epoch):
    """Make ``candidate`` emit a NaN forward output at ``target_epoch``."""
    original = candidate.forward

    def poisoned(h, cache, ctx):
        out = original(h, cache, ctx)
        if _current_epoch() == target_epoch:
            out = out * float("nan")
        return out

    candidate.forward = poisoned


def _poison_backward(candidate, target_epoch):
    """Make ``candidate``'s VJP emit NaN grads at ``target_epoch``
    (forward output stays clean)."""
    original = candidate.forward

    def poisoned(h, cache, ctx):
        out = original(h, cache, ctx)
        if _current_epoch() != target_epoch:
            return out

        def poison_grad(grad):
            return (np.full_like(np.asarray(grad), np.nan),)

        poison_grad.__qualname__ = "poison_grad"
        return Tensor._from_op(out.data, (out,), poison_grad)

    candidate.forward = poisoned


def _poison_mixture(supernet, target_call, target_epoch):
    """Feed NaN weights to the ``target_call``-th mixture of every
    forward at ``target_epoch``. ``embed`` mixes node layers 0..K-1
    (Eq. 3), then skips 0..K-1 (Eq. 4), then the layer aggregators
    (Eq. 5), so call ``k < K`` is ``node/k`` and call ``2K`` is
    ``layer/0``. The NaN is born in the ``weighted_sum`` tape node."""
    embed, mixture = supernet.embed, supernet._mixture
    calls = []

    def counted_embed(features, cache):
        calls.clear()
        return embed(features, cache)

    def poisoned_mixture(alpha_row, num_ops):
        weights = mixture(alpha_row, num_ops)
        calls.append(num_ops)
        if len(calls) - 1 == target_call and _current_epoch() == target_epoch:
            return Tensor(np.full(num_ops, np.nan))
        return weights

    supernet.embed = counted_embed
    supernet._mixture = poisoned_mixture


injection_points = st.tuples(
    st.integers(0, SMALL_SPACE.num_layers - 1),  # layer
    st.integers(0, len(SMALL_SPACE.node_ops) - 1),  # op index
    st.integers(0, FAST.epochs - 1),  # epoch
)


class TestInjectedNanIsCaught:
    @given(injection_points)
    @settings(max_examples=6, deadline=None)
    def test_forward_nan_names_op_layer_and_epoch(self, point):
        layer, op_index, target_epoch = point
        searcher = SaneSearcher(SMALL_SPACE, GRAPH, FAST, seed=3)
        _poison_forward(
            searcher.supernet.node_candidates[layer][op_index], target_epoch
        )
        try:
            with check_numerics(mode="raise"):
                with pytest.raises(NumericsAnomaly) as excinfo:
                    searcher.search()
        finally:
            _drain_spans()
        anomaly = excinfo.value
        assert anomaly.kind == "NaN"
        assert anomaly.phase == "forward"
        assert anomaly.op == "mul"  # the poisoning `out * nan` op
        assert anomaly.edge == f"node/{layer}"
        assert anomaly.layer == layer
        assert anomaly.epoch == target_epoch
        assert "epoch" in anomaly.span_path
        # The exception message names the site without a debugger.
        assert f"edge='node/{layer}'" in str(anomaly)

    @given(injection_points)
    @settings(max_examples=6, deadline=None)
    def test_backward_nan_names_op_layer_and_epoch(self, point):
        layer, op_index, target_epoch = point
        searcher = SaneSearcher(SMALL_SPACE, GRAPH, FAST, seed=3)
        _poison_backward(
            searcher.supernet.node_candidates[layer][op_index], target_epoch
        )
        try:
            with check_numerics(mode="raise"):
                with pytest.raises(NumericsAnomaly) as excinfo:
                    searcher.search()
        finally:
            _drain_spans()
        anomaly = excinfo.value
        assert anomaly.kind == "NaN"
        assert anomaly.phase == "backward"
        assert anomaly.op == "poison_grad"
        assert anomaly.edge == f"node/{layer}"
        assert anomaly.layer == layer
        assert anomaly.epoch == target_epoch


    @pytest.mark.parametrize(
        "edge, layer, call",
        [
            ("node/0", 0, 0),
            ("node/1", 1, 1),
            ("layer/0", None, 2 * SMALL_SPACE.num_layers),
        ],
    )
    def test_mixture_nan_names_its_edge(self, edge, layer, call):
        # The Eq. 3/Eq. 5 mixtures are tape nodes too: each runs inside
        # its edge's op_scope, so an alpha-minted NaN names the edge.
        searcher = SaneSearcher(SMALL_SPACE, GRAPH, FAST, seed=3)
        _poison_mixture(searcher.supernet, call, target_epoch=1)
        try:
            with check_numerics(mode="raise"):
                with pytest.raises(NumericsAnomaly) as excinfo:
                    searcher.search()
        finally:
            _drain_spans()
        anomaly = excinfo.value
        assert anomaly.phase == "forward"
        assert anomaly.op == "weighted_sum"
        assert anomaly.edge == edge
        assert anomaly.layer == layer
        assert anomaly.epoch == 1


class TestZeroOverhead:
    def test_monitored_search_is_bit_identical(self, tiny_graph):
        plain = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=7)
        plain_result = plain.search()

        monitored = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=7)
        with check_numerics(mode="warn") as monitor:
            monitored_result = monitored.search()

        assert monitored_result.architecture == plain_result.architecture
        assert np.array_equal(
            monitored.supernet.alpha_node.data, plain.supernet.alpha_node.data
        )
        assert np.array_equal(
            monitored.supernet.alpha_skip.data, plain.supernet.alpha_skip.data
        )
        assert [s for _, s in monitored_result.history] == [
            s for _, s in plain_result.history
        ]
        # ... while the monitor really did check the tape.
        assert monitor.checked_entries > 0
        assert monitor.anomalies == []
        assert len(monitor.epoch_reports) == FAST.epochs


class TestMonitorLifecycle:
    def test_install_uninstall_restores_tape_hook(self):
        assert get_tape_hook() is None
        monitor = HealthMonitor(mode="warn").install()
        assert enabled()
        assert get_monitor() is monitor
        assert get_tape_hook() is not None
        monitor.uninstall()
        assert not enabled()
        assert get_tape_hook() is None

    def test_second_monitor_conflicts(self):
        first = HealthMonitor(mode="warn").install()
        try:
            with pytest.raises(RuntimeError, match="already installed"):
                HealthMonitor(mode="warn").install()
        finally:
            first.uninstall()
        assert get_tape_hook() is None

    def test_check_numerics_uninstalls_on_error(self):
        with pytest.raises(ValueError):
            with check_numerics(mode="warn"):
                raise ValueError("boom")
        assert get_monitor() is None
        assert get_tape_hook() is None

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            HealthMonitor(mode="explode")


class TestOpSpanProvenance:
    def test_anomaly_names_the_innermost_op_span(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with check_numerics(mode="warn") as monitor:
            with op_scope(edge="layer/0", layer=None, op="concat"):
                with op_scope(edge="node/1", layer=1, op="gat"):
                    _ = x * float("nan")
                _ = x * float("inf")
            _ = x * float("nan")
        sites = [(a.kind, a.edge, a.layer, a.span_path) for a in monitor.anomalies]
        assert sites == [
            ("NaN", "node/1", 1, "op/op"),
            ("Inf", "layer/0", None, "op"),
            ("NaN", None, None, ""),
        ]


class TestClassification:
    def test_overflow_threshold(self):
        with check_numerics(mode="warn", overflow=10.0) as monitor:
            x = Tensor(np.full(3, 100.0), requires_grad=True)
            _ = x * 1.0
        kinds = {a.kind for a in monitor.anomalies}
        assert kinds == {"overflow"}

    def test_inf_and_nan_distinguished(self):
        with check_numerics(mode="warn") as monitor:
            x = Tensor(np.ones(3), requires_grad=True)
            _ = x * float("inf")
            _ = x * float("nan")
        kinds = [a.kind for a in monitor.anomalies]
        assert "Inf" in kinds
        assert "NaN" in kinds

    def test_integer_tensors_are_skipped(self):
        monitor = HealthMonitor(mode="warn")
        assert monitor._classify(np.array([1, 2, 3])) is None
        assert monitor._classify(np.array([1.0, np.nan])) == "NaN"

    def test_healthy_ops_record_nothing(self):
        with check_numerics(mode="warn") as monitor:
            x = Tensor(np.ones((3, 3)), requires_grad=True)
            ops.sum(x * x).backward()
        assert monitor.anomalies == []
        assert monitor.checked_entries > 0


class TestWarnModeEvents:
    def test_anomalies_are_emitted_as_events(self):
        recorder = EventRecorder(label="t")
        events_module.install(recorder)
        try:
            with check_numerics(mode="warn") as monitor:
                x = Tensor(np.ones(2), requires_grad=True)
                _ = x * float("nan")
        finally:
            events_module.uninstall()
        assert len(monitor.anomalies) == 1
        emitted = [r for r in recorder.records if r["event"] == "numerics_anomaly"]
        assert len(emitted) == 1
        assert emitted[0]["data"]["kind"] == "NaN"
        assert emitted[0]["data"]["op"] == "mul"

    def test_observe_epoch_emits_grad_health_and_dead_op(self):
        recorder = EventRecorder(label="t")
        events_module.install(recorder)
        try:
            monitor = HealthMonitor(mode="warn")
            monitor.observe_epoch(
                4,
                arch_grad_norm=1.0,
                weight_grad_norm=2.0,
                mixtures={"node": np.array([[20.0, 0.0, 0.0]])},
                op_names={"node": ("gcn", "gat", "sage-mean")},
            )
        finally:
            events_module.uninstall()
        kinds = [r["event"] for r in recorder.records]
        assert "grad_health" in kinds
        assert kinds.count("dead_op") == 2  # gat and sage-mean underflow


class FakeParam:
    def __init__(self, data, grad=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None if grad is None else np.asarray(grad, dtype=np.float64)


class TestEpochGauges:
    def test_grad_ratio_and_update_scale(self):
        monitor = HealthMonitor(mode="warn")
        param = FakeParam([3.0, 4.0], grad=[0.6, 0.8])
        report = monitor.observe_epoch(
            0,
            arch_params=[param],
            weight_params=[FakeParam([1.0], grad=[2.0])],
            arch_before=[np.array([3.0, 3.0])],
        )
        assert report["arch_grad_norm"] == pytest.approx(1.0)
        assert report["weight_grad_norm"] == pytest.approx(2.0)
        assert report["grad_ratio"] == pytest.approx(0.5)
        # ||delta|| / ||before|| = 1.0 / sqrt(18)
        assert report["arch_update_scale"] == pytest.approx(1.0 / np.sqrt(18.0))
        assert report["weight_update_scale"] is None  # no before copy

    def test_explicit_grad_norms_override_param_reads(self):
        monitor = HealthMonitor(mode="warn")
        report = monitor.observe_epoch(
            1,
            arch_params=[FakeParam([1.0], grad=[100.0])],
            arch_grad_norm=7.0,
            weight_grad_norm=14.0,
        )
        assert report["arch_grad_norm"] == pytest.approx(7.0)
        assert report["grad_ratio"] == pytest.approx(0.5)

    def test_dead_op_detection_and_rollup(self):
        monitor = HealthMonitor(mode="warn", dead_op_eps=1e-6)
        monitor.observe_epoch(
            2,
            mixtures={"node": np.array([[0.1, 0.2], [30.0, 0.0]])},
            op_names={"node": ("gcn", "gat")},
        )
        dead = monitor.dead_ops()
        assert dead == [
            {
                "edge": "node/1",
                "layer": 1,
                "op": "gat",
                "weight": pytest.approx(np.exp(-30.0) / (1 + np.exp(-30.0))),
                "epoch": 2,
            }
        ]
        summary = monitor.summary()
        assert summary["mode"] == "warn"
        assert summary["epochs_observed"] == 1
        assert len(summary["dead_ops"]) == 1

    def test_near_uniform_mixture_has_no_dead_ops(self):
        monitor = HealthMonitor(mode="warn")
        report = monitor.observe_epoch(
            0, mixtures={"node": np.zeros((2, 3))}, op_names={"node": ("a", "b", "c")}
        )
        assert report["dead_ops"] == []


class TestSearcherIntegration:
    def test_search_feeds_epoch_reports(self, tiny_graph):
        searcher = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=1)
        with check_numerics(mode="warn") as monitor:
            searcher.search()
        assert len(monitor.epoch_reports) == FAST.epochs
        for report in monitor.epoch_reports:
            assert report["arch_grad_norm"] >= 0.0
            assert report["weight_grad_norm"] > 0.0
            assert report["grad_ratio"] is not None
            assert report["weight_update_scale"] is not None
        gc.collect()  # drop the searcher's tape before the next test
