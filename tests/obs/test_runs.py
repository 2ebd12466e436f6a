"""The run ledger: ids, the store, and the cross-run trend gate."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, RecordWarning
from repro.obs.runs import (
    RunLedger,
    RunManifest,
    build_manifest,
    canonical_json,
    config_digest,
    derive_run_id,
    env_fingerprint,
    record_run,
)
from repro.obs.runs_report import (
    evaluate_trend,
    metric_series,
    render_run_show,
    render_runs_diff,
    render_runs_list,
    render_trend,
)

ENV = {
    "scale": "smoke", "seed": 0, "workers": 0,
    "git_rev": "abc123abc123", "python": "3.11.0",
}
SEED_HISTORY = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "history" / "seed.jsonl"
)


def _manifest(command="search", config=None, **kwargs):
    kwargs.setdefault("env", dict(ENV))
    kwargs.setdefault("clock", lambda: 1_000_000.0)
    return build_manifest(command, config or {"dataset": "cora"}, **kwargs)


class TestDigestsAndIds:
    def test_config_digest_is_key_order_insensitive(self):
        a = config_digest({"dataset": "cora", "layers": 3})
        b = config_digest({"layers": 3, "dataset": "cora"})
        assert a == b
        assert len(a) == 16

    def test_config_digest_changes_with_content(self):
        assert config_digest({"layers": 3}) != config_digest({"layers": 4})

    def test_run_id_excludes_timings_and_metrics(self):
        # A seeded rerun that produced the same outputs IS the same run,
        # however long it took and whatever clock stamped it.
        fast = _manifest(
            metrics={"search.time_s": 1.0}, duration_s=1.0,
            clock=lambda: 111.0, outputs={"architecture": "gcn"},
        )
        slow = _manifest(
            metrics={"search.time_s": 9.0}, duration_s=9.0,
            clock=lambda: 999.0, outputs={"architecture": "gcn"},
        )
        assert fast.run_id == slow.run_id
        assert fast.config_digest == slow.config_digest

    def test_run_id_covers_command_config_env_outputs(self):
        base = _manifest()
        assert _manifest(command="sweep").run_id != base.run_id
        assert _manifest(config={"dataset": "citeseer"}).run_id != base.run_id
        other_env = dict(ENV, seed=1)
        assert _manifest(env=other_env).run_id != base.run_id
        assert _manifest(outputs={"architecture": "x"}).run_id != base.run_id

    def test_run_id_is_deterministic_and_shaped(self):
        run_id = derive_run_id("search", "ab" * 8, ENV, {"a": 1})
        assert run_id == derive_run_id("search", "ab" * 8, ENV, {"a": 1})
        assert run_id.startswith("r") and len(run_id) == 13

    def test_registry_scalars_flatten_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(3)
        registry.gauge("util").set(0.5)
        registry.histogram("lat").observe(2.0)
        registry.histogram("lat").observe(4.0)
        registry.gauge("unset")  # None value: omitted
        assert registry.scalars() == {
            "jobs": 3.0, "util": 0.5, "lat": 3.0,
        }

    def test_explicit_metrics_override_registry(self):
        registry = MetricsRegistry()
        registry.gauge("x").set(1.0)
        manifest = _manifest(registry=registry, metrics={"x": 2.0, "y": 3.0})
        assert manifest.metrics == {"x": 2.0, "y": 3.0}


class TestLedgerStore:
    def test_append_read_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        first = _manifest(outputs={"n": 1})
        second = _manifest(outputs={"n": 2}, lineage={"producer_run_id": first.run_id})
        assert ledger.append(first) and ledger.append(second)
        loaded = ledger.read()
        assert [m.run_id for m in loaded] == [first.run_id, second.run_id]
        assert loaded[1].lineage == {"producer_run_id": first.run_id}
        assert loaded[0].env == ENV

    def test_corrupt_and_truncated_lines_are_skipped_with_warning(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        good = _manifest()
        ledger.append(good)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json at all\n")
            handle.write(canonical_json({"version": 999, "run_id": "rX"}) + "\n")
        ledger.append(_manifest(command="sweep"))
        # Simulate a torn append: truncate the last line mid-record.
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[:-20] + "\n", encoding="utf-8")
        with pytest.warns(RecordWarning):
            loaded = ledger.read()
        assert [m.run_id for m in loaded] == [good.run_id]

    def test_resolve_by_prefix_index_and_miss(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        manifests = [_manifest(outputs={"n": i}) for i in range(3)]
        for m in manifests:
            ledger.append(m)
        hit = ledger.resolve(manifests[1].run_id[:6])
        assert hit is not None and hit[1] == 1
        assert ledger.resolve("-1")[0].run_id == manifests[2].run_id
        assert ledger.resolve("0")[1] == 0
        assert ledger.resolve("zzzz") is None
        assert ledger.resolve("99") is None

    def test_rerun_shares_id_and_prefix_resolves_to_latest(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(_manifest(clock=lambda: 1.0))
        ledger.append(_manifest(clock=lambda: 2.0))
        manifests = ledger.read()
        assert manifests[0].run_id == manifests[1].run_id
        __, seq = ledger.resolve(manifests[0].run_id)
        assert seq == 1

    def test_gc_keeps_newest_and_drops_corruption(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        for i in range(5):
            ledger.append(_manifest(outputs={"n": i}))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        with pytest.warns(RecordWarning):
            dropped = ledger.gc(keep=2)
        assert dropped == 4
        kept = ledger.read()
        assert [m.outputs["n"] for m in kept] == [3, 4]

    def test_record_run_respects_kill_switch(self, tmp_path, monkeypatch):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        monkeypatch.setenv("REPRO_RUN_LEDGER", "off")
        assert record_run("search", {}, env=dict(ENV), ledger=ledger) is None
        assert ledger.read() == []
        monkeypatch.delenv("REPRO_RUN_LEDGER")
        assert record_run("search", {}, env=dict(ENV), ledger=ledger) is not None
        assert len(ledger.read()) == 1

    def test_append_failure_warns_instead_of_crashing(self, tmp_path):
        ledger = RunLedger(tmp_path)  # a directory: open() fails
        with pytest.warns(RecordWarning):
            assert ledger.append(_manifest()) is False


def _history(tmp_path, values, metric="search.epoch_ms", command="search"):
    """Write a ledger whose manifests carry one metric series."""
    path = tmp_path / "seed.jsonl"
    ledger = RunLedger(path)
    for i, value in enumerate(values):
        env = dict(ENV, git_rev=f"{i:012x}")
        ledger.append(
            build_manifest(
                command, {"dataset": "cora"}, env=env,
                metrics={metric: value}, clock=lambda i=i: 1_000.0 + i,
            )
        )
    return path


class TestTrendGate:
    def test_stable_history_passes_and_spike_gates(self, tmp_path, capsys):
        # The PR's acceptance case: a committed seed history passes the
        # gate; appending one +50% drift run flips it to exit 1.
        path = _history(tmp_path, [100.0, 102.0, 98.0, 101.0, 99.0, 100.0])
        assert main(
            ["runs", "trend", "search.epoch_ms", "--gate",
             "--history", str(path)]
        ) == 0
        drifted = RunLedger(path)
        drifted.append(
            build_manifest(
                "search", {"dataset": "cora"},
                env=dict(ENV, git_rev="f" * 12),
                metrics={"search.epoch_ms": 150.0}, clock=lambda: 2_000.0,
            )
        )
        assert main(
            ["runs", "trend", "search.epoch_ms", "--gate",
             "--history", str(path)]
        ) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "GATE" in out

    def test_sustained_creep_gates_through_wider_window(self):
        # No single step trips 25%, but the trailing window vs the
        # median of the older history does.
        values = [100.0, 100.0, 100.0, 100.0, 120.0, 135.0, 150.0]
        verdict = evaluate_trend(values, "search.epoch_ms")
        assert verdict.status == "regression"
        assert verdict.gates

    def test_improvement_does_not_gate(self, tmp_path):
        path = _history(tmp_path, [100.0, 101.0, 99.0, 100.0, 60.0, 55.0])
        assert main(
            ["runs", "trend", "search.epoch_ms", "--gate",
             "--history", str(path)]
        ) == 0

    def test_higher_is_better_metric_gates_on_drop(self):
        verdict = evaluate_trend(
            [10.0, 10.1, 9.9, 10.0, 5.0], "kernel.scatter_sum.effective_gbps"
        )
        assert verdict.status == "regression"
        up = evaluate_trend([10.0, 10.1, 9.9, 10.0, 15.0], "serve.rps")
        assert up.status == "improved" and not up.gates

    def test_no_data_gates_and_untracked_never_does(self, tmp_path, capsys):
        path = _history(tmp_path, [1.0, 1.0, 1.0], metric="some.mystery")
        assert main(
            ["runs", "trend", "search.epoch_ms", "--gate",
             "--history", str(path)]
        ) == 1
        assert main(
            ["runs", "trend", "some.mystery", "--gate", "--history", str(path)]
        ) == 0
        capsys.readouterr()

    def test_insufficient_history_renders_without_gating(self):
        verdict = evaluate_trend([100.0, 150.0], "search.epoch_ms")
        assert verdict.status == "insufficient"
        assert not verdict.gates

    def test_without_gate_flag_regression_still_exits_zero(self, tmp_path, capsys):
        path = _history(tmp_path, [100.0] * 5 + [200.0])
        assert main(
            ["runs", "trend", "search.epoch_ms", "--history", str(path)]
        ) == 0
        capsys.readouterr()

    def test_metric_series_filters_by_command(self, tmp_path):
        path = _history(tmp_path, [1.0, 2.0])
        ledger = RunLedger(path)
        ledger.append(
            build_manifest(
                "bench", {}, env=dict(ENV),
                metrics={"search.epoch_ms": 9.0}, clock=lambda: 5.0,
            )
        )
        manifests = ledger.read()
        assert metric_series(manifests, "search.epoch_ms") == [1.0, 2.0, 9.0]
        assert metric_series(
            manifests, "search.epoch_ms", command="search"
        ) == [1.0, 2.0]


class TestRenderers:
    def test_list_show_and_diff_render(self, tmp_path):
        producer = _manifest(
            command="export", outputs={"task": "node"},
            metrics={"export.val_score": 0.9},
        )
        consumer = _manifest(
            command="serve",
            metrics={"serve.latency.p50_s": 0.002, "export.val_score": 0.8},
            lineage={
                "producer_run_id": producer.run_id,
                "artifact": "artifact.json",
            },
        )
        listing = render_runs_list([producer, consumer])
        assert producer.run_id in listing and "serve" in listing
        shown = render_run_show(consumer, seq=1, producer=producer)
        assert f"produced by {producer.run_id}" in shown
        orphan = render_run_show(consumer, seq=1, producer=None)
        assert "not found in this ledger" in orphan
        diff = render_runs_diff(producer, consumer)
        assert "export.val_score" in diff

    def test_trend_renders_sparkline_table(self):
        manifests = [
            _manifest(metrics={"search.epoch_ms": v})
            for v in (100.0, 101.0, 99.0, 100.0)
        ]
        text, failed = render_trend(manifests, ["search.epoch_ms"])
        assert "search.epoch_ms" in text
        assert not failed


class TestManifestRecord:
    def test_to_record_drops_empty_optionals(self):
        record = _manifest().to_record()
        assert "lineage" not in record and "children" not in record
        assert record["version"] == 1
        # Round-trips through JSON.
        again = RunManifest.from_record(json.loads(canonical_json(record)))
        assert again.run_id == record["run_id"]

    def test_from_record_rejects_bad_versions_and_shapes(self):
        with pytest.raises(ValueError):
            RunManifest.from_record({"version": 2, "run_id": "r", "command": "x"})
        with pytest.raises(ValueError):
            RunManifest.from_record({"version": 1})
        with pytest.raises(ValueError):
            RunManifest.from_record("nope")

    def test_env_fingerprint_shape(self):
        env = env_fingerprint(scale="smoke", seed=3, workers=2)
        assert set(env) == {"scale", "seed", "workers", "git_rev", "python"}
        assert env["scale"] == "smoke" and env["seed"] == 3
        assert env["workers"] == 2


class TestLegacyManifests:
    """Manifests written before ``env.kernels`` was dropped still work."""

    def test_legacy_manifest_loads_and_renders(self):
        record = _manifest(metrics={"search.epoch_ms": 100.0}).to_record()
        record["env"] = dict(record["env"], kernels="naive")
        legacy = RunManifest.from_record(json.loads(json.dumps(record)))
        assert legacy.env["kernels"] == "naive"
        shown = render_run_show(legacy, seq=0)
        assert "env:           scale=smoke seed=0 workers=0" in shown
        # Diffing against a current manifest reports the key as drift.
        diff = render_runs_diff(legacy, _manifest())
        assert "kernels: 'naive' -> None" in diff

    def test_committed_seed_history_keeps_its_trend_verdicts(self, capsys):
        manifests = RunLedger(SEED_HISTORY).read()
        assert manifests and all("kernels" in m.env for m in manifests)
        for metric in (
            "search.epoch_ms",
            "serve.latency.p99_s",
            "kernel.scatter_sum.effective_gbps",
        ):
            verdict = evaluate_trend(metric_series(manifests, metric), metric)
            assert (verdict.status, verdict.points) == ("ok", 6), metric
        assert main([
            "runs", "trend", "search.epoch_ms", "serve.latency.p99_s",
            "kernel.scatter_sum.effective_gbps", "--gate",
            "--history", str(SEED_HISTORY),
        ]) == 0
        assert "GATE" not in capsys.readouterr().out
