"""Command-line interface."""

import argparse
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.runs import RunLedger
from tests.naive_kernels import KERNEL_PATHS, kernel_path

FIXTURES = Path(__file__).parent / "obs" / "fixtures"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_choices(self):
        args = build_parser().parse_args(["--scale", "smoke", "stats"])
        assert args.scale == "smoke"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "huge", "stats"])

    def test_search_arguments(self):
        args = build_parser().parse_args(
            ["--scale", "smoke", "search", "cora", "--layers", "2"]
        )
        assert args.dataset == "cora"
        assert args.layers == 2

    def test_table_numbers_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "99"])


class TestCommands:
    def test_stats(self, capsys):
        assert main(["--scale", "smoke", "stats"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "cora" in out

    def test_baseline(self, capsys):
        assert main(["--scale", "smoke", "baseline", "gcn", "cora"]) == 0
        out = capsys.readouterr().out
        assert "gcn on cora" in out

    def test_search(self, capsys):
        assert main(["--scale", "smoke", "search", "cora", "--layers", "2"]) == 0
        out = capsys.readouterr().out
        assert "architecture:" in out
        assert "test score:" in out

    def test_table4_command(self, capsys):
        assert main(["--scale", "smoke", "table", "4"]) == 0
        assert "Table IV" in capsys.readouterr().out

    def test_table6_restricted_datasets(self, capsys):
        code = main(
            ["--scale", "smoke", "table", "6", "--datasets", "cora"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cora" in out
        assert "pubmed" not in out

    def test_figure2_command(self, capsys):
        code = main(["--scale", "smoke", "figure", "2", "--datasets", "cora"])
        assert code == 0
        assert "Figure 2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["table", "4", "--datasets", "cora"], "--datasets"),
            (["table", "8", "--datasets", "cora"], "--datasets"),
            (["table", "6", "--datasets", "cora", "--workers", "2"], "--workers"),
            (["figure", "2", "--datasets", "cora", "--workers", "2"], "--workers"),
        ],
        ids=["table4-datasets", "table8-datasets", "table6-workers",
             "figure2-workers"],
    )
    def test_render_rejects_a_flag_its_runner_ignores(
        self, argv, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path))
        assert main(["--scale", "smoke", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro {argv[0]}: error: {flag} ")
        # An error path records nothing.
        assert RunLedger(tmp_path / "runs.jsonl").read() == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["baseline", "nosuch", "cora"],
            ["export", "baseline", "nosuch", "cora"],
            ["profile", "baseline", "--name", "nosuch"],
        ],
        ids=["baseline", "export-baseline", "profile"],
    )
    def test_unknown_baseline_name_is_a_usage_error(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["--scale", "smoke", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        command = " ".join(argv[:2] if argv[0] == "export" else argv[:1])
        assert f"repro {command}: error: argument " in err
        assert "invalid choice: 'nosuch'" in err
        assert "Traceback" not in err
        assert RunLedger(tmp_path / "runs.jsonl").read() == []


class TestProfileCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile", "search"])
        assert args.command == "profile"
        assert args.target == "search"
        assert args.dataset == "cora"
        assert args.trace is None
        assert args.top == 10
        assert not args.no_autograd

    def test_scale_after_subcommand_does_not_clobber(self):
        args = build_parser().parse_args(["--scale", "smoke", "profile", "search"])
        assert args.scale == "smoke"
        args = build_parser().parse_args(["profile", "search", "--scale", "smoke"])
        assert args.scale == "smoke"

    def test_profile_search_writes_trace_and_report(self, tmp_path, capsys):
        from repro.obs import read_records

        trace = tmp_path / "trace.jsonl"
        code = main(
            ["--scale", "smoke", "profile", "search", "--dataset", "cora",
             "--layers", "2", "--trace", str(trace), "--top", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "architecture:" in out
        assert "== Phase breakdown (spans) ==" in out
        assert "autograd ops (by backward time)" in out
        assert str(trace) in out

        records = read_records(trace, kind="trace")
        assert records[0]["type"] == "meta"
        assert any(r["type"] == "span" for r in records)
        assert any(r["type"] == "op_stats" for r in records)

    def test_profile_baseline_without_autograd(self, tmp_path, capsys):
        from repro.obs import read_records

        trace = tmp_path / "trace.jsonl"
        code = main(
            ["--scale", "smoke", "profile", "baseline", "--name", "gcn",
             "--dataset", "cora", "--trace", str(trace), "--no-autograd"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gcn on cora" in out
        assert "== Phase breakdown (spans) ==" in out
        op_stats = [r for r in read_records(trace, kind="trace") if r["type"] == "op_stats"]
        assert op_stats[0]["data"] == []

    def test_profile_records_minor_page_faults(self, tmp_path, capsys):
        pytest.importorskip("resource")
        from repro.obs import read_records

        trace = tmp_path / "trace.jsonl"
        code = main(
            ["--scale", "smoke", "profile", "baseline", "--name", "gcn",
             "--dataset", "cora", "--trace", str(trace), "--no-autograd"]
        )
        assert code == 0
        capsys.readouterr()
        (metrics,) = [
            r["data"] for r in read_records(trace, kind="trace")
            if r["type"] == "metrics"
        ]
        # Zero is possible: a warm heap serves the run without new pages.
        assert metrics["gauges"]["minor_faults"]["value"] >= 0


class TestCommonOptionPlacement:
    """Every subcommand takes --scale/--seed before *and* after its name."""

    CASES = [
        (["stats"], []),
        (["search", "cora"], []),
        (["baseline", "gcn", "cora"], []),
        (["table", "4"], []),
        (["figure", "2"], []),
        (["lint"], []),
        (["profile", "search"], []),
        (["report", "run"], ["events.jsonl"]),
        (["report", "diff"], ["a.jsonl", "b.jsonl"]),
        (["report", "bench"], []),
        (["export", "search"], ["cora"]),
        (["export", "baseline"], ["gcn", "cora"]),
        (["export", "kg"], []),
        (["serve"], ["artifact.json"]),
        (["report", "serve"], ["trace.jsonl"]),
        (["runs", "list"], []),
        (["runs", "show"], ["0"]),
        (["runs", "diff"], ["0", "1"]),
        (["runs", "trend"], ["search.epoch_ms"]),
        (["runs", "gc"], []),
    ]

    @pytest.mark.parametrize("command,positionals", CASES,
                             ids=[" ".join(c) for c, _ in CASES])
    def test_scale_accepted_before_and_after(self, command, positionals):
        before = build_parser().parse_args(
            ["--scale", "smoke", *command, *positionals]
        )
        after = build_parser().parse_args(
            [*command, *positionals, "--scale", "smoke"]
        )
        assert before.scale == "smoke"
        assert after.scale == "smoke"

    @pytest.mark.parametrize("command,positionals", CASES,
                             ids=[" ".join(c) for c, _ in CASES])
    def test_seed_accepted_before_and_after(self, command, positionals):
        before = build_parser().parse_args(
            ["--seed", "9", *command, *positionals]
        )
        after = build_parser().parse_args(
            [*command, *positionals, "--seed", "9"]
        )
        assert before.seed == 9
        assert after.seed == 9

    def test_trailing_flag_wins_over_leading(self):
        args = build_parser().parse_args(
            ["--seed", "1", "stats", "--seed", "2"]
        )
        assert args.seed == 2

    def test_absent_trailing_flag_keeps_leading_value(self):
        args = build_parser().parse_args(["--scale", "full", "stats"])
        assert args.scale == "full"


class TestReportCommand:
    def _record(self, path, seed=0):
        import numpy as np

        from repro.core.search import SaneSearcher, SearchConfig
        from repro.core.search_space import SearchSpace
        from repro.obs import record_events

        space = SearchSpace(
            num_layers=2, node_ops=("gcn", "sage-mean"),
            layer_ops=("concat", "max"),
        )
        config = SearchConfig(epochs=3, hidden_dim=8, dropout=0.1)
        graph = _tiny_graph_for_cli()
        with record_events(path, label="cli-test", spans=True):
            SaneSearcher(space, graph, config, seed=seed).search()

    def test_report_requires_a_view(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_report_run_renders_dashboard(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        self._record(events)
        assert main(["report", "run", str(events)]) == 0
        out = capsys.readouterr().out
        assert "== Search telemetry: cli-test ==" in out
        assert "per-edge entropy (nats):" in out

    def test_report_into_closed_pipe_ends_quietly(self, tmp_path):
        """``repro report run e.jsonl | head`` and ``repro runs list | head``
        after ``head`` has exited."""
        import os
        import subprocess
        import sys

        events = tmp_path / "events.jsonl"
        self._record(events)
        root = os.path.dirname(os.path.dirname(__file__))
        ledger = os.path.join(root, "benchmarks", "history", "seed.jsonl")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        for argv in (
            ["report", "run", str(events)],
            ["runs", "list", "--history", ledger],
        ):
            reader, writer = os.pipe()
            os.close(reader)  # the reader is gone before the render is written
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "repro", *argv],
                    stdout=writer, stderr=subprocess.PIPE, text=True, env=env,
                    timeout=120,
                )
            finally:
                os.close(writer)
            assert (argv, done.returncode, done.stderr) == (argv, 0, "")

    def test_report_run_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["report", "run", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_report_diff_renders_comparison(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._record(a, seed=0)
        self._record(b, seed=1)
        assert main(["report", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "== Run diff:" in out
        assert "convergence epoch" in out

    def test_report_bench_ok_against_committed_baselines(self, capsys):
        code = main(
            ["report", "bench", "--bench-dir", "benchmarks/baselines"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ok (0 gated metric(s))" in out

    def test_report_bench_degraded_file_exits_1(self, tmp_path, capsys):
        import json

        baseline = {
            "bench": "demo", "version": 1, "scale": "smoke", "spans": [],
            "metrics": {"gauges": {"final_score.cora": {"value": 0.8}}},
            "extra": {},
        }
        degraded = dict(baseline)
        degraded["metrics"] = {"gauges": {"final_score.cora": {"value": 0.5}}}
        base_dir = tmp_path / "baselines"
        base_dir.mkdir()
        (base_dir / "BENCH_demo.json").write_text(json.dumps(baseline))
        fresh = tmp_path / "BENCH_demo.json"
        fresh.write_text(json.dumps(degraded))
        code = main(
            ["report", "bench", str(fresh), "--baselines", str(base_dir)]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_report_bench_default_floor_forgives_sub_ms_tail(
        self, tmp_path, capsys
    ):
        # The exact shape that flaked CI: a sub-millisecond stage
        # latency jittering +80% run-to-run. The default 1 ms floor
        # reports it ok; with the floor disabled the same payload
        # gates (p50, so the tail demotion is not what saves it).
        import json

        baseline = {
            "bench": "demo", "version": 1, "scale": "smoke", "spans": [],
            "metrics": {
                "gauges": {"serve.stage.resolve.p50_s": {"value": 3.37e-05}}
            },
            "extra": {},
        }
        noisy = dict(baseline)
        noisy["metrics"] = {
            "gauges": {"serve.stage.resolve.p50_s": {"value": 6.07e-05}}
        }
        base_dir = tmp_path / "baselines"
        base_dir.mkdir()
        (base_dir / "BENCH_demo.json").write_text(json.dumps(baseline))
        fresh = tmp_path / "BENCH_demo.json"
        fresh.write_text(json.dumps(noisy))
        argv = ["report", "bench", str(fresh), "--baselines", str(base_dir)]
        assert main(argv) == 0
        assert "ok (0 gated metric(s))" in capsys.readouterr().out
        assert main(argv + ["--abs-floor-ms", "0"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_report_bench_missing_fresh_file_exits_1(self, tmp_path, capsys):
        import json

        base_dir = tmp_path / "baselines"
        base_dir.mkdir()
        (base_dir / "BENCH_demo.json").write_text(
            json.dumps({"bench": "demo", "metrics": {}, "spans": []})
        )
        empty = tmp_path / "fresh"
        empty.mkdir()
        code = main(
            ["report", "bench", "--baselines", str(base_dir),
             "--bench-dir", str(empty)]
        )
        assert code == 1
        assert "fresh results missing" in capsys.readouterr().out

    def test_search_events_flag_writes_renderable_log(self, tmp_path, capsys):
        events = tmp_path / "ev.jsonl"
        code = main(
            ["--scale", "smoke", "search", "cora", "--layers", "2",
             "--events", str(events)]
        )
        assert code == 0
        assert str(events) in capsys.readouterr().out
        assert main(["report", "run", str(events)]) == 0
        assert "Search telemetry" in capsys.readouterr().out


def _tiny_graph_for_cli():
    from tests.conftest import _make_tiny_graph

    return _make_tiny_graph()


class TestServeObservability:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve-cli") / "artifact.json"
        assert main([
            "--scale", "smoke", "export", "baseline", "gcn", "cora",
            "--out", str(path),
        ]) == 0
        return path

    def test_parser_accepts_observability_flags(self):
        args = build_parser().parse_args([
            "serve", "artifact.json", "--trace", "t.jsonl",
            "--deadline-ms", "5.0", "--export-port", "0",
            "--export-snapshots", "s.jsonl", "--export-interval", "0.1",
            "--export-linger", "2",
        ])
        assert args.trace == "t.jsonl"
        assert args.deadline_ms == 5.0
        assert args.export_port == 0
        assert args.export_snapshots == "s.jsonl"
        assert args.export_interval == 0.1
        assert args.export_linger == 2.0
        report = build_parser().parse_args(
            ["report", "serve", "trace.jsonl", "--top", "2"]
        )
        assert report.trace == "trace.jsonl" and report.top == 2

    def test_demo_serve_emits_trace_snapshots_and_exporter(
        self, artifact, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        snapshots = tmp_path / "snapshots.jsonl"
        code = main([
            "serve", str(artifact),
            "--trace", str(trace),
            "--export-snapshots", str(snapshots),
            "--export-port", "0",
            "--deadline-ms", "0.0001",  # everything misses: SLO visible
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "exporter:  http://127.0.0.1:" in out
        assert "snapshots:" in out
        assert "trace:" in out
        assert "deadline:" in out  # the misses were reported

        from repro.obs import read_records

        records = read_records(snapshots, kind="snapshots")
        assert records[0]["type"] == "meta"
        final = [r for r in records if r["type"] == "metrics-snapshot"][-1]
        assert final["data"]["counters"]["serve.deadline_exceeded"]["value"] > 0

        assert main(["report", "serve", str(trace), "--top", "1"]) == 0
        report = capsys.readouterr().out
        assert "Per-stage latency breakdown" in report
        assert "Queue-depth timeline" in report
        assert "== SLO ==" in report

    def test_report_serve_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["report", "serve", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err


class TestHealthCommand:
    def test_parser_accepts_check_numerics(self):
        args = build_parser().parse_args(
            ["search", "cora", "--check-numerics", "warn"]
        )
        assert args.check_numerics == "warn"
        assert build_parser().parse_args(["search", "cora"]).check_numerics == "off"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "cora", "--check-numerics", "loud"])

    def test_search_warn_mode_prints_tape_health(self, capsys):
        code = main(
            ["--scale", "smoke", "search", "cora", "--layers", "2",
             "--check-numerics", "warn"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tape health:" in out
        assert "0 anomalies" in out

    def test_raise_mode_anomaly_exits_3_with_provenance(self, capsys, monkeypatch):
        from repro.obs.health import NumericsAnomaly, get_monitor

        def poisoned_run(*args, **kwargs):
            raise NumericsAnomaly(
                "NaN", "forward", "mul", edge="node/1", layer=1, epoch=4
            )

        monkeypatch.setattr("repro.cli.run_sane", poisoned_run)
        code = main(
            ["--scale", "smoke", "search", "cora", "--check-numerics", "raise"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "numerics anomaly" in err
        assert "op='mul'" in err
        assert "edge='node/1'" in err
        assert "epoch=4" in err
        # The monitor is uninstalled even on the failure path.
        from repro.autograd.tensor import get_tape_hook

        assert get_monitor() is None
        assert get_tape_hook() is None


class TestMemoryCommand:
    def test_parser_accepts_memory_flags(self):
        args = build_parser().parse_args(["profile", "search", "--memory"])
        assert args.memory is True
        args = build_parser().parse_args(["report", "memory", "t.jsonl", "--top", "3"])
        assert args.view == "memory"
        assert args.trace == "t.jsonl"
        assert args.top == 3

    def test_profile_memory_then_report_memory(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["--scale", "smoke", "profile", "search", "--dataset", "cora",
             "--layers", "2", "--memory", "--trace", str(trace)]
        )
        assert code == 0
        assert "== Tape memory:" in capsys.readouterr().out
        assert main(["report", "memory", str(trace), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "== Tape memory: peak live" in out
        assert "span paths by peak live bytes" in out

    def test_report_memory_without_record_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["--scale", "smoke", "profile", "search", "--dataset", "cora",
             "--layers", "2", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["report", "memory", str(trace)]) == 2
        assert "no memory_stats record" in capsys.readouterr().err


class TestRunLedgerCLI:
    """Every entry point leaves a manifest; `repro runs` reads them back."""

    @pytest.fixture
    def history(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path))
        return tmp_path

    def _ledger(self, history):
        from repro.obs.runs import RunLedger

        return RunLedger(history / "runs.jsonl")

    def test_search_records_manifest_with_epoch_metric(self, history, capsys):
        assert main(["--scale", "smoke", "search", "cora", "--layers", "2"]) == 0
        capsys.readouterr()
        manifests = self._ledger(history).read()
        assert [m.command for m in manifests] == ["search"]
        manifest = manifests[0]
        assert manifest.config["dataset"] == "cora"
        assert manifest.env["scale"] == "smoke"
        assert manifest.metrics["search.epoch_ms"] > 0
        assert manifest.metrics["search.test_score"] > 0
        assert "architecture" in manifest.outputs
        assert manifest.duration_s > 0

    def test_seeded_reruns_share_run_id_and_config_digest(self, history, capsys):
        argv = ["--scale", "smoke", "search", "cora", "--layers", "2"]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        manifests = self._ledger(history).read()
        assert len(manifests) == 2
        assert manifests[0].run_id == manifests[1].run_id
        assert manifests[0].config_digest == manifests[1].config_digest

    def test_sweep_records_one_manifest_with_children(self, history, capsys):
        assert main(
            ["--scale", "smoke", "sweep", "cora", "--methods", "sane"]
        ) == 0
        capsys.readouterr()
        manifests = self._ledger(history).read()
        assert [m.command for m in manifests] == ["sweep"]
        sweep = manifests[0]
        assert sweep.outputs["digest"]
        assert [c["dataset"] for c in sweep.children] == ["cora"]
        assert [c["method"] for c in sweep.children] == ["sane"]
        # The shared pool's utilization gauges fold into the manifest.
        assert any(k.startswith("parallel.") for k in sweep.metrics)

    def test_runs_list_show_and_gc(self, history, capsys):
        assert main(["--scale", "smoke", "stats"]) == 0
        assert main(["--scale", "smoke", "baseline", "gcn", "cora"]) == 0
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        listing = capsys.readouterr().out
        assert "stats" in listing and "baseline" in listing
        assert main(["runs", "show", "-1"]) == 0
        shown = capsys.readouterr().out
        assert "baseline" in shown and "config digest:" in shown
        assert main(["runs", "diff", "0", "1"]) == 0
        assert "Run diff" in capsys.readouterr().out
        assert main(["runs", "gc", "--keep", "1"]) == 0
        capsys.readouterr()
        assert len(self._ledger(history).read()) == 1

    def test_runs_gc_negative_keep_exits_2_and_keeps_ledger(
        self, history, capsys
    ):
        assert main(["--scale", "smoke", "stats"]) == 0
        assert main(["--scale", "smoke", "table", "4"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["runs", "gc", "--keep", "-1"])
        assert exc.value.code == 2
        assert "argument --keep: must be >= 0" in capsys.readouterr().err
        commands = [m.command for m in self._ledger(history).read()]
        assert commands == ["stats", "table"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["runs", "list", "--last", "-1"],
            ["runs", "trend", "search.epoch_ms", "--last", "-1"],
            ["runs", "trend", "search.epoch_ms", "--gate", "--window", "0"],
        ],
        ids=["list-last", "trend-last", "trend-window"],
    )
    def test_runs_counts_out_of_range_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "must be >= " in capsys.readouterr().err

    def test_runs_show_unknown_ref_exits_2(self, history, capsys):
        assert main(["runs", "show", "rdeadbeef"]) == 2
        assert "no run matching" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", KERNEL_PATHS)
    def test_export_serve_lineage_round_trip(
        self, history, tmp_path, capsys, monkeypatch, backend
    ):
        # The acceptance path: export embeds its run id into the
        # artifact (hash-covered), serve --bench records a lineage
        # block, and `runs show` resolves it back to the producer —
        # on the planned kernels and on the test oracle.
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "bench"))
        artifact = tmp_path / "artifact.json"
        with kernel_path(backend):
            assert main([
                "--scale", "smoke",
                "export", "baseline", "gcn", "cora", "--out", str(artifact),
            ]) == 0
            assert main([
                "--scale", "smoke",
                "serve", str(artifact), "--bench", "--levels", "1",
                "--requests", "4", "--bench-name", "lineage_test",
            ]) == 0
        capsys.readouterr()
        manifests = self._ledger(history).read()
        by_command = {m.command: m for m in manifests}
        export, serve = by_command["export"], by_command["serve"]
        assert export.artifacts[0]["path"] == str(artifact)
        assert serve.lineage["producer_run_id"] == export.run_id
        assert serve.lineage["content_hash"] == export.artifacts[0]["content_hash"]
        assert "serve.latency.p50_s" in serve.metrics
        assert main(["runs", "show", "-1"]) == 0
        shown = capsys.readouterr().out
        assert f"produced by {export.run_id}" in shown

    def test_export_artifact_payload_carries_provenance(
        self, history, tmp_path, capsys
    ):
        import json

        artifact = tmp_path / "artifact.json"
        assert main([
            "--scale", "smoke", "export", "baseline", "gcn", "cora",
            "--out", str(artifact),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        manifest = self._ledger(history).read()[-1]
        assert payload["provenance"]["run_id"] == manifest.run_id
        assert payload["provenance"]["config_digest"] == manifest.config_digest
        # Provenance is hash-covered: round-trip still verifies.
        from repro.serve import load_artifact

        loaded = load_artifact(artifact)
        assert loaded.provenance["run_id"] == manifest.run_id

    def test_ledger_kill_switch_disables_recording(
        self, history, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_RUN_LEDGER", "off")
        assert main(["--scale", "smoke", "stats"]) == 0
        capsys.readouterr()
        assert self._ledger(history).read() == []


# The cheapest invocation of every subcommand. `{tmp}` is the test's
# temporary directory, `{artifact}` an exported artifact file in it.
INVOCATIONS = {
    "stats": ["stats"],
    "search": ["search", "cora", "--layers", "1"],
    "sweep": ["sweep", "cora", "--methods", "random"],
    "baseline": ["baseline", "gcn", "cora"],
    "table": ["table", "4"],
    "figure": ["figure", "2", "--datasets", "cora"],
    "lint": ["lint", "{tmp}/clean.py"],
    "profile": [
        "profile", "baseline", "--no-autograd", "--trace", "{tmp}/trace.jsonl",
    ],
    "export": ["export", "baseline", "gcn", "cora", "--out", "{tmp}/a.json"],
    "serve": ["serve", "{artifact}"],
    "report": ["report", "run", str(FIXTURES / "profile-a.jsonl")],
    "runs": ["runs", "list"],
}
READ_ONLY = {"report", "runs"}


class TestEveryCommandIsRecorded:
    """`main` appends one manifest per working command, none otherwise."""

    def test_every_subcommand_has_an_invocation(self):
        (subcommands,) = [
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(subcommands) == set(INVOCATIONS)

    @pytest.mark.parametrize("command", sorted(INVOCATIONS))
    def test_command_appends_its_manifest(
        self, command, tmp_path, monkeypatch, capsys, request
    ):
        from repro.serve import save_artifact

        history = tmp_path / "history"
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(history))
        (tmp_path / "clean.py").write_text("x = 1\n")
        artifact = tmp_path / "served.json"
        if command == "serve":
            save_artifact(request.getfixturevalue("node_artifact"), artifact)
        argv = [
            arg.format(tmp=tmp_path, artifact=artifact)
            for arg in INVOCATIONS[command]
        ]
        assert main(["--scale", "smoke", "--seed", "0", *argv]) == 0
        capsys.readouterr()
        manifests = RunLedger(history / "runs.jsonl").read()
        if command in READ_ONLY:
            assert manifests == []
            return
        assert [m.command for m in manifests] == [command]
        (manifest,) = manifests
        assert manifest.env["scale"] == "smoke"
        assert manifest.env["seed"] == 0
        assert manifest.duration_s > 0

    @pytest.mark.parametrize(
        "target", [["kg"], ["search", "cora", "--layers", "1"]], ids=["kg", "search"]
    )
    def test_served_export_resolves_to_its_export(
        self, target, tmp_path, monkeypatch, capsys
    ):
        # serve --bench writes its BENCH payload to the working directory.
        monkeypatch.chdir(tmp_path)
        history = tmp_path / "history"
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(history))
        smoke = ["--scale", "smoke", "--seed", "0"]
        assert main([*smoke, "export", *target, "--out", "a.json"]) == 0
        assert main([
            *smoke, "serve", "a.json", "--bench", "--levels", "1", "--requests", "4",
        ]) == 0
        capsys.readouterr()
        export, serve = RunLedger(history / "runs.jsonl").read()
        assert [export.command, serve.command] == ["export", "serve"]
        assert serve.lineage["producer_run_id"] == export.run_id
        assert main(["runs", "show", "-1"]) == 0
        assert f"produced by {export.run_id}" in capsys.readouterr().out


class TestLintCommand:
    def test_parser_accepts_paths_and_format(self):
        args = build_parser().parse_args(["lint", "src/repro", "--format", "json"])
        assert args.command == "lint"
        assert args.paths == ["src/repro"]
        assert args.format == "json"

    def test_default_target_is_the_package_and_it_is_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_json_format_on_clean_tree(self, capsys):
        import json

        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["findings"] == []

    def test_error_findings_set_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import torch\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "forbidden-import" in out

    def test_warnings_do_not_fail(self, tmp_path, capsys):
        warn_only = tmp_path / "loop.py"
        warn_only.write_text(
            "def fit(model, batches):\n"
            "    for batch in batches:\n"
            "        model(batch).backward()\n"
        )
        assert main(["lint", str(warn_only)]) == 0
        assert "missing-zero-grad" in capsys.readouterr().out
