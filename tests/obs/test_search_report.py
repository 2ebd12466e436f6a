"""Dashboard rendering (``repro report run``/``diff``) — tier-1 lockdown.

The tentpole guarantee under test: a smoke-scale search recorded through
the event log and replayed through the dashboard renders *byte-identical*
text across two seeded runs (deterministic formatting, fake clock).
"""

import math

import numpy as np

from repro.core.search import SaneSearcher, SearchConfig
from repro.core.search_space import SearchSpace
from repro.obs import health, record_events, render_diff, render_run
from repro.obs.report import sparkline
from repro.obs.search_report import load_run_records, split_searches

SMALL_SPACE = SearchSpace(
    num_layers=2, node_ops=("gcn", "sage-mean"), layer_ops=("concat", "max")
)
# alpha_lr boosted well past the paper's 3e-4 so a 6-epoch smoke search
# visibly sharpens the distribution and flips the argmax genotype.
SHARP = SearchConfig(epochs=6, hidden_dim=8, dropout=0.1, alpha_lr=0.05)


class FakeClock:
    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def _record_search(path, seed: int, tiny_graph, label="search:test") -> None:
    with record_events(path, label=label, clock=FakeClock(step=0.25)):
        SaneSearcher(SMALL_SPACE, tiny_graph, SHARP, seed=seed).search()


class TestSparkline:
    def test_flat_series_renders_lowest_cell(self):
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"

    def test_monotone_series_spans_the_ramp(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_long_series_is_downsampled(self):
        assert len(sparkline(list(range(500)))) == 32

    def test_empty_series(self):
        assert sparkline([]) == ""


class TestRenderRun:
    def test_dashboard_sections(self, tiny_graph, tmp_path):
        path = tmp_path / "run.jsonl"
        _record_search(path, seed=0, tiny_graph=tiny_graph)
        text = render_run(path)
        assert "== Search telemetry: search:test ==" in text
        assert "per-edge entropy (nats):" in text
        assert "node/0" in text and "layer/0" in text
        assert "genotype flip" in text  # timeline or the no-flips line
        assert "curves:" in text
        assert "val_score" in text and "|g_alpha|" in text
        assert "final genotype:" in text

    def test_dashboard_is_byte_identical_across_seeded_runs(
        self, tiny_graph, tmp_path
    ):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        _record_search(path_a, seed=11, tiny_graph=tiny_graph)
        _record_search(path_b, seed=11, tiny_graph=tiny_graph)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert render_run(path_a).encode() == render_run(path_b).encode()

    def test_entropy_sharpens_under_boosted_alpha_lr(self, tiny_graph, tmp_path):
        path = tmp_path / "run.jsonl"
        _record_search(path, seed=0, tiny_graph=tiny_graph)
        from repro.obs.search_report import load_run_records

        events, _ = load_run_records(path)
        run = split_searches(events)[0]
        drops = [
            series[0] - series[-1]
            for series in run.entropy.values()
        ]
        # The distribution sharpens overall; individual edges may wobble
        # by a fraction of a millinat on a 6-epoch smoke run.
        assert sum(drops) > 0.05, drops
        assert sum(1 for drop in drops if drop > 0) >= len(drops) - 1, drops

    def test_run_without_search_events(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        with record_events(path, label="none") as recorder:
            recorder.emit("train_start", mode="transductive", epochs=1)
        text = render_run(path)
        assert "(no search_start events recorded)" in text


class TestEntropyCollapseSection:
    def _run_with_entropy(self, **entropy):
        from repro.obs.search_report import SearchRun

        return SearchRun(entropy=entropy)

    def test_collapse_index_requires_saturation_to_the_end(self):
        from repro.obs.search_report import _collapse_index

        # Dips below threshold then recovers: never collapsed.
        assert _collapse_index([1.0, 0.01, 0.9, 0.8]) is None
        # Saturates at snapshot 1 and stays: collapsed there.
        assert _collapse_index([1.0, 0.01, 0.02, 0.0]) == 1
        assert _collapse_index([1.0]) is None
        # Soft mixture throughout: no collapse.
        assert _collapse_index([1.0, 0.9, 0.8, 0.7]) is None

    def test_early_collapse_flags_darts_failure_mode(self):
        from repro.obs.search_report import _entropy_collapse_lines

        run = self._run_with_entropy(
            **{
                "node/0": [1.0, 0.01, 0.0, 0.0, 0.0],  # collapses at 25%
                "node/1": [1.0, 0.9, 0.8, 0.7, 0.6],   # stays soft
            }
        )
        lines = _entropy_collapse_lines(run)
        assert "1/2 edge(s) saturated before 50%" in lines[0]
        assert "DARTS-style premature argmax" in lines[0]
        body = "\n".join(lines)
        assert "node/0" in body and "node/1" not in body

    def test_late_collapse_is_sane_like(self):
        from repro.obs.search_report import _entropy_collapse_lines

        run = self._run_with_entropy(
            **{"node/0": [1.0, 0.9, 0.8, 0.02, 0.0]}  # collapses at 75%
        )
        lines = _entropy_collapse_lines(run)
        assert lines == [
            "entropy collapse: none before 50% of the search (mixtures "
            "stayed soft — SANE-like dynamics, not the DARTS failure mode)"
        ]

    def test_near_uniform_final_entropy_reports_no_selection(self):
        from repro.obs.search_report import SearchRun, _entropy_collapse_lines

        ln11, ln2 = math.log(11), math.log(2)
        run = SearchRun(
            entropy={"node/0": [ln11, ln11 - 1e-5], "skip/0": [ln2, ln2]},
            num_ops={"node/0": 11, "skip/0": 2},
        )
        lines = _entropy_collapse_lines(run)
        assert lines[0] == "entropy collapse: none before 50% of the search"
        assert lines[1].startswith("no selection: every edge ended above 0.95")
        assert "SANE-like" not in "\n".join(lines)

    def test_one_selecting_edge_is_a_selection(self):
        from repro.obs.search_report import SearchRun, _entropy_collapse_lines

        ln11, ln2 = math.log(11), math.log(2)
        run = SearchRun(
            entropy={"node/0": [ln11, 0.5 * ln11], "skip/0": [ln2, ln2]},
            num_ops={"node/0": 11, "skip/0": 2},
        )
        (line,) = _entropy_collapse_lines(run)
        assert "SANE-like" in line

    def test_recorded_paper_rate_search_selects_nothing(self, tiny_graph, tmp_path):
        # At the paper's alpha_lr a 6-epoch search leaves every mixture
        # at its uniform entropy to four decimals.
        events = tmp_path / "events.jsonl"
        config = SearchConfig(epochs=6, hidden_dim=8, dropout=0.1)
        with record_events(events, label="uniform", clock=FakeClock()):
            SaneSearcher(SMALL_SPACE, tiny_graph, config, seed=0).search()
        (run,) = split_searches(load_run_records(events)[0])
        assert run.num_ops == {
            "node/0": 2, "node/1": 2, "skip/0": 2, "skip/1": 2, "layer/0": 2,
        }
        assert "no selection: every edge" in render_run(events)

    def test_no_tracked_edges_renders_nothing(self):
        from repro.obs.search_report import _entropy_collapse_lines

        assert _entropy_collapse_lines(self._run_with_entropy()) == []

    def test_recorded_search_renders_the_section(self, tiny_graph, tmp_path):
        events = tmp_path / "events.jsonl"
        _record_search(events, seed=0, tiny_graph=tiny_graph)
        out = render_run(events)
        assert "entropy collapse:" in out


class TestPoolUtilizationSection:
    def _write_events(self, path, waves):
        from repro.obs import events as events_mod

        recorder = events_mod.EventRecorder(path, label="pool")
        recorder.emit("search_start", meta={})
        for wave in waves:
            recorder.emit("pool_utilization", **wave)
        recorder.emit("search_end")
        recorder.close()

    def test_waves_aggregate_into_one_table(self, tmp_path):
        events = tmp_path / "events.jsonl"
        self._write_events(
            events,
            [
                {
                    "workers": 2,
                    "utilization": 0.5,
                    "per_worker": {
                        "0": {"busy_frac": 0.5, "tasks": 2},
                        "1": {"busy_frac": 0.5, "tasks": 1},
                    },
                },
                {
                    "workers": 2,
                    "utilization": 1.0,
                    "per_worker": {
                        "0": {"busy_frac": 1.0, "tasks": 3},
                    },
                },
            ],
        )
        out = render_run(events)
        assert "worker pool utilization: 2 wave(s), mean utilization 0.75" in out
        assert "worker-0" in out and "worker-1" in out
        # tasks summed across waves; busy_frac averaged over appearances.
        lines = [l for l in out.splitlines() if "worker-0" in l]
        assert "5" in lines[0] and "0.75" in lines[0]

    def test_no_pool_events_no_section(self, tiny_graph, tmp_path):
        events = tmp_path / "events.jsonl"
        _record_search(events, seed=0, tiny_graph=tiny_graph)
        # The in-process searcher itself runs no pool here.
        assert "worker pool utilization" not in render_run(events)


class TestGradHealthSection:
    def _record_monitored(self, path, tiny_graph, dead_op_eps=1e-6):
        with record_events(path, label="search:test", clock=FakeClock(0.25)):
            with health.check_numerics(mode="warn", dead_op_eps=dead_op_eps):
                SaneSearcher(SMALL_SPACE, tiny_graph, SHARP, seed=0).search()

    def test_monitored_run_renders_gradient_health(self, tiny_graph, tmp_path):
        path = tmp_path / "run.jsonl"
        self._record_monitored(path, tiny_graph)
        text = render_run(path)
        assert "gradient health (|g_alpha|/|g_w| trend" in text
        assert "|g_alpha|" in text and "alpha_step" in text
        # One grad_health row per epoch of the smoke search.
        events, _ = load_run_records(path)
        runs = split_searches(events)
        assert sorted(runs[0].grad_health) == list(range(SHARP.epochs))

    def test_dead_op_sightings_render_when_eps_is_hot(
        self, tiny_graph, tmp_path
    ):
        # An absurd eps declares most mixture weights "dead" so the
        # sightings table is guaranteed to populate at smoke scale.
        path = tmp_path / "run.jsonl"
        self._record_monitored(path, tiny_graph, dead_op_eps=0.5)
        text = render_run(path)
        assert "dead-op sightings:" in text
        events, _ = load_run_records(path)
        runs = split_searches(events)
        assert runs[0].dead_ops
        sighting = runs[0].dead_ops[0]
        assert {"epoch", "edge", "layer", "op", "weight"} <= set(sighting)

    def test_unmonitored_run_has_no_section(self, tiny_graph, tmp_path):
        # Old traces (and monitor-off runs) must render exactly as
        # before the section existed.
        path = tmp_path / "run.jsonl"
        _record_search(path, seed=0, tiny_graph=tiny_graph)
        text = render_run(path)
        assert "gradient health" not in text
        assert "dead-op sightings" not in text


class TestRenderDiff:
    def test_identical_runs_diff_clean(self, tiny_graph, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        _record_search(path_a, seed=5, tiny_graph=tiny_graph)
        _record_search(path_b, seed=5, tiny_graph=tiny_graph)
        text = render_diff(path_a, path_b)
        assert "final genotype: identical" in text
        assert "convergence epoch" in text

    def test_different_seeds_report_quantities(self, tiny_graph, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        _record_search(path_a, seed=0, tiny_graph=tiny_graph, label="run-a")
        _record_search(path_b, seed=1, tiny_graph=tiny_graph, label="run-b")
        text = render_diff(path_a, path_b)
        assert "== Run diff: run-a vs run-b ==" in text
        assert "genotype flips" in text
        assert "val_score curve" in text

    def test_same_labels_are_disambiguated(self, tiny_graph, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        _record_search(path_a, seed=0, tiny_graph=tiny_graph)
        _record_search(path_b, seed=1, tiny_graph=tiny_graph)
        text = render_diff(path_a, path_b)
        assert "search:test (a)" in text
        assert "search:test (b)" in text

    def test_memory_deltas_when_memory_stats_present(self, tiny_graph, tmp_path):
        from repro.obs.session import ProfileSession

        paths = []
        for index, name in enumerate(("a.jsonl", "b.jsonl")):
            path = tmp_path / name
            with ProfileSession(
                trace_path=path, label=f"run-{index}", events=True, memory=True
            ):
                SaneSearcher(SMALL_SPACE, tiny_graph, SHARP, seed=index).search()
            paths.append(path)
        text = render_diff(*paths)
        assert "tape memory deltas (run-1 - run-0):" in text
        assert "overall peak live:" in text
        assert "Δret" in text and "Δpeak" in text

    def test_no_memory_section_without_memory_stats(self, tiny_graph, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        _record_search(path_a, seed=0, tiny_graph=tiny_graph)
        _record_search(path_b, seed=1, tiny_graph=tiny_graph)
        assert "tape memory deltas" not in render_diff(path_a, path_b)

    def test_hotspot_deltas_when_spans_interleaved(self, tiny_graph, tmp_path):
        paths = []
        for index, name in enumerate(("a.jsonl", "b.jsonl")):
            path = tmp_path / name
            with record_events(path, label=f"run-{index}", spans=True):
                SaneSearcher(SMALL_SPACE, tiny_graph, SHARP, seed=index).search()
            paths.append(path)
        text = render_diff(*paths)
        assert "hotspot deltas" in text
        assert "search/epoch" in text

    def test_tied_deltas_list_in_name_order(self, tmp_path):
        # Eight root spans (and ops) whose deltas all tie: the tables
        # must not follow set iteration order, which moves with the
        # string hash seed.
        import json

        names = [f"x{index}" for index in range(8)]
        paths = []
        for label, scale in (("a", 1.0), ("b", 2.0)):
            records = [
                {"type": "meta", "kind": "trace", "version": 1, "label": label},
                {"type": "event", "event": "search_start", "data": {}, "t": 0.0},
                {"type": "event", "event": "search_end", "data": {}, "t": 1.0},
            ]
            records += [
                {"type": "span", "id": index, "parent": None, "name": name,
                 "dur": scale}
                for index, name in enumerate(names)
            ]
            per_op = {name: {"retained_bytes": int(1024 * scale)} for name in names}
            records.append(
                {"type": "memory_stats", "data": {"per_op": per_op}}
            )
            path = tmp_path / f"{label}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in records))
            paths.append(path)
        lines = render_diff(*paths).splitlines()
        listed = [line.split()[0] for line in lines if line.startswith("x")]
        assert listed == names + names

    def _write_span_trace(self, path, durations):
        import json

        records = [
            {"type": "meta", "kind": "trace", "version": 1, "label": path.stem},
            {"type": "event", "event": "search_start", "data": {}, "t": 0.0},
            {"type": "event", "event": "search_end", "data": {}, "t": 1.0},
        ]
        records += [
            {"type": "span", "id": index, "parent": None, "name": name, "dur": dur}
            for index, (name, dur) in enumerate(durations)
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_float_noise_deltas_are_left_out(self, tmp_path):
        # 0.1 + 0.2 and 0.3 differ by ~5.6e-17: the row would print as
        # "-0.0000 -0.0%" and take a top-8 slot from a real move.
        assert 0.1 + 0.2 != 0.3
        path_a = self._write_span_trace(
            tmp_path / "a.jsonl", [("noise", 0.1), ("noise", 0.2), ("real", 1.0)]
        )
        path_b = self._write_span_trace(
            tmp_path / "b.jsonl", [("noise", 0.3), ("real", 1.5)]
        )
        lines = render_diff(path_a, path_b).splitlines()
        listed = [line.split()[0] for line in lines if line.startswith(("noise", "real"))]
        assert listed == ["real"]

    def test_no_moved_phase_is_said_once(self, tmp_path):
        path = self._write_span_trace(tmp_path / "a.jsonl", [("noise", 0.3)])
        text = render_diff(path, path)
        assert "(no phase moved at 4-decimal precision)" in text
        assert "-0.0000" not in text and "+0.0000" not in text
