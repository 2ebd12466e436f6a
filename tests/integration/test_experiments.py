"""Smoke-scale integration runs of every experiment module."""

import numpy as np
import pytest

from repro.core.search_space import Architecture
from repro.experiments import (
    SCALES,
    render_architecture,
    run_figure2,
    run_figure3,
    run_figure4a,
    run_figure4b,
    run_table4,
    run_table6,
    run_table7,
    run_table8,
    run_table9,
    run_table10,
)

SMOKE = SCALES["smoke"]


class TestScales:
    def test_presets_exist(self):
        assert set(SCALES) == {"smoke", "default", "full"}

    def test_env_lookup(self, monkeypatch):
        from repro.experiments.config import Scale

        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert Scale.from_env().name == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            Scale.from_env()

    def test_train_config_overrides(self):
        config = SMOKE.train_config(lr=0.123)
        assert config.lr == 0.123
        assert config.epochs == SMOKE.train_epochs


class TestTable4:
    def test_renders(self):
        result = run_table4(SMOKE)
        text = result.render()
        assert "Table IV" in text
        assert "cora" in text
        assert "Table V" in text


class TestTable6:
    def test_partial_run(self):
        result = run_table6(
            SMOKE, datasets=("cora",), methods=("gcn", "random", "sane")
        )
        text = result.render()
        assert "gcn" in text and "sane" in text
        assert "cora" in result.sane_architectures
        scores = result.table.scores("sane", "cora")
        assert len(scores) == SMOKE.repeats

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_table6(SMOKE, datasets=("cora",), methods=("alchemy",))


class TestTable7:
    def test_times_recorded(self):
        result = run_table7(SMOKE, datasets=("cora",))
        assert set(result.times) == {"random", "bayesian", "graphnas", "sane"}
        assert all(t["cora"] > 0 for t in result.times.values())
        assert "Table VII" in result.render()

    def test_speedup_computable(self):
        result = run_table7(SMOKE, datasets=("cora",))
        assert result.speedup("cora") > 0


class TestTable8:
    def test_shape_and_render(self):
        result = run_table8(SMOKE)
        assert set(result.hits) == {"jape", "gcn-align", "sane"}
        for method in result.hits.values():
            for direction in ("zh->en", "en->zh"):
                hits = method[direction]
                assert hits[1] <= hits[10] <= hits[50]
        assert "Table VIII" in result.render()


class TestTable9:
    def test_rows_present(self):
        result = run_table9(SMOKE, datasets=("cora",))
        labels = list(result.table.cells)
        assert "graphnas" in labels
        assert "graphnas (sane space)" in labels
        assert len(labels) == 4


class TestTable10:
    def test_rows_present(self):
        result = run_table10(SMOKE, datasets=("cora",))
        labels = list(result.table.cells)
        assert set(labels) == {"random (mlp)", "bayesian (mlp)", "sane"}


class TestFigure2:
    def test_render_architecture(self):
        arch = Architecture(("gcn", "gat"), ("identity", "zero"), "max")
        text = render_architecture(arch, "cora")
        assert "-[gcn]->" in text
        assert "ZERO, dropped" in text
        assert "max" in text

    def test_run(self):
        result = run_figure2(SMOKE, datasets=("cora",))
        assert "cora" in result.architectures
        assert "Figure 2" in result.render()


class TestFigure3:
    def test_trajectories(self):
        result = run_figure3(SMOKE, datasets=("cora",), num_sane_checkpoints=2)
        methods = result.trajectories["cora"]
        assert set(methods) == {"random", "bayesian", "graphnas", "sane"}
        for series in methods.values():
            assert series
            times = [t for t, __ in series]
            assert times == sorted(times)
        assert result.final_scores("cora")["sane"] >= 0


class TestFigure4:
    def test_epsilon_ablation(self):
        result = run_figure4a(SMOKE, datasets=("cora",), epsilons=(0.0, 1.0))
        means = result.means("cora")
        assert set(means) == {0.0, 1.0}
        assert "epsilon" in result.render()

    def test_depth_ablation(self):
        result = run_figure4b(SMOKE, datasets=("cora",), depths=(1, 3))
        means = result.means("cora")
        assert set(means) == {1, 3}
