"""Algorithm 1: the bi-level differentiable search loop."""

import numpy as np
import pytest

from repro.core.search import SaneSearcher, SearchConfig, derive_from_alphas
from repro.core.search_space import SearchSpace

SMALL_SPACE = SearchSpace(
    num_layers=2, node_ops=("gcn", "gat", "sage-mean"), layer_ops=("concat", "max")
)
FAST = SearchConfig(epochs=4, hidden_dim=8, dropout=0.1)


class TestSearchLoop:
    def test_returns_architecture_in_space(self, tiny_graph):
        result = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=0).search()
        assert SMALL_SPACE.contains(result.architecture)

    def test_history_and_snapshots_lengths(self, tiny_graph):
        result = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=0).search()
        assert len(result.history) == FAST.epochs
        assert len(result.alpha_snapshots) == FAST.epochs
        times = [t for t, __ in result.history]
        assert times == sorted(times)

    def test_search_time_positive(self, tiny_graph):
        result = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=0).search()
        assert result.search_time > 0

    def test_alphas_move_when_epsilon_zero(self, tiny_graph):
        searcher = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=0)
        before = searcher.supernet.alpha_node.data.copy()
        searcher.search()
        after = searcher.supernet.alpha_node.data
        assert not np.allclose(before, after)

    def test_alphas_frozen_when_epsilon_one(self, tiny_graph):
        config = FAST.replace(epsilon=1.0)
        searcher = SaneSearcher(SMALL_SPACE, tiny_graph, config, seed=0)
        before = searcher.supernet.alpha_node.data.copy()
        searcher.search()
        np.testing.assert_allclose(searcher.supernet.alpha_node.data, before)

    def test_weights_train_even_with_epsilon_one(self, tiny_graph):
        config = FAST.replace(epsilon=1.0)
        searcher = SaneSearcher(SMALL_SPACE, tiny_graph, config, seed=0)
        before = searcher.supernet.input_proj.weight.data.copy()
        searcher.search()
        assert not np.allclose(searcher.supernet.input_proj.weight.data, before)

    def test_deterministic_given_seed(self, tiny_graph):
        a = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=3).search()
        b = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=3).search()
        assert a.architecture == b.architecture

    def test_inductive_mode(self, tiny_ppi):
        result = SaneSearcher(SMALL_SPACE, tiny_ppi, FAST, seed=0).search()
        assert SMALL_SPACE.contains(result.architecture)
        assert len(result.history) == FAST.epochs

    def test_rejects_unknown_data(self):
        with pytest.raises(TypeError, match="search over"):
            SaneSearcher(SMALL_SPACE, [1, 2, 3], FAST)

    def test_validation_score_in_unit_interval(self, tiny_graph):
        searcher = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=0)
        score = searcher.validation_score()
        assert 0.0 <= score <= 1.0


class TestDeriveAt:
    def test_final_snapshot_matches_result(self, tiny_graph):
        result = SaneSearcher(SMALL_SPACE, tiny_graph, FAST, seed=0).search()
        rederived = derive_from_alphas(
            SMALL_SPACE, result.alpha_snapshots[-1], np.random.default_rng(0)
        )
        # Non-tied alphas derive deterministically.
        assert rederived == result.architecture


class TestDeriveTieBreaking:
    """Tied alpha rows break randomly — but reproducibly under one seed."""

    TIED = {
        "node": np.zeros((2, 3)),  # every op tied on every edge
        "skip": np.zeros((2, 2)),
        "layer": np.zeros((1, 2)),
    }

    def test_same_seed_derives_same_architecture(self):
        first = derive_from_alphas(
            SMALL_SPACE, self.TIED, np.random.default_rng(42)
        )
        second = derive_from_alphas(
            SMALL_SPACE, self.TIED, np.random.default_rng(42)
        )
        assert first == second

    def test_identical_tied_rows_pick_identically_within_one_call(self):
        # Two rows with the same tie set must not depend on row order in a
        # way a reseeded rng would hide: re-running the whole derivation
        # with the same seed reproduces every row's pick.
        for seed in range(5):
            archs = [
                derive_from_alphas(
                    SMALL_SPACE, self.TIED, np.random.default_rng(seed)
                )
                for __ in range(2)
            ]
            assert archs[0] == archs[1]
            assert SMALL_SPACE.contains(archs[0])

    def test_different_seeds_can_differ(self):
        picks = {
            derive_from_alphas(SMALL_SPACE, self.TIED, np.random.default_rng(s))
            for s in range(20)
        }
        assert len(picks) > 1  # the tie really is broken randomly

    def test_default_rng_is_seeded_and_stable(self):
        # rng=None falls back to a fixed seed — calling twice must agree.
        assert derive_from_alphas(SMALL_SPACE, self.TIED) == derive_from_alphas(
            SMALL_SPACE, self.TIED
        )


class TestSearchConfig:
    def test_replace(self):
        config = SearchConfig(epochs=10)
        assert config.replace(epochs=5).epochs == 5
        assert config.epochs == 10
