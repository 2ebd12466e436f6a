"""Learning-rate schedule."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.nn.schedulers import CosineAnnealingLR, create_scheduler


def make_optimizer(lr=0.1):
    return Adam([Parameter(np.zeros(1))], lr=lr)


class TestCosine:
    def test_anneals_to_eta_min(self):
        optimizer = make_optimizer(0.1)
        scheduler = CosineAnnealingLR(optimizer, t_max=10, eta_min=0.001)
        rates = [scheduler.step() for __ in range(10)]
        assert rates[0] < 0.1  # already decayed after first epoch
        assert abs(rates[-1] - 0.001) < 1e-12
        assert rates == sorted(rates, reverse=True)

    def test_clamps_beyond_t_max(self):
        optimizer = make_optimizer(0.1)
        scheduler = CosineAnnealingLR(optimizer, t_max=3, eta_min=0.0)
        for __ in range(5):
            rate = scheduler.step()
        assert rate == 0.0

    def test_validates_t_max(self):
        with pytest.raises(ValueError, match="t_max"):
            CosineAnnealingLR(make_optimizer(), t_max=0)


class TestFactory:
    def test_none_and_constant(self):
        assert create_scheduler(None, make_optimizer(), 10) is None
        assert create_scheduler("constant", make_optimizer(), 10) is None

    def test_by_name(self):
        assert isinstance(create_scheduler("cosine", make_optimizer(), 10), CosineAnnealingLR)

    def test_unknown(self):
        with pytest.raises(ValueError, match="lr schedule"):
            create_scheduler("exponential", make_optimizer(), 10)


class TestSearcherIntegration:
    def test_cosine_schedule_in_search(self, tiny_graph):
        from repro.core.search import SaneSearcher, SearchConfig
        from repro.core.search_space import SearchSpace

        space = SearchSpace(num_layers=1, node_ops=("gcn", "gat"))
        config = SearchConfig(epochs=3, hidden_dim=8, w_lr_schedule="cosine")
        searcher = SaneSearcher(space, tiny_graph, config, seed=0)
        initial_lr = searcher._w_optimizer.lr
        searcher.search()
        assert searcher._w_optimizer.lr < initial_lr
