"""Differentiable search adapted to entity alignment."""

import numpy as np
import pytest

from repro.kg.data import generate_alignment_dataset
from repro.kg.search import AlignSearchConfig, AlignSupernet, search_alignment


@pytest.fixture(scope="module")
def dataset():
    return generate_alignment_dataset(seed=0, num_core=80, extra_1=10, extra_2=20)


FAST = AlignSearchConfig(
    epochs=3, num_layers=2, embedding_dim=12, node_ops=("gcn", "gat", "sage-mean")
)


class TestAlignSupernet:
    def test_parameter_groups_disjoint(self, dataset):
        net = AlignSupernet(dataset, FAST, np.random.default_rng(0))
        arch_ids = {id(p) for p in net.arch_parameters()}
        weight_ids = {id(p) for p in net.weight_parameters()}
        assert not arch_ids & weight_ids
        assert arch_ids | weight_ids == {id(p) for p in net.parameters()}

    def test_encode_shapes(self, dataset):
        net = AlignSupernet(dataset, FAST, np.random.default_rng(0))
        z1, z2 = net.encode()
        assert z1.shape == (dataset.kg1.num_entities, 12)
        assert z2.shape == (dataset.kg2.num_entities, 12)

    def test_derive_valid_ops(self, dataset):
        net = AlignSupernet(dataset, FAST, np.random.default_rng(0))
        ops_ = net.derive()
        assert len(ops_) == 2
        assert set(ops_) <= set(FAST.node_ops)

    def test_derive_follows_alpha(self, dataset):
        net = AlignSupernet(dataset, FAST, np.random.default_rng(0))
        net.alpha_node.data[:] = 0.0
        net.alpha_node.data[0, 1] = 3.0
        net.alpha_node.data[1, 2] = 3.0
        assert net.derive() == ("gat", "sage-mean")


class TestSearchAlignment:
    def test_runs_and_records_history(self, dataset):
        result = search_alignment(dataset, FAST, seed=0)
        assert len(result.node_aggregators) == 2
        assert len(result.history) == FAST.epochs
        assert result.search_time > 0

    def test_deterministic(self, dataset):
        a = search_alignment(dataset, FAST, seed=5)
        b = search_alignment(dataset, FAST, seed=5)
        assert a.node_aggregators == b.node_aggregators
