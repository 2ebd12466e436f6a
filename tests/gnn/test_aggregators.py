"""The 11 node aggregators: shapes, gradients, semantics, equivariance."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.search_space import NODE_OPS
from repro.gnn.aggregators import (
    NODE_AGGREGATORS,
    GATAggregator,
    GCNAggregator,
    GINAggregator,
    SageAggregator,
    create_node_aggregator,
)
from repro.gnn.common import GraphCache
from repro.graph.data import Graph


@pytest.fixture
def cache(path_graph):
    return GraphCache(path_graph)


ALL_OPS = sorted(NODE_AGGREGATORS)


class TestRegistry:
    def test_contains_the_11_paper_ops(self):
        assert set(NODE_OPS) == set(NODE_AGGREGATORS)
        assert len(NODE_OPS) == 11

    def test_unknown_name_raises(self, rng):
        with pytest.raises(ValueError, match="unknown node aggregator"):
            create_node_aggregator("conv2d", 4, 4, rng)


class TestAllAggregators:
    @pytest.mark.parametrize("name", ALL_OPS)
    def test_output_shape(self, name, rng, path_graph, cache):
        agg = create_node_aggregator(name, 2, 6, rng)
        out = agg(Tensor(path_graph.features), cache)
        assert out.shape == (5, 6)

    @pytest.mark.parametrize("name", ALL_OPS)
    def test_gradients_reach_every_parameter(self, name, rng, path_graph, cache):
        agg = create_node_aggregator(name, 2, 4, rng)
        out = agg(Tensor(path_graph.features, requires_grad=True), cache)
        out.sum().backward()
        for param_name, param in agg.named_parameters():
            assert param.grad is not None, f"{name}: no grad for {param_name}"

    @pytest.mark.parametrize("name", ALL_OPS)
    def test_permutation_equivariance(self, name, rng, tiny_graph):
        """Relabelling nodes permutes the output rows identically."""
        seed_rng = np.random.default_rng(5)
        agg = create_node_aggregator(name, tiny_graph.num_features, 4, seed_rng)

        out = agg(Tensor(tiny_graph.features), GraphCache(tiny_graph)).data

        perm = np.random.default_rng(1).permutation(tiny_graph.num_nodes)
        permuted = Graph(
            edge_index=perm[tiny_graph.edge_index],
            features=tiny_graph.features[np.argsort(perm)],
            labels=None,
            name="perm",
        )
        out_perm = agg(Tensor(permuted.features), GraphCache(permuted)).data
        np.testing.assert_allclose(out_perm, out[np.argsort(perm)], atol=1e-8)

    @pytest.mark.parametrize("name", ALL_OPS)
    def test_deterministic_forward(self, name, rng, path_graph, cache):
        agg = create_node_aggregator(name, 2, 4, np.random.default_rng(3))
        a = agg(Tensor(path_graph.features), cache).data
        b = agg(Tensor(path_graph.features), cache).data
        np.testing.assert_allclose(a, b)


class TestSage:
    def test_rejects_bad_reduction(self, rng):
        with pytest.raises(ValueError, match="reduction"):
            SageAggregator(2, 2, rng, reduce="median")

    def test_isolated_node_uses_self_only(self, rng):
        g = Graph(
            edge_index=np.zeros((2, 0), dtype=np.int64),
            features=np.ones((2, 3)),
        )
        agg = SageAggregator(3, 4, rng, reduce="mean")
        out = agg(Tensor(g.features), GraphCache(g))
        expected = agg.lin_self(Tensor(g.features))
        np.testing.assert_allclose(out.data, expected.data)

    def test_sum_scales_with_neighbor_count(self, rng):
        # Star graph: node 0 has 1 vs 3 identical neighbors.
        g1 = Graph(edge_index=np.array([[1], [0]]), features=np.ones((4, 2)))
        g3 = Graph(edge_index=np.array([[1, 2, 3], [0, 0, 0]]), features=np.ones((4, 2)))
        agg = SageAggregator(2, 2, np.random.default_rng(0), reduce="sum")
        out1 = agg(Tensor(g1.features), GraphCache(g1)).data[0]
        out3 = agg(Tensor(g3.features), GraphCache(g3)).data[0]
        self_part = agg.lin_self(Tensor(np.ones((1, 2)))).data[0]
        np.testing.assert_allclose(out3 - self_part, 3 * (out1 - self_part), atol=1e-9)


class TestGCN:
    def test_constant_features_stay_constantish(self, rng):
        """GCN of constant signal on a regular graph preserves it (up to W)."""
        # 4-cycle: every node has degree 2 (+self-loop = 3).
        edges = np.array([[0, 1, 1, 2, 2, 3, 3, 0], [1, 0, 2, 1, 3, 2, 0, 3]])
        g = Graph(edge_index=edges, features=np.ones((4, 2)))
        agg = GCNAggregator(2, 3, rng)
        out = agg(Tensor(g.features), GraphCache(g)).data
        np.testing.assert_allclose(out, np.tile(out[0], (4, 1)), atol=1e-9)

    def test_linear_in_features(self, rng, path_graph, cache):
        agg = GCNAggregator(2, 3, rng)
        agg.lin.bias.data[:] = 0.0
        x = path_graph.features
        out1 = agg(Tensor(x), cache).data
        out2 = agg(Tensor(2 * x), cache).data
        np.testing.assert_allclose(out2, 2 * out1, atol=1e-9)


class TestGAT:
    def test_all_variants_listed(self):
        assert set(GATAggregator.VARIANTS) == {
            "gat",
            "sym",
            "cos",
            "linear",
            "gen-linear",
        }

    def test_rejects_unknown_variant(self, rng):
        with pytest.raises(ValueError, match="variant"):
            GATAggregator(2, 4, rng, variant="multiplicative")

    def test_rejects_indivisible_heads(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            GATAggregator(2, 5, rng, heads=2)

    @pytest.mark.parametrize("variant", GATAggregator.VARIANTS)
    def test_identical_neighbors_give_projected_feature(self, variant, rng):
        """With all-equal features, attention output = W x (+ bias)."""
        edges = np.array([[0, 1, 1, 2], [1, 0, 2, 1]])
        g = Graph(edge_index=edges, features=np.ones((3, 2)))
        agg = GATAggregator(2, 4, np.random.default_rng(1), variant=variant)
        out = agg(Tensor(g.features), GraphCache(g)).data
        projected = agg.lin(Tensor(np.ones((1, 2)))).data + agg.bias.data
        np.testing.assert_allclose(out, np.tile(projected, (3, 1)), atol=1e-9)

    def test_multihead_output_shape(self, rng, path_graph):
        agg = GATAggregator(2, 8, rng, heads=4)
        out = agg(Tensor(path_graph.features), GraphCache(path_graph))
        assert out.shape == (5, 8)

    def test_heads_fallback_in_factory(self, rng):
        # out_dim=5 not divisible by heads=2: factory falls back to 1 head.
        agg = create_node_aggregator("gat", 3, 5, rng, heads=2)
        assert agg.heads == 1


class TestGIN:
    def test_matches_manual_computation(self, rng):
        g = Graph(edge_index=np.array([[0, 1], [1, 0]]), features=np.eye(2))
        agg = GINAggregator(2, 3, rng)
        agg.eps.data[:] = 0.25
        out = agg(Tensor(g.features), GraphCache(g)).data
        combined = (1.25 * np.eye(2)) + np.eye(2)[::-1]
        expected = agg.mlp(Tensor(combined)).data
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_eps_is_trainable(self, rng, path_graph, cache):
        agg = GINAggregator(2, 3, rng)
        agg(Tensor(path_graph.features), cache).sum().backward()
        assert agg.eps.grad is not None


class TestGeniePath:
    def test_output_bounded_by_lstm_tanh(self, rng, tiny_graph):
        agg = create_node_aggregator("geniepath", tiny_graph.num_features, 6, rng)
        out = agg(Tensor(tiny_graph.features), GraphCache(tiny_graph)).data
        assert (np.abs(out) <= 1.0 + 1e-9).all()
