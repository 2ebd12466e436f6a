"""Hypothesis property tests for GNN layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.gnn.aggregators import create_node_aggregator
from repro.gnn.common import GraphCache
from repro.graph.data import Graph
from repro.graph.utils import to_undirected

FAST_OPS = ("gcn", "gat", "gin", "sage-mean", "sage-sum", "sage-max")


def random_graph(num_nodes, num_edges, num_features, seed):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, num_nodes, size=(2, max(1, num_edges)))
    keep = edges[0] != edges[1]
    if not keep.any():
        edges = np.array([[0], [min(1, num_nodes - 1)]])
    else:
        edges = edges[:, keep]
    return Graph(
        edge_index=to_undirected(edges, num_nodes),
        features=rng.normal(size=(num_nodes, num_features)),
    )


@given(
    st.sampled_from(FAST_OPS),
    st.integers(3, 20),
    st.integers(1, 40),
    st.integers(0, 20),
)
@settings(max_examples=40, deadline=None)
def test_aggregator_output_finite_and_shaped(op, num_nodes, num_edges, seed):
    graph = random_graph(num_nodes, num_edges, 4, seed)
    agg = create_node_aggregator(op, 4, 6, np.random.default_rng(0))
    out = agg(Tensor(graph.features), GraphCache(graph))
    assert out.shape == (num_nodes, 6)
    assert np.isfinite(out.data).all()


@given(st.sampled_from(FAST_OPS), st.integers(0, 10))
@settings(max_examples=30, deadline=None)
def test_aggregator_backward_produces_finite_grads(op, seed):
    graph = random_graph(8, 14, 3, seed)
    agg = create_node_aggregator(op, 3, 4, np.random.default_rng(1))
    x = Tensor(graph.features, requires_grad=True)
    agg(x, GraphCache(graph)).sum().backward()
    assert x.grad is not None
    assert np.isfinite(x.grad).all()


@given(st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_gcn_feature_scaling_homogeneity(seed):
    """GCN without bias is 1-homogeneous in its input features."""
    graph = random_graph(10, 20, 3, seed)
    agg = create_node_aggregator("gcn", 3, 4, np.random.default_rng(2))
    agg.lin.bias.data[:] = 0.0
    cache = GraphCache(graph)
    out1 = agg(Tensor(graph.features), cache).data
    out3 = agg(Tensor(3.0 * graph.features), cache).data
    np.testing.assert_allclose(out3, 3.0 * out1, atol=1e-8)


@given(st.integers(0, 10))
@settings(max_examples=10, deadline=None)
def test_gat_attention_is_scale_free_in_uniform_case(seed):
    """On constant features every GAT output row is identical."""
    rng = np.random.default_rng(seed)
    graph = random_graph(8, 16, 3, seed)
    constant = Graph(
        edge_index=graph.edge_index, features=np.ones_like(graph.features)
    )
    agg = create_node_aggregator("gat", 3, 4, np.random.default_rng(3))
    out = agg(Tensor(constant.features), GraphCache(constant)).data
    np.testing.assert_allclose(out, np.tile(out[0], (len(out), 1)), atol=1e-9)
