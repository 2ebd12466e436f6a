"""GraphCache precomputation and LayerContext gather sharing."""

import numpy as np
import pytest

from repro.autograd.kernels import peek_plan
from repro.autograd.tensor import Tensor
from repro.gnn.aggregators import create_node_aggregator
from repro.gnn.common import GraphCache, LayerContext
from repro.graph.data import Graph
from tests.naive_kernels import planned_and_oracle


@pytest.fixture
def cache(tiny_graph):
    return GraphCache(tiny_graph)


class TestGraphCachePlans:
    def test_plans_match_edge_arrays(self, cache):
        for ids, plan in (
            (cache.src, cache.src_plan),
            (cache.dst, cache.dst_plan),
            (cache.nbr_src, cache.nbr_src_plan),
            (cache.nbr_dst, cache.nbr_dst_plan),
        ):
            assert plan.segment_ids is ids
            assert plan.num_segments == cache.num_nodes
            np.testing.assert_array_equal(
                plan.counts, np.bincount(ids, minlength=cache.num_nodes)
            )

    def test_plans_registered_in_memo(self, cache):
        # Plan-less call sites passing the cached arrays hit the memo.
        assert peek_plan(cache.dst, cache.num_nodes) is cache.dst_plan
        assert peek_plan(cache.nbr_src, cache.num_nodes) is cache.nbr_src_plan

    def test_edge_arrays_are_int64(self, cache):
        for ids in (cache.src, cache.dst, cache.nbr_src, cache.nbr_dst):
            assert ids.dtype == np.int64
            assert ids.flags.c_contiguous

    def test_in_degrees_cached(self, cache):
        degrees = cache.dst_plan.counts_float
        np.testing.assert_array_equal(
            degrees, np.bincount(cache.dst, minlength=cache.num_nodes)
        )
        assert cache.dst_plan.counts_float is degrees
        without = cache.nbr_dst_plan.counts_float
        np.testing.assert_array_equal(
            without, np.bincount(cache.nbr_dst, minlength=cache.num_nodes)
        )
        np.testing.assert_array_equal(degrees, without + 1.0)

    def test_head_layout_single_head_is_dst(self, cache):
        seg, plan = cache.head_layout(1)
        assert seg is cache.dst
        assert plan is cache.dst_plan

    def test_head_layout_multi_head(self, cache):
        heads = 4
        seg, plan = cache.head_layout(heads)
        num_edges = len(cache.dst)
        assert seg.shape == (heads * num_edges,)
        expected = (
            np.repeat(np.arange(heads), num_edges) * cache.num_nodes
            + np.tile(cache.dst, heads)
        )
        np.testing.assert_array_equal(seg, expected)
        assert plan.num_segments == heads * cache.num_nodes
        # Memoised: the same objects come back.
        seg2, plan2 = cache.head_layout(heads)
        assert seg2 is seg and plan2 is plan


class TestLayerContext:
    def test_source_features_memoised(self, cache):
        x = Tensor(np.random.default_rng(0).normal(size=(cache.num_nodes, 6)))
        ctx = LayerContext(x, cache)
        with_loops = ctx.source_features(self_loops=True)
        without = ctx.source_features(self_loops=False)
        assert ctx.source_features(self_loops=True) is with_loops
        assert ctx.source_features(self_loops=False) is without
        np.testing.assert_array_equal(with_loops.data, x.data[cache.src])
        np.testing.assert_array_equal(without.data, x.data[cache.nbr_src])

    @pytest.mark.parametrize("name", ["sage-sum", "sage-mean", "sage-max", "gin"])
    def test_aggregator_output_same_with_and_without_ctx(self, name, rng, cache):
        aggregator = create_node_aggregator(name, 6, 5, rng)
        x = Tensor(
            np.random.default_rng(1).normal(size=(cache.num_nodes, 6))
        )
        plain = aggregator(x, cache)
        shared = aggregator(x, cache, LayerContext(x, cache))
        np.testing.assert_allclose(shared.data, plain.data, atol=1e-12, rtol=0)

    def test_candidates_share_one_gather_node(self, rng, cache):
        x = Tensor(
            np.random.default_rng(2).normal(size=(cache.num_nodes, 6)),
            requires_grad=True,
        )
        ctx = LayerContext(x, cache)
        a = create_node_aggregator("sage-sum", 6, 5, rng)
        b = create_node_aggregator("sage-mean", 6, 5, rng)
        # Both ops start from the same strict-neighbor gather; the
        # shared tape node means gradients agree with the unshared run.
        loss = (a(x, cache, ctx) + b(x, cache, ctx)).sum()
        loss.backward()
        shared_grad = x.grad.copy()

        x2 = Tensor(x.data.copy(), requires_grad=True)
        loss2 = (a(x2, cache) + b(x2, cache)).sum()
        loss2.backward()
        np.testing.assert_allclose(shared_grad, x2.grad, atol=1e-9, rtol=0)

    def test_stale_context_is_ignored(self, rng, cache):
        aggregator = create_node_aggregator("sage-sum", 6, 5, rng)
        gen = np.random.default_rng(3)
        x = Tensor(gen.normal(size=(cache.num_nodes, 6)))
        other = Tensor(gen.normal(size=(cache.num_nodes, 6)))
        stale = LayerContext(other, cache)  # built for a different tensor
        out = aggregator(x, cache, stale)
        np.testing.assert_allclose(
            out.data, aggregator(x, cache).data, atol=1e-12, rtol=0
        )


class TestBackendEquivalenceOnGraph:
    def test_all_aggregators_agree_across_backends(self, rng, cache):
        x = Tensor(np.random.default_rng(4).normal(size=(cache.num_nodes, 6)))
        from repro.gnn.aggregators import NODE_AGGREGATORS

        for name in sorted(NODE_AGGREGATORS):
            aggregator = create_node_aggregator(
                name, 6, 4, np.random.default_rng(5)
            )
            planned, oracle = planned_and_oracle(
                lambda: aggregator(x, cache).data
            )
            np.testing.assert_allclose(
                planned, oracle, atol=1e-9, rtol=0, err_msg=name
            )

    def test_isolated_node_graph(self, rng):
        # Node 3 has no edges at all; node 2 only receives.
        graph = Graph(
            edge_index=np.array([[0, 1], [2, 2]]), features=np.ones((4, 3))
        )
        cache = GraphCache(graph)
        x = Tensor(np.random.default_rng(6).normal(size=(4, 3)))
        for name in ("sage-max", "gcn", "gat", "gin"):
            aggregator = create_node_aggregator(
                name, 3, 3, np.random.default_rng(7)
            )
            planned, oracle = planned_and_oracle(
                lambda: aggregator(x, cache).data
            )
            np.testing.assert_allclose(
                planned, oracle, atol=1e-9, rtol=0, err_msg=name
            )
            assert np.isfinite(planned).all()
