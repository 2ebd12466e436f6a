"""The SANE supernet: mixtures, parameter groups, derivation."""

import numpy as np
import pytest

from repro.core.search_space import SearchSpace
from repro.core.supernet import SaneSupernet
from repro.gnn.common import GraphCache
from repro.obs import InMemorySink, get_monitor, get_tracer

SMALL_SPACE = SearchSpace(
    num_layers=2, node_ops=("gcn", "gat", "sage-mean"), layer_ops=("concat", "max")
)


def make_supernet(tiny_graph, seed=0, **kwargs):
    return SaneSupernet(
        space=kwargs.pop("space", SMALL_SPACE),
        in_dim=tiny_graph.num_features,
        hidden_dim=8,
        num_classes=tiny_graph.num_classes,
        rng=np.random.default_rng(seed),
        **kwargs,
    )


class TestConstruction:
    def test_alpha_shapes(self, tiny_graph):
        net = make_supernet(tiny_graph)
        assert net.alpha_node.shape == (2, 3)
        assert net.alpha_skip.shape == (2, 2)
        assert net.alpha_layer.shape == (1, 2)

    def test_candidate_counts(self, tiny_graph):
        net = make_supernet(tiny_graph)
        assert len(net.node_candidates) == 2
        assert all(len(layer) == 3 for layer in net.node_candidates)
        assert len(net.layer_candidates) == 2

    def test_invalid_epsilon(self, tiny_graph):
        with pytest.raises(ValueError, match="epsilon"):
            make_supernet(tiny_graph, epsilon=1.5)


class TestOpScopes:
    def test_forward_opens_one_op_span_per_candidate_mixture_and_skip(
        self, tiny_graph, tiny_cache
    ):
        space = SearchSpace(num_layers=3)
        net = make_supernet(tiny_graph, space=space)
        assert get_monitor() is None  # scopes do not depend on a monitor
        sink = InMemorySink()
        with get_tracer().collect(sink):
            net(tiny_graph.features, tiny_cache)
        scopes = [
            (span.attrs["edge"], span.attrs["layer"], span.attrs["op"])
            for span in sink.spans
            if span.name == "op" and span.kind == "op"
        ]
        expected = []
        for layer in range(3):
            node = f"node/{layer}"
            expected += [(node, layer, op) for op in space.node_ops]
            expected.append((node, layer, "mixture"))
        expected += [(f"skip/{layer}", layer, "identity") for layer in range(3)]
        expected += [("layer/0", None, op) for op in space.layer_ops]
        expected.append(("layer/0", None, "mixture"))
        assert len(scopes) == 43
        assert scopes == expected


class TestParameterGroups:
    def test_disjoint_and_complete(self, tiny_graph):
        net = make_supernet(tiny_graph)
        arch_ids = {id(p) for p in net.arch_parameters()}
        weight_ids = {id(p) for p in net.weight_parameters()}
        assert not arch_ids & weight_ids
        all_ids = {id(p) for p in net.parameters()}
        assert arch_ids | weight_ids == all_ids

    def test_arch_parameters_are_the_alphas(self, tiny_graph):
        net = make_supernet(tiny_graph)
        assert len(net.arch_parameters()) == 3


class TestForward:
    def test_output_shape(self, tiny_graph, tiny_cache):
        net = make_supernet(tiny_graph)
        out = net(tiny_graph.features, tiny_cache)
        assert out.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)

    def test_gradients_reach_alphas_and_weights(self, tiny_graph, tiny_cache):
        net = make_supernet(tiny_graph)
        net(tiny_graph.features, tiny_cache).sum().backward()
        assert net.alpha_node.grad is not None
        assert net.alpha_skip.grad is not None
        assert net.alpha_layer.grad is not None
        assert net.input_proj.weight.grad is not None

    def test_eval_deterministic(self, tiny_graph, tiny_cache):
        net = make_supernet(tiny_graph)
        net.eval()
        a = net(tiny_graph.features, tiny_cache).data
        b = net(tiny_graph.features, tiny_cache).data
        np.testing.assert_allclose(a, b)

    def test_alpha_concentration_recovers_single_op(self, tiny_graph, tiny_cache):
        """With one-hot-ish alphas the mixture equals the single op path."""
        net = make_supernet(tiny_graph, dropout=0.0, normalize_ops=False)
        net.eval()
        net.alpha_node.data[:] = 0.0
        net.alpha_node.data[:, 0] = 60.0  # softmax -> ~1 on 'gcn'
        out_mixture = net(tiny_graph.features, tiny_cache).data

        # Manually run the gcn-only path.
        from repro.autograd import Tensor, functional as F, ops

        h = F.relu(net.input_proj(Tensor(tiny_graph.features)))
        skips = []
        for layer_index in range(2):
            h = F.relu(net.node_candidates[layer_index][0](h, tiny_cache))
            weights = F.softmax(ops.getitem(net.alpha_skip, layer_index), axis=-1)
            skips.append(h * weights[0])
        layer_weights = F.softmax(ops.getitem(net.alpha_layer, 0), axis=-1)
        mixed = None
        for i, (agg, proj) in enumerate(zip(net.layer_candidates, net.layer_projections)):
            term = proj(agg(skips)) * layer_weights[i]
            mixed = term if mixed is None else mixed + term
        expected = net.classifier(mixed).data
        np.testing.assert_allclose(out_mixture, expected, atol=1e-8)


class TestEpsilon:
    def test_epsilon_one_uses_one_hot_mixtures(self, tiny_graph, tiny_cache):
        net = make_supernet(tiny_graph, epsilon=1.0)
        net.train()
        # One-hot mixtures pass no gradient to alpha.
        net(tiny_graph.features, tiny_cache).sum().backward()
        assert net.alpha_node.grad is None or np.allclose(net.alpha_node.grad, 0.0)

    def test_epsilon_ignored_in_eval(self, tiny_graph, tiny_cache):
        net = make_supernet(tiny_graph, epsilon=1.0, dropout=0.0)
        net.eval()
        a = net(tiny_graph.features, tiny_cache).data
        b = net(tiny_graph.features, tiny_cache).data
        np.testing.assert_allclose(a, b)


class TestDerivation:
    def test_derive_picks_argmax(self, tiny_graph):
        net = make_supernet(tiny_graph)
        net.alpha_node.data[:] = 0.0
        net.alpha_node.data[0, 1] = 5.0  # gat at layer 0
        net.alpha_node.data[1, 2] = 5.0  # sage-mean at layer 1
        net.alpha_skip.data[:] = 0.0
        net.alpha_skip.data[:, 0] = 5.0  # identity
        net.alpha_layer.data[:] = 0.0
        net.alpha_layer.data[0, 1] = 5.0  # max
        arch = net.derive(np.random.default_rng(0))
        assert arch.node_aggregators == ("gat", "sage-mean")
        assert arch.skip_connections == ("identity", "identity")
        assert arch.layer_aggregator == "max"

    def test_derive_is_member_of_space(self, tiny_graph):
        net = make_supernet(tiny_graph)
        assert SMALL_SPACE.contains(net.derive(np.random.default_rng(0)))

    def test_uniform_alpha_ties_break_randomly(self, tiny_graph):
        net = make_supernet(tiny_graph)
        net.alpha_node.data[:] = 0.0
        net.alpha_skip.data[:] = 0.0
        net.alpha_layer.data[:] = 0.0
        rng = np.random.default_rng(0)
        derived = {net.derive(rng) for __ in range(30)}
        assert len(derived) > 1  # not stuck on index 0

    def test_derive_topk_ordering(self, tiny_graph):
        net = make_supernet(tiny_graph)
        top = net.derive_topk(5)
        assert len(top) == 5
        assert len(set(top)) == 5

    def test_derive_topk_first_matches_argmax(self, tiny_graph):
        net = make_supernet(tiny_graph)
        net.alpha_node.data[:] = np.random.default_rng(2).normal(size=net.alpha_node.shape)
        net.alpha_skip.data[:] = np.random.default_rng(3).normal(size=net.alpha_skip.shape)
        net.alpha_layer.data[:] = np.random.default_rng(4).normal(size=net.alpha_layer.shape)
        top1 = net.derive_topk(1)[0]
        argmax = net.derive(np.random.default_rng(0))
        assert top1 == argmax

    def test_derive_topk_validates_k(self, tiny_graph):
        with pytest.raises(ValueError, match="k must be"):
            make_supernet(tiny_graph).derive_topk(0)

    def test_derive_topk_matches_brute_force(self, tiny_graph):
        """The lazy k-best expansion equals exhaustive ranking."""
        net = make_supernet(tiny_graph)
        rng = np.random.default_rng(9)
        net.alpha_node.data[:] = rng.normal(size=net.alpha_node.shape)
        net.alpha_skip.data[:] = rng.normal(size=net.alpha_skip.shape)
        net.alpha_layer.data[:] = rng.normal(size=net.alpha_layer.shape)

        def softmax(alpha):
            exp = np.exp(alpha - alpha.max(axis=-1, keepdims=True))
            return exp / exp.sum(axis=-1, keepdims=True)

        w_node = softmax(net.alpha_node.data)
        w_skip = softmax(net.alpha_skip.data)
        w_layer = softmax(net.alpha_layer.data)
        scored = []
        for arch in SMALL_SPACE.enumerate():
            score = w_layer[0][SMALL_SPACE.layer_ops.index(arch.layer_aggregator)]
            for i, (node, skip) in enumerate(
                zip(arch.node_aggregators, arch.skip_connections)
            ):
                score *= w_node[i][SMALL_SPACE.node_ops.index(node)]
                score *= w_skip[i][SMALL_SPACE.skip_ops.index(skip)]
            scored.append((score, arch))
        scored.sort(key=lambda pair: -pair[0])
        expected = [arch for __, arch in scored[:6]]
        assert net.derive_topk(6) == expected

    def test_derive_topk_scales_to_deep_spaces(self, tiny_graph):
        """K=6 (3.4e8 architectures) must not enumerate."""
        import time

        from repro.core.search_space import SearchSpace as FullSpace

        space = FullSpace(num_layers=6)
        net = SaneSupernet(
            space, tiny_graph.num_features, 8, tiny_graph.num_classes,
            np.random.default_rng(0),
        )
        started = time.perf_counter()
        top = net.derive_topk(4)
        assert time.perf_counter() - started < 5.0
        assert len(top) == 4
        assert len(set(top)) == 4
