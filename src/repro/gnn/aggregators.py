"""The 11 node aggregators of the SANE search space (paper Tables I & XI).

Each aggregator is a :class:`~repro.nn.module.Module` mapping node
features ``(N, in_dim)`` to pre-activation outputs ``(N, out_dim)``
given a :class:`~repro.gnn.common.GraphCache`. Following the official
SANE implementation, each candidate op owns its transform weights; the
supernet (:mod:`repro.core.supernet`) mixes op *outputs* per Eq. 2.

========== ====================================================
name        semantics (Table XI)
========== ====================================================
sage-sum    W_s x_v + W_n * sum_{u in N(v)} x_u
sage-mean   mean variant of the above
sage-max    max variant
gcn         D^-1/2 (A+I) D^-1/2 X W
gat         attention, e = LeakyReLU(a [W x_u || W x_v])
gat-sym     e_sym(u,v) = e_gat(u,v) + e_gat(v,u)
gat-cos     e = <W x_u, W' x_v>
gat-linear  e = tanh(a_l W x_u + a_r W x_v)
gat-gen-linear  e = w_g tanh(W_l x_u + W_r x_v)
gin         MLP((1 + eps) x_v + sum_{u in N(v)} x_u)
geniepath   GAT-style breadth (tanh) followed by LSTM depth gating
========== ====================================================
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd import ops
from repro.autograd.scatter import (
    gather,
    segment_attention_sum,
    segment_max,
    segment_softmax,
    segment_sum,
)
from repro.autograd.tensor import Tensor, as_tensor
from repro.gnn.common import GraphCache, LayerContext
from repro.nn import init
from repro.nn.layers import Linear, MLP
from repro.nn.lstm import LSTMCell
from repro.nn.module import Module, Parameter

__all__ = [
    "NodeAggregator",
    "SageAggregator",
    "GCNAggregator",
    "GATAggregator",
    "GINAggregator",
    "GeniePathAggregator",
    "NODE_AGGREGATORS",
    "create_node_aggregator",
]


class NodeAggregator(Module):
    """Base class; concrete aggregators implement :meth:`forward`.

    ``ctx`` is an optional :class:`~repro.gnn.common.LayerContext`: the
    supernet evaluates all candidate ops of a layer on the same input
    and passes one context so ops that gather the raw source features
    share a single tape node (one adjoint scatter per layer).
    """

    def __init__(self, in_dim: int, out_dim: int):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim

    def forward(
        self, x: Tensor, cache: GraphCache, ctx: LayerContext | None = None
    ) -> Tensor:
        raise NotImplementedError

    @staticmethod
    def _source_features(
        x: Tensor, cache: GraphCache, ctx: LayerContext | None, self_loops: bool
    ) -> Tensor:
        """Gathered source rows of ``x``, shared through ``ctx`` when valid."""
        if ctx is not None and ctx.x is x:
            return ctx.source_features(self_loops)
        if self_loops:
            return gather(x, cache.src, plan=cache.src_plan)
        return gather(x, cache.nbr_src, plan=cache.nbr_src_plan)


class SageAggregator(NodeAggregator):
    """GraphSAGE: separate root transform plus a neighbor reduction."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, reduce: str):
        super().__init__(in_dim, out_dim)
        if reduce not in ("sum", "mean", "max"):
            raise ValueError(f"unknown SAGE reduction {reduce!r}")
        self.reduce = reduce
        self.lin_self = Linear(in_dim, out_dim, rng)
        self.lin_neighbor = Linear(in_dim, out_dim, rng, bias=False)

    def forward(
        self, x: Tensor, cache: GraphCache, ctx: LayerContext | None = None
    ) -> Tensor:
        x = as_tensor(x)
        plan = cache.nbr_dst_plan
        shared = ctx is not None and ctx.x is x
        if self.reduce == "max":
            messages = self._source_features(x, cache, ctx, self_loops=False)
            agg = segment_max(messages, cache.nbr_dst, cache.num_nodes, plan)
        else:
            # SUM and MEAN share one scatter through the layer context
            # (mean is the shared sum scaled by in-degree).
            if shared:
                agg = ctx.neighbor_sum()
            else:
                messages = self._source_features(
                    x, cache, ctx, self_loops=False
                )
                agg = segment_sum(
                    messages, cache.nbr_dst, cache.num_nodes, plan
                )
            if self.reduce == "mean":
                agg = agg / plan.counts_clamped[:, None]
        return self.lin_self(x) + self.lin_neighbor(agg)


class GCNAggregator(NodeAggregator):
    """Kipf & Welling symmetric-normalised propagation."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__(in_dim, out_dim)
        self.lin = Linear(in_dim, out_dim, rng)

    def forward(
        self, x: Tensor, cache: GraphCache, ctx: LayerContext | None = None
    ) -> Tensor:
        h = self.lin(x)
        return segment_attention_sum(
            h,
            cache.gcn_weights,
            cache.src,
            cache.dst,
            cache.num_nodes,
            cache.src_plan,
            cache.dst_plan,
        )


class GATAggregator(NodeAggregator):
    """Multi-head attention aggregator with five scoring variants.

    ``variant`` selects the edge-score function of Table XI; attention
    is normalised over each destination's incoming ``G~`` edges and the
    heads' outputs are concatenated (``out_dim`` must be divisible by
    ``heads``).
    """

    VARIANTS = ("gat", "sym", "cos", "linear", "gen-linear")

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        variant: str = "gat",
        heads: int = 1,
        negative_slope: float = 0.2,
    ):
        super().__init__(in_dim, out_dim)
        if variant not in self.VARIANTS:
            raise ValueError(f"unknown GAT variant {variant!r}")
        if out_dim % heads != 0:
            raise ValueError(f"out_dim {out_dim} not divisible by heads {heads}")
        self.variant = variant
        self.heads = heads
        self.head_dim = out_dim // heads
        self.negative_slope = negative_slope
        self.lin = Linear(in_dim, out_dim, rng, bias=False)
        d = self.head_dim
        if variant == "cos":
            # Second projection so <W x_u, W' x_v> is not trivially symmetric.
            self.lin_dst = Linear(in_dim, out_dim, rng, bias=False)
        if variant in ("gat", "sym", "linear"):
            self.att_src = Parameter(init.xavier_uniform((self.heads, d), rng))
            self.att_dst = Parameter(init.xavier_uniform((self.heads, d), rng))
        if variant == "gen-linear":
            self.lin_src = Linear(in_dim, out_dim, rng, bias=False)
            self.lin_dst_score = Linear(in_dim, out_dim, rng, bias=False)
            self.w_g = Parameter(init.xavier_uniform((self.heads, d), rng))
        self.bias = Parameter(init.zeros((out_dim,)))

    def _edge_scores(self, x: Tensor, h_heads: Tensor, cache: GraphCache) -> Tensor:
        """Per-edge, per-head unnormalised attention scores ``(E, heads)``."""
        src, dst = cache.src, cache.dst
        src_plan, dst_plan = cache.src_plan, cache.dst_plan
        if self.variant in ("gat", "sym"):
            score_src = ops.sum(h_heads * self.att_src, axis=-1)  # (N, heads)
            score_dst = ops.sum(h_heads * self.att_dst, axis=-1)
            forward = F.leaky_relu(
                gather(score_src, src, src_plan) + gather(score_dst, dst, dst_plan),
                self.negative_slope,
            )
            if self.variant == "gat":
                return forward
            backward = F.leaky_relu(
                gather(score_src, dst, dst_plan) + gather(score_dst, src, src_plan),
                self.negative_slope,
            )
            return forward + backward
        if self.variant == "cos":
            h_dst = self.lin_dst(x).reshape(-1, self.heads, self.head_dim)
            return ops.sum(
                gather(h_heads, src, src_plan) * gather(h_dst, dst, dst_plan),
                axis=-1,
            )
        if self.variant == "linear":
            score_src = ops.sum(h_heads * self.att_src, axis=-1)
            score_dst = ops.sum(h_heads * self.att_dst, axis=-1)
            return ops.tanh(
                gather(score_src, src, src_plan) + gather(score_dst, dst, dst_plan)
            )
        # gen-linear
        h_src = self.lin_src(x).reshape(-1, self.heads, self.head_dim)
        h_dst = self.lin_dst_score(x).reshape(-1, self.heads, self.head_dim)
        hidden = ops.tanh(
            gather(h_src, src, src_plan) + gather(h_dst, dst, dst_plan)
        )
        return ops.sum(hidden * self.w_g, axis=-1)

    def forward(
        self, x: Tensor, cache: GraphCache, ctx: LayerContext | None = None
    ) -> Tensor:
        x = as_tensor(x)
        h = self.lin(x)
        h_heads = h.reshape(-1, self.heads, self.head_dim)
        scores = self._edge_scores(x, h_heads, cache)  # (E, heads)

        # Normalise per (destination, head) by flattening the two axes;
        # the flattened segment layout is cached on the graph.
        num_edges = len(cache.src)
        flat_scores = scores.transpose().reshape(num_edges * self.heads)
        seg, seg_plan = cache.head_layout(self.heads)
        attention = segment_softmax(
            flat_scores, seg, self.heads * cache.num_nodes, seg_plan
        )
        attention = attention.reshape(self.heads, num_edges).transpose()  # (E, heads)

        out = segment_attention_sum(
            h_heads,
            attention,
            cache.src,
            cache.dst,
            cache.num_nodes,
            cache.src_plan,
            cache.dst_plan,
        )
        return out.reshape(-1, self.heads * self.head_dim) + self.bias


class GINAggregator(NodeAggregator):
    """Graph Isomorphism Network: injective sum + MLP, trainable eps."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__(in_dim, out_dim)
        self.mlp = MLP([in_dim, out_dim, out_dim], rng, activation="relu")
        self.eps = Parameter(np.zeros(1))

    def forward(
        self, x: Tensor, cache: GraphCache, ctx: LayerContext | None = None
    ) -> Tensor:
        x = as_tensor(x)
        if ctx is not None and ctx.x is x:
            neighbor_sum = ctx.neighbor_sum()
        else:
            messages = self._source_features(x, cache, ctx, self_loops=False)
            neighbor_sum = segment_sum(
                messages, cache.nbr_dst, cache.num_nodes, cache.nbr_dst_plan
            )
        combined = (1.0 + self.eps) * x + neighbor_sum
        return self.mlp(combined)


class GeniePathAggregator(NodeAggregator):
    """GeniePath layer: attentive breadth + LSTM-gated depth.

    Breadth: GAT-style attention with a ``tanh`` score (adaptive
    receptive breadth). Depth: the attended message drives an LSTM-cell
    update whose hidden state is the layer output (adaptive depth
    filtering). Following the per-layer op granularity of the SANE
    search space, each instance owns its cell and starts from a zero
    memory state.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__(in_dim, out_dim)
        self.lin = Linear(in_dim, out_dim, rng, bias=False)
        self.att_src = Parameter(init.xavier_uniform((out_dim,), rng))
        self.att_dst = Parameter(init.xavier_uniform((out_dim,), rng))
        self.cell = LSTMCell(out_dim, out_dim, rng)
        # The depth LSTM starts from a zero state, so the input and
        # output gates sit at sigmoid(0) = 0.5 and the layer attenuates
        # its message by ~4x at init — stacked layers then barely train.
        # Biasing both gates open restores unit-scale signal flow.
        self.cell.bias.data[:out_dim] = 1.0
        self.cell.bias.data[3 * out_dim :] = 1.0

    def forward(
        self, x: Tensor, cache: GraphCache, ctx: LayerContext | None = None
    ) -> Tensor:
        h = self.lin(x)
        score_src = ops.sum(h * self.att_src.reshape(1, -1), axis=1)
        score_dst = ops.sum(h * self.att_dst.reshape(1, -1), axis=1)
        scores = ops.tanh(
            gather(score_src, cache.src, cache.src_plan)
            + gather(score_dst, cache.dst, cache.dst_plan)
        )
        attention = segment_softmax(
            scores, cache.dst, cache.num_nodes, cache.dst_plan
        )
        breadth = segment_attention_sum(
            h,
            attention,
            cache.src,
            cache.dst,
            cache.num_nodes,
            cache.src_plan,
            cache.dst_plan,
        )
        breadth = ops.tanh(breadth)
        state = self.cell.init_state(cache.num_nodes)
        hidden, __ = self.cell(breadth, state)
        return hidden


def _sage_factory(reduce: str):
    def factory(in_dim, out_dim, rng, heads=1):
        return SageAggregator(in_dim, out_dim, rng, reduce=reduce)

    return factory


def _gat_factory(variant: str):
    def factory(in_dim, out_dim, rng, heads=1):
        if out_dim % heads != 0:
            heads = 1
        return GATAggregator(in_dim, out_dim, rng, variant=variant, heads=heads)

    return factory


NODE_AGGREGATORS = {
    "sage-sum": _sage_factory("sum"),
    "sage-mean": _sage_factory("mean"),
    "sage-max": _sage_factory("max"),
    "gcn": lambda in_dim, out_dim, rng, heads=1: GCNAggregator(in_dim, out_dim, rng),
    "gat": _gat_factory("gat"),
    "gat-sym": _gat_factory("sym"),
    "gat-cos": _gat_factory("cos"),
    "gat-linear": _gat_factory("linear"),
    "gat-gen-linear": _gat_factory("gen-linear"),
    "gin": lambda in_dim, out_dim, rng, heads=1: GINAggregator(in_dim, out_dim, rng),
    "geniepath": lambda in_dim, out_dim, rng, heads=1: GeniePathAggregator(
        in_dim, out_dim, rng
    ),
}


def create_node_aggregator(
    name: str, in_dim: int, out_dim: int, rng: np.random.Generator, heads: int = 1
) -> NodeAggregator:
    """Instantiate a node aggregator from the Table I registry."""
    try:
        factory = NODE_AGGREGATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown node aggregator {name!r}; available: {sorted(NODE_AGGREGATORS)}"
        ) from None
    return factory(in_dim, out_dim, rng, heads=heads)
