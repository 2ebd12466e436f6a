"""Shared machinery for GNN layers: per-graph precomputation.

Every aggregator needs the same handful of edge arrays (with/without
self-loops, GCN normalisation coefficients, …). :class:`GraphCache`
computes them once per graph so a search that evaluates thousands of
candidate layers never re-derives them. On top of the raw arrays it
precomputes the :class:`~repro.autograd.kernels.SegmentPlan` CSR
layouts the fused segment kernels reduce over, and the per-node
in-degree counts, so no forward pass ever re-sorts an edge list or
re-runs ``np.bincount``.

:class:`LayerContext` is the per-forward companion: one supernet layer
evaluates many candidate aggregators on the same input features, and
the context memoises the gathered source-feature tensors so all
candidates share a single tape node — one gather forward and one
adjoint scatter per layer instead of one per op.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.kernels import SegmentPlan, plan_for
from repro.autograd.scatter import gather, segment_sum
from repro.autograd.tensor import Tensor, as_tensor
from repro.graph.data import Graph
from repro.graph.utils import (
    add_self_loops,
    gcn_edge_weights,
    padded_neighbor_index,
    remove_self_loops,
)

__all__ = ["GraphCache", "LayerContext"]


class GraphCache:
    """Immutable preprocessed view of one graph.

    Attributes
    ----------
    num_nodes:
        Node count ``N``.
    src, dst:
        Endpoints of ``G~`` (self-loops included) — used by GCN, the
        GAT family, GeniePath, i.e. aggregators over ``N~(v)``.
    nbr_src, nbr_dst:
        Endpoints without self-loops — used by SAGE (which treats the
        root separately) and GIN (which sums strict neighbors).
    gcn_weights:
        Symmetric-normalisation coefficient per ``G~`` edge.
    dst_plan, nbr_dst_plan:
        Segment plans of the destination arrays over ``N`` — the
        layouts every ``segment_*`` reduction over the two edge sets
        uses.
    src_plan, nbr_src_plan:
        Segment plans of the source arrays over ``N`` — the layouts of
        the gather-adjoint scatters.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.num_nodes = graph.num_nodes

        loops = add_self_loops(graph.edge_index, graph.num_nodes)
        self.src = np.ascontiguousarray(loops[0], dtype=np.int64)
        self.dst = np.ascontiguousarray(loops[1], dtype=np.int64)
        self.gcn_weights = gcn_edge_weights(loops, graph.num_nodes)

        plain = remove_self_loops(graph.edge_index)
        self.nbr_src = np.ascontiguousarray(plain[0], dtype=np.int64)
        self.nbr_dst = np.ascontiguousarray(plain[1], dtype=np.int64)

        # CSR layouts, built once per graph. Registered through
        # plan_for so plan-less call sites (plain gather on the same
        # arrays) hit the memo instead of re-sorting.
        self.dst_plan = plan_for(self.dst, self.num_nodes)
        self.nbr_dst_plan = plan_for(self.nbr_dst, self.num_nodes)
        self.src_plan = plan_for(self.src, self.num_nodes)
        self.nbr_src_plan = plan_for(self.nbr_src, self.num_nodes)

        self._padded: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._head_layouts: dict[int, tuple[np.ndarray, SegmentPlan]] = {}

    def head_layout(self, heads: int) -> tuple[np.ndarray, SegmentPlan]:
        """Flattened per-(destination, head) segment layout for attention.

        Multi-head attention normalises scores per destination *and*
        head by flattening the two axes into ``head * N + dst``
        segments. The flattened id array and its plan only depend on
        the graph and ``heads``, so they are built once here instead of
        on every op forward; ``heads == 1`` degenerates to the plain
        destination layout.
        """
        if heads == 1:
            return self.dst, self.dst_plan
        cached = self._head_layouts.get(heads)
        if cached is None:
            num_edges = self.dst.shape[0]
            seg = (
                np.repeat(np.arange(heads, dtype=np.int64), num_edges)
                * self.num_nodes
                + np.tile(self.dst, heads)
            )
            cached = (seg, plan_for(seg, heads * self.num_nodes))
            self._head_layouts[heads] = cached
        return cached

    def padded_neighbors(self, k: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Fixed-size neighbor table (used by the LGCN baseline)."""
        if k not in self._padded:
            rng = np.random.default_rng(seed)
            self._padded[k] = padded_neighbor_index(
                np.stack([self.nbr_src, self.nbr_dst]), self.num_nodes, k, rng
            )
        return self._padded[k]


class LayerContext:
    """Shared forward state for the candidate ops of one supernet layer.

    All candidates of a layer read the same input features, and several
    of them (the SAGE family, GIN, the MLP aggregator) start from the
    same gathered source rows. Memoising that gather means the
    candidates share one tape node: its adjoint scatter runs once per
    layer during backward, with the op gradients accumulated first —
    instead of one buffered scatter per op.

    A context is only valid for the exact feature tensor it was built
    from; consumers must check ``ctx.x is x`` (aggregators do) before
    reusing its gathers.
    """

    __slots__ = ("x", "cache", "_source_features", "_neighbor_sum")

    def __init__(self, x, cache: GraphCache):
        self.x: Tensor = as_tensor(x)
        self.cache = cache
        self._source_features: dict[bool, Tensor] = {}
        self._neighbor_sum: Tensor | None = None

    def source_features(self, self_loops: bool) -> Tensor:
        """``x[src]`` over ``G~`` (``self_loops=True``) or strict neighbors."""
        key = bool(self_loops)
        cached = self._source_features.get(key)
        if cached is None:
            cache = self.cache
            if key:
                cached = gather(self.x, cache.src, plan=cache.src_plan)
            else:
                cached = gather(self.x, cache.nbr_src, plan=cache.nbr_src_plan)
            self._source_features[key] = cached
        return cached

    def neighbor_sum(self) -> Tensor:
        """Strict-neighbor feature sum, shared across candidates.

        SAGE-SUM, SAGE-MEAN (after dividing by in-degree) and GIN all
        reduce the same gathered neighbor rows with the same segment
        sum; memoising it leaves one scatter forward and one gathered
        adjoint per layer for all three.
        """
        if self._neighbor_sum is None:
            cache = self.cache
            self._neighbor_sum = segment_sum(
                self.source_features(False),
                cache.nbr_dst,
                cache.num_nodes,
                cache.nbr_dst_plan,
            )
        return self._neighbor_sum
