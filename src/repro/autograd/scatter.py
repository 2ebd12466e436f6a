"""Segment (scatter/gather) operations — the message-passing primitives.

A GNN layer gathers the features of edge sources, transforms them, and
scatters them back onto edge destinations. With ``gather`` and the
``segment_*`` reductions below, every aggregator in the paper's search
space (Table I / Table XI) composes out of differentiable pieces:

``out[v] = reduce({message[e] : dst[e] == v})``

``segment_ids`` plays the role of ``dst``. Segments may be empty (an
isolated node); empty segments reduce to zero.

The raw reductions run on the planned CSR kernels in
:mod:`repro.autograd.kernels`. Every function takes an optional
precomputed :class:`~repro.autograd.kernels.SegmentPlan`; hot callers
(the GNN aggregators) thread the per-graph plans a
:class:`~repro.gnn.common.GraphCache` holds, everyone else falls back
to the identity-keyed plan memo.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import kernels, ops
from repro.autograd.kernels import SegmentPlan
from repro.autograd.tensor import Tensor, as_tensor

__all__ = [
    "gather",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "segment_attention_sum",
]


def gather(x, index: np.ndarray, plan: SegmentPlan | None = None) -> Tensor:
    """Select rows ``x[index]`` along axis 0 (differentiable).

    Equivalent to fancy indexing; repeated indices accumulate gradient.
    ``plan`` (a plan of ``index`` over ``len(x)`` segments) accelerates
    the adjoint scatter.
    """
    index = np.asarray(index, dtype=np.int64)
    return ops.getitem(as_tensor(x), index, plan=plan)


def segment_attention_sum(
    x,
    weights,
    src_index: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    src_plan: SegmentPlan | None = None,
    plan: SegmentPlan | None = None,
) -> Tensor:
    """``out[s] = sum over edges e with segment_ids[e] == s of
    weights[e] * x[src_index[e]]`` — the weighted message-passing step
    of attention aggregators (and GCN, whose weights are constant),
    fused into one tape node.

    ``x`` has one more trailing axis than ``weights`` (``(N, d)`` with
    ``(E,)`` weights, or ``(N, H, d)`` with ``(E, H)``). The composed
    gather → multiply → ``segment_sum`` spelling records three
    full-edge-size tape nodes and builds an ``(E, F)`` scaled copy;
    here the forward is one weighted CSR product
    (:func:`~repro.autograd.kernels.weighted_scatter_sum` over
    ``plan``, columns ``src_index``) that adds the same products in the
    same order — bit-identical — and the weight gradient is a
    trailing-axis inner product computed directly.

    The backward is the same kernel transposed: ``grad_x`` sums
    ``weights[e] * g[segment_ids[e]]`` into ``src_index`` rows over
    ``src_plan``, so no scaled-gradient temporary exists either.
    ``grad_w`` gathers ``g`` and ``x`` rows along the edges; those
    gathers are recomputed rather than retained, so the closure holds
    no ``(E, F)`` array.
    """
    x, weights = as_tensor(x), as_tensor(weights)
    src_index = np.asarray(src_index, dtype=np.int64)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if x.ndim != weights.ndim + 1:
        raise ValueError(
            f"x must have one more axis than weights, got {x.shape} "
            f"and {weights.shape}"
        )
    out = kernels.weighted_scatter_sum(
        x.data, weights.data, src_index, segment_ids, num_segments, plan
    )
    num_rows = x.data.shape[0]

    def backward(g):
        grad_x = (
            kernels.weighted_scatter_sum(
                g, weights.data, segment_ids, src_index, num_rows, src_plan
            )
            if x.requires_grad
            else None
        )
        grad_w = None
        if weights.requires_grad:
            messages = np.take(g, segment_ids, axis=0)
            messages *= np.take(x.data, src_index, axis=0)
            grad_w = messages.sum(axis=-1)
        return grad_x, grad_w

    return Tensor._from_op(out, (x, weights), backward)


def segment_sum(
    x,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets.

    ``out[s] = sum_{i : segment_ids[i] == s} x[i]``; the adjoint is a
    gather, making this the cheapest scatter reduction.
    """
    x = as_tensor(x)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = kernels.scatter_sum(x.data, segment_ids, num_segments, plan)
    return Tensor._from_op(
        out, (x,), lambda g: (np.take(g, segment_ids, axis=0),)
    )


def segment_mean(
    x,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> Tensor:
    """Mean per segment; empty segments yield zero."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if plan is None:
        plan = kernels.peek_plan(segment_ids, num_segments)
    counts = kernels.segment_counts(segment_ids, num_segments, plan, clamped=True)
    x = as_tensor(x)
    total = kernels.scatter_sum(x.data, segment_ids, num_segments, plan)
    denom = counts.reshape((num_segments,) + (1,) * (total.ndim - 1))
    return Tensor._from_op(
        total / denom,
        (x,),
        lambda g: (np.take(g / denom, segment_ids, axis=0),),
    )


def segment_max(
    x,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> Tensor:
    """Max per segment; gradient splits evenly among tied maxima.

    Empty segments yield zero (and receive no gradient). The winner
    bookkeeping for the gradient happens inside the backward closure,
    so inference-mode forwards (``no_grad``) skip it entirely.
    """
    x = as_tensor(x)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out = kernels.scatter_max(x.data, segment_ids, num_segments, plan)
    empty = ~np.isfinite(out)
    out[empty] = 0.0

    def backward(g):
        g = np.where(empty, 0.0, g)
        winners = np.take(out, segment_ids, axis=0)
        np.equal(x.data, winners, out=winners)
        # Normalise ties: count winners per segment, divide each winner's share.
        winner_counts = kernels.scatter_sum(
            winners, segment_ids, num_segments, plan
        )
        np.maximum(winner_counts, 1.0, out=winner_counts)
        grad = np.take(g, segment_ids, axis=0)
        winners /= np.take(winner_counts, segment_ids, axis=0)
        grad *= winners
        return (grad,)

    return Tensor._from_op(out, (x,), backward)


def segment_softmax(
    scores,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> Tensor:
    """Softmax over each segment of a 1-D score vector.

    This is the attention normalisation: for every destination node,
    the scores of its incoming edges are normalised to sum to one.
    Numerically stabilised by subtracting the per-segment max (the
    shift does not change the function value). Runs as a single tape
    node with the closed-form softmax adjoint
    ``out * (g - gather(segment_sum(out * g)))`` rather than a chain of
    primitive ops — attention normalisation is hot enough that the
    intermediate tape nodes and per-edge temporaries matter.
    """
    scores = as_tensor(scores)
    if scores.ndim != 1:
        raise ValueError(f"segment_softmax expects 1-D scores, got {scores.shape}")
    segment_ids = np.asarray(segment_ids, dtype=np.int64)

    shift = kernels.scatter_max(scores.data, segment_ids, num_segments, plan)
    shift[~np.isfinite(shift)] = 0.0
    exp_scores = np.exp(scores.data - np.take(shift, segment_ids))
    denom = kernels.scatter_sum(exp_scores, segment_ids, num_segments, plan)
    np.maximum(denom, 1e-16, out=denom)
    out = exp_scores / np.take(denom, segment_ids)

    def backward(g):
        weighted = kernels.scatter_sum(
            out * g, segment_ids, num_segments, plan
        )
        return (out * (g - np.take(weighted, segment_ids)),)

    return Tensor._from_op(out, (scores,), backward)
