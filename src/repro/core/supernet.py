"""The SANE supernet: continuous relaxation of the search space.

Implements Eqs. 2–5 of the paper. Every edge of the supernet DAG
(Fig. 1c) holds *all* candidate operations; the forward pass computes
the softmax-weighted mixture

``o_bar(x) = sum_o softmax(alpha)_o * o(x)``            (Eq. 2)

for the node-aggregator edges (Eq. 3), the skip edges (Eq. 4) and the
layer-aggregator edge (Eq. 5). Architecture parameters ``alpha`` and
operation weights ``w`` are disjoint parameter groups so the bi-level
optimiser of :mod:`repro.core.search` can update them on validation
and training loss respectively.

Following the official implementation, node features are first
projected to the hidden size so every candidate op is hidden→hidden,
and each candidate layer aggregator is followed by its own projection
back to the hidden size so the three mixture branches agree in shape.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.autograd import functional as F
from repro.autograd import ops
from repro.autograd.tensor import Tensor, as_tensor
from repro.core.search_space import Architecture, SearchSpace
from repro.gnn.aggregators import create_node_aggregator
from repro.gnn.common import GraphCache, LayerContext
from repro.gnn.layer_aggregators import create_layer_aggregator
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module, Parameter
from repro.obs.spans import op_scope

__all__ = ["SaneSupernet", "derive_from_alphas"]


def derive_from_alphas(
    space: SearchSpace,
    alphas: dict[str, np.ndarray],
    rng: np.random.Generator | None = None,
) -> Architecture:
    """Argmax derivation from raw alpha matrices (k = 1 of Algorithm 1, line 7).

    Ties within 1e-12 are broken uniformly at random (relevant for the
    ``epsilon = 1`` ablation, where alphas never move).
    """
    rng = rng or np.random.default_rng(0)

    def pick(row: np.ndarray, names: tuple[str, ...]) -> str:
        winners = np.flatnonzero(row >= row.max() - 1e-12)
        return names[int(rng.choice(winners))]

    return Architecture(
        node_aggregators=tuple(
            pick(alphas["node"][i], space.node_ops) for i in range(space.num_layers)
        ),
        skip_connections=tuple(
            pick(alphas["skip"][i], space.skip_ops) for i in range(space.num_layers)
        ),
        layer_aggregator=pick(alphas["layer"][0], space.layer_ops),
    )


def _row_normalize(x: Tensor) -> Tensor:
    """Scale rows to unit L2 norm (zero rows stay zero-safe)."""
    squared = ops.clip(ops.sum(x * x, axis=-1, keepdims=True), low=1e-12)
    return x / squared**0.5


class SaneSupernet(Module):
    """Weight-sharing one-shot model over a :class:`SearchSpace`.

    Parameters
    ----------
    epsilon:
        Random-exploration probability of the Section IV-E1 ablation:
        with probability ``epsilon`` an edge uses a uniformly sampled
        single op (one-hot mixture, which passes no gradient to its
        ``alpha``) instead of the softmax mixture. ``epsilon = 0`` is
        Algorithm 1; ``epsilon = 1`` degenerates to random search with
        weight sharing.
    normalize_ops:
        L2-normalise each candidate node-aggregator output (rows) before
        mixing. Without this, unbounded-magnitude ops (e.g. SAGE-SUM)
        dominate the mixture gradient and the alpha competition selects
        for output scale rather than usefulness — a known one-shot NAS
        pathology. Normalisation only affects the *search*; derived
        architectures are retrained from scratch unnormalised.
    """

    def __init__(
        self,
        space: SearchSpace,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        rng: np.random.Generator,
        dropout: float = 0.6,
        activation: str = "relu",
        epsilon: float = 0.0,
        normalize_ops: bool = False,
    ):
        super().__init__()
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.space = space
        self.hidden_dim = hidden_dim
        self.epsilon = epsilon
        self.normalize_ops = normalize_ops
        self.activation = F.ACTIVATIONS[activation]
        self._rng = rng

        k = space.num_layers
        self.input_proj = Linear(in_dim, hidden_dim, rng)
        self.dropout = Dropout(dropout, rng)

        # Candidate node aggregators: K layers x |O_n| ops, hidden->hidden.
        self.node_candidates = [
            [
                create_node_aggregator(name, hidden_dim, hidden_dim, rng)
                for name in space.node_ops
            ]
            for __ in range(k)
        ]
        # Candidate layer aggregators, each with a projection to hidden_dim.
        self.layer_candidates = []
        self.layer_projections = []
        for name in space.layer_ops:
            aggregator = create_layer_aggregator(name, k, hidden_dim, rng)
            self.layer_candidates.append(aggregator)
            self.layer_projections.append(
                Linear(aggregator.output_dim, hidden_dim, rng)
            )

        self.classifier = Linear(hidden_dim, num_classes, rng)

        # Architecture parameters (Eq. 2), initialised near-uniform with
        # slight noise so argmax derivation is never an arbitrary tie.
        def alpha(rows: int, cols: int) -> Parameter:
            return Parameter(1e-3 * rng.normal(size=(rows, cols)))

        self.alpha_node = alpha(k, len(space.node_ops))
        self.alpha_skip = alpha(k, len(space.skip_ops))
        self.alpha_layer = alpha(1, len(space.layer_ops))

    # ------------------------------------------------------------------
    # parameter groups for the bi-level optimiser
    # ------------------------------------------------------------------
    def arch_parameters(self) -> list[Parameter]:
        return [self.alpha_node, self.alpha_skip, self.alpha_layer]

    def weight_parameters(self) -> list[Parameter]:
        arch_ids = {id(p) for p in self.arch_parameters()}
        return [p for p in self.parameters() if id(p) not in arch_ids]

    # ------------------------------------------------------------------
    # mixture weights
    # ------------------------------------------------------------------
    def _mixture(self, alpha_row: Tensor, num_ops: int) -> Tensor:
        """Softmax mixture weights, or a sampled one-hot with prob. epsilon."""
        if (
            self.training
            and self.epsilon > 0.0
            and self._rng.random() < self.epsilon
        ):
            choice = int(self._rng.integers(num_ops))
            one_hot = np.zeros(num_ops)
            one_hot[choice] = 1.0
            return Tensor(one_hot)
        return F.softmax(alpha_row, axis=-1)

    # ------------------------------------------------------------------
    # forward (Eqs. 3-5)
    # ------------------------------------------------------------------
    def embed(self, features, cache: GraphCache) -> Tensor:
        h = self.activation(self.input_proj(self.dropout(as_tensor(features))))
        layer_outputs: list[Tensor] = []
        for layer_index, candidates in enumerate(self.node_candidates):
            weights = self._mixture(
                ops.getitem(self.alpha_node, layer_index), len(candidates)
            )
            # One shared context per layer: candidates that gather the
            # raw input features reuse a single tape node, so the
            # gather's adjoint scatter runs once per layer.
            ctx = LayerContext(h, cache)
            outputs = []
            for name, candidate in zip(self.space.node_ops, candidates):
                # One (edge, layer, op) span per candidate: the scope
                # timing, tape memory and numerics all attribute to.
                with op_scope(
                    edge=f"node/{layer_index}", layer=layer_index, op=name
                ):
                    out = candidate(h, cache, ctx)
                    if self.normalize_ops:
                        out = _row_normalize(out)
                outputs.append(out)
            # The Eq. 3 mixture is a tape node too; scope it so an
            # alpha-minted NaN reports the edge instead of op=None.
            with op_scope(
                edge=f"node/{layer_index}", layer=layer_index, op="mixture"
            ):
                h = self.activation(ops.weighted_sum(outputs, weights))
            h = self.dropout(h)
            layer_outputs.append(h)

        # Skip mixture (Eq. 4): identity keeps the layer, zero drops it,
        # so the mixture reduces to scaling by the identity weight.
        skipped: list[Tensor] = []
        for layer_index, output in enumerate(layer_outputs):
            weights = self._mixture(
                ops.getitem(self.alpha_skip, layer_index), len(self.space.skip_ops)
            )
            identity_index = self.space.skip_ops.index("identity")
            with op_scope(
                edge=f"skip/{layer_index}", layer=layer_index, op="identity"
            ):
                skipped.append(output * weights[identity_index])

        # Layer-aggregator mixture (Eq. 5).
        weights = self._mixture(
            ops.getitem(self.alpha_layer, 0), len(self.layer_candidates)
        )
        terms = []
        for name, aggregator, projection in zip(
            self.space.layer_ops, self.layer_candidates, self.layer_projections
        ):
            with op_scope(edge="layer/0", layer=None, op=name):
                terms.append(projection(aggregator(skipped)))
        with op_scope(edge="layer/0", layer=None, op="mixture"):
            return ops.weighted_sum(terms, weights)

    def forward(self, features, cache: GraphCache) -> Tensor:
        return self.classifier(self.embed(features, cache))

    # ------------------------------------------------------------------
    # discrete architecture derivation
    # ------------------------------------------------------------------
    def alphas(self) -> dict[str, np.ndarray]:
        """Copies of the alpha matrices, keyed by edge kind."""
        return {
            "node": self.alpha_node.data.copy(),
            "skip": self.alpha_skip.data.copy(),
            "layer": self.alpha_layer.data.copy(),
        }

    def derive(self, rng: np.random.Generator | None = None) -> Architecture:
        """Argmax derivation of the current alphas (:func:`derive_from_alphas`)."""
        return derive_from_alphas(self.space, self.alphas(), rng or self._rng)

    def derive_topk(self, k: int) -> list[Architecture]:
        """Top-k architectures ranked by the product of mixture weights.

        Positions (per-layer node op, per-layer skip, layer aggregator)
        are independent, so the k best joint assignments are found with
        a lazy best-first expansion over per-position ranks — no
        enumeration of the (possibly astronomically large) space.
        """
        if k < 1:
            raise ValueError("k must be >= 1")

        def log_weights(alpha_row: np.ndarray) -> np.ndarray:
            shifted = alpha_row - alpha_row.max()
            return shifted - np.log(np.exp(shifted).sum())

        # One entry per decision position: (sorted log-probs desc, op
        # names in that order, position kind).
        positions: list[tuple[np.ndarray, list[str]]] = []
        kinds: list[tuple[str, int]] = []
        for kind, matrix in self.alphas().items():
            names = self.space.ops[kind]
            for index, alpha_row in enumerate(matrix):
                row = log_weights(alpha_row)
                order = np.argsort(-row)
                positions.append((row[order], [names[i] for i in order]))
                kinds.append((kind, index))

        def build(ranks: tuple[int, ...]) -> Architecture:
            nodes = [""] * self.space.num_layers
            skips = [""] * self.space.num_layers
            layer_agg = ""
            for (kind, index), (__, names), rank in zip(kinds, positions, ranks):
                if kind == "node":
                    nodes[index] = names[rank]
                elif kind == "skip":
                    skips[index] = names[rank]
                else:
                    layer_agg = names[rank]
            return Architecture(tuple(nodes), tuple(skips), layer_agg)

        start = tuple(0 for __ in positions)
        start_score = sum(scores[0] for scores, __ in positions)
        heap = [(-start_score, start)]
        seen = {start}
        results: list[Architecture] = []
        while heap and len(results) < k:
            negative_score, ranks = heapq.heappop(heap)
            results.append(build(ranks))
            for p, (scores, __) in enumerate(positions):
                if ranks[p] + 1 >= len(scores):
                    continue
                successor = ranks[:p] + (ranks[p] + 1,) + ranks[p + 1 :]
                if successor in seen:
                    continue
                seen.add(successor)
                score = -negative_score - scores[ranks[p]] + scores[ranks[p] + 1]
                heapq.heappush(heap, (-score, successor))
        return results
