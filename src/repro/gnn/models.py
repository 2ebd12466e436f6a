"""GNN models: the generic stacked architecture and the human baselines.

:class:`GNNModel` realises *any* architecture in the SANE search space
as a discrete model — a sequence of node aggregators, per-layer skip
connections and an optional layer aggregator (the JK backbone of the
paper's Fig. 1). The human-designed baselines of Table VI are thin
presets over it (uniform aggregator, with/without JK), except LGCN
which lives in :mod:`repro.gnn.lgcn`.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, as_tensor
from repro.gnn.aggregators import create_node_aggregator
from repro.gnn.common import GraphCache
from repro.gnn.layer_aggregators import create_layer_aggregator
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module

__all__ = ["GNNModel", "build_baseline", "BASELINE_NAMES", "SAGE_VARIANTS"]

SAGE_VARIANTS = ("sage-sum", "sage-mean", "sage-max")


class GNNModel(Module):
    """K-layer GNN with per-layer aggregator choice and optional JK head.

    Parameters
    ----------
    node_aggregators:
        One Table I aggregator name per layer (length K).
    skip_connections:
        For JK models, whether layer ``l`` feeds the layer aggregator
        (the paper's IDENTITY/ZERO choice). ``None`` means all
        IDENTITY. Ignored when ``layer_aggregator`` is ``None``.
    layer_aggregator:
        ``'concat' | 'max' | 'lstm'`` or ``None`` (plain stacking, the
        final layer output feeds the classifier directly).
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int | list[int],
        num_classes: int,
        node_aggregators: list[str],
        rng: np.random.Generator,
        skip_connections: list[bool] | None = None,
        layer_aggregator: str | None = None,
        dropout: float = 0.5,
        activation: str | list[str] = "relu",
        heads: int | list[int] = 1,
    ):
        super().__init__()
        if not node_aggregators:
            raise ValueError("need at least one GNN layer")
        num_layers = len(node_aggregators)
        if skip_connections is None:
            skip_connections = [True] * num_layers
        if len(skip_connections) != num_layers:
            raise ValueError("skip_connections length must equal number of layers")

        hidden_dims = _per_layer(hidden_dim, num_layers, "hidden_dim")
        activations = _per_layer(activation, num_layers, "activation")
        heads_list = _per_layer(heads, num_layers, "heads")
        if layer_aggregator is not None and len(set(hidden_dims)) != 1:
            raise ValueError(
                "a layer aggregator requires equal per-layer hidden dims"
            )

        self.node_aggregator_names = list(node_aggregators)
        self.skip_connections = list(skip_connections)
        self.layer_aggregator_name = layer_aggregator
        self.hidden_dim = hidden_dims[-1]
        self.activations = [F.ACTIVATIONS[name] for name in activations]

        dims_in = [in_dim] + hidden_dims[:-1]
        self.layers = [
            create_node_aggregator(name, d_in, d_out, rng, heads=n_heads)
            for name, d_in, d_out, n_heads in zip(
                node_aggregators, dims_in, hidden_dims, heads_list
            )
        ]
        self.dropout = Dropout(dropout, rng)

        if layer_aggregator is not None:
            self.layer_aggregator = create_layer_aggregator(
                layer_aggregator, num_layers, hidden_dims[-1], rng
            )
            head_dim = self.layer_aggregator.output_dim
        else:
            self.layer_aggregator = None
            head_dim = hidden_dims[-1]
        self.classifier = Linear(head_dim, num_classes, rng)
        # Layers after the last IDENTITY skip feed the layer aggregator
        # nothing but zeros and no later layer, so only this prefix runs.
        if layer_aggregator is None:
            self.num_live_layers = num_layers
        else:
            self.num_live_layers = max(
                (i + 1 for i, keep in enumerate(self.skip_connections) if keep),
                default=0,
            )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def embed(self, features, cache: GraphCache) -> Tensor:
        """Final node representation ``z_v`` before the classifier.

        Layers past :attr:`num_live_layers` are not evaluated. Each one
        hands the layer aggregator zeros, still draws its dropout mask
        (the generator's stream is unchanged) and gives its parameters
        an exactly-zero gradient, so training matches evaluating it and
        multiplying by zero bit for bit.
        """
        h = self.dropout(as_tensor(features))
        num_nodes = h.shape[0]
        layer_outputs: list[Tensor] = []
        for layer, activation in zip(
            self.layers[: self.num_live_layers], self.activations
        ):
            h = activation(layer(h, cache))
            h = self.dropout(h)
            layer_outputs.append(h)
        if self.layer_aggregator is None:
            return layer_outputs[-1]
        inputs = [
            out if keep else out * 0.0
            for out, keep in zip(layer_outputs, self.skip_connections)
        ]
        inputs.extend(
            self.dropout(_dead_output(layer, num_nodes))
            for layer in self.layers[self.num_live_layers :]
        )
        return self.layer_aggregator(inputs)

    def forward(self, features, cache: GraphCache) -> Tensor:
        return self.classifier(self.embed(features, cache))

    def describe(self) -> str:
        skips = "".join("I" if s else "Z" for s in self.skip_connections)
        jk = self.layer_aggregator_name or "none"
        aggs = ", ".join(self.node_aggregator_names)
        return f"[{aggs}] skips={skips} jk={jk}"


def _dead_output(layer: Module, num_nodes: int) -> Tensor:
    """Zeros in place of ``layer``'s output, with a zero-VJP tape node
    over its parameters so each still receives an exactly-zero gradient."""
    params = layer.parameters()
    return Tensor._from_op(
        np.zeros((num_nodes, layer.out_dim)),
        params,
        lambda grad: [np.zeros_like(param.data) for param in params],
    )


def _per_layer(value, num_layers: int, name: str) -> list:
    """Broadcast a scalar setting to all layers or validate a list."""
    if isinstance(value, (list, tuple)):
        if len(value) != num_layers:
            raise ValueError(
                f"{name} list must have {num_layers} entries, got {len(value)}"
            )
        return list(value)
    return [value] * num_layers


# ---------------------------------------------------------------------------
# Human-designed baselines (paper Table VI / Table XIII)
# ---------------------------------------------------------------------------

_BASE_AGGREGATOR = {
    "gcn": "gcn",
    "sage": "sage-mean",
    "sage-sum": "sage-sum",
    "sage-mean": "sage-mean",
    "sage-max": "sage-max",
    "gat": "gat",
    "gat-sym": "gat-sym",
    "gat-cos": "gat-cos",
    "gat-linear": "gat-linear",
    "gat-gen-linear": "gat-gen-linear",
    "gin": "gin",
    "geniepath": "geniepath",
}
# Every name build_baseline accepts.
BASELINE_NAMES = tuple(
    base + suffix for base in _BASE_AGGREGATOR for suffix in ("", "-jk")
)


def build_baseline(
    name: str,
    in_dim: int,
    num_classes: int,
    rng: np.random.Generator,
    hidden_dim: int = 64,
    num_layers: int = 3,
    dropout: float = 0.5,
    activation: str = "relu",
    heads: int = 1,
    jk_mode: str = "concat",
) -> GNNModel:
    """Build a human-designed baseline by name.

    ``<base>`` or ``<base>-jk`` where ``<base>`` is one of GCN / SAGE
    (any variant) / GAT (any variant) / GIN / GeniePath. The ``-jk``
    form adds a JK layer aggregator (Table XIII uses CONCAT on the
    citation graphs and LSTM on PPI; choose via ``jk_mode``).
    """
    if name.endswith("-jk"):
        base = name[: -len("-jk")]
        layer_aggregator = jk_mode
    else:
        base = name
        layer_aggregator = None
    try:
        aggregator = _BASE_AGGREGATOR[base]
    except KeyError:
        raise ValueError(f"unknown baseline {name!r}") from None
    return GNNModel(
        in_dim=in_dim,
        hidden_dim=hidden_dim,
        num_classes=num_classes,
        node_aggregators=[aggregator] * num_layers,
        rng=rng,
        layer_aggregator=layer_aggregator,
        dropout=dropout,
        activation=activation,
        heads=heads,
    )
