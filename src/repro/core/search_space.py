"""The SANE search space (paper Section III-A, Table I).

Three operation sets parameterise a K-layer JK-backbone GNN:

* ``NODE_OPS`` — the 11 node aggregators ``O_n``;
* ``LAYER_OPS`` — the 3 layer aggregators ``O_l``;
* ``SKIP_OPS`` — IDENTITY / ZERO per intermediate layer ``O_s``.

For K = 3 the discrete space therefore holds
``11^3 * 2^3 * 3 = 31,944`` architectures (Section III-C), versus
~2.8e12 for Auto-GNN — the compactness argument of the paper.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator

import numpy as np

from repro.gnn.aggregators import NODE_AGGREGATORS
from repro.gnn.layer_aggregators import LAYER_AGGREGATORS

__all__ = ["NODE_OPS", "LAYER_OPS", "SKIP_OPS", "Architecture", "SearchSpace"]

NODE_OPS: tuple[str, ...] = (
    "sage-sum",
    "sage-mean",
    "sage-max",
    "gcn",
    "gat",
    "gat-sym",
    "gat-cos",
    "gat-linear",
    "gat-gen-linear",
    "gin",
    "geniepath",
)
LAYER_OPS: tuple[str, ...] = ("concat", "max", "lstm")
SKIP_OPS: tuple[str, ...] = ("identity", "zero")

assert set(NODE_OPS) <= set(NODE_AGGREGATORS), "registry drift: node ops"
assert set(LAYER_OPS) <= set(LAYER_AGGREGATORS), "registry drift: layer ops"


@dataclasses.dataclass(frozen=True)
class Architecture:
    """One point of the search space.

    ``skip_connections`` uses the op names (``'identity'``/``'zero'``)
    rather than booleans so an architecture prints exactly like the
    paper's Figure 2 descriptions.
    """

    node_aggregators: tuple[str, ...]
    skip_connections: tuple[str, ...]
    layer_aggregator: str

    def __post_init__(self):
        if len(self.node_aggregators) != len(self.skip_connections):
            raise ValueError("one skip choice is needed per layer")
        unknown = set(self.node_aggregators) - set(NODE_AGGREGATORS)
        if unknown:
            raise ValueError(f"unknown node aggregators: {sorted(unknown)}")
        if self.layer_aggregator not in LAYER_AGGREGATORS:
            raise ValueError(f"unknown layer aggregator {self.layer_aggregator!r}")
        bad_skips = set(self.skip_connections) - set(SKIP_OPS)
        if bad_skips:
            raise ValueError(f"unknown skip ops: {sorted(bad_skips)}")

    @property
    def num_layers(self) -> int:
        return len(self.node_aggregators)

    @property
    def skip_flags(self) -> tuple[bool, ...]:
        return tuple(s == "identity" for s in self.skip_connections)

    def describe(self) -> str:
        aggs = " -> ".join(self.node_aggregators)
        skips = "".join("I" if flag else "Z" for flag in self.skip_flags)
        return f"{aggs} | skips={skips} | jk={self.layer_aggregator}"

    def __str__(self) -> str:
        return self.describe()


class SearchSpace:
    """Factory/enumerator for :class:`Architecture` at a fixed depth.

    ``node_ops``/``layer_ops``/``skip_ops`` default to the full Table I
    sets; experiments can restrict them (e.g. the DB task removes the
    layer aggregator, Table X swaps node ops for MLPs).
    """

    def __init__(
        self,
        num_layers: int = 3,
        node_ops: tuple[str, ...] = NODE_OPS,
        layer_ops: tuple[str, ...] = LAYER_OPS,
        skip_ops: tuple[str, ...] = SKIP_OPS,
    ):
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if not node_ops or not layer_ops or not skip_ops:
            raise ValueError("operation sets must be non-empty")
        self.num_layers = num_layers
        self.node_ops = tuple(node_ops)
        self.layer_ops = tuple(layer_ops)
        self.skip_ops = tuple(skip_ops)

    @property
    def ops(self) -> dict[str, tuple[str, ...]]:
        """Candidate op names per edge kind, the keys of the alpha matrices."""
        return {"node": self.node_ops, "skip": self.skip_ops, "layer": self.layer_ops}

    def size(self) -> int:
        """Number of discrete architectures (the paper's 31,944 for K=3)."""
        return (
            len(self.node_ops) ** self.num_layers
            * len(self.skip_ops) ** self.num_layers
            * len(self.layer_ops)
        )

    def sample(self, rng: np.random.Generator) -> Architecture:
        """Uniform random architecture (the Random baseline's proposal)."""
        return Architecture(
            node_aggregators=tuple(
                rng.choice(self.node_ops) for __ in range(self.num_layers)
            ),
            skip_connections=tuple(
                rng.choice(self.skip_ops) for __ in range(self.num_layers)
            ),
            layer_aggregator=str(rng.choice(self.layer_ops)),
        )

    def enumerate(self) -> Iterator[Architecture]:
        """Yield every architecture (use only for small spaces/tests)."""
        for nodes in itertools.product(self.node_ops, repeat=self.num_layers):
            for skips in itertools.product(self.skip_ops, repeat=self.num_layers):
                for layer_op in self.layer_ops:
                    yield Architecture(nodes, skips, layer_op)

    def contains(self, arch: Architecture) -> bool:
        return (
            arch.num_layers == self.num_layers
            and set(arch.node_aggregators) <= set(self.node_ops)
            and set(arch.skip_connections) <= set(self.skip_ops)
            and arch.layer_aggregator in self.layer_ops
        )

    def __repr__(self) -> str:
        return (
            f"SearchSpace(K={self.num_layers}, |On|={len(self.node_ops)}, "
            f"|Ol|={len(self.layer_ops)}, |Os|={len(self.skip_ops)}, "
            f"size={self.size()})"
        )
