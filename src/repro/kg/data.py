"""Synthetic cross-lingual knowledge-base pair (DBP15K stand-in).

The paper's DB task aligns entities between the Chinese and English
DBpedia views (DBP15K_ZH-EN, Table V). Offline, we generate an
analogous bilingual pair from one latent KB:

1. sample a latent KB over ``num_core`` entities with ``num_relations``
   relation types and hub-biased triples;
2. produce two language *views*; each keeps an independent random
   subset of the latent triples (so the two graphs agree only
   partially — the signal entity alignment exploits) and adds its own
   extra entities and noise triples (DBpedia's EN view is larger than
   ZH, mirrored here);
3. the core entities are the gold alignment, split 30/10/60 into
   train/val/test links exactly as in Section IV-A1.

Entity indices are shuffled per view so alignment cannot leak through
index identity.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.graph.data import Graph
from repro.graph.utils import to_undirected

__all__ = ["KnowledgeGraph", "AlignmentDataset", "generate_alignment_dataset"]


@dataclasses.dataclass
class KnowledgeGraph:
    """One language view: typed triples over its own entity index."""

    num_entities: int
    triples: np.ndarray  # (T, 3) int64 rows: head, relation, tail
    name: str = "kg"

    def __post_init__(self):
        self.triples = np.asarray(self.triples, dtype=np.int64)
        if self.triples.ndim != 2 or self.triples.shape[1] != 3:
            raise ValueError(f"triples must be (T, 3), got {self.triples.shape}")
        entity_refs = self.triples[:, [0, 2]]
        if entity_refs.size and entity_refs.max() >= self.num_entities:
            raise ValueError("triple references entity beyond num_entities")

    @property
    def num_relations(self) -> int:
        if len(self.triples) == 0:
            return 0
        return int(self.triples[:, 1].max()) + 1

    @property
    def num_triples(self) -> int:
        return len(self.triples)

    def as_graph(self) -> Graph:
        """Untyped undirected graph view used by the GNN encoders."""
        edge_index = np.stack([self.triples[:, 0], self.triples[:, 2]])
        edge_index = to_undirected(edge_index, self.num_entities)
        features = np.zeros((self.num_entities, 1))  # embeddings are learned
        return Graph(edge_index=edge_index, features=features, name=self.name)


@dataclasses.dataclass
class AlignmentDataset:
    """A bilingual KG pair with seed alignment splits.

    ``train_links`` etc. are ``(n, 2)`` arrays of (kg1 index, kg2
    index) gold pairs.
    """

    kg1: KnowledgeGraph
    kg2: KnowledgeGraph
    train_links: np.ndarray
    val_links: np.ndarray
    test_links: np.ndarray
    name: str = "dbp15k-like"

    def __post_init__(self):
        for attr in ("train_links", "val_links", "test_links"):
            value = np.asarray(getattr(self, attr), dtype=np.int64)
            if value.ndim != 2 or value.shape[1] != 2:
                raise ValueError(f"{attr} must be (n, 2)")
            setattr(self, attr, value)

    def statistics(self) -> dict:
        """Table V analogue rows."""
        return {
            "kg1": {
                "entities": self.kg1.num_entities,
                "relations": self.kg1.num_relations,
                "triples": self.kg1.num_triples,
            },
            "kg2": {
                "entities": self.kg2.num_entities,
                "relations": self.kg2.num_relations,
                "triples": self.kg2.num_triples,
            },
            "links": {
                "train": len(self.train_links),
                "val": len(self.val_links),
                "test": len(self.test_links),
            },
        }


def generate_alignment_dataset(
    seed: int = 0,
    num_core: int = 240,
    extra_1: int = 40,
    extra_2: int = 80,
    num_relations: int = 8,
    triples_per_entity: float = 10.0,
    keep_1: float = 0.95,
    keep_2: float = 0.90,
    noise_triples: int = 40,
    train_fraction: float = 0.3,
    val_fraction: float = 0.1,
) -> AlignmentDataset:
    """Build the synthetic bilingual pair (see module docstring).

    ``keep_i`` is the fraction of latent triples retained by view i;
    the *overlap* of the two retained sets (≈ ``keep_1 * keep_2``) is
    the structural signal available to alignment models.
    """
    rng = np.random.default_rng(seed)

    # Latent KB over the core entities, hub-biased like real KBs.
    num_latent = int(num_core * triples_per_entity)
    propensity = rng.pareto(2.0, size=num_core) + 1.0
    probs = propensity / propensity.sum()
    heads = rng.choice(num_core, size=num_latent, p=probs)
    tails = rng.choice(num_core, size=num_latent, p=probs)
    keep = heads != tails
    heads, tails = heads[keep], tails[keep]
    relations = rng.integers(0, num_relations, size=len(heads))
    latent = np.stack([heads, relations, tails], axis=1)

    def make_view(keep_fraction: float, extra: int, view_seed: int, name: str):
        view_rng = np.random.default_rng(view_seed)
        mask = view_rng.random(len(latent)) < keep_fraction
        triples = latent[mask].copy()
        total_entities = num_core + extra
        # Extra, view-specific entities with noise triples to anything.
        if extra > 0 or noise_triples > 0:
            noise_heads = view_rng.integers(0, total_entities, size=noise_triples)
            noise_tails = view_rng.integers(0, total_entities, size=noise_triples)
            ok = noise_heads != noise_tails
            noise = np.stack(
                [
                    noise_heads[ok],
                    view_rng.integers(0, num_relations, size=ok.sum()),
                    noise_tails[ok],
                ],
                axis=1,
            )
            triples = np.concatenate([triples, noise])
        # Shuffle entity indices so identity carries no signal.
        permutation = view_rng.permutation(total_entities)
        triples[:, 0] = permutation[triples[:, 0]]
        triples[:, 2] = permutation[triples[:, 2]]
        core_position = permutation[:num_core]  # where core entity i ended up
        return KnowledgeGraph(total_entities, triples, name=name), core_position

    kg1, core_1 = make_view(keep_1, extra_1, seed + 11, "zh")
    kg2, core_2 = make_view(keep_2, extra_2, seed + 23, "en")

    pairs = np.stack([core_1, core_2], axis=1)
    pairs = pairs[rng.permutation(num_core)]
    n_train = int(round(train_fraction * num_core))
    n_val = int(round(val_fraction * num_core))
    return AlignmentDataset(
        kg1=kg1,
        kg2=kg2,
        train_links=pairs[:n_train],
        val_links=pairs[n_train : n_train + n_val],
        test_links=pairs[n_train + n_val :],
    )
