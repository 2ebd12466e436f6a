"""Shared fixtures: small deterministic graphs and helpers."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.search_space import Architecture
from repro.experiments.config import SCALES
from repro.graph.data import Graph, MultiGraphDataset
from repro.graph.datasets import transductive_split
from repro.graph.generators import citation_graph, community_multilabel_graph
from repro.gnn.common import GraphCache
from repro.serve import export_alignment, export_architecture
from tests.naive_kernels import naive_kernels  # noqa: F401  (fixture)

GENOTYPE = Architecture(
    node_aggregators=("gat", "gcn"),
    skip_connections=("identity", "identity"),
    layer_aggregator="concat",
)


@pytest.fixture(scope="session", autouse=True)
def _isolated_run_history(tmp_path_factory):
    """Point the run ledger at a per-session temp dir.

    Tests exercise real CLI entry points, every one of which appends a
    run manifest; without this the suite would pollute the checkout's
    ``benchmarks/history/``. Session-scoped (and setdefault, so an
    explicit override from the environment wins) because class-scoped
    fixtures that call ``main()`` run before any function-scoped
    monkeypatch could.
    """
    history = tmp_path_factory.mktemp("run-history")
    os.environ.setdefault("REPRO_HISTORY_DIR", str(history))
    yield


@pytest.fixture(scope="session")
def node_artifact():
    """A searched-like 2-layer genotype trained on smoke-scale cora.

    Exporting an artifact trains a model, the expensive part of every
    serving test; session scope amortises it across the suite. Tests
    must not mutate the fixture artifacts.
    """
    return export_architecture(GENOTYPE, "cora", SCALES["smoke"], seed=0)


@pytest.fixture(scope="session")
def kg_artifact():
    """A smoke-scale entity-alignment encoder bundle (session-scoped)."""
    return export_alignment(SCALES["smoke"], seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _make_tiny_graph() -> Graph:
    """~120-node homophilous citation graph with 60/20/20 masks."""
    generator = np.random.default_rng(7)
    graph = citation_graph(
        num_nodes=120,
        num_classes=4,
        num_features=24,
        rng=generator,
        avg_degree=4.0,
        homophily=0.85,
        feature_signal=0.6,
        words_per_node=6,
        name="tiny",
    )
    return transductive_split(graph, generator)


@pytest.fixture
def tiny_graph():
    return _make_tiny_graph()


@pytest.fixture
def tiny_cache(tiny_graph):
    return GraphCache(tiny_graph)


@pytest.fixture
def tiny_ppi():
    """Three-graph inductive multi-label dataset (1 train/1 val/1 test)."""
    generator = np.random.default_rng(9)
    projection = generator.normal(size=(5, 16))
    graphs = [
        community_multilabel_graph(
            num_nodes=60,
            num_communities=5,
            num_features=16,
            rng=generator,
            avg_memberships=1.8,
            intra_degree=6.0,
            noise_degree=1.0,
            feature_noise=0.5,
            projection=projection,
            name=f"tiny-ppi-{i}",
        )
        for i in range(3)
    ]
    return MultiGraphDataset(
        train_graphs=graphs[:1],
        val_graphs=graphs[1:2],
        test_graphs=graphs[2:],
        name="tiny-ppi",
    )


@pytest.fixture
def path_graph():
    """Deterministic 5-node path graph: 0-1-2-3-4, 2 features."""
    edges = np.array([[0, 1, 1, 2, 2, 3, 3, 4], [1, 0, 2, 1, 3, 2, 4, 3]])
    features = np.arange(10, dtype=np.float64).reshape(5, 2)
    labels = np.array([0, 0, 1, 1, 1])
    return Graph(edge_index=edges, features=features, labels=labels, name="path")
