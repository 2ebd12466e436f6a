"""Extension: whole-graph classification with searchable pooling.

The SANE paper's conclusion proposes extending the search to graph
classification, "where different graph pooling methods can be
searched". This example runs that extension on a synthetic structural
benchmark (ring / star / blocks / random graphs): fixed baselines with
each pooling readout, then a supernet search over node aggregators AND
the pooling op.

Run:  python examples/graph_classification.py
"""

import numpy as np

from repro.graphclf import (
    GraphClassifier,
    GraphSearchConfig,
    generate_graph_dataset,
    search_graph_classifier,
    train_graph_classifier,
)
from repro.train import TrainConfig


def main():
    dataset = generate_graph_dataset(seed=0, graphs_per_class=14)
    print(f"Dataset: {dataset} (classes: ring / star / blocks / random)")
    config = TrainConfig(epochs=150)

    print("\nFixed GCN encoder, each pooling readout:")
    for pooling in ("mean", "max", "sum", "attention"):
        model = GraphClassifier(
            dataset.num_features, 24, dataset.num_classes,
            ["gcn", "gcn"], pooling, np.random.default_rng(0),
        )
        result = train_graph_classifier(model, dataset, config)
        print(f"  pool={pooling:10s} test acc = {result.test_score:.3f}")

    search = search_graph_classifier(dataset, GraphSearchConfig(epochs=60), seed=0)
    print(
        f"\nSearched: encoder={' -> '.join(search.node_aggregators)} "
        f"pool={search.pooling} ({search.search_time:.1f}s)"
    )
    model = GraphClassifier(
        dataset.num_features, 24, dataset.num_classes,
        list(search.node_aggregators), search.pooling, np.random.default_rng(0),
    )
    result = train_graph_classifier(model, dataset, config)
    print(f"Searched model test acc = {result.test_score:.3f}")


if __name__ == "__main__":
    main()
