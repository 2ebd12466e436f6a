"""Graph substrate: containers, preprocessing, synthetic benchmarks."""

from repro.graph.data import Graph, MultiGraphDataset
from repro.graph import utils, generators, datasets
from repro.graph.datasets import load_dataset, dataset_statistics

__all__ = [
    "Graph",
    "MultiGraphDataset",
    "utils",
    "generators",
    "datasets",
    "load_dataset",
    "dataset_statistics",
]
