"""repro — a from-scratch reproduction of SANE (ICDE 2021).

"Search to Aggregate NEighborhood for Graph Neural Network"
(Zhao, Yao, Tu), rebuilt in pure numpy: autograd engine, GNN layer
library, the SANE differentiable search, trial-and-error NAS
baselines, synthetic benchmark datasets and the full experiment
harness for every table and figure of the paper.

Quickstart::

    from repro.core import SearchSpace, SaneSearcher, SearchConfig, retrain
    from repro.graph import load_dataset

    graph = load_dataset("cora")
    searcher = SaneSearcher(SearchSpace(num_layers=3), graph,
                            SearchConfig(epochs=40), seed=0)
    result = searcher.search()
    print(result.architecture)                 # the derived GNN
    print(retrain(result.architecture, graph)) # retrained from scratch
"""

__version__ = "1.0.0"

import importlib

__all__ = [
    "autograd",
    "nn",
    "graph",
    "gnn",
    "core",
    "nas",
    "kg",
    "train",
    "experiments",
    "graphclf",
    "obs",
    "__version__",
]

_SUBPACKAGES = frozenset(__all__) - {"__version__"}


def __getattr__(name):
    """Import subpackages on first access (PEP 562).

    ``import repro.core.search`` then pays only for what the search
    path uses — not networkx (graph classification) or the KG stack.
    """
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SUBPACKAGES)
