"""SANE: the paper's primary contribution.

Public API:

>>> from repro.core import SearchSpace, SaneSearcher, SearchConfig
>>> from repro.graph import load_dataset
>>> graph = load_dataset("cora")
>>> searcher = SaneSearcher(SearchSpace(num_layers=3), graph,
...                         SearchConfig(epochs=30), seed=0)
>>> result = searcher.search()
>>> print(result.architecture)
"""

from repro.core.search_space import (
    LAYER_OPS,
    NODE_OPS,
    SKIP_OPS,
    Architecture,
    SearchSpace,
)
from repro.core.supernet import SaneSupernet
from repro.core.search import SaneSearcher, SearchConfig, SearchResult
from repro.core.derive import architecture_to_model, retrain

__all__ = [
    "NODE_OPS",
    "LAYER_OPS",
    "SKIP_OPS",
    "Architecture",
    "SearchSpace",
    "SaneSupernet",
    "SaneSearcher",
    "SearchConfig",
    "SearchResult",
    "architecture_to_model",
    "retrain",
]
