"""End-to-end search equivalence of the planned kernels and the oracle.

The strongest planned-kernel guarantee: an identical seeded search run
— supernet forwards, bi-level updates, derivation — produces the same
``Architecture`` (and the same alpha trajectory) on the planned kernels
and on the buffered-scatter test oracle (``tests/naive_kernels.py``).
"""

import numpy as np

from repro.core.search import SaneSearcher, SearchConfig
from repro.core.search_space import SearchSpace
from tests.naive_kernels import planned_and_oracle

SPACE = SearchSpace(
    num_layers=2,
    node_ops=("gcn", "gat", "sage-mean", "sage-max", "gin"),
    layer_ops=("concat", "max"),
)
CONFIG = SearchConfig(epochs=3, hidden_dim=8, dropout=0.1)


def _searches(tiny_graph):
    """``(planned, oracle)`` results of the same seeded search."""
    return planned_and_oracle(
        lambda: SaneSearcher(SPACE, tiny_graph, CONFIG, seed=11).search()
    )


def test_seeded_search_derives_identical_architecture(tiny_graph):
    fused, naive = _searches(tiny_graph)
    assert fused.architecture == naive.architecture


def test_seeded_search_alpha_trajectories_match(tiny_graph):
    fused, naive = _searches(tiny_graph)
    assert len(fused.alpha_snapshots) == len(naive.alpha_snapshots)
    for snap_fused, snap_naive in zip(
        fused.alpha_snapshots, naive.alpha_snapshots
    ):
        assert snap_fused.keys() == snap_naive.keys()
        for key in snap_fused:
            np.testing.assert_allclose(
                snap_fused[key], snap_naive[key], atol=1e-8, rtol=0
            )
