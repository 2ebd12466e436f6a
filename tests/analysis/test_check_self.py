"""The autograd tree gates itself: every executed backward keeps its contract.

The gradcheck registry, a real SANE search (3 layers, 2 epochs, the
full 11-aggregator Eq. 2 mixture plus the alpha step), a second-order
search (the Eq. 8 virtual step and its finite-difference probes rebind
``w.data``) and two weight-sharing candidates (the second restores
weights from the shared bank) run under the runtime contract probe
(``tests/autograd/contract_probe.py``). Any backward that returns the
wrong number of gradients, drops one a parent asked for, or finds the
storage the tape holds written or rebound fails here; so does a float
capture the allowlist does not declare, and an allowlist entry no op
exercises any more.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.core.search import SaneSearcher, SearchConfig
from repro.core.search_space import SearchSpace
from repro.nas.encoding import sane_decision_space
from repro.nas.evaluation import ArchitectureEvaluator
from repro.train.trainer import TrainConfig
from tests.autograd.contract_probe import RETAINS, contract_probe
from tests.autograd.test_gradcheck import backward_once, registry_cases
from tests.conftest import _make_tiny_graph


@pytest.fixture(scope="module")
def probes():
    """One probe per registry entry, plus one over whole runs: a
    first-order search, a second-order search and a weight-sharing
    evaluator."""
    per_op = {}
    for name, cases in registry_cases():
        with contract_probe() as probe:
            for data, builder in cases:
                backward_once(data, builder)
        per_op[name] = probe
    graph = _make_tiny_graph()
    with contract_probe() as search:
        SaneSearcher(
            SearchSpace(num_layers=3), graph, SearchConfig(epochs=2), seed=0,
        ).search()
    with contract_probe() as second_order:
        SaneSearcher(
            SearchSpace(num_layers=2), graph, SearchConfig(epochs=2, xi=0.01),
            seed=0,
        ).search()
    space = sane_decision_space(
        SearchSpace(num_layers=2, node_ops=("gcn", "gat"), layer_ops=("concat",))
    )
    evaluator = ArchitectureEvaluator(
        space, graph, train_config=TrainConfig(epochs=3, patience=3),
        hidden_dim=8, weight_sharing=True, ws_epochs=2,
    )
    with contract_probe() as shared:
        rng = np.random.default_rng(0)
        for __ in range(2):
            evaluator.evaluate(space.sample_indices(rng))
    return per_op, search, [search, second_order, shared]


class TestCheckSelf:
    def test_autograd_tree_has_no_live_findings(self, probes):
        per_op, search, runs = probes
        for probe in [*per_op.values(), *runs]:
            assert probe.violations == []
        # The search backpropagated (and the probe checked) thousands
        # of nodes, the Eq. 2 mixture among them.
        assert search.backward_calls >= 1000
        assert search.ops["ops.weighted_sum"] > 0

    def test_baseline_covers_exactly_the_known_debt(self, probes):
        # Observed float captures equal the declared allowlist exactly:
        # a new capture needs a reason in RETAINS, and an entry no op
        # exercises any more is stale and must go.
        per_op, __, runs = probes
        observed: dict[str, set[str]] = {}
        for probe in [*per_op.values(), *runs]:
            for key, names in probe.captures.items():
                observed.setdefault(key, set()).update(names)
        assert observed == {key: set(names) for key, names in RETAINS.items()}

    def test_capture_report_covers_the_tape_sites(self, probes):
        per_op, __, runs = probes
        # Every registry op reached the tape, and the probe checked the
        # backward of every node its cases recorded.
        for name, probe in per_op.items():
            recorded = sum(probe.ops.values())
            assert recorded > 0, name
            assert probe.backward_calls == recorded, name
        # The runs use no tape op the registry leaves unprobed.
        registry_ops = set().union(*(probe.ops for probe in per_op.values()))
        for probe in runs:
            assert probe.backward_calls > 0
            assert set(probe.ops) <= registry_ops
