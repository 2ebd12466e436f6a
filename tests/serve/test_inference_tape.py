"""Serving builds no tape: every forward runs under ``no_grad``.

The engine's load-time memo forward, a memo answer and a foreign-graph
forward (on a server worker thread) run under the contract probe, which
counts every tape node any thread records. A forward that escaped
``no_grad`` would record one per op and leak its backward closures per
request; the probe sees it wherever the forward hides, behind wrappers
included. ``tests/analysis/test_rules.py::TestTapeInInference`` plants
that defect and shows this check fails on it.
"""

from tests.serve.conftest import foreign_graph, serving_tape


class TestServingRecordsNoTape:
    def test_node_artifact_memo_and_foreign_forwards(self, node_artifact):
        probe = serving_tape(node_artifact, foreign_graph(node_artifact))
        assert sum(probe.ops.values()) == 0, dict(probe.ops)
        assert probe.backward_calls == 0

    def test_kg_artifact_encode(self, kg_artifact):
        probe = serving_tape(kg_artifact)
        assert sum(probe.ops.values()) == 0, dict(probe.ops)
        assert probe.backward_calls == 0
