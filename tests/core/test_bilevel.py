"""The shared bi-level step: each half backpropagates into its own group only.

Every searcher (node search transductive/inductive, first and second
order; entity alignment; pooling search) runs through
:mod:`repro.core.bilevel`. Freezing the group a half does not update
must leave the other group's ``.grad`` empty and every seeded result
byte-identical to a full backward, which the tests rerun with
:func:`repro.core.bilevel.frozen` patched to a no-op as the reference.
"""

import contextlib
import gc
import hashlib

import numpy as np
import pytest

from repro.core import bilevel
from repro.core.search import SaneSearcher, SearchConfig
from repro.core.search_space import SearchSpace
from repro.graphclf import GraphSearchConfig, generate_graph_dataset, search_graph_classifier
from repro.kg.data import generate_alignment_dataset
from repro.kg.search import AlignSearchConfig, search_alignment
from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.obs.health import check_numerics
from repro.obs.search_telemetry import grad_l2_norm

SPACE = SearchSpace(
    num_layers=2, node_ops=("gcn", "gat", "sage-mean"), layer_ops=("concat", "max")
)
FAST = SearchConfig(epochs=3, hidden_dim=8, dropout=0.1)
ALIGN = AlignSearchConfig(
    epochs=3, num_layers=2, embedding_dim=12, node_ops=("gcn", "gat", "sage-mean")
)
POOL = GraphSearchConfig(
    epochs=4, hidden_dim=12, node_ops=("gcn", "gin"), pooling_ops=("mean", "sum")
)


def _core(data, config):
    def run():
        result = SaneSearcher(SPACE, data, config, seed=0).search()
        snapshots = b"".join(
            snapshot[kind].tobytes()
            for snapshot in result.alpha_snapshots
            for kind in ("node", "skip", "layer")
        )
        return result.history, result.architecture.describe(), snapshots

    return run, config.alpha_lr


def _align():
    dataset = generate_alignment_dataset(seed=0, num_core=80, extra_1=10, extra_2=20)

    def run():
        result = search_alignment(dataset, ALIGN, seed=0)
        return result.history, result.node_aggregators, b""

    return run, ALIGN.alpha_lr


def _pool():
    dataset = generate_graph_dataset(seed=0, graphs_per_class=5, num_nodes=16)

    def run():
        result = search_graph_classifier(dataset, POOL, seed=0)
        return result.history, (result.node_aggregators, result.pooling), b""

    return run, POOL.alpha_lr


CASES = {
    "core-transductive": lambda graph, ppi: _core(graph, FAST),
    "core-inductive": lambda graph, ppi: _core(ppi, FAST),
    "core-second-order": lambda graph, ppi: _core(graph, FAST.replace(xi=0.01)),
    "kg-align": lambda graph, ppi: _align(),
    "graphclf": lambda graph, ppi: _pool(),
}
SEARCHERS = ("core-transductive", "kg-align", "graphclf")


class StepSpy:
    """Watches every ``Adam`` a search builds, at each ``step()``.

    Per step it records which optimizer stepped (``alpha`` when its
    learning rate is the config's alpha rate), whether every *other*
    optimizer's parameters had an empty ``.grad``, and the stepping
    group's post-clip grad norm; after the step it hashes every
    parameter's bytes into :attr:`digest`.
    """

    def __init__(self, monkeypatch, alpha_lr):
        self.alpha_lr = alpha_lr
        self.optimizers: list[Adam] = []
        self.steps: list[tuple[str, bool, float]] = []
        self.digest = hashlib.sha256()
        init, step = Adam.__init__, Adam.step

        def spy_init(optimizer, *args, **kwargs):
            init(optimizer, *args, **kwargs)
            self.optimizers.append(optimizer)

        def spy_step(optimizer):
            others = [o for o in self.optimizers if o is not optimizer]
            self.steps.append((
                "alpha" if optimizer.lr == self.alpha_lr else "w",
                all(p.grad is None for o in others for p in o.params),
                grad_l2_norm(optimizer.params),
            ))
            step(optimizer)
            for param in optimizer.params:
                self.digest.update(param.data.tobytes())

        monkeypatch.setattr(Adam, "__init__", spy_init)
        monkeypatch.setattr(Adam, "step", spy_step)

    def halves(self, name):
        return [step for step in self.steps if step[0] == name]


def _fingerprint(run, spy) -> str:
    history, genotype, snapshots = run()
    spy.digest.update(snapshots)
    spy.digest.update(np.array([score for __, score in history]).tobytes())
    spy.digest.update(repr(genotype).encode())
    return spy.digest.hexdigest()


@pytest.fixture(params=sorted(CASES))
def case(request, tiny_graph, tiny_ppi):
    return request.param, CASES[request.param](tiny_graph, tiny_ppi)


class TestFrozen:
    def test_frozen_parameter_gets_no_gradient(self):
        a, b = Parameter(np.ones(3)), Parameter(np.full(3, 2.0))
        grads = bilevel.gradients(lambda: (a * b).sum(), [a], hold=[b])
        np.testing.assert_array_equal(grads[0], b.data)
        assert b.grad is None and b.requires_grad

    def test_flags_restored_when_the_block_raises(self):
        a = Parameter(np.ones(2))
        a.requires_grad = False
        b = Parameter(np.ones(2))
        with pytest.raises(RuntimeError), bilevel.frozen([a, b]):
            assert not b.requires_grad
            raise RuntimeError("boom")
        assert (a.requires_grad, b.requires_grad) == (False, True)


class TestEachHalfUpdatesOneGroup:
    def test_other_group_has_no_gradient_at_each_step(self, case, monkeypatch):
        name, (run, alpha_lr) = case
        spy = StepSpy(monkeypatch, alpha_lr)
        run()
        assert len(spy.optimizers) == 2
        assert spy.optimizers[0].lr != spy.optimizers[1].lr
        alpha, weight = spy.halves("alpha"), spy.halves("w")
        assert len(alpha) == len(weight) > 0
        # After the alpha half every weight .grad is None, and after
        # the w half every alpha .grad is None.
        assert all(other_empty for __, other_empty, __ in spy.steps), name

    def test_freeze_is_byte_identical_to_a_full_backward(self, case, monkeypatch):
        __, (run, alpha_lr) = case
        with monkeypatch.context() as patch:
            frozen = _fingerprint(run, StepSpy(patch, alpha_lr))
        with monkeypatch.context() as patch:
            patch.setattr(bilevel, "frozen", lambda params: contextlib.nullcontext())
            full = _fingerprint(run, StepSpy(patch, alpha_lr))
        assert frozen == full


class TestGradHealthGauges:
    @pytest.mark.parametrize("name", SEARCHERS)
    def test_reports_post_clip_norms_of_each_step(
        self, name, tiny_graph, tiny_ppi, monkeypatch
    ):
        run, alpha_lr = CASES[name](tiny_graph, tiny_ppi)
        spy = StepSpy(monkeypatch, alpha_lr)
        with check_numerics(mode="warn") as monitor:
            run()
        reports = monitor.epoch_reports
        assert [r["arch_grad_norm"] for r in reports] == [
            norm for __, __, norm in spy.halves("alpha")
        ]
        assert [r["weight_grad_norm"] for r in reports] == [
            norm for __, __, norm in spy.halves("w")
        ]
        gc.collect()  # drop the search's tape before the next test
