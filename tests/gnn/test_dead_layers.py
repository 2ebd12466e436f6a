"""Layers behind trailing ZERO skips are not evaluated, bit for bit.

With a JK layer aggregator, a layer after the last IDENTITY skip feeds
the aggregator only zeros and feeds no later layer. ``GNNModel`` skips
its forward and backward; training must stay byte-identical to
evaluating it and multiplying its output by zero, which
:func:`_evaluate_every_layer` keeps as the reference.
"""

import numpy as np
import pytest

from repro.autograd.tensor import as_tensor, no_grad
from repro.gnn.common import GraphCache
from repro.gnn.models import GNNModel
from repro.train.trainer import TrainConfig, fit


def _evaluate_every_layer(self, features, cache):
    """``GNNModel.embed`` as it was before dead layers were skipped."""
    h = self.dropout(as_tensor(features))
    layer_outputs = []
    for layer, activation in zip(self.layers, self.activations):
        h = activation(layer(h, cache))
        h = self.dropout(h)
        layer_outputs.append(h)
    if self.layer_aggregator is None:
        return layer_outputs[-1]
    inputs = [
        out if keep else out * 0.0
        for out, keep in zip(layer_outputs, self.skip_connections)
    ]
    return self.layer_aggregator(inputs)


def _skips(code):
    return [c == "I" for c in code]


def _model(in_dim, num_classes, aggregators, skips, layer_aggregator,
           activation="relu"):
    return GNNModel(
        in_dim, 8, num_classes, list(aggregators), np.random.default_rng(3),
        skip_connections=_skips(skips), layer_aggregator=layer_aggregator,
        activation=activation, heads=2,
    )


@pytest.mark.parametrize(
    "skips, layer_aggregator, expected",
    [
        ("IZZ", "concat", 1), ("ZZZ", "max", 0), ("ZIZ", "lstm", 2),
        ("IZI", "concat", 3), ("ZZZ", None, 3),
    ],
)
def test_live_prefix_ends_at_last_identity_skip(skips, layer_aggregator, expected):
    model = _model(6, 3, ["gcn"] * 3, skips, layer_aggregator)
    assert model.num_live_layers == expected


def _spy_on_layers(model, patch):
    """Record the index of each node-aggregator forward that runs."""
    calls = []
    for index, layer in enumerate(model.layers):
        def spy(h, cache, index=index, forward=layer.forward):
            calls.append(index)
            return forward(h, cache)
        patch.setattr(layer, "forward", spy)
    return calls


@pytest.mark.parametrize("skips, live", [("IZZ", [0]), ("ZZZ", [])])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_dead_layers_never_run_forward(
    skips, live, mode, tiny_graph, tiny_cache, monkeypatch
):
    model = _model(
        tiny_graph.num_features, tiny_graph.num_classes,
        ["gcn", "sage-mean", "gat"], skips, "concat",
    )
    model.train(mode == "train")
    calls = _spy_on_layers(model, monkeypatch)
    logits = model(tiny_graph.features, tiny_cache)
    assert calls == live
    assert logits.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)
    if mode == "train":
        logits.sum().backward()
        for layer in model.layers[len(live):]:
            for param in layer.parameters():
                assert param.grad is not None
                assert not np.any(param.grad)


def _train(model, data, reference, monkeypatch):
    """Train a few epochs; everything a seeded run can observe."""
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(GNNModel, "embed", _evaluate_every_layer)
        calls = _spy_on_layers(model, patch)
        config = TrainConfig(epochs=4, patience=4, weight_decay=5e-4)
        result = fit(model, data, config)
        model.eval()
        graph = getattr(data, "train_graphs", [data])[0]
        with no_grad():
            logits = model(graph.features, GraphCache(graph)).data
    return {
        "history": result.history,
        "scores": (result.val_score, result.test_score, result.best_epoch),
        "state": model.state_dict(),
        "logits": logits,
        "rng": model.dropout._rng.bit_generator.state,
        "layers_run": sorted(set(calls)),
    }


def _assert_identical(run, reference):
    assert run["history"] == reference["history"]
    assert run["scores"] == reference["scores"]
    assert run["rng"] == reference["rng"]
    assert run["logits"].tobytes() == reference["logits"].tobytes()
    assert run["state"].keys() == reference["state"].keys()
    for name, value in reference["state"].items():
        assert run["state"][name].tobytes() == value.tobytes(), name


# Together the cases put each of the 11 node aggregators behind a
# ZERO skip, under each layer aggregator.
CASES = [
    ("IZZ", "concat", ("gcn", "gat-gen-linear", "geniepath"), "relu"),
    ("IZZ", "max", ("sage-sum", "sage-max", "gat-sym"), "relu"),
    ("IZZ", "lstm", ("gat", "gin", "sage-mean"), "tanh"),
    ("ZZZ", "concat", ("gat-cos", "gat-linear", "gcn"), "elu"),
    ("ZZZ", "max", ("gin", "geniepath", "gat"), "relu"),
    ("IIZ", "lstm", ("gcn", "sage-mean", "gat-linear"), "relu"),
]


@pytest.mark.parametrize("skips, layer_aggregator, aggregators, activation", CASES)
def test_training_is_byte_identical_to_evaluating_every_layer(
    skips, layer_aggregator, aggregators, activation, tiny_graph, monkeypatch
):
    runs = [
        _train(
            _model(
                tiny_graph.num_features, tiny_graph.num_classes, aggregators,
                skips, layer_aggregator, activation,
            ),
            tiny_graph, reference, monkeypatch,
        )
        for reference in (True, False)
    ]
    _assert_identical(runs[1], runs[0])
    assert runs[0]["layers_run"] == [0, 1, 2]
    assert runs[1]["layers_run"] == list(range(skips.rfind("I") + 1))
    # Weight decay moved the dead layers' parameters, so they were given
    # gradients and stepped, not left out of the optimiser.
    init = _model(
        tiny_graph.num_features, tiny_graph.num_classes, aggregators, skips,
        layer_aggregator, activation,
    ).state_dict()
    dead = f"layers.{len(skips) - 1}."
    assert any(
        not np.array_equal(value, init[name])
        for name, value in runs[1]["state"].items() if name.startswith(dead)
    )


def test_inductive_training_is_byte_identical(tiny_ppi, monkeypatch):
    runs = [
        _train(
            _model(
                tiny_ppi.num_features, tiny_ppi.num_classes,
                ("gat", "gcn", "gin"), "IZZ", "lstm",
            ),
            tiny_ppi, reference, monkeypatch,
        )
        for reference in (True, False)
    ]
    _assert_identical(runs[1], runs[0])
    assert runs[1]["layers_run"] == [0]
