"""Registry-driven gradcheck: every registered op, both kernel paths.

``tests/autograd/test_ops.py`` and friends verify hand-picked gradients;
this harness *executes* every differentiable op exported by
``repro.autograd.{ops,functional,scatter}`` against central finite
differences, on the planned kernels and on the buffered-scatter test
oracle (``tests/naive_kernels.py``), and a companion test asserts the
registry stays exhaustive — adding an op to ``__all__`` without a
gradcheck case fails the suite. The registry also drives the runtime
contract probe (``tests/autograd/contract_probe.py``): run once under
the probe, the cases must give every parent position of every tape op
a gradient to check.

Each registry entry is a list of cases; a case perturbs exactly one
differentiable input (closing over the others) and reduces the op's
output to a scalar through a fixed random projection so every output
element influences the loss with a distinct weight — a plain ``sum``
would miss gradients that are wrong by a permutation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.autograd import functional as F
from repro.autograd import scatter
from tests.autograd.contract_probe import contract_probe
from tests.helpers import check_gradient
from tests.naive_kernels import KERNEL_PATHS, kernel_path

RNG = np.random.default_rng(1234)

# Fixed operands, chosen away from kinks/ties so finite differences are
# valid: MATRIX has no zeros or duplicated values within a row/segment.
MATRIX = RNG.normal(size=(4, 3)) + np.linspace(0.0, 0.7, 12).reshape(4, 3)
OTHER = RNG.normal(size=(4, 3)) + 0.15
POSITIVE = np.abs(RNG.normal(size=(4, 3))) + 0.5
VECTOR = RNG.normal(size=(5,)) + np.linspace(0.0, 0.4, 5)
GATES = RNG.normal(size=(3, 8)) * 0.7
C_PREV = RNG.normal(size=(3, 2))
COND = RNG.random(size=(4, 3)) > 0.5
ROW_INDEX = np.array([0, 2, 1, 2, 3], dtype=np.int64)
SEGMENT_IDS = np.array([0, 0, 1, 3, 3], dtype=np.int64)
EDGE_VALUES = RNG.normal(size=(5, 3)) + np.linspace(0.0, 0.9, 15).reshape(5, 3)
EDGE_WEIGHTS = np.abs(RNG.normal(size=(5,))) + 0.3
NUM_SEGMENTS = 4

# Per-output-shape random projections (fixed across calls).
_PROJECTIONS: dict[tuple, np.ndarray] = {}


def _project(value: Tensor) -> Tensor:
    """Scalar loss: inner product with a fixed random projection."""
    shape = tuple(value.shape)
    proj = _PROJECTIONS.get(shape)
    if proj is None:
        proj = np.random.default_rng(hash(shape) % (2**32)).normal(size=shape)
        _PROJECTIONS[shape] = proj
    return ops.sum(value * Tensor(proj))


def _case(builder):
    """One gradcheck case: perturb ``data`` through ``builder``."""

    def run(data):
        check_gradient(lambda t: _project(builder(t)), data)

    return run


# name -> [(input array, op builder taking the perturbed tensor)]
OPS_CASES = {
    "add": [(MATRIX, lambda t: ops.add(t, OTHER)), (OTHER, lambda t: ops.add(MATRIX, t))],
    "sub": [(MATRIX, lambda t: ops.sub(t, OTHER)), (OTHER, lambda t: ops.sub(MATRIX, t))],
    "mul": [(MATRIX, lambda t: ops.mul(t, OTHER)), (OTHER, lambda t: ops.mul(MATRIX, t))],
    "div": [
        (MATRIX, lambda t: ops.div(t, POSITIVE)),
        (POSITIVE, lambda t: ops.div(MATRIX, t)),
    ],
    "neg": [(MATRIX, ops.neg)],
    "pow": [(POSITIVE, lambda t: ops.pow(t, 3.0))],
    "exp": [(MATRIX, ops.exp)],
    "log": [(POSITIVE, ops.log)],
    "sqrt": [(POSITIVE, ops.sqrt)],
    "tanh": [(MATRIX, ops.tanh)],
    "sigmoid": [(MATRIX, ops.sigmoid)],
    "softplus": [(MATRIX, ops.softplus)],
    "abs": [(MATRIX + 0.1, ops.abs)],
    "maximum": [
        (MATRIX, lambda t: ops.maximum(t, OTHER)),
        (OTHER + 0.05, lambda t: ops.maximum(MATRIX, t)),
    ],
    "clip": [(MATRIX * 2.0, lambda t: ops.clip(t, -1.1, 1.1))],
    "matmul": [
        (MATRIX, lambda t: ops.matmul(t, OTHER.T)),
        (OTHER.T.copy(), lambda t: ops.matmul(MATRIX, t)),
    ],
    "linear": [
        (MATRIX, lambda t: ops.linear(t, OTHER.T, VECTOR[:4])),
        (OTHER.T.copy(), lambda t: ops.linear(MATRIX, t, VECTOR[:4])),
        (VECTOR[:4].copy(), lambda t: ops.linear(MATRIX, OTHER.T, t)),
    ],
    "sum": [
        (MATRIX, ops.sum),
        (MATRIX, lambda t: ops.sum(t, axis=0)),
        (MATRIX, lambda t: ops.sum(t, axis=1, keepdims=True)),
    ],
    "mean": [(MATRIX, ops.mean), (MATRIX, lambda t: ops.mean(t, axis=1))],
    "max": [
        (MATRIX, ops.max),
        (MATRIX, lambda t: ops.max(t, axis=0)),
        (MATRIX, lambda t: ops.max(t, axis=1, keepdims=True)),
    ],
    "reshape": [(MATRIX, lambda t: ops.reshape(t, (2, 6)))],
    "transpose": [
        (MATRIX, ops.transpose),
        (MATRIX, lambda t: ops.transpose(t, (1, 0))),
    ],
    "getitem": [
        (MATRIX, lambda t: ops.getitem(t, ROW_INDEX[:4])),  # row gather
        (MATRIX, lambda t: ops.getitem(t, (slice(1, 3), slice(0, 2)))),
    ],
    "concatenate": [
        (MATRIX, lambda t: ops.concatenate([t, Tensor(OTHER)], axis=0)),
        (OTHER, lambda t: ops.concatenate([Tensor(MATRIX), t], axis=1)),
    ],
    "stack": [
        (MATRIX, lambda t: ops.stack([t, Tensor(OTHER)], axis=0)),
        (OTHER, lambda t: ops.stack([Tensor(MATRIX), t], axis=1)),
    ],
    "where": [
        (MATRIX, lambda t: ops.where(COND, t, Tensor(OTHER))),
        (OTHER, lambda t: ops.where(COND, Tensor(MATRIX), t)),
    ],
    "weighted_sum": [
        (MATRIX, lambda t: ops.weighted_sum([t, Tensor(OTHER)], Tensor(VECTOR[:2]))),
        (
            VECTOR[:2].copy(),
            lambda t: ops.weighted_sum([Tensor(MATRIX), Tensor(OTHER)], t),
        ),
        (OTHER, lambda t: ops.weighted_sum([Tensor(MATRIX), t], Tensor(VECTOR[:2]))),
    ],
}

_TARGETS = np.array([0, 2, 1, 2], dtype=np.int64)
_BINARY = (RNG.random(size=(4, 3)) > 0.4).astype(np.float64)

FUNCTIONAL_CASES = {
    "relu": [(MATRIX + 0.1, F.relu)],
    "leaky_relu": [(MATRIX + 0.1, lambda t: F.leaky_relu(t, 0.2))],
    "elu": [(MATRIX + 0.1, lambda t: F.elu(t, alpha=1.0))],
    "tanh": [(MATRIX, F.tanh)],
    "sigmoid": [(MATRIX, F.sigmoid)],
    "softmax": [(MATRIX, lambda t: F.softmax(t, axis=-1))],
    "log_softmax": [(MATRIX, lambda t: F.log_softmax(t, axis=-1))],
    # A fresh same-seed generator per call keeps the mask identical
    # across the finite-difference evaluations.
    "dropout": [
        (MATRIX, lambda t: F.dropout(t, 0.4, True, np.random.default_rng(3))),
        (MATRIX, lambda t: F.dropout(t, 0.4, False, np.random.default_rng(3))),
    ],
    "lstm_gate_update": [
        (GATES, lambda t: _lstm_loss(t, Tensor(C_PREV))),
        (C_PREV, lambda t: _lstm_loss(Tensor(GATES), t)),
    ],
    "nll_loss": [
        (MATRIX, lambda t: F.nll_loss(F.log_softmax(t), _TARGETS)),
        (MATRIX, lambda t: F.nll_loss(F.log_softmax(t), _TARGETS, reduction="sum")),
    ],
    "cross_entropy": [(MATRIX, lambda t: F.cross_entropy(t, _TARGETS))],
    "binary_cross_entropy_with_logits": [
        (MATRIX, lambda t: F.binary_cross_entropy_with_logits(t, Tensor(_BINARY))),
    ],
}


def _lstm_loss(gates, c_prev):
    h_new, c_new = F.lstm_gate_update(gates, c_prev)
    return _project(h_new) + _project(c_new)


SCATTER_CASES = {
    "gather": [(MATRIX, lambda t: scatter.gather(t, ROW_INDEX))],
    "segment_sum": [
        (EDGE_VALUES, lambda t: scatter.segment_sum(t, SEGMENT_IDS, NUM_SEGMENTS)),
        (EDGE_WEIGHTS, lambda t: scatter.segment_sum(t, SEGMENT_IDS, NUM_SEGMENTS)),
    ],
    "segment_mean": [
        (EDGE_VALUES, lambda t: scatter.segment_mean(t, SEGMENT_IDS, NUM_SEGMENTS)),
    ],
    "segment_max": [
        (EDGE_VALUES, lambda t: scatter.segment_max(t, SEGMENT_IDS, NUM_SEGMENTS)),
        (EDGE_WEIGHTS, lambda t: scatter.segment_max(t, SEGMENT_IDS, NUM_SEGMENTS)),
    ],
    "segment_softmax": [
        (EDGE_WEIGHTS, lambda t: scatter.segment_softmax(t, SEGMENT_IDS, NUM_SEGMENTS)),
    ],
    "segment_attention_sum": [
        (
            MATRIX,
            lambda t: scatter.segment_attention_sum(
                t, Tensor(EDGE_WEIGHTS), ROW_INDEX, SEGMENT_IDS, NUM_SEGMENTS
            ),
        ),
        (
            EDGE_WEIGHTS,
            lambda t: scatter.segment_attention_sum(
                Tensor(MATRIX), t, ROW_INDEX, SEGMENT_IDS, NUM_SEGMENTS
            ),
        ),
    ],
}

# Exported names that are legitimately absent from the sweep.
_NON_OPS = {
    "functional": {"ACTIVATIONS"},  # a name->op table, not an op
}

_REGISTRIES = {
    "ops": (ops, OPS_CASES),
    "functional": (F, FUNCTIONAL_CASES),
    "scatter": (scatter, SCATTER_CASES),
}

_ALL_CASES = [
    pytest.param(module_name, op_name, index, id=f"{module_name}.{op_name}[{index}]")
    for module_name, (_, registry) in _REGISTRIES.items()
    for op_name, cases in registry.items()
    for index in range(len(cases))
]


def registry_cases():
    """``("<module>.<op>", cases)`` for every registry entry."""
    for module_name, (_, registry) in _REGISTRIES.items():
        for op_name, cases in registry.items():
            yield f"{module_name}.{op_name}", cases


def backward_once(data, builder) -> None:
    """One analytic forward+backward of a case, without the finite
    differences: the cheap pass the contract probe observes."""
    tensor = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
    _project(builder(tensor)).backward()


@pytest.mark.parametrize("backend", KERNEL_PATHS)
@pytest.mark.parametrize("module_name, op_name, index", _ALL_CASES)
def test_gradcheck(backend, module_name, op_name, index):
    _, registry = _REGISTRIES[module_name]
    data, builder = registry[op_name][index]
    with kernel_path(backend):
        _case(builder)(np.array(data, dtype=np.float64))


@pytest.mark.parametrize("module_name", sorted(_REGISTRIES))
def test_registry_covers_every_exported_op(module_name):
    module, registry = _REGISTRIES[module_name]
    exported = set(module.__all__) - _NON_OPS.get(module_name, set())
    missing = exported - set(registry)
    assert not missing, (
        f"{module_name}.__all__ exports {sorted(missing)} without a "
        "gradcheck case; register one in test_gradcheck.py"
    )
    stale = set(registry) - exported
    assert not stale, (
        f"gradcheck registry names {sorted(stale)} not exported by "
        f"{module_name}.__all__"
    )


def test_registry_gives_every_parent_position_a_gradient():
    # A parent position no case perturbs is a VJP branch no gradcheck
    # ever compares against finite differences.
    with contract_probe() as probe:
        for _, cases in registry_cases():
            for data, builder in cases:
                backward_once(data, builder)
    assert probe.positions, "the probe recorded no tape op"
    uncovered = {}
    for key, positions in probe.positions.items():
        missing = set(range(max(probe.arities[key]))) - positions
        if missing:
            uncovered[key] = sorted(missing)
    assert not uncovered, (
        f"tape ops with parent positions no gradcheck case perturbs: {uncovered}"
    )
