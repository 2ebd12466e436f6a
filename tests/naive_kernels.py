"""Buffered-scatter oracle for the planned kernels in ``repro.autograd.kernels``.

The textbook scatter — ``np.zeros`` plus ``np.add.at`` for sums,
``np.full(-inf)`` plus ``np.maximum.at`` for maxima — is slow but
obviously correct, and it ignores every :class:`SegmentPlan` it is
handed. The planned kernels must match it exactly: sums bit-identical
(both accumulate in input-row order per output slot), maxima equal.

Three ways to run code against the oracle:

* :func:`oracle_kernels` — a context manager, for tests that compare a
  planned run and an oracle run inside one test body;
* the ``naive_kernels`` fixture (re-exported by ``tests/conftest.py``)
  — swaps the oracle in for a whole test, e.g. to rerun a seeded
  search or a gradcheck on the textbook path;
* :data:`KERNEL_PATHS` / :func:`kernel_path` — parametrize one test
  over both paths (ids ``fused`` for the planned kernels, ``naive``
  for the oracle).

All three patch the module-private ``_scatter_sum_impl`` /
``_weighted_scatter_sum_impl`` / ``_scatter_max_impl`` behind the
public wrappers, so kernel counters and every caller (segment ops,
gather adjoints, attention sums, aggregators) see the oracle without
knowing it is there.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.autograd import kernels


KERNEL_PATHS = ("naive", "fused")


def naive_scatter_sum(values, segment_ids, num_segments, plan=None):
    """``out[s] = sum of values rows with segment_ids == s``; ignores ``plan``."""
    out = np.zeros((num_segments,) + values.shape[1:], dtype=np.float64)
    np.add.at(out, segment_ids, values)
    return out


def naive_weighted_scatter_sum(
    x, weights, columns, segment_ids, num_segments, plan=None
):
    """``out[s] = sum of weights[e] * x[columns[e]] with segment_ids == s``.

    Gather, scale, buffered scatter; ignores ``plan``.
    """
    messages = np.take(x, columns, axis=0) * weights[..., None]
    return naive_scatter_sum(messages, segment_ids, num_segments)


def naive_scatter_max(values, segment_ids, num_segments, plan=None):
    """``out[s] = max over values rows with segment_ids == s``; ignores ``plan``."""
    out = np.full((num_segments,) + values.shape[1:], -np.inf, dtype=np.float64)
    np.maximum.at(out, segment_ids, values)
    return out


# The module-private kernel bodies and the oracle that replaces each.
_ORACLES = {
    "_scatter_sum_impl": naive_scatter_sum,
    "_weighted_scatter_sum_impl": naive_weighted_scatter_sum,
    "_scatter_max_impl": naive_scatter_max,
}


@contextlib.contextmanager
def oracle_kernels():
    """Route every scatter through the buffered oracle inside the block."""
    saved = {name: getattr(kernels, name) for name in _ORACLES}
    for name, oracle in _ORACLES.items():
        setattr(kernels, name, oracle)
    try:
        yield
    finally:
        for name, impl in saved.items():
            setattr(kernels, name, impl)


def kernel_path(name: str):
    """Context for one :data:`KERNEL_PATHS` entry."""
    return oracle_kernels() if name == "naive" else contextlib.nullcontext()


def planned_and_oracle(fn):
    """``(fn() on the planned kernels, fn() on the oracle)``."""
    planned = fn()
    with oracle_kernels():
        return planned, fn()


@pytest.fixture
def naive_kernels():
    """Run the whole test on the buffered-scatter oracle."""
    with oracle_kernels():
        yield
