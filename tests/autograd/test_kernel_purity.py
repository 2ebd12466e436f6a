"""Every public kernel is a pure function of its inputs.

Counted runs stay bit-identical to uncounted ones, and the
buffered-scatter oracle stays substitutable for the planned kernels,
only while no kernel writes its arguments or module state. Each public
name in ``kernels.__all__`` runs on fresh inputs under
:func:`~tests.autograd.contract_probe.kernel_effects`; the sanctioned
exceptions are ``index_add``'s ``out`` and the module state
:data:`~tests.autograd.contract_probe.KERNEL_STATE` declares. A new
kernel without a case here fails the exhaustiveness test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import kernels
from tests.autograd.contract_probe import KERNEL_STATE, kernel_effects


def _ids():
    return np.array([2, 0, 2, 1, 0], dtype=np.int64)


def _rows():
    return np.arange(15, dtype=np.float64).reshape(5, 3) - 4.0


# name -> (fresh-argument factory, argument positions written on purpose)
KERNEL_CASES = {
    "LruMap": (lambda: (4,), ()),
    "SegmentPlan": (lambda: (_ids(), 3), ()),
    "plan_for": (lambda: (_ids(), 3), ()),
    "peek_plan": (lambda: (_ids(), 3), ()),
    "segment_counts": (lambda: (_ids(), 3), ()),
    "scatter_sum": (lambda: (_rows(), _ids(), 3), ()),
    "weighted_scatter_sum": (
        lambda: (_rows(), _rows()[:, 0], _ids(), _ids(), 3), ()
    ),
    "scatter_max": (lambda: (_rows(), _ids(), 3), ()),
    "index_add": (lambda: (np.zeros((3, 3)), _ids(), _rows()), (0,)),
    "is_row_index": (lambda: (_ids(),), ()),
    "KernelCounters": (lambda: (), ()),
    "set_kernel_counters": (lambda: (kernels.KernelCounters(),), ()),
    "get_kernel_counters": (lambda: (), ()),
    "count_kernels": (lambda: (), ()),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_public_kernel_is_pure(name):
    make_args, mutates = KERNEL_CASES[name]
    try:
        effects = kernel_effects(
            getattr(kernels, name), make_args(), mutates, KERNEL_STATE.get(name, ())
        )
    finally:
        kernels.set_kernel_counters(None)
    assert effects == [], f"kernels.{name} has side effects: {effects}"


def test_index_add_writes_only_out():
    out, index, values = KERNEL_CASES["index_add"][0]()
    assert kernel_effects(kernels.index_add, (out, index, values)) == [
        "mutated argument 0"
    ]


def test_cases_cover_every_exported_kernel():
    exported = set(kernels.__all__)
    assert set(KERNEL_CASES) == exported, (
        f"missing cases: {sorted(exported - set(KERNEL_CASES))}; "
        f"stale cases: {sorted(set(KERNEL_CASES) - exported)}"
    )
    assert set(KERNEL_STATE) <= exported
