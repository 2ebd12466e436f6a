"""Planned-kernel equivalence with the buffered oracle, plan structure, memo.

The planned CSR kernels must be indistinguishable from the buffered
``ufunc.at`` oracle in ``tests/naive_kernels.py``: property tests drive
both over random segment structures (including empty segments,
isolated outputs and zero-length inputs) and assert forward agreement
within 1e-9. The sums — plain and weighted — must be bit-identical to
it, ``-0.0``, NaN and inf included: that is what guards the assumption
that the sparse product adds the same products in the same order (no
fused multiply-add). Gradchecks run on both paths, and a
corrupted-plan test proves the oracle really is substituted.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_array

from repro.autograd import kernels
from repro.autograd.kernels import (
    SegmentPlan,
    peek_plan,
    plan_for,
    scatter_max,
    scatter_sum,
    weighted_scatter_sum,
)
from repro.autograd.scatter import (
    gather,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.autograd.tensor import Tensor
from tests.helpers import check_gradient
from tests.naive_kernels import (
    KERNEL_PATHS,
    kernel_path,
    naive_scatter_max,
    naive_scatter_sum,
    naive_weighted_scatter_sum,
    oracle_kernels,
    planned_and_oracle,
)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
special = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])
any_float = st.one_of(finite, special, st.floats(width=64))


def assert_bit_identical(actual, expected):
    """Same shape, NaN in the same slots, identical bits everywhere else.

    NaN payloads are not compared: the sign and payload of a NaN
    product depend on operand order, which IEEE leaves open.
    """
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(
        actual[~nan].view(np.int64), expected[~nan].view(np.int64)
    )


@st.composite
def segmented_values(draw, max_rows=12, max_segments=8, max_cols=4):
    """Random (values, segment_ids, num_segments); empty segments likely."""
    num_segments = draw(st.integers(1, max_segments))
    num_rows = draw(st.integers(0, max_rows))
    ids = draw(
        arrays(
            np.int64, (num_rows,), elements=st.integers(0, num_segments - 1)
        )
    )
    cols = draw(st.integers(1, max_cols))
    values = draw(arrays(np.float64, (num_rows, cols), elements=finite))
    return values, ids, num_segments


@st.composite
def weighted_edges(draw, max_edges=12, max_nodes=6, max_segments=6):
    """Random (x, weights, columns, segment_ids, num_segments).

    ``x`` is ``(N, d)`` with ``(E,)`` weights or ``(N, H, d)`` with
    ``(E, H)`` weights, H in {1, 2, 4}; zero edges, empty segments and
    ``-0.0`` / NaN / inf entries all occur.
    """
    num_segments = draw(st.integers(1, max_segments))
    num_nodes = draw(st.integers(1, max_nodes))
    num_edges = draw(st.integers(0, max_edges))
    heads = draw(st.sampled_from([None, 1, 2, 4]))
    width = draw(st.integers(1, 3))
    head_shape = () if heads is None else (heads,)
    x = draw(
        arrays(np.float64, (num_nodes,) + head_shape + (width,),
               elements=any_float)
    )
    weights = draw(
        arrays(np.float64, (num_edges,) + head_shape, elements=any_float)
    )
    columns = draw(
        arrays(np.int64, (num_edges,), elements=st.integers(0, num_nodes - 1))
    )
    ids = draw(
        arrays(
            np.int64, (num_edges,), elements=st.integers(0, num_segments - 1)
        )
    )
    return x, weights, columns, ids, num_segments


# ----------------------------------------------------------------------
# raw kernel equivalence
# ----------------------------------------------------------------------
@given(segmented_values())
@settings(max_examples=80, deadline=None)
def test_scatter_sum_backends_agree(case):
    values, ids, n = case
    np.testing.assert_allclose(
        scatter_sum(values, ids, n), naive_scatter_sum(values, ids, n),
        atol=1e-9, rtol=0,
    )


@given(segmented_values())
@settings(max_examples=80, deadline=None)
def test_scatter_max_backends_agree(case):
    values, ids, n = case
    np.testing.assert_array_equal(
        scatter_max(values, ids, n), naive_scatter_max(values, ids, n)
    )


@given(segmented_values())
@settings(max_examples=40, deadline=None)
def test_scatter_sum_1d_backends_agree(case):
    values, ids, n = case
    flat = values[:, 0]
    np.testing.assert_allclose(
        scatter_sum(flat, ids, n), naive_scatter_sum(flat, ids, n),
        atol=1e-9, rtol=0,
    )


def test_scatter_sum_fused_is_bit_identical_to_naive():
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 50, size=400)
    values = rng.normal(size=(400, 16))
    # Same accumulation order per output slot => exact equality.
    np.testing.assert_array_equal(
        scatter_sum(values, ids, 50), naive_scatter_sum(values, ids, 50)
    )


@given(segmented_values(), st.data())
@settings(max_examples=60, deadline=None)
def test_scatter_sum_is_bit_identical_with_special_values(case, data):
    values, ids, n = case
    values = data.draw(arrays(np.float64, values.shape, elements=any_float))
    with np.errstate(invalid="ignore", over="ignore"):
        assert_bit_identical(
            scatter_sum(values, ids, n), naive_scatter_sum(values, ids, n)
        )


@given(weighted_edges())
@settings(max_examples=150, deadline=None)
def test_weighted_scatter_sum_is_bit_identical_to_oracle(case):
    x, weights, columns, ids, n = case
    with np.errstate(invalid="ignore", over="ignore"):
        assert_bit_identical(
            weighted_scatter_sum(x, weights, columns, ids, n),
            naive_weighted_scatter_sum(x, weights, columns, ids, n),
        )


def test_sums_match_the_public_sparse_product():
    """The kernels call scipy's CSR loop directly; same bits as ``@``."""
    rng = np.random.default_rng(9)
    ids = rng.integers(0, 40, size=300)
    columns = rng.integers(0, 50, size=300)
    x = rng.normal(size=(50, 6))
    weights = rng.normal(size=300)
    values = rng.normal(size=(300, 6))
    plan = SegmentPlan(ids, 40)
    weighted = csr_array(
        (weights[plan.order], columns[plan.order], plan.indptr), shape=(40, 50)
    )
    assert_bit_identical(
        weighted_scatter_sum(x, weights, columns, ids, 40, plan), weighted @ x
    )
    assert_bit_identical(scatter_sum(values, ids, 40, plan), plan.csr @ values)


def test_weighted_scatter_sum_rejects_bad_columns():
    x = np.ones((3, 2))
    weights = np.ones(3)
    ids = np.array([0, 1, 1])
    with pytest.raises(IndexError):
        weighted_scatter_sum(x, weights, np.array([0, 3, 1]), ids, 2)
    with pytest.raises(ValueError):
        weighted_scatter_sum(x, weights[:2], np.array([0, 1, 1]), ids, 2)
    with pytest.raises(ValueError):
        weighted_scatter_sum(x[:, 0], weights, np.array([0, 1, 1]), ids, 2)


def test_scatter_sum_rejects_out_of_range_ids():
    for kernel in (scatter_sum, naive_scatter_sum):
        with pytest.raises(IndexError):
            kernel(np.ones((3, 2)), np.array([0, 1, 5]), 3)


def test_scatter_sum_rejects_a_row_count_mismatch():
    plan = SegmentPlan(np.array([0, 1, 1]), 2)
    with pytest.raises(ValueError):
        scatter_sum(np.ones((4, 2)), plan.segment_ids, 2, plan)


def test_empty_input_and_empty_segments():
    values = np.zeros((0, 3))
    ids = np.zeros(0, dtype=np.int64)
    for sum_kernel, max_kernel in (
        (scatter_sum, scatter_max),
        (naive_scatter_sum, naive_scatter_max),
    ):
        total = sum_kernel(values, ids, 4)
        np.testing.assert_array_equal(total, np.zeros((4, 3)))
        assert np.isneginf(max_kernel(values, ids, 4)).all()


# ----------------------------------------------------------------------
# degree-bucket max against the oracle
# ----------------------------------------------------------------------
def _bucket_case_ids():
    """Segment ids over 40 segments: empty, single-member, every
    in-degree 2..9, and one segment far wider than the rest, in a
    shuffled edge order."""
    rng = np.random.default_rng(11)
    degrees = [0, 1, 0, 1, 1] + list(range(2, 10)) + [37] + [0] * 26
    ids = np.repeat(np.arange(len(degrees)), degrees)
    return rng.permutation(ids), len(degrees)


@pytest.mark.parametrize(
    "trailing", [(5,), (3, 4)], ids=["(E, d)", "(E, H, d)"]
)
def test_bucketed_max_matches_the_oracle(trailing):
    ids, n = _bucket_case_ids()
    values = np.random.default_rng(12).normal(size=(len(ids),) + trailing)
    plan = SegmentPlan(ids, n)
    widths = [members.shape[0] for __, members in plan.max_buckets()]
    assert widths == [1, 2, 4, 8, 16, 64]  # 37 pads to the widest bucket
    out = scatter_max(values, ids, n, plan)
    np.testing.assert_array_equal(out, naive_scatter_max(values, ids, n))
    counts = np.bincount(ids, minlength=n)
    assert np.isneginf(out[counts == 0]).all()
    single = np.flatnonzero(counts == 1)
    rows = [np.flatnonzero(ids == segment)[0] for segment in single]
    np.testing.assert_array_equal(out[single], values[rows])


def test_bucketed_max_ties_share_the_gradient():
    """Tied maxima, in padded and unpadded buckets alike, split the
    gradient evenly, bit for bit as on the oracle."""
    ids, n = _bucket_case_ids()
    rng = np.random.default_rng(13)
    values = rng.integers(0, 3, size=(len(ids), 4)).astype(np.float64)
    upstream = rng.normal(size=(n, 4))

    def gradient(backend):
        with kernel_path(backend):
            x = Tensor(values, requires_grad=True)
            (segment_max(x, ids, n) * Tensor(upstream)).sum().backward()
        return x.grad

    grads = [gradient(backend) for backend in KERNEL_PATHS]
    assert_bit_identical(grads[1], grads[0])
    out = naive_scatter_max(values, ids, n)
    winners = (values == out[ids]).astype(np.float64)
    ties = naive_scatter_sum(winners, ids, n)
    assert (ties > 1).sum() > 20  # the case really exercises ties
    # Each winner of a slot gets upstream / (number of winners).
    expected = winners * (upstream / np.maximum(ties, 1.0))[ids]
    np.testing.assert_allclose(grads[1], expected, rtol=1e-15, atol=0)


_COLUMNS = np.random.default_rng(7).integers(0, 30, size=30)
_WEIGHTS = np.random.default_rng(8).normal(size=30)


def _weighted(values, ids, num_segments, plan=None):
    """:func:`weighted_scatter_sum` of ``values`` rows along fixed edges."""
    return weighted_scatter_sum(
        values, _WEIGHTS, _COLUMNS, ids, num_segments, plan=plan
    )


@pytest.mark.parametrize(
    "kernel",
    [
        scatter_sum,
        scatter_max,
        pytest.param(_weighted, id="weighted_scatter_sum"),
    ],
)
def test_oracle_ignores_a_corrupted_plan(kernel):
    """Non-vacuity check for every oracle comparison in the suite.

    A plan built from the reversed id array is wrong for ``ids``: the
    planned kernels trust it and produce a different result, while the
    oracle ignores plans. So an oracle-run result that equals the clean
    one proves the oracle really was substituted.
    """
    rng = np.random.default_rng(6)
    ids = rng.integers(0, 7, size=30)
    values = rng.normal(size=(30, 4))
    corrupt = SegmentPlan(ids[::-1].copy(), 7)
    clean = kernel(values, ids, 7)
    assert not np.array_equal(kernel(values, ids, 7, plan=corrupt), clean)
    with oracle_kernels():
        np.testing.assert_array_equal(
            kernel(values, ids, 7, plan=corrupt), clean
        )


def test_naive_kernels_fixture_swaps_in_the_oracle(naive_kernels):
    rng = np.random.default_rng(6)
    ids = rng.integers(0, 7, size=30)
    values = rng.normal(size=(30, 4))
    corrupt = SegmentPlan(ids[::-1].copy(), 7)
    np.testing.assert_array_equal(
        scatter_sum(values, ids, 7, plan=corrupt),
        naive_scatter_sum(values, ids, 7),
    )
    np.testing.assert_array_equal(
        scatter_max(values, ids, 7, plan=corrupt),
        naive_scatter_max(values, ids, 7),
    )


# ----------------------------------------------------------------------
# differentiable ops agree with the oracle; gradcheck
# ----------------------------------------------------------------------
@given(segmented_values())
@settings(max_examples=40, deadline=None)
def test_segment_ops_forward_agree(case):
    values, ids, n = case
    for op in (segment_sum, segment_mean, segment_max):
        planned, oracle = planned_and_oracle(
            lambda: op(Tensor(values), ids, n).data
        )
        np.testing.assert_allclose(planned, oracle, atol=1e-9, rtol=0)


@given(segmented_values(max_rows=8, max_cols=1))
@settings(max_examples=25, deadline=None)
def test_segment_softmax_forward_agree(case):
    values, ids, n = case
    if len(values) == 0:
        return
    scores = values[:, 0]
    planned, oracle = planned_and_oracle(
        lambda: segment_softmax(Tensor(scores), ids, n).data
    )
    np.testing.assert_allclose(planned, oracle, atol=1e-9, rtol=0)


@pytest.mark.parametrize("backend", KERNEL_PATHS)
@pytest.mark.parametrize("op", [segment_sum, segment_mean, segment_max])
def test_segment_op_gradients(backend, op):
    rng = np.random.default_rng(3)
    values = rng.normal(size=(9, 3))
    ids = np.array([0, 2, 2, 1, 0, 4, 4, 4, 2])  # segment 3 empty
    weights = Tensor(rng.normal(size=(5, 3)))
    with kernel_path(backend):
        check_gradient(lambda t: (op(t, ids, 5) * weights).sum(), values)


@pytest.mark.parametrize("backend", KERNEL_PATHS)
def test_gather_gradient(backend):
    rng = np.random.default_rng(4)
    values = rng.normal(size=(5, 3))
    index = np.array([0, 4, 4, 2, 0, 1])  # node 3 isolated
    weights = Tensor(rng.normal(size=(6, 3)))
    with kernel_path(backend):
        check_gradient(lambda t: (gather(t, index) * weights).sum(), values)


@pytest.mark.parametrize("backend", KERNEL_PATHS)
def test_segment_softmax_gradient(backend):
    rng = np.random.default_rng(5)
    scores = rng.normal(size=8)
    ids = np.array([0, 0, 1, 1, 1, 3, 3, 3])  # segment 2 empty
    weights = Tensor(rng.normal(size=8))
    with kernel_path(backend):
        check_gradient(
            lambda t: (segment_softmax(t, ids, 4) * weights).sum(), scores
        )


# ----------------------------------------------------------------------
# SegmentPlan structure and the identity-keyed memo
# ----------------------------------------------------------------------
def test_plan_structure():
    ids = np.array([2, 0, 2, 2, 4], dtype=np.int64)
    plan = SegmentPlan(ids, 5)
    np.testing.assert_array_equal(plan.counts, [1, 0, 3, 0, 1])
    np.testing.assert_array_equal(plan.indptr, [0, 1, 1, 4, 4, 5])
    # Degree buckets of the 2-D max: degrees 1, 1 share width 1;
    # degree 3 pads to width 4 by repeating its last member.
    (ones, ones_members), (three, three_members) = plan.max_buckets()
    np.testing.assert_array_equal(ones, [0, 4])
    np.testing.assert_array_equal(ones_members, [[1, 4]])
    np.testing.assert_array_equal(three, [2])
    np.testing.assert_array_equal(three_members, [[0], [2], [3], [3]])
    assert plan.max_buckets() is plan.max_buckets()
    np.testing.assert_array_equal(ids[plan.order], np.sort(ids))
    np.testing.assert_array_equal(plan.counts_float, plan.counts)
    np.testing.assert_array_equal(
        plan.counts_clamped, np.maximum(plan.counts, 1)
    )
    assert not plan.counts_float.flags.writeable
    assert not plan.counts_clamped.flags.writeable


def test_plan_rejects_bad_ids():
    with pytest.raises(IndexError):
        SegmentPlan(np.array([0, 7], dtype=np.int64), 3)
    with pytest.raises(ValueError):
        SegmentPlan(np.zeros((2, 2), dtype=np.int64), 3)


def test_csr_view_is_built_once_per_plan(monkeypatch):
    built = []
    real = kernels.csr_array

    def counting_csr_array(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "csr_array", counting_csr_array)
    ids = np.array([1, 0, 1], dtype=np.int64)
    plan = SegmentPlan(ids, 2)
    assert len(built) == 1
    np.testing.assert_array_equal(plan.csr.toarray(), [[0, 1, 0], [1, 0, 1]])
    values = np.arange(6, dtype=np.float64).reshape(3, 2)
    for __ in range(3):
        np.testing.assert_array_equal(
            scatter_sum(values, ids, 2, plan), [[2, 3], [4, 6]]
        )
    assert len(built) == 1


def test_plan_for_memoises_by_identity():
    ids = np.arange(6, dtype=np.int64) % 3
    plan = plan_for(ids, 3)
    assert plan_for(ids, 3) is plan
    assert peek_plan(ids, 3) is plan
    # A distinct but equal array gets its own plan (identity keying).
    other = ids.copy()
    assert peek_plan(other, 3) is None
    assert plan_for(other, 3) is not plan
    # Different segment count on the same array is a different key.
    wider = plan_for(ids, 5)
    assert wider is not plan
    assert wider.num_segments == 5

