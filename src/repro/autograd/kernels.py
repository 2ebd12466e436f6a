"""Segment-reduction kernels over precomputed CSR plans.

Message passing spends its time in two raw array operations: scattering
edge values into node buckets (``segment_*`` forwards, gather adjoints)
and gathering node rows out along edges. The textbook way to scatter —
numpy's buffered ``np.add.at`` / ``np.maximum.at`` — is correct,
simple, and slow. These kernels instead precompute a
:class:`SegmentPlan` (CSR layout: destination-sorted edge permutation,
row pointers, per-segment counts) once per segment-id array and reduce
over the planned layout.

Kernel choice is measurement-driven (numpy 2.x, scipy 1.x, see DESIGN):

* 2-D+ sums are a CSR sparse×dense product (scipy's ``csr_matvecs``
  loop) of the plan's 0/1 segment matrix with the value rows — one C
  pass that adds rows in CSR order, which is input-row order within
  each segment, so it is bit-identical to ``np.add.at``; 1-D sums stay
  on ``np.bincount`` (same order, no sparse call);
* weighted sums ``out[s] = sum_e w[e] * x[col[e]]`` (the attention /
  GCN message-passing step) are one weighted CSR product, so no
  ``(E, F)`` gathered-and-scaled copy is ever built;
* maxima over 2-D+ values run over degree buckets: segments grouped
  by in-degree rounded up to a power of two, each bucket one
  ``(width, segments)`` index whose rows ``np.take`` gathers and
  ``np.maximum.reduce`` folds, so no per-segment ``reduceat`` loop
  runs; 1-D maxima stay on ``np.maximum.at``, whose 1-D fast path
  already wins.

The buffered-scatter formulation survives as the test oracle
(``tests/naive_kernels.py``): the planned kernels must match it
exactly (sums bit-identical, maxima equal), and its ``naive_kernels``
fixture swaps it in to rerun any test against the textbook path.

Everything here operates on raw ``numpy.ndarray`` values — the
differentiable wrappers live in :mod:`repro.autograd.scatter`.

When a :class:`KernelCounters` collector is installed (see
``repro.obs``), every public kernel call additionally records bytes
read/written and elements reduced — the raw numbers behind the
*effective bandwidth* gauges in ``BENCH_*.json``. While no collector
is installed the kernels pay one module-global load per call and
nothing else.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse._sparsetools import csr_matvecs

__all__ = [
    "LruMap",
    "SegmentPlan",
    "plan_for",
    "peek_plan",
    "segment_counts",
    "scatter_sum",
    "weighted_scatter_sum",
    "scatter_max",
    "index_add",
    "is_row_index",
    "KernelCounters",
    "set_kernel_counters",
    "get_kernel_counters",
    "count_kernels",
]

class SegmentPlan:
    """Immutable CSR layout of one segment-id array.

    Precomputes, once, everything the fused kernels need to reduce any
    number of value arrays over the same segment structure: the stable
    sort permutation by segment id, CSR row pointers, the per-segment
    element counts (cached in integer, float and clamped-float form so
    ``segment_mean`` / degree normalisation never re-run
    ``np.bincount``), and the 0/1 ``(num_segments, n)`` CSR matrix
    whose product with value rows is the segment sum.

    The degree buckets of the 2-D max (:meth:`max_buckets`) are the one
    part built on first use, since most plans never run a max and a
    serving plan cache builds plans for every foreign graph. One plan
    still serves concurrent threads: the buckets are a pure function of
    the plan's immutable arrays, stored read-only by one attribute
    assignment, so threads that race on the first call each build the
    same layout and every reader sees either none or a complete one.

    The plan assumes the id array it was built from is not mutated
    afterwards; graph edge arrays are immutable in this codebase.
    """

    __slots__ = (
        "segment_ids",
        "num_segments",
        "order",
        "indptr",
        "counts",
        "counts_float",
        "counts_clamped",
        "csr",
        "_max_buckets",
    )

    def __init__(self, segment_ids: np.ndarray, num_segments: int):
        ids = np.asarray(segment_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"segment ids must be 1-D, got shape {ids.shape}")
        num_segments = int(num_segments)
        counts = np.bincount(ids, minlength=num_segments)
        if counts.shape[0] > num_segments:
            raise IndexError(
                f"segment id {int(ids.max())} out of range for "
                f"{num_segments} segments"
            )
        self.segment_ids = ids
        self.num_segments = num_segments
        self.order = np.argsort(ids, kind="stable")
        self.counts = counts
        indptr = np.zeros(num_segments + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self.indptr = indptr
        counts_float = counts.astype(np.float64)
        counts_float.flags.writeable = False
        self.counts_float = counts_float
        counts_clamped = np.maximum(counts_float, 1.0)
        counts_clamped.flags.writeable = False
        self.counts_clamped = counts_clamped
        self.csr = csr_array(
            (np.ones(len(ids)), self.order, indptr),
            shape=(num_segments, len(ids)),
        )
        self._max_buckets = None

    def max_buckets(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The degree-bucket layout of the 2-D max, built on first call.

        One ``(segments, members)`` pair per bucket. Non-empty segments
        whose in-degree rounds up to the same power of two share a
        bucket; ``members`` is a ``(width, len(segments))`` array of
        value-row indices, column ``j`` listing segment
        ``segments[j]``'s members in id order. A segment with fewer
        members than ``width`` repeats its last member, which leaves
        the maximum unchanged.
        """
        buckets = self._max_buckets
        if buckets is None:
            buckets = self._max_buckets = _degree_buckets(
                self.order, self.indptr, self.counts
            )
        return buckets


def _degree_buckets(order, indptr, counts):
    present = np.flatnonzero(counts)
    degrees = counts[present]
    # Width: the in-degree rounded up to a power of two, so padding at
    # most doubles the rows gathered and the bucket count stays
    # logarithmic in the largest degree.
    widths = np.left_shift(1, np.ceil(np.log2(degrees)).astype(np.int64))
    buckets = []
    for width in np.unique(widths):
        in_bucket = widths == width
        segments = present[in_bucket]
        offsets = np.minimum(
            np.arange(width)[:, None], degrees[in_bucket][None, :] - 1
        )
        members = order[indptr[segments][None, :] + offsets]
        segments.flags.writeable = False
        members.flags.writeable = False
        buckets.append((segments, members))
    return tuple(buckets)


class LruMap:
    """Bounded mapping with least-recently-used eviction.

    The one cache shape this codebase needs, factored out of the plan
    memo below so other caches (the serve layer's per-graph plan cache)
    share its semantics: :meth:`get` promotes the entry to
    most-recently-used, :meth:`peek` reads without promoting, and
    :meth:`put` inserts (promoting on overwrite) then evicts from the
    cold end until the map fits ``capacity``, returning what it dropped
    so callers can count or finalise evictions.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key, default=None):
        """Value for ``key`` (promoted to most-recently-used) or ``default``."""
        if key not in self._entries:
            return default
        self._entries.move_to_end(key)
        return self._entries[key]

    def peek(self, key, default=None):
        """Value for ``key`` without touching the recency order."""
        return self._entries.get(key, default)

    def put(self, key, value) -> list:
        """Insert ``key -> value``; return the ``(key, value)`` pairs evicted."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = []
        while len(self._entries) > self.capacity:
            evicted.append(self._entries.popitem(last=False))
        return evicted

    def clear(self) -> None:
        self._entries.clear()


# Plan memo for call sites that do not thread an explicit plan (graph
# pooling, KG alignment). Keyed by the identity of the id array: a live
# entry pins its array, so the id cannot be recycled while the entry
# exists. Bounded so ad-hoc id arrays cannot grow the memo forever.
_PLAN_MEMO = LruMap(capacity=128)


def plan_for(segment_ids: np.ndarray, num_segments: int) -> SegmentPlan:
    """Plan for ``(segment_ids, num_segments)``, memoised by array identity.

    Long-lived id arrays (graph edge destinations held by a
    ``GraphCache``) get their plan built exactly once; passing the same
    array object again returns the cached plan.
    """
    key = (id(segment_ids), int(num_segments))
    plan = _PLAN_MEMO.get(key)
    if plan is not None and plan.segment_ids is segment_ids:
        return plan
    ids = np.asarray(segment_ids, dtype=np.int64)
    plan = SegmentPlan(ids, num_segments)
    if plan.segment_ids is not segment_ids:
        # The input needed conversion; key the memo by the converted
        # array the plan actually holds so identity stays meaningful.
        key = (id(plan.segment_ids), int(num_segments))
    _PLAN_MEMO.put(key, plan)
    return plan


def peek_plan(segment_ids: np.ndarray, num_segments: int) -> SegmentPlan | None:
    """Cached plan for ``(segment_ids, num_segments)``, or None (no build)."""
    key = (id(segment_ids), int(num_segments))
    plan = _PLAN_MEMO.peek(key)
    if plan is not None and plan.segment_ids is segment_ids:
        return plan
    return None


def segment_counts(
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
    clamped: bool = False,
) -> np.ndarray:
    """Per-segment element counts as ``float64``; ``clamped`` floors at 1.

    Served from a plan's precomputed (read-only) count caches when one
    is supplied or memoised; otherwise a fresh ``np.bincount``. This is
    the single home of the count computation — ``segment_mean`` and
    degree normalisation both go through it.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if plan is None:
        plan = peek_plan(segment_ids, num_segments)
    if plan is not None:
        return plan.counts_clamped if clamped else plan.counts_float
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    return np.maximum(counts, 1.0) if clamped else counts


# ----------------------------------------------------------------------
# kernel counters (bytes moved / elements reduced per call)
# ----------------------------------------------------------------------
class KernelCounters:
    """Per-kernel bytes-read / bytes-written / elements-reduced counters.

    Installed with :func:`set_kernel_counters` / :func:`count_kernels`;
    while none is installed the kernels pay exactly one module-global
    load per call (the same discipline as the autograd tape hook).
    ``clock`` is optional and injectable (``repro.obs`` passes
    ``time.perf_counter``; this module never reads a clock itself) —
    with a clock, per-kernel seconds are accumulated so bytes-moved can
    be expressed as achieved effective bandwidth.

    Counting convention: *bytes read* covers the value and index arrays
    a call consumes, *bytes written* the output it produces (for the
    in-place :func:`index_add`, the updated slots), and *elements
    reduced* the scalar elements folded into output slots. Counter
    updates never touch the reduction arithmetic, so counted runs stay
    bit-identical to uncounted ones.
    """

    __slots__ = ("clock", "stats")

    def __init__(self, clock=None):
        self.clock = clock
        self.stats: dict[str, dict] = {}

    def record(
        self,
        kernel: str,
        bytes_read: int,
        bytes_written: int,
        elements: int,
        seconds: float = 0.0,
    ) -> None:
        entry = self.stats.get(kernel)
        if entry is None:
            entry = self.stats[kernel] = {
                "calls": 0,
                "bytes_read": 0,
                "bytes_written": 0,
                "elements_reduced": 0,
                "seconds": 0.0,
            }
        entry["calls"] += 1
        entry["bytes_read"] += int(bytes_read)
        entry["bytes_written"] += int(bytes_written)
        entry["elements_reduced"] += int(elements)
        entry["seconds"] += float(seconds)

    def snapshot(self) -> dict[str, dict]:
        """Copy of the per-kernel stats, with derived totals/bandwidth."""
        out: dict[str, dict] = {}
        for kernel, entry in self.stats.items():
            record = dict(entry)
            moved = record["bytes_read"] + record["bytes_written"]
            record["bytes_moved"] = moved
            seconds = record["seconds"]
            record["effective_gbps"] = (
                moved / seconds / 1e9 if seconds > 0.0 else None
            )
            out[kernel] = record
        return out


_COUNTERS: KernelCounters | None = None


def set_kernel_counters(counters: KernelCounters | None) -> None:
    """Install (or with ``None`` remove) the kernel counter collector."""
    global _COUNTERS
    if (
        counters is not None
        and _COUNTERS is not None
        and _COUNTERS is not counters
    ):
        raise RuntimeError("kernel counters are already installed")
    _COUNTERS = counters


def get_kernel_counters() -> KernelCounters | None:
    """The installed collector (``None`` while counting is off)."""
    return _COUNTERS


@contextlib.contextmanager
def count_kernels(counters: KernelCounters | None = None):
    """Collect kernel counters inside the block; yields the collector."""
    collector = counters if counters is not None else KernelCounters()
    set_kernel_counters(collector)
    try:
        yield collector
    finally:
        set_kernel_counters(None)


def _nbytes(array) -> int:
    return int(getattr(array, "nbytes", 0))


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def scatter_sum(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> np.ndarray:
    """``out[s] = sum of values rows with segment_ids == s`` (float64).

    Repeated ids accumulate; empty segments are zero. Bit-identical to
    a buffered ``np.add.at`` (same per-slot accumulation order).
    """
    values = np.asarray(values)
    counters = _COUNTERS
    if counters is None:
        return _scatter_sum_impl(values, segment_ids, num_segments, plan)
    t_start = counters.clock() if counters.clock is not None else 0.0
    out = _scatter_sum_impl(values, segment_ids, num_segments, plan)
    counters.record(
        "scatter_sum",
        bytes_read=values.nbytes + _nbytes(segment_ids),
        bytes_written=out.nbytes,
        elements=values.size,
        seconds=counters.clock() - t_start if counters.clock is not None else 0.0,
    )
    return out


def _scatter_sum_impl(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None,
) -> np.ndarray:
    if values.ndim == 1:
        out = np.bincount(segment_ids, weights=values, minlength=num_segments)
        if out.shape[0] != num_segments:
            raise IndexError(
                f"segment id out of range for {num_segments} segments"
            )
        return out
    if values.size == 0:
        # Covers zero rows and zero-width rows; reshape(-1) on a
        # zero-size array would be ambiguous.
        return np.zeros((num_segments,) + values.shape[1:], dtype=np.float64)
    if plan is None:
        plan = plan_for(segment_ids, num_segments)
    rows = values.reshape(len(values), -1).astype(np.float64, copy=False)
    if len(rows) != len(plan.order):
        raise ValueError(
            f"{len(rows)} value rows for {len(plan.order)} segment ids"
        )
    csr = plan.csr
    out = _spmm(csr.indptr, csr.indices, csr.data, rows)
    return out.reshape((num_segments,) + values.shape[1:])


def weighted_scatter_sum(
    x: np.ndarray,
    weights: np.ndarray,
    columns: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> np.ndarray:
    """``out[s] = sum over e with segment_ids[e] == s of weights[e] * x[columns[e]]``.

    The weighted message-passing step, fused: ``x`` is ``(N, d)`` with
    ``(E,)`` weights, or ``(N, H, d)`` with ``(E, H)`` weights (one
    product per head). Bit-identical to gathering ``x[columns]``,
    scaling by ``weights`` and :func:`scatter_sum`-ing the result —
    the same products added in the same order — without building that
    ``(E, ..., d)`` intermediate. ``plan`` is a plan of ``segment_ids``.

    Counted under ``scatter_sum`` with that spelling's call and element
    counts; bytes read are ``x``, ``weights`` and both index arrays.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    counters = _COUNTERS
    if counters is None:
        return _weighted_scatter_sum_impl(
            x, weights, columns, segment_ids, num_segments, plan
        )
    t_start = counters.clock() if counters.clock is not None else 0.0
    out = _weighted_scatter_sum_impl(
        x, weights, columns, segment_ids, num_segments, plan
    )
    counters.record(
        "scatter_sum",
        bytes_read=sum(map(_nbytes, (x, weights, columns, segment_ids))),
        bytes_written=out.nbytes,
        elements=weights.size * x.shape[-1],
        seconds=counters.clock() - t_start if counters.clock is not None else 0.0,
    )
    return out


def _weighted_scatter_sum_impl(
    x: np.ndarray,
    weights: np.ndarray,
    columns: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None,
) -> np.ndarray:
    if x.ndim != weights.ndim + 1 or weights.ndim not in (1, 2):
        raise ValueError(
            f"expected x (N, d) with weights (E,) or x (N, H, d) with "
            f"weights (E, H), got {x.shape} and {weights.shape}"
        )
    if plan is None:
        plan = plan_for(segment_ids, num_segments)
    columns = np.asarray(columns, dtype=np.int64)
    num_edges = len(plan.order)
    if len(columns) != num_edges or len(weights) != num_edges:
        raise ValueError(
            f"{len(columns)} columns and {len(weights)} weights for "
            f"{num_edges} segment ids"
        )
    # The sparse loop does not bounds-check its column indices.
    if num_edges and (columns.min() < 0 or columns.max() >= len(x)):
        raise IndexError(f"column index out of range for {len(x)} rows")
    x = x.astype(np.float64, copy=False)
    columns = np.take(columns, plan.order)
    sorted_weights = np.take(weights, plan.order, axis=0).astype(
        np.float64, copy=False
    )
    if weights.ndim == 1 or weights.shape[1] == 1:  # one head: no stacking
        out = _spmm(
            plan.indptr,
            columns,
            sorted_weights.reshape(-1),
            x.reshape(len(x), x.shape[-1]),
        )
        return out.reshape((num_segments,) + x.shape[1:])
    heads = [
        _spmm(plan.indptr, columns, sorted_weights[:, h], x[:, h])
        for h in range(weights.shape[1])
    ]
    return np.stack(heads, axis=1)


def _spmm(indptr, columns, data, rows):
    """``csr_array((data, columns, indptr)) @ rows``, minus the wrapper.

    ``csr_matvecs`` is the C loop that product runs, so the result is
    the same bits. Calling it directly skips building and validating a
    ``csr_array`` (~26 µs) and the operator dispatch (~15 µs), which on
    a smoke-scale graph cost more than the product itself. The caller
    guarantees the indices are in range.
    """
    num_rows, width = len(indptr) - 1, rows.shape[1]
    out = np.zeros((num_rows, width))
    csr_matvecs(
        num_rows, len(rows), width, indptr, columns, data,
        np.ascontiguousarray(rows).ravel(), out.ravel(),
    )
    return out


def scatter_max(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None = None,
) -> np.ndarray:
    """``out[s] = max over values rows with segment_ids == s``.

    Empty segments are ``-inf`` (callers decide how to mask them).
    Equals a buffered ``np.maximum.at`` exactly — max is
    order-insensitive.
    """
    values = np.asarray(values)
    counters = _COUNTERS
    if counters is None:
        return _scatter_max_impl(values, segment_ids, num_segments, plan)
    t_start = counters.clock() if counters.clock is not None else 0.0
    out = _scatter_max_impl(values, segment_ids, num_segments, plan)
    counters.record(
        "scatter_max",
        bytes_read=values.nbytes + _nbytes(segment_ids),
        bytes_written=out.nbytes,
        elements=values.size,
        seconds=counters.clock() - t_start if counters.clock is not None else 0.0,
    )
    return out


def _scatter_max_impl(
    values: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
    plan: SegmentPlan | None,
) -> np.ndarray:
    out = np.full(
        (num_segments,) + values.shape[1:], -np.inf, dtype=np.float64
    )
    # 1-D values: numpy's ufunc.at fast path already beats the planned
    # layout (measured), so they keep it.
    if values.ndim == 1 or len(values) == 0:
        np.maximum.at(out, segment_ids, values)
        return out
    if plan is None:
        plan = plan_for(segment_ids, num_segments)
    if len(values) != len(plan.order):
        raise ValueError(
            f"{len(values)} value rows for {len(plan.order)} segment ids"
        )
    for segments, members in plan.max_buckets():
        out[segments] = np.maximum.reduce(
            np.take(values, members, axis=0), axis=0
        )
    return out


def _selects_unique_elements(index) -> bool:
    """True when ``index`` cannot address the same element twice.

    Basic indexing (ints, slices, Ellipsis, newaxis) and boolean masks
    select every element at most once, so an in-place ``+=`` equals the
    unbuffered ``np.add.at`` exactly — and runs an order of magnitude
    faster. Integer arrays may repeat and need true accumulation.
    """
    parts = index if isinstance(index, tuple) else (index,)
    for part in parts:
        if isinstance(part, (int, np.integer, slice)) or part is Ellipsis or part is None:
            continue
        if isinstance(part, np.ndarray) and part.dtype == np.bool_:
            continue
        return False
    return True


def index_add(out: np.ndarray, index, values) -> None:
    """``out[index] += values`` with repeated-index accumulation, in place.

    The one sanctioned home of ``np.add.at``: the general fallback for
    index expressions (slices, tuples, boolean masks) the planned
    kernels do not cover. Index expressions that provably select unique
    elements (basic indexing, boolean masks) take a plain in-place
    ``+=`` instead — bit-identical, without the unbuffered ufunc's
    per-element dispatch.
    """
    counters = _COUNTERS
    if counters is None:
        _index_add_impl(out, index, values)
        return
    t_start = counters.clock() if counters.clock is not None else 0.0
    _index_add_impl(out, index, values)
    value_bytes = _nbytes(values)
    counters.record(
        "index_add",
        bytes_read=value_bytes + _nbytes(index),
        bytes_written=value_bytes,
        elements=int(getattr(values, "size", 0)),
        seconds=counters.clock() - t_start if counters.clock is not None else 0.0,
    )


def _index_add_impl(out: np.ndarray, index, values) -> None:
    if _selects_unique_elements(index):
        out[index] += values
    else:
        np.add.at(out, index, values)


def is_row_index(index) -> bool:
    """True when ``index`` selects whole rows by a 1-D integer array —
    the planned-kernel case for gather/getitem adjoints."""
    return (
        isinstance(index, np.ndarray)
        and index.ndim == 1
        and index.dtype.kind in "iu"
    )
