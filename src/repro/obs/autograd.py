"""Per-op autograd profiling: tape entries, tensor bytes, backward time.

The profiler is one tape hook (:func:`repro.autograd.tensor.add_tape_hook`)
on ``Tensor._from_op``, the single dispatch point every differentiable
op (primitive or composite) goes through. Per op it counts tape
entries, sums output-tensor bytes, and wraps the op's backward closure
so the backward pass is timed per op. The op name is derived from the
backward closure's qualname (every op defines its VJP inline, so
``matmul.<locals>.backward`` → ``matmul``).

Forward time is not measured here: the supernet opens an ``op`` span
(:func:`repro.obs.spans.op_scope`) around each candidate, mixture and
skip, so the phase breakdown locates forward time by (edge, layer, op).
Nothing in ``repro.autograd`` is patched, so references bound by
``from ... import`` are observed like any other call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Callable, Iterator

from repro.autograd import tensor

__all__ = ["OpStats", "AutogradProfiler", "profile_autograd", "op_name"]


def op_name(backward_fn) -> str:
    """The op a backward closure belongs to: its qualname's first part."""
    qualname = getattr(backward_fn, "__qualname__", "") or ""
    name = qualname.split(".", 1)[0]
    return name or "<anonymous>"


@dataclasses.dataclass
class OpStats:
    """Accumulated profile of one op name."""

    name: str
    tape_entries: int = 0  # Tensor._from_op records
    output_bytes: int = 0  # bytes of op output arrays
    backward_calls: int = 0
    backward_time: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class AutogradProfiler:
    """Installable per-op profiler over the autograd tape.

    Use as a context manager via :func:`profile_autograd`, or call
    :meth:`install`/:meth:`uninstall` explicitly. Stats survive
    ``uninstall`` so reports can be rendered after profiling ends.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stats: dict[str, OpStats] = {}
        self.installed = False

    # ------------------------------------------------------------------
    def stat(self, name: str) -> OpStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = OpStats(name)
        return stats

    def stats(self) -> list[dict]:
        """All op stats as dicts, sorted by backward time."""
        return [
            s.to_dict()
            for s in sorted(self._stats.values(), key=lambda s: -s.backward_time)
        ]

    # ------------------------------------------------------------------
    def install(self) -> "AutogradProfiler":
        if not self.installed:
            tensor.add_tape_hook(self._tape_hook)
            self.installed = True
        return self

    def uninstall(self) -> None:
        if self.installed:
            tensor.remove_tape_hook(self._tape_hook)
            self.installed = False

    # ------------------------------------------------------------------
    def _tape_hook(self, data, parents, backward_fn):
        stats = self.stat(op_name(backward_fn))
        stats.tape_entries += 1
        stats.output_bytes += int(getattr(data, "nbytes", 0))
        clock = self.clock

        def timed_backward(grad):
            t_start = clock()
            try:
                return backward_fn(grad)
            finally:
                stats.backward_calls += 1
                stats.backward_time += clock() - t_start

        # keep the op name derivable for hooks chained after this one
        timed_backward.__qualname__ = getattr(
            backward_fn, "__qualname__", timed_backward.__qualname__
        )
        return timed_backward


@contextlib.contextmanager
def profile_autograd(
    clock: Callable[[], float] = time.perf_counter,
) -> Iterator[AutogradProfiler]:
    """Profile every autograd op dispatched inside the block."""
    profiler = AutogradProfiler(clock)
    profiler.install()
    try:
        yield profiler
    finally:
        profiler.uninstall()
