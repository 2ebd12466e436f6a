"""Per-op autograd profiling: time, call counts, and tensor bytes.

Two complementary mechanisms, both installed/removed together and both
strictly zero-overhead while disabled:

* **tape hook** — the :mod:`repro.obs.tape` chain (over
  :func:`repro.autograd.set_tape_hook`) plugs a callback into
  ``Tensor._from_op``, the single dispatch point every
  differentiable op (primitive or composite) goes through. The hook
  counts tape entries, sums output-tensor bytes, and wraps each op's
  backward closure so the backward pass is timed per op. The op name is
  derived from the backward closure's qualname (every op defines its
  VJP inline, so ``matmul.<locals>.backward`` → ``matmul``).
* **dispatch wrappers** — the public functions of
  ``repro.autograd.ops``, ``scatter``, and the closure-carrying subset
  of ``functional`` are swapped for timing wrappers. A frame stack
  separates *self* time from *cumulative* time, so composite ops (e.g.
  ``gather`` calling ``getitem``) do not double-count.

Bound references taken before ``install()`` (e.g. the ``ACTIVATIONS``
table binds ``relu`` at import time) bypass the wrappers; they still
hit the tape hook, so their calls and bytes are counted even when their
forward time is attributed to the enclosing op.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from typing import Callable, Iterator

from repro.autograd import functional, ops, scatter
from repro.obs import tape

__all__ = ["OpStats", "AutogradProfiler", "profile_autograd"]

# functional ops that build their own tape entries (the rest delegate
# to ops.* and would only add pure-wrapper noise to the table).
_FUNCTIONAL_NAMES = (
    "relu",
    "leaky_relu",
    "elu",
    "dropout",
    "softmax",
    "log_softmax",
    "nll_loss",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
)


@dataclasses.dataclass
class OpStats:
    """Accumulated profile of one op name."""

    name: str
    calls: int = 0  # timed dispatches through a wrapped module function
    tape_entries: int = 0  # Tensor._from_op records (includes bound refs)
    output_bytes: int = 0  # bytes of op output arrays
    forward_self: float = 0.0  # forward seconds minus nested wrapped ops
    forward_cum: float = 0.0  # forward seconds including nested ops
    backward_calls: int = 0
    backward_time: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class AutogradProfiler:
    """Installable per-op profiler over the autograd substrate.

    Use as a context manager via :func:`profile_autograd`, or call
    :meth:`install`/:meth:`uninstall` explicitly. Stats survive
    ``uninstall`` so reports can be rendered after profiling ends.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stats: dict[str, OpStats] = {}
        self._originals: list[tuple[object, str, Callable]] = []
        self._frames: list[list[float]] = []
        self.installed = False

    # ------------------------------------------------------------------
    def stat(self, name: str) -> OpStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = OpStats(name)
        return stats

    def stats(self) -> list[dict]:
        """All op stats as dicts, sorted by self+backward time."""
        return [
            s.to_dict()
            for s in sorted(
                self._stats.values(),
                key=lambda s: -(s.forward_self + s.backward_time),
            )
        ]

    # ------------------------------------------------------------------
    def install(self) -> "AutogradProfiler":
        if self.installed:
            return self
        tape.add_tape_hook(self._tape_hook)  # raises if a foreign hook is active
        targets = [
            (ops, tuple(ops.__all__)),
            (scatter, tuple(scatter.__all__)),
            (functional, _FUNCTIONAL_NAMES),
        ]
        for module, names in targets:
            for name in names:
                original = getattr(module, name)
                if not callable(original):
                    continue
                self._originals.append((module, name, original))
                setattr(module, name, self._wrap(name, original))
        self.installed = True
        return self

    def uninstall(self) -> None:
        if not self.installed:
            return
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()
        tape.remove_tape_hook(self._tape_hook)
        self._frames.clear()
        self.installed = False

    # ------------------------------------------------------------------
    def _wrap(self, name: str, func: Callable) -> Callable:
        clock = self.clock
        frames = self._frames

        @functools.wraps(func)
        def timed(*args, **kwargs):
            frame = [0.0]  # seconds consumed by nested wrapped ops
            frames.append(frame)
            t_start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - t_start
                frames.pop()
                stats = self.stat(name)
                stats.calls += 1
                stats.forward_cum += elapsed
                stats.forward_self += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed

        timed.__obs_wrapped__ = True
        return timed

    def _tape_hook(self, data, parents, backward_fn):
        stats = self.stat(tape.op_name(backward_fn))
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
