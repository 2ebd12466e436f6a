"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction:
the paper implements SANE on top of PyTorch, which is unavailable in
this environment, so we provide a tape-based autograd engine with the
same semantics for the subset of operations GNNs need.

The design follows the classic define-by-run recipe:

* every :class:`Tensor` wraps a ``numpy.ndarray``,
* each operation returns a new ``Tensor`` that remembers its parents
  and a closure computing the vector-Jacobian product,
* :meth:`Tensor.backward` topologically sorts the recorded graph and
  accumulates gradients into ``Tensor.grad``.

Gradients are plain numpy arrays (not Tensors); higher-order
derivatives are not supported and not needed — the paper uses the
first-order DARTS approximation (``xi = 0`` in Eq. 8).
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "add_tape_hook",
    "remove_tape_hook",
    "get_tape_hook",
]

# glibc's malloc returns a freed block of 128 KB or more to the kernel
# (an mmapped block at once, a heap top past the trim threshold on the
# next free), and its next use faults every page back in. An autograd
# pass frees and reallocates the same few dozen (N, d) and (E, d)
# buffers per op, so a supernet epoch on pubmed paid ~8,000 minor faults
# (~32 MB of zeroed pages) for memory it had just released. Fixed
# thresholds keep such blocks in the heap for reuse: blocks under 4 MB
# come from the heap, and up to 32 MB of free heap top stays mapped.
# Both are set, because setting either one turns off glibc's dynamic
# adjustment of the other. The setting is process-wide (malloc has one
# policy per process), so it is made once, at import; off glibc nothing
# is changed.
_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from <malloc.h>
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 4 << 20
_TRIM_THRESHOLD_BYTES = 32 << 20


def _keep_freed_buffers() -> None:
    """Set glibc's mmap and trim thresholds (no-op on other C libraries)."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_freed_buffers()

# Grad mode is per-thread: the serving layer runs eval-mode forwards
# inside `with no_grad():` on concurrent worker threads, and a shared
# flag would let one worker's save/restore race another's (thread A
# restores True, thread B then restores the False it observed at
# entry — leaving recording disabled process-wide). Each thread gets
# its own flag, defaulting to enabled.
_GRAD_STATE = threading.local()

# Tape observers (op profiler, numerics health monitor, memory
# tracker, test probes) hook ``Tensor._from_op``. Each hook is called
# with ``(data, parents, backward_fn)`` for every dispatched op and
# returns the (possibly wrapped) backward closure, which becomes the
# next hook's input and, after the last, the closure recorded on the
# tape; hooks run in registration order. With no hook registered the
# only cost every op pays is one global load and a truth test on this
# list. It is mutated in place, never rebound.
_TAPE_HOOKS: list = []


def add_tape_hook(hook) -> None:
    """Append ``hook`` to the op-dispatch chain; raises if already there."""
    if hook in _TAPE_HOOKS:
        raise RuntimeError("tape hook is already registered")
    _TAPE_HOOKS.append(hook)


def remove_tape_hook(hook) -> None:
    """Remove ``hook`` from the chain (a no-op if it is not there)."""
    if hook in _TAPE_HOOKS:
        _TAPE_HOOKS.remove(hook)


def get_tape_hook():
    """The registered hooks as a tuple, or ``None`` when there are none."""
    return tuple(_TAPE_HOOKS) or None


def is_grad_enabled() -> bool:
    """Return whether operations on this thread record the autograd tape."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording inside its block.

    Used by evaluation loops and by the detached parts of composite
    operations (e.g. the max-shift in a numerically stable softmax).
    Per-thread: a serve worker's block never affects other threads.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes.

    numpy broadcasting expands operands implicitly; the adjoint of a
    broadcast is a sum over the expanded axes, which this helper
    performs so binary ops can support arbitrary broadcasting.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes numpy added on the left.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts. Floating point data is kept
        in ``float64`` for gradient-check friendliness.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` reaches this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if array.dtype.kind in "fc":
            array = array.astype(np.float64, copy=False)
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Build the result tensor of an op, recording the tape entry."""
        if _TAPE_HOOKS:
            for hook in _TAPE_HOOKS:
                backward_fn = hook(data, parents, backward_fn)
        requires = is_grad_enabled() and any(
            p.requires_grad for p in parents
        )
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    # ------------------------------------------------------------------
    # autograd machinery
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate_grad(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Parameters
        ----------
        grad:
            Seed gradient. Defaults to ``1`` which requires ``self`` to
            be a scalar (the usual loss case).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        # Keys whose pending gradient is a sum this pass allocated. Only
        # those are written in place: a first contribution is stored as
        # the VJP returned it, and may alias ``g``, a view of it, or
        # another node's gradient.
        owned: set[int] = set()
        for node in order:
            key = id(node)
            node_grad = grads.pop(key, None)
            if node_grad is None:
                continue
            owned.discard(key)
            if node.requires_grad and node._backward_fn is None:
                # A leaf (parameter or input marked differentiable).
                node._accumulate_grad(node_grad)
                continue
            node._accumulate_into(grads, owned, node_grad)

    def tape_size(self) -> int:
        """Tape nodes a :meth:`backward` from this tensor would visit."""
        return len(_topological_order(self))

    def _accumulate_into(
        self,
        grads: dict[int, np.ndarray],
        owned: set[int],
        node_grad: np.ndarray,
    ) -> None:
        """Run this node's VJP and merge parent gradients into ``grads``.

        A parent's second contribution is summed into a fresh array,
        whose key joins ``owned``; later contributions are added into
        that array in place, the same additions in the same order.
        """
        backward_fn = self._backward_fn
        if backward_fn is None:
            return
        parent_grads = backward_fn(node_grad)
        for parent, parent_grad in zip(self._parents, parent_grads):
            if parent_grad is None or not parent.requires_grad:
                continue
            if (
                type(parent_grad) is not np.ndarray
                or parent_grad.dtype != np.float64
            ):
                parent_grad = np.asarray(parent_grad, dtype=np.float64)
            if parent_grad.shape != parent.data.shape:
                parent_grad = _unbroadcast(parent_grad, parent.data.shape)
            key = id(parent)
            if key in owned:
                grads[key] += parent_grad
            elif key in grads:
                grads[key] = grads[key] + parent_grad
                owned.add(key)
            else:
                grads[key] = parent_grad

    # ------------------------------------------------------------------
    # arithmetic (implemented in ops.py, wired up at import time there)
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autograd import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autograd import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.autograd import ops

        return ops.max(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        from repro.autograd import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        from repro.autograd import ops

        return ops.transpose(self, axes or None)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def exp(self) -> "Tensor":
        from repro.autograd import ops

        return ops.exp(self)

    def log(self) -> "Tensor":
        from repro.autograd import ops

        return ops.log(self)

    def tanh(self) -> "Tensor":
        from repro.autograd import ops

        return ops.tanh(self)

    def sqrt(self) -> "Tensor":
        from repro.autograd import ops

        return ops.sqrt(self)

    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        from repro.autograd import ops

        return ops.clip(self, low, high)

    def __add__(self, other) -> "Tensor":
        from repro.autograd import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        from repro.autograd import ops

        return ops.sub(self, other)

    def __rsub__(self, other) -> "Tensor":
        from repro.autograd import ops

        return ops.sub(other, self)

    def __mul__(self, other) -> "Tensor":
        from repro.autograd import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        from repro.autograd import ops

        return ops.div(self, other)

    def __rtruediv__(self, other) -> "Tensor":
        from repro.autograd import ops

        return ops.div(other, self)

    def __neg__(self) -> "Tensor":
        from repro.autograd import ops

        return ops.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.autograd import ops

        return ops.pow(self, exponent)

    def __matmul__(self, other) -> "Tensor":
        from repro.autograd import ops

        return ops.matmul(self, other)

    def __getitem__(self, index) -> "Tensor":
        from repro.autograd import ops

        return ops.getitem(self, index)


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def _topological_order(root: Tensor) -> list[Tensor]:
    """Return tape nodes reachable from ``root`` in reverse topological order."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order
