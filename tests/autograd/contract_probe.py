"""Runtime autograd contract probe, plus the kernel purity harness.

SANE's search is only as correct as its tape: every supernet step
backpropagates through the Eq. 2 mixture of all candidate aggregators
and the alpha step, so every VJP must return one gradient per parent,
must not drop a gradient a parent asked for, and must not write into
storage the tape still holds. :class:`ContractProbe` checks those
contracts by *executing* the ops. It is a tape hook (registered through
:func:`repro.autograd.tensor.add_tape_hook`) that, for every recorded op:

* copies the output array and each parent's ``.data`` at record time;
* wraps the backward closure, and after the closure runs asserts
  ``len(grads) == len(parents)``, a non-``None`` gradient for every
  parent with ``requires_grad``, and that every recorded array still
  equals its copy (``equal_nan``) — a write through any alias shows up
  — and that every parent still holds the array it held at record time,
  so rebinding ``w.data`` between a forward and its backward shows up
  too;
* records each float ``ndarray`` the closure captures beyond the output
  and the parents (directly, or inside a tuple/list cell), keyed by the
  op and the free-variable name.

Captures are retain-vs-recompute decisions, so each one needs a reason:
:data:`RETAINS` is the allowlist, and the self-check tests assert that
the captures the gradcheck registry and a real search observe equal
it exactly.

:func:`kernel_effects` is the purity half: it calls a raw-array kernel
on fresh inputs and reports every argument it changed and every module
global it rebound or refilled. Kernels must be pure functions of their
inputs — counted runs stay bit-identical to uncounted ones, and the
buffered-scatter oracle stays substitutable — except for the state
:data:`KERNEL_STATE` declares.

Test-only, like ``tests/naive_kernels.py``: production code never
imports this module, so none of it costs a production run anything.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict

import numpy as np

from repro.autograd.kernels import LruMap
from repro.autograd.tensor import add_tape_hook, is_grad_enabled, remove_tape_hook
from repro.obs.autograd import op_name

__all__ = [
    "RETAINS",
    "KERNEL_STATE",
    "ContractViolation",
    "ContractProbe",
    "contract_probe",
    "kernel_effects",
]

# Float arrays a backward closure may capture beyond its output and
# parents, per op ("<module>.<op>", module relative to repro.autograd),
# each with the reason recomputing it in the backward is not worth it.
# Boolean and integer captures (``where``'s ``cond``, ``segment_max``'s
# empty-segment mask, index arrays) are index-like and need no entry.
RETAINS: dict[str, dict[str, str]] = {
    "functional.relu": {
        "mask": "activation pattern; recompute would re-read the full input",
    },
    "functional.leaky_relu": {
        "factor": "slope factor doubles as the VJP diagonal",
    },
    "functional.elu": {
        "factor": "exp(min(x,0)) branch is the expensive part of the VJP",
    },
    "functional.dropout": {
        "mask": "mask is an RNG draw; it cannot be recomputed",
    },
    "functional.lstm_gate_update": {
        name: "fused cell shares the four gate activations between forward "
        "and both VJPs; recomputing means four tanh passes"
        for name in ("i_gate", "f_gate", "g_gate", "o_gate", "tanh_c")
    },
    "ops.softplus": {
        "grad_factor": "sigmoid(x) computed on the forward IS the VJP "
        "diagonal; recompute costs a full exp pass",
    },
    "ops.clip": {
        "inside": "active-range mask is the whole Jacobian diagonal",
    },
    "scatter.segment_mean": {
        "denom": "clamped per-segment counts, num_segments floats (often "
        "served read-only from the SegmentPlan cache)",
    },
}

# Module globals a public kernel may rebind or refill, per kernel, with
# the reason. Every other global must be untouched by every kernel.
_PLANNED = "plans a multi-column reduction through plan_for's memo"
KERNEL_STATE: dict[str, dict[str, str]] = {
    "plan_for": {
        "_PLAN_MEMO": "bounded identity-keyed memo; plans are immutable "
        "once built",
    },
    "scatter_sum": {"_PLAN_MEMO": _PLANNED},
    "weighted_scatter_sum": {"_PLAN_MEMO": _PLANNED},
    "scatter_max": {"_PLAN_MEMO": _PLANNED},
    "set_kernel_counters": {
        "_COUNTERS": "installing the counter collector is this global's "
        "one writer",
    },
}


class ContractViolation(AssertionError):
    """A backward closure broke its tape contract."""


def _op_key(backward_fn) -> str:
    """``"<module>.<op>"`` of a backward closure, e.g. ``"functional.relu"``."""
    module = (getattr(backward_fn, "__module__", None) or "").rsplit(".", 1)[-1]
    return f"{module}.{op_name(backward_fn)}"


def _root(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _float_arrays(value):
    """The float ndarrays held by one closure cell (tuple/list cells too)."""
    items = value if isinstance(value, (tuple, list)) else (value,)
    for item in items:
        if isinstance(item, np.ndarray) and item.dtype.kind in "fc":
            yield item


class ContractProbe:
    """Tape hook that checks every executed backward against its contract.

    Observations accumulate across the probe's lifetime:

    * ``ops`` — op key → tape nodes recorded;
    * ``positions`` — op key → parent positions that required grad in
      at least one recorded node;
    * ``arities`` — op key → parent counts seen;
    * ``captures`` — op key → free-variable names holding float arrays
      beyond output and parents;
    * ``backward_calls`` — backward closures checked.

    A broken contract raises :class:`ContractViolation` out of the
    backward pass, and is also kept in ``violations`` so that code
    which swallows exceptions (a trial loop, a retry) cannot hide it.
    """

    def __init__(self):
        self.ops: dict[str, int] = defaultdict(int)
        self.positions: dict[str, set[int]] = defaultdict(set)
        self.arities: dict[str, set[int]] = defaultdict(set)
        self.captures: dict[str, set[str]] = defaultdict(set)
        self.backward_calls = 0
        self.violations: list[str] = []

    def __call__(self, data, parents, backward_fn):
        if not is_grad_enabled() or not any(p.requires_grad for p in parents):
            return backward_fn  # nothing is recorded on the tape
        key = _op_key(backward_fn)
        self.ops[key] += 1
        self.arities[key].add(len(parents))
        self.positions[key].update(
            i for i, parent in enumerate(parents) if parent.requires_grad
        )
        self._record_captures(key, data, parents, backward_fn)
        recorded = [("output", None, data, np.array(data, copy=True))]
        recorded.extend(
            (f"parent {i}", parent, parent.data, np.array(parent.data, copy=True))
            for i, parent in enumerate(parents)
        )

        @functools.wraps(backward_fn)
        def probed(grad):
            grads = backward_fn(grad)
            self.backward_calls += 1
            self._verify(key, parents, grads, recorded)
            return grads

        return probed

    def _record_captures(self, key, data, parents, backward_fn) -> None:
        cells = backward_fn.__closure__ or ()
        known = {id(_root(np.asarray(data)))}
        known.update(id(_root(parent.data)) for parent in parents)
        for name, cell in zip(backward_fn.__code__.co_freevars, cells):
            try:
                value = cell.cell_contents
            except ValueError:  # unbound cell
                continue
            for array in _float_arrays(value):
                if id(_root(array)) not in known:
                    self.captures[key].add(name)

    def _verify(self, key, parents, grads, recorded) -> None:
        problems = []
        if len(grads) != len(parents):
            problems.append(
                f"returned {len(grads)} gradient(s) for {len(parents)} parent(s)"
            )
        for i, (parent, grad) in enumerate(zip(parents, grads)):
            if grad is None and parent.requires_grad:
                problems.append(f"dropped the gradient of parent {i}")
        for label, owner, array, copy in recorded:
            if owner is not None and owner.data is not array:
                problems.append(f"{label} data rebound before the backward")
            elif not np.array_equal(array, copy, equal_nan=True):
                problems.append(f"{label} storage changed after the backward")
        if problems:
            message = f"{key}: " + "; ".join(problems)
            self.violations.append(message)
            raise ContractViolation(message)

    def undeclared_captures(self) -> dict[str, set[str]]:
        """Observed float captures that :data:`RETAINS` does not declare."""
        out = {}
        for key, names in self.captures.items():
            extra = names - set(RETAINS.get(key, ()))
            if extra:
                out[key] = extra
        return out


@contextlib.contextmanager
def contract_probe():
    """Run the block under a fresh :class:`ContractProbe`; yields it."""
    probe = ContractProbe()
    add_tape_hook(probe)
    try:
        yield probe
    finally:
        remove_tape_hook(probe)


def _contents(value):
    """A module global's mutable contents: a copy of an array, or the
    objects a container holds (compared by identity), else None."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, LruMap):
        value = value._entries
    if isinstance(value, dict):
        return [obj for pair in value.items() for obj in pair]
    if isinstance(value, (list, set)):
        return list(value)
    return None


def _unchanged(before, after) -> bool:
    if isinstance(before, np.ndarray):
        return np.array_equal(before, after, equal_nan=True)
    if before is None or after is None:
        return before is after
    return len(before) == len(after) and all(a is b for a, b in zip(before, after))


def kernel_effects(fn, args, mutates=(), state=()) -> list[str]:
    """Call ``fn(*args)`` and describe every side effect it had.

    Side effects are changed ndarray arguments (except positions in
    ``mutates``) and rebound or refilled globals of ``fn``'s module
    (except names in ``state``). A returned context manager is entered
    and exited, so setup/teardown pairs are judged by their net effect.
    An empty list means the call was pure.
    """
    module = vars(sys.modules[fn.__module__])
    before = {name: (value, _contents(value)) for name, value in module.items()}
    copies = [
        (i, arg, arg.copy()) for i, arg in enumerate(args)
        if isinstance(arg, np.ndarray)
    ]
    result = fn(*args)
    if hasattr(result, "__enter__"):
        with result:
            pass
    effects = [
        f"mutated argument {i}"
        for i, arg, copy in copies
        if i not in mutates and not np.array_equal(arg, copy, equal_nan=True)
    ]
    for name in sorted(set(before) | set(module)):
        if name in state:
            continue
        if name not in module or name not in before:
            effects.append(f"added or deleted global {name}")
            continue
        value, contents = before[name]
        if module[name] is not value:
            effects.append(f"rebound global {name}")
        elif not _unchanged(contents, _contents(value)):
            effects.append(f"changed global {name}")
    return effects
