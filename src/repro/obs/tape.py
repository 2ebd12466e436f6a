"""Composable autograd tape hooks.

:func:`repro.autograd.set_tape_hook` accepts exactly one hook — the
substrate stays a dumb dispatch point with a single ``None`` check in
``Tensor._from_op``. PR 5 added a second and third consumer of that
point (the numerics health monitor and the memory tracker, next to the
PR-2 op profiler), so this module multiplexes: observers register here,
and the chain installs itself as *the* tensor-level hook while at least
one observer is active.

Hooks compose left-to-right in registration order: each receives
``(data, parents, backward_fn)`` and returns the (possibly wrapped)
backward closure, which becomes the next hook's input. Observers that
only *read* (the memory tracker) return the closure unchanged, so the
op-name derivation from the closure's qualname keeps working for hooks
registered after them.

With zero observers the tensor-level hook is removed entirely, so the
off-mode cost is unchanged from PR 2: one global load and an identity
check per dispatched op.
"""

from __future__ import annotations

from repro.autograd import tensor

__all__ = ["add_tape_hook", "remove_tape_hook", "op_name"]

_HOOKS: list = []


def _dispatch(data, parents, backward_fn):
    for hook in _HOOKS:
        backward_fn = hook(data, parents, backward_fn)
    return backward_fn


def add_tape_hook(hook) -> None:
    """Register ``hook`` on the shared chain (installing it if first).

    Raises :class:`RuntimeError` if a foreign hook (one installed
    directly through :func:`repro.autograd.set_tape_hook`, bypassing
    this chain) is already active, and on double registration.
    """
    if hook in _HOOKS:
        raise RuntimeError("tape hook is already registered")
    if not _HOOKS:
        tensor.set_tape_hook(_dispatch)  # raises if a foreign hook is active
    _HOOKS.append(hook)


def remove_tape_hook(hook) -> None:
    """Unregister ``hook``; removes the tensor-level hook when last out."""
    if hook in _HOOKS:
        _HOOKS.remove(hook)
        if not _HOOKS and tensor.get_tape_hook() is _dispatch:
            tensor.set_tape_hook(None)


def op_name(backward_fn) -> str:
    """The op a backward closure belongs to: its qualname's first part."""
    qualname = getattr(backward_fn, "__qualname__", "") or ""
    name = qualname.split(".", 1)[0]
    return name or "<anonymous>"
