"""The tensor-owned tape-hook chain behind profiler/health/memory."""

import numpy as np
import pytest

from repro.autograd import Tensor, tensor
from repro.autograd.tensor import add_tape_hook, get_tape_hook, remove_tape_hook


def _recording_hook(log, name):
    def hook(data, parents, backward_fn):
        log.append(name)
        return backward_fn

    return hook


class TestChainLifecycle:
    def test_first_in_installs_last_out_removes(self):
        log = []
        first = _recording_hook(log, "a")
        second = _recording_hook(log, "b")
        assert get_tape_hook() is None
        add_tape_hook(first)
        try:
            assert get_tape_hook() is not None
            add_tape_hook(second)
            _ = Tensor(np.ones(1), requires_grad=True) * 2.0
            assert log == ["a", "b"]
            remove_tape_hook(first)
            assert get_tape_hook() == (second,)  # one observer still active
        finally:
            remove_tape_hook(second)
            remove_tape_hook(first)  # no-op: already removed
        assert get_tape_hook() is None

    def test_double_registration_raises(self):
        hook = _recording_hook([], "a")
        add_tape_hook(hook)
        try:
            with pytest.raises(RuntimeError, match="already registered"):
                add_tape_hook(hook)
        finally:
            remove_tape_hook(hook)
        assert get_tape_hook() is None

    def test_chain_is_mutated_in_place(self):
        # Snapshots of module attributes (the repo benchmark's
        # self-test) see the same list object before and after.
        chain = tensor._TAPE_HOOKS
        hook = _recording_hook([], "a")
        add_tape_hook(hook)
        remove_tape_hook(hook)
        assert tensor._TAPE_HOOKS is chain


class TestDispatch:
    def test_hooks_run_in_registration_order_per_op(self):
        log = []
        first = _recording_hook(log, "a")
        second = _recording_hook(log, "b")
        add_tape_hook(first)
        add_tape_hook(second)
        try:
            x = Tensor(np.ones(3), requires_grad=True)
            _ = x * x
        finally:
            remove_tape_hook(second)
            remove_tape_hook(first)
        assert log == ["a", "b"]

    def test_wrapping_hook_feeds_next_hook(self):
        seen_qualnames = []

        def wrapping(data, parents, backward_fn):
            def wrapped(grad):
                return backward_fn(grad)

            wrapped.__qualname__ = getattr(
                backward_fn, "__qualname__", wrapped.__qualname__
            )
            return wrapped

        def observing(data, parents, backward_fn):
            seen_qualnames.append(backward_fn.__qualname__.split(".", 1)[0])
            return backward_fn

        add_tape_hook(wrapping)
        add_tape_hook(observing)
        try:
            x = Tensor(np.ones(3), requires_grad=True)
            y = x * x
            # The wrapped closure is what the tape stores and calls.
            y.backward(np.ones(3))
        finally:
            remove_tape_hook(observing)
            remove_tape_hook(wrapping)
        # The op name survives the wrap for hooks later in the chain.
        assert seen_qualnames == ["mul"]
        assert x.grad is not None
