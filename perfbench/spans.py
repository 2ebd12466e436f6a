"""In-memory spans and reversible function wrappers for traced runs.

A :class:`Recorder` keeps every span as ``[name, start, end, parent,
thread, attrs]`` with a per-thread stack, so spans opened by the serve
worker thread and the load-generator thread never nest into each
other. A :class:`Patcher` swaps functions, methods and instance
attributes for wrapped versions and puts every original back on
:meth:`Patcher.restore`, in reverse order, so wrappers stacked on top
of another instrument (the autograd profiler) unwind cleanly.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

MARK = "__perfbench_wrapped__"


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [name, time.perf_counter(), None, parent, threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` inside a span; ``attrs(args, kwargs, result)`` annotates it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        setattr(traced, MARK, True)
        return traced

    def records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "thread", "attrs")
        return [dict(zip(keys, span)) for span in self.spans]


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for record in records:
            out.write(json.dumps(record) + "\n")


class Patcher:
    """Reversible attribute replacement."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, name: str, value) -> None:
        namespace = vars(owner)
        self._undo.append((owner, name, name in namespace, namespace.get(name)))
        setattr(owner, name, value)

    def function(self, module, name: str, make_wrapper) -> None:
        """Wrap ``module.name`` and every alias of it bound elsewhere.

        ``from x import f`` copies the function into the importing
        module, so each ``repro`` module (and ``__main__``) holding the
        same object gets the wrapper too.
        """
        original = getattr(module, name)
        wrapped = make_wrapper(original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if not mod_name.startswith(("repro", "__main__", "__mp_main__")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapped)

    def method(self, cls, name: str, make_wrapper) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            self.set(cls, name, classmethod(make_wrapper(raw.__func__)))
        else:
            self.set(cls, name, make_wrapper(raw))

    def restore(self) -> None:
        while self._undo:
            owner, name, existed, value = self._undo.pop()
            if existed:
                setattr(owner, name, value)
            else:
                delattr(owner, name)


def self_times(records: list[dict]) -> list[float]:
    """Duration minus the durations of direct children, per span."""
    child = [0.0] * len(records)
    for record in records:
        if record["parent"] is not None:
            child[record["parent"]] += record["end"] - record["start"]
    return [
        record["end"] - record["start"] - child[index]
        for index, record in enumerate(records)
    ]
