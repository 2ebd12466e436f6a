"""The repo-specific rule set (see README "Static analysis" for the table).

Each rule guards one invariant no tier-1 test executes: seeded
randomness, the numpy-only substitution rule, the dict-registry
dispatch idiom of the op tables, and the package's layering (timing
through ``repro.obs``, scatters through the planned kernels, processes
through ``repro.parallel``, output through the reporters, NaN-prone
math in the guarded autograd modules). Invariants a test can execute —
tape integrity, parameter registration, gradient-free serving,
complete request traces, mixture provenance, genotype membership, a
ledger entry per CLI command — are checked at runtime in tier-1
instead (EXPERIMENTS "Lint rule audit").
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Context, Rule
from repro.analysis.findings import Finding, Severity

__all__ = [
    "GlobalRngRule",
    "ForbiddenImportRule",
    "MissingZeroGradRule",
    "DuplicateRegistryKeyRule",
    "BareExceptRule",
    "MutableDefaultArgRule",
    "AdHocTimingRule",
    "BufferedScatterRule",
    "RawMultiprocessingRule",
    "NakedPrintRule",
    "UncheckedNanSourceRule",
    "CORE_RULES",
    "package_path",
]


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# Top-level directories of a source checkout: a ``repro`` component
# directly above one of them is a checkout named ``repro`` (as ``git
# clone ... repro`` names it), not the package.
_CHECKOUT_DIRS = frozenset({"src", "tests", "benchmarks", "examples", "scripts"})


def package_path(path: str) -> tuple[str, ...] | None:
    """``path`` relative to the ``repro`` package, or None outside it.

    ``src/repro/obs/spans.py`` -> ``("obs", "spans.py")``; files under
    a checkout's ``tests/``, ``benchmarks/``, ``examples/`` and
    ``scripts/`` are outside the package wherever the checkout lives.
    """
    parts = path.replace("\\", "/").split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro" and parts[index + 1] not in _CHECKOUT_DIRS:
            return tuple(parts[index + 1:])
    return None


def _call_name(node: ast.Call) -> str | None:
    """Last segment of the called name (``np.random.rand`` -> ``rand``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class GlobalRngRule(Rule):
    """Use of the legacy global numpy RNG instead of a seeded Generator.

    Every stochastic component takes an explicit
    ``np.random.Generator``; the global ``np.random.*`` API is
    process-wide state that destroys per-seed reproducibility.
    """

    rule_id = "global-rng"
    severity = Severity.ERROR
    description = "np.random.* global-state call instead of a seeded Generator"
    node_types = (ast.Call, ast.ImportFrom)

    _ALLOWED = frozenset({"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"})

    def check(self, node: ast.AST, ctx: Context) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom):
            if node.module in ("numpy.random", "np.random"):
                for alias in node.names:
                    if alias.name not in self._ALLOWED:
                        yield self.finding(
                            node,
                            ctx,
                            f"importing numpy.random.{alias.name} pulls in the "
                            "global RNG; pass a np.random.Generator instead",
                        )
            return
        dotted = _dotted_name(node.func) if isinstance(node.func, ast.Attribute) else None
        if dotted is None:
            return
        parts = dotted.split(".")
        if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            if parts[2] not in self._ALLOWED:
                yield self.finding(
                    node,
                    ctx,
                    f"{dotted}() uses the process-global RNG; thread a seeded "
                    "np.random.Generator through instead",
                )


class ForbiddenImportRule(Rule):
    """Torch/PyG/jax imports — the environment is numpy-only.

    DESIGN.md section 2: the reproduction substitutes a tape-based
    numpy autograd for PyTorch; importing a real framework would either
    fail in CI or silently fork the computational substrate.
    """

    rule_id = "forbidden-import"
    severity = Severity.ERROR
    description = "import of a framework excluded by the numpy-only substitution"
    node_types = (ast.Import, ast.ImportFrom)

    _FORBIDDEN = frozenset(
        {"torch", "torchvision", "torch_geometric", "torch_sparse", "torch_scatter",
         "jax", "jaxlib", "tensorflow", "dgl"}
    )

    def check(self, node: ast.AST, ctx: Context) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module] if node.module else []
        for name in names:
            top = name.split(".")[0]
            if top in self._FORBIDDEN:
                yield self.finding(
                    node,
                    ctx,
                    f"import of {name!r} violates the numpy-only substitution "
                    "rule (DESIGN.md section 2); use repro.autograd instead",
                )


class MissingZeroGradRule(Rule):
    """``.backward()`` inside a loop whose body never calls ``zero_grad``.

    Gradients accumulate additively into ``Tensor.grad``; a training
    loop that backpropagates without clearing them sums gradients
    across iterations. Heuristic (warning severity): only the loop's
    own body is inspected, so helpers that zero inside a callee are
    outside its view.
    """

    rule_id = "missing-zero-grad"
    severity = Severity.WARNING
    description = ".backward() in a loop with no zero_grad in the same loop body"
    node_types = (ast.For, ast.While, ast.AsyncFor)

    def check(self, node: ast.AST, ctx: Context) -> Iterator[Finding]:
        backward_calls: list[ast.Call] = []
        saw_zero_grad = False
        for child in self._body_nodes(node):
            if isinstance(child, ast.Call):
                name = _call_name(child)
                if name == "backward":
                    backward_calls.append(child)
                elif name == "zero_grad":
                    saw_zero_grad = True
        if backward_calls and not saw_zero_grad:
            yield self.finding(
                backward_calls[0],
                ctx,
                "loop calls .backward() but never zero_grad(); gradients "
                "accumulate across iterations",
            )

    @staticmethod
    def _body_nodes(loop: ast.AST) -> Iterator[ast.AST]:
        """Walk the loop body without entering nested loops/functions."""
        stack = list(getattr(loop, "body", []))
        barrier = (ast.For, ast.While, ast.AsyncFor, ast.FunctionDef,
                   ast.AsyncFunctionDef, ast.ClassDef)
        while stack:
            current = stack.pop()
            yield current
            if isinstance(current, barrier):
                continue
            stack.extend(ast.iter_child_nodes(current))


class DuplicateRegistryKeyRule(Rule):
    """Duplicate constant keys in a dict literal.

    The op registries (``NODE_AGGREGATORS``, ``LAYER_AGGREGATORS``,
    pooling/scheduler tables) are dict literals; a duplicated key
    silently drops the earlier factory — exactly the failure mode of a
    copy-pasted registry row.
    """

    rule_id = "duplicate-registry-key"
    severity = Severity.ERROR
    description = "duplicate constant key in a dict literal"
    node_types = (ast.Dict,)

    def check(self, node: ast.Dict, ctx: Context) -> Iterator[Finding]:
        seen: dict[object, int] = {}
        for key in node.keys:
            if not isinstance(key, ast.Constant):
                continue
            try:
                marker = key.value
                first = seen.get(marker)
            except TypeError:  # unhashable constant; cannot collide
                continue
            if first is None:
                seen[marker] = key.lineno
            else:
                yield self.finding(
                    key,
                    ctx,
                    f"duplicate dict key {key.value!r} (first defined on line "
                    f"{first}) silently shadows the earlier entry",
                )


class BareExceptRule(Rule):
    """``except:`` swallows SystemExit/KeyboardInterrupt and typos alike."""

    rule_id = "bare-except"
    severity = Severity.ERROR
    description = "bare except clause"
    node_types = (ast.ExceptHandler,)

    def check(self, node: ast.ExceptHandler, ctx: Context) -> Iterator[Finding]:
        if node.type is None:
            yield self.finding(
                node,
                ctx,
                "bare except hides real failures (including KeyboardInterrupt); "
                "catch a concrete exception type",
            )


class MutableDefaultArgRule(Rule):
    """Mutable default argument values shared across calls."""

    rule_id = "mutable-default-arg"
    severity = Severity.ERROR
    description = "mutable default argument"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "OrderedDict"})

    def check(self, node: ast.AST, ctx: Context) -> Iterator[Finding]:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
            if self._is_mutable(default):
                yield self.finding(
                    default,
                    ctx,
                    "mutable default argument is shared across calls; "
                    "default to None and build inside the function",
                )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _call_name(node) in self._MUTABLE_CALLS
        return False


class AdHocTimingRule(Rule):
    """Direct wall-clock reads in library code instead of ``repro.obs``.

    ``search_time``/``train_time`` and every trajectory history come
    from :mod:`repro.obs` spans, which nest, aggregate and serialise.
    A raw ``time.perf_counter()`` pair in library code produces a number
    nobody else can see: it never reaches a trace, never shows up in
    the hotspot report, and silently duplicates the span machinery.
    Only the ``repro.obs`` package itself (where the clock has to live)
    is exempt; elsewhere the write must open a span or carry a
    ``# lint: disable=adhoc-timing`` justification.
    """

    rule_id = "adhoc-timing"
    severity = Severity.ERROR
    description = "direct wall-clock timing in src/repro outside repro.obs"
    node_types = (ast.Call,)

    _CLOCKS = frozenset(
        {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
         "process_time", "process_time_ns", "thread_time", "thread_time_ns"}
    )

    def check(self, node: ast.Call, ctx: Context) -> Iterator[Finding]:
        if not self._in_scope(ctx.path):
            return
        dotted = _dotted_name(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        clock = parts[-1] in self._CLOCKS or (
            len(parts) >= 2 and parts[-2] == "time" and parts[-1] == "time"
        )
        if clock:
            yield self.finding(
                node,
                ctx,
                f"{dotted}() times code outside repro.obs; open an obs.span "
                "(or inject a clock) so the measurement reaches traces and "
                "reports",
            )

    @staticmethod
    def _in_scope(path: str) -> bool:
        """True for files inside the ``repro`` package but not ``obs``."""
        rest = package_path(path)
        return rest is not None and rest[0] != "obs"


class BufferedScatterRule(Rule):
    """Direct ``np.add.at``/``np.maximum.at`` outside the kernel module.

    Buffered ``ufunc.at`` scatters are 4-6x slower than the planned CSR
    kernels in :mod:`repro.autograd.kernels`, so a stray call
    re-introduces exactly the hotspot the planned kernels removed, and
    bypasses the kernel counters that account for scatter traffic.
    Only ``repro/autograd/kernels.py`` — home of the 1-D max fast path
    and the ``index_add`` fallback — may call them; everywhere else the
    code must go through ``kernels.scatter_sum``/``scatter_max``/
    ``index_add`` or carry a ``# lint: disable=buffered-scatter``
    justification.
    """

    rule_id = "buffered-scatter"
    severity = Severity.ERROR
    description = "np.add.at/np.maximum.at in src/repro outside repro.autograd.kernels"
    node_types = (ast.Call,)

    _UFUNCS = frozenset({"add", "maximum", "minimum", "multiply", "subtract"})

    def check(self, node: ast.Call, ctx: Context) -> Iterator[Finding]:
        if not self._in_scope(ctx.path):
            return
        dotted = _dotted_name(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] in self._UFUNCS
            and parts[2] == "at"
        ):
            yield self.finding(
                node,
                ctx,
                f"{dotted}() is a buffered scatter outside the kernel module; "
                "route it through repro.autograd.kernels (scatter_sum/"
                "scatter_max/index_add) so it runs on the planned kernels",
            )

    @staticmethod
    def _in_scope(path: str) -> bool:
        """True inside ``repro`` except ``autograd/kernels.py`` itself."""
        rest = package_path(path)
        return rest is not None and rest != ("autograd", "kernels.py")


class RawMultiprocessingRule(Rule):
    """Process-spawning primitives outside ``repro.parallel``.

    DESIGN.md section 12: every multi-process fan-out goes through the
    :class:`repro.parallel.WorkerPool`, which owns the determinism
    contract (merge by job id, per-job seeds), the crash/retry
    handling and the ``parallel.*`` telemetry. A stray
    ``multiprocessing`` import or ``os.fork()`` call elsewhere forks
    work the pool cannot see — results merged in completion order,
    orphan processes on error, no metrics. Only the
    ``repro/parallel/`` package may touch the primitives; everywhere
    else submit :class:`SearchJob` batches, or carry a
    ``# lint: disable=raw-multiprocessing`` justification.
    """

    rule_id = "raw-multiprocessing"
    severity = Severity.ERROR
    description = (
        "multiprocessing/concurrent.futures/os.fork in src/repro outside "
        "repro.parallel"
    )
    node_types = (ast.Import, ast.ImportFrom, ast.Call)

    _MODULES = frozenset({"multiprocessing", "concurrent"})
    _FORK_CALLS = frozenset({"os.fork", "os.forkpty"})

    def check(self, node: ast.AST, ctx: Context) -> Iterator[Finding]:
        if not self._in_scope(ctx.path):
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module] if node.module else []
            for name in names:
                if name.split(".")[0] in self._MODULES:
                    yield self.finding(
                        node,
                        ctx,
                        f"import of {name!r} outside repro.parallel bypasses "
                        "the WorkerPool's deterministic merge and failure "
                        "handling; submit SearchJobs instead",
                    )
            return
        dotted = _dotted_name(node.func)
        if dotted in self._FORK_CALLS:
            yield self.finding(
                node,
                ctx,
                f"{dotted}() forks a process outside repro.parallel; route "
                "the work through a WorkerPool so the determinism and "
                "retry contracts apply",
            )

    @staticmethod
    def _in_scope(path: str) -> bool:
        """True inside ``repro`` except the ``parallel`` package."""
        rest = package_path(path)
        return rest is not None and rest[0] != "parallel"


class NakedPrintRule(Rule):
    """``print()`` in library code instead of structured output.

    Library modules communicate through return values, the event log
    (:mod:`repro.obs.events`) and rendered reports — a stray ``print``
    interleaves with dashboards, corrupts piped output and cannot be
    captured by callers. Only the designated presentation layers are
    exempt: the CLI itself and the report renderers of ``repro.obs`` /
    ``repro.analysis``. Anywhere else the call must go through a
    reporter or carry a ``# lint: disable=naked-print`` justification.
    """

    rule_id = "naked-print"
    severity = Severity.ERROR
    description = "print() in src/repro outside the CLI and report renderers"
    node_types = (ast.Call,)

    _EXEMPT = frozenset(
        {
            ("cli.py",),
            ("analysis", "reporters.py"),
            ("obs", "report.py"),
            ("obs", "search_report.py"),
            ("obs", "bench_gate.py"),
        }
    )

    def check(self, node: ast.Call, ctx: Context) -> Iterator[Finding]:
        if not self._in_scope(ctx.path):
            return
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield self.finding(
                node,
                ctx,
                "print() in library code bypasses the reporters; return the "
                "text, emit an event, or move the call into a renderer",
            )

    @classmethod
    def _in_scope(cls, path: str) -> bool:
        """True inside the ``repro`` package, minus the presentation layer."""
        rest = package_path(path)
        return rest is not None and rest not in cls._EXEMPT


class UncheckedNanSourceRule(Rule):
    """Raw NaN-producing math on tape arrays outside the guarded modules.

    ``np.log``/``np.sqrt`` and division are where NaN/Inf are born:
    ``log(0)``, ``sqrt(-eps)``, ``x / 0``. The autograd modules
    (``ops.py``, ``functional.py``, ``kernels.py``) own the guarded
    implementations — epsilon clips, max-shifted softmaxes, masked
    denominators — and the PR-5 health monitor can attribute anything
    that still slips through to an op. A direct ``np.log(t.data)`` (or
    a division whose operand reads ``.data`` / ``.numpy()``) elsewhere
    sidesteps both layers: no guard, no tape entry, no provenance when
    it produces the NaN that poisons the Eq. 2 mixture. Route the math
    through the autograd ops or justify with
    ``# lint: disable=unchecked-nan-source``.
    """

    rule_id = "unchecked-nan-source"
    severity = Severity.ERROR
    description = (
        "raw np.log/np.sqrt/division on tape arrays outside "
        "ops.py/functional.py/kernels.py"
    )
    node_types = (ast.Call, ast.BinOp)

    _NAN_FUNCS = frozenset({"log", "log2", "log10", "log1p", "sqrt", "divide", "true_divide"})
    _GUARDED = frozenset(
        {
            ("autograd", "ops.py"),
            ("autograd", "functional.py"),
            ("autograd", "kernels.py"),
        }
    )

    def check(self, node: ast.AST, ctx: Context) -> Iterator[Finding]:
        if not self._in_scope(ctx.path):
            return
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted is None:
                return
            parts = dotted.split(".")
            if not (
                len(parts) == 2
                and parts[0] in ("np", "numpy")
                and parts[1] in self._NAN_FUNCS
            ):
                return
            if any(self._touches_tape(arg) for arg in node.args):
                yield self.finding(
                    node,
                    ctx,
                    f"{dotted}() on a tape array can mint an unattributed "
                    "NaN (log(0)/sqrt(-eps)); use the guarded op in "
                    "repro.autograd or justify the site",
                )
            return
        if isinstance(node.op, ast.Div) and (
            self._touches_tape(node.left) or self._touches_tape(node.right)
        ):
            yield self.finding(
                node,
                ctx,
                "raw division involving a tape array risks an unattributed "
                "divide-by-zero NaN/Inf; use the guarded autograd ops or "
                "justify the site",
            )

    @staticmethod
    def _touches_tape(node: ast.AST) -> bool:
        """Operand subtree reads tensor storage (``.data`` / ``.numpy()``)."""
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute) and child.attr == "data":
                return True
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "numpy"
            ):
                return True
        return False

    @classmethod
    def _in_scope(cls, path: str) -> bool:
        """True inside ``repro`` minus the guarded autograd modules."""
        rest = package_path(path)
        return rest is not None and rest not in cls._GUARDED


CORE_RULES: tuple[type[Rule], ...] = (
    GlobalRngRule,
    ForbiddenImportRule,
    MissingZeroGradRule,
    DuplicateRegistryKeyRule,
    BareExceptRule,
    MutableDefaultArgRule,
    AdHocTimingRule,
    BufferedScatterRule,
    RawMultiprocessingRule,
    NakedPrintRule,
    UncheckedNanSourceRule,
)
