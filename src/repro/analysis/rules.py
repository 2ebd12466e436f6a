"""The repo-specific rule set (see README "Static analysis" for the table).

Each rule encodes one invariant the reproduction's correctness rests
on: tape integrity of :mod:`repro.autograd`, parameter registration in
:mod:`repro.nn.module`, seeded randomness, the numpy-only substitution
rule, and the dict-registry dispatch idiom used by the op tables.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Context, Rule
from repro.analysis.findings import Finding, Severity

__all__ = [
    "TapeMutationRule",
    "UnregisteredParameterRule",
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
    "MissingOpScopeRule",
    "TapeInInferenceRule",
    "UntracedServePathRule",
    "UnledgeredEntrypointRule",
    "CORE_RULES",
]

_INIT_METHODS = ("__init__", "reset_parameters")


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


def _call_name(node: ast.Call) -> str | None:
    """Last segment of the called name (``np.random.rand`` -> ``rand``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class TapeMutationRule(Rule):
    """In-place writes to ``Tensor.data`` bypass the autograd tape.

    The tape records gradients against the array a ``Tensor`` held when
    the op ran; mutating ``.data`` afterwards silently corrupts every
    pending backward pass. Writes of the form ``self.<name>.data`` are
    allowed inside ``__init__``/``reset_parameters`` (no tape exists for
    a parameter that is still being constructed); everything else —
    optimiser steps, state restores, virtual DARTS steps — is flagged
    and must carry an explicit justification comment.
    """

    rule_id = "tape-mutation"
    severity = Severity.ERROR
    description = "in-place write to Tensor.data outside __init__/reset_parameters"
    node_types = (ast.Assign, ast.AugAssign, ast.AnnAssign)

    def check(self, node: ast.AST, ctx: Context) -> Iterator[Finding]:
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target] if node.target is not None else []
        for target in targets:
            yield from self._check_target(target, node, ctx)

    def _check_target(
        self, target: ast.AST, node: ast.AST, ctx: Context
    ) -> Iterator[Finding]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._check_target(element, node, ctx)
            return
        # Strip subscripts: `p.data[1:] = x` writes through `.data` too.
        while isinstance(target, ast.Subscript):
            target = target.value
        if not (isinstance(target, ast.Attribute) and target.attr == "data"):
            return
        base = target.value
        # `self.data = ...` is a plain attribute named "data" (dataset
        # holders use it), not a write through a Tensor.
        if isinstance(base, ast.Name) and base.id == "self":
            return
        function = ctx.current_function
        in_init = function is not None and function.name in _INIT_METHODS
        direct_self_attr = (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        )
        if in_init and direct_self_attr:
            return
        if isinstance(base, ast.Subscript):
            owner = (_dotted_name(base.value) or "<expr>") + "[...]"
        else:
            owner = _dotted_name(base) or "<expr>"
        yield self.finding(
            node,
            ctx,
            f"in-place write to {owner}.data mutates tensor storage behind "
            "the autograd tape; rebuild the tensor or justify with "
            "# lint: disable=tape-mutation",
        )


class UnregisteredParameterRule(Rule):
    """``self.x = Tensor(..., requires_grad=True)`` inside a class.

    ``Module.named_parameters`` only discovers :class:`Parameter`
    instances, so a gradient-requiring plain ``Tensor`` trains never:
    the optimiser does not see it and ``zero_grad`` skips it.
    """

    rule_id = "unregistered-parameter"
    severity = Severity.ERROR
    description = "requires_grad Tensor assigned to self without Parameter wrapper"
    node_types = (ast.Assign,)

    def check(self, node: ast.Assign, ctx: Context) -> Iterator[Finding]:
        if ctx.current_class is None:
            return
        value = node.value
        if not (isinstance(value, ast.Call) and _call_name(value) in ("Tensor", "as_tensor")):
            return
        if not self._requires_grad(value):
            return
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield self.finding(
                    node,
                    ctx,
                    f"self.{target.attr} is a requires_grad Tensor; wrap it in "
                    "Parameter(...) so Module.parameters() registers it",
                )

    @staticmethod
    def _requires_grad(call: ast.Call) -> bool:
        for keyword in call.keywords:
            if keyword.arg == "requires_grad":
                return isinstance(keyword.value, ast.Constant) and bool(
                    keyword.value.value
                )
        if len(call.args) >= 2:
            second = call.args[1]
            return isinstance(second, ast.Constant) and second.value is True
        return False


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
        parts = path.replace("\\", "/").split("/")
        if "repro" not in parts:
            return False
        rest = parts[len(parts) - 1 - parts[::-1].index("repro"):]
        return "obs" not in rest


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
        parts = path.replace("\\", "/").split("/")
        if "repro" not in parts:
            return False
        rest = tuple(parts[len(parts) - parts[::-1].index("repro"):])
        return rest != ("autograd", "kernels.py")


class RawMultiprocessingRule(Rule):
    """Process-spawning primitives outside ``repro.parallel``.

    DESIGN.md section 12: every multi-process fan-out goes through the
    :class:`repro.parallel.WorkerPool`, which owns the determinism
    contract (merge by job id, per-job seeds), the crash/timeout/retry
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
        parts = path.replace("\\", "/").split("/")
        if "repro" not in parts:
            return False
        rest = tuple(parts[len(parts) - parts[::-1].index("repro"):])
        return not (rest and rest[0] == "parallel")


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
        parts = path.replace("\\", "/").split("/")
        if "repro" not in parts:
            return False
        rest = tuple(parts[len(parts) - parts[::-1].index("repro"):])
        return rest not in cls._EXEMPT


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
        parts = path.replace("\\", "/").split("/")
        if "repro" not in parts:
            return False
        rest = tuple(parts[len(parts) - parts[::-1].index("repro"):])
        return rest not in cls._GUARDED


class MissingOpScopeRule(Rule):
    """Mixture tape nodes built outside a ``health.op_scope`` block.

    The tape health monitor (``repro.obs.health``) attributes NaN/Inf
    anomalies to ``(edge, layer, op)`` via the innermost active
    :func:`op_scope`. Search forwards annotate every candidate op — but
    the *mixture itself* (``ops.weighted_sum``, the Eq. 2 combination
    where epsilon-scaled alphas most often mint the first Inf) is a
    tape node too. A mixture built outside any scope reports
    ``op=None`` at exactly the moment provenance matters most. The rule
    fires only in modules that already use ``op_scope`` (the search
    forwards); plain training code is out of scope.
    """

    rule_id = "missing-op-scope"
    severity = Severity.ERROR
    description = (
        "ops.weighted_sum mixture outside health.op_scope in a "
        "monitor-annotated module"
    )
    node_types = (ast.Call,)

    _MIXTURE_CALLS = frozenset({"weighted_sum"})

    def __init__(self) -> None:
        # Cache for the module currently being walked (files are linted
        # sequentially): ids of nodes lexically inside an op_scope
        # with-block, or None when the module never uses op_scope.
        # Keeping the tree reference (not its id) avoids id recycling.
        self._cached_tree: ast.Module | None = None
        self._cached_scoped: set[int] | None = None

    def check(self, node: ast.Call, ctx: Context) -> Iterator[Finding]:
        if _call_name(node) not in self._MIXTURE_CALLS:
            return
        scoped = self._scoped_nodes(ctx.tree)
        if scoped is None:  # module never uses op_scope: not a forward
            return
        if id(node) in scoped:
            return
        yield self.finding(
            node,
            ctx,
            "mixture tape node built outside health.op_scope; anomalies "
            "in the Eq. 2 combination would report op=None — wrap the "
            "call in `with health.op_scope(edge=..., layer=..., op=...)`",
        )

    def _scoped_nodes(self, tree: ast.Module) -> set[int] | None:
        if tree is self._cached_tree:
            return self._cached_scoped
        uses_op_scope = False
        scoped: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                if any(
                    isinstance(item.context_expr, ast.Call)
                    and _call_name(item.context_expr) == "op_scope"
                    for item in node.items
                ):
                    uses_op_scope = True
                    for stmt in node.body:
                        scoped.update(id(child) for child in ast.walk(stmt))
        result = scoped if uses_op_scope else None
        self._cached_tree = tree
        self._cached_scoped = result
        return result


class TapeInInferenceRule(Rule):
    """Tape-building ops in ``repro.serve`` hot paths outside ``no_grad``.

    The serving engine's contract is that inference never builds a
    tape: no backward closures allocated, no intermediates retained,
    and the batched/single bit-identity argument rests on eval-mode
    forwards being pure functions of the inputs. A ``model.forward``/
    ``encode``/``embed`` call in serve code that is not lexically
    inside a ``with no_grad():`` block silently re-enables tape
    recording — every request leaks its graph of backward closures
    until something drops the result. ``.backward()`` has no business
    in serving at all and is flagged unconditionally. Lexical scoping
    is deliberate: it forces the serve modules to keep the guard
    visible at the call site (wrappers that hide it defeat review).
    Intentional exceptions — e.g. a debug endpoint that inspects
    gradients — carry a ``# lint: disable=tape-in-inference``
    justification.
    """

    rule_id = "tape-in-inference"
    severity = Severity.ERROR
    description = (
        "forward/encode/embed outside no_grad() (or any .backward()) "
        "in repro.serve"
    )
    node_types = (ast.Call,)

    _TAPE_BUILDERS = frozenset({"forward", "encode", "embed"})

    def __init__(self) -> None:
        # Same per-module cache shape as MissingOpScopeRule: ids of
        # nodes lexically inside a `with no_grad():` body for the tree
        # currently being walked.
        self._cached_tree: ast.Module | None = None
        self._cached_guarded: set[int] | None = None

    def check(self, node: ast.Call, ctx: Context) -> Iterator[Finding]:
        if not self._in_scope(ctx.path):
            return
        name = _call_name(node)
        if name == "backward":
            yield self.finding(
                node,
                ctx,
                ".backward() in serving code builds and consumes a tape; "
                "inference must stay gradient-free — move training out of "
                "repro.serve or justify with # lint: disable=tape-in-inference",
            )
            return
        if name not in self._TAPE_BUILDERS:
            return
        # `"x".encode("ascii")` is a codec call, not the aligner's
        # tape-building `model.encode()`: the model API takes no
        # arguments, codec encodes take the codec name.
        if name in ("encode", "embed") and (node.args or node.keywords):
            return
        if id(node) in self._guarded_nodes(ctx.tree):
            return
        yield self.finding(
            node,
            ctx,
            f".{name}() outside a lexical `with no_grad():` block records "
            "a tape per request and leaks backward closures under load; "
            "wrap the call site (or justify with "
            "# lint: disable=tape-in-inference)",
        )

    def _guarded_nodes(self, tree: ast.Module) -> set[int]:
        if tree is self._cached_tree:
            return self._cached_guarded
        guarded: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                if any(
                    isinstance(item.context_expr, ast.Call)
                    and _call_name(item.context_expr) == "no_grad"
                    for item in node.items
                ):
                    for stmt in node.body:
                        guarded.update(id(child) for child in ast.walk(stmt))
        self._cached_tree = tree
        self._cached_guarded = guarded
        return guarded

    @staticmethod
    def _in_scope(path: str) -> bool:
        """True for files inside the ``repro.serve`` package."""
        parts = path.replace("\\", "/").split("/")
        if "repro" not in parts:
            return False
        rest = parts[len(parts) - 1 - parts[::-1].index("repro"):]
        return len(rest) >= 2 and rest[1] == "serve"


class UntracedServePathRule(Rule):
    """``PendingRequest`` resolved or failed outside a request span.

    Every request through ``repro.serve`` owns a span tree; the tree
    is only complete if the terminal transition — ``._resolve()`` or
    ``._fail()`` — happens inside that request's ``resolve`` stage
    span. A resolution outside a ``with ...stage(...)`` block produces
    an orphaned tail: the trace shows the request forever in flight,
    per-stage percentiles silently drop the resolve cost, and the p99
    exemplar can point at a tree with no end. Lexical scoping again:
    the ``with <trace>.stage("resolve"):`` guard must be visible at
    the call site. Intentional exceptions (e.g. a shutdown path that
    fails requests without trace machinery) carry a
    ``# lint: disable=untraced-serve-path`` justification.
    """

    rule_id = "untraced-serve-path"
    severity = Severity.ERROR
    description = (
        "PendingRequest._resolve/._fail outside a `with ...stage(...)` "
        "request-span block in repro.serve"
    )
    node_types = (ast.Call,)

    _TERMINALS = frozenset({"_resolve", "_fail"})

    def __init__(self) -> None:
        # Same per-module cache shape as TapeInInferenceRule: ids of
        # nodes lexically inside a `with <x>.stage(...):` body for the
        # tree currently being walked.
        self._cached_tree: ast.Module | None = None
        self._cached_guarded: set[int] | None = None

    def check(self, node: ast.Call, ctx: Context) -> Iterator[Finding]:
        if not self._in_scope(ctx.path):
            return
        if not isinstance(node.func, ast.Attribute):
            return
        name = node.func.attr
        if name not in self._TERMINALS:
            return
        if id(node) in self._guarded_nodes(ctx.tree):
            return
        yield self.finding(
            node,
            ctx,
            f".{name}() outside a `with ...stage(...)` block leaves the "
            "request's span tree without a resolve stage; wrap the call "
            "site in the request's stage span (or justify with "
            "# lint: disable=untraced-serve-path)",
        )

    def _guarded_nodes(self, tree: ast.Module) -> set[int]:
        if tree is self._cached_tree:
            return self._cached_guarded
        guarded: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                if any(
                    isinstance(item.context_expr, ast.Call)
                    and _call_name(item.context_expr) == "stage"
                    for item in node.items
                ):
                    for stmt in node.body:
                        guarded.update(id(child) for child in ast.walk(stmt))
        self._cached_tree = tree
        self._cached_guarded = guarded
        return guarded

    @staticmethod
    def _in_scope(path: str) -> bool:
        """True for files inside the ``repro.serve`` package."""
        parts = path.replace("\\", "/").split("/")
        if "repro" not in parts:
            return False
        rest = parts[len(parts) - 1 - parts[::-1].index("repro"):]
        return len(rest) >= 2 and rest[1] == "serve"


class UnledgeredEntrypointRule(Rule):
    """A CLI subcommand handler that never records a run manifest.

    The run ledger (DESIGN section 13) only has value if it is
    *complete*: one unledgered entry point and cross-run trends,
    lineage, and provenance all have holes exactly where a regression
    hid. The CLI's convention makes completeness lexically checkable —
    every ``_cmd_<name>`` handler in ``repro/cli.py`` must contain a
    call to ``record_run`` somewhere in its body. Handlers that are
    genuinely read-only (``repro runs`` itself, the ``report``
    renderers) carry a ``# lint: disable=unledgered-entrypoint``
    justification on the ``def`` line instead.
    """

    rule_id = "unledgered-entrypoint"
    severity = Severity.ERROR
    description = (
        "cli.py subcommand handler (_cmd_*) without a record_run call"
    )
    node_types = (ast.FunctionDef,)

    def check(self, node: ast.FunctionDef, ctx: Context) -> Iterator[Finding]:
        if not self._in_scope(ctx.path):
            return
        if not node.name.startswith("_cmd_"):
            return
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call) and _call_name(inner) == "record_run":
                return
        yield self.finding(
            node,
            ctx,
            f"{node.name}() handles a subcommand but never calls "
            "record_run(); every entry point must append a run manifest "
            "to the ledger (or justify with "
            "# lint: disable=unledgered-entrypoint)",
        )

    @staticmethod
    def _in_scope(path: str) -> bool:
        """True only for the package's ``cli.py`` itself."""
        parts = path.replace("\\", "/").split("/")
        if "repro" not in parts:
            return False
        rest = parts[len(parts) - 1 - parts[::-1].index("repro"):]
        return rest == ["repro", "cli.py"]


CORE_RULES: tuple[type[Rule], ...] = (
    TapeMutationRule,
    UnregisteredParameterRule,
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
    MissingOpScopeRule,
    TapeInInferenceRule,
    UntracedServePathRule,
    UnledgeredEntrypointRule,
)
