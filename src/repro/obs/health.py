"""Tape health: numerics anomaly detection with full op provenance.

The third observability pillar (after "where does time go", PR 2, and
"why did the search converge", PR 3): *is the computation healthy*. A
NaN born in one candidate's ``segment_softmax`` poisons the Eq. 2
mixture, then the alpha gradients, then the derived genotype — and
without this layer nothing notices until the final score looks wrong.

:class:`HealthMonitor` is a hook on the same ``Tensor._from_op``
dispatch chain as the op profiler
(:func:`repro.autograd.tensor.add_tape_hook`) and checks every op's
forward output, and every gradient its VJP produces, for NaN / Inf /
overflow. On the first anomaly it raises (mode ``"raise"``) or records
(mode ``"warn"``) a :class:`NumericsAnomaly` carrying the op name, the
supernet edge / layer the op ran under, the search epoch, and the span
path — enough to name the exact faulty op without a debugger.

All of it is read off the process tracer, which records nesting
whether or not sinks are attached: the edge and layer are the
attributes of the innermost ``op`` span (the supernets open one per
candidate, mixture and skip with :func:`repro.obs.spans.op_scope`),
the epoch index and span path come from :meth:`Tracer.position`. They
are read at forward time, so the backward check reports the forward
op's site.

The monitor also aggregates per-epoch gradient-health gauges (alpha /
weight grad-norm ratio, update-to-parameter scale, dead-op detection
when a mixture weight underflows :attr:`HealthMonitor.dead_op_eps`)
fed by the searchers, and emits them as ``grad_health`` / ``dead_op``
events when an event recorder is installed (DESIGN section 7).

Like every obs layer: strictly a no-op unless installed, draws nothing
from the seeded RNG stream, and leaves instrumented runs bit-identical.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from repro.autograd import tensor
from repro.obs import events
from repro.obs.autograd import op_name
from repro.obs.search_telemetry import grad_l2_norm
from repro.obs.spans import get_tracer

__all__ = [
    "NumericsAnomaly",
    "HealthMonitor",
    "install",
    "uninstall",
    "get_monitor",
    "enabled",
    "check_numerics",
]

MODES = ("raise", "warn")


class NumericsAnomaly(RuntimeError):
    """A non-finite (or overflowing) value on the autograd tape.

    Carries full provenance so the failure names itself: which op,
    which supernet edge and layer, which epoch, and the span path the
    dispatch happened under. ``phase`` is ``"forward"`` for op outputs
    and ``"backward"`` for gradients produced by an op's VJP.
    """

    def __init__(
        self,
        kind: str,
        phase: str,
        op: str,
        edge: str | None = None,
        layer: int | None = None,
        epoch: int | None = None,
        span_path: str | None = None,
    ):
        self.kind = kind
        self.phase = phase
        self.op = op
        self.edge = edge
        self.layer = layer
        self.epoch = epoch
        self.span_path = span_path
        where = [f"op={op!r}"]
        if edge is not None:
            where.append(f"edge={edge!r}")
        if layer is not None:
            where.append(f"layer={layer}")
        if epoch is not None:
            where.append(f"epoch={epoch}")
        if span_path:
            where.append(f"span={span_path!r}")
        super().__init__(f"{kind} in {phase} of {', '.join(where)}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "phase": self.phase,
            "op": self.op,
            "edge": self.edge,
            "layer": self.layer,
            "epoch": self.epoch,
            "span_path": self.span_path,
        }


# ---------------------------------------------------------------------
# the monitor
# ---------------------------------------------------------------------
class HealthMonitor:
    """Checks tape values for NaN/Inf/overflow; aggregates health gauges.

    Parameters
    ----------
    mode:
        ``"raise"`` aborts on the first anomaly; ``"warn"`` records it
        (see :attr:`anomalies`) and keeps going. Warn-mode anomalies are
        also emitted as ``numerics_anomaly`` events when an event
        recorder is installed.
    overflow:
        Absolute magnitude above which a *finite* value counts as an
        overflow anomaly (headroom before float64 saturates to inf).
    dead_op_eps:
        Mixture weights below this are reported as dead ops.
    """

    def __init__(
        self,
        mode: str = "raise",
        overflow: float = 1e100,
        dead_op_eps: float = 1e-6,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.overflow = float(overflow)
        self.dead_op_eps = float(dead_op_eps)
        self.anomalies: list[NumericsAnomaly] = []
        self.checked_entries = 0
        self.epoch_reports: list[dict] = []
        self.installed = False

    # ------------------------------------------------------------------
    def install(self) -> "HealthMonitor":
        if not self.installed:
            install(self)  # raises while another monitor is installed
            tensor.add_tape_hook(self._tape_hook)
            self.installed = True
        return self

    def uninstall(self) -> None:
        if self.installed:
            tensor.remove_tape_hook(self._tape_hook)
            self.installed = False
            uninstall(self)

    # ------------------------------------------------------------------
    def _classify(self, array: np.ndarray) -> str | None:
        """Anomaly kind for ``array``, or None when it is healthy."""
        if array.dtype.kind not in "fc":
            return None
        if not np.isfinite(array).all():
            return "NaN" if np.isnan(array).any() else "Inf"
        if array.size and float(np.abs(array).max()) > self.overflow:
            return "overflow"
        return None

    def _report(self, anomaly: NumericsAnomaly) -> None:
        if self.mode == "raise":
            raise anomaly
        self.anomalies.append(anomaly)
        data = anomaly.to_dict()
        events.emit("numerics_anomaly", epoch=data.pop("epoch"), **data)

    def _tape_hook(self, data, parents, backward_fn):
        self.checked_entries += 1
        op = op_name(backward_fn)
        kind = self._classify(np.asarray(data))
        tracer = get_tracer()
        span_path, epoch_span = tracer.position()
        epoch = epoch_span[1] if epoch_span is not None else None
        scope = tracer.innermost("op")
        edge = scope.attrs["edge"] if scope is not None else None
        layer = scope.attrs["layer"] if scope is not None else None
        if kind is not None:
            self._report(
                NumericsAnomaly(
                    kind, "forward", op,
                    edge=edge, layer=layer, epoch=epoch, span_path=span_path,
                )
            )
        monitor = self

        def checked_backward(grad):
            parent_grads = backward_fn(grad)
            for parent_grad in parent_grads:
                if parent_grad is None:
                    continue
                bad = monitor._classify(np.asarray(parent_grad))
                if bad is not None:
                    monitor._report(
                        NumericsAnomaly(
                            bad, "backward", op,
                            edge=edge, layer=layer, epoch=epoch,
                            span_path=span_path,
                        )
                    )
                    break
            return parent_grads

        checked_backward.__qualname__ = getattr(
            backward_fn, "__qualname__", checked_backward.__qualname__
        )
        return checked_backward

    # ------------------------------------------------------------------
    # per-epoch gradient health (fed by the searchers / trainer)
    # ------------------------------------------------------------------
    def observe_epoch(
        self,
        epoch: int,
        arch_params=(),
        weight_params=(),
        arch_before=None,
        weight_before=None,
        mixtures: dict[str, np.ndarray] | None = None,
        op_names: dict[str, tuple[str, ...]] | None = None,
        arch_grad_norm: float | None = None,
        weight_grad_norm: float | None = None,
    ) -> dict:
        """Record one epoch's gradient-health gauges.

        ``mixtures`` maps edge kind (``node``/``skip``/``layer``) to the
        raw alpha matrix for that kind; rows are softmaxed here (pure
        deterministic numpy, no RNG) to find dead ops. ``*_before`` are
        pre-step parameter copies for the update/param scale gauge.
        Callers that measured grad norms at the right moment (right
        after each step, before ``zero_grad``) pass them via
        ``*_grad_norm``; otherwise they are read off the params' current
        ``.grad`` slots.
        """
        arch_grad = (
            arch_grad_norm if arch_grad_norm is not None else grad_l2_norm(arch_params)
        )
        weight_grad = (
            weight_grad_norm
            if weight_grad_norm is not None
            else grad_l2_norm(weight_params)
        )
        report = {
            "epoch": int(epoch),
            "arch_grad_norm": arch_grad,
            "weight_grad_norm": weight_grad,
            "grad_ratio": (
                arch_grad / weight_grad if weight_grad > 0.0 else None
            ),
            "arch_update_scale": _update_scale(arch_params, arch_before),
            "weight_update_scale": _update_scale(weight_params, weight_before),
        }
        dead = _dead_ops(mixtures or {}, op_names or {}, self.dead_op_eps)
        report["dead_ops"] = dead
        self.epoch_reports.append(report)
        events.emit(
            "grad_health",
            epoch=epoch,
            **{k: v for k, v in report.items() if k not in ("epoch", "dead_ops")},
        )
        for entry in dead:
            events.emit("dead_op", epoch=epoch, **entry)
        return report

    def dead_ops(self) -> list[dict]:
        """Every dead-op sighting across the recorded epochs."""
        return [
            dict(entry, epoch=report["epoch"])
            for report in self.epoch_reports
            for entry in report["dead_ops"]
        ]

    def summary(self) -> dict:
        """Roll-up for CLI output: anomaly and dead-op counts."""
        return {
            "mode": self.mode,
            "checked_entries": self.checked_entries,
            "anomalies": [a.to_dict() for a in self.anomalies],
            "epochs_observed": len(self.epoch_reports),
            "dead_ops": self.dead_ops(),
        }


def _update_scale(params, before) -> float | None:
    """``||p_new - p_old|| / ||p_old||`` aggregated over a param group."""
    if before is None:
        return None
    delta = 0.0
    base = 0.0
    for param, old in zip(params, before):
        diff = param.data - old
        delta += float(np.sum(diff * diff))
        base += float(np.sum(old * old))
    if base <= 0.0:
        return None
    return float(np.sqrt(delta) / np.sqrt(base))


def _dead_ops(
    mixtures: dict[str, np.ndarray],
    op_names: dict[str, tuple[str, ...]],
    eps: float,
) -> list[dict]:
    """Ops whose softmax mixture weight underflowed ``eps``."""
    dead: list[dict] = []
    for kind in sorted(mixtures):
        alpha = np.asarray(mixtures[kind], dtype=np.float64)
        shifted = alpha - alpha.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        weights = exp / exp.sum(axis=-1, keepdims=True)
        names = op_names.get(kind, ())
        for layer, row in enumerate(weights):
            for index in np.flatnonzero(row < eps):
                op = names[int(index)] if int(index) < len(names) else str(int(index))
                dead.append(
                    {
                        "edge": f"{kind}/{layer}",
                        "layer": int(layer),
                        "op": op,
                        "weight": float(row[int(index)]),
                    }
                )
    return dead


# ---------------------------------------------------------------------
# the process-wide monitor (mirrors the events-recorder singleton)
# ---------------------------------------------------------------------
_MONITOR: HealthMonitor | None = None


def install(monitor: HealthMonitor) -> None:
    """Make ``monitor`` the process-wide health monitor."""
    global _MONITOR
    if _MONITOR is not None and _MONITOR is not monitor:
        raise RuntimeError("a HealthMonitor is already installed")
    _MONITOR = monitor


def uninstall(monitor: HealthMonitor | None = None) -> None:
    """Remove the installed monitor (no-op if ``monitor`` is not it)."""
    global _MONITOR
    if monitor is None or _MONITOR is monitor:
        _MONITOR = None


def get_monitor() -> HealthMonitor | None:
    """The installed monitor, if any."""
    return _MONITOR


def enabled() -> bool:
    """True when a health monitor is installed."""
    return _MONITOR is not None


@contextlib.contextmanager
def check_numerics(
    mode: str = "raise",
    overflow: float = 1e100,
    dead_op_eps: float = 1e-6,
) -> Iterator[HealthMonitor]:
    """Install a :class:`HealthMonitor` for the duration of the block."""
    monitor = HealthMonitor(mode=mode, overflow=overflow, dead_op_eps=dead_op_eps)
    monitor.install()
    try:
        yield monitor
    finally:
        monitor.uninstall()
