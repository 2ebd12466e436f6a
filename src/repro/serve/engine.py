"""The inference engine: memoized answers, coalesced foreign forwards.

A request names target rows (node ids for classification, kg1 entity
ids for alignment) and optionally carries its own graph (the
inductive case).

Model weights and the artifact's own graph are immutable after load,
so their eval-mode output never changes. The engine therefore runs
that forward **once**, at construction — the default graph's logits
for classification, the kg ``z1``/``z2`` embeddings for alignment —
stores the arrays read-only, and answers every request that needs no
forward (``graph=None``, or any alignment request) by slicing them:
:meth:`InferenceEngine.answer`. ``ServeServer`` calls it on the
caller's thread; such requests never enter the queue. After the memo
forward the engine drops the dataset and the default graph's plans;
it keeps only the default graph itself and the memoized arrays.

Requests that carry their own graph still need a forward. The engine
groups a batch's such requests by graph and runs **one** full-graph
forward per distinct graph per batch — the coalescing that makes
concurrent single-node requests cheap: the forward cost is per-graph,
so a batch of N requests over one graph pays it once instead of N
times.

Every forward runs inside ``no_grad()``, so no tape is built — no
backward closures, no retained intermediates (tier-1 serves under a
tape probe and asserts nothing is recorded). Predictions are sliced from logits
shared by every request they serve, which makes batched results
bit-identical to single-request results by construction: both slice
the same deterministic eval-mode forward. Slices are always fresh
arrays, so a caller mutating its answer cannot change anyone else's.

Foreign graphs' plans come from the content-keyed
:class:`~repro.serve.plans.PlanCache`; the default graph takes no
slot in it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.autograd import no_grad
from repro.gnn.common import GraphCache
from repro.graph.data import Graph, MultiGraphDataset
from repro.obs.context import TraceContext, context_span, mirror_span
from repro.serve.artifact import ModelArtifact
from repro.serve.metrics import ServeMetrics
from repro.serve.plans import PlanCache

__all__ = ["Request", "InferenceEngine"]


@dataclasses.dataclass
class Request:
    """One prediction request.

    ``node_ids`` — target rows (``None`` = every node/entity);
    ``graph`` — an explicit graph for inductive requests (``None`` =
    the artifact's default graph; must be ``None`` for alignment,
    whose encoder is bound to its KG pair);
    ``ctx`` — the request's trace context, set by ``ServeServer``; the
    engine attaches its ``forward``/``slice`` stage spans to it
    (``None`` — direct ``predict()`` calls — records no stages);
    ``deadline_s`` — latency SLO for this request (accounting only).
    """

    node_ids: np.ndarray | None = None
    graph: Graph | None = None
    ctx: TraceContext | None = None
    deadline_s: float | None = None


def _readonly(array: np.ndarray) -> np.ndarray:
    """A private read-only copy: nothing outside the engine can alias it."""
    array = np.array(array)
    array.setflags(write=False)
    return array


def _rows(source: np.ndarray, node_ids) -> np.ndarray:
    """The requested rows as a fresh array (never a view of ``source``)."""
    if node_ids is None:
        return source.copy()
    return np.take(source, node_ids, axis=0)


class InferenceEngine:
    """Answers prediction requests over one loaded model."""

    def __init__(
        self,
        model,
        data,
        task: str = "node_classification",
        plan_capacity: int = 8,
        metrics: ServeMetrics | None = None,
    ):
        self.model = model.eval()
        self.task = task
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.plan_cache = PlanCache(capacity=plan_capacity)
        if task == "node_classification":
            self._default_graph = self._pick_default_graph(data)
            graph = self._default_graph
            with no_grad():
                logits = self.model.forward(graph.features, GraphCache(graph))
            self._logits = _readonly(logits.numpy())
        else:
            self._default_graph = None
            with no_grad():
                z1, z2 = self.model.encode()
            self._z1 = _readonly(z1.numpy())
            self._z2 = _readonly(z2.numpy())

    @classmethod
    def from_artifact(
        cls,
        artifact: ModelArtifact,
        plan_capacity: int = 8,
        metrics: ServeMetrics | None = None,
    ) -> "InferenceEngine":
        model, data = artifact.instantiate()
        return cls(
            model,
            data,
            task=artifact.task,
            plan_capacity=plan_capacity,
            metrics=metrics,
        )

    @staticmethod
    def _pick_default_graph(data) -> Graph:
        if isinstance(data, MultiGraphDataset):
            graphs = data.test_graphs or data.train_graphs
            return graphs[0]
        return data

    # ------------------------------------------------------------------
    @property
    def num_targets(self) -> int:
        """Valid id range for requests against the default graph."""
        if self.task == "kg_alignment":
            return self._z1.shape[0]
        return self._logits.shape[0]

    @property
    def default_graph(self) -> Graph | None:
        """The graph ``graph=None`` requests are answered on (``None``
        for alignment, whose encoder is bound to its KG pair)."""
        return self._default_graph

    def needs_forward(self, request: Request) -> bool:
        """Only a classification request with its own graph does;
        every other request is answered from the memo by :meth:`answer`."""
        return self.task == "node_classification" and request.graph is not None

    def answer(self, request: Request) -> np.ndarray:
        """Slice a memoized answer for a request that needs no forward.

        Records the request's ``slice`` stage when it carries a trace
        context; the stage closes even when the slice raises (a bad id).
        """
        slice_span = self._start_slice(request)
        try:
            if self.task == "kg_alignment":
                if request.graph is not None:
                    raise ValueError(
                        "alignment requests cannot carry a graph: the "
                        "encoder is bound to the artifact's KG pair"
                    )
                anchors = self._z1 if request.node_ids is None else np.take(
                    self._z1, request.node_ids, axis=0
                )
                # Negative L1 distance to every kg2 entity: the
                # alignment score matrix the Hits@k metrics rank.
                return -np.abs(
                    anchors[:, None, :] - self._z2[None, :, :]
                ).sum(axis=-1)
            return _rows(self._logits, request.node_ids)
        finally:
            self._finish_slice(request, slice_span)

    def predict(
        self,
        node_ids: np.ndarray | None = None,
        graph: Graph | None = None,
    ) -> np.ndarray:
        """Single-request convenience; a batch of one."""
        return self.predict_batch([Request(node_ids=node_ids, graph=graph)])[0]

    def predict_batch(self, requests: list[Request]) -> list[np.ndarray]:
        """One coalesced pass; results align with ``requests`` by index."""
        if not requests:
            return []
        with obs.span("serve.batch", kind="serve", size=len(requests)):
            self.metrics.observe_batch(len(requests))
            results: list[np.ndarray | None] = [None] * len(requests)
            # Group foreign requests by graph identity within the
            # batch; the content-keyed plan cache then dedupes across
            # batches.
            groups: dict[int, tuple[Graph, list[int]]] = {}
            for index, request in enumerate(requests):
                if self.needs_forward(request):
                    groups.setdefault(
                        id(request.graph), (request.graph, [])
                    )[1].append(index)
                else:
                    results[index] = self.answer(request)
            for graph, indices in groups.values():
                self._run_forward(graph, requests, indices, results)
            self.metrics.observe_plan_cache(self.plan_cache.stats())
            return results

    # ------------------------------------------------------------------
    def _run_forward(self, graph, requests, indices, results) -> None:
        """One forward on ``graph`` answers ``requests[i]`` for every
        ``i`` in ``indices``, into ``results[i]``."""
        cache = self.plan_cache.get(graph)
        with obs.span(
            "serve.forward", kind="serve",
            graph=graph.name, requests=len(indices),
        ) as forward_span:
            with no_grad():
                logits = self.model.forward(graph.features, cache).numpy()
        for index in indices:
            request = requests[index]
            self._mirror_forward(request, forward_span, graph.name, len(indices))
            slice_span = self._start_slice(request)
            results[index] = _rows(logits, request.node_ids)
            self._finish_slice(request, slice_span)

    # ------------------------------------------------------------------
    # per-request stage spans (no-ops when the request has no context,
    # i.e. direct predict() calls outside a ServeServer)
    # ------------------------------------------------------------------
    def _mirror_forward(self, request, forward_span, graph_name, shared):
        """One coalesced forward serves ``shared`` trees: mirror its
        window into each request's trace as that tree's forward stage."""
        if request.ctx is None:
            return
        mirrored = mirror_span(
            "forward", request.ctx,
            forward_span.t_start, forward_span.t_end,
            graph=graph_name, shared=shared,
        )
        self.metrics.observe_stage(
            "forward", mirrored.duration, request.ctx.trace_id
        )

    def _start_slice(self, request):
        if request.ctx is None:
            return None
        return context_span("slice", request.ctx)

    def _finish_slice(self, request, slice_span) -> None:
        if slice_span is None:
            return
        slice_span.finish()
        self.metrics.observe_stage(
            "slice", slice_span.duration, request.ctx.trace_id
        )
