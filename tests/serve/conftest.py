"""Serving test support: foreign graphs, span-tree and tape checks.

The artifact fixtures (``node_artifact``, ``kg_artifact``) live in
``tests/conftest.py`` so the lint-rule replacement tests in
``tests/analysis`` share the same session-scoped exports. The helpers
here run requests through a real :class:`ServeServer` and report what
a complete request trace and a gradient-free serve path require.
"""

from __future__ import annotations

import numpy as np

from repro.graph.data import Graph
from repro.obs import InMemorySink, get_tracer
from repro.obs.context import PATH_STAGES
from repro.serve import InferenceEngine, ServeServer
from tests.autograd.contract_probe import contract_probe


def make_ring_graph(num_nodes: int, num_features: int, seed: int, name: str) -> Graph:
    """A tiny bidirected ring with random features — a 'foreign' graph."""
    rng = np.random.default_rng(seed)
    src = np.arange(num_nodes)
    dst = (src + 1) % num_nodes
    edges = np.vstack(
        [np.concatenate([src, dst]), np.concatenate([dst, src])]
    )
    features = rng.normal(size=(num_nodes, num_features))
    labels = np.zeros(num_nodes, dtype=np.int64)
    return Graph(edge_index=edges, features=features, labels=labels, name=name)


def foreign_graph(artifact) -> Graph:
    """A graph of ``artifact``'s feature width that it never saw."""
    return make_ring_graph(
        12, artifact.features["num_features"], seed=5, name="ring"
    )


def collect_trees(spans):
    """Group finished spans into {trace_id: {root, stages}}."""
    trees = {}
    for span in spans:
        trace_id = span.attrs.get("trace")
        if trace_id is None:
            continue  # serve.batch / serve.forward stack spans
        tree = trees.setdefault(trace_id, {"root": None, "stages": []})
        if span.kind == "request":
            tree["root"] = span
        elif span.kind == "stage":
            tree["stages"].append(span)
    return trees


def tree_problems(spans, pendings=None) -> list[str]:
    """Every way the request trees in ``spans`` fall short of complete.

    A complete tree has a root and exactly its path's stages
    (``PATH_STAGES``), each finished and parented to the root. A failed
    request may miss stages that never ran, but never its ``resolve``.
    With ``pendings`` (the served ``PendingRequest`` objects), each
    request's ``resolved_at`` must also fall inside its ``resolve``
    stage.
    """
    resolved = {p.trace_id: p.resolved_at for p in pendings or ()}
    problems = []
    for trace_id, tree in collect_trees(spans).items():
        root = tree["root"]
        if root is None:
            problems.append(f"{trace_id}: root span missing")
            continue
        names = sorted(span.name for span in tree["stages"])
        expected = sorted(PATH_STAGES[root.attrs["path"]])
        if root.attrs.get("status") == "error":
            complete = "resolve" in names and set(names) <= set(expected)
        else:
            complete = names == expected
        if not complete:
            problems.append(
                f"{trace_id}: stages {names} on the {root.attrs['path']} path"
            )
        for span in tree["stages"]:
            if span.parent_id != root.span_id or span.depth != 1:
                problems.append(f"{trace_id}: {span.name} orphaned")
            if span.t_end is None:
                problems.append(f"{trace_id}: {span.name} never finished")
        if pendings is not None:
            at = resolved.get(trace_id)
            if not any(
                span.name == "resolve" and at is not None
                and span.t_start <= at <= span.t_end
                for span in tree["stages"]
            ):
                problems.append(f"{trace_id}: resolved outside its resolve stage")
    return problems


def serve_traced(engine, requests) -> list[str]:
    """Serve ``(node_ids, graph)`` requests one by one under a sink;
    return :func:`tree_problems` of the recorded trees and requests.
    A request that fails is part of the traffic, not an error of the
    check."""
    sink = InMemorySink()
    pendings = []
    with get_tracer().collect(sink):
        with ServeServer(engine, max_batch=4) as server:
            for node_ids, graph in requests:
                pending = server.submit_async(node_ids=node_ids, graph=graph)
                pendings.append(pending)
                try:
                    pending.result(timeout=30)
                except IndexError:
                    pass
    return tree_problems(sink.spans, pendings)


def serving_tape(artifact, foreign=None):
    """Load ``artifact`` and answer one memo request (and one request on
    ``foreign``, when given) through a ServeServer under the contract
    probe; returns the probe, whose ``ops`` count every tape node any
    thread recorded."""
    with contract_probe() as probe:
        engine = InferenceEngine.from_artifact(artifact)
        with ServeServer(engine, max_batch=4) as server:
            server.submit(node_ids=np.array([0, 1]))
            if foreign is not None:
                server.submit(node_ids=np.array([0, 1]), graph=foreign)
    return probe
