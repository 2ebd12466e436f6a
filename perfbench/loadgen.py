"""Seeded request schedules for the serve-mixed workload.

Pure numpy, no ``repro`` import: the schedule is an input of the
benchmark, drawn from the seed alone, so the self-tests can check that
it repeats exactly for a seed and changes with it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

PINNED = -1  # graph index of requests against the artifact's own graph
POPULARITY_EXPONENT = 1.1  # Zipf exponent of the foreign-graph popularity
MAX_IDS = 8  # a request asks for 1..MAX_IDS node ids


@dataclasses.dataclass(frozen=True)
class Request:
    due_s: float  # offset from the start of the phase (open loop only)
    graph: int  # PINNED or an index into the foreign-graph pool
    node_ids: tuple[int, ...]

    @property
    def kind(self) -> str:
        return "pinned" if self.graph == PINNED else "foreign"


def popularity(pool_size: int) -> np.ndarray:
    """Zipf-like weights: graph ``i`` is drawn with weight ``1/(i+1)^s``."""
    weights = 1.0 / np.arange(1, pool_size + 1) ** POPULARITY_EXPONENT
    return weights / weights.sum()


def _draw(rng, count, pinned_share, sizes, pinned_nodes):
    weights = popularity(len(sizes))
    pinned = rng.random(count) < pinned_share
    graphs = rng.choice(len(sizes), size=count, p=weights)
    widths = rng.integers(1, MAX_IDS + 1, size=count)
    requests = []
    for is_pinned, graph, width in zip(pinned, graphs, widths):
        graph = PINNED if is_pinned else int(graph)
        nodes = pinned_nodes if is_pinned else sizes[graph]
        ids = rng.choice(nodes, size=min(int(width), nodes), replace=False)
        requests.append((graph, tuple(int(i) for i in np.sort(ids))))
    return requests


def open_loop(
    seed: int,
    rate: float,
    duration_s: float,
    pinned_share: float,
    foreign_sizes: list[int],
    pinned_nodes: int,
) -> list[Request]:
    """Poisson arrivals at ``rate`` per second over ``duration_s``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration_s * 2) + 16)
    dues = np.cumsum(gaps)
    dues = dues[dues < duration_s]
    mix = _draw(rng, len(dues), pinned_share, foreign_sizes, pinned_nodes)
    return [Request(float(due), graph, ids) for due, (graph, ids) in zip(dues, mix)]


def closed_loop(
    seed: int,
    count: int,
    pinned_share: float,
    foreign_sizes: list[int],
    pinned_nodes: int,
) -> list[Request]:
    """``count`` requests for the closed-loop phase, issued in order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    mix = _draw(rng, count, pinned_share, foreign_sizes, pinned_nodes)
    return [Request(0.0, graph, ids) for graph, ids in mix]
