"""A seeded search is independent of the BLAS thread count.

OpenBLAS splits a long dot product across its threads, which regroups
the sum. Each run is a fresh interpreter, because OpenBLAS reads its
thread count when it loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

# pubmed_like(0.8) has 960 nodes, so an (N, 32) supernet activation
# holds 30,720 elements: long enough for OpenBLAS to split a dot.
SEARCH = """
import hashlib
from repro.core.search import SaneSearcher, SearchConfig
from repro.core.search_space import SearchSpace
from repro.graph.datasets import pubmed_like

searcher = SaneSearcher(
    SearchSpace(num_layers=2), pubmed_like(seed=0, scale=0.8),
    SearchConfig(hidden_dim=32, epochs=2), seed=0,
)
searcher.search()
digest = hashlib.sha256()
for alpha in searcher.supernet.arch_parameters():
    digest.update(alpha.data.tobytes())
print(digest.hexdigest())
"""


def _alpha_digest(threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", SEARCH],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return done.stdout.split()[-1]


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(_cores() < 2, reason="needs 2 cores for 2 BLAS threads")
def test_alpha_bytes_match_at_one_and_two_blas_threads():
    assert _alpha_digest(1) == _alpha_digest(2)
