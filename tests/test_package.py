"""The top-level and experiments packages import lazily.

``import repro.core.search`` must not drag in what the search path
never uses: networkx (graph classification's data loaders), the graph
classification and knowledge-graph stacks. Neither may the trials
path (``repro.experiments.config`` + ``runners``), which must not
load every table runner through ``repro.experiments/__init__``.
Checked in a fresh interpreter, since the test process has long since
imported them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PROBE = """
import json, sys
import repro.core.search
unused = [m for m in ("networkx", "repro.graphclf", "repro.kg") if m in sys.modules]
import repro
obs = repro.obs
print(json.dumps({"unused": unused, "obs": obs.__name__,
                  "obs_loaded": sys.modules["repro.obs"] is obs}))
"""


TRIALS_PROBE = """
import json, sys
import repro.experiments.config, repro.experiments.runners
print(json.dumps([m for m in ("repro.kg", "repro.graphclf") if m in sys.modules]))
"""


def _probe(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_search_import_skips_unrelated_subpackages():
    report = _probe(PROBE)
    assert report == {"unused": [], "obs": "repro.obs", "obs_loaded": True}


def test_trials_import_skips_table_runners():
    assert _probe(TRIALS_PROBE) == []


def test_experiments_names_resolve_lazily():
    import repro.experiments as experiments

    for name in experiments.__all__:
        assert getattr(experiments, name) is not None
    assert set(experiments.__all__) <= set(dir(experiments))
    with pytest.raises(AttributeError):
        experiments.not_a_runner  # noqa: B018


def test_subpackages_resolve_as_attributes():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    assert set(repro.__all__) - {"__version__"} <= set(dir(repro))
    with pytest.raises(AttributeError):
        repro.not_a_subpackage  # noqa: B018
