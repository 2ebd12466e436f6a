"""The top-level package imports its subpackages lazily.

``import repro.core.search`` must not drag in what the search path
never uses: networkx (graph classification's data loaders), the graph
classification and knowledge-graph stacks. Checked in a fresh
interpreter, since the test process has long since imported them.
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


def test_search_import_skips_unrelated_subpackages():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report == {"unused": [], "obs": "repro.obs", "obs_loaded": True}


def test_subpackages_resolve_as_attributes():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    assert set(repro.__all__) - {"__version__"} <= set(dir(repro))
    with pytest.raises(AttributeError):
        repro.not_a_subpackage  # noqa: B018
