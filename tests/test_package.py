"""Package-wide checks: lazy imports, no library code that nothing runs,
and no imported name a library module never uses.

``import repro.core.search`` must not drag in what the search path
never uses: networkx (graph classification's data loaders), the graph
classification and knowledge-graph stacks. Neither may the trials
path (``repro.experiments.config`` + ``runners``), which must not
load every table runner through ``repro.experiments/__init__``.
Checked in a fresh interpreter, since the test process has long since
imported them.
"""

import ast
import json
import os
import re
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


ROOT = Path(__file__).resolve().parent.parent
# Code outside tests/ that may run a library definition.
USERS = ("benchmarks", "perfbench", "examples", "scripts")
# Pool tests name these jobs only by "module:function" strings, and the
# spawned workers must import them from the installed package, so they
# live in src/ although only tests/ runs them.
EXEMPT = {"repro/parallel/testing.py"}
JOB_STRING = re.compile(r"^[A-Za-z_][\w.]*:([A-Za-z_]\w*)$")


def _names_used(node) -> set[str]:
    """Names, attributes and ``"module:function"`` targets under ``node``.

    Other strings do not count, so ``__all__`` lists and the lazy export
    tables of ``__init__`` modules keep nothing alive.
    """
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            job = JOB_STRING.match(sub.value)
            if job:
                names.add(job.group(1))
    return names


def test_every_library_definition_runs_outside_tests():
    """Each top-level def and class in ``src/repro`` is reachable from
    module-level code, ``benchmarks/``, ``perfbench/``, ``examples/``,
    ``scripts/`` or the Python in ``scripts/ci.sh`` through other
    reachable definitions. Re-exports are imports, so they reach
    nothing; names are matched, not resolved.
    """
    package = ROOT / "src" / "repro"
    definitions = []  # (file, name, names its body uses)
    live = set()
    for path in sorted(package.rglob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                file = path.relative_to(package.parent).as_posix()
                definitions.append((file, stmt.name, _names_used(stmt)))
            else:
                live |= _names_used(stmt)
    for user in USERS:
        for path in sorted((ROOT / user).rglob("*.py")):
            live |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    ci = (ROOT / "scripts" / "ci.sh").read_text(encoding="utf-8")
    for block in re.findall(r"<<'PYEOF'\n(.*?)\nPYEOF", ci, re.S):
        live |= _names_used(ast.parse(block))

    # Python itself calls module-level ``__getattr__``/``__dir__``.
    pending = [d for d in definitions if not d[1].startswith("__")]
    grew = True
    while grew:
        reached = [d for d in pending if d[1] in live]
        pending = [d for d in pending if d[1] not in live]
        for __, __, used in reached:
            live |= used
        grew = bool(reached)
    dead = [f"{file}:{name}" for file, name, __ in pending if file not in EXEMPT]
    assert dead == [], f"{len(dead)} definitions nothing outside tests/ runs: {dead}"


def _unused_imports(tree) -> list[str]:
    """Names a module imports but never reads, except ``__all__`` names."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in stmt.targets
        ):
            exported |= set(ast.literal_eval(stmt.value))
    return [
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in read and name not in exported
    ]


def test_library_modules_use_every_name_they_import():
    """``__init__`` modules are exempt: their imports are re-exports."""
    package = ROOT / "src" / "repro"
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        file = path.relative_to(package.parent).as_posix()
        unused += [f"{file}: {name}" for name in _unused_imports(tree)]
    assert unused == [], f"{len(unused)} unused imports: {unused}"
