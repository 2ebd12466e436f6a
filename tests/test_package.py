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
import importlib
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
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# ``http.server`` dispatches a request to ``do_<verb>`` by name, which
# its base class does not define.
CALLBACKS = {"do_GET"}
# Config fields nothing outside tests/ needs to set: the paper's
# Appendix C hyper-parameters and the pooling search's op list.
PAPER_FIELDS = {
    "w_lr", "w_weight_decay", "alpha_lr", "alpha_weight_decay", "grad_clip",
    "pooling_ops",
    # Eq. 8's xi (the paper sets 0): whether its second-order path stays
    # waits on ROADMAP item 1's verdict.
    "xi",
}


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


def _library():
    """``(file, module AST)`` for each module of ``src/repro``."""
    package = ROOT / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        file = path.relative_to(package.parent).as_posix()
        yield file, ast.parse(path.read_text(encoding="utf-8"))


def _users():
    """ASTs of the code outside tests/ that may run library code:
    ``benchmarks/``, ``perfbench/``, ``examples/``, ``scripts/`` and the
    Python in ``scripts/ci.sh``."""
    for user in USERS:
        for path in sorted((ROOT / user).rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"))
    ci = (ROOT / "scripts" / "ci.sh").read_text(encoding="utf-8")
    for block in re.findall(r"<<'PYEOF'\n(.*?)\nPYEOF", ci, re.S):
        yield ast.parse(block)


def _foreign_overrides(file, name) -> set[str]:
    """What class ``name`` of ``file`` may override from a base outside
    ``repro``, such as ``http.server``'s ``log_message``."""
    module = importlib.import_module(file[: -len(".py")].replace("/", "."))
    return {
        attr
        for base in getattr(module, name).__mro__[1:]
        if not base.__module__.startswith("repro")
        for attr in vars(base)
    }


def _dead_definitions(library, users) -> list[str]:
    """Top-level defs and classes nothing live reaches, and the methods
    of reached classes whose names nothing live uses.

    A class reaches its bases, decorators and class-level statements,
    its dunder methods (Python calls them) and what it overrides from a
    base outside ``repro`` or it calls back by name; any other method
    only once its name is used.
    """
    live = set().union(*map(_names_used, users))
    pending = []  # (file, owning class or None, name, names its body uses)
    for file, tree in library:
        for stmt in tree.body:
            if isinstance(stmt, FUNCTIONS):
                pending.append((file, None, stmt.name, _names_used(stmt)))
            elif isinstance(stmt, ast.ClassDef):
                kept = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
                foreign = None
                for sub in stmt.body:
                    if isinstance(sub, FUNCTIONS) and not sub.name.startswith("__"):
                        if foreign is None:
                            foreign = _foreign_overrides(file, stmt.name) | CALLBACKS
                        if sub.name not in foreign:
                            pending.append((file, stmt.name, sub.name, _names_used(sub)))
                            continue
                    kept.append(sub)
                used = set().union(*map(_names_used, kept))
                pending.append((file, None, stmt.name, used))
            else:
                live |= _names_used(stmt)
    # Python itself calls module-level ``__getattr__``/``__dir__``.
    pending = [d for d in pending if not d[2].startswith("__")]
    classes = set()

    def reachable(definition):
        file, owner, name, __ = definition
        return name in live and (owner is None or (file, owner) in classes)

    grew = True
    while grew:
        reached = [d for d in pending if reachable(d)]
        pending = [d for d in pending if not reachable(d)]
        for file, owner, name, used in reached:
            live |= used
            if owner is None:
                classes.add((file, name))
        grew = bool(reached)
    return [
        f"{file}:{name}" if owner is None else f"{file}:{owner}.{name}"
        for file, owner, name, __ in pending
        if file not in EXEMPT and (owner is None or (file, owner) in classes)
    ]


def _settings(tree) -> set[str]:
    """Names ``tree`` sets as a call keyword, a string dict key or an
    attribute store. Passing a value on under its own name
    (``x=self.config.x``, ``self.x = x``) sets nothing."""

    def passed_on(value, name):
        return (isinstance(value, ast.Name) and value.id == name) or (
            isinstance(value, ast.Attribute) and value.attr == name
        )

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword):
            pairs = [(node.arg, node.value)]
        elif isinstance(node, ast.Dict):
            pairs = [
                (key.value, value)
                for key, value in zip(node.keys, node.values)
                if isinstance(key, ast.Constant)
            ]
        elif isinstance(node, ast.Assign):
            pairs = [
                (target.attr, node.value)
                for target in node.targets
                if isinstance(target, ast.Attribute)
            ]
        else:
            continue
        names |= {name for name, value in pairs if not passed_on(value, name)}
    return names


def _unset_config_fields(library, users) -> list[str]:
    """Fields of ``*Config`` dataclasses nothing outside tests/ sets."""
    settings = set().union(*map(_settings, users))
    fields = []
    for file, tree in library:
        settings |= _settings(tree)
        fields += [
            (file, stmt.name, sub.target.id)
            for stmt in tree.body
            if isinstance(stmt, ast.ClassDef) and stmt.name.endswith("Config")
            for sub in stmt.body
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
        ]
    return [
        f"{file}:{config}.{field}"
        for file, config, field in fields
        if field not in settings and field not in PAPER_FIELDS
    ]


def test_every_library_definition_runs_outside_tests():
    """Each top-level def and class in ``src/repro``, and each method of
    such a class, is reachable from module-level code or from code
    outside tests/ (see ``_users``) through other reachable definitions.
    Each field of a ``*Config`` dataclass is set by such code. Re-exports
    are imports, so they reach nothing; names are matched, not resolved.
    """
    library = list(_library())
    users = list(_users())
    dead = _dead_definitions(library, users) + _unset_config_fields(library, users)
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
