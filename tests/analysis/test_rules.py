"""Per-rule fixtures: one violating and one clean snippet each, plus
suppression-comment behavior, package scoping and the reporters.

The tests of the checks that moved out of the analyzer keep their ids
and plant the same defects in running code: ``TestTapeMutation`` under
the contract probe, ``TestUnregisteredParameter`` under the
registration walk, ``TestTapeInInference`` and ``TestUntracedServePath``
through a real ``ServeServer`` (EXPERIMENTS "Lint rule audit").
"""

import contextlib
import json
import textwrap

import numpy as np
import pytest

from repro.analysis import (
    Severity,
    analyze_source,
    default_rules,
    render_json,
    render_text,
)
from repro.analysis.rules import package_path
from repro.autograd import no_grad, ops
from repro.autograd.tensor import Tensor
from repro.gnn.aggregators import GCNAggregator
from repro.gnn.common import GraphCache
from repro.nn.layers import MLP, Linear
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam
from repro.serve import InferenceEngine, ServeServer
from repro.serve import engine as serve_engine
from tests.autograd.contract_probe import ContractViolation, contract_probe
from tests.helpers import unregistered_tensors
from tests.serve.conftest import foreign_graph, serve_traced, serving_tape


def run(source: str):
    return analyze_source(
        textwrap.dedent(source), path="snippet.py", rules=default_rules()
    )


def rule_ids(result) -> list[str]:
    return [finding.rule_id for finding in result.findings]


def _linear_loss():
    """A Linear layer and a scalar loss whose tape is still live."""
    layer = Linear(3, 2, np.random.default_rng(0))
    return layer, ops.sum(layer(Tensor(np.ones((4, 3)))))


class TestTapeMutation:
    """Runtime replacement: the contract probe. A backward must find the
    arrays its tape recorded unchanged and still bound, so a
    ``Tensor.data`` write between a forward and its backward raises; a
    write before the forward or after the backward does not."""

    def test_flags_data_write_outside_init(self):
        with contract_probe():
            layer, loss = _linear_loss()
            layer.weight.data = layer.weight.data - 0.1
            with pytest.raises(ContractViolation, match="parent 1 data rebound"):
                loss.backward()

    def test_flags_subscript_write(self):
        with contract_probe():
            layer, loss = _linear_loss()
            layer.weight.data[0] = 0.0
            with pytest.raises(ContractViolation, match="parent 1 storage changed"):
                loss.backward()

    def test_allows_direct_attr_in_init(self):
        # Initialisation writes (GeniePath opens its LSTM gate biases in
        # __init__) happen before any tape exists.
        with contract_probe() as probe:
            layer = Linear(3, 2, np.random.default_rng(0))
            layer.bias.data[:] = 1.0
            ops.sum(layer(Tensor(np.ones((4, 3))))).backward()
        assert probe.violations == []
        assert probe.backward_calls > 0

    def test_flags_submodule_write_even_in_init(self):
        # Re-initialising a submodule while a tape is live is caught,
        # however deep the parameter sits.
        model = MLP([3, 4, 2], np.random.default_rng(0))
        with contract_probe():
            loss = ops.sum(model(Tensor(np.ones((4, 3)))))
            model.layers[0].bias.data[:] = 1.0
            with pytest.raises(ContractViolation, match="storage changed"):
                loss.backward()

    def test_plain_self_data_attribute_is_fine(self):
        # Optimiser steps and state restores rebind `.data` between
        # tapes: every backward still sees its own arrays.
        layer = Linear(3, 2, np.random.default_rng(0))
        optimizer = Adam(layer.parameters(), lr=0.1)
        state = layer.state_dict()
        with contract_probe() as probe:
            for __ in range(2):
                optimizer.zero_grad()
                ops.sum(layer(Tensor(np.ones((4, 3))))).backward()
                optimizer.step()
            layer.load_state_dict(state)
            ops.sum(layer(Tensor(np.ones((4, 3))))).backward()
        assert probe.violations == []
        assert probe.backward_calls > 0


class _ExtraTensorAggregator(GCNAggregator):
    """The seeded defect: a trainable tensor that is not a Parameter."""

    def __init__(self, in_dim, out_dim, rng):
        super().__init__(in_dim, out_dim, rng)
        self.extra = Tensor(np.ones(3), requires_grad=True)


class TestUnregisteredParameter:
    """Runtime replacement: the registration walk over every module
    (``tests/nn/test_parameter_registration.py``)."""

    def test_flags_requires_grad_tensor_on_self(self):
        model = _ExtraTensorAggregator(4, 6, np.random.default_rng(0))
        assert unregistered_tensors(model) == ["_ExtraTensorAggregator.extra"]

    def test_clean_parameter_and_module_level_tensor(self):
        class Layer(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(3))
                self.stack = [Parameter(np.ones(2))]
                self.buffer = Tensor(np.ones(3))  # no grad: state, not weight

        assert unregistered_tensors(Layer()) == []

class TestGlobalRng:
    def test_flags_global_calls(self):
        result = run(
            """
            import numpy as np

            def sample():
                np.random.seed(0)
                return np.random.rand(3)
            """
        )
        assert rule_ids(result) == ["global-rng", "global-rng"]

    def test_flags_global_import(self):
        result = run("from numpy.random import shuffle\n")
        assert rule_ids(result) == ["global-rng"]

    def test_allows_seeded_generator(self):
        result = run(
            """
            import numpy as np
            from numpy.random import default_rng

            def sample(rng: np.random.Generator):
                local = np.random.default_rng(0)
                return rng.normal() + local.integers(10)
            """
        )
        assert rule_ids(result) == []


class TestForbiddenImport:
    def test_flags_torch_and_jax(self):
        result = run(
            """
            import torch
            from torch_geometric.nn import GCNConv
            import jax.numpy as jnp
            """
        )
        assert rule_ids(result) == ["forbidden-import"] * 3

    def test_allows_numpy_scipy(self):
        result = run(
            """
            import numpy as np
            import scipy.sparse
            import networkx as nx
            """
        )
        assert rule_ids(result) == []


class TestMissingZeroGrad:
    def test_flags_loop_without_zero_grad(self):
        result = run(
            """
            def fit(model, optimizer, batches):
                for batch in batches:
                    loss = model(batch)
                    loss.backward()
                    optimizer.step()
            """
        )
        assert rule_ids(result) == ["missing-zero-grad"]
        assert result.findings[0].severity is Severity.WARNING
        assert result.error_count == 0

    def test_clean_loop_with_zero_grad(self):
        result = run(
            """
            def fit(model, optimizer, batches):
                for batch in batches:
                    optimizer.zero_grad()
                    loss = model(batch)
                    loss.backward()
                    optimizer.step()
            """
        )
        assert rule_ids(result) == []

    def test_backward_outside_loop_not_flagged(self):
        result = run(
            """
            def one_step(model, x):
                loss = model(x)
                loss.backward()
            """
        )
        assert rule_ids(result) == []


class TestDuplicateRegistryKey:
    def test_flags_duplicate_key(self):
        result = run(
            """
            OPS = {"gcn": 1, "gat": 2, "gcn": 3}
            """
        )
        assert rule_ids(result) == ["duplicate-registry-key"]
        assert "gcn" in result.findings[0].message

    def test_clean_registry(self):
        result = run(
            """
            OPS = {"gcn": 1, "gat": 2, **extras}
            """
        )
        assert rule_ids(result) == []


class TestBareExcept:
    def test_flags_bare_except(self):
        result = run(
            """
            try:
                risky()
            except:
                pass
            """
        )
        assert rule_ids(result) == ["bare-except"]

    def test_clean_typed_except(self):
        result = run(
            """
            try:
                risky()
            except (ValueError, KeyError):
                pass
            """
        )
        assert rule_ids(result) == []


class TestMutableDefaultArg:
    def test_flags_list_dict_and_call_defaults(self):
        result = run(
            """
            def f(x=[], y={}, z=dict()):
                return x, y, z
            """
        )
        assert rule_ids(result) == ["mutable-default-arg"] * 3

    def test_clean_none_and_tuple_defaults(self):
        result = run(
            """
            def f(x=None, y=(), z="name"):
                return x, y, z
            """
        )
        assert rule_ids(result) == []


class TestAdHocTiming:
    LIB_PATH = "src/repro/train/trainer.py"

    def run_at(self, source: str, path: str):
        return analyze_source(
            textwrap.dedent(source), path=path, rules=default_rules()
        )

    def test_flags_perf_counter_in_library_code(self):
        result = self.run_at(
            """
            import time

            def fit():
                start = time.perf_counter()
                return time.perf_counter() - start
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == ["adhoc-timing"] * 2
        assert result.findings[0].severity is Severity.ERROR

    def test_flags_bare_import_and_time_time(self):
        result = self.run_at(
            """
            from time import perf_counter
            import time

            def fit():
                return perf_counter(), time.time(), time.monotonic()
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == ["adhoc-timing"] * 3

    def test_obs_package_is_exempt(self):
        source = """
            import time

            def clock():
                return time.perf_counter()
            """
        assert rule_ids(self.run_at(source, "src/repro/obs/spans.py")) == []
        assert rule_ids(self.run_at(source, "src/repro/obs/autograd.py")) == []

    def test_outside_repro_package_is_out_of_scope(self):
        source = """
            import time
            start = time.perf_counter()
            """
        assert rule_ids(self.run_at(source, "benchmarks/common.py")) == []
        assert rule_ids(self.run_at(source, "tests/test_cli.py")) == []
        assert rule_ids(self.run_at(source, "snippet.py")) == []

    def test_non_clock_time_attributes_are_clean(self):
        result = self.run_at(
            """
            import time

            def pause():
                time.sleep(0.1)
                return time.strftime("%H:%M")
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == []

    def test_suppressible_inline(self):
        result = self.run_at(
            """
            import time
            t0 = time.perf_counter()  # lint: disable=adhoc-timing -- boot probe
            """,
            self.LIB_PATH,
        )
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["adhoc-timing"]


class TestNakedPrint:
    LIB_PATH = "src/repro/train/trainer.py"

    def run_at(self, source: str, path: str):
        return analyze_source(
            textwrap.dedent(source), path=path, rules=default_rules()
        )

    def test_flags_print_in_library_code(self):
        result = self.run_at(
            """
            def fit(model):
                print("epoch done")
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == ["naked-print"]
        assert result.findings[0].severity is Severity.ERROR

    def test_cli_and_report_renderers_are_exempt(self):
        source = """
            def main():
                print("hello")
            """
        for path in (
            "src/repro/cli.py",
            "src/repro/analysis/reporters.py",
            "src/repro/obs/report.py",
            "src/repro/obs/search_report.py",
            "src/repro/obs/bench_gate.py",
        ):
            assert rule_ids(self.run_at(source, path)) == [], path

    def test_outside_repro_package_is_out_of_scope(self):
        source = 'print("benchmark banner")\n'
        assert rule_ids(self.run_at(source, "benchmarks/common.py")) == []
        assert rule_ids(self.run_at(source, "tests/test_cli.py")) == []
        assert rule_ids(self.run_at(source, "snippet.py")) == []

    def test_method_named_print_is_clean(self):
        result = self.run_at(
            """
            def render(doc):
                doc.print()
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == []

    def test_suppressible_inline(self):
        result = self.run_at(
            """
            print("boot")  # lint: disable=naked-print -- startup banner
            """,
            self.LIB_PATH,
        )
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["naked-print"]


class TestBufferedScatter:
    LIB_PATH = "src/repro/gnn/aggregators.py"

    def run_at(self, source: str, path: str):
        return analyze_source(
            textwrap.dedent(source), path=path, rules=default_rules()
        )

    def test_flags_ufunc_at_in_library_code(self):
        result = self.run_at(
            """
            import numpy as np

            def scatter(out, ids, values):
                np.add.at(out, ids, values)
                np.maximum.at(out, ids, values)
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == ["buffered-scatter"] * 2
        assert result.findings[0].severity is Severity.ERROR

    def test_kernel_module_is_exempt(self):
        source = """
            import numpy as np

            def index_add(out, index, values):
                np.add.at(out, index, values)
            """
        assert rule_ids(self.run_at(source, "src/repro/autograd/kernels.py")) == []

    def test_outside_repro_package_is_out_of_scope(self):
        source = """
            import numpy as np
            np.add.at(out, ids, values)
            """
        assert rule_ids(self.run_at(source, "benchmarks/common.py")) == []
        assert rule_ids(self.run_at(source, "tests/test_cli.py")) == []

    def test_other_at_attributes_are_clean(self):
        result = self.run_at(
            """
            import numpy as np

            def fine(df, frame):
                frame.at[0, "col"] = 1
                return np.add(1, 2)
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == []

    def test_suppressible_inline(self):
        result = self.run_at(
            """
            import numpy as np
            np.add.at(out, ids, values)  # lint: disable=buffered-scatter -- one-off
            """,
            self.LIB_PATH,
        )
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["buffered-scatter"]


class TestRawMultiprocessing:
    LIB_PATH = "src/repro/experiments/runners.py"

    def run_at(self, source: str, path: str):
        return analyze_source(
            textwrap.dedent(source), path=path, rules=default_rules()
        )

    def test_flags_multiprocessing_imports(self):
        result = self.run_at(
            """
            import multiprocessing
            from multiprocessing import Pool
            from concurrent.futures import ProcessPoolExecutor
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == ["raw-multiprocessing"] * 3
        assert result.findings[0].severity is Severity.ERROR

    def test_flags_os_fork_call(self):
        result = self.run_at(
            """
            import os

            def spawn():
                pid = os.fork()
                return pid
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == ["raw-multiprocessing"]

    def test_parallel_package_is_exempt(self):
        source = """
            import multiprocessing

            def boot():
                return multiprocessing.get_context("spawn")
            """
        assert rule_ids(self.run_at(source, "src/repro/parallel/pool.py")) == []
        assert rule_ids(
            self.run_at(source, "src/repro/parallel/worker.py")
        ) == []

    def test_outside_repro_package_is_out_of_scope(self):
        source = """
            import multiprocessing
            """
        assert rule_ids(self.run_at(source, "benchmarks/common.py")) == []
        assert rule_ids(self.run_at(source, "tests/test_pool.py")) == []

    def test_plain_os_calls_are_clean(self):
        result = self.run_at(
            """
            import os

            def env():
                return os.environ.get("REPRO_SCALE"), os.getpid()
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == []

    def test_suppressible_inline(self):
        result = self.run_at(
            """
            import multiprocessing  # lint: disable=raw-multiprocessing -- probe cpu count
            """,
            self.LIB_PATH,
        )
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["raw-multiprocessing"]


class TestUncheckedNanSource:
    LIB_PATH = "src/repro/gnn/aggregators.py"

    def run_at(self, source: str, path: str):
        return analyze_source(
            textwrap.dedent(source), path=path, rules=default_rules()
        )

    def test_flags_nan_producing_ufuncs_on_tape_data(self):
        result = self.run_at(
            """
            import numpy as np

            def attention(scores):
                return np.log(scores.data), np.sqrt(scores.data)
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == ["unchecked-nan-source"] * 2
        assert result.findings[0].severity is Severity.ERROR

    def test_flags_division_with_tape_operand(self):
        result = self.run_at(
            """
            def normalize(h, degrees):
                left = h.data / degrees
                right = degrees / h.numpy()
                return left, right
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == ["unchecked-nan-source"] * 2

    def test_non_tape_operands_are_clean(self):
        result = self.run_at(
            """
            import numpy as np

            def stable(x):
                return np.log(x + 1.0), np.sqrt(np.abs(x)), x / 2.0
            """,
            self.LIB_PATH,
        )
        assert rule_ids(result) == []

    def test_guarded_autograd_modules_are_exempt(self):
        source = """
            import numpy as np

            def log_op(x):
                return np.log(x.data)
            """
        assert rule_ids(self.run_at(source, "src/repro/autograd/ops.py")) == []
        assert (
            rule_ids(self.run_at(source, "src/repro/autograd/functional.py")) == []
        )
        assert rule_ids(self.run_at(source, "src/repro/autograd/kernels.py")) == []

    def test_outside_repro_package_is_out_of_scope(self):
        source = """
            import numpy as np
            ratio = np.log(t.data) / t.data
            """
        assert rule_ids(self.run_at(source, "benchmarks/common.py")) == []
        assert rule_ids(self.run_at(source, "tests/test_cli.py")) == []
        assert rule_ids(self.run_at(source, "snippet.py")) == []

    def test_suppressible_inline(self):
        result = self.run_at(
            """
            import numpy as np
            y = np.log(t.data)  # lint: disable=unchecked-nan-source -- clamped
            """,
            self.LIB_PATH,
        )
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["unchecked-nan-source"]


class TestTapeInInference:
    """Runtime replacement: serving under the contract probe records no
    tape node (``tests/serve/test_inference_tape.py``). The defect is a
    serve forward outside ``no_grad``; planting it makes the probe
    count nodes."""

    def test_flags_unguarded_forward_in_serve(self, node_artifact, monkeypatch):
        monkeypatch.setattr(serve_engine, "no_grad", contextlib.nullcontext)
        probe = serving_tape(node_artifact, foreign_graph(node_artifact))
        assert sum(probe.ops.values()) > 0

    def test_flags_unguarded_encode_and_embed(self, kg_artifact, monkeypatch):
        monkeypatch.setattr(serve_engine, "no_grad", contextlib.nullcontext)
        probe = serving_tape(kg_artifact)
        assert sum(probe.ops.values()) > 0

    def test_no_grad_block_is_clean(self, node_artifact):
        model, graph = node_artifact.instantiate()
        with contract_probe() as probe:
            with no_grad():
                model.forward(graph.features, GraphCache(graph))
        assert sum(probe.ops.values()) == 0

    def test_outside_serve_is_out_of_scope(self, node_artifact):
        # Training records a tape the probe counts, so its zero on the
        # serve path is not blindness.
        model, graph = node_artifact.instantiate()
        with contract_probe() as probe:
            ops.sum(model.forward(graph.features, GraphCache(graph))).backward()
        assert sum(probe.ops.values()) > 0
        assert probe.backward_calls > 0


def _settle_outside_stage(self, batch, results=None, error=None):
    """The seeded defect: resolve and fail with no ``resolve`` stage."""
    now = self._clock()
    for index, pending in enumerate(batch):
        if error is None:
            pending._resolve(results[index], now)
            pending.trace.finish(status="ok")
        else:
            pending._fail(error, now)
            pending.trace.finish(status="error", error=type(error).__name__)


def _settle_beside_empty_stage(self, batch, results=None, error=None):
    """The seeded defect: a ``resolve`` stage opens, but only after the
    request was resolved or failed outside it."""
    now = self._clock()
    for index, pending in enumerate(batch):
        if error is None:
            pending._resolve(results[index], now)
        else:
            pending._fail(error, now)
        with pending.trace.stage("resolve"):
            pass
        pending.trace.finish(status="ok" if error is None else "error")


def _serve_mixed(artifact) -> list[str]:
    """Tree problems of a memo, a forward and a failing forward request."""
    foreign = foreign_graph(artifact)
    requests = [
        (np.array([0, 1]), None),
        (np.array([0, 1]), foreign),
        (np.array([10 ** 9]), foreign),
    ]
    return serve_traced(InferenceEngine.from_artifact(artifact), requests)


class TestUntracedServePath:
    """Runtime replacement: the span-tree checks of
    ``tests/serve/test_tracing.py``; every request's tree must end in
    its ``resolve`` stage."""

    def test_flags_unguarded_resolve_and_fail(self, node_artifact, monkeypatch):
        monkeypatch.setattr(ServeServer, "_settle", _settle_outside_stage)
        problems = _serve_mixed(node_artifact)
        # Each request's tree lacks its resolve stage.
        assert sum("stages" in p for p in problems) == 3, problems

    def test_stage_block_is_clean(self, node_artifact):
        assert _serve_mixed(node_artifact) == []

    def test_guard_must_lexically_contain_the_call(self, node_artifact, monkeypatch):
        monkeypatch.setattr(ServeServer, "_settle", _settle_beside_empty_stage)
        problems = _serve_mixed(node_artifact)
        assert len(problems) == 3, problems
        assert all("resolved outside its resolve stage" in p for p in problems)


class TestSuppression:
    def test_inline_disable_moves_finding_to_suppressed(self):
        result = run(
            """
            import numpy as np
            np.random.seed(0)  # lint: disable=global-rng -- legacy fixture
            """
        )
        assert result.findings == []
        assert [f.rule_id for f in result.suppressed] == ["global-rng"]

    def test_disable_other_rule_does_not_suppress(self):
        result = run(
            """
            import numpy as np
            np.random.seed(0)  # lint: disable=bare-except
            """
        )
        assert rule_ids(result) == ["global-rng"]

    def test_disable_all_and_comma_list(self):
        result = run(
            """
            import torch  # lint: disable=all
            import jax  # lint: disable=forbidden-import, global-rng
            """
        )
        assert result.findings == []
        assert len(result.suppressed) == 2

    def test_suppression_only_applies_to_its_line(self):
        result = run(
            """
            import torch  # lint: disable=forbidden-import
            import jax
            """
        )
        assert rule_ids(result) == ["forbidden-import"]
        assert result.findings[0].line == 3


class TestPackageScope:
    """Path-scoped rules see the package wherever the checkout lives,
    a checkout directory named ``repro`` included."""

    def test_checkout_named_repro_is_not_the_package(self):
        assert package_path("/x/repro/tests/core/t.py") is None
        assert package_path("/x/repro/examples/quickstart.py") is None

    def test_package_paths_keep_their_scope(self):
        assert package_path("/x/repro/src/repro/train/trainer.py") == (
            "train", "trainer.py",
        )
        assert package_path("site-packages/repro/obs/spans.py") == (
            "obs", "spans.py",
        )

    def test_scoped_rules_skip_checkout_files(self):
        source = "import time\nprint(time.perf_counter())\n"

        def ids_at(path):
            return sorted(rule_ids(analyze_source(source, path, default_rules())))

        assert ids_at("/x/repro/tests/core/t.py") == []
        assert ids_at("/x/repro/examples/quickstart.py") == []
        assert ids_at("/x/repro/src/repro/train/trainer.py") == [
            "adhoc-timing", "naked-print",
        ]


class TestEngineAndReporters:
    def test_syntax_error_is_reported_not_raised(self):
        result = run("def broken(:\n")
        assert rule_ids(result) == ["syntax-error"]
        assert result.error_count == 1

    def test_render_text_lists_findings_and_summary(self):
        result = run("import torch\n")
        text = render_text(result)
        assert "snippet.py:1:0: error [forbidden-import]" in text
        assert "1 error(s)" in text

    def test_render_json_round_trips(self):
        result = run("import torch  # lint: disable=forbidden-import\n")
        payload = json.loads(render_json(result))
        assert payload["files"] == 1
        assert payload["errors"] == 0
        assert payload["findings"] == []
        assert payload["suppressed"][0]["rule"] == "forbidden-import"
