"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the traced run's wrappers come off again, that the metric
names the benchmark prints are exactly those of ``BENCHMARK.json``,
and that the serve-mixed request schedule is a pure function of the
seed.
"""

import inspect
import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
from spans import MARK, Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def repro_bindings() -> dict:
    """Every attribute of every loaded repro module and of its classes."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            seen[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, raw in list(vars(value).items()):
                    seen[(name, attr, member)] = raw
    return seen


def is_wrapped(value) -> bool:
    inner = getattr(value, "__func__", value)
    return bool(getattr(inner, MARK, False))


class WrappersAreRemoved(unittest.TestCase):
    def test_instrument_restores_every_binding(self):
        from repro.autograd import kernels, tensor
        from repro.core.search import SaneSearcher, SearchConfig
        from repro.core.search_space import SearchSpace
        from repro.graph import datasets

        with layers.instrument(Recorder()):
            pass  # import everything instrument touches before the snapshot
        before = repro_bindings()
        recorder = Recorder()
        with layers.instrument(recorder):
            self.assertTrue(is_wrapped(datasets.cora_like))
            graph = datasets.cora_like(seed=0, scale=0.15)
            searcher = SaneSearcher(
                SearchSpace(num_layers=2), graph, SearchConfig(hidden_dim=8), seed=0
            )
            candidate = searcher.supernet.node_candidates[0][0]
            self.assertIn("forward", vars(candidate))
        after = repro_bindings()

        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])
        self.assertEqual([k for k, v in after.items() if is_wrapped(v)], [])
        self.assertNotIn("forward", vars(candidate))
        self.assertIsNone(tensor.get_tape_hook())
        self.assertIsNone(kernels.get_kernel_counters())
        self.assertIn("graph.build", {span[0] for span in recorder.spans})


class MetricNamesMatchTheSpec(unittest.TestCase):
    def test_spec_shape(self):
        self.assertEqual(
            set(SPEC),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(NAME.match(n) for n in names))
        self.assertIn(
            {"name": "setup_s", "unit": "s", "better": "lower",
             "bound": max(m["bound"] for m in SPEC["end_to_end"])},
            SPEC["end_to_end"],
        )
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"]))
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), run.WORKLOADS)

    def test_end_to_end_names(self):
        fake = {"peak_rss_mb": 1.0, "ops_per_s": 1.0, "op_p50_ms": 1.0}
        printed = run.end_to_end_metrics([1.0, 2.0], fake)
        self.assertEqual(set(printed), {m["name"] for m in SPEC["end_to_end"]})

    def test_per_layer_names(self):
        printed = layers.layer_metrics([], {}, {}, 1, {})
        self.assertEqual(set(printed), {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(set(layers.TARGETS), set(printed))


class ScheduleIsSeeded(unittest.TestCase):
    ARGS = dict(rate=150.0, duration_s=5.0, pinned_share=0.7,
                foreign_sizes=[210] * 12, pinned_nodes=112)

    def test_open_loop_repeats_for_a_seed(self):
        first = loadgen.open_loop(7, **self.ARGS)
        self.assertEqual(first, loadgen.open_loop(7, **self.ARGS))
        self.assertNotEqual(first, loadgen.open_loop(8, **self.ARGS))
        self.assertTrue(all(a.due_s <= b.due_s for a, b in zip(first, first[1:])))
        self.assertTrue({"pinned", "foreign"} <= {r.kind for r in first})

    def test_closed_loop_repeats_for_a_seed(self):
        args = dict(self.ARGS)
        del args["rate"], args["duration_s"]
        first = loadgen.closed_loop(7, 500, **args)
        self.assertEqual(first, loadgen.closed_loop(7, 500, **args))
        self.assertNotEqual(first, loadgen.closed_loop(8, 500, **args))
        foreign = {r.graph for r in first if r.kind == "foreign"}
        self.assertGreater(len(foreign), 8)  # more graphs than PlanCache slots


if __name__ == "__main__":
    unittest.main()
