"""Repo benchmark: SANE search, pooled trial-and-error NAS, mixed serving.

    python3 perfbench/run.py --workload {search-pubmed,trials-cora,serve-mixed}
        --seed N --seconds S --trace {0,1}

Runs from the root of a checkout. Every phase runs in a fresh
``python3 perfbench/workloads.py`` process: the serve artifact export
(untimed), set-up probes (``setup_s`` is the median over them and the
measured run), the untraced run and, with ``--trace 1``, the traced
run. Prints a readable report, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` — the ``end_to_end``
metrics of ``BENCHMARK.json`` untraced, its ``per_layer`` metrics
traced. Outputs land in ``perfbench/.out/``. The benchmark sets no BLAS
or OpenMP thread variable for its own processes; trials-cora sets
``OPENBLAS_NUM_THREADS=1`` for its pool workers and records that as
``worker_blas_threads`` in the environment.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
WORKLOADS = ("search-pubmed", "trials-cora", "serve-mixed")
SETUP_PROBES = 4  # extra fresh processes timed to their first timed operation
TIME_LIMIT_S = 170.0  # the whole command, all phases included


class BenchError(RuntimeError):
    pass


def phase(name, args, deadline, tag="", artifact=None):
    """Run one workloads.py phase in a fresh process; return its result."""
    out = OUT / f"{name}{tag}-{args.workload}-{args.seed}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "workloads.py"), "--phase", name,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out", str(out),
    ]
    if artifact is not None:
        command += ["--artifact", artifact]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {name} phase")
    # A session of its own, so a timeout also stops the pool workers.
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    try:
        output, __ = child.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{name} phase exceeded the time limit") from None
    if child.returncode != 0 or not out.is_file():
        sys.stderr.write(output)
        raise BenchError(f"{name} phase failed with exit code {child.returncode}")
    return json.loads(out.read_text())


def end_to_end_metrics(setups: list[float], run: dict) -> dict[str, float]:
    """The ``end_to_end`` metrics: set-up median plus the untraced run's."""
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "ops_per_s": run["ops_per_s"],
        "op_p50_ms": run["op_p50_ms"],
    }


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {ROOT / 'src'}; run from a checkout")
    OUT.mkdir(exist_ok=True)

    artifact = None
    if args.workload == "serve-mixed":
        artifact = phase("export", args, deadline)["artifact"]
    setups = [phase("setup", args, deadline, f"{i}", artifact)["setup_s"]
              for i in range(SETUP_PROBES)]
    run = phase("run", args, deadline, artifact=artifact)
    setups.append(run["setup_s"])
    end_to_end = end_to_end_metrics(setups, run)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in run["environment"].items()))
    print("end-to-end (untraced):")
    for metric in spec["end_to_end"]:
        print(f"  {metric['name']:<14} {fmt(end_to_end[metric['name']]):>12} {metric['unit']}")
    print(f"  setup samples  {', '.join(fmt(s) for s in setups)} s")
    for name, (value, unit) in run["report"].items():
        print(f"  {name:<22} {fmt(value):>12} {unit}")
    results = [run]
    metrics = {m["name"]: (end_to_end[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    if args.trace:
        traced = phase("trace", args, deadline, artifact=artifact)
        results.append(traced)
        layer = traced["layers"]
        layer["obs.overhead"] = traced["op_p50_ms"] / run["op_p50_ms"] - 1.0
        sys.path.insert(0, str(HERE))
        from layers import TARGETS

        print(f"per-layer (traced; spans in {traced['trace_file']}):")
        for metric in spec["per_layer"]:
            target, workloads = TARGETS[metric["name"]]
            print(f"  {metric['name']:<34} {fmt(layer[metric['name']]):>12} "
                  f"{metric['unit']:<6} -> {target} [{', '.join(workloads)}]")
        print("self time per layer (traced, ms):")
        for name, value in sorted(traced["layer_self_ms"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:<16} {value:12.3f}")
        if "repro.parallel" in traced["layer_self_ms"]:
            print("  (pool workers run concurrently with the parent, so their self"
                  " time overlaps the parent's parallel.run wait)")
        print(f"coverage: {fmt(layer['trace.coverage'])} of the timed {traced['entry']} "
              f"calls sits in named sub-steps; core.coverage {fmt(layer['core.coverage'])}")
        print(f"tracing overhead on op_p50_ms: {fmt(layer['obs.overhead'])}")
        metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0
    for r in results:
        for note in r["notes"]:
            print(f"  note: {note}")
    print(f"attempted={attempted} failed={failed} correct={correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, KeyError, ValueError) as error:
        sys.stderr.write(f"perfbench: {error}\n")
        sys.exit(2)
