#!/usr/bin/env bash
# One-command CI: lint, tier-1 tests (autograd contracts included),
# smoke-scale suite, repo-benchmark smoke, benches, bench gate.
#
#   scripts/ci.sh            # full pipeline (writes fresh benches to a tmp dir)
#   SKIP_BENCH=1 scripts/ci.sh   # no bench regeneration (lint, tests, perfbench smoke)
#
# The bench stage regenerates BENCH_*.json at smoke scale — the same
# scale the committed baselines in benchmarks/baselines/ were recorded
# at — and gates the fresh numbers with `repro report bench`.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src

# Every CLI entry point below appends a provenance manifest to the
# (gitignored) live run ledger; count the store up front so the ledger
# stage at the bottom can assert this CI run actually left a trail.
LEDGER=benchmarks/history/runs.jsonl
LEDGER_BEFORE=0
[[ -f "$LEDGER" ]] && LEDGER_BEFORE="$(wc -l < "$LEDGER")"

echo "==> repro lint"
python -m repro lint

echo "==> tier-1 tests (default scale)"
python -m pytest -x -q

echo "==> test suite at smoke scale"
REPRO_SCALE=smoke python -m pytest -x -q

# Parallel orchestrator smoke through the CLI: the same sweep runs
# in-process and on two spawned workers, and the digest line — a
# SHA-256 over every seed-derived output — must match exactly. This is
# the bit-identical-merge contract (DESIGN.md section 12) checked end
# to end, CLI included, on every CI run.
#
# Each of the four sweeps below takes 0.9-1.8 s on a 2-core box. The
# bound leaves room for a cold bytecode cache and a loaded machine, and
# turns a wedged pool into a failed stage instead of a stalled CI run.
SWEEP_TIMEOUT_S=20
sweep() {
    REPRO_SCALE=smoke timeout "$SWEEP_TIMEOUT_S" python -m repro sweep cora "$@" || {
        echo "repro sweep cora $* failed (exit $?; 124 means it ran past ${SWEEP_TIMEOUT_S}s)" >&2
        exit 1
    }
}
# The digests are also pinned to known values: a refactor that moves a
# seeded result fails here, and a change that means to move one (a new
# search default, say) records the new digest in this file.
SANE_RANDOM_DIGEST=7edfa4618edaf4679212b096cb9abd23cff14ae546f9c773f0979f3ec7d3089e
GRAPHNAS_BATCH3_DIGEST=a6d22af3493db2a1081cd1ff258f4de255e1f159c5ff6166ef3011ec03a42d7d
check_sweep() {
    local pinned="$1" seq par
    shift
    seq="$(sweep "$@" --workers 0)"
    par="$(sweep "$@" --workers 2)"
    echo "$par"
    seq="$(grep '^digest:' <<<"$seq")"
    par="$(grep '^digest:' <<<"$par")"
    [[ "$seq" == "$par" ]] || {
        echo "sweep $* digest mismatch: sequential=$seq workers-2=$par" >&2
        exit 1
    }
    [[ "$seq" == "digest: $pinned" ]] || {
        echo "sweep $* $seq differs from the pinned digest $pinned" >&2
        exit 1
    }
}
echo "==> parallel sweep smoke (repro sweep --workers 2)"
check_sweep "$SANE_RANDOM_DIGEST" --methods sane random
# A batched GraphNAS round holds 3 candidates for 2 workers, so the
# evaluator hands the pool its jobs longest-first; the digest must not
# notice.
echo "==> parallel sweep smoke (graphnas --rollout-batch 3 --workers 2)"
check_sweep "$GRAPHNAS_BATCH3_DIGEST" --methods graphnas --rollout-batch 3

# The text views over live records. tests/obs/test_pinned_views.py
# renders committed fixtures; this stage renders what the current code
# writes (a smoke profile with events and tape memory) through report
# run, report diff (the trace against itself) and report memory, so a
# renderer that breaks on live records fails here even while those
# fixtures are stale. The trace must also hold the supernet's (edge,
# layer, op) scopes as "op" spans, which timing, tape memory and the
# health monitor all attribute to.
echo "==> repro profile + report run/diff/memory over a live trace"
PROFILE_DIR="$(mktemp -d)"
PROFILE_TRACE="$PROFILE_DIR/trace.jsonl"
REPRO_SCALE=smoke python -m repro profile search --dataset cora \
    --events --memory --trace "$PROFILE_TRACE" > "$PROFILE_DIR/profile.txt"
python -m repro report run "$PROFILE_TRACE" > "$PROFILE_DIR/run.txt"
python -m repro report diff "$PROFILE_TRACE" "$PROFILE_TRACE" > "$PROFILE_DIR/diff.txt"
python -m repro report memory "$PROFILE_TRACE" > "$PROFILE_DIR/memory.txt"
grep -q '^entropy collapse:' "$PROFILE_DIR/run.txt"
grep -q '^final genotype: identical' "$PROFILE_DIR/diff.txt"
grep -q '^-- Peak tape memory per epoch' "$PROFILE_DIR/memory.txt"
grep -q '"kind": "op"' "$PROFILE_TRACE"
grep -q '/op ' "$PROFILE_DIR/profile.txt"
head -n 3 "$PROFILE_DIR/run.txt"
rm -rf "$PROFILE_DIR"

# `search --check-numerics` is the one CLI path that installs the tape
# health monitor; a healthy smoke search must finish under `raise` and
# report the entries it checked.
echo "==> repro search --check-numerics raise"
HEALTH_OUT="$(REPRO_SCALE=smoke python -m repro search cora --check-numerics raise)"
grep '^tape health:' <<<"$HEALTH_OUT"
grep -q '^tape health: .* 0 anomalies' <<<"$HEALTH_OUT"

# The repo benchmark (perfbench/, declared by BENCHMARK.json) hooks
# library internals in its traced runs; run its self-tests and one
# short traced serve-mixed run so a refactor that breaks a hook fails
# here rather than at the next benchmark run.
echo "==> perfbench self-tests"
python3 perfbench/selftest.py
echo "==> perfbench traced serve-mixed smoke"
PERFBENCH_OUT="$(python3 perfbench/run.py --workload serve-mixed --seed 0 --seconds 3 --trace 1)"
python - "$(tail -n 1 <<<"$PERFBENCH_OUT")" <<'PYEOF'
import json
import sys
result = json.loads(sys.argv[1])
assert result["correct"] is True, f"perfbench serve-mixed failed: {result['failed']} of {result['attempted']}"
print(f"perfbench serve-mixed ok: {result['attempted']} responses checked")
PYEOF
# search-pubmed runs the supernet inline; its traced run times every
# candidate op per layer through hooks on repro.core and counts the
# segment kernels, so a kernel or hook change on the supernet path
# fails here (about 8 s) rather than at the next benchmark run.
echo "==> perfbench traced search-pubmed smoke"
PERFBENCH_OUT="$(python3 perfbench/run.py --workload search-pubmed --seed 0 --seconds 3 --trace 1)"
python - "$(tail -n 1 <<<"$PERFBENCH_OUT")" <<'PYEOF'
import json
import sys
result = json.loads(sys.argv[1])
assert result["correct"] is True, f"perfbench search-pubmed failed: {result['failed']} of {result['attempted']}"
metrics = result["metrics"]
for name in ("core.layer0.sage-max.fwd_ms", "kernel.scatter_max.calls"):
    value = metrics[name]["value"]
    assert value > 0, f"perfbench search-pubmed recorded no {name} ({value})"
print(f"perfbench search-pubmed ok: {result['attempted']} epochs, "
      f"sage-max fwd {metrics['core.layer0.sage-max.fwd_ms']['value']:.2f} ms, "
      f"{metrics['kernel.scatter_max.calls']['value']:.0f} scatter_max calls")
PYEOF
# trials-cora trains candidates on spawned pool workers; its traced run
# hooks repro.parallel.worker.worker_main inside each worker, so a
# nonzero worker-side train.fit_ms proves the hook survived.
echo "==> perfbench traced trials-cora smoke"
PERFBENCH_OUT="$(python3 perfbench/run.py --workload trials-cora --seed 0 --seconds 3 --trace 1)"
python - "$(tail -n 1 <<<"$PERFBENCH_OUT")" <<'PYEOF'
import json
import sys
result = json.loads(sys.argv[1])
assert result["correct"] is True, f"perfbench trials-cora failed: {result['failed']} of {result['attempted']}"
fit = result["metrics"]["train.fit_ms"]["value"]
assert fit > 0, f"perfbench trials-cora recorded no worker-side train.fit_ms ({fit})"
print(f"perfbench trials-cora ok: {result['attempted']} candidates, train.fit_ms={fit:.1f}")
PYEOF

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
    BENCH_DIR="$(mktemp -d)"
    trap 'rm -rf "$BENCH_DIR"' EXIT
    echo "==> smoke-scale benchmarks -> $BENCH_DIR"
    REPRO_SCALE=smoke REPRO_BENCH_DIR="$BENCH_DIR" \
        python -m pytest benchmarks/ --benchmark-only --benchmark-disable-gc -q

    echo "==> bench regression gate"
    python -m repro report bench --bench-dir "$BENCH_DIR"

    # End-to-end serving path through the CLI (not the pytest bench):
    # export an artifact, serve it with the load generator, and gate
    # the emitted payload against its committed smoke baseline. The
    # bench is named serve_cli because it serves a different model (a
    # GAT baseline — trains fast, still exercises both scatter kernel
    # families) than the pytest bench's fixed genotype, so the two
    # payloads gate against separate baselines. The serve_cli baseline
    # lives in baselines/cli/ so the directory-scan gate above (which
    # treats a committed baseline with no fresh payload as a
    # regression) only pairs against pytest-emitted benches. Own temp
    # dir so the pytest bench output above is not clobbered.
    SERVE_DIR="$(mktemp -d)"
    trap 'rm -rf "$BENCH_DIR" "$SERVE_DIR"' EXIT
    echo "==> serve smoke (repro export + repro serve --bench) -> $SERVE_DIR"
    REPRO_SCALE=smoke python -m repro export baseline gat cora \
        --out "$SERVE_DIR/artifact.json"
    # 256 requests/level so p99 is the 3rd-largest sample instead of
    # the max; the looser time tolerance reflects that sub-millisecond
    # smoke latencies still jitter far more than long-running benches.
    # The run also exercises the live-telemetry surfaces end to end:
    # a request trace, an ephemeral /metrics scrape endpoint (port
    # printed on stdout, server lingers until our scrape lands), and
    # the offline `report serve` dashboard over the recorded trace.
    REPRO_SCALE=smoke REPRO_BENCH_DIR="$SERVE_DIR" \
        python -u -m repro serve "$SERVE_DIR/artifact.json" --bench \
        --bench-name serve_cli --requests 256 \
        --trace "$SERVE_DIR/serve-trace.jsonl" \
        --export-port 0 --export-linger 60 \
        > "$SERVE_DIR/serve-stdout.txt" &
    SERVE_PID=$!
    # Scrape only after the sweep is done ("bench:" printed): the
    # per-stage gauges are published by finalize(), and --export-linger
    # keeps the endpoint up until our scrape lands.
    for _ in $(seq 1 300); do
        grep -q '^bench:' "$SERVE_DIR/serve-stdout.txt" 2>/dev/null && break
        kill -0 "$SERVE_PID" 2>/dev/null || break
        sleep 1
    done
    EXPORT_URL="$(sed -n 's/^exporter:  //p' "$SERVE_DIR/serve-stdout.txt")"
    [[ -n "$EXPORT_URL" ]] || { echo "serve --export-port printed no exporter URL" >&2; cat "$SERVE_DIR/serve-stdout.txt"; exit 1; }
    echo "==> scraping $EXPORT_URL"
    curl --silent --show-error --retry 10 --retry-delay 1 \
        --retry-connrefused "$EXPORT_URL" > "$SERVE_DIR/exposition.txt"
    wait "$SERVE_PID"
    cat "$SERVE_DIR/serve-stdout.txt"
    # The scrape must parse as text exposition and carry the per-stage
    # gauges plus the SLO counters.
    python - "$SERVE_DIR/exposition.txt" <<'PYEOF'
import sys
from repro.obs import parse_exposition
samples = parse_exposition(open(sys.argv[1], encoding="utf-8").read())
required = [
    "serve_stage_queue_wait_p99_s", "serve_stage_forward_p99_s",
    "serve_stage_resolve_p50_s", "serve_requests", "serve_errors",
    "serve_deadline_exceeded",
]
missing = [name for name in required if name not in samples]
assert not missing, f"scrape missing {missing}; got {sorted(samples)}"
print(f"exposition ok: {len(samples)} samples")
PYEOF
    # Through `head` under pipefail: a reader that closes early must end
    # the render quietly with exit 0, not fail on a broken pipe.
    echo "==> repro report serve"
    python -m repro report serve "$SERVE_DIR/serve-trace.jsonl" --top 3 | head -n 1
    python -m repro report bench --baselines benchmarks/baselines/cli \
        --time-tolerance 1.5 "$SERVE_DIR/BENCH_serve_cli.json"

    # Publish the fresh payloads to the repo root so the bench
    # trajectory (wall-clock + kernel byte counters) is tracked across
    # PRs, not just inside the throwaway tmp dir.
    echo "==> publishing fresh BENCH_*.json to repo root"
    cp "$BENCH_DIR"/BENCH_*.json .
fi

# Run-ledger stage: the pipeline above must have left provenance
# manifests behind, and the committed seed history must still pass the
# cross-run trend gate (search epoch time, serve tail latency, kernel
# bandwidth). The gate runs even under SKIP_BENCH=1 — it reads the
# committed baseline, not this run's output.
echo "==> run ledger"
LEDGER_AFTER=0
[[ -f "$LEDGER" ]] && LEDGER_AFTER="$(wc -l < "$LEDGER")"
LEDGER_NEW=$((LEDGER_AFTER - LEDGER_BEFORE))
echo "ledger: $LEDGER_NEW new manifest(s) in $LEDGER"
# lint + four sweeps under SKIP_BENCH=1; the bench/export/serve stages
# push the full pipeline well past five.
LEDGER_MIN=5
[[ "${SKIP_BENCH:-0}" == "1" ]] && LEDGER_MIN=3
if [[ "$LEDGER_NEW" -lt "$LEDGER_MIN" ]]; then
    echo "run ledger gained only $LEDGER_NEW manifest(s); expected >= $LEDGER_MIN" >&2
    exit 1
fi
# The new tail must cover the entry points this script exercised. Read
# it through the ledger's own reader, which skips a corrupt line with a
# warning instead of crashing.
python - "$LEDGER" "$LEDGER_NEW" <<'PYEOF'
import os
import sys

from repro.obs import RunLedger

tail = RunLedger(sys.argv[1]).read()[-int(sys.argv[2]):]
commands = {manifest.command for manifest in tail}
# The live-profile and health stages run under either SKIP_BENCH setting.
expected = {"lint", "sweep", "search", "profile"}
if os.environ.get("SKIP_BENCH", "0") != "1":
    expected |= {"export", "serve", "bench"}
missing = expected - commands
assert not missing, f"ledger tail missing commands {sorted(missing)}; got {sorted(commands)}"
print(f"ledger commands ok: {sorted(commands)}")
PYEOF
python -m repro runs list --last 12
# Through `head` under pipefail, like `report serve` above: a reader
# that closes early must end the listing quietly with exit 0.
python -m repro runs list --last 3 --history benchmarks/history/seed.jsonl | head -n 1

echo "==> run trend gate (committed seed history)"
python -m repro runs trend \
    search.epoch_ms serve.latency.p99_s kernel.scatter_sum.effective_gbps \
    --gate --history benchmarks/history/seed.jsonl

echo "CI OK"
