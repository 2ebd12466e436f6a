"""Run ledger: provenance manifests for every CLI entry point.

``BENCH_*.json`` files are overwritten in place and the bench gate
compares one point against one baseline — the repo had no memory
*across* runs. The ledger fixes that: every CLI command but the
read-only ``report`` and ``runs`` (``repro.cli.main`` records it), and
every tracked benchmark, appends one
versioned :class:`RunManifest` to an append-only JSONL store under
``benchmarks/history/`` (override the directory with
``REPRO_HISTORY_DIR``; set ``REPRO_RUN_LEDGER=off`` to disable
recording entirely).

Design constraints, mirroring the rest of :mod:`repro.obs`:

* **deterministic run ids** — :func:`derive_run_id` hashes the
  canonical JSON of ``(command, config digest, env fingerprint,
  seed-derived outputs)`` and nothing else: no wall clock, no RNG, no
  timings. Two bit-identical seeded reruns of the same command get the
  same id, which is exactly what makes the id a *content* address —
  ``seq`` (the append position) disambiguates reruns in the store.
* **injectable clock** — the only wall-time field, ``t_wall``, comes
  from a clock argument defaulting to :func:`time.time`; tests and the
  committed seed history pass a fake.
* **append never crashes a run** — a full disk or read-only checkout
  degrades to a :class:`~repro.obs.sinks.RecordWarning`; the command's
  real work is never sacrificed to bookkeeping.
* **reads tolerate corruption** — a truncated or garbage line (the
  ledger is append-only across processes) is skipped by
  :func:`~repro.obs.sinks.read_records` with a typed
  :class:`~repro.obs.sinks.RecordWarning`, never an exception; so is
  a well-formed line that is not a manifest.
* **no header** — the store is the one headerless record file:
  concurrent appenders cannot agree on who writes a header, so each
  manifest carries ``version`` (:data:`~repro.obs.sinks.RECORD_VERSION`)
  itself.

Lineage: ``repro export`` embeds ``{"run_id": ...}`` provenance into
the artifact payload (hash-covered, schema-compatible), and ``repro
serve`` records a ``lineage`` block pointing back at the producing
run — so ``repro runs show`` on a serve-bench manifest resolves to the
search/export run that trained the model it served.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import time
import warnings
from pathlib import Path
from typing import Callable

from repro.obs.sinks import RECORD_VERSION, RecordWarning, read_records

__all__ = [
    "HISTORY_ENV",
    "DEFAULT_HISTORY_DIR",
    "STORE_NAME",
    "SEED_HISTORY_NAME",
    "RunManifest",
    "RunLedger",
    "canonical_json",
    "config_digest",
    "text_digest",
    "git_revision",
    "env_fingerprint",
    "derive_run_id",
    "build_manifest",
    "record_run",
    "default_history_dir",
]

HISTORY_ENV = "REPRO_HISTORY_DIR"
DEFAULT_HISTORY_DIR = "benchmarks/history"
STORE_NAME = "runs.jsonl"
SEED_HISTORY_NAME = "seed.jsonl"


def canonical_json(value) -> str:
    """Stable serialisation: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_digest(config: dict | None) -> str:
    """16-hex-char digest of a command's configuration dict."""
    return hashlib.sha256(
        canonical_json(config or {}).encode("utf-8")
    ).hexdigest()[:16]


def text_digest(text: str) -> str:
    """Content hash of rendered output (tables, figures, reports)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def git_revision() -> str | None:
    """Current checkout's commit hash, without spawning a subprocess.

    Walks up from this file to find ``.git`` and follows ``HEAD``
    through loose and packed refs. Returns None outside a checkout
    (installed package, exported tarball) — the fingerprint then simply
    omits the revision.
    """
    for parent in Path(__file__).resolve().parents:
        git_dir = parent / ".git"
        if not git_dir.is_dir():
            continue
        try:
            head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
            if not head.startswith("ref:"):
                return head[:12] or None
            ref = head.partition(":")[2].strip()
            loose = git_dir / ref
            if loose.exists():
                return loose.read_text(encoding="utf-8").strip()[:12] or None
            packed = git_dir / "packed-refs"
            if packed.exists():
                for line in packed.read_text(encoding="utf-8").splitlines():
                    if line.endswith(" " + ref):
                        return line.split(" ", 1)[0][:12] or None
        except OSError:
            return None
        return None
    return None


def env_fingerprint(
    scale: str | None = None,
    seed: int | None = None,
    workers: int | None = None,
) -> dict:
    """The environment facts a manifest pins: scale preset, seed,
    worker count, git revision, python version."""
    return {
        "scale": scale,
        "seed": seed,
        "workers": int(workers or 0),
        "git_rev": git_revision(),
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
    }


def derive_run_id(
    command: str, digest: str, env: dict, outputs: dict | None
) -> str:
    """Content-derived id over the deterministic facts of a run.

    Timings, metric values, file paths, and artifact hashes are all
    excluded on purpose: a seeded rerun that produced the same outputs
    IS the same run, however long it took.
    """
    body = canonical_json(
        {
            "command": command,
            "config_digest": digest,
            "env": env,
            "outputs": outputs or {},
        }
    )
    return "r" + hashlib.sha256(body.encode("utf-8")).hexdigest()[:12]


@dataclasses.dataclass
class RunManifest:
    """One ledger entry: what ran, under what, and what came out."""

    run_id: str
    command: str
    config: dict
    config_digest: str
    env: dict
    metrics: dict = dataclasses.field(default_factory=dict)
    outputs: dict = dataclasses.field(default_factory=dict)
    artifacts: list = dataclasses.field(default_factory=list)
    lineage: dict | None = None
    files: list = dataclasses.field(default_factory=list)
    children: list = dataclasses.field(default_factory=list)
    t_wall: float | None = None
    duration_s: float | None = None
    version: int = RECORD_VERSION

    def to_record(self) -> dict:
        record = dataclasses.asdict(self)
        return {k: v for k, v in record.items() if v not in (None, [], {})
                or k in ("run_id", "command", "config", "config_digest",
                         "env", "version")}

    @classmethod
    def from_record(cls, record: dict) -> "RunManifest":
        if not isinstance(record, dict):
            raise ValueError("manifest record must be a JSON object")
        version = record.get("version")
        if version != RECORD_VERSION:
            raise ValueError(
                f"unsupported manifest version {version!r}; this build "
                f"reads version {RECORD_VERSION}"
            )
        if not isinstance(record.get("run_id"), str) or not isinstance(
            record.get("command"), str
        ):
            raise ValueError("manifest record missing run_id/command")
        return cls(
            run_id=record["run_id"],
            command=record["command"],
            config=dict(record.get("config") or {}),
            config_digest=str(record.get("config_digest") or ""),
            env=dict(record.get("env") or {}),
            metrics=dict(record.get("metrics") or {}),
            outputs=dict(record.get("outputs") or {}),
            artifacts=list(record.get("artifacts") or []),
            lineage=record.get("lineage"),
            files=list(record.get("files") or []),
            children=list(record.get("children") or []),
            t_wall=record.get("t_wall"),
            duration_s=record.get("duration_s"),
            version=version,
        )


def _metric_scalars(
    metrics: dict | None, registry=None
) -> dict:
    """Merge explicit metric scalars with a registry's flattened view."""
    merged: dict = {}
    if registry is not None:
        merged.update(registry.scalars())
    for name, value in (metrics or {}).items():
        if value is None:
            continue
        merged[str(name)] = float(value)
    return merged


def build_manifest(
    command: str,
    config: dict | None = None,
    *,
    env: dict | None = None,
    metrics: dict | None = None,
    registry=None,
    outputs: dict | None = None,
    artifacts: list | None = None,
    lineage: dict | None = None,
    files: list | None = None,
    children: list | None = None,
    duration_s: float | None = None,
    clock: Callable[[], float] | None = None,
) -> RunManifest:
    """Assemble a manifest; the id is derived before any wall time.

    ``registry`` (a :class:`~repro.obs.metrics.MetricsRegistry`) is
    flattened via its ``scalars()`` view; explicit ``metrics`` entries
    override on name collisions. ``clock`` stamps ``t_wall`` — inject a
    fake for reproducible fixtures (the committed seed history is
    built this way).
    """
    config = dict(config or {})
    env = dict(env) if env is not None else env_fingerprint()
    digest = config_digest(config)
    run_id = derive_run_id(command, digest, env, outputs)
    timestamp = (clock or time.time)()
    return RunManifest(
        run_id=run_id,
        command=command,
        config=config,
        config_digest=digest,
        env=env,
        metrics=_metric_scalars(metrics, registry),
        outputs=dict(outputs or {}),
        artifacts=list(artifacts or []),
        lineage=dict(lineage) if lineage else None,
        files=[str(f) for f in (files or [])],
        children=list(children or []),
        t_wall=float(timestamp) if timestamp is not None else None,
        duration_s=float(duration_s) if duration_s is not None else None,
    )


def default_history_dir() -> Path:
    """``REPRO_HISTORY_DIR`` or the repo-conventional directory."""
    return Path(os.environ.get(HISTORY_ENV, DEFAULT_HISTORY_DIR))


class RunLedger:
    """Append-only JSONL store of :class:`RunManifest` records.

    ``path`` may point at any JSONL file (the committed seed history,
    a test fixture); by default it is the live store
    ``<history dir>/runs.jsonl``.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = (
            Path(path) if path is not None
            else default_history_dir() / STORE_NAME
        )

    # ------------------------------------------------------------------
    def append(self, manifest: RunManifest) -> bool:
        """Append one manifest; returns False (with a warning) on I/O
        failure instead of crashing the command that did the real work."""
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(canonical_json(manifest.to_record()) + "\n")
        except OSError as exc:
            warnings.warn(
                f"run ledger append to {self.path} failed: {exc}",
                RecordWarning,
                stacklevel=2,
            )
            return False
        return True

    def read(self) -> list[RunManifest]:
        """Every valid manifest, in append order; bad lines are skipped
        with a :class:`~repro.obs.sinks.RecordWarning` (corruption must
        never take the whole history down with it)."""
        if not self.path.exists():
            return []
        try:
            records = read_records(self.path)
        except OSError as exc:
            warnings.warn(
                f"run ledger read from {self.path} failed: {exc}",
                RecordWarning,
                stacklevel=2,
            )
            return []
        manifests: list[RunManifest] = []
        for record in records:
            try:
                manifests.append(RunManifest.from_record(record))
            except (ValueError, TypeError) as exc:
                warnings.warn(
                    f"{self.path}: skipping manifest {record.get('run_id')!r} "
                    f"({exc})",
                    RecordWarning,
                    stacklevel=2,
                )
        return manifests

    def resolve(
        self, ref: str, manifests: list[RunManifest] | None = None
    ) -> tuple[RunManifest, int] | None:
        """Find a manifest by reference; returns ``(manifest, seq)``.

        ``ref`` is a run-id prefix (``r3fa9``; the latest append wins,
        since reruns share content-derived ids) or an integer position:
        ``0`` is the first entry, ``-1`` the most recent.
        """
        manifests = self.read() if manifests is None else manifests
        try:
            index = int(ref)
        except ValueError:
            for seq in range(len(manifests) - 1, -1, -1):
                if manifests[seq].run_id.startswith(ref):
                    return manifests[seq], seq
            return None
        if -len(manifests) <= index < len(manifests):
            seq = index % len(manifests)
            return manifests[seq], seq
        return None

    def gc(self, keep: int) -> int:
        """Rewrite the store with only the last ``keep`` valid entries;
        returns how many entries (including corrupt lines) were dropped."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        manifests = self.read()
        kept = manifests[-keep:] if keep > 0 else []
        try:
            raw_lines = sum(
                1 for line in
                self.path.read_text(encoding="utf-8").splitlines()
                if line.strip()
            ) if self.path.exists() else 0
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(
                "".join(canonical_json(m.to_record()) + "\n" for m in kept),
                encoding="utf-8",
            )
        except OSError as exc:
            warnings.warn(
                f"run ledger gc on {self.path} failed: {exc}",
                RecordWarning,
                stacklevel=2,
            )
            return 0
        return max(0, raw_lines - len(kept))


def record_run(
    command: str | None = None,
    config: dict | None = None,
    *,
    manifest: RunManifest | None = None,
    ledger: RunLedger | None = None,
    **build_kwargs,
) -> RunManifest | None:
    """Build (unless prebuilt) and append one manifest to the ledger.

    ``repro.cli.main`` calls it once per command, after the handler
    returns, with the manifest it built from the handler's fields; the
    benchmarks call it per tracked bench. Pass ``manifest=`` when the
    manifest is already built — ``repro export`` derives the id first
    so it can embed provenance into the artifact, then hands over the
    manifest with the final artifact hash attached. Returns the
    manifest, or None when recording is disabled
    (``REPRO_RUN_LEDGER=off``).
    """
    if os.environ.get("REPRO_RUN_LEDGER", "").lower() in ("off", "0", "false"):
        return None
    if manifest is None:
        if command is None:
            raise ValueError("record_run needs a command or a prebuilt manifest")
        manifest = build_manifest(command, config, **build_kwargs)
    (ledger or RunLedger()).append(manifest)
    return manifest
