"""Versioned trained-model artifacts (``repro export``).

An artifact is one JSON file bundling everything needed to serve a
trained model without re-running search or training:

* the searched **genotype** (when the model came from SANE),
* the **model config** — constructor arguments of the discrete model,
* a **dataset spec** — the seeded synthetic-dataset recipe the model
  was trained on (datasets here are deterministic generators, so the
  recipe *is* the data),
* **feature metadata** for load-time validation,
* **training metadata** (scores at the best-validation epoch),
* the trained **weights** (float64, base64 of the raw little-endian
  bytes — bit-exact round-trip),
* a **format version** and a **content hash** (sha256 over the
  canonical JSON of everything else; verified on load),
* optional **provenance** — the run-ledger id of the ``repro export``
  run that produced the bundle, so serving can resolve its lineage
  back to the producing search (absent from pre-ledger artifacts;
  hash-covered when present).

Unknown versions and hash mismatches raise :class:`ArtifactError`
instead of producing a silently wrong model.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.derive import architecture_to_model
from repro.core.search_space import Architecture
from repro.experiments.config import Scale
from repro.experiments.runners import run_sane, task_settings
from repro.gnn.models import GNNModel, build_baseline
from repro.graph.data import Graph, MultiGraphDataset
from repro.graph.datasets import load_dataset
from repro.kg.align import AlignConfig, GNNAligner, train_aligner
from repro.kg.data import generate_alignment_dataset
from repro.train.trainer import fit

__all__ = [
    "ARTIFACT_VERSION",
    "TASKS",
    "ArtifactError",
    "ModelArtifact",
    "save_artifact",
    "load_artifact",
    "export_architecture",
    "export_search",
    "export_baseline",
    "export_alignment",
]

ARTIFACT_VERSION = 1
TASKS = ("node_classification", "kg_alignment")


class ArtifactError(ValueError):
    """A bundle that cannot be trusted: bad version, hash, or schema."""


def _encode_array(value: np.ndarray) -> dict:
    value = np.ascontiguousarray(value, dtype=np.float64)
    return {
        "shape": list(value.shape),
        "data": base64.b64encode(value.tobytes()).decode("ascii"),
    }


def _decode_array(record: dict) -> np.ndarray:
    raw = base64.b64decode(record["data"].encode("ascii"))
    return np.frombuffer(raw, dtype=np.float64).reshape(record["shape"]).copy()


def _content_hash(body: dict) -> str:
    canonical = json.dumps(
        {k: v for k, v in body.items() if k != "content_hash"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class ModelArtifact:
    """One exported trained model, serializable to a single JSON file."""

    task: str
    model_config: dict
    dataset: dict
    features: dict
    weights: dict[str, np.ndarray]
    genotype: dict | None = None
    training: dict = dataclasses.field(default_factory=dict)
    # Run-ledger lineage: {"run_id": ..., "command": ..., ...} of the
    # producing `repro export` run. Optional and schema-compatible —
    # the key is simply absent from pre-ledger payloads, and when
    # present it is covered by the content hash like everything else.
    provenance: dict | None = None
    version: int = ARTIFACT_VERSION

    def __post_init__(self):
        if self.task not in TASKS:
            raise ArtifactError(
                f"unknown artifact task {self.task!r}; expected one of {TASKS}"
            )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-ready dict with the content hash filled in."""
        body = {
            "version": self.version,
            "task": self.task,
            "genotype": self.genotype,
            "model_config": self.model_config,
            "dataset": self.dataset,
            "features": self.features,
            "training": self.training,
            "weights": {
                name: _encode_array(value)
                for name, value in sorted(self.weights.items())
            },
        }
        if self.provenance is not None:
            body["provenance"] = self.provenance
        body["content_hash"] = _content_hash(body)
        return body

    @classmethod
    def from_payload(cls, payload: dict) -> "ModelArtifact":
        version = payload.get("version")
        if version != ARTIFACT_VERSION:
            raise ArtifactError(
                f"unsupported artifact version {version!r}; this build "
                f"reads version {ARTIFACT_VERSION}"
            )
        expected = payload.get("content_hash")
        actual = _content_hash(payload)
        if expected != actual:
            raise ArtifactError(
                f"artifact content hash mismatch: recorded {expected!r}, "
                f"recomputed {actual!r} — the file was corrupted or edited"
            )
        try:
            return cls(
                task=payload["task"],
                genotype=payload.get("genotype"),
                model_config=dict(payload["model_config"]),
                dataset=dict(payload["dataset"]),
                features=dict(payload["features"]),
                training=dict(payload.get("training") or {}),
                weights={
                    name: _decode_array(record)
                    for name, record in payload["weights"].items()
                },
                provenance=payload.get("provenance"),
                version=version,
            )
        except KeyError as exc:
            raise ArtifactError(f"artifact missing field {exc}") from None

    # ------------------------------------------------------------------
    # instantiation
    # ------------------------------------------------------------------
    def architecture(self) -> Architecture | None:
        """The searched genotype as an :class:`Architecture`, if any.

        An alignment genotype names only the encoder's aggregators, so
        it has no :class:`Architecture`; callers print it raw.
        """
        if self.genotype is None or self.task == "kg_alignment":
            return None
        return Architecture(
            node_aggregators=tuple(self.genotype["node_aggregators"]),
            skip_connections=tuple(self.genotype["skip_connections"]),
            layer_aggregator=self.genotype["layer_aggregator"],
        )

    def instantiate(self):
        """Rebuild ``(model, data)`` from the bundle.

        The dataset is regenerated from its seeded recipe; the model is
        constructed (any rng — the weights are then overwritten by the
        stored state dict) and left in eval mode, ready for tape-free
        inference.
        """
        if self.task == "kg_alignment":
            return self._instantiate_alignment()
        return self._instantiate_node_classification()

    def _instantiate_node_classification(self):
        spec = self.dataset
        data = load_dataset(spec["name"], seed=spec["seed"], scale=spec["scale"])
        if data.num_features != self.features["num_features"]:
            raise ArtifactError(
                f"regenerated dataset has {data.num_features} features, "
                f"artifact was trained on {self.features['num_features']} — "
                "dataset recipe drifted"
            )
        config = self.model_config
        model = GNNModel(
            in_dim=config["in_dim"],
            hidden_dim=config["hidden_dim"],
            num_classes=config["num_classes"],
            node_aggregators=list(config["node_aggregators"]),
            rng=np.random.default_rng(0),
            skip_connections=(
                list(config["skip_connections"])
                if config.get("skip_connections") is not None
                else None
            ),
            layer_aggregator=config.get("layer_aggregator"),
            dropout=config.get("dropout", 0.5),
            activation=config.get("activation") or "relu",
            heads=config.get("heads", 1),
        )
        model.load_state_dict(self.weights)
        model.eval()
        return model, data

    def _instantiate_alignment(self):
        spec = self.dataset
        dataset = generate_alignment_dataset(
            seed=spec["seed"], num_core=spec["num_core"]
        )
        config = self.model_config
        model = GNNAligner(
            dataset,
            node_aggregators=list(config["node_aggregators"]),
            dim=config["dim"],
            rng=np.random.default_rng(0),
            activation=config.get("activation", "tanh"),
        )
        model.load_state_dict(self.weights)
        model.eval()
        return model, dataset


# ----------------------------------------------------------------------
# file I/O
# ----------------------------------------------------------------------
def save_artifact(artifact: ModelArtifact, path: str | Path) -> Path:
    """Write the bundle as one JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(artifact.to_payload(), sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_artifact(path: str | Path) -> ModelArtifact:
    """Read, version-check, hash-verify and decode one bundle."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ArtifactError(f"{path}: artifact must be a JSON object")
    return ModelArtifact.from_payload(payload)


# ----------------------------------------------------------------------
# exporters (the `repro export` backends)
# ----------------------------------------------------------------------
def export_architecture(
    arch: Architecture,
    dataset_name: str,
    scale: Scale,
    seed: int = 0,
) -> ModelArtifact:
    """Train a known genotype once and bundle the result.

    This is the shared tail of every node-classification export:
    per-task hyper-parameters from :func:`task_settings`, one
    :func:`fit` (which leaves the model loaded with its
    best-validation weights), then the state dict into the bundle.
    """
    data = load_dataset(dataset_name, seed=seed, scale=scale.dataset_scale)
    settings = task_settings(data, scale)
    model = architecture_to_model(
        arch,
        in_dim=data.num_features,
        num_classes=data.num_classes,
        rng=np.random.default_rng(seed),
        hidden_dim=scale.hidden_dim,
        dropout=settings.dropout,
        activation=settings.activation,
    )
    result = fit(model, data, settings.train_config)
    genotype = {
        "node_aggregators": list(arch.node_aggregators),
        "skip_connections": list(arch.skip_connections),
        "layer_aggregator": arch.layer_aggregator,
    }
    return _bundle_node_model(
        model, data, dataset_name, scale, seed, result,
        activation=settings.activation, genotype=genotype,
    )


def export_search(
    dataset_name: str,
    scale: Scale,
    seed: int = 0,
    num_layers: int = 3,
    epsilon: float = 0.0,
) -> ModelArtifact:
    """Run the full SANE pipeline, then export the winning genotype."""
    data = load_dataset(dataset_name, seed=seed, scale=scale.dataset_scale)
    run = run_sane(
        data, scale, seed=seed, num_layers=num_layers, epsilon=epsilon
    )
    return export_architecture(run.architecture, dataset_name, scale, seed=seed)


def export_baseline(
    name: str,
    dataset_name: str,
    scale: Scale,
    seed: int = 0,
) -> ModelArtifact:
    """Train and bundle a human-designed baseline (no genotype)."""
    if name == "lgcn":
        raise ArtifactError(
            "lgcn is not exportable: it is not a GNNModel and the v1 "
            "artifact schema only describes the generic stacked model"
        )
    data = load_dataset(dataset_name, seed=seed, scale=scale.dataset_scale)
    settings = task_settings(data, scale)
    model = build_baseline(
        name,
        data.num_features,
        data.num_classes,
        np.random.default_rng(seed),
        hidden_dim=scale.hidden_dim,
        num_layers=3,
        dropout=settings.dropout,
        activation=settings.activation,
        jk_mode=settings.jk_mode,
    )
    result = fit(model, data, settings.train_config)
    return _bundle_node_model(
        model, data, dataset_name, scale, seed, result,
        activation=settings.activation,
    )


def export_alignment(
    scale: Scale,
    seed: int = 0,
    node_aggregators: tuple[str, ...] = ("gat", "geniepath"),
) -> ModelArtifact:
    """Train and bundle a KG entity-alignment encoder.

    Defaults to the paper's searched "GAT-GeniePath" combination; the
    dataset recipe follows the Table VIII convention for ``num_core``.
    """
    num_core = max(60, int(240 * scale.dataset_scale))
    dataset = generate_alignment_dataset(seed=seed, num_core=num_core)
    config = AlignConfig(
        epochs=scale.train_epochs,
        patience=scale.train_patience,
        embedding_dim=scale.hidden_dim,
    )
    model = GNNAligner(
        dataset,
        node_aggregators=list(node_aggregators),
        dim=config.embedding_dim,
        rng=np.random.default_rng(seed),
    )
    result = train_aligner(model, dataset, config, seed=seed)
    return ModelArtifact(
        task="kg_alignment",
        genotype={"node_aggregators": list(node_aggregators)},
        model_config={
            "node_aggregators": list(node_aggregators),
            "dim": config.embedding_dim,
            "activation": "tanh",
        },
        dataset={"kind": "alignment", "seed": seed, "num_core": num_core},
        features={
            "num_entities_1": dataset.kg1.num_entities,
            "num_entities_2": dataset.kg2.num_entities,
        },
        training={
            "val_hits1": result.val_hits1,
            "best_epoch": result.best_epoch,
        },
        weights=model.state_dict(),
    )


def _bundle_node_model(
    model: GNNModel,
    data: Graph | MultiGraphDataset,
    dataset_name: str,
    scale: Scale,
    seed: int,
    result,
    activation: str,
    genotype: dict | None = None,
) -> ModelArtifact:
    is_multilabel = isinstance(data, MultiGraphDataset) or data.is_multilabel
    return ModelArtifact(
        task="node_classification",
        genotype=genotype,
        model_config={
            "in_dim": data.num_features,
            "hidden_dim": model.hidden_dim,
            "num_classes": data.num_classes,
            "node_aggregators": list(model.node_aggregator_names),
            "skip_connections": list(model.skip_connections),
            "layer_aggregator": model.layer_aggregator_name,
            "dropout": model.dropout.p,
            "activation": activation,
            "heads": 1,
        },
        dataset={
            "name": dataset_name,
            "seed": seed,
            "scale": scale.dataset_scale,
        },
        features={
            "num_features": data.num_features,
            "num_classes": data.num_classes,
            "multilabel": is_multilabel,
        },
        training={
            "val_score": result.val_score,
            "test_score": result.test_score,
            "best_epoch": result.best_epoch,
        },
        weights=model.state_dict(),
    )
