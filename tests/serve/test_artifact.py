"""Artifact round-trips: bit-exact weights, verified load, exporters."""

import json

import numpy as np
import pytest

from repro.experiments.config import SCALES
from repro.serve import (
    ArtifactError,
    InferenceEngine,
    ModelArtifact,
    export_baseline,
    load_artifact,
    save_artifact,
)
from tests.naive_kernels import KERNEL_PATHS, kernel_path


def _round_trip(artifact, tmp_path):
    path = save_artifact(artifact, tmp_path / "artifact.json")
    return load_artifact(path)


class TestRoundTrip:
    def test_weights_are_bit_exact(self, node_artifact, tmp_path):
        loaded = _round_trip(node_artifact, tmp_path)
        assert sorted(loaded.weights) == sorted(node_artifact.weights)
        for name, value in node_artifact.weights.items():
            assert np.array_equal(loaded.weights[name], value), name

    def test_metadata_survives(self, node_artifact, tmp_path):
        loaded = _round_trip(node_artifact, tmp_path)
        assert loaded.task == node_artifact.task
        assert loaded.genotype == node_artifact.genotype
        assert loaded.model_config == node_artifact.model_config
        assert loaded.dataset == node_artifact.dataset
        assert loaded.features == node_artifact.features
        assert loaded.training == node_artifact.training

    def test_genotype_round_trips_as_architecture(self, node_artifact, tmp_path):
        from tests.conftest import GENOTYPE

        loaded = _round_trip(node_artifact, tmp_path)
        assert loaded.architecture() == GENOTYPE

    @pytest.mark.parametrize("backend", KERNEL_PATHS)
    def test_loaded_predictions_bit_identical_per_backend(
        self, node_artifact, tmp_path, backend
    ):
        """export -> load -> predict equals serving the original bundle.

        Checked on the planned kernels and on the test oracle: the
        artifact stores raw float64 weights, so whichever scatter path
        serves it must produce exactly the numbers the in-memory model
        produces.
        """
        loaded = _round_trip(node_artifact, tmp_path)
        with kernel_path(backend):
            direct = InferenceEngine.from_artifact(node_artifact).predict()
            served = InferenceEngine.from_artifact(loaded).predict()
        assert np.array_equal(direct, served)

    def test_kg_round_trip_predictions(self, kg_artifact, tmp_path):
        loaded = _round_trip(kg_artifact, tmp_path)
        direct = InferenceEngine.from_artifact(kg_artifact).predict(
            node_ids=np.arange(4)
        )
        served = InferenceEngine.from_artifact(loaded).predict(
            node_ids=np.arange(4)
        )
        assert np.array_equal(direct, served)


class TestVerifiedLoad:
    def test_unknown_version_is_rejected(self, node_artifact, tmp_path):
        path = save_artifact(node_artifact, tmp_path / "artifact.json")
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="unsupported artifact version"):
            load_artifact(path)

    def test_version_is_checked_before_hash(self, node_artifact, tmp_path):
        # A future-version file naturally has a hash this build cannot
        # reproduce; the error must still name the version, not the hash.
        path = save_artifact(node_artifact, tmp_path / "artifact.json")
        payload = json.loads(path.read_text())
        payload["version"] = 2
        payload["content_hash"] = "0" * 64
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="version"):
            load_artifact(path)

    def test_tampered_content_is_rejected(self, node_artifact, tmp_path):
        path = save_artifact(node_artifact, tmp_path / "artifact.json")
        payload = json.loads(path.read_text())
        payload["training"]["val_score"] = 1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="content hash mismatch"):
            load_artifact(path)

    def test_invalid_json_is_an_artifact_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_artifact(path)

    def test_unknown_task_is_rejected(self):
        with pytest.raises(ArtifactError, match="unknown artifact task"):
            ModelArtifact(
                task="question_answering",
                model_config={},
                dataset={},
                features={},
                weights={},
            )


class TestExporters:
    def test_lgcn_is_not_exportable(self):
        with pytest.raises(ArtifactError, match="lgcn is not exportable"):
            export_baseline("lgcn", "cora", SCALES["smoke"], seed=0)
