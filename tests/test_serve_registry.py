"""Tests for the versioned predictor artifact registry.

The registry's contract: ``save`` → ``load`` reproduces the predictor
stack **bit-identically** (same weights, same dtype, same predictions),
and every way an artifact can be wrong — future schema, foreign format,
corrupt blob, mismatched vocabulary — fails loudly with a
:class:`~repro.errors.ArtifactError` (a :class:`ReproError`), never a
silently different model.
"""

import json

import numpy as np
import pytest

from repro.dse import EvaluationPipeline
from repro.errors import ArtifactError, ReproError
from repro.kernels import list_kernels
from repro.model.predictor import GNNDSEPredictor
from repro.nn.tensor import get_default_dtype, set_default_dtype
from repro.serve import (
    ARTIFACT_SCHEMA_VERSION,
    load_artifact,
    read_manifest,
    save_artifact,
    verify_artifact,
    vocab_fingerprint,
)

from tests.test_pipeline import make_predictor, sample_points


@pytest.fixture(scope="module")
def predictor():
    return make_predictor()


@pytest.fixture()
def artifact(predictor, tmp_path):
    path = tmp_path / "artifact"
    manifest = save_artifact(predictor, path)
    return path, manifest


def assert_same_predictions(original, loaded, kernels, seed=3, count=2):
    """Original and loaded stacks agree float-for-float on every kernel."""
    pipe_a = EvaluationPipeline(original, batch_size=count, engine="compiled")
    pipe_b = EvaluationPipeline(loaded, batch_size=count, engine="compiled")
    for kernel in kernels:
        points = sample_points(kernel, count, seed=seed)
        assert pipe_a.predict_batch(kernel, points) == pipe_b.predict_batch(
            kernel, points
        ), kernel


class TestSaveLoadRoundTrip:
    def test_manifest_shape(self, artifact):
        path, manifest = artifact
        assert manifest["format"] == "repro-gnn-dse-predictor"
        assert manifest["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert manifest["vocab_sha256"] == vocab_fingerprint()
        assert set(manifest["models"]) == {
            "classifier", "regressor", "bram_regressor",
        }
        for entry in manifest["models"].values():
            assert entry["blob"].startswith("blobs/sha256-")
            assert entry["parameters"] > 0
        # What save() returned is exactly what landed on disk.
        assert read_manifest(path) == manifest

    def test_state_dicts_identical(self, predictor, artifact):
        path, _ = artifact
        loaded = load_artifact(path)
        for role in ("classifier", "regressor", "bram_regressor"):
            original = getattr(predictor, role).state_dict()
            restored = getattr(loaded, role).state_dict()
            assert set(original) == set(restored)
            for name in original:
                assert original[name].dtype == restored[name].dtype, (role, name)
                assert np.array_equal(original[name], restored[name]), (role, name)
        assert (
            loaded.normalizer.normalization_factor
            == predictor.normalizer.normalization_factor
        )

    def test_predictions_bit_identical(self, predictor, artifact):
        path, _ = artifact
        assert_same_predictions(
            predictor, load_artifact(path), ["fir", "gemm-ncubed", "nw"]
        )

    def test_load_is_dtype_stable_across_process_defaults(self, tmp_path):
        """A float32 artifact loads bit-identically even when the process
        default is float64 (and vice versa via the suite fixture)."""
        previous = get_default_dtype()
        set_default_dtype(np.float32)
        try:
            original = make_predictor(seed=7)
            path = tmp_path / "f32"
            save_artifact(original, path)
        finally:
            set_default_dtype(previous)
        # Now loading under float64 default:
        loaded = load_artifact(path)
        for param in loaded.classifier.parameters():
            assert param.data.dtype == np.float32
        set_default_dtype(np.float32)
        try:
            assert_same_predictions(original, loaded, ["fir"])
        finally:
            set_default_dtype(previous)

    def test_load_never_switches_the_process_default_dtype(
        self, tmp_path, monkeypatch
    ):
        """Serving threads read the process-wide default dtype while a
        hot reload loads the next artifact: switching it, even for the
        length of a model build, let an engine compiled meanwhile run
        at the artifact's dtype instead."""
        import repro.serve.registry as registry_module

        previous = get_default_dtype()
        set_default_dtype(np.float32)
        try:
            path = tmp_path / "f32"
            save_artifact(make_predictor(seed=7), path)
        finally:
            set_default_dtype(previous)
        seen = []
        build = registry_module.build_model

        def recording_build(*args, **kwargs):
            seen.append(get_default_dtype())
            return build(*args, **kwargs)

        monkeypatch.setattr(registry_module, "build_model", recording_build)
        loaded = load_artifact(path)
        assert previous is np.float64  # the suite's autouse default
        assert seen == [previous] * 3
        assert get_default_dtype() is previous
        for param in loaded.regressor.parameters():
            assert param.data.dtype == np.float32

    def test_resave_is_idempotent_and_dedupes_blobs(self, predictor, artifact):
        path, first = artifact
        blobs_before = sorted(p.name for p in (path / "blobs").iterdir())
        second = save_artifact(predictor, path)
        assert second == first
        assert sorted(p.name for p in (path / "blobs").iterdir()) == blobs_before

    def test_predictor_methods_wire_through(self, predictor, tmp_path):
        path = tmp_path / "via-methods"
        manifest = predictor.save(path)
        assert manifest["schema_version"] == ARTIFACT_SCHEMA_VERSION
        loaded = GNNDSEPredictor.load(path)
        assert isinstance(loaded, GNNDSEPredictor)

    def test_verify_passes_on_good_artifact(self, artifact):
        path, manifest = artifact
        assert verify_artifact(path)["models"] == manifest["models"]

    @pytest.mark.slow
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_property_all_kernels(self, tmp_path, dtype):
        """Satellite property: save→load is bit-exact for every kernel,
        at both engine dtypes."""
        previous = get_default_dtype()
        set_default_dtype(dtype)
        try:
            original = make_predictor(seed=11)
            path = tmp_path / np.dtype(dtype).name
            save_artifact(original, path)
            loaded = load_artifact(path)
            for param in loaded.regressor.parameters():
                assert param.data.dtype == dtype
            assert_same_predictions(original, loaded, list_kernels(), count=2)
        finally:
            set_default_dtype(previous)

    @pytest.mark.slow
    def test_trained_stack_round_trip(self, tmp_path):
        """A (tiny) genuinely trained stack survives the round trip too —
        trained weights, fitted normalizer and all."""
        from repro.explorer import generate_database
        from repro.model import TrainConfig, train_predictor

        db = generate_database(kernels=["atax", "spmv-ellpack"], scale=0.12, seed=0)
        trained = train_predictor(
            db, "M5", train_config=TrainConfig(epochs=2, seed=0)
        )
        path = tmp_path / "trained"
        save_artifact(trained, path)
        loaded = load_artifact(path)
        assert (
            loaded.normalizer.normalization_factor
            == trained.normalizer.normalization_factor
        )
        assert_same_predictions(trained, loaded, ["atax", "spmv-ellpack"])


class TestArtifactRejection:
    def _edit_manifest(self, path, **changes):
        manifest = json.loads((path / "manifest.json").read_text())
        manifest.update(changes)
        (path / "manifest.json").write_text(json.dumps(manifest))

    def test_missing_artifact(self, tmp_path):
        with pytest.raises(ArtifactError, match="no artifact manifest"):
            load_artifact(tmp_path / "nothing-here")

    def test_wrong_schema_version(self, artifact):
        path, _ = artifact
        self._edit_manifest(path, schema_version=ARTIFACT_SCHEMA_VERSION + 1)
        with pytest.raises(ArtifactError) as info:
            load_artifact(path)
        message = str(info.value)
        assert str(ARTIFACT_SCHEMA_VERSION + 1) in message
        assert "repro train" in message
        # ArtifactError is a ReproError: one except clause catches both.
        assert isinstance(info.value, ReproError)

    def test_foreign_format(self, artifact):
        path, _ = artifact
        self._edit_manifest(path, format="some-other-tool")
        with pytest.raises(ArtifactError, match="not a predictor artifact"):
            read_manifest(path)

    def test_unreadable_manifest(self, artifact):
        path, _ = artifact
        (path / "manifest.json").write_text("{truncated")
        with pytest.raises(ArtifactError, match="unreadable manifest"):
            load_artifact(path)

    def test_vocab_mismatch(self, artifact):
        path, _ = artifact
        self._edit_manifest(path, vocab_sha256="0" * 64)
        with pytest.raises(ArtifactError, match="vocabulary"):
            load_artifact(path)

    def test_corrupt_blob(self, artifact):
        path, _ = artifact
        blob = next((path / "blobs").iterdir())
        data = bytearray(blob.read_bytes())
        data[len(data) // 2] ^= 0xFF
        blob.write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="corrupt weight blob"):
            verify_artifact(path)

    def test_missing_blob(self, artifact):
        path, _ = artifact
        manifest = json.loads((path / "manifest.json").read_text())
        first_role = next(iter(manifest["models"]))
        blob = path / manifest["models"][first_role]["blob"]
        blob.unlink()
        # The other roles may share the remaining blobs; the missing one
        # must still be flagged.
        with pytest.raises(ArtifactError, match="missing weight blob"):
            verify_artifact(path)

    def test_missing_model_entry(self, artifact):
        path, _ = artifact
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["models"]["bram_regressor"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="missing models"):
            read_manifest(path)

    def test_malformed_model_config(self, artifact):
        path, _ = artifact
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["models"]["classifier"]["config"] = {"bogus": True}
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="malformed model config"):
            load_artifact(path)

    def test_unfitted_normalizer_refused_on_save(self, predictor, tmp_path):
        class Hollow:
            classifier = predictor.classifier
            regressor = predictor.regressor
            bram_regressor = predictor.bram_regressor

            class normalizer:
                normalization_factor = None

        with pytest.raises(ArtifactError, match="unfitted normalizer"):
            save_artifact(Hollow(), tmp_path / "hollow")
