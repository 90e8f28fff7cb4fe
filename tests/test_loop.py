"""Tests for the active-learning loop: the versioned model registry with
its atomic ``current`` pointer, the LoopState resume journal, the
ActiveLoop orchestrator (round mechanics, holdout gating, resume
bit-identity), and the ``loop``/``artifacts`` CLI commands."""

import json
import os
import random
import threading

import pytest

from repro.cli import main
from repro.errors import ArtifactError, LoopError
from repro.explorer.database import Database, DesignRecord
from repro.hls import MerlinHLSTool
from repro.designspace import build_design_space
from repro.kernels import get_kernel
from repro.loop import LOOP_STATE_SCHEMA_VERSION, ActiveLoop, LoopConfig, LoopState
from repro.serve import ModelRegistry
from repro.serve.registry import (
    artifact_fingerprint,
    load_artifact,
    read_manifest,
    verify_artifact,
)

from tests.test_pipeline import make_predictor


@pytest.fixture(scope="module")
def predictor():
    return make_predictor(seed=0)


@pytest.fixture(scope="module")
def predictor_b():
    return make_predictor(seed=1)


def tiny_config(**overrides):
    base = dict(
        kernels=("gesummv",),
        rounds=2,
        label_budget=5,
        scan=40,
        eval_points=24,
        epochs=1,
        seed=0,
    )
    base.update(overrides)
    return LoopConfig(**base)


def seed_database():
    """25 labelled fir designs, valid ones among them."""
    tool = MerlinHLSTool()
    db = Database()
    spec = get_kernel("fir")
    for point in build_design_space(spec).sample(random.Random(0), 25):
        db.add(DesignRecord.from_result(tool.synthesize(spec, point), point,
                                        source="seed"))
    return db


def make_loop(tmp_path, predictor, db=None, registry=None, **config_overrides):
    registry = registry or ModelRegistry(tmp_path / "registry")
    return ActiveLoop(
        predictor,
        db if db is not None else Database(),
        registry,
        tiny_config(**config_overrides),
        tmp_path / "loop-db.json",
        tmp_path / "loop-state.json",
    )


# ---------------------------------------------------------------------------
# ModelRegistry: versions + the atomic `current` pointer


class TestModelRegistry:
    def test_publish_grows_versions_and_flips_current(self, tmp_path, predictor, predictor_b):
        registry = ModelRegistry(tmp_path / "reg")
        assert registry.versions() == []
        assert registry.current() is None
        v1 = registry.publish(predictor, created=1.0)
        assert v1.version == "v0001"
        assert registry.current_version_name() == "v0001"
        v2 = registry.publish(predictor_b, created=2.0)
        assert [v.version for v in registry.versions()] == ["v0001", "v0002"]
        assert registry.current_version_name() == "v0002"
        assert registry.current().sha256 == v2.sha256
        assert v1.sha256 != v2.sha256
        assert v2.created == 2.0

    def test_failed_publish_leaves_no_gap_in_version_numbers(
        self, tmp_path, predictor, predictor_b, monkeypatch
    ):
        import repro.durable

        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(predictor, created=1.0)
        real_replace = os.replace

        def crash(src, dst):
            raise OSError("disk gone mid-publish")

        monkeypatch.setattr(repro.durable.os, "replace", crash)
        with pytest.raises(OSError, match="mid-publish"):
            registry.publish(predictor_b, created=2.0)
        monkeypatch.setattr(repro.durable.os, "replace", real_replace)
        v2 = registry.publish(predictor_b, created=3.0)
        assert [v.version for v in registry.versions()] == ["v0001", "v0002"]
        assert registry.current_version_name() == v2.version == "v0002"
        assert sorted(p.name for p in registry.versions_dir.iterdir()) == ["v0001", "v0002"]

    def test_publish_without_activate_keeps_pointer(self, tmp_path, predictor, predictor_b):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(predictor, created=1.0)
        registry.publish(predictor_b, activate=False, created=2.0)
        assert registry.current_version_name() == "v0001"
        assert len(registry.versions()) == 2
        registry.set_current("v0002")
        assert registry.current_version_name() == "v0002"

    def test_fingerprint_is_content_addressed(self, tmp_path, predictor):
        registry = ModelRegistry(tmp_path / "reg")
        v1 = registry.publish(predictor, created=1.0)
        # Identical weights → identical fingerprint, regardless of slot.
        v2 = registry.publish(predictor, created=99.0)
        assert v1.sha256 == v2.sha256
        assert v1.sha256 == artifact_fingerprint(read_manifest(v1.path))

    def test_set_current_unknown_version_raises(self, tmp_path, predictor):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(predictor, created=1.0)
        with pytest.raises(ArtifactError, match="v0042"):
            registry.set_current("v0042")

    def test_dangling_pointer_raises(self, tmp_path, predictor):
        registry = ModelRegistry(tmp_path / "reg")
        version = registry.publish(predictor, created=1.0)
        import shutil

        shutil.rmtree(version.path)
        with pytest.raises(ArtifactError, match="current"):
            registry.current()

    def test_is_registry(self, tmp_path, predictor):
        assert not ModelRegistry.is_registry(tmp_path / "nope")
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(predictor, created=1.0)
        assert ModelRegistry.is_registry(tmp_path / "reg")
        # A bare artifact directory is NOT a registry.
        assert not ModelRegistry.is_registry(registry.current().path)

    def test_crash_mid_swap_leaves_old_current_intact(
        self, tmp_path, predictor, predictor_b, monkeypatch
    ):
        """Crash injection: dying inside the pointer flip must leave the
        previous `current` fully readable."""
        registry = ModelRegistry(tmp_path / "reg")
        v1 = registry.publish(predictor, created=1.0)

        import repro.serve.registry as registry_module

        real_replace = os.replace

        def exploding_replace(src, dst):
            if os.fspath(dst) == os.fspath(registry.current_pointer):
                raise OSError("injected crash mid-swap")
            return real_replace(src, dst)

        monkeypatch.setattr(registry_module.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="injected"):
            registry.publish(predictor_b, created=2.0)
        monkeypatch.undo()

        # Old pointer intact, old artifact loadable and verified.
        assert registry.current_version_name() == "v0001"
        current = registry.current()
        assert current.sha256 == v1.sha256
        verify_artifact(current.path)
        load_artifact(current.path)
        # The new version's artifact itself landed completely; only the
        # flip failed — a re-publish (or set_current) can activate it.
        registry2 = ModelRegistry(tmp_path / "reg")
        registry2.set_current("v0002")
        assert registry2.current_version_name() == "v0002"

    def test_concurrent_readers_never_see_half_written(
        self, tmp_path, predictor, predictor_b
    ):
        """Readers resolving `current` during swaps always land on a
        complete, verifiable artifact of a known fingerprint."""
        registry = ModelRegistry(tmp_path / "reg")
        v1 = registry.publish(predictor, created=1.0)
        known = {v1.sha256}
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    current = registry.current()
                    manifest = verify_artifact(current.path)
                    sha = artifact_fingerprint(manifest)
                    if sha not in known:
                        errors.append(f"unknown fingerprint {sha[:12]}")
                    if sha != current.sha256:
                        errors.append("meta/manifest fingerprint mismatch")
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(repr(exc))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for index, seed in enumerate((1, 2, 3)):
                version = registry.publish(make_predictor(seed=seed), created=float(index))
                known.add(version.sha256)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []


# ---------------------------------------------------------------------------
# LoopState journal


class TestLoopState:
    def test_write_load_roundtrip(self, tmp_path):
        state = LoopState(tmp_path / "state.json")
        fp = LoopState.fingerprint({"kernels": ["gesummv"], "seed": 0})
        state.write(fp, "db.json", "reg", {"round": 0}, [{"round": 1}])
        raw = state.validate(fp)
        assert raw["schema_version"] == LOOP_STATE_SCHEMA_VERSION
        assert raw["completed"] == [{"round": 1}]

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"schema_version": 1, "trunc')
        with pytest.raises(LoopError, match="corrupt or half-written"):
            LoopState(path).load()

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"schema_version": 999}))
        with pytest.raises(LoopError, match="schema"):
            LoopState(path).load()

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "state.json"
        payload = {
            "schema_version": LOOP_STATE_SCHEMA_VERSION,
            "fingerprint": "x",
            "completed": [],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(LoopError, match="missing field"):
            LoopState(path).load()

    def test_fingerprint_mismatch_raises(self, tmp_path):
        state = LoopState(tmp_path / "state.json")
        fp = LoopState.fingerprint({"seed": 0})
        state.write(fp, "db.json", "reg", None, [])
        with pytest.raises(LoopError, match="different loop configuration"):
            state.validate(LoopState.fingerprint({"seed": 1}))


# ---------------------------------------------------------------------------
# ActiveLoop rounds


class TestActiveLoop:
    def test_rounds_label_train_publish(self, tmp_path, predictor):
        loop = make_loop(tmp_path, predictor)
        result = loop.run()
        assert len(result.rounds) == 2
        # The registry holds baseline + one version per accepted round.
        accepted = sum(1 for r in result.rounds if r["accepted"])
        assert len(loop.registry.versions()) == 1 + accepted
        # Holdout RMSE of the serving model never increases (the gate).
        trajectory = result.rmse_trajectory()
        assert all(b <= a + 1e-12 for a, b in zip(trajectory, trajectory[1:]))
        # Labels carry full provenance.
        loop_records = [r for r in loop.database if r.source.startswith("loop:")]
        assert loop_records
        for record in loop_records:
            assert record.round in (1, 2)
            assert record.source == f"loop:r{record.round}"
            assert record.created == float(record.round)
        # Database and state were persisted.
        assert (tmp_path / "loop-db.json").exists()
        state = LoopState(tmp_path / "loop-state.json")
        raw = state.load()
        assert len(raw["completed"]) == 2

    def test_selection_never_labels_holdout_points(self, tmp_path, predictor):
        loop = make_loop(tmp_path, predictor)
        loop.run()
        eval_keys = loop._eval_keys["gesummv"]
        labeled = {r.point_key for r in loop.database if r.source.startswith("loop:")}
        assert not labeled & eval_keys

    def test_gate_rejects_regressing_candidate(self, tmp_path, predictor):
        loop = make_loop(tmp_path, predictor, rounds=1)
        metrics = iter([1.0, 2.0])  # baseline 1.0, candidate 2.0 (worse)

        def scripted_metrics(p):
            rmse = next(metrics)
            return {
                "rmse": {"latency": rmse, "DSP": rmse, "LUT": rmse, "FF": rmse,
                         "BRAM": rmse, "all": rmse},
                "classification": {"accuracy": 1.0, "f1": 1.0},
                "eval_points": {},
            }

        loop._metrics = scripted_metrics
        result = loop.run()
        report = result.rounds[0]
        assert not report["accepted"]
        assert report["candidate_rmse"] == 2.0
        # The serving model (and its metrics) stay at the baseline.
        assert report["metrics"]["rmse"]["all"] == 1.0
        assert report["artifact_version"] == "v0001"
        assert len(loop.registry.versions()) == 1

    def test_no_gate_publishes_anyway(self, tmp_path, predictor):
        loop = make_loop(tmp_path, predictor, rounds=1, gate_on_holdout=False)
        metrics = iter([1.0, 2.0])

        def scripted_metrics(p):
            rmse = next(metrics)
            return {
                "rmse": {"latency": rmse, "DSP": rmse, "LUT": rmse, "FF": rmse,
                         "BRAM": rmse, "all": rmse},
                "classification": {"accuracy": 1.0, "f1": 1.0},
                "eval_points": {},
            }

        loop._metrics = scripted_metrics
        result = loop.run()
        assert result.rounds[0]["accepted"]
        assert result.rounds[0]["artifact_version"] == "v0002"

    def test_round_reports_structure(self, tmp_path, predictor):
        result = make_loop(tmp_path, predictor, rounds=1).run()
        report = result.rounds[0]
        for key in ("round", "selected", "scanned", "labeled", "added",
                    "overwrites", "database_size", "accepted", "metrics",
                    "artifact_version", "artifact_sha256"):
            assert key in report
        assert report["selected"] == {"gesummv": 5}
        assert report["labeled"] == 5

    def test_non_m7_stack_fine_tunes_its_own_heads(self, tmp_path):
        # Each head is rebuilt from its own config, so a stack that is
        # not M7 fine-tunes instead of failing to load its weights.
        start = make_predictor(seed=0, config_name="M5")
        loop = make_loop(tmp_path, start, db=seed_database(), rounds=1,
                         gate_on_holdout=False)
        result = loop.run()
        assert result.rounds[0]["artifact_version"] == "v0002"
        served = load_artifact(loop.registry.current().path)
        for role in ("classifier", "regressor", "bram_regressor"):
            assert getattr(served, role).config == getattr(start, role).config
            assert getattr(served, role).config.name == "M5"

    def test_empty_kernels_rejected(self):
        with pytest.raises(LoopError):
            LoopConfig(kernels=())


# ---------------------------------------------------------------------------
# Resume: kill mid-round, rerun, identical database + artifact chain


class TestResume:
    def _chain(self, registry_root):
        out = []
        for version_dir in sorted((registry_root / "versions").iterdir()):
            manifest = read_manifest(version_dir)
            out.append((version_dir.name, artifact_fingerprint(manifest)))
        return out

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        # Run A: uninterrupted.
        a = tmp_path / "a"
        a.mkdir()
        loop_a = make_loop(a, make_predictor(seed=0))
        result_a = loop_a.run()

        # Run B: killed inside round 2's fine-tune, then resumed fresh.
        b = tmp_path / "b"
        b.mkdir()
        loop_b = make_loop(b, make_predictor(seed=0))
        original = loop_b._fine_tune

        def dying_fine_tune(pred, round_index):
            if round_index == 2:
                raise KeyboardInterrupt
            return original(pred, round_index)

        loop_b._fine_tune = dying_fine_tune
        with pytest.raises(KeyboardInterrupt):
            loop_b.run()

        resumed = make_loop(b, make_predictor(seed=0),
                            registry=ModelRegistry(b / "registry"))
        result_b = resumed.run(resume=True)
        assert result_b.resumed_rounds == 1

        assert (a / "loop-db.json").read_bytes() == (b / "loop-db.json").read_bytes()
        assert self._chain(a / "registry") == self._chain(b / "registry")
        assert result_a.rmse_trajectory() == result_b.rmse_trajectory()

    def test_resume_with_wrong_config_raises(self, tmp_path, predictor):
        loop = make_loop(tmp_path, predictor, rounds=1)
        loop.run()
        other = make_loop(tmp_path, predictor, rounds=1, seed=5,
                          registry=loop.registry)
        with pytest.raises(LoopError, match="different loop configuration"):
            other.run(resume=True)

    def test_resume_without_state_runs_fresh(self, tmp_path, predictor):
        loop = make_loop(tmp_path, predictor, rounds=1)
        result = loop.run(resume=True)
        assert result.resumed_rounds == 0
        assert len(result.rounds) == 1

    def test_completed_resume_is_a_noop(self, tmp_path, predictor):
        loop = make_loop(tmp_path, predictor)
        loop.run()
        chain = self._chain(tmp_path / "registry")
        again = make_loop(tmp_path, predictor, registry=loop.registry)
        result = again.run(resume=True)
        assert result.resumed_rounds == 2
        assert len(result.rounds) == 2
        assert self._chain(tmp_path / "registry") == chain


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture()
def seed_setup(tmp_path):
    """A tiny seed database + a saved artifact for the CLI commands."""
    db_path = tmp_path / "seed-db.json"
    seed_database().save(db_path)
    artifact = tmp_path / "artifact"
    make_predictor(seed=0).save(artifact)
    return db_path, artifact


class TestCLI:
    def _loop_args(self, tmp_path, seed_setup, *extra):
        db_path, artifact = seed_setup
        return [
            "loop",
            "-d", str(db_path),
            "-p", str(artifact),
            "--registry", str(tmp_path / "registry"),
            "--kernels", "gesummv",
            "--rounds", "1",
            "--label-budget", "4",
            "--scan", "30",
            "--eval-points", "20",
            "--epochs", "1",
            *extra,
        ]

    def test_loop_then_artifacts(self, tmp_path, seed_setup, capsys):
        assert main(self._loop_args(tmp_path, seed_setup)) == 0
        out = capsys.readouterr().out
        assert "baseline:" in out
        assert "held-out RMSE:" in out

        assert main(["artifacts", str(tmp_path / "registry")]) == 0
        out = capsys.readouterr().out
        assert "v0001" in out
        assert "ok" in out

    def test_loop_resume_flag(self, tmp_path, seed_setup, capsys):
        assert main(self._loop_args(tmp_path, seed_setup)) == 0
        capsys.readouterr()
        assert main(self._loop_args(tmp_path, seed_setup, "--resume")) == 0
        out = capsys.readouterr().out
        assert "resuming after round 1" in out

    def test_artifacts_flags_corrupt_blob(self, tmp_path, seed_setup, capsys):
        assert main(self._loop_args(tmp_path, seed_setup)) == 0
        capsys.readouterr()
        registry = ModelRegistry(tmp_path / "registry")
        blob_dir = registry.versions()[0].path / "blobs"
        blob = next(blob_dir.glob("*.npz"))
        blob.write_bytes(b"corrupt")
        assert main(["artifacts", str(tmp_path / "registry")]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_artifacts_on_bare_artifact_dir(self, tmp_path, seed_setup, capsys):
        assert main(self._loop_args(tmp_path, seed_setup)) == 0
        capsys.readouterr()
        registry = ModelRegistry(tmp_path / "registry")
        artifact = registry.versions()[0].path
        assert main(["artifacts", str(artifact)]) == 0
        assert "single artifact" in capsys.readouterr().out

    def test_serve_registry_detection(self, tmp_path, seed_setup):
        """`repro serve --model <registry>` resolves the current version."""
        assert main(self._loop_args(tmp_path, seed_setup)) == 0
        from repro.cli import build_parser, _cmd_serve  # noqa: F401 - smoke import

        assert ModelRegistry.is_registry(tmp_path / "registry")
