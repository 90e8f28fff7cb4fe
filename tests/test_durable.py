"""Every file the program reads back is written crash-safely and durably.

Each writer below persists state a later step or run reads back: the
labelled database, an artifact (weight blobs + manifest), a registry
version's meta and its ``current`` pointer, the DSE checkpoint, the
loop journal and a cached experiment result.  For every one of them:

- a crash at the rename leaves the previous file byte-identical, leaks
  no temp file, and the interrupted write can simply be retried;
- every file renamed into place was fsynced before the rename, and its
  directory after it;

and the sha256-of-JSON fingerprints keep their pinned values, so
checkpoints, journals and artifacts written earlier still resume and
verify.
"""

import os
from pathlib import Path
from unittest import mock

import pytest

from repro.designspace import build_design_space
from repro.dse import DSECheckpoint
from repro.experiments.context import ExperimentContext
from repro.explorer.database import Database, DesignRecord
from repro.hls import MerlinHLSTool
from repro.kernels import get_kernel
from repro.loop import LoopState
from repro.serve import ModelRegistry
from repro.serve.registry import (
    artifact_fingerprint,
    device_set_fingerprint,
    load_artifact,
    save_artifact,
    verify_artifact,
    vocab_fingerprint,
)

from tests.test_pipeline import make_predictor


@pytest.fixture(scope="module")
def predictors():
    return make_predictor(seed=0), make_predictor(seed=1)


def _database(count: int) -> Database:
    tool = MerlinHLSTool()
    spec = get_kernel("fir")
    db = Database()
    for point in list(build_design_space(spec).enumerate(limit=count)):
        db.add(DesignRecord.from_result(tool.synthesize(spec, point), point))
    return db


# Each writer: write(root, version, predictors) persists version 0 or 1
# of its state under root; read(root) loads it back the way the program
# does.


def _write_database(root, version, predictors):
    _database(1 + version).save(root / "db.json")


def _read_database(root):
    return len(Database.load(root / "db.json"))


def _write_checkpoint(root, version, predictors):
    DSECheckpoint(root / "run.ckpt").write(
        kernel="fir", fingerprint="f", top_m=5, fit_threshold=0.8,
        shard_size=4, num_shards=2, total_points=8,
        completed={}, pareto=[], retries=version,
    )


def _read_checkpoint(root):
    return DSECheckpoint(root / "run.ckpt").load()["retries"]


def _write_loop_state(root, version, predictors):
    LoopState(root / "loop.json").write("f", "db.json", "reg", {"round": 0},
                                        [{"round": r} for r in range(version)])


def _read_loop_state(root):
    return len(LoopState(root / "loop.json").validate("f")["completed"])


def _write_artifact(root, version, predictors):
    save_artifact(predictors[version], root / "artifact")


def _read_artifact(root):
    manifest = verify_artifact(root / "artifact")
    load_artifact(root / "artifact")
    return artifact_fingerprint(manifest)


def _write_publish(root, version, predictors):
    ModelRegistry(root / "reg").publish(predictors[version], created=float(version))


def _read_registry(root):
    current = ModelRegistry(root / "reg").current()
    verify_artifact(current.path)
    return current.version, current.sha256, current.created


def _write_set_current(root, version, predictors):
    registry = ModelRegistry(root / "reg")
    if version == 0:
        registry.publish(predictors[0], created=0.0)
        registry.publish(predictors[1], activate=False, created=1.0)
        return
    registry.set_current("v0002")


def _write_pointer_file(root, version, predictors):
    """``set_current`` on a filesystem without symlinks."""
    with mock.patch.object(os, "symlink", side_effect=OSError("no symlinks")):
        _write_set_current(root, version, predictors)
    assert (root / "reg" / "current").is_file()


def _write_result(root, version, predictors):
    context = ExperimentContext(cache_dir=str(root / "cache"), scale=1, epochs=1, seed=0)
    context.save_result("table", {"rows": list(range(version + 1))})


def _read_result(root):
    context = ExperimentContext(cache_dir=str(root / "cache"), scale=1, epochs=1, seed=0)
    return context.load_result("table")


WRITERS = {
    "database": (_write_database, _read_database),
    "checkpoint": (_write_checkpoint, _read_checkpoint),
    "loop-state": (_write_loop_state, _read_loop_state),
    "artifact": (_write_artifact, _read_artifact),
    "registry-publish": (_write_publish, _read_registry),
    "registry-set-current": (_write_set_current, _read_registry),
    "registry-pointer-file": (_write_pointer_file, _read_registry),
    "experiment-result": (_write_result, _read_result),
}


def _snapshot(root: Path):
    """Every file and symlink under ``root`` with its content."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in filenames + [d for d in dirnames if os.path.islink(os.path.join(dirpath, d))]:
            path = os.path.join(dirpath, name)
            key = os.path.relpath(path, root)
            out[key] = ("link", os.readlink(path)) if os.path.islink(path) else (
                "file", Path(path).read_bytes())
    return out


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_crash_at_rename_keeps_old_file_and_leaks_nothing(
    tmp_path, predictors, monkeypatch, name
):
    write, read = WRITERS[name]
    write(tmp_path, 0, predictors)
    before_files = _snapshot(tmp_path)
    before = read(tmp_path)

    def crash(src, dst):  # the process "dies" between write and rename
        raise OSError("simulated crash during rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        write(tmp_path, 1, predictors)
    monkeypatch.undo()

    # Old state byte-for-byte intact and readable; no temp file leaked.
    assert _snapshot(tmp_path) == before_files
    assert read(tmp_path) == before

    # The interrupted write can simply be retried.
    write(tmp_path, 1, predictors)
    assert read(tmp_path) != before


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_renamed_files_are_fsynced_with_their_directory(
    tmp_path, predictors, monkeypatch, name
):
    write, read = WRITERS[name]
    write(tmp_path, 0, predictors)
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        real_fsync(fd)
        stat = os.fstat(fd)
        events.append(("fsync", (stat.st_dev, stat.st_ino)))

    def replace(src, dst):
        stat = os.lstat(src)
        parent = os.stat(os.path.dirname(os.path.abspath(dst)))
        real_replace(src, dst)
        # A symlink cannot be fsynced itself; its directory entry is
        # made durable by the directory fsync.
        synced = None if os.path.islink(dst) else (stat.st_dev, stat.st_ino)
        events.append(("replace", synced, (parent.st_dev, parent.st_ino), dst))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write(tmp_path, 1, predictors)
    monkeypatch.undo()

    renames = [i for i, event in enumerate(events) if event[0] == "replace"]
    assert renames, f"{name} wrote nothing through a rename"
    for i in renames:
        _, synced, directory, dst = events[i]
        earlier = {event[1] for event in events[:i] if event[0] == "fsync"}
        later = {event[1] for event in events[i + 1:] if event[0] == "fsync"}
        assert synced is None or synced in earlier, f"{dst} renamed unsynced"
        assert directory in later, f"directory of {dst} not fsynced after rename"
    read(tmp_path)


def test_pointer_file_holding_a_bare_version_resolves(tmp_path, predictors):
    """Pointer files written before the flip moved here hold ``vNNNN``."""
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish(predictors[0], activate=False)
    registry.current_pointer.write_text("v0001")
    assert registry.current_version_name() == "v0001"
    assert registry.current().version == "v0001"


def test_fingerprints_are_pinned():
    """Values recorded before the fingerprints moved to one digest: a
    checkpoint, loop journal or artifact written earlier must still
    match."""
    space = build_design_space(get_kernel("gesummv"))
    assert DSECheckpoint.fingerprint("gesummv", space, 10, 0.8, 16, 16, 253) == (
        "4f30b0cfab9493f3fcb9bd3ea0768893cd6f2c7a92532071335bffe39353f363")
    assert LoopState.fingerprint({
        "kernels": ["gesummv", "mvt"], "rounds": 2, "budget": 8, "seed": 0, "scan": 40,
    }) == "6672bea24195514a9395b0d0f2e98521458a0a51abaa30cb7bc03125cef40fca"
    assert vocab_fingerprint() == (
        "f1dea965cff1c14d87dbf3a933b34efcd561de3d5daed6d51e82d325f6d7c625")
    assert device_set_fingerprint() == (
        "3fb53f5f56e2e84b8e054e14174bcdf3db0b13ca15a3f9169968a9ee69aaafac")
    manifest = {
        "schema_version": 2,
        "vocab_sha256": "ab" * 32,
        "devices": {"names": ["u200"], "sha256": "cd" * 32},
        "normalization_factor": 1234.5,
        "models": {
            "classifier": {"sha256": "01" * 32},
            "regressor": {"sha256": "02" * 32},
            "bram_regressor": {"sha256": "03" * 32},
        },
    }
    assert artifact_fingerprint(manifest) == (
        "05f4435c93a9fd5959279a70b2acaf6dca725cf10597bd7872c968d1f624c8ef")

