"""Versioned, content-addressed persistence of trained predictor stacks.

An *artifact* is a directory holding everything needed to reconstruct a
:class:`~repro.model.predictor.GNNDSEPredictor` for inference::

    artifact/
      manifest.json                 # schema version, configs, hashes
      blobs/
        sha256-<hex>.npz            # one state-dict blob per model

Blobs are content-addressed: the file name embeds the SHA-256 of the
bytes, so a blob can never silently drift from its manifest entry and
identical weights are stored once.  The manifest is written last (via a
temp file + ``os.replace``), so a crashed save never produces a
loadable half-artifact.

Loads are strict: schema-version, vocabulary-fingerprint, and blob-hash
mismatches all raise :class:`~repro.errors.ArtifactError` (a
:class:`~repro.errors.ReproError`) with a message naming the mismatch.
Model parameters are rebuilt at the dtype recorded in the manifest, so
a loaded predictor is bit-identical to the one saved regardless of the
process's current engine default dtype.

:class:`ModelRegistry` stacks artifacts into a *versioned registry*
directory with an atomic ``current`` pointer::

    registry/
      versions/
        v0001/                      # one artifact dir per version
        v0002/
      current                       # symlink (or pointer file) -> versions/vNNNN

``publish`` writes the artifact completely (manifest last), verifies
it, then flips ``current`` with a temp-link + ``os.replace`` + directory
fsync — so a reader resolving ``current`` always sees a *complete*
artifact, before or after the swap but never in between, and a crash
mid-swap leaves the old pointer intact.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..errors import ArtifactError
from ..explorer.database import Database
from ..graph.encoding import EDGE_DIM, NODE_DIM
from ..graph.vocab import EDGE_FLOWS, NODE_TEXT_VOCAB, NODE_TYPES
from ..hls.device import get_device, list_devices
from ..model.config import ModelConfig
from ..model.dataset import GraphDatasetBuilder
from ..model.models import build_model
from ..model.normalizer import TargetNormalizer

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ARTIFACT_FORMAT",
    "ArtifactVersion",
    "ModelRegistry",
    "artifact_fingerprint",
    "device_set_fingerprint",
    "save_artifact",
    "load_artifact",
    "read_manifest",
    "verify_artifact",
    "vocab_fingerprint",
]

#: Bump when the manifest layout or blob format changes incompatibly.
#: v2 pins the device registry: an artifact records the device set (and
#: capacities) it was saved against, and loads reject a mismatch — a
#: device-conditioned surrogate is only meaningful on the device set it
#: was trained with.
ARTIFACT_SCHEMA_VERSION = 2

ARTIFACT_FORMAT = "repro-gnn-dse-predictor"

_MANIFEST = "manifest.json"
_BLOB_DIR = "blobs"

#: The three models of the stack, in manifest order.
_ROLES = ("classifier", "regressor", "bram_regressor")


def vocab_fingerprint() -> str:
    """SHA-256 over the closed graph vocabulary and feature dims.

    Saved weights are only meaningful against the exact feature
    encoding they were trained on; the fingerprint pins it.
    """
    payload = json.dumps(
        {
            "node_text": list(NODE_TEXT_VOCAB),
            "node_types": list(NODE_TYPES),
            "edge_flows": list(EDGE_FLOWS),
            "node_dim": NODE_DIM,
            "edge_dim": EDGE_DIM,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def device_set_fingerprint() -> str:
    """SHA-256 over the registered device set (names, kinds, capacities).

    Device conditioning makes saved weights a function of the devices
    they were trained against: adding, removing, or resizing a device
    changes what the device feature block means, so the fingerprint —
    like :func:`vocab_fingerprint` — pins it.
    """
    payload = json.dumps(
        [
            {
                "name": name,
                "kind": getattr(get_device(name), "kind", "fpga"),
                "capacities": {
                    axis: float(cap)
                    for axis, cap in sorted(get_device(name).capacities().items())
                },
            }
            for name in list_devices()
        ],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _device_set_payload() -> Dict[str, object]:
    return {"names": list_devices(), "sha256": device_set_fingerprint()}


def _state_blob(model) -> bytes:
    """Serialize a model's state dict to npz bytes."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **model.state_dict())
    return buffer.getvalue()


def _model_dtype(model) -> np.dtype:
    dtype = np.dtype(np.float32)
    for param in model.parameters():
        dtype = np.promote_types(dtype, param.data.dtype)
    return dtype


def _config_payload(config: ModelConfig) -> Dict[str, object]:
    payload = asdict(config)
    payload["objectives"] = list(payload["objectives"])
    return payload


def _config_from_payload(payload: Dict[str, object]) -> ModelConfig:
    try:
        payload = dict(payload)
        payload["objectives"] = tuple(payload["objectives"])
        return ModelConfig(**payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed model config in manifest: {exc}") from None


def save_artifact(predictor, path) -> Dict[str, object]:
    """Write ``predictor`` as a versioned artifact directory at ``path``.

    Returns the manifest.  Existing artifacts at ``path`` are
    overwritten atomically at the manifest level: blobs are written
    first, the manifest last via temp file + ``os.replace``, so readers
    either see the old complete artifact or the new one.
    """
    path = Path(path)
    models = {
        "classifier": predictor.classifier,
        "regressor": predictor.regressor,
        "bram_regressor": predictor.bram_regressor,
    }
    for role, model in models.items():
        if getattr(model, "config", None) is None:
            raise ArtifactError(
                f"cannot save {role}: model {type(model).__name__} has no config"
            )
    factor = predictor.normalizer.normalization_factor
    if factor is None:
        raise ArtifactError("cannot save a predictor with an unfitted normalizer")

    (path / _BLOB_DIR).mkdir(parents=True, exist_ok=True)
    manifest: Dict[str, object] = {
        "format": ARTIFACT_FORMAT,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "vocab_sha256": vocab_fingerprint(),
        "node_dim": NODE_DIM,
        "edge_dim": EDGE_DIM,
        "normalization_factor": float(factor),
        "devices": _device_set_payload(),
        "models": {},
    }
    for role in _ROLES:
        model = models[role]
        blob = _state_blob(model)
        digest = hashlib.sha256(blob).hexdigest()
        blob_name = f"sha256-{digest}.npz"
        blob_path = path / _BLOB_DIR / blob_name
        if not blob_path.exists():
            tmp = blob_path.with_name(blob_path.name + f".tmp{os.getpid()}")
            tmp.write_bytes(blob)
            os.replace(tmp, blob_path)
        manifest["models"][role] = {
            "blob": f"{_BLOB_DIR}/{blob_name}",
            "sha256": digest,
            "dtype": str(_model_dtype(model)),
            "parameters": int(model.num_parameters()),
            "config": _config_payload(model.config),
        }
    text = json.dumps(manifest, indent=1, sort_keys=True)
    tmp = path / f"{_MANIFEST}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path / _MANIFEST)
    finally:
        tmp.unlink(missing_ok=True)
    return manifest


def read_manifest(path) -> Dict[str, object]:
    """Read and structurally validate an artifact manifest."""
    path = Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.is_file():
        raise ArtifactError(f"no artifact manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"unreadable manifest {manifest_path}: {exc}") from None
    if manifest.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"not a predictor artifact: format={manifest.get('format')!r}"
        )
    version = manifest.get("schema_version")
    if version != ARTIFACT_SCHEMA_VERSION:
        raise ArtifactError(
            f"artifact schema version {version!r} is not supported "
            f"(this build reads version {ARTIFACT_SCHEMA_VERSION}); "
            f"re-save the predictor with `repro save-model`"
        )
    missing = [r for r in _ROLES if r not in manifest.get("models", {})]
    if missing:
        raise ArtifactError(f"manifest missing models: {missing}")
    return manifest


def _load_blob(path: Path, entry: Dict[str, object]) -> Dict[str, np.ndarray]:
    blob_path = path / str(entry["blob"])
    if not blob_path.is_file():
        raise ArtifactError(f"missing weight blob {blob_path}")
    blob = blob_path.read_bytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != entry.get("sha256"):
        raise ArtifactError(
            f"corrupt weight blob {blob_path.name}: "
            f"sha256 {digest[:12]}… != manifest {str(entry.get('sha256'))[:12]}…"
        )
    with np.load(io.BytesIO(blob)) as data:
        return {name: data[name] for name in data.files}


def verify_artifact(path) -> Dict[str, object]:
    """Check an artifact's manifest and blob hashes without loading models.

    Also checks the recorded device set against this process's registry
    — offline verification must catch everything :func:`load_artifact`
    would refuse, not report a doomed artifact as healthy.
    """
    path = Path(path)
    manifest = read_manifest(path)
    _check_device_set(manifest)
    for role in _ROLES:
        _load_blob(path, manifest["models"][role])
    return manifest


def _check_device_set(manifest: Dict[str, object]) -> None:
    """Refuse a manifest saved under a different device registry."""
    devices = manifest.get("devices", {})
    if devices.get("sha256") != device_set_fingerprint():
        raise ArtifactError(
            f"artifact was saved against a different device set "
            f"({devices.get('names')}) than this process has registered "
            f"({list_devices()}); device-conditioned predictions would be "
            f"meaningless — retrain or re-save with the matching registry"
        )


def load_artifact(path, database: Optional[Database] = None):
    """Reconstruct a :class:`GNNDSEPredictor` from an artifact directory.

    ``database`` is only used to seed the predictor's dataset builder
    (useful when the caller will fine-tune); inference needs none and
    defaults to an empty database.
    """
    from ..model.predictor import GNNDSEPredictor

    path = Path(path)
    manifest = read_manifest(path)
    if manifest["vocab_sha256"] != vocab_fingerprint():
        raise ArtifactError(
            "artifact was trained against a different graph vocabulary/"
            "feature encoding; retrain or re-save with this build"
        )
    if (manifest["node_dim"], manifest["edge_dim"]) != (NODE_DIM, EDGE_DIM):
        raise ArtifactError(
            f"feature dims mismatch: artifact ({manifest['node_dim']}, "
            f"{manifest['edge_dim']}) vs build ({NODE_DIM}, {EDGE_DIM})"
        )
    _check_device_set(manifest)
    models = {}
    for role in _ROLES:
        entry = manifest["models"][role]
        config = _config_from_payload(entry["config"])
        state = _load_blob(path, entry)
        try:
            dtype = np.dtype(str(entry.get("dtype", "float32")))
        except TypeError:
            raise ArtifactError(
                f"bad dtype {entry.get('dtype')!r} for {role}"
            ) from None
        # Give the parameters the artifact's dtype before loading, so they
        # keep the exact precision they were saved with — predictions
        # must be bit-identical to the saved stack no matter what the
        # process's default dtype is.  The default itself is never
        # switched here: it is process-wide, and a serving thread that
        # compiled a template during a reload would compute at it.
        model = build_model(config, NODE_DIM, EDGE_DIM, seed=0)
        for param in model.parameters():
            param.data = param.data.astype(dtype)
        model.load_state_dict(state)
        model.eval()
        models[role] = model
    normalizer = TargetNormalizer(float(manifest["normalization_factor"]))
    builder = GraphDatasetBuilder(database or Database(), normalizer=normalizer)
    return GNNDSEPredictor(
        models["classifier"],
        models["regressor"],
        models["bram_regressor"],
        normalizer,
        builder,
    )


def artifact_fingerprint(manifest: Dict[str, object]) -> str:
    """Stable content identity of one artifact (the *model version hash*).

    Derived only from what determines the predictions — the per-role
    weight-blob hashes, the normalization factor, and the schema/vocab
    pins — so re-saving identical weights yields the same fingerprint
    and any weight change yields a new one.  This is the hash served in
    ``/v1/model`` and stamped on every prediction response.
    """
    payload = json.dumps(
        {
            "schema_version": manifest["schema_version"],
            "vocab_sha256": manifest["vocab_sha256"],
            "devices_sha256": manifest.get("devices", {}).get("sha256"),
            "normalization_factor": manifest["normalization_factor"],
            "models": {
                role: entry["sha256"]
                for role, entry in manifest["models"].items()
            },
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# versioned registry with an atomic `current` pointer


_VERSIONS_DIR = "versions"
_CURRENT = "current"
_VERSION_META = "registry-meta.json"


@dataclass
class ArtifactVersion:
    """One published version in a :class:`ModelRegistry`."""

    version: str  # "v0001"
    path: Path  # artifact directory
    sha256: str  # artifact_fingerprint of the manifest
    created: float  # unix timestamp recorded at publish time
    schema_version: int

    def payload(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "sha256": self.sha256,
            "created": self.created,
            "schema_version": self.schema_version,
            "path": str(self.path),
        }


def _fsync_dir(path: Path) -> None:
    """Force a directory entry update (a rename) to stable storage."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ModelRegistry:
    """Versioned artifact directory with an atomic ``current`` pointer.

    Writers only ever *add* version directories and then flip the
    pointer (symlink when the platform supports it, an atomically
    replaced pointer file otherwise).  Readers resolve the pointer and
    load a complete artifact; a crash between "artifact written" and
    "pointer flipped" leaves the previous version current.
    """

    def __init__(self, root):
        self.root = Path(root)

    # -- layout ----------------------------------------------------------------

    @property
    def versions_dir(self) -> Path:
        return self.root / _VERSIONS_DIR

    @property
    def current_pointer(self) -> Path:
        return self.root / _CURRENT

    @staticmethod
    def is_registry(path) -> bool:
        """Does ``path`` look like a registry (vs a bare artifact dir)?"""
        path = Path(path)
        return (path / _VERSIONS_DIR).is_dir() or (path / _CURRENT).exists() or (
            path / _CURRENT
        ).is_symlink()

    def _version_info(self, path: Path) -> ArtifactVersion:
        manifest = read_manifest(path)
        created = 0.0
        meta_path = path / _VERSION_META
        if meta_path.is_file():
            try:
                created = float(json.loads(meta_path.read_text())["created"])
            except (ValueError, KeyError, json.JSONDecodeError):
                created = 0.0
        return ArtifactVersion(
            version=path.name,
            path=path,
            sha256=artifact_fingerprint(manifest),
            created=created,
            schema_version=int(manifest["schema_version"]),
        )

    # -- reads -----------------------------------------------------------------

    def versions(self) -> List[ArtifactVersion]:
        """All published versions, oldest first."""
        if not self.versions_dir.is_dir():
            return []
        out = []
        for path in sorted(self.versions_dir.iterdir()):
            if path.is_dir() and (path / _MANIFEST).is_file():
                out.append(self._version_info(path))
        return out

    def current_version_name(self) -> Optional[str]:
        """The version name ``current`` points at, or None."""
        pointer = self.current_pointer
        if pointer.is_symlink():
            return Path(os.readlink(pointer)).name
        if pointer.is_file():
            name = pointer.read_text().strip()
            return name or None
        return None

    def current(self) -> Optional[ArtifactVersion]:
        """Resolve the ``current`` pointer to a complete artifact."""
        name = self.current_version_name()
        if name is None:
            return None
        path = self.versions_dir / name
        if not (path / _MANIFEST).is_file():
            raise ArtifactError(
                f"registry {self.root}: current points at {name!r} "
                f"but no artifact manifest exists there"
            )
        return self._version_info(path)

    # -- writes ----------------------------------------------------------------

    def _next_version_name(self) -> str:
        taken = []
        if self.versions_dir.is_dir():
            for path in self.versions_dir.iterdir():
                name = path.name
                if name.startswith("v") and name[1:].isdigit():
                    taken.append(int(name[1:]))
        return f"v{(max(taken) + 1 if taken else 1):04d}"

    def set_current(self, version: str) -> None:
        """Atomically flip ``current`` to ``version`` (symlink-or-rename).

        The new pointer is created under a temp name and moved over the
        old one with ``os.replace``; the registry directory is fsynced
        so the rename is durable.  Readers therefore observe either the
        old pointer or the new one — never a missing or torn pointer.
        """
        target = self.versions_dir / version
        if not (target / _MANIFEST).is_file():
            raise ArtifactError(f"registry {self.root}: no artifact at {target}")
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.root / f".{_CURRENT}.tmp{os.getpid()}"
        tmp.unlink(missing_ok=True)
        try:
            try:
                os.symlink(os.path.join(_VERSIONS_DIR, version), tmp)
            except (OSError, NotImplementedError):
                # Filesystems without symlinks get a pointer file with
                # identical atomic-replace semantics.
                with open(tmp, "w") as handle:
                    handle.write(version)
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, self.current_pointer)
        finally:
            tmp.unlink(missing_ok=True)
        _fsync_dir(self.root)

    def publish(
        self,
        predictor,
        activate: bool = True,
        created: Optional[float] = None,
    ) -> ArtifactVersion:
        """Write ``predictor`` as the next version; optionally activate it.

        The artifact is fully written and hash-verified *before* the
        ``current`` pointer moves, so concurrent readers can never load
        a half-written model.
        """
        self.versions_dir.mkdir(parents=True, exist_ok=True)
        version = self._next_version_name()
        path = self.versions_dir / version
        manifest = save_artifact(predictor, path)
        verify_artifact(path)
        meta = {
            "version": version,
            "created": float(created if created is not None else time.time()),
            "sha256": artifact_fingerprint(manifest),
        }
        tmp = path / f"{_VERSION_META}.tmp{os.getpid()}"
        try:
            with open(tmp, "w") as handle:
                json.dump(meta, handle, indent=1)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path / _VERSION_META)
        finally:
            tmp.unlink(missing_ok=True)
        if activate:
            self.set_current(version)
        return self._version_info(path)
