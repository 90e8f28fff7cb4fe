"""Durable writes: every file the program reads back is written here.

The labelled database, artifact manifests and weight blobs, registry
metadata and its ``current`` pointer, the DSE checkpoint, the loop
journal and cached experiment results all go through
:func:`atomic_write` (or :func:`atomic_pointer`).  Each writes a
per-process temp sibling, fsyncs it, renames it over the target and
fsyncs the directory, so a crash at any point leaves either the old
complete file or the new one, never a torn file or a stray temp file.

:func:`json_digest` is the one content fingerprint (sha256 over
sort-keyed JSON), and :class:`Journal` the one resume-journal format
behind :class:`~repro.dse.parallel.DSECheckpoint` and
:class:`~repro.loop.state.LoopState`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Dict, Union

__all__ = ["Journal", "atomic_pointer", "atomic_write", "json_digest"]


def json_digest(obj) -> str:
    """SHA-256 hex digest of ``obj`` as sort-keyed JSON."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _fsync_dir(path: str) -> None:
    """Force a directory entry update (a rename) to stable storage."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _commit(path, create) -> None:
    """Create a per-process temp sibling of ``path`` with ``create(tmp)``,
    rename it over ``path`` and fsync the directory; the temp file never
    outlives a failure."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.tmp{os.getpid()}")
    try:
        create(tmp)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    _fsync_dir(directory or ".")


def _write_synced(tmp: str, data: bytes) -> None:
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def atomic_write(path, data: Union[bytes, str]) -> None:
    """Replace ``path`` with ``data`` (``str`` is UTF-8 encoded) atomically
    and durably."""
    data = data.encode() if isinstance(data, str) else data
    _commit(path, lambda tmp: _write_synced(tmp, data))


def atomic_pointer(path, target: str) -> None:
    """Atomically and durably point ``path`` at ``target`` (relative to
    its directory): a symlink where the filesystem has them, otherwise a
    file holding ``target``.  Readers take the last component of either.
    """

    def create(tmp: str) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)  # left by a crashed process with our pid
        try:
            os.symlink(target, tmp)
        except (OSError, NotImplementedError):
            _write_synced(tmp, target.encode())

    _commit(path, create)


class Journal:
    """An atomically rewritten JSON resume journal, strictly loaded.

    Subclasses name the file (``noun``), the error they raise
    (``error``), the schema version they write, the fields a complete
    journal has, and the JSON type of its ``completed`` entry.  A
    truncated or hand-edited file, a schema mismatch or a missing field
    raises ``error`` with a message naming the file and the fault.
    """

    noun: str
    error: type
    schema_version: int
    required: tuple
    completed_type: type

    def __init__(self, path):
        self.path = os.fspath(path)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self) -> Dict[str, object]:
        """Parse and structurally validate the journal (not its fingerprint)."""
        where = f"{self.noun} {self.path}"
        try:
            with open(self.path, "r") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise self.error(f"cannot read {where}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise self.error(
                f"{where} is corrupt or half-written "
                f"(invalid JSON at line {exc.lineno}); delete it to start fresh"
            ) from None
        if not isinstance(raw, dict):
            raise self.error(f"{where}: expected a JSON object")
        version = raw.get("schema_version")
        if version != self.schema_version:
            raise self.error(
                f"{where}: schema v{version!r} unsupported "
                f"(this build writes v{self.schema_version})"
            )
        for key in self.required:
            if key not in raw:
                raise self.error(
                    f"{where} is corrupt or half-written "
                    f"(missing field {key!r}); delete it to start fresh"
                )
        if not isinstance(raw["completed"], self.completed_type):
            kind = "an object" if self.completed_type is dict else "a list"
            raise self.error(f"{where}: 'completed' must be {kind}")
        return raw

    def _write(self, fields: Dict[str, object]) -> None:
        """Durably replace the journal with ``fields`` under this schema."""
        payload = {"schema_version": self.schema_version, **fields}
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        atomic_write(self.path, json.dumps(payload, indent=1) + "\n")
