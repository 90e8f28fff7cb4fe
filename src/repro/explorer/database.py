"""The shared design database (Fig. 2's "Training Database").

Stores one :class:`DesignRecord` per (kernel, design point) with the
HLS outcome, which explorer produced it, and in which DSE round it was
added (round 0 = initial database, rounds 1+ = Fig. 7 augmentation).
JSON-serialisable for persistence.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..designspace.space import DesignPoint, point_key
from ..durable import atomic_write
from ..errors import DatabaseError
from ..frontend.pragmas import PipelineOption
from ..hls.device import DEFAULT_DEVICE
from ..hls.report import HLSResult

__all__ = ["DesignRecord", "Database", "serialize_point", "deserialize_point"]


def serialize_point(point: DesignPoint) -> Dict[str, object]:
    """JSON-friendly form of a design point."""
    out = {}
    for name, value in point.items():
        out[name] = value.value if isinstance(value, PipelineOption) else int(value)
    return out


def deserialize_point(raw: Dict[str, object]) -> DesignPoint:
    """Inverse of :func:`serialize_point`."""
    out: DesignPoint = {}
    for name, value in raw.items():
        if isinstance(value, str):
            out[name] = PipelineOption(value)
        else:
            out[name] = int(value)
    return out


@dataclass
class DesignRecord:
    """One evaluated design point."""

    kernel: str
    point: Dict[str, object]  # serialized form
    point_key: str
    valid: bool
    latency: int
    utilization: Dict[str, float]
    synth_seconds: float
    invalid_reason: Optional[str] = None
    source: str = ""  # which explorer produced it
    round: int = 0  # 0 = initial DB; 1+ = DSE augmentation rounds
    created: float = 0.0  # unix timestamp the label was committed (0 = unknown)
    #: Registered device the label was synthesized for.  "" (records
    #: predating device provenance) means the reference device.
    device: str = ""

    @property
    def design_point(self) -> DesignPoint:
        return deserialize_point(self.point)

    def objectives(self) -> Dict[str, float]:
        return {"latency": float(self.latency), **self.utilization}

    @staticmethod
    def from_result(
        result: HLSResult,
        point: DesignPoint,
        source: str = "",
        round: int = 0,
        created: float = 0.0,
    ) -> "DesignRecord":
        return DesignRecord(
            kernel=result.kernel,
            point=serialize_point(point),
            point_key=result.point_key,
            valid=result.valid,
            latency=result.latency,
            utilization=dict(result.utilization),
            synth_seconds=result.synth_seconds,
            invalid_reason=result.invalid_reason,
            source=source,
            round=round,
            created=created,
            device=getattr(result, "device", ""),
        )


def _record_key(kernel: str, device: str, key: str) -> Tuple[str, str, str]:
    """Canonical record key: "" device provenance means the reference
    device, so legacy records and explicit reference-device records
    collide (they label the same synthesis run)."""
    return (kernel, device or DEFAULT_DEVICE.name, key)


class Database:
    """Keyed store of design records, shared across applications.

    Records are keyed by (kernel, device, point), so the same design
    point synthesized for two different targets is two records.
    """

    def __init__(self):
        self._records: Dict[Tuple[str, str, str], DesignRecord] = {}
        #: How many records a newer-round label has replaced (via
        #: :meth:`add` or :meth:`merge`).  Not persisted — it describes
        #: this in-memory instance's mutation history.
        self.overwrites = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[DesignRecord]:
        return iter(self._records.values())

    def __contains__(self, key: Tuple[str, ...]) -> bool:
        # Accept legacy (kernel, point_key) pairs — they mean the
        # reference device — alongside full (kernel, device, point_key)
        # triples.
        if len(key) == 2:
            return _record_key(key[0], "", key[1]) in self._records
        return _record_key(*key) in self._records

    def has(self, kernel: str, point: DesignPoint, device: str = "") -> bool:
        return _record_key(kernel, device, point_key(point)) in self._records

    def add(self, record: DesignRecord) -> bool:
        """Insert a record; returns False when the point was already known.

        Conflict semantics: when the same (kernel, point) arrives again
        from a *later* round — e.g. the active-learning loop re-labels a
        point the seed database already had — the newer label wins and
        :attr:`overwrites` is incremented.  A duplicate from the same or
        an earlier round keeps the existing record (first-write-wins
        within a round, so re-running a round is idempotent).  Returns
        True only for genuinely new points.
        """
        key = _record_key(record.kernel, record.device, record.point_key)
        existing = self._records.get(key)
        if existing is not None:
            if record.round > existing.round:
                self._records[key] = record
                self.overwrites += 1
            return False
        self._records[key] = record
        return True

    def get(self, kernel: str, key: str, device: str = "") -> DesignRecord:
        try:
            return self._records[_record_key(kernel, device, key)]
        except KeyError:
            name = device or DEFAULT_DEVICE.name
            raise DatabaseError(f"no record for {kernel}/{name}/{key}") from None

    def for_kernel(self, kernel: str) -> List[DesignRecord]:
        return [r for r in self._records.values() if r.kernel == kernel]

    def kernels(self) -> List[str]:
        return sorted({r.kernel for r in self._records.values()})

    def valid_records(self, kernel: Optional[str] = None) -> List[DesignRecord]:
        return [
            r
            for r in self._records.values()
            if r.valid and (kernel is None or r.kernel == kernel)
        ]

    def best_valid(self, kernel: str, fit_threshold: float = 0.8) -> Optional[DesignRecord]:
        """Lowest-latency valid record that fits the device budget."""
        candidates = [
            r
            for r in self.valid_records(kernel)
            if all(u < fit_threshold for u in r.utilization.values())
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda r: r.latency)

    def stats(self, kernel: Optional[str] = None, max_round: Optional[int] = None) -> Dict[str, int]:
        """(total, valid) counts, optionally filtered by kernel/round."""
        records = [
            r
            for r in self._records.values()
            if (kernel is None or r.kernel == kernel)
            and (max_round is None or r.round <= max_round)
        ]
        return {"total": len(records), "valid": sum(1 for r in records if r.valid)}

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Atomically and durably write the database as JSON
        (:func:`~repro.durable.atomic_write`).

        A crash mid-write (out of disk, SIGKILL, power loss) can never
        leave a truncated database — the previous file survives intact
        until the rename commits.
        """
        atomic_write(path, json.dumps([asdict(r) for r in self._records.values()], indent=1))

    @staticmethod
    def load(path) -> "Database":
        db = Database()
        for raw in json.loads(Path(path).read_text()):
            db.add(DesignRecord(**raw))
        return db

    def merge(self, other: "Database") -> int:
        """Add all records from ``other``; returns how many were new.

        Conflicts follow :meth:`add`: a colliding record from a later
        round replaces the existing label (counted in
        :attr:`overwrites`) but does not count as new.
        """
        added = 0
        for record in other:
            if self.add(record):
                added += 1
        return added
