"""Resumable checkpoint for the active-learning loop.

:class:`LoopState` is the loop's journal, a
:class:`~repro.durable.Journal` (the format it shares with
:class:`~repro.dse.parallel.DSECheckpoint`): an atomically-rewritten
JSON file recording the loop configuration fingerprint, the baseline
evaluation, and one entry per *completed* round (selection counts,
held-out metrics, and which artifact version ended up serving).  A
killed loop rerun with ``resume=True`` validates the fingerprint,
reloads the database and the last-published artifact, and restarts at
the first incomplete round — every step in a round is deterministic
given (seed, database, predictor), so the resumed run converges to the
same database and artifact chain as an uninterrupted one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..durable import Journal, json_digest
from ..errors import LoopError

__all__ = ["LoopState", "LOOP_STATE_SCHEMA_VERSION"]

#: Bump when the journal layout changes incompatibly.
LOOP_STATE_SCHEMA_VERSION = 1


class LoopState(Journal):
    """Atomic JSON journal of completed active-learning rounds.

    The file is rewritten durably (:func:`~repro.durable.atomic_write`)
    after the baseline and after every completed round, so at any kill
    point it is either the previous or the new complete journal.  A
    truncated file, a schema mismatch, or a fingerprint mismatch
    (different kernels/budget/seed/…) raises
    :class:`~repro.errors.LoopError` on resume.
    """

    noun = "loop state"
    error = LoopError
    schema_version = LOOP_STATE_SCHEMA_VERSION
    required = ("fingerprint", "database_path", "registry_root", "baseline",
                "completed")
    completed_type = list

    @staticmethod
    def fingerprint(signature: Dict[str, object]) -> str:
        return json_digest(signature)

    def validate(self, fingerprint: str) -> Dict[str, object]:
        """Load and check the journal belongs to THIS loop configuration."""
        raw = self.load()
        if raw["fingerprint"] != fingerprint:
            raise LoopError(
                f"loop state {self.path} was written by a different loop "
                "configuration (kernels/rounds/budget/seed mismatch); "
                "delete it or rerun with the original arguments"
            )
        return raw

    def write(
        self,
        fingerprint: str,
        database_path: str,
        registry_root: str,
        baseline: Optional[Dict[str, object]],
        completed: List[Dict[str, object]],
    ) -> None:
        self._write({
            "fingerprint": fingerprint,
            "database_path": str(database_path),
            "registry_root": str(registry_root),
            "baseline": baseline,
            "completed": completed,
        })
