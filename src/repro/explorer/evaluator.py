"""Evaluator: the HLS tool wrapped with database commit and accounting.

Implements the Evaluator box of Fig. 2.  Every evaluation is committed
to the shared database, and simulated tool wall-clock is accumulated so
searches can run against the same time budgets the paper uses (e.g.
AutoDSE's 21 hours with a fixed number of parallel workers).  Its
:meth:`~Evaluator.predict_batch` makes it a scorer for
:class:`~repro.dse.strategies.BudgetedEvaluator`, so HLS-in-the-loop
searches are the same budgeted strategies the surrogate runs.
"""

from __future__ import annotations

from typing import List

from ..designspace.space import DesignPoint
from ..hls.report import HLSResult
from ..hls.tool import MerlinHLSTool
from ..kernels import get_kernel
from ..kernels.base import KernelSpec
from .database import Database, DesignRecord

__all__ = ["Evaluator"]


class Evaluator:
    """HLS evaluation with database commit and simulated-time tracking.

    Parameters
    ----------
    tool:
        The (simulated) Merlin+HLS tool.
    database:
        Shared design database to commit results into.
    parallelism:
        Number of concurrent synthesis jobs the flow may run — AutoDSE
        evaluates a batch of candidates in parallel, so elapsed time is
        total synthesis seconds divided by this, batch-wise.

    :attr:`source` is the tag :meth:`predict_batch` commits records with
    (which explorer produced them); set it before each search.
    """

    def __init__(self, tool: MerlinHLSTool, database: Database, parallelism: int = 8):
        self.tool = tool
        self.database = database
        self.parallelism = max(parallelism, 1)
        self.synth_seconds_total = 0.0
        self.elapsed_seconds = 0.0
        self.evaluations = 0
        self._batch_slots = [0.0] * self.parallelism
        self.source = ""

    def evaluate(
        self,
        spec: KernelSpec,
        point: DesignPoint,
        source: str = "",
        round: int = 0,
        created: float = 0.0,
    ) -> HLSResult:
        """Synthesize one point and commit the outcome to the database."""
        result = self.tool.synthesize(spec, point)
        self.evaluations += 1
        self.synth_seconds_total += result.synth_seconds
        # Greedy multi-worker schedule: assign to the earliest-free slot.
        slot = min(range(self.parallelism), key=lambda i: self._batch_slots[i])
        self._batch_slots[slot] += result.synth_seconds
        self.elapsed_seconds = max(self._batch_slots)
        record = DesignRecord.from_result(
            result, point, source=source, round=round, created=created
        )
        self.database.add(record)
        return result

    def predict_batch(
        self, kernel: str, points: List[DesignPoint], objectives_for: str = "all"
    ) -> List[HLSResult]:
        """Synthesize and commit each point in order, tagged :attr:`source`.

        The scorer call :class:`~repro.dse.strategies.BudgetedEvaluator`
        makes; ``kernel`` is a registered kernel name, and the tool
        reports every objective whatever ``objectives_for`` asks.
        """
        spec = get_kernel(kernel)
        return [self.evaluate(spec, point, source=self.source) for point in points]

    @property
    def elapsed_hours(self) -> float:
        return self.elapsed_seconds / 3600.0
