"""Database generation and the HLS-in-the-loop scorer (Section 4.1).

:class:`Evaluator` wraps the HLS tool with database commit and
simulated-time accounting; it is a scorer for
:class:`~repro.dse.strategies.BudgetedEvaluator`, so AutoDSE's
bottleneck search (:class:`~repro.dse.strategies.BottleneckStrategy`)
and random sampling run on the same budgeted search core as the
surrogate-driven DSE.  :func:`generate_database` runs the three
explorers of Fig. 2 (bottleneck, hybrid bottleneck + local search, and
random) over the training kernels into the shared :class:`Database`.
"""

from .coverage import CoverageReport, KnobCoverage, measure_coverage
from .database import Database, DesignRecord, deserialize_point, serialize_point
from .evaluator import Evaluator
from .runner import DEFAULT_TARGETS, GENERATOR_REVISION, generate_database

__all__ = [
    "CoverageReport",
    "KnobCoverage",
    "measure_coverage",
    "Database",
    "DesignRecord",
    "deserialize_point",
    "serialize_point",
    "Evaluator",
    "DEFAULT_TARGETS",
    "GENERATOR_REVISION",
    "generate_database",
]
