"""Database-generation runner (Fig. 2 end to end).

Builds the initial training database by running the three explorers of
Section 4.1 on every training kernel: AutoDSE's bottleneck search, the
hybrid bottleneck + local search, and random sampling.  All three are
budgeted strategies (:mod:`repro.dse.strategies`) stepped by one
:class:`~repro.dse.race.StrategyRacer` on one
:class:`~repro.dse.strategies.BudgetedEvaluator` per kernel, scored by
the HLS tool's :class:`~repro.explorer.evaluator.Evaluator`, so a later
phase gets a point an earlier one paid for free.  Per-kernel
evaluation targets default to (a scaled version of) the paper's
Table 1 initial-database sizes, split across the explorers.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..designspace.generator import build_design_space
from ..hls.tool import MerlinHLSTool
from ..kernels import TRAINING_KERNELS, get_kernel
from .database import Database
from .evaluator import Evaluator

__all__ = ["DEFAULT_TARGETS", "GENERATOR_REVISION", "generate_database"]

#: Bumped whenever :func:`generate_database` would write other records
#: for the same arguments, so caches keyed on it are rebuilt.
#: 2: the hybrid's neighbour step stops when the budget runs out.
GENERATOR_REVISION = 2

#: Target evaluated-design counts per kernel, from Table 1's initial DB.
DEFAULT_TARGETS: Dict[str, int] = {
    "aes": 15,
    "atax": 605,
    "gemm-blocked": 616,
    "gemm-ncubed": 432,
    "mvt": 571,
    "spmv-crs": 98,
    "spmv-ellpack": 114,
    "stencil": 1066,
    "nw": 911,
}

#: Fraction of each kernel's budget given to (bottleneck, hybrid, random).
_SPLIT = (0.25, 0.30, 0.45)


def generate_database(
    kernels=None,
    targets: Optional[Dict[str, int]] = None,
    tool: Optional[MerlinHLSTool] = None,
    database: Optional[Database] = None,
    scale: float = 1.0,
    seed: int = 0,
    fit_threshold: float = 0.8,
) -> Database:
    """Run the three explorers on every kernel; return the shared DB.

    Parameters
    ----------
    kernels:
        Kernel names (defaults to the nine training kernels).
    targets:
        Per-kernel evaluation targets (defaults to Table 1 counts).
    scale:
        Multiplier on all targets, for fast test/CI runs.
    """
    # Imported here: repro.dse imports the model, which imports this package.
    from ..dse.race import StrategyRacer
    from ..dse.strategies import (
        BottleneckStrategy,
        BudgetedEvaluator,
        QueryBudget,
        SweepStrategy,
    )

    kernels = list(kernels or TRAINING_KERNELS)
    targets = dict(targets or DEFAULT_TARGETS)
    tool = tool or MerlinHLSTool()
    database = database if database is not None else Database()

    for index, name in enumerate(kernels):
        spec = get_kernel(name)
        space = build_design_space(spec)
        target = max(int(targets.get(name, 200) * scale), 4)
        space_size = space.product_size()
        target = min(target, space_size)
        counts = [max(int(target * f), 1) for f in _SPLIT]

        before = database.stats(kernel=name)["total"]
        evaluator = Evaluator(tool, database)
        budget = QueryBudget(counts[0])
        search = BudgetedEvaluator(
            evaluator, spec, space, budget, fit_threshold=fit_threshold, device=tool.device
        )
        evaluator.source = "bottleneck"
        StrategyRacer(search, [BottleneckStrategy(search)]).run()
        # Limits are cumulative: the hybrid gets what the bottleneck left.
        evaluator.source = "hybrid"
        budget.limit = counts[0] + counts[1]
        hybrid = BottleneckStrategy(search, seed + index + 100, hybrid=True)
        StrategyRacer(search, [hybrid]).run()
        remaining = target - (database.stats(kernel=name)["total"] - before)
        if remaining > 0:
            # Up to 20 draws per wanted point; known designs are skipped.
            rng = random.Random(seed + index + 200)
            draws = (space.sample(rng, 1)[0] for _ in range(remaining * 20))
            fresh = (p for p in draws if not database.has(name, p, tool.device.name))
            evaluator.source = "random"
            budget.limit = budget.spent + remaining
            StrategyRacer(search, [SweepStrategy(search, fresh)]).run()
    return database
