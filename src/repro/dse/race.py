"""Multi-armed strategy racing under one shared surrogate-query budget.

No single search strategy wins on every kernel: annealing mines deep
basins, greedy sprints to the nearest optimum, the RL policy learns
kernel-specific edit sequences, and random sampling keeps the frontier
spread.  :class:`StrategyRacer` runs them all against **one**
:class:`~repro.dse.strategies.BudgetedEvaluator` — shared memo, shared
top-M, shared Pareto front — and reallocates the remaining budget
round-by-round with a UCB bandit whose reward is each arm's *recent
new-Pareto-point yield per query*.  Budget flows to whichever strategy
is currently producing frontier progress; arms that stop paying rent
decay to exploration-only plays and die once they cannot spend at all.

The race is deterministic end-to-end for a fixed seed: arm order,
grant sizes, the UCB tie-break, and every strategy's internal RNG
stream are all pinned, so the budget ledger — one row per round with
the strategy, spend, and yield — is bit-reproducible.

:meth:`StrategyRacer.run` is the repo's one search loop: it also steps
:class:`~repro.dse.search.ModelDSE`'s sweep and beam and every
:class:`~repro.dse.parallel.ParallelDSE` shard as one-arm races, and
is the only place a serial search reads the clock.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError
from .search import DSEResult
from .strategies import (
    BudgetedEvaluator,
    QueryBudget,
    SearchStrategy,
    StepOutcome,
    build_strategy,
)

__all__ = ["DEFAULT_ARMS", "RaceRound", "RaceResult", "StrategyRacer", "run_race"]

#: Default arm lineup, in deterministic play order.
DEFAULT_ARMS = ("sa", "greedy", "rl", "random")


@dataclass
class RaceRound:
    """One ledger row: what one bandit play granted and bought."""

    index: int
    strategy: str
    granted: int
    queries: int
    new_pareto: int
    stalled: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "round": self.index,
            "strategy": self.strategy,
            "granted": self.granted,
            "queries": self.queries,
            "new_pareto": self.new_pareto,
            "stalled": self.stalled,
        }


@dataclass
class RaceResult:
    """Outcome of one race: the shared frontier plus the budget ledger."""

    kernel: str
    budget: int
    queries: int
    seconds: float
    rounds: List[RaceRound]
    totals: Dict[str, StepOutcome]
    top: list
    pareto: list
    time_limited: bool = False  #: the deadline stopped it with budget left

    def ledger(self) -> List[Dict[str, object]]:
        return [r.to_dict() for r in self.rounds]

    def summary(self) -> Dict[str, object]:
        """JSON-ready per-arm totals + ledger (the payload's `race` field)."""
        return {
            "budget": self.budget,
            "queries": self.queries,
            "rounds": self.ledger(),
            "strategies": {
                name: {
                    "queries": outcome.queries,
                    "new_pareto": outcome.new_pareto,
                    "proposals": outcome.proposals,
                }
                for name, outcome in self.totals.items()
            },
        }

    def as_dse_result(self, stats=None) -> DSEResult:
        """The race as a :class:`DSEResult` carrying :meth:`summary`;
        its ``strategy`` is the arm's name when one arm ran alone, else
        ``"race"``."""
        arms = list(self.totals)
        return DSEResult(
            kernel=self.kernel,
            top=self.top,
            explored=self.queries,
            seconds=self.seconds,
            exhaustive=False,
            predictions_per_second=self.queries / self.seconds
            if self.seconds > 0
            else 0.0,
            stats=stats,
            pareto=self.pareto,
            strategy=arms[0] if len(arms) == 1 else "race",
            race=self.summary(),
            time_limited=self.time_limited,
        )


class _Arm:
    """Bandit bookkeeping for one strategy."""

    def __init__(self, strategy: SearchStrategy, window: int):
        self.strategy = strategy
        self.window = window
        self.plays = 0
        self.recent: List[StepOutcome] = []
        self.total = StepOutcome()
        self.zero_spend_streak = 0

    @property
    def name(self) -> str:
        return self.strategy.name

    @property
    def dead(self) -> bool:
        return self.zero_spend_streak >= 2

    def record(self, outcome: StepOutcome) -> None:
        self.plays += 1
        self.recent.append(outcome)
        if len(self.recent) > self.window:
            self.recent.pop(0)
        self.total.merge(outcome)
        if outcome.queries == 0:
            self.zero_spend_streak += 1
        else:
            self.zero_spend_streak = 0

    def yield_rate(self) -> float:
        """New Pareto points per query over the recent window."""
        queries = sum(o.queries for o in self.recent)
        if queries == 0:
            return 0.0
        return sum(o.new_pareto for o in self.recent) / queries


class StrategyRacer:
    """UCB budget reallocation across search strategies.

    Parameters
    ----------
    evaluator:
        The shared budgeted evaluator all arms probe through.
    strategies:
        Arm instances (or names resolved via
        :func:`~repro.dse.strategies.build_strategy`), played in the
        given order for the warm-up round-robin.
    round_budget:
        Queries granted per bandit play.
    ucb_c:
        Exploration constant of the UCB score
        ``yield + c * sqrt(ln(t) / plays)``.
    window:
        Recent plays per arm considered for the yield estimate (the
        frontier saturates, so old yield must age out).
    """

    def __init__(
        self,
        evaluator: BudgetedEvaluator,
        strategies: Sequence,
        round_budget: int = 32,
        ucb_c: float = 0.5,
        window: int = 8,
        seed: int = 0,
    ):
        if not strategies:
            raise ReproError("racer needs at least one strategy")
        self.evaluator = evaluator
        built = [
            s if isinstance(s, SearchStrategy) else build_strategy(s, evaluator, seed)
            for s in strategies
        ]
        names = [s.name for s in built]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate strategy arms: {names}")
        self.arms = [_Arm(s, window) for s in built]
        self.round_budget = max(int(round_budget), 1)
        self.ucb_c = ucb_c

    def _pick(self) -> Optional[_Arm]:
        alive = [arm for arm in self.arms if not arm.dead]
        if not alive:
            return None
        # Warm-up: play every arm once, in lineup order.
        for arm in alive:
            if arm.plays == 0:
                return arm
        total_plays = sum(arm.plays for arm in alive)
        best, best_score = None, -float("inf")
        for arm in alive:  # lineup order is the deterministic tie-break
            score = arm.yield_rate() + self.ucb_c * math.sqrt(
                math.log(total_plays) / arm.plays
            )
            if score > best_score:
                best, best_score = arm, score
        return best

    def run(self, deadline: Optional[float] = None) -> RaceResult:
        """Play rounds until the budget is spent or every arm is dead.

        ``deadline`` (absolute ``time.monotonic()``; None = none) is read
        after each round that spent queries while budget is left, so a
        finished sweep, a stalled beam, a spent budget or all arms dead
        never counts as ``time_limited``, and the clock never changes a
        round.
        """
        budget = self.evaluator.budget
        rounds: List[RaceRound] = []
        start = time.monotonic()
        time_limited = False
        while not budget.exhausted:
            arm = self._pick()
            if arm is None:
                break
            grant = min(self.round_budget, budget.remaining)
            outcome = arm.strategy.step(grant)
            arm.record(outcome)
            rounds.append(
                RaceRound(
                    index=len(rounds),
                    strategy=arm.name,
                    granted=grant,
                    queries=outcome.queries,
                    new_pareto=outcome.new_pareto,
                    stalled=outcome.stalled,
                )
            )
            if (
                deadline is not None
                and outcome.queries
                and not budget.exhausted
                and time.monotonic() > deadline
            ):
                time_limited = True
                break
        return RaceResult(
            kernel=self.evaluator.spec.name,
            budget=budget.limit,
            queries=budget.spent,
            seconds=time.monotonic() - start,
            rounds=rounds,
            totals={arm.name: arm.total for arm in self.arms},
            top=list(self.evaluator.frontier.top),
            pareto=list(self.evaluator.frontier.pareto),
            time_limited=time_limited,
        )


def run_race(
    pipeline,
    spec,
    space,
    budget: int,
    strategies: Sequence[str] = DEFAULT_ARMS,
    top_m: int = 10,
    seed: int = 0,
    round_budget: int = 32,
    time_limit_seconds: Optional[float] = None,
) -> RaceResult:
    """Build the shared evaluator on ``pipeline`` and race ``strategies``.

    A single-entry ``strategies`` list degenerates to running that
    strategy alone under the whole budget — exactly how the quality
    benchmark produces its SA baseline and how a DSE request naming one
    arm runs, so baseline and race share every line of evaluation code.
    :func:`repro.dse.run.run_dse` calls this for every budgeted
    strategy and returns :meth:`RaceResult.as_dse_result`.
    ``time_limit_seconds`` (None = none) caps the race's wall clock.
    """
    deadline = None if time_limit_seconds is None else time.monotonic() + time_limit_seconds
    evaluator = BudgetedEvaluator(
        pipeline, spec, space, QueryBudget(budget), top_m=top_m
    )
    racer = StrategyRacer(
        evaluator, strategies, round_budget=round_budget, seed=seed
    )
    return racer.run(deadline)
