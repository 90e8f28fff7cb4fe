"""Budgeted search strategies over one shared surrogate-query ledger.

Every model-driven search in the repo is a :class:`SearchStrategy`
stepped by :meth:`~repro.dse.race.StrategyRacer.run` on a
:class:`BudgetedEvaluator`: the meta-searcher races simulated
annealing, bottleneck-style greedy hill climbing, the RL policy
explorer and random sampling under **one** query budget;
:class:`~repro.dse.search.ModelDSE` runs the exhaustive sweep
(:class:`SweepStrategy`) or the paper's ordered-pragma beam
(:class:`OrderedBeamStrategy`) as a one-arm race; and every
:class:`~repro.dse.parallel.ParallelDSE` shard is a sweep over its
points.  Everything they share lives here:

- :class:`QueryBudget` — the hard cap on *distinct* design points
  pushed through the surrogate.  Revisits are served from the shared
  memo for free (exactly how the evaluation pipeline's point cache
  behaves), so strategies compete on model compute, not on how often
  they re-probe known points.
- :class:`BudgetedEvaluator` — batches candidate points through the
  :class:`~repro.dse.pipeline.EvaluationPipeline` in lockstep (one
  surrogate batch per step across all chains/episodes), charges the
  budget for memo misses only, and maintains the **shared** top-M list
  and Pareto front (over the target device's objective axes) every
  strategy contributes to.
- :class:`SearchStrategy` — the stepper interface: ``step(grant)``
  advances the strategy until ``grant`` queries are spent (or it
  stalls), reporting how many new Pareto points the spend produced —
  the bandit's reward signal.

Every strategy draws from its own ``random.Random(seed)`` stream in a
fixed order, so a seeded run's edit trajectory and budget ledger are
bit-reproducible.  The beam draws nothing at random.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..designspace.space import DesignPoint, DesignSpace, point_key
from ..errors import ReproError
from .ordering import order_pragmas
from .pareto import objective_keys_for
from .search import DSECandidate, Frontier, is_usable

__all__ = [
    "AnnealingStrategy",
    "BudgetedEvaluator",
    "GreedyStrategy",
    "OrderedBeamStrategy",
    "QueryBudget",
    "RandomStrategy",
    "SearchStrategy",
    "StepOutcome",
    "SweepStrategy",
    "build_strategy",
]


class QueryBudget:
    """Hard cap on distinct surrogate queries, shared by all strategies."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ReproError(f"query budget must be >= 1, got {limit}")
        self.limit = int(limit)
        self.spent = 0

    @property
    def remaining(self) -> int:
        return self.limit - self.spent

    @property
    def exhausted(self) -> bool:
        return self.spent >= self.limit

    def charge(self, queries: int) -> None:
        if queries > self.remaining:
            raise ReproError(
                f"budget overrun: {queries} queries requested, "
                f"{self.remaining} remaining"
            )
        self.spent += queries


class BudgetedEvaluator:
    """Shared, memoised, budget-charging surrogate evaluator.

    One instance is shared by every strategy in a race: the memo, the
    top-M list, and the Pareto front are global, so a point one
    strategy already paid for is free for the others and the front is
    the union of everyone's discoveries.  ``device`` (None = the
    reference device) picks the front's objective axes and the
    resource axes a usable design must fit on.
    """

    def __init__(
        self,
        pipeline,
        spec,
        space: DesignSpace,
        budget: QueryBudget,
        top_m: int = 10,
        fit_threshold: float = 0.8,
        device=None,
    ):
        self.pipeline = pipeline
        self.spec = spec
        self.space = space
        self.budget = budget
        self.fit_threshold = fit_threshold
        self.fit_axes = getattr(device, "fit_axes", None)
        self.memo: Dict[str, DSECandidate] = {}
        self.frontier = Frontier(top_m, objective_keys_for(device), self.usable)

    def usable(self, candidate: DSECandidate) -> bool:
        return is_usable(candidate, self.fit_threshold, self.fit_axes)

    # -- evaluation -------------------------------------------------------------

    def evaluate(
        self, points: Sequence[DesignPoint]
    ) -> Tuple[List[Optional[DSECandidate]], List[bool]]:
        """Score ``points`` in one lockstep surrogate batch.

        Memo hits are free; distinct new points are charged against the
        budget.  When the remaining budget cannot cover every new point
        the batch is truncated deterministically (first-come order) and
        the dropped tail comes back as ``None``.  The second list flags,
        per input point, whether it just entered the shared Pareto
        front — the novelty signal the RL reward and the racer's bandit
        both consume.
        """
        keys = [point_key(p) for p in points]
        new: Dict[str, DesignPoint] = {}  # insertion order = first come
        for key, point in zip(keys, points):
            if key not in self.memo and key not in new:
                new[key] = point
        affordable = min(len(new), self.budget.remaining)
        new_keys = list(itertools.islice(new, affordable))
        new_points = [new[key] for key in new_keys]
        fresh_flags: Dict[str, bool] = {}
        if new_points:
            self.budget.charge(len(new_points))
            predictions = self.pipeline.predict_batch(
                self.spec.name, new_points, objectives_for="valid"
            )
            fresh = [
                DSECandidate(point, prediction)
                for point, prediction in zip(new_points, predictions)
            ]
            for key, candidate in zip(new_keys, fresh):
                self.memo[key] = candidate
            # Fresh points are memo misses, so none was on the front
            # before: entering it now is exactly what makes them novel.
            fresh_flags = dict(zip(new_keys, self.frontier.add(fresh)))
        out: List[Optional[DSECandidate]] = []
        novel: List[bool] = []
        seen_in_call: set = set()
        for key in keys:
            out.append(self.memo.get(key))
            is_novel = fresh_flags.get(key, False) and key not in seen_in_call
            novel.append(is_novel)
            seen_in_call.add(key)
        return out, novel

    @property
    def queries(self) -> int:
        return self.budget.spent


@dataclass
class StepOutcome:
    """What one racer grant bought from one strategy."""

    queries: int = 0  #: budget spent during the step
    new_pareto: int = 0  #: points admitted to the shared front
    proposals: int = 0  #: candidate points proposed (incl. memo hits)
    stalled: bool = False  #: the strategy could not spend its grant

    def merge(self, other: "StepOutcome") -> None:
        self.queries += other.queries
        self.new_pareto += other.new_pareto
        self.proposals += other.proposals
        self.stalled = other.stalled


class SearchStrategy:
    """Base stepper: propose batches until the grant is spent.

    Subclasses implement :meth:`propose` (the next lockstep batch of
    candidate points) and :meth:`observe` (scored results, for state
    updates).  The base ``step`` loop enforces the grant, counts
    novelty, and stalls out when proposals stop costing budget — a
    strategy cycling over known points cannot spin forever.
    """

    name = "strategy"

    #: Consecutive zero-cost proposal rounds before declaring a stall.
    STALL_ROUNDS = 8

    def __init__(self, evaluator: BudgetedEvaluator, seed: int = 0):
        self.evaluator = evaluator
        self.rng = random.Random(f"{self.name}:{seed}")

    # -- subclass hooks ---------------------------------------------------------

    def propose(self) -> List[DesignPoint]:  # pragma: no cover - abstract
        raise NotImplementedError

    def observe(
        self,
        points: List[DesignPoint],
        candidates: List[Optional[DSECandidate]],
        novel: List[bool],
    ) -> None:
        """Consume scored proposals; default keeps no state."""

    # -- the budget-bounded stepping loop ---------------------------------------

    def step(self, grant: int) -> StepOutcome:
        outcome = StepOutcome()
        spent_before = self.evaluator.queries
        idle_rounds = 0
        while (
            self.evaluator.queries - spent_before < grant
            and not self.evaluator.budget.exhausted
        ):
            points = self.propose()
            if not points:
                outcome.stalled = True
                break
            before = self.evaluator.queries
            candidates, novel = self.evaluator.evaluate(points)
            self.observe(points, candidates, novel)
            outcome.proposals += len(points)
            outcome.new_pareto += sum(novel)
            if self.evaluator.queries == before:
                idle_rounds += 1
                if idle_rounds >= self.STALL_ROUNDS:
                    outcome.stalled = True
                    break
            else:
                idle_rounds = 0
        outcome.queries = self.evaluator.queries - spent_before
        return outcome

    # -- shared scoring ---------------------------------------------------------

    def score(self, candidate: Optional[DSECandidate]) -> float:
        """Scalarised objective (minimised): latency for usable points."""
        if candidate is None or not self.evaluator.usable(candidate):
            return float("inf")
        return candidate.predicted_latency


class RandomStrategy(SearchStrategy):
    """Uniform random sampling — the diversity floor every racer needs."""

    name = "random"

    def __init__(self, evaluator: BudgetedEvaluator, seed: int = 0, batch: int = 16):
        super().__init__(evaluator, seed)
        self.batch = batch

    def propose(self) -> List[DesignPoint]:
        return self.evaluator.space.sample(self.rng, self.batch)


class GreedyStrategy(SearchStrategy):
    """Bottleneck-style greedy hill climbing with random restarts.

    Mirrors AutoDSE's commit-the-best-improvement loop on the
    surrogate: every step scores all one-knob mutations of the
    incumbent in one batch, commits the best usable improvement, and
    restarts from a fresh random point when the incumbent is locally
    optimal (that restart is what keeps the strategy contributing
    front points after the first basin is mined out).
    """

    name = "greedy"

    def __init__(self, evaluator: BudgetedEvaluator, seed: int = 0):
        super().__init__(evaluator, seed)
        self.current = evaluator.space.default_point()
        self.current_score = float("inf")
        self._pending: List[DesignPoint] = []

    def propose(self) -> List[DesignPoint]:
        self._pending = [self.current] + self.evaluator.space.neighbors(self.current)
        return self._pending

    def observe(self, points, candidates, novel) -> None:
        scored = [(self.score(c), i) for i, c in enumerate(candidates)]
        best_score, best_index = min(scored)
        if best_index != 0 and best_score < self.score(candidates[0]):
            self.current = points[best_index]
            self.current_score = best_score
        else:
            # Local optimum (or an all-unusable neighbourhood): restart.
            self.current = self.evaluator.space.sample(self.rng, 1)[0]
            self.current_score = float("inf")


class AnnealingStrategy(SearchStrategy):
    """Lockstep multi-chain simulated annealing (the SA baseline arm).

    Each chain makes Metropolis moves to a random one-knob neighbour on
    a scale-relative temperature that cools geometrically, with
    unusable points scored at ``penalty`` times the worst usable
    latency the chain has seen.  Each step proposes one candidate per
    chain and scores them in a single surrogate batch, and the budget
    ledger charges distinct points only.
    """

    name = "sa"

    def __init__(
        self,
        evaluator: BudgetedEvaluator,
        seed: int = 0,
        chains: int = 4,
        initial_temperature: float = 2.0,
        cooling: float = 0.97,
        penalty: float = 4.0,
    ):
        super().__init__(evaluator, seed)
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.penalty = penalty
        space = evaluator.space
        start = space.default_point()
        self.chains = [
            dict(
                rng=random.Random(f"{self.name}:{seed}:chain{i}"),
                current=dict(start) if i == 0 else space.sample(self.rng, 1)[0],
                score=float("inf"),
                worst_usable=1.0,
                temperature=initial_temperature,
                scored=False,
            )
            for i in range(chains)
        ]
        self._proposals: List[Tuple[dict, DesignPoint]] = []

    def _effective(self, chain: dict, score: float) -> float:
        if math.isinf(score):
            return chain["worst_usable"] * self.penalty
        return score

    def propose(self) -> List[DesignPoint]:
        self._proposals = []
        for chain in self.chains:
            if not chain["scored"]:
                # First visit: score the chain's own start point.
                self._proposals.append((chain, dict(chain["current"])))
                continue
            neighbors = self.evaluator.space.neighbors(chain["current"])
            if not neighbors:
                continue
            self._proposals.append((chain, chain["rng"].choice(neighbors)))
        return [point for _, point in self._proposals]

    def observe(self, points, candidates, novel) -> None:
        for (chain, point), candidate in zip(self._proposals, candidates):
            if candidate is None:  # dropped by budget truncation
                continue
            cand_score = self.score(candidate)
            if not math.isinf(cand_score):
                chain["worst_usable"] = max(chain["worst_usable"], cand_score)
            if not chain["scored"]:
                chain["current"], chain["score"] = point, cand_score
                chain["scored"] = True
                continue
            delta = self._effective(chain, cand_score) - self._effective(
                chain, chain["score"]
            )
            scale = max(abs(self._effective(chain, chain["score"])), 1e-9)
            accept = delta <= 0 or chain["rng"].random() < math.exp(
                -delta / (scale * max(chain["temperature"], 1e-6))
            )
            if accept:
                chain["current"], chain["score"] = point, cand_score
            chain["temperature"] *= self.cooling


class SweepStrategy(SearchStrategy):
    """Every point of an enumeration, ``batch_size`` at a time, in order.

    The exhaustive sweep and each parallel shard; its budget is the
    number of points.  ``on_batch`` runs after each scored batch.
    """

    name = "sweep"

    def __init__(
        self,
        evaluator: BudgetedEvaluator,
        points: Iterable[DesignPoint],
        batch_size: int = 256,
        on_batch: Optional[Callable[[], None]] = None,
    ):
        super().__init__(evaluator)
        self.points = iter(points)
        self.batch_size = batch_size
        self.on_batch = on_batch

    def propose(self) -> List[DesignPoint]:
        return list(itertools.islice(self.points, self.batch_size))

    def observe(self, points, candidates, novel) -> None:
        if self.on_batch is not None:
            self.on_batch()


class OrderedBeamStrategy(SearchStrategy):
    """The paper's ordered-pragma beam search (Section 4.4).

    Knobs are visited in :func:`~repro.dse.ordering.order_pragmas`
    order, starting from the default point.  Each proposal is every
    one-knob mutation (at the current knob) of every beam point, plus
    the beam points themselves, minus anything proposed before in the
    run; knobs that yield nothing new are skipped.  The best
    ``beam_width`` usable results become the next beam, ranked by full
    predicted latency when the step turned up no usable point.  The
    search ends after :attr:`SWEEPS` passes over the knobs, or after a
    pass that did not improve the best design; ``propose`` then returns
    nothing, which :meth:`step` reports as a stall.
    """

    name = "beam"

    #: Most passes over the ordered knobs.
    SWEEPS = 8

    def __init__(self, evaluator: BudgetedEvaluator, seed: int = 0, beam_width: int = 8):
        super().__init__(evaluator, seed)
        self.beam_width = beam_width
        self.knobs = order_pragmas(evaluator.space)
        self.beam: List[DesignPoint] = [evaluator.space.default_point()]
        self.seen: set = set()
        self.sweeps = 0
        self.position = 0  # index of the next knob in this sweep
        self.improved = False
        self.done = False
        self._best = float("inf")

    def propose(self) -> List[DesignPoint]:
        space = self.evaluator.space
        while not self.done:
            if self.position == len(self.knobs):
                self.sweeps += 1
                self.position = 0
                self.done = not self.improved or self.sweeps == self.SWEEPS
                self.improved = False
                continue
            knob = self.knobs[self.position]
            self.position += 1
            candidates: List[DesignPoint] = []
            for point in self.beam:
                for mutated in space.mutations(point, knob.name) + [point]:
                    key = point_key(mutated)
                    if key not in self.seen:
                        self.seen.add(key)
                        candidates.append(mutated)
            if candidates:
                top = self.evaluator.frontier.top
                self._best = top[0].predicted_latency if top else float("inf")
                return candidates
        return []

    def observe(self, points, candidates, novel) -> None:
        # The budget may have truncated the batch's tail.
        scored = [c for c in candidates if c is not None]
        top = self.evaluator.frontier.top
        if top and top[0].predicted_latency < self._best:
            self.improved = True
        pool = [c for c in scored if self.evaluator.usable(c)]
        if not pool:
            pool = self._with_objectives(scored)
        pool = sorted(pool, key=lambda c: c.predicted_latency)
        self.beam = [c.point for c in pool[: self.beam_width]] or self.beam

    def _with_objectives(self, scored: List[DSECandidate]) -> List[DSECandidate]:
        """Re-score candidates whose regression pass the cascade skipped.

        The beam ranks by predicted latency even when nothing usable
        has turned up; the classifier outputs are cached, so this costs
        one regression pass and no budget.
        """
        if all(c.prediction.objectives is not None for c in scored):
            return scored
        points = [c.point for c in scored]
        predictions = self.evaluator.pipeline.predict_batch(
            self.evaluator.spec.name, points, objectives_for="all"
        )
        return [DSECandidate(p, pred) for p, pred in zip(points, predictions)]


#: Strategy-name -> constructor.  ``rl`` is registered lazily by
#: :mod:`repro.dse.rl` to keep this module import-light.
_REGISTRY: Dict[str, Callable[..., SearchStrategy]] = {
    "random": RandomStrategy,
    "greedy": GreedyStrategy,
    "sa": AnnealingStrategy,
}


def register_strategy(name: str, factory: Callable[..., SearchStrategy]) -> None:
    _REGISTRY[name] = factory


def build_strategy(
    name: str, evaluator: BudgetedEvaluator, seed: int = 0
) -> SearchStrategy:
    """Construct one registered strategy bound to a shared evaluator."""
    if name == "rl":
        from . import rl  # noqa: F401  (registers itself on import)
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown search strategy {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory(evaluator, seed=seed)
