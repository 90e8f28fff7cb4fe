"""Model-driven design-space exploration (Section 4.4).

With the predictor answering in milliseconds, small spaces are swept
**exhaustively** (:class:`~repro.dse.strategies.SweepStrategy`);
enormous ones are searched with the paper's ordered-pragma beam
(:class:`~repro.dse.strategies.OrderedBeamStrategy`), whose query
budget is the number of distinct points a sweep is allowed.  Both are
stepped by the one search loop, :meth:`~repro.dse.race.StrategyRacer.run`,
on a :class:`~repro.dse.strategies.BudgetedEvaluator`.  The search, not
the clock, decides where it stops: the paper's wall-clock limit (one
hour for mvt/2mm) is a cap that loop reads between batches or beam
steps, and a result it cut short says so (``DSEResult.time_limited``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..designspace.space import DesignPoint, DesignSpace, point_key
from ..model.predictor import GNNDSEPredictor, Prediction
from .pareto import (
    DEFAULT_OBJECTIVE_KEYS,
    objective_keys_for,
    objective_matrix,
    pareto_merge,
)
from .pipeline import EvaluationPipeline, PipelineStats

__all__ = ["PARETO_KEYS", "DSECandidate", "DSEResult", "Frontier", "ModelDSE", "is_usable"]

#: Objectives (all minimised) the DSE's running Pareto front is kept
#: over on the reference device; device-bound searches use the target's
#: own axes (see :func:`repro.dse.pareto.objective_keys_for`).
PARETO_KEYS = DEFAULT_OBJECTIVE_KEYS


def _candidate_objectives(candidate: "DSECandidate"):
    return candidate.prediction.objectives


@dataclass
class DSECandidate:
    """One predicted-good design point."""

    point: DesignPoint
    prediction: Prediction

    @property
    def predicted_latency(self) -> float:
        # Mirrors ``Prediction.latency`` exactly (``inf`` when the cascade
        # skipped regression), so sorting candidates and reading their
        # predictions can never disagree at the validity threshold.
        return self.prediction.latency


def is_usable(
    candidate: DSECandidate, fit_threshold: float, fit_axes: Optional[Sequence[str]] = None
) -> bool:
    """Whether a scored design may enter a search's top-M and front.

    It must be predicted valid and fit under ``fit_threshold`` (T_u of
    Eq. 7) on ``fit_axes`` (None = every non-latency objective).
    """
    p = candidate.prediction
    return p.valid and p.fits(fit_threshold, axes=fit_axes)


@dataclass
class DSEResult:
    """Outcome of one model-driven DSE run.

    ``pareto`` is the non-dominated subset (over the target device's
    objective axes) of every *usable* candidate the search scored, in
    first-evaluated order; the ordered beam keeps it exactly as the
    sweep does.  ``explored`` counts the distinct points scored.
    ``time_limited`` is True when the wall-clock cap stopped the search
    before it finished (a sweep with points left, a beam that had not
    converged, a race with budget left, a parallel run with shards
    undispatched); such a result depends on machine load.
    ``workers``/``shards``/``shards_resumed``/``retries`` describe how
    :class:`~repro.dse.parallel.ParallelDSE` produced the result; the
    serial searchers leave them at their defaults.

    ``strategy`` names the search that produced the result (``"beam"``
    for :class:`ModelDSE`'s sweep or ordered beam); when it is
    ``"race"`` the ``race`` dict carries the strategy racer's budget
    ledger and per-arm totals
    (:meth:`~repro.dse.race.RaceResult.summary`).
    """

    kernel: str
    top: List[DSECandidate]
    explored: int
    seconds: float
    exhaustive: bool
    predictions_per_second: float = 0.0
    stats: Optional[PipelineStats] = None
    pareto: List[DSECandidate] = field(default_factory=list)
    workers: int = 1
    shards: int = 0
    shards_resumed: int = 0
    retries: int = 0
    strategy: str = "beam"
    race: Optional[Dict[str, object]] = None
    #: Name of the registered device the search targeted ("" = the
    #: reference device, for results predating device provenance).
    device: str = ""
    time_limited: bool = False

    def pareto_points(self) -> List[DesignPoint]:
        return [c.point for c in self.pareto]


class Frontier:
    """The running top-M list and Pareto front of one search.

    This is the one place the merge policy lives: every search keeps
    its results in its :class:`~repro.dse.strategies.BudgetedEvaluator`'s
    frontier, and the parallel shard merge folds shard results into
    one.  ``top`` holds the ``top_m`` usable candidates of lowest
    predicted latency, deduped by :func:`point_key` in first-seen
    order; ``pareto`` is the
    first-seen-order non-dominated subset over ``keys``, kept row-aligned
    with a float64 objective matrix so each merge is one
    :func:`~repro.dse.pareto.pareto_merge` pass against the new
    candidates only.  Both merges are batch-boundary invariant, which is
    what makes sharded and resumed sweeps bit-identical to the serial
    one.

    ``usable`` is the predicate :meth:`add` filters fresh candidates
    with; :meth:`merge` and :meth:`merge_top` take candidates that
    already passed it (e.g. another frontier's lists).
    """

    def __init__(
        self,
        top_m: int,
        keys: Sequence[str],
        usable: Optional[Callable[[DSECandidate], bool]] = None,
    ):
        self.top_m = top_m
        self.keys = keys
        self.usable = usable
        self.top: List[DSECandidate] = []
        self.pareto: List[DSECandidate] = []
        self._objectives = np.empty((0, len(keys)), dtype=np.float64)

    def add(self, scored: List[DSECandidate]) -> List[bool]:
        """Merge freshly scored candidates, dropping the unusable ones.

        Returns, per scored candidate, whether it entered the front.
        """
        flags = [self.usable(c) for c in scored]
        usable = [c for c, ok in zip(scored, flags) if ok]
        entered = iter(self.merge(usable, usable))
        return [ok and next(entered) for ok in flags]

    def merge(self, top: List[DSECandidate], pareto: List[DSECandidate]) -> List[bool]:
        """Merge usable candidates into the top-M list and the front.

        Returns, per ``pareto`` candidate, whether it entered the front.
        """
        self.merge_top(top)
        if not pareto:
            return []
        additions = objective_matrix(pareto, _candidate_objectives, self.keys)
        keep_front, keep_new = pareto_merge(self._objectives, additions)
        keep = np.concatenate([keep_front, keep_new])
        self.pareto = [c for c, kept in zip(self.pareto + pareto, keep.tolist()) if kept]
        self._objectives = np.concatenate([self._objectives, additions])[keep]
        return keep_new.tolist()

    def merge_top(self, candidates: List[DSECandidate]) -> None:
        """Merge usable candidates into the top-M list only."""
        merged = self.top + candidates
        merged.sort(key=lambda c: c.predicted_latency)
        seen = set()
        unique: List[DSECandidate] = []
        for candidate in merged:
            key = point_key(candidate.point)
            if key not in seen:
                seen.add(key)
                unique.append(candidate)
            if len(unique) >= self.top_m:
                break
        self.top = unique


class ModelDSE:
    """Design-space exploration driven by the trained predictor.

    Parameters
    ----------
    predictor:
        Trained :class:`~repro.model.GNNDSEPredictor`, or anything the
        :class:`~repro.dse.pipeline.EvaluationPipeline` can run on its
        reference engine (``predict_batch(kernel, points,
        valid_threshold)``, e.g.
        :class:`~repro.dse.crossdevice.AnalyticPredictor`).
    spec, space:
        Kernel and its design space.
    fit_threshold:
        Utilization ceiling T_u of Eq. 7.
    top_m:
        Number of best designs to keep (the paper evaluates the top 10
        with the real HLS tool afterwards).
    batch_size:
        Points per evaluator batch in the exhaustive sweep.
    exhaustive_limit:
        Sweep the whole space when its size does not exceed this;
        otherwise run the ordered beam with this many distinct queries
        as its budget.
    beam_width:
        Beam kept per knob step by the ordered beam.
    pipeline:
        Evaluation pipeline every prediction goes through; built from
        ``predictor`` with default settings when not given.
    device:
        Registered device the search targets.  Defaults to the
        predictor's bound device (``predictor.device``) or, failing
        that, the reference device; determines the Pareto objective
        keys, the fit axes and the ``device`` stamp on results.
    """

    def __init__(
        self,
        predictor: GNNDSEPredictor,
        spec,
        space: DesignSpace,
        fit_threshold: float = 0.8,
        top_m: int = 10,
        batch_size: int = 256,
        exhaustive_limit: int = 20_000,
        beam_width: int = 8,
        pipeline: Optional[EvaluationPipeline] = None,
        device=None,
    ):
        self.predictor = predictor
        self.spec = spec
        self.space = space
        self.fit_threshold = fit_threshold
        self.top_m = top_m
        self.batch_size = batch_size
        self.exhaustive_limit = exhaustive_limit
        self.beam_width = beam_width
        self.pipeline = pipeline if pipeline is not None else EvaluationPipeline(predictor)
        self.device = device if device is not None else getattr(predictor, "device", None)
        self.pareto_keys = objective_keys_for(self.device)
        self.device_name = getattr(self.device, "name", "")

    # -- public API ------------------------------------------------------------------

    def run(self, time_limit_seconds: float = 3600.0) -> DSEResult:
        """Run the DSE; returns the predicted top-M designs and front.

        A sweep (budget: the space size) or the ordered beam (budget:
        ``exhaustive_limit``), stepped as a one-arm race one batch or
        knob at a time, so the time limit is read between steps.
        """
        from .race import StrategyRacer
        from .strategies import BudgetedEvaluator, OrderedBeamStrategy, QueryBudget, SweepStrategy

        size = self.space.size(exact_limit=self.exhaustive_limit)
        exhaustive = size <= self.exhaustive_limit
        start = time.monotonic()
        stats_before = self.pipeline.stats.copy()
        evaluator = BudgetedEvaluator(
            self.pipeline, self.spec, self.space,
            QueryBudget(max(size, 1) if exhaustive else self.exhaustive_limit),
            top_m=self.top_m, fit_threshold=self.fit_threshold, device=self.device,
        )
        if exhaustive:
            strategy = SweepStrategy(evaluator, self.space.enumerate(), self.batch_size)
        else:
            strategy = OrderedBeamStrategy(evaluator, beam_width=self.beam_width)
        race = StrategyRacer(evaluator, [strategy], round_budget=1).run(
            deadline=start + time_limit_seconds
        )
        seconds = time.monotonic() - start
        return DSEResult(
            kernel=self.spec.name,
            top=race.top,
            explored=race.queries,
            seconds=seconds,
            exhaustive=exhaustive,
            predictions_per_second=race.queries / seconds if seconds > 0 else 0.0,
            stats=self.pipeline.stats - stats_before,
            pareto=race.pareto,
            device=self.device_name,
            time_limited=race.time_limited,
        )
