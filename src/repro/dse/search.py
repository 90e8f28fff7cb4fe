"""Model-driven design-space exploration (Section 4.4).

With the predictor answering in milliseconds, small spaces are swept
**exhaustively**; enormous ones are searched with the ordered-pragma
heuristic: knobs are visited in the order of :func:`order_pragmas`, a
beam of the most-promising partial assignments is kept, and the global
top-M predicted designs are retained throughout.  A wall-clock limit
bounds the search exactly as in the paper (one hour for mvt/2mm).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..designspace.space import DesignPoint, DesignSpace, point_key
from ..model.predictor import GNNDSEPredictor, Prediction
from .ordering import order_pragmas
from .pareto import DEFAULT_OBJECTIVE_KEYS, objective_keys_for, pareto_front, pareto_merge
from .pipeline import EvaluationPipeline, PipelineStats

__all__ = ["PARETO_KEYS", "DSECandidate", "DSEResult", "Frontier", "ModelDSE"]

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


@dataclass
class DSEResult:
    """Outcome of one model-driven DSE run.

    ``pareto`` is the non-dominated subset (over :data:`PARETO_KEYS`)
    of every *usable* candidate the search scored, in first-evaluated
    order.  ``workers``/``shards``/``shards_resumed``/``retries``
    describe how :class:`~repro.dse.parallel.ParallelDSE` produced the
    result; the serial searchers leave them at their defaults.

    ``strategy`` names the search that produced the result (``"beam"``
    for this module's exhaustive/beam search); when it is ``"race"``
    the ``race`` dict carries the strategy racer's budget ledger and
    per-arm totals (:meth:`~repro.dse.race.RaceResult.summary`).
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

    def top_points(self) -> List[DesignPoint]:
        return [c.point for c in self.top]

    def pareto_points(self) -> List[DesignPoint]:
        return [c.point for c in self.pareto]


class Frontier:
    """The running top-M list and Pareto front of one search.

    This is the one place the merge policy lives; the exhaustive sweep,
    every parallel shard and the shard merge, and the budgeted
    strategies' shared evaluator all go through it.  ``top`` holds the
    ``top_m`` usable candidates of lowest predicted latency, deduped by
    :func:`point_key` in first-seen order; ``pareto`` is the
    first-seen-order :func:`pareto_merge` over ``keys``.  Both merges
    are batch-boundary invariant, which is what makes sharded and
    resumed sweeps bit-identical to the serial one.

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

    def add(self, scored: List[DSECandidate]) -> None:
        """Merge freshly scored candidates, dropping the unusable ones."""
        usable = [c for c in scored if self.usable(c)]
        self.merge(usable, usable)

    def merge(self, top: List[DSECandidate], pareto: List[DSECandidate]) -> None:
        """Merge usable candidates into the top-M list and the front."""
        self.merge_top(top)
        self.pareto = pareto_merge(self.pareto, pareto, _candidate_objectives, self.keys)

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
        Trained :class:`~repro.model.GNNDSEPredictor`.
    spec, space:
        Kernel and its design space.
    fit_threshold:
        Utilization ceiling T_u of Eq. 7.
    top_m:
        Number of best designs to keep (the paper evaluates the top 10
        with the real HLS tool afterwards).
    batch_size:
        Prediction batch size.
    exhaustive_limit:
        Sweep the whole space when its size does not exceed this.
    beam_width:
        Beam kept per knob step in heuristic mode.
    pipeline:
        Evaluation pipeline to route predictions through; constructed
        from ``predictor`` when not given.  Pass ``pipeline=None`` and
        ``use_pipeline=False`` to call ``predictor.predict_batch``
        directly (the pre-pipeline behaviour).
    device:
        Registered device the search targets.  Defaults to the
        predictor's bound device (``predictor.device``) or, failing
        that, the reference device; determines the Pareto objective
        keys and the ``device`` stamp on results.
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
        use_pipeline: bool = True,
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
        if pipeline is None and use_pipeline:
            pipeline = EvaluationPipeline(predictor)
        self.pipeline = pipeline
        self.device = device if device is not None else getattr(predictor, "device", None)
        self.pareto_keys = objective_keys_for(self.device)
        self.device_name = getattr(self.device, "name", "")
        # Device-declared fit axes (None = all non-latency objectives,
        # the reference-device behaviour).
        self.fit_axes = getattr(self.device, "fit_axes", None)

    # -- scoring ------------------------------------------------------------------

    def _usable(self, candidate: DSECandidate) -> bool:
        p = candidate.prediction
        return p.valid and p.fits(self.fit_threshold, axes=self.fit_axes)

    def _frontier(self) -> Frontier:
        return Frontier(self.top_m, self.pareto_keys, self._usable)

    def _predict_batch(self, points: List[DesignPoint]) -> List[DSECandidate]:
        if self.pipeline is not None:
            # The search only reads objectives of usable (valid) points, so
            # the pipeline may skip regression for classifier-rejected ones.
            predictions = self.pipeline.predict_batch(
                self.spec.name, points, objectives_for="valid"
            )
        else:
            predictions = self.predictor.predict_batch(self.spec.name, points)
        return [DSECandidate(p, pred) for p, pred in zip(points, predictions)]

    def _ensure_objectives(self, scored: List[DSECandidate]) -> List[DSECandidate]:
        """Re-score candidates whose regression pass was cascade-skipped.

        Only needed on the heuristic fallback path where no usable
        candidate exists and the beam must rank by predicted latency;
        the classifier outputs are already cached, so this costs one
        regression pass over the batch.
        """
        if self.pipeline is None or all(
            c.prediction.objectives is not None for c in scored
        ):
            return scored
        points = [c.point for c in scored]
        predictions = self.pipeline.predict_batch(
            self.spec.name, points, objectives_for="all"
        )
        return [DSECandidate(p, pred) for p, pred in zip(points, predictions)]

    # -- public API ------------------------------------------------------------------

    def run(self, time_limit_seconds: float = 3600.0) -> DSEResult:
        """Run the DSE; returns the predicted top-M designs."""
        if self.space.size(exact_limit=self.exhaustive_limit) <= self.exhaustive_limit:
            return self._run_exhaustive(time_limit_seconds)
        return self._run_heuristic(time_limit_seconds)

    # -- exhaustive sweep ---------------------------------------------------------------

    def _stats_since(self, before: Optional[PipelineStats]) -> Optional[PipelineStats]:
        if self.pipeline is None or before is None:
            return None
        return self.pipeline.stats - before

    def evaluate_stream(
        self,
        points: Iterable[DesignPoint],
        deadline: Optional[float] = None,
        on_batch: Optional[Callable[[int], None]] = None,
    ) -> Tuple[List[DSECandidate], List[DSECandidate], int]:
        """Score a point stream in batches; the shared exhaustive scan.

        Both the serial exhaustive sweep and every parallel-DSE shard
        (:mod:`repro.dse.parallel`) run THIS loop, so their per-batch
        merge behaviour — and therefore their results — cannot drift
        apart (see :class:`Frontier`).

        Returns ``(top, pareto, explored)``.  ``deadline`` is an
        absolute ``time.monotonic()`` bound checked after each full
        batch (monotonic, so a stepped wall clock can neither cut a
        sweep short nor extend it); ``on_batch`` (called with the
        running explored count) is the hook parallel workers use for
        heartbeats and tests/benchmarks use for fault and latency
        injection.
        """
        frontier = self._frontier()
        explored = 0
        out_of_time = False

        def consume(batch: List[DesignPoint]) -> None:
            nonlocal explored
            frontier.add(self._predict_batch(batch))
            explored += len(batch)
            if on_batch is not None:
                on_batch(explored)

        pending: List[DesignPoint] = []
        for point in points:
            pending.append(point)
            if len(pending) >= self.batch_size:
                consume(pending)
                pending = []
                if deadline is not None and time.monotonic() > deadline:
                    out_of_time = True
                    break
        if pending and not out_of_time and (deadline is None or time.monotonic() <= deadline):
            consume(pending)
        return frontier.top, frontier.pareto, explored

    def _run_exhaustive(self, time_limit_seconds: float) -> DSEResult:
        start = time.monotonic()
        stats_before = self.pipeline.stats.copy() if self.pipeline else None
        top, pareto, explored = self.evaluate_stream(
            self.space.enumerate(), deadline=start + time_limit_seconds
        )
        seconds = time.monotonic() - start
        return DSEResult(
            kernel=self.spec.name,
            top=top,
            explored=explored,
            seconds=seconds,
            exhaustive=True,
            predictions_per_second=explored / seconds if seconds > 0 else 0.0,
            stats=self._stats_since(stats_before),
            pareto=pareto,
            device=self.device_name,
        )

    # -- ordered heuristic search ----------------------------------------------------------

    def _run_heuristic(self, time_limit_seconds: float) -> DSEResult:
        start = time.monotonic()
        stats_before = self.pipeline.stats.copy() if self.pipeline else None
        ordered = order_pragmas(self.space)
        seen = set()
        frontier = self._frontier()
        explored = 0

        base = self.space.default_point()
        beam: List[DesignPoint] = [base]
        out_of_time = False
        # Repeated ordered sweeps refine the beam until the clock runs out.
        for sweep in range(8):
            if out_of_time:
                break
            improved = False
            for knob in ordered:
                candidates: List[DesignPoint] = []
                for point in beam:
                    for mutated in self.space.mutations(point, knob.name) + [point]:
                        key = point_key(mutated)
                        if key in seen:
                            continue
                        seen.add(key)
                        candidates.append(mutated)
                if not candidates:
                    continue
                scored: List[DSECandidate] = []
                for i in range(0, len(candidates), self.batch_size):
                    scored.extend(self._predict_batch(candidates[i : i + self.batch_size]))
                explored += len(candidates)
                best = frontier.top[0].predicted_latency if frontier.top else float("inf")
                usable = [c for c in scored if self._usable(c)]
                frontier.merge_top(usable)
                if frontier.top and frontier.top[0].predicted_latency < best:
                    improved = True
                # Next beam: best usable candidates (fall back to lowest
                # predicted latency when nothing usable has appeared yet).
                if not usable:
                    scored = self._ensure_objectives(scored)
                pool = usable or scored
                pool.sort(key=lambda c: c.predicted_latency)
                beam = [c.point for c in pool[: self.beam_width]] or beam
                if time.monotonic() - start > time_limit_seconds:
                    out_of_time = True
                    break
            if not improved:
                break
        seconds = time.monotonic() - start
        top = frontier.top
        return DSEResult(
            kernel=self.spec.name,
            top=top,
            explored=explored,
            seconds=seconds,
            exhaustive=False,
            predictions_per_second=explored / seconds if seconds > 0 else 0.0,
            stats=self._stats_since(stats_before),
            # The beam search only retains the top list; its front is
            # the non-dominated subset of those survivors.
            pareto=pareto_front(top, _candidate_objectives, self.pareto_keys),
            device=self.device_name,
        )
