"""The closed active-learning loop: DSE → HLS labels → retrain → publish.

This is the paper's own workflow (Section 5) made into a supervised
process.  Each round:

1. **Scan** — score a seeded sample of each target kernel's design
   space with the current surrogate through the batched
   :class:`~repro.dse.pipeline.EvaluationPipeline` (the same engine the
   DSE search runs on).
2. **Select** — pick the predicted-best points (exploit) plus the most
   *uncertain* (validity probability nearest 0.5) and *disputed*
   (classifier says invalid, regressor predicts excellent latency)
   points, up to the per-kernel label budget.
3. **Label** — get ground truth from the HLS tool
   (:class:`~repro.hls.tool.MerlinHLSTool`, the deterministic
   estimator-backed oracle) through
   :class:`~repro.explorer.evaluator.Evaluator`, committing records
   with full provenance (source, round, timestamp).
4. **Fine-tune** — continue training a *clone* of the stack on the
   augmented database via the warm-start path
   (:meth:`~repro.model.trainer.Trainer.fit` with ``init_model=``); the
   serving predictor is never mutated in place.
5. **Gate & publish** — evaluate the candidate on a fixed held-out
   evaluation set (seeded sample per kernel, labeled once, excluded
   from selection).  If the held-out RMSE did not regress, publish a
   new artifact version to the :class:`~repro.serve.registry.ModelRegistry`
   and flip its atomic ``current`` pointer; otherwise keep the previous
   version (so the serving RMSE is monotonically non-increasing by
   construction).
6. **Hot-swap** — optionally notify a live ``repro serve`` instance
   (``serve_url``) to follow the pointer; the server drains in-flight
   requests per model generation, dropping none.

Every step is deterministic given (seed, database, predictor): the
scan pool and evaluation sets come from seeded RNGs, the oracle is
memoised and deterministic, training is seeded, and artifact
round-trips are bit-exact.  Combined with the :class:`LoopState`
journal this makes the loop resumable — kill it mid-round, rerun with
``resume=True``, and the final database and artifact chain are
identical to an uninterrupted run.  Timestamps default to a *logical*
clock (the round number) for exactly this reason; inject
``clock=time.time`` for wall-clock provenance at the cost of
bit-identical resume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..designspace import build_design_space
from ..designspace.space import DesignPoint, point_key
from ..dse.pipeline import EvaluationPipeline
from ..errors import LoopError, ReproError, ServeError
from ..explorer.database import Database, DesignRecord
from ..explorer.evaluator import Evaluator
from ..graph.encoding import EDGE_DIM, NODE_DIM
from ..hls.tool import MerlinHLSTool
from ..kernels import get_kernel
from ..model.config import BRAM_OBJECTIVE, REGRESSION_OBJECTIVES
from ..model.dataset import GraphDatasetBuilder
from ..model.models import build_model
from ..model.predictor import GNNDSEPredictor
from ..model.trainer import (
    TrainConfig,
    Trainer,
    evaluate_classification,
    evaluate_regression,
)
from ..obs import span
from ..serve.registry import ModelRegistry, load_artifact
from .state import LoopState

__all__ = ["LoopConfig", "ActiveLoop", "LoopResult"]


@dataclass
class LoopConfig:
    """Knobs of one active-learning run (fingerprinted for resume)."""

    kernels: Tuple[str, ...]
    rounds: int = 3
    #: HLS labels per kernel per round.
    label_budget: int = 15
    #: Design points scored per kernel per round (the DSE scan pool).
    scan: int = 300
    #: Held-out evaluation points sampled per kernel (labeled once,
    #: never used for training selection).
    eval_points: int = 60
    #: Warm-start fine-tune epochs per round.
    epochs: int = 6
    seed: int = 0
    engine: str = "auto"
    fit_threshold: float = 0.8
    #: Reject candidate models whose held-out RMSE regressed (keeps the
    #: serving RMSE monotonically non-increasing across rounds).
    gate_on_holdout: bool = True

    def __post_init__(self):
        self.kernels = tuple(self.kernels)
        if not self.kernels:
            raise LoopError("LoopConfig.kernels must name at least one kernel")
        if self.rounds < 1:
            raise LoopError(f"rounds must be >= 1, got {self.rounds}")
        if self.label_budget < 1:
            raise LoopError(f"label_budget must be >= 1, got {self.label_budget}")

    def signature(self) -> Dict[str, object]:
        return {
            "kernels": list(self.kernels),
            "rounds": self.rounds,
            "label_budget": self.label_budget,
            "scan": self.scan,
            "eval_points": self.eval_points,
            "epochs": self.epochs,
            "seed": self.seed,
            "engine": self.engine,
            "fit_threshold": self.fit_threshold,
            "gate_on_holdout": self.gate_on_holdout,
        }


@dataclass
class LoopResult:
    """Outcome of :meth:`ActiveLoop.run`."""

    baseline: Dict[str, object]
    rounds: List[Dict[str, object]] = field(default_factory=list)
    resumed_rounds: int = 0

    @property
    def final_metrics(self) -> Dict[str, object]:
        if self.rounds:
            return self.rounds[-1]["metrics"]
        return self.baseline["metrics"]

    def rmse_trajectory(self) -> List[float]:
        """Held-out combined RMSE of the *serving* model per round (0 = baseline)."""
        out = [self.baseline["metrics"]["rmse"]["all"]]
        out.extend(r["metrics"]["rmse"]["all"] for r in self.rounds)
        return out


class ActiveLoop:
    """Orchestrates the closed loop over a fixed set of target kernels.

    Parameters
    ----------
    predictor:
        The starting surrogate (typically trained on the seed database,
        which need not contain the target kernels at all).
    database:
        The live training database; labeled records are appended with
        provenance and the database is saved (atomically) after every
        round's labeling step.
    registry:
        Where accepted models are published; its ``current`` pointer is
        the loop's notion of "the serving model".
    config:
        The run's knobs; its fingerprint guards the resume journal.
    database_path:
        Where to persist the augmented database each round.
    state:
        The resume journal (a :class:`LoopState` or a path).
    tool:
        The labeling oracle; defaults to the deterministic
        :class:`~repro.hls.tool.MerlinHLSTool` estimator.
    serve_url:
        Optional live ``repro serve`` endpoint to hot-swap after each
        accepted publish (via ``POST /v1/model/reload``).
    clock:
        Timestamp source for record/artifact provenance.  ``None`` (the
        default) stamps the *round number* — a logical clock, so resumed
        runs are bit-identical to uninterrupted ones.
    log:
        Progress callback (e.g. ``print``); ``None`` silences the loop.
    """

    def __init__(
        self,
        predictor: GNNDSEPredictor,
        database: Database,
        registry: ModelRegistry,
        config: LoopConfig,
        database_path,
        state,
        tool=None,
        serve_url: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.predictor = predictor
        self.database = database
        self.registry = registry
        self.config = config
        self.database_path = str(database_path)
        self.state = state if isinstance(state, LoopState) else LoopState(state)
        self.tool = tool or MerlinHLSTool()
        self.serve_url = serve_url
        self.clock = clock
        self._log = log or (lambda message: None)
        self._specs = {name: get_kernel(name) for name in config.kernels}
        self._spaces = {
            name: build_design_space(spec) for name, spec in self._specs.items()
        }
        # Fixed held-out evaluation sets, built lazily (deterministic:
        # seeded sample + memoised deterministic oracle).
        self._eval_records: Optional[Dict[str, List[DesignRecord]]] = None
        self._eval_keys: Dict[str, set] = {}

    # -- clocks ------------------------------------------------------------------

    def _now(self, round_index: int) -> float:
        return self.clock() if self.clock is not None else float(round_index)

    # -- held-out evaluation -----------------------------------------------------

    def _ensure_eval_sets(self) -> Dict[str, List[DesignRecord]]:
        if self._eval_records is not None:
            return self._eval_records
        records: Dict[str, List[DesignRecord]] = {}
        for kernel in self.config.kernels:
            rng = random.Random(f"{self.config.seed}:{kernel}:eval")
            points = self._spaces[kernel].sample(rng, self.config.eval_points)
            seen = set()
            kernel_records = []
            for point in points:
                key = point_key(point)
                if key in seen:
                    continue
                seen.add(key)
                result = self.tool.synthesize(self._specs[kernel], point)
                kernel_records.append(
                    DesignRecord.from_result(result, point, source="loop-eval")
                )
            records[kernel] = kernel_records
            self._eval_keys[kernel] = seen
        self._eval_records = records
        return records

    def _metrics(self, predictor: GNNDSEPredictor) -> Dict[str, object]:
        """Held-out metrics: per-objective RMSE + validity accuracy/F1."""
        eval_records = self._ensure_eval_sets()
        builder = GraphDatasetBuilder(self.database, normalizer=predictor.normalizer)
        all_samples, eval_counts = [], {}
        for kernel, records in eval_records.items():
            samples = builder.build(records=records)
            eval_counts[kernel] = {
                "total": len(samples),
                "valid": sum(1 for s in samples if s.label == 1),
            }
            all_samples.extend(samples)
        valid_samples = [s for s in all_samples if s.label == 1]
        if not valid_samples:
            raise LoopError(
                "held-out evaluation sets contain no valid designs; "
                "raise eval_points (or check the kernels' design spaces)"
            )
        rmse = evaluate_regression(predictor.regressor, valid_samples)
        rmse.update(evaluate_regression(predictor.bram_regressor, valid_samples))
        objectives = list(REGRESSION_OBJECTIVES) + list(BRAM_OBJECTIVE)
        rmse["all"] = sum(rmse[name] for name in objectives) / len(objectives)
        classification = evaluate_classification(predictor.classifier, all_samples)
        return {
            "rmse": rmse,
            "classification": classification,
            "eval_points": eval_counts,
        }

    # -- candidate selection -----------------------------------------------------

    def _scan_candidates(
        self, pipeline: EvaluationPipeline, kernel: str, round_index: int
    ) -> Tuple[List[Tuple[str, DesignPoint]], List]:
        """Score the round's seeded sample of ``kernel``'s space.

        Excludes the held-out evaluation points and anything labeled in
        an *earlier* round.  Points labeled in THIS round (by a killed
        attempt) stay in the pool so a resumed round reselects them
        deterministically.
        """
        self._ensure_eval_sets()
        rng = random.Random(f"{self.config.seed}:{kernel}:round:{round_index}")
        pool = self._spaces[kernel].sample(rng, self.config.scan)
        seen, candidates = set(), []
        for point in pool:
            key = point_key(point)
            if key in seen or key in self._eval_keys[kernel]:
                continue
            seen.add(key)
            if (kernel, key) in self.database:
                if self.database.get(kernel, key).round < round_index:
                    continue
            candidates.append((key, point))
        predictions = pipeline.predict_batch(
            kernel, [p for _, p in candidates], objectives_for="all"
        )
        return candidates, predictions

    def _select(
        self, candidates: Sequence[Tuple[str, DesignPoint]], predictions: Sequence
    ) -> Dict[str, List[int]]:
        """Split the label budget between exploit / uncertain / disputed.

        Roughly two thirds go to the predicted-best usable designs (the
        paper validates the predicted top-M); the rest to points the
        model is least sure about — validity probability near 0.5, and
        classifier-vs-regressor disputes (predicted invalid but with
        excellent predicted latency).  All orderings tie-break on the
        canonical point key, so selection is fully deterministic.
        """
        budget = self.config.label_budget
        usable = [
            i
            for i, pred in enumerate(predictions)
            if pred.valid and pred.fits(self.config.fit_threshold)
        ]
        usable.sort(key=lambda i: (predictions[i].latency, candidates[i][0]))
        uncertain = sorted(
            range(len(predictions)),
            key=lambda i: (abs(predictions[i].valid_prob - 0.5), candidates[i][0]),
        )
        disputed = [
            i
            for i, pred in enumerate(predictions)
            if not pred.valid and pred.objectives is not None
        ]
        disputed.sort(key=lambda i: (predictions[i].latency, candidates[i][0]))

        exploit_quota = budget - budget // 3
        chosen: List[int] = []
        chosen_set = set()

        def take(pool: Sequence[int], quota: int) -> None:
            for i in pool:
                if len(chosen) >= budget or quota <= 0:
                    return
                if i not in chosen_set:
                    chosen.append(i)
                    chosen_set.add(i)
                    quota -= 1

        take(usable, exploit_quota)
        explore_quota = budget - len(chosen)
        take(disputed, (explore_quota + 1) // 2)
        take(uncertain, budget - len(chosen))
        # Backfill from the remaining best usable, then anything left.
        take(usable, budget - len(chosen))
        take(uncertain, budget - len(chosen))
        return {
            "chosen": chosen,
            "usable": len(usable),
            "disputed": len(disputed),
        }

    # -- fine-tuning -------------------------------------------------------------

    def _fine_tune(
        self, predictor: GNNDSEPredictor, round_index: int
    ) -> GNNDSEPredictor:
        """Warm-start train a fresh clone of the stack on the augmented DB.

        The serving predictor is never mutated: new models are built from
        each head's own config, seeded from the old weights via
        ``Trainer.fit(init_model=...)``.  The normalizer is kept — latency
        scales do not change round to round, and keeping it makes RMSEs
        comparable across rounds.
        """
        cfg = self.config
        builder = GraphDatasetBuilder(self.database, normalizer=predictor.normalizer)
        samples = builder.build()
        valid = [s for s in samples if s.label == 1]
        if not valid:
            raise LoopError("database has no valid records to fine-tune on")
        trainer = Trainer(
            # The reduced LR avoids the Adam warm-restart shock on
            # already-trained weights, which a short fine-tune cannot
            # recover from.
            TrainConfig(
                epochs=cfg.epochs,
                seed=cfg.seed + round_index,
                lr=0.0004,
                lr_decay=0.9,
            )
        )
        heads = {
            "classifier": (predictor.classifier, samples),
            "regressor": (predictor.regressor, valid),
            "bram_regressor": (predictor.bram_regressor, valid),
        }
        tuned = {}
        for name, (init_model, data) in heads.items():
            model = build_model(
                init_model.config, NODE_DIM, EDGE_DIM, seed=cfg.seed + round_index
            )
            trainer.fit(model, data, init_model=init_model)
            tuned[name] = model
        return GNNDSEPredictor(
            tuned["classifier"],
            tuned["regressor"],
            tuned["bram_regressor"],
            predictor.normalizer,
            builder,
        )

    # -- the loop ----------------------------------------------------------------

    def _notify_server(self) -> Optional[Dict[str, object]]:
        if self.serve_url is None:
            return None
        from ..serve.client import ServeClient

        try:
            response = ServeClient(self.serve_url).reload_model()
            return {"swapped": response.get("swapped"), "model": response.get("model")}
        except (ServeError, ReproError) as exc:
            self._log(f"  warning: server reload failed: {exc}")
            return {"error": str(exc)}

    def _artifact_path(self, version_name: str):
        for version in self.registry.versions():
            if version.version == version_name:
                return version
        raise LoopError(
            f"loop state names artifact {version_name!r} but registry "
            f"{self.registry.root} does not contain it"
        )

    def _run_round(
        self, round_index: int, serving_metrics: Dict[str, object]
    ) -> Dict[str, object]:
        cfg = self.config
        pipeline = EvaluationPipeline(self.predictor, engine=cfg.engine)
        selected: Dict[str, int] = {}
        scanned = 0
        to_label: List[Tuple[str, DesignPoint]] = []
        for kernel in cfg.kernels:
            candidates, predictions = self._scan_candidates(
                pipeline, kernel, round_index
            )
            scanned += len(candidates)
            selection = self._select(candidates, predictions)
            chosen = selection["chosen"]
            selected[kernel] = len(chosen)
            to_label.extend((kernel, candidates[i][1]) for i in chosen)

        size_before, overwrites_before = len(self.database), self.database.overwrites
        evaluator = Evaluator(self.tool, self.database)
        stamp = self._now(round_index)
        for kernel, point in to_label:
            evaluator.evaluate(
                self._specs[kernel],
                point,
                source=f"loop:r{round_index}",
                round=round_index,
                created=stamp,
            )
        added = len(self.database) - size_before
        overwrites = self.database.overwrites - overwrites_before
        self.database.save(self.database_path)
        self._log(
            f"  round {round_index}: labeled {len(to_label)} points "
            f"({added} new, {overwrites} overwrites) from {scanned} scanned"
        )

        candidate = self._fine_tune(self.predictor, round_index)
        candidate_metrics = self._metrics(candidate)
        candidate_rmse = candidate_metrics["rmse"]["all"]
        serving_rmse = serving_metrics["rmse"]["all"]
        accepted = (not cfg.gate_on_holdout) or candidate_rmse <= serving_rmse + 1e-12

        server = None
        if accepted:
            version = self.registry.publish(
                candidate, activate=True, created=self._now(round_index)
            )
            # Continue from the artifact round-trip (bit-exact), so a
            # resumed loop — which can only reload from the registry —
            # trains on exactly the same weights this run does.
            self.predictor = load_artifact(version.path)
            metrics = candidate_metrics
            server = self._notify_server()
            self._log(
                f"  round {round_index}: RMSE {serving_rmse:.4f} -> "
                f"{candidate_rmse:.4f}, published {version.version}"
            )
        else:
            current = self.registry.current()
            version = current if current is not None else None
            metrics = serving_metrics
            self._log(
                f"  round {round_index}: candidate RMSE {candidate_rmse:.4f} "
                f"regressed from {serving_rmse:.4f}; keeping "
                f"{version.version if version else 'baseline'}"
            )

        return {
            "round": round_index,
            "selected": selected,
            "scanned": scanned,
            "labeled": len(to_label),
            "added": added,
            "overwrites": overwrites,
            "database_size": len(self.database),
            "accepted": accepted,
            "candidate_rmse": candidate_rmse,
            "metrics": metrics,
            "artifact_version": version.version if version else None,
            "artifact_sha256": version.sha256 if version else None,
            "server": server,
        }

    def run(self, resume: bool = False) -> LoopResult:
        """Run (or resume) the configured number of rounds."""
        cfg = self.config
        fingerprint = LoopState.fingerprint(cfg.signature())
        baseline: Optional[Dict[str, object]] = None
        completed: List[Dict[str, object]] = []

        if resume and self.state.exists():
            raw = self.state.validate(fingerprint)
            baseline = raw["baseline"]
            completed = list(raw["completed"])
            self.database = Database.load(raw["database_path"])
            last = completed[-1] if completed else baseline
            version = self._artifact_path(last["artifact_version"])
            self.predictor = load_artifact(version.path)
            self._log(
                f"resuming after round {len(completed)} "
                f"(serving {version.version}, database {len(self.database)} records)"
            )

        with span("loop.run", kernels=",".join(cfg.kernels), rounds=cfg.rounds):
            if baseline is None:
                self._ensure_eval_sets()
                metrics = self._metrics(self.predictor)
                current = self.registry.current()
                if current is None:
                    current = self.registry.publish(
                        self.predictor, activate=True, created=self._now(0)
                    )
                baseline = {
                    "round": 0,
                    "metrics": metrics,
                    "artifact_version": current.version,
                    "artifact_sha256": current.sha256,
                }
                self.state.write(
                    fingerprint,
                    self.database_path,
                    str(self.registry.root),
                    baseline,
                    completed,
                )
                self._log(
                    f"baseline: RMSE {metrics['rmse']['all']:.4f}, "
                    f"accuracy {metrics['classification']['accuracy']:.3f} "
                    f"({current.version})"
                )

            resumed = len(completed)
            serving_metrics = (completed[-1] if completed else baseline)["metrics"]
            for round_index in range(len(completed) + 1, cfg.rounds + 1):
                with span("loop.round", round=round_index):
                    report = self._run_round(round_index, serving_metrics)
                serving_metrics = report["metrics"]
                completed.append(report)
                self.state.write(
                    fingerprint,
                    self.database_path,
                    str(self.registry.root),
                    baseline,
                    completed,
                )

        return LoopResult(baseline=baseline, rounds=completed, resumed_rounds=resumed)
