"""Parallel sharded DSE with checkpoint/resume.

The surrogate makes design-space exploration embarrassingly parallel:
once the space is deterministically split into contiguous shards of
the enumeration order, each shard can be scored by an independent
worker process running the same cascade/:class:`EvaluationPipeline`
as the serial explorer, and the shard-local top-M lists and Pareto
fronts merge back into results **bit-identical** to the single-process
sweep (both the iterated top-M merge and the incremental Pareto merge
are batch-boundary invariant — see
:meth:`~repro.dse.search.ModelDSE.evaluate_stream`).

:class:`ParallelDSE` adds the operational layer any scatter/gather
stack needs:

- a per-worker task queue + per-worker result pipe (fork-started
  processes, so untrained/loaded predictors transfer without pickling;
  a worker that dies mid-message cannot wedge its siblings' results);
- per-worker heartbeats (emitted at shard start and after every
  evaluation batch) with an optional stall timeout;
- automatic retry of shards whose worker dies mid-shard — exactly once
  per shard, logged on the ``repro.dse.parallel`` logger; a second
  death raises :class:`~repro.errors.WorkerCrashError`;
- a fault/latency injection hook (:class:`WorkerHooks`) for tests and
  hardware-independent benchmarks;
- an atomic JSON checkpoint journal of completed shards plus the
  running Pareto front, so a killed run resumes without re-evaluating
  finished shards (``--resume``); corrupt or mismatched checkpoints
  raise :class:`~repro.errors.CheckpointError`.

``workers=1`` evaluates shards in-process (no subprocesses at all) —
useful for checkpointed single-core runs and as the deterministic
reference in tests.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Dict, List, Optional, Sequence

from ..designspace.space import DesignSpace
from ..errors import CheckpointError, DSEError, WorkerCrashError
from ..explorer.database import deserialize_point, serialize_point
from ..frontend.pragmas import PipelineOption
from ..model.predictor import Prediction
from ..obs import TRACER, counter, histogram, span
from ..workers import ForkSupervisor, SupervisedWorker
from .pareto import objective_keys_for
from .pipeline import EvaluationPipeline, PipelineStats
from .search import DSECandidate, DSEResult, Frontier, ModelDSE

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "DSECheckpoint",
    "ParallelDSE",
    "ShardResult",
    "WorkerHooks",
    "candidate_payload",
    "candidate_from_payload",
]

logger = logging.getLogger("repro.dse.parallel")

#: Version of the checkpoint journal written by :class:`DSECheckpoint`.
CHECKPOINT_SCHEMA_VERSION = 1

# Process-wide observability instruments (see ``repro.obs``).  All
# duration/deadline math in this module runs on monotonic clocks
# (``time.monotonic`` / the tracer's ``perf_counter`` epoch); a stepped
# wall clock can therefore neither trip the stall detector nor skew the
# heartbeat-lag histogram.
_HEARTBEAT_LAG = histogram("dse.heartbeat_lag_seconds")
_SHARD_RETRIES = counter("dse.shard_retries")
_SHARDS_COMPLETED = counter("dse.shards_completed")
_WORKER_CRASHES = counter("dse.worker_crashes")
_TEARDOWN_ERRORS = counter("dse.teardown_errors")


# ---------------------------------------------------------------------------
# candidate (de)serialization — lossless float round-trip via JSON shortest-repr


def candidate_payload(candidate: DSECandidate) -> Dict[str, object]:
    """JSON form of one scored candidate (exact float round-trip)."""
    prediction = candidate.prediction
    return {
        "point": serialize_point(candidate.point),
        "prediction": {
            "valid": prediction.valid,
            "valid_prob": prediction.valid_prob,
            "objectives": prediction.objectives,
        },
    }


def candidate_from_payload(raw: Dict[str, object]) -> DSECandidate:
    """Inverse of :func:`candidate_payload`."""
    try:
        pred = raw["prediction"]
        objectives = pred["objectives"]
        prediction = Prediction(
            valid=bool(pred["valid"]),
            valid_prob=float(pred["valid_prob"]),
            objectives=None
            if objectives is None
            else {str(k): float(v) for k, v in objectives.items()},
        )
        return DSECandidate(point=deserialize_point(raw["point"]), prediction=prediction)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed candidate payload: {exc}") from None


def _stats_payload(stats: Optional[PipelineStats]) -> Optional[Dict[str, object]]:
    if stats is None:
        return None
    return {f.name: getattr(stats, f.name) for f in dataclass_fields(stats)}


def _stats_from_payload(raw) -> Optional[PipelineStats]:
    if raw is None:
        return None
    names = {f.name for f in dataclass_fields(PipelineStats)}
    try:
        return PipelineStats(**{k: v for k, v in raw.items() if k in names})
    except TypeError as exc:
        raise CheckpointError(f"malformed stats payload: {exc}") from None


# ---------------------------------------------------------------------------
# shard bookkeeping


@dataclass
class ShardResult:
    """One shard's evaluation outcome (what workers send back)."""

    index: int
    top: List[DSECandidate]
    pareto: List[DSECandidate]
    explored: int
    stats: Optional[PipelineStats] = None
    worker: int = -1
    attempts: int = 1

    def to_payload(self) -> Dict[str, object]:
        return {
            "explored": self.explored,
            "worker": self.worker,
            "attempts": self.attempts,
            "stats": _stats_payload(self.stats),
            "top": [candidate_payload(c) for c in self.top],
            "pareto": [candidate_payload(c) for c in self.pareto],
        }

    @classmethod
    def from_payload(cls, index: int, raw: Dict[str, object]) -> "ShardResult":
        try:
            return cls(
                index=index,
                top=[candidate_from_payload(c) for c in raw["top"]],
                pareto=[candidate_from_payload(c) for c in raw["pareto"]],
                explored=int(raw["explored"]),
                stats=_stats_from_payload(raw.get("stats")),
                worker=int(raw.get("worker", -1)),
                attempts=int(raw.get("attempts", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed shard {index} in checkpoint: {exc}"
            ) from None


@dataclass
class WorkerHooks:
    """Instrumentation hooks threaded into every worker.

    ``on_shard_start(worker_id, shard_index, attempt)`` runs before a
    shard is evaluated — tests inject faults here (``os._exit``) to
    exercise the retry path.  ``batch_overhead_seconds`` adds a fixed
    sleep after every evaluation batch, modelling the per-dispatch cost
    (RPC / accelerator launch / HLS invocation) that parallel workers
    overlap; ``benchmarks/bench_parallel_dse.py`` uses it so scaling
    numbers are hardware-independent.  Hooks must be fork-inheritable
    (plain functions/closures are fine); they never change results.
    """

    on_shard_start: Optional[Callable[[int, int, int], None]] = None
    batch_overhead_seconds: float = 0.0


# ---------------------------------------------------------------------------
# checkpoint journal


class DSECheckpoint:
    """Atomic JSON journal of completed shards + the running Pareto front.

    The file is rewritten atomically (``.tmp`` + ``os.replace``) after
    every completed shard, so at any kill point it is either the old or
    the new complete journal — never a torn write from THIS process.  A
    truncated or hand-edited file, a schema mismatch, or a fingerprint
    mismatch (different kernel/space/search parameters) raises
    :class:`~repro.errors.CheckpointError` on resume.
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)

    @staticmethod
    def fingerprint(
        kernel: str,
        space: DesignSpace,
        top_m: int,
        fit_threshold: float,
        shard_size: int,
        num_shards: int,
        total_points: int,
    ) -> str:
        signature = {
            "kernel": kernel,
            "knobs": [
                {
                    "name": knob.name,
                    "candidates": [
                        v.value if isinstance(v, PipelineOption) else int(v)
                        for v in knob.candidates
                    ],
                }
                for knob in space.knobs
            ],
            "top_m": top_m,
            "fit_threshold": fit_threshold,
            "shard_size": shard_size,
            "num_shards": num_shards,
            "total_points": total_points,
        }
        blob = json.dumps(signature, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self) -> Dict[str, object]:
        """Parse and structurally validate the journal (not the fingerprint)."""
        try:
            with open(self.path, "r") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {self.path} is corrupt or half-written "
                f"(invalid JSON at line {exc.lineno}); delete it to start fresh"
            ) from None
        if not isinstance(raw, dict):
            raise CheckpointError(f"checkpoint {self.path}: expected a JSON object")
        version = raw.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path}: schema v{version!r} unsupported "
                f"(this build writes v{CHECKPOINT_SCHEMA_VERSION})"
            )
        for key in ("kernel", "fingerprint", "shard_size", "num_shards",
                    "total_points", "completed"):
            if key not in raw:
                raise CheckpointError(
                    f"checkpoint {self.path} is corrupt or half-written "
                    f"(missing field {key!r}); delete it to start fresh"
                )
        if not isinstance(raw["completed"], dict):
            raise CheckpointError(f"checkpoint {self.path}: 'completed' must be an object")
        return raw

    def write(
        self,
        *,
        kernel: str,
        fingerprint: str,
        top_m: int,
        fit_threshold: float,
        shard_size: int,
        num_shards: int,
        total_points: int,
        completed: Dict[int, ShardResult],
        pareto: Sequence[DSECandidate],
        retries: int,
    ) -> None:
        payload = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "kernel": kernel,
            "fingerprint": fingerprint,
            "top_m": top_m,
            "fit_threshold": fit_threshold,
            "shard_size": shard_size,
            "num_shards": num_shards,
            "total_points": total_points,
            "retries": retries,
            "completed": {
                str(index): result.to_payload()
                for index, result in sorted(completed.items())
            },
            "pareto": [candidate_payload(c) for c in pareto],
        }
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# worker process


@dataclass
class _WorkerConfig:
    """Everything a worker needs to rebuild its evaluation stack."""

    top_m: int
    fit_threshold: float
    batch_size: int
    pipeline_batch_size: int
    engine: str
    cache: bool


def _worker_main(worker_id, result_q, predictor, spec, space, config, task_q, hooks):
    """Worker loop: one shard per task, heartbeat per batch.

    Runs in a fork-started child, so ``predictor``/``space``/``hooks``
    arrive by memory inheritance, not pickling.  Each worker owns a
    fresh :class:`EvaluationPipeline` (compiled engines and caches are
    per-process; caching never changes values, so per-worker caches
    keep results bit-identical).
    """
    pipeline = EvaluationPipeline(
        predictor,
        batch_size=config.pipeline_batch_size,
        engine=config.engine,
        cache=config.cache,
    )
    dse = ModelDSE(
        predictor, spec, space,
        fit_threshold=config.fit_threshold,
        top_m=config.top_m,
        batch_size=config.batch_size,
        pipeline=pipeline,
    )
    while True:
        task = task_q.get()
        if task is None:
            result_q.put(("exit", worker_id))
            return
        index, attempt, points = task
        # Heartbeat stamps are CLOCK_MONOTONIC: fork-started children
        # share the parent's monotonic clock (same boot epoch), so the
        # orchestrator can difference them for queue-lag without any
        # wall-clock involvement.
        result_q.put(("hb", worker_id, index, time.monotonic()))
        try:
            if hooks is not None and hooks.on_shard_start is not None:
                hooks.on_shard_start(worker_id, index, attempt)

            def on_batch(_explored):
                if hooks is not None and hooks.batch_overhead_seconds > 0:
                    time.sleep(hooks.batch_overhead_seconds)
                result_q.put(("hb", worker_id, index, time.monotonic()))

            before = pipeline.stats.copy()
            top, pareto, explored = dse.evaluate_stream(points, on_batch=on_batch)
            result = ShardResult(
                index=index,
                top=top,
                pareto=pareto,
                explored=explored,
                stats=pipeline.stats - before,
                worker=worker_id,
                attempts=attempt,
            )
            result_q.put(("result", worker_id, result))
        except BaseException:
            result_q.put(("error", worker_id, index, traceback.format_exc()))


class _WorkerHandle(SupervisedWorker):
    """Orchestrator-side state for one live worker process.

    The process/heartbeat mechanics come from
    :class:`~repro.workers.SupervisedWorker` (shared with the serving
    pool); this subclass adds the DSE-side scheduling state.
    """

    def __init__(self, worker_id, process, channel=None):
        super().__init__(worker_id, process, channel)
        self.assigned: Optional[int] = None
        self.assigned_at: Optional[float] = None  # tracer-epoch seconds

    @property
    def task_queue(self):
        return self.channel


# ---------------------------------------------------------------------------
# the orchestrator


class ParallelDSE:
    """Multiprocessing DSE orchestrator over deterministic shards.

    Parameters mirror :class:`~repro.dse.search.ModelDSE` where they
    overlap; the parallel-specific ones:

    workers:
        Worker processes.  ``1`` evaluates shards in-process (no
        subprocesses) — the checkpointing serial mode.
    shard_size / shards_per_worker:
        Shard granularity.  Explicit ``shard_size`` wins; otherwise the
        space is cut into ``workers * shards_per_worker`` shards so a
        died-and-retried shard costs a fraction of the run.
    checkpoint_path / resume:
        Journal location.  With ``resume=True`` an existing journal's
        completed shards are merged in without re-evaluation (its shard
        plan is adopted); a missing file starts fresh, a corrupt or
        mismatched one raises :class:`CheckpointError`.
    hooks:
        :class:`WorkerHooks` for fault/latency injection.
    heartbeat_timeout_seconds:
        When set, a worker that is alive but has not heartbeat for this
        long is killed and its shard retried (same single-retry budget
        as a crash).
    max_attempts:
        Evaluation attempts per shard before
        :class:`~repro.errors.WorkerCrashError` (default 2: the
        original run plus exactly one retry).
    """

    def __init__(
        self,
        predictor,
        spec,
        space: DesignSpace,
        workers: int = 2,
        top_m: int = 10,
        fit_threshold: float = 0.8,
        batch_size: int = 256,
        pipeline_batch_size: int = 24,
        engine: str = "auto",
        cache: bool = True,
        exhaustive_limit: int = 20_000,
        shard_size: Optional[int] = None,
        shards_per_worker: int = 4,
        checkpoint_path: Optional[str] = None,
        resume: bool = False,
        hooks: Optional[WorkerHooks] = None,
        heartbeat_timeout_seconds: Optional[float] = None,
        max_attempts: int = 2,
        mp_context: str = "fork",
    ):
        if workers < 1:
            raise DSEError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise DSEError(f"max_attempts must be >= 1, got {max_attempts}")
        if resume and checkpoint_path is None:
            raise DSEError("resume=True requires a checkpoint_path")
        self.predictor = predictor
        self.spec = spec
        self.space = space
        self.workers = workers
        self.top_m = top_m
        self.fit_threshold = fit_threshold
        self.batch_size = batch_size
        self.pipeline_batch_size = pipeline_batch_size
        self.engine = engine
        self.cache = cache
        self.exhaustive_limit = exhaustive_limit
        self.shard_size = shard_size
        self.shards_per_worker = max(int(shards_per_worker), 1)
        self.checkpoint = DSECheckpoint(checkpoint_path) if checkpoint_path else None
        self.resume = resume
        self.hooks = hooks
        self.heartbeat_timeout_seconds = heartbeat_timeout_seconds
        self.max_attempts = max_attempts
        self.mp_context = mp_context
        # The shard searchers target the predictor's bound device (they
        # are built without an explicit one), so the shard fronts and
        # their merge compare on that device's objective keys.
        self.pareto_keys = objective_keys_for(getattr(predictor, "device", None))

    # -- planning ---------------------------------------------------------------

    def _plan(self):
        """Enumerate the space and cut it into contiguous shards."""
        if self.space.size(exact_limit=self.exhaustive_limit) > self.exhaustive_limit:
            raise DSEError(
                f"{self.spec.name}: design space exceeds exhaustive_limit="
                f"{self.exhaustive_limit}; parallel sharding needs an "
                "exhaustively enumerable space — use the serial heuristic "
                "search (workers=1, no checkpoint) for this kernel"
            )
        points = list(self.space.enumerate())
        total = len(points)
        if self.shard_size is not None:
            size = max(int(self.shard_size), 1)
        else:
            size = max(math.ceil(total / (self.workers * self.shards_per_worker)), 1)
        shards = [points[i:i + size] for i in range(0, total, size)] or [[]]
        return shards, size, total

    def _load_resume_state(self, shards, shard_size, total):
        """Validate + absorb an existing checkpoint; returns run state."""
        completed: Dict[int, ShardResult] = {}
        prior_retries = 0
        if self.checkpoint is None:
            return shards, shard_size, completed, prior_retries
        if not self.resume or not self.checkpoint.exists():
            if self.resume:
                logger.info(
                    "checkpoint %s not found; starting fresh", self.checkpoint.path
                )
            return shards, shard_size, completed, prior_retries
        raw = self.checkpoint.load()
        stored_size = int(raw["shard_size"])
        if stored_size != shard_size:
            # Adopt the journal's shard plan so completed shards line up.
            size = max(stored_size, 1)
            points = [p for shard in shards for p in shard]
            shards = [points[i:i + size] for i in range(0, len(points), size)] or [[]]
            shard_size = size
        expected = DSECheckpoint.fingerprint(
            self.spec.name, self.space, self.top_m, self.fit_threshold,
            shard_size, len(shards), total,
        )
        if raw["fingerprint"] != expected:
            raise CheckpointError(
                f"checkpoint {self.checkpoint.path} was written for a different "
                f"run (kernel/space/search parameters changed); refusing to "
                "resume — delete it to start fresh"
            )
        for key, payload in raw["completed"].items():
            try:
                index = int(key)
            except ValueError:
                raise CheckpointError(
                    f"checkpoint {self.checkpoint.path}: bad shard index {key!r}"
                ) from None
            if not 0 <= index < len(shards):
                raise CheckpointError(
                    f"checkpoint {self.checkpoint.path}: shard index {index} "
                    f"out of range (num_shards={len(shards)})"
                )
            completed[index] = ShardResult.from_payload(index, payload)
        prior_retries = int(raw.get("retries", 0))
        return shards, shard_size, completed, prior_retries

    def _merge_shards(self, completed: Dict[int, "ShardResult"]) -> Frontier:
        """Fold shard results in shard order.

        Shard order is enumeration order, so ties keep the serial
        sweep's ordering exactly.
        """
        frontier = Frontier(self.top_m, self.pareto_keys)
        for index in sorted(completed):
            frontier.merge(completed[index].top, completed[index].pareto)
        return frontier

    # -- checkpoint write --------------------------------------------------------

    def _checkpoint_write(self, fingerprint, shard_size, num_shards, total,
                          completed, retries):
        if self.checkpoint is None:
            return
        pareto = self._merge_shards(completed).pareto
        self.checkpoint.write(
            kernel=self.spec.name,
            fingerprint=fingerprint,
            top_m=self.top_m,
            fit_threshold=self.fit_threshold,
            shard_size=shard_size,
            num_shards=num_shards,
            total_points=total,
            completed=completed,
            pareto=pareto,
            retries=retries,
        )

    # -- public API --------------------------------------------------------------

    def run(self, time_limit_seconds: float = 3600.0) -> DSEResult:
        """Evaluate all shards (resuming if configured) and merge."""
        with span(
            "dse.parallel.run", kernel=self.spec.name, workers=self.workers
        ) as root:
            return self._run(time_limit_seconds, root)

    def _run(self, time_limit_seconds: float, root) -> DSEResult:
        start = time.monotonic()
        shards, shard_size, total = self._plan()
        shards, shard_size, completed, prior_retries = self._load_resume_state(
            shards, shard_size, total
        )
        num_shards = len(shards)
        fingerprint = DSECheckpoint.fingerprint(
            self.spec.name, self.space, self.top_m, self.fit_threshold,
            shard_size, num_shards, total,
        )
        resumed = sorted(completed)
        pending = [i for i in range(num_shards) if i not in completed]
        retries = 0

        if pending:
            runner = self._run_in_process if self.workers == 1 else self._run_workers
            retries = runner(
                shards, pending, completed,
                fingerprint, shard_size, num_shards, total, prior_retries,
                deadline=start + time_limit_seconds,
            )

        explored = 0
        evaluated_now = 0
        stats: Optional[PipelineStats] = None
        with span("dse.pareto_merge", shards=len(completed)):
            frontier = self._merge_shards(completed)
        for index in sorted(completed):
            shard = completed[index]
            explored += shard.explored
            if index not in resumed:
                evaluated_now += shard.explored
            if shard.stats is not None:
                stats = shard.stats if stats is None else stats + shard.stats
        seconds = time.monotonic() - start
        root.set(
            shards=num_shards, shards_resumed=len(resumed),
            retries=prior_retries + retries, explored=explored,
        )
        return DSEResult(
            kernel=self.spec.name,
            top=frontier.top,
            explored=explored,
            seconds=seconds,
            exhaustive=True,
            predictions_per_second=evaluated_now / seconds if seconds > 0 else 0.0,
            stats=stats,
            pareto=frontier.pareto,
            workers=self.workers,
            shards=num_shards,
            shards_resumed=len(resumed),
            retries=prior_retries + retries,
        )

    # -- in-process execution (workers == 1) -------------------------------------

    def _run_in_process(self, shards, pending, completed, fingerprint,
                        shard_size, num_shards, total, prior_retries, deadline):
        pipeline = EvaluationPipeline(
            self.predictor,
            batch_size=self.pipeline_batch_size,
            engine=self.engine,
            cache=self.cache,
        )
        dse = ModelDSE(
            self.predictor, self.spec, self.space,
            fit_threshold=self.fit_threshold,
            top_m=self.top_m,
            batch_size=self.batch_size,
            exhaustive_limit=self.exhaustive_limit,
            pipeline=pipeline,
        )
        hooks = self.hooks
        for index in pending:
            if time.monotonic() > deadline:
                break
            if hooks is not None and hooks.on_shard_start is not None:
                hooks.on_shard_start(0, index, 1)

            def on_batch(_explored):
                if hooks is not None and hooks.batch_overhead_seconds > 0:
                    time.sleep(hooks.batch_overhead_seconds)

            before = pipeline.stats.copy()
            with span("dse.shard", shard=index, points=len(shards[index]), worker=0):
                top, pareto, explored = dse.evaluate_stream(
                    shards[index], on_batch=on_batch
                )
            completed[index] = ShardResult(
                index=index, top=top, pareto=pareto, explored=explored,
                stats=pipeline.stats - before, worker=0, attempts=1,
            )
            _SHARDS_COMPLETED.inc()
            self._checkpoint_write(
                fingerprint, shard_size, num_shards, total, completed, prior_retries
            )
        return 0

    # -- multiprocess execution ---------------------------------------------------

    def _run_workers(self, shards, pending, completed, fingerprint,
                     shard_size, num_shards, total, prior_retries, deadline):
        supervisor = ForkSupervisor(
            _worker_main,
            mp_context=self.mp_context,
            name_prefix="repro-dse-worker",
            worker_class=_WorkerHandle,
        )
        config = _WorkerConfig(
            top_m=self.top_m,
            fit_threshold=self.fit_threshold,
            batch_size=self.batch_size,
            pipeline_batch_size=self.pipeline_batch_size,
            engine=self.engine,
            cache=self.cache,
        )
        queue: deque = deque(pending)
        attempts: Dict[int, int] = {}
        retries = 0

        def spawn() -> None:
            task_queue = supervisor.context.Queue()
            supervisor.spawn(
                self.predictor, self.spec, self.space,
                config, task_queue, self.hooks,
                channel=task_queue,
            )

        def drain(block_seconds: float = 0.0) -> None:
            """Process every message that has arrived from the workers."""
            for message in supervisor.receive(block_seconds):
                kind = message[0]
                if kind == "hb":
                    _, worker_id, _index, stamp = message
                    handle = supervisor.get(worker_id)
                    if handle is not None:
                        # Liveness keys off the orchestrator's own
                        # monotonic arrival clock; the worker's stamp
                        # (same CLOCK_MONOTONIC epoch under fork) only
                        # feeds the queue-lag histogram.
                        handle.beat()
                        _HEARTBEAT_LAG.observe(
                            max(handle.last_heartbeat - stamp, 0.0)
                        )
                elif kind == "result":
                    _, worker_id, shard = message
                    handle = supervisor.get(worker_id)
                    if handle is not None and handle.assigned == shard.index:
                        handle.assigned = None
                        handle.beat()
                        if handle.assigned_at is not None:
                            TRACER.record(
                                "dse.shard",
                                handle.assigned_at,
                                TRACER.now() - handle.assigned_at,
                                shard=shard.index, worker=worker_id,
                                points=shard.explored, attempt=shard.attempts,
                            )
                            handle.assigned_at = None
                    if shard.index not in completed:
                        completed[shard.index] = shard
                        _SHARDS_COMPLETED.inc()
                        self._checkpoint_write(
                            fingerprint, shard_size, num_shards, total,
                            completed, prior_retries + retries,
                        )
                elif kind == "error":
                    _, worker_id, index, trace = message
                    raise DSEError(
                        f"worker {worker_id} failed on shard {index}:\n{trace}"
                    )
                elif kind == "exit":
                    _, worker_id = message
                    handle = supervisor.get(worker_id)
                    if handle is not None:
                        handle.beat()

        def retry_shard(handle: _WorkerHandle, reason: str) -> None:
            nonlocal retries
            index = handle.assigned
            handle.assigned = None
            supervisor.discard(handle.worker_id)
            if index is None or index in completed:
                return
            if attempts.get(index, 0) >= self.max_attempts:
                raise WorkerCrashError(
                    f"shard {index} of {self.spec.name} failed "
                    f"{attempts[index]} times (last worker "
                    f"{handle.worker_id}: {reason}); giving up"
                )
            retries += 1
            _SHARD_RETRIES.inc()
            logger.warning(
                "worker %d %s on shard %d (attempt %d/%d); retrying once",
                handle.worker_id, reason, index,
                attempts.get(index, 0), self.max_attempts,
            )
            queue.appendleft(index)

        try:
            for _ in range(min(self.workers, len(queue))):
                spawn()
            out_of_time = False
            while True:
                # Assign one shard per idle worker.
                for handle in supervisor.handles():
                    if handle.assigned is not None or not handle.alive():
                        continue
                    if not queue or time.monotonic() > deadline:
                        break
                    index = queue.popleft()
                    attempts[index] = attempts.get(index, 0) + 1
                    handle.task_queue.put((index, attempts[index], shards[index]))
                    handle.assigned = index
                    handle.assigned_at = TRACER.now()
                    handle.beat()
                in_flight = [
                    h for h in supervisor.handles() if h.assigned is not None
                ]
                if time.monotonic() > deadline:
                    out_of_time = True
                if not in_flight and (not queue or out_of_time):
                    break
                drain(block_seconds=0.05)
                # Liveness: a dead worker with an assigned shard lost it.
                for handle in supervisor.handles():
                    if handle.assigned is None:
                        continue
                    if not handle.alive():
                        drain()  # absorb any result that raced the crash
                        if handle.assigned is not None:
                            _WORKER_CRASHES.inc()
                            exitcode = handle.process.exitcode
                            retry_shard(handle, f"died (exit code {exitcode})")
                            if queue and len(supervisor) < self.workers:
                                spawn()
                    elif (
                        self.heartbeat_timeout_seconds is not None
                        and handle.heartbeat_age() > self.heartbeat_timeout_seconds
                    ):
                        supervisor.kill(handle)
                        drain()
                        if handle.assigned is not None:
                            retry_shard(
                                handle,
                                f"stalled (no heartbeat for "
                                f"{self.heartbeat_timeout_seconds:g}s)",
                            )
                            if queue and len(supervisor) < self.workers:
                                spawn()
            drain()
        finally:
            def _count_notify_error(handle, exc):
                _TEARDOWN_ERRORS.inc()
                logger.warning(
                    "failed to send shutdown sentinel to worker %d: %s",
                    handle.worker_id, exc,
                )

            supervisor.shutdown(
                notify=lambda handle: handle.task_queue.put_nowait(None),
                on_notify_error=_count_notify_error,
            )
        return retries
