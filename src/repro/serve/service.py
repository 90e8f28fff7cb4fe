"""The request-level serving façade over one loaded predictor stack.

:class:`PredictorService` owns the evaluation pipeline, the
micro-batcher, and the metrics for one artifact.  The HTTP layer (and
tests) talk to it in domain terms — kernels, design points,
:class:`~repro.model.predictor.Prediction` — while it handles request
validation, point completion, batching, per-request deadlines, and
server-side DSE.

The predictor is held in a *generation*: predictor + pipeline +
micro-batcher + model identity, swapped atomically by
:meth:`PredictorService.swap`.  Each request pins the generation it
entered with (an in-flight refcount), so every response is computed
end-to-end by exactly one model version — the one whose hash it
reports — and a swap drains in-flight work on the old generation
before closing its batcher, dropping zero requests.

Validation errors raise :class:`~repro.errors.ReproError` subclasses
the HTTP layer maps to structured 4xx responses; overload raises
:class:`~repro.errors.BacklogFullError` and expired deadlines raise
:class:`~repro.errors.DeadlineExceededError`, both mapped to HTTP 429
with a ``Retry-After`` hint.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..designspace import DesignSpace, build_design_space
from ..designspace.space import DesignPoint
from ..dse.crossdevice import device_pipeline
from ..dse.pipeline import EvaluationPipeline
from ..dse.run import run_dse
from ..errors import DesignSpaceError, DSEError, HLSError, ServeError
from ..hls.device import DEFAULT_DEVICE, get_device, list_devices
from ..kernels import get_kernel, list_kernels
from ..model.predictor import DEFAULT_VALID_THRESHOLD, Prediction
from .batcher import MicroBatcher
from .metrics import ServeMetrics
from .schemas import dse_result_payload

__all__ = ["PredictorService"]


class _Generation:
    """One model version's serving state: pipeline, batcher, identity.

    ``acquire``/``release`` bracket every request served by this
    generation; ``retire`` blocks new entries and waits for the
    in-flight count to drain.  That handshake is what makes a swap
    both zero-drop (nothing is rejected mid-flight) and bit-consistent
    (no request straddles two model versions).
    """

    def __init__(self, predictor, pipeline, batcher, info: Dict[str, object],
                 pipeline_for=None):
        self.predictor = predictor
        self.pipeline = pipeline
        self.batcher = batcher
        self.info = dict(info)
        # ``pipeline_for(device_name)`` lazily builds a pipeline bound
        # to another registered device (sharing this generation's model
        # weights); the default serves only the predictor's own target.
        self.pipeline_for = pipeline_for or (lambda name: pipeline)
        self._cond = threading.Condition()
        self._inflight = 0
        self._retired = False

    def acquire(self) -> bool:
        with self._cond:
            if self._retired:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._cond:
            self._inflight -= 1
            if self._inflight <= 0:
                self._cond.notify_all()

    def retire(self) -> None:
        """Refuse new requests, then wait for in-flight ones to finish."""
        with self._cond:
            self._retired = True
            while self._inflight > 0:
                self._cond.wait()


class PredictorService:
    """Predictions, server-side DSE, and metrics for one predictor.

    Parameters
    ----------
    predictor:
        A loaded :class:`~repro.model.predictor.GNNDSEPredictor` (or
        any ``predict_batch`` duck type the pipeline accepts).
    batch_size:
        Micro-batch capacity; also the pipeline's chunk size, so one
        full micro-batch is one compiled forward.
    max_delay_seconds:
        Micro-batcher flush deadline for partial batches.
    max_pending:
        Bound on queued requests before load shedding kicks in.
    request_timeout_seconds:
        Per-request wait bound inside :meth:`predict`.
    max_dse_seconds:
        Cap on client-supplied ``time_limit`` for server-side DSE.
    model_info:
        Identity of the served model (``version``, ``sha256``,
        ``path``), reported by ``/v1/model`` and stamped on every
        response; defaults to an anonymous identity.
    registry:
        Optional :class:`~repro.serve.registry.ModelRegistry` this
        service can :meth:`reload` from (follows the ``current``
        pointer and hot-swaps on change).
    dispatch_overhead_seconds:
        Modeled extra cost per batch dispatch (a sleep before the
        forward pass).  Load tests use it to stand in for accelerator
        inference latency, so worker-scaling measurements are about
        scheduling — not this container's core count.  0 (default)
        disables it.  Requests answered from the prediction cache skip
        the batcher and so never pay it; pass ``cache=False`` to make
        every request dispatch.
    """

    def __init__(
        self,
        predictor,
        batch_size: int = 16,
        max_delay_seconds: float = 0.005,
        max_pending: int = 1024,
        engine: str = "auto",
        cache: bool = True,
        request_timeout_seconds: float = 30.0,
        max_dse_seconds: float = 60.0,
        model_info: Optional[Dict[str, object]] = None,
        registry=None,
        dispatch_overhead_seconds: float = 0.0,
    ):
        self.metrics = ServeMetrics()
        self.request_timeout_seconds = float(request_timeout_seconds)
        self.max_dse_seconds = float(max_dse_seconds)
        self.registry = registry
        self._batch_size = int(batch_size)
        self._max_delay_seconds = float(max_delay_seconds)
        self._max_pending = int(max_pending)
        self._engine = engine
        self._cache = cache
        self._dispatch_overhead_seconds = max(float(dispatch_overhead_seconds), 0.0)
        self._spaces: Dict[str, DesignSpace] = {}
        self._spaces_lock = threading.Lock()
        self._swap_lock = threading.Lock()
        self._closed = False
        self.swaps = 0
        self._gen = self._make_generation(predictor, model_info)

    def _make_generation(
        self, predictor, model_info: Optional[Dict[str, object]]
    ) -> _Generation:
        pipeline = EvaluationPipeline(
            predictor,
            batch_size=self._batch_size,
            engine=self._engine,
            cache=self._cache,
        )
        home_device = getattr(getattr(predictor, "device", None), "name", "") or ""
        device_pipelines: Dict[str, EvaluationPipeline] = {}
        device_lock = threading.Lock()

        def pipeline_for(device_name: str) -> EvaluationPipeline:
            """Pipeline serving ``device_name`` (lazily built per device).

            "" and the predictor's own target map to the base pipeline;
            other registered devices get
            :func:`~repro.dse.crossdevice.device_pipeline`'s binding of
            the base pipeline — same weights, device-conditioned
            encodings, capacity-rescaled utilizations.
            """
            if not device_name or device_name == home_device:
                return pipeline
            if home_device == "" and device_name == DEFAULT_DEVICE.name:
                return pipeline  # explicit reference device == unbound predictor
            if not hasattr(predictor, "for_device"):
                raise ServeError(
                    f"served model cannot target device {device_name!r}: "
                    "predictor does not support device re-binding"
                )
            with device_lock:
                bound = device_pipelines.get(device_name)
                if bound is None:
                    bound = device_pipelines[device_name] = device_pipeline(
                        pipeline, get_device(device_name)
                    )
                return bound

        overhead = self._dispatch_overhead_seconds

        def predict_fn(kernel, points, device="", **kwargs):
            if overhead > 0.0:
                time.sleep(overhead)
            return pipeline_for(device).predict_batch(kernel, points, **kwargs)

        batcher = MicroBatcher(
            predict_fn,
            batch_size=self._batch_size,
            max_delay_seconds=self._max_delay_seconds,
            max_pending=self._max_pending,
            metrics=self.metrics,
        )
        info = {"version": None, "sha256": None, "path": None}
        info.update(model_info or {})
        return _Generation(predictor, pipeline, batcher, info, pipeline_for=pipeline_for)

    # -- generation access (kept as attributes for callers and tests) ----------

    @property
    def predictor(self):
        return self._gen.predictor

    @property
    def pipeline(self) -> EvaluationPipeline:
        return self._gen.pipeline

    @property
    def batcher(self) -> MicroBatcher:
        return self._gen.batcher

    @batcher.setter
    def batcher(self, batcher: MicroBatcher) -> None:
        # Tests replace the batcher to instrument dispatch; the swap
        # machinery owns it otherwise.
        self._gen.batcher = batcher

    @property
    def model_info(self) -> Dict[str, object]:
        return dict(self._gen.info)

    # -- hot swap ---------------------------------------------------------------

    def swap(self, predictor, model_info: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Hot-swap to a new predictor with zero dropped requests.

        Builds the new generation first (same batching/engine knobs),
        flips the service to it, then retires the old generation:
        requests already inside it finish on the old model (and report
        the old hash); everything arriving after the flip runs on the
        new one.  Only after the drain does the old batcher shut down.
        """
        if self._closed:
            raise ServeError("service is shut down")
        new_gen = self._make_generation(predictor, model_info)
        with self._swap_lock:
            old_gen = self._gen
            self._gen = new_gen
            self.swaps += 1
        old_gen.retire()
        old_gen.batcher.close(drain=True)
        return dict(new_gen.info)

    def reload(self) -> Tuple[Dict[str, object], bool]:
        """Follow the registry's ``current`` pointer; swap if it moved.

        Returns ``(model_info, swapped)``.  Raises
        :class:`~repro.errors.ServeError` when the service was not
        started from a registry.
        """
        if self.registry is None:
            raise ServeError(
                "service is not backed by a model registry; "
                "restart `repro serve` with a registry directory to enable reload"
            )
        current = self.registry.current()
        if current is None:
            raise ServeError(f"registry {self.registry.root} has no current version")
        if current.sha256 == self._gen.info.get("sha256"):
            return self.model_info, False
        from .registry import load_artifact

        predictor = load_artifact(current.path)
        info = self.swap(predictor, current.payload())
        return info, True

    def _acquired_generation(self) -> _Generation:
        """Pin the serving generation for one request (retry over swaps)."""
        while True:
            gen = self._gen
            if gen.acquire():
                return gen

    # -- request validation ----------------------------------------------------

    def space(self, kernel: str) -> DesignSpace:
        with self._spaces_lock:
            space = self._spaces.get(kernel)
            if space is None:
                try:
                    spec = get_kernel(kernel)
                except KeyError:
                    raise ServeError(
                        f"unknown kernel {kernel!r}; known: {', '.join(list_kernels())}"
                    ) from None
                space = self._spaces[kernel] = build_design_space(spec)
            return space

    def resolve_device(self, name: str):
        """Registered device for ``name`` ("" = the reference device).

        Raises :class:`~repro.errors.ServeError` (mapped to a 400 by
        the HTTP layer) for names not in the registry.
        """
        if not name:
            return DEFAULT_DEVICE
        try:
            return get_device(name)
        except HLSError:
            raise ServeError(
                f"unknown device {name!r}; known devices: {list_devices()}"
            ) from None

    def complete_point(self, kernel: str, point: DesignPoint) -> DesignPoint:
        """Fill omitted knobs with their neutral setting and validate.

        Clients may send only the pragmas they care about; the completed
        point is what gets predicted, exactly as ``repro synthesize``
        treats ``--set``.
        """
        space = self.space(kernel)
        full = space.default_point()
        for name in point:
            if name not in full:
                raise DesignSpaceError(f"{kernel}: unknown knob {name!r}")
        full.update(point)
        space.validate(full)
        return full

    # -- prediction ------------------------------------------------------------

    def predict_versioned(
        self,
        kernel: str,
        points: Sequence[DesignPoint],
        valid_threshold: float = DEFAULT_VALID_THRESHOLD,
        objectives_for: str = "all",
        deadline_seconds: Optional[float] = None,
        device: str = "",
    ) -> Tuple[List[Prediction], Dict[str, object]]:
        """Like :meth:`predict`, also returning which model answered.

        The generation is pinned before the first point is enqueued and
        held until the last future resolves, so the whole batch — and
        the identity reported with it — belongs to one model version
        even when a hot swap lands mid-request.  A request whose points
        are all in that generation's prediction cache is answered from
        it directly, without the micro-batcher.

        ``deadline_seconds`` is the client's latency budget: one
        absolute deadline is stamped for the whole request at admission,
        and the batcher sheds any point still queued when it passes
        (:class:`~repro.errors.DeadlineExceededError`) instead of
        computing an answer nobody is waiting for.
        """
        if self._closed:
            raise ServeError("service is shut down")
        if objectives_for not in ("all", "valid"):
            raise ServeError(f"unknown objectives_for {objectives_for!r}")
        if device:
            resolved = self.resolve_device(device)
            if getattr(resolved, "kind", "fpga") != "fpga":
                raise ServeError(
                    f"device {resolved.name!r} is a {resolved.kind} target; "
                    "the surrogate serves FPGA devices only "
                    "(use /v1/dse/top for analytic CGRA search)"
                )
            device = resolved.name
        deadline = None
        if deadline_seconds is not None:
            if deadline_seconds <= 0:
                raise ServeError(
                    f"deadline_seconds must be > 0, got {deadline_seconds}"
                )
            deadline = time.monotonic() + float(deadline_seconds)
        completed = [self.complete_point(kernel, p) for p in points]
        gen = self._acquired_generation()
        try:
            # Fully cached requests need no forward, so they have nothing
            # to share with a batch: answer them now.  A miss, or a
            # pipeline busy with another batch, takes the batcher.
            cached = gen.pipeline_for(device).predict_cached(
                kernel, completed, valid_threshold, objectives_for
            )
            if cached is not None:
                self.metrics.record_cache_served(len(cached))
                return cached, dict(gen.info)
            futures = [
                gen.batcher.submit(
                    kernel, p, valid_threshold, objectives_for,
                    deadline=deadline, device=device,
                )
                for p in completed
            ]
            try:
                predictions = [
                    f.result(timeout=self.request_timeout_seconds) for f in futures
                ]
            except concurrent.futures.TimeoutError:
                raise ServeError(
                    f"prediction timed out after {self.request_timeout_seconds:g}s"
                ) from None
        finally:
            gen.release()
        return predictions, dict(gen.info)

    def predict(
        self,
        kernel: str,
        points: Sequence[DesignPoint],
        valid_threshold: float = DEFAULT_VALID_THRESHOLD,
        objectives_for: str = "all",
        device: str = "",
    ) -> List[Prediction]:
        """Validate and predict ``points``.

        A call whose points are all cached is answered at once from the
        pipeline's cache.  Otherwise its points ride the shared
        micro-batcher, so concurrent callers' singles and small batches
        coalesce into engine-sized forwards.
        """
        return self.predict_versioned(
            kernel, points, valid_threshold, objectives_for, device=device
        )[0]

    # -- server-side DSE ---------------------------------------------------------

    #: Upper bound on ``workers`` accepted by :meth:`dse_top`.
    MAX_DSE_WORKERS = 8

    #: Upper bound on the surrogate-query budget of a budgeted strategy.
    MAX_DSE_BUDGET = 20_000

    def dse_top(
        self,
        kernel: str,
        top: int = 10,
        time_limit_seconds: float = 10.0,
        workers: int = 1,
        strategy: str = "beam",
        budget: int = 1000,
        seed: int = 0,
        device: str = "",
    ) -> Dict[str, object]:
        """Run the model-driven search server-side; returns the JSON payload.

        :func:`~repro.dse.run.run_dse` picks the searcher, as for
        ``repro dse``; its rejections become :class:`ServeError`.  Serial
        searches share the service pipeline (its caches and compiled
        engines; its lock interleaves them with predict traffic), and a
        device-bound one the generation's pipeline for that device.
        This method bounds the outside input: ``top``, ``workers``
        (:attr:`MAX_DSE_WORKERS`), a budgeted strategy's ``budget``
        (:attr:`MAX_DSE_BUDGET`) and the time limit (``max_dse_seconds``).
        """
        if self._closed:
            raise ServeError("service is shut down")
        if top < 1:
            raise ServeError(f"top must be >= 1, got {top}")
        workers = int(workers)
        if not 1 <= workers <= self.MAX_DSE_WORKERS:
            raise ServeError(
                f"workers must be between 1 and {self.MAX_DSE_WORKERS}, got {workers}"
            )
        budget = int(budget)
        if strategy != "beam" and not 1 <= budget <= self.MAX_DSE_BUDGET:
            raise ServeError(
                f"budget must be between 1 and {self.MAX_DSE_BUDGET}, got {budget}"
            )
        time_limit = min(float(time_limit_seconds), self.max_dse_seconds)
        if time_limit <= 0:
            raise ServeError(f"time_limit must be > 0, got {time_limit_seconds}")
        target = self.resolve_device(device) if device else None
        space = self.space(kernel)  # raises ServeError on unknown kernels
        gen = self._acquired_generation()
        try:
            result = run_dse(
                get_kernel(kernel), space, gen.pipeline,
                strategy=strategy, budget=budget, seed=int(seed),
                device=target, pipeline_for=gen.pipeline_for, workers=workers,
                top_m=int(top), time_limit_seconds=time_limit,
            )
        except DSEError as exc:
            raise ServeError(str(exc)) from exc
        finally:
            gen.release()
        payload = dse_result_payload(result)
        payload["model"] = dict(gen.info)
        return payload

    # -- health / metrics --------------------------------------------------------

    def health(self) -> Dict[str, object]:
        gen = self._gen
        return {
            "status": "ok" if not self._closed else "draining",
            "kernels": list_kernels(),
            "engine": gen.pipeline.stats.engine or gen.pipeline.engine_mode,
            "batch_size": gen.batcher.batch_size,
            "pending_requests": gen.batcher.pending(),
            "model": dict(gen.info),
            "swaps": self.swaps,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        return self.metrics.snapshot(self._gen.pipeline.stats_snapshot())

    # -- lifecycle ---------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop accepting work; with ``drain`` finish in-flight batches."""
        self._closed = True
        self._gen.batcher.close(drain=drain)

    def __enter__(self) -> "PredictorService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
