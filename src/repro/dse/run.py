"""The one DSE request path ``repro dse`` and ``POST /v1/dse/top`` share.

:func:`run_dse` picks the searcher; the rules, first match wins:

- a budgeted strategy (``race`` or one arm of :data:`DEFAULT_ARMS`)
  runs serially: no ``workers > 1`` and no checkpoint;
- a device-bound search is the serial beam on
  :func:`~repro.dse.crossdevice.device_pipeline`
  (:func:`~repro.dse.crossdevice.device_dse`).  With a model, the
  reference device is not device-bound: its encodings are
  bit-identical to device-less ones.  Without a model, every device
  runs the analytic evaluator;
- ``workers > 1`` or a checkpoint runs :class:`ParallelDSE`, whose
  workers take the caller's pipeline batch size, engine and cache;
- otherwise :class:`ModelDSE` runs on the caller's pipeline.

``time_limit_seconds`` caps every searcher, the race included: each
serial one is stepped by :meth:`~repro.dse.race.StrategyRacer.run`,
which reads the clock between steps, and :class:`ParallelDSE` stops
dispatching shards.
"""

from __future__ import annotations

from typing import Optional

from ..errors import DSEError
from ..hls.device import DEFAULT_DEVICE
from .crossdevice import device_dse
from .parallel import ParallelDSE
from .pipeline import EvaluationPipeline
from .race import DEFAULT_ARMS, run_race
from .search import DSEResult, ModelDSE

__all__ = ["STRATEGIES", "check_request", "run_dse"]

#: Every searcher a request can name; all but ``beam`` spend a query budget.
STRATEGIES = ("beam", "race", *DEFAULT_ARMS)


def check_request(strategy: str, workers: int = 1, checkpoint_path=None,
                  device_bound: bool = False) -> None:
    """Raise :class:`DSEError` unless the arguments name one searcher."""
    if strategy not in STRATEGIES:
        raise DSEError(f"unknown strategy {strategy!r}; known: {list(STRATEGIES)}")
    sharded = workers > 1 or checkpoint_path is not None
    if strategy != "beam" and sharded:
        raise DSEError(f"strategy {strategy!r} runs serially; use workers=1, no checkpoint")
    if device_bound and (strategy != "beam" or sharded):
        raise DSEError(
            "a device-bound search runs the serial beam; "
            "use strategy 'beam', workers=1, no checkpoint"
        )


def run_dse(
    spec,
    space,
    pipeline: Optional[EvaluationPipeline] = None,
    *,
    strategy: str = "beam",
    budget: int = 1000,
    seed: int = 0,
    device=None,
    pipeline_for=None,
    workers: int = 1,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    shard_size: Optional[int] = None,
    top_m: int = 10,
    time_limit_seconds: float = 3600.0,
) -> DSEResult:
    """Run the searcher the module's rules pick for these arguments.

    ``pipeline`` wraps the trained model (``None``: no model, so a
    ``device`` is needed).  ``pipeline_for(name)``, when given, supplies
    a device-bound search's pipeline (the server keeps one per device).
    A rejected combination raises :class:`DSEError`.
    """
    if pipeline is not None and device is not None and device.name == DEFAULT_DEVICE.name:
        device = None
    check_request(strategy, workers, checkpoint_path, device_bound=device is not None)
    if device is not None:
        return device_dse(
            spec, space, device, pipeline, pipeline_for,
            time_limit_seconds=time_limit_seconds, top_m=top_m,
        )
    if strategy != "beam":
        arms = DEFAULT_ARMS if strategy == "race" else (strategy,)
        race = run_race(
            pipeline, spec, space, budget=budget, strategies=arms, top_m=top_m, seed=seed,
            time_limit_seconds=time_limit_seconds,
        )
        return race.as_dse_result(stats=pipeline.stats_snapshot())
    if workers > 1 or checkpoint_path is not None:
        parallel = ParallelDSE(
            pipeline.predictor, spec, space, workers=workers, top_m=top_m,
            pipeline_batch_size=pipeline.batch_size,
            engine=pipeline.engine_mode, cache=pipeline.cache_enabled,
            shard_size=shard_size, checkpoint_path=checkpoint_path, resume=resume,
        )
        return parallel.run(time_limit_seconds=time_limit_seconds)
    dse = ModelDSE(pipeline.predictor, spec, space, top_m=top_m, pipeline=pipeline)
    return dse.run(time_limit_seconds=time_limit_seconds)
