"""Model-driven design-space exploration (Section 4.4).

- :func:`order_pragmas` — the innermost-first pragma-ordering heuristic;
- :class:`ModelDSE` — exhaustive sweep (:class:`SweepStrategy`), or
  the ordered-pragma beam (:class:`OrderedBeamStrategy`), over a design
  space with the trained predictor in the loop; its result carries the
  exact Pareto front of every usable point it scored;
- :meth:`StrategyRacer.run` — the one search loop: the sweep, the
  beam, every race and every :class:`ParallelDSE` shard are strategies
  it steps on a :class:`BudgetedEvaluator`, and the only place a serial
  search reads the clock, so the time limit caps every searcher;
- :class:`Frontier` — the top-M + Pareto merge policy every searcher
  (serial, sharded, budgeted) keeps its results with;
- :func:`pareto_front` — non-dominated filtering of designs (the one
  vectorised dominance filter :class:`Frontier` merges with too);
- :class:`EvaluationPipeline` — the batched + cached surrogate hot
  path every searcher routes its predictions through;
- :class:`ParallelDSE` — sharded multiprocessing orchestrator with
  checkpoint/resume, bit-identical to the serial exhaustive sweep;
- :mod:`~repro.dse.strategies` / :mod:`~repro.dse.rl` /
  :mod:`~repro.dse.race` — budgeted search strategies (simulated
  annealing, greedy, REINFORCE policy explorer, random) raced under one
  shared query budget by a UCB bandit; the ``sa`` arm is the repo's
  annealer.  AutoDSE's bottleneck search (:class:`BottleneckStrategy`,
  arms ``bottleneck`` and ``hybrid``) runs on the same core with the
  HLS tool's :class:`~repro.explorer.Evaluator` as the scorer;
- :mod:`~repro.dse.hypervolume` — exact WFG hypervolume, the search
  quality metric the benchmarks gate on;
- :func:`run_dse` — the one request path ``repro dse`` and
  ``/v1/dse/top`` share: it picks the searcher (see :mod:`~repro.dse.run`).

Fig. 7's multi-round database augmentation is not here: it is
:func:`repro.experiments.run_fig7`, one :class:`repro.loop.ActiveLoop` run.
"""

from .crossdevice import (
    CROSS_DEVICE_KEYS,
    AnalyticPredictor,
    CrossDeviceResult,
    DeviceFrontEntry,
    cross_device_objectives,
    device_pipeline,
    run_cross_device_dse,
)
from .ordering import order_pragmas
from .parallel import (
    DSECheckpoint,
    ParallelDSE,
    ShardResult,
    WorkerHooks,
)
from .pareto import DEFAULT_OBJECTIVE_KEYS, objective_keys_for, pareto_front
from .pipeline import (
    CompiledGNNEngine,
    EncodingCache,
    EvaluationPipeline,
    PipelineStats,
    UnsupportedModelError,
)
from .hypervolume import hypervolume, normalized_hypervolume, reference_point
from .race import DEFAULT_ARMS, RaceResult, StrategyRacer, run_race
from .run import STRATEGIES, run_dse
from .search import PARETO_KEYS, DSECandidate, DSEResult, Frontier, ModelDSE
from .strategies import (
    AnnealingStrategy,
    BottleneckStrategy,
    BudgetedEvaluator,
    GreedyStrategy,
    OrderedBeamStrategy,
    QueryBudget,
    RandomStrategy,
    SearchStrategy,
    StepOutcome,
    SweepStrategy,
    build_strategy,
)

__all__ = [
    "PARETO_KEYS",
    "DEFAULT_OBJECTIVE_KEYS",
    "objective_keys_for",
    "CROSS_DEVICE_KEYS",
    "AnalyticPredictor",
    "CrossDeviceResult",
    "DeviceFrontEntry",
    "cross_device_objectives",
    "device_pipeline",
    "run_cross_device_dse",
    "DSECheckpoint",
    "ParallelDSE",
    "ShardResult",
    "WorkerHooks",
    "CompiledGNNEngine",
    "EncodingCache",
    "EvaluationPipeline",
    "PipelineStats",
    "UnsupportedModelError",
    "order_pragmas",
    "pareto_front",
    "DSECandidate",
    "DSEResult",
    "Frontier",
    "ModelDSE",
    "AnnealingStrategy",
    "BottleneckStrategy",
    "BudgetedEvaluator",
    "DEFAULT_ARMS",
    "GreedyStrategy",
    "OrderedBeamStrategy",
    "QueryBudget",
    "RaceResult",
    "RandomStrategy",
    "SearchStrategy",
    "StepOutcome",
    "StrategyRacer",
    "SweepStrategy",
    "build_strategy",
    "hypervolume",
    "normalized_hypervolume",
    "reference_point",
    "run_race",
    "STRATEGIES",
    "run_dse",
]
