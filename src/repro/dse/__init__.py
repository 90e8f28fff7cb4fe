"""Model-driven design-space exploration (Section 4.4).

- :func:`order_pragmas` — the innermost-first pragma-ordering heuristic;
- :class:`ModelDSE` — exhaustive / ordered-beam search over a design
  space with the trained predictor in the loop; its result carries the
  exact Pareto front of every usable point it scored;
- :class:`Frontier` — the top-M + Pareto merge policy every searcher
  (serial, sharded, budgeted) keeps its results with;
- :func:`run_dse_rounds` — Fig. 7's multi-round database augmentation;
- :func:`pareto_front` — non-dominated filtering of designs;
- :class:`EvaluationPipeline` — the batched + cached surrogate hot
  path every searcher routes its predictions through;
- :class:`ParallelDSE` — sharded multiprocessing orchestrator with
  checkpoint/resume, bit-identical to the serial exhaustive sweep;
- :mod:`~repro.dse.strategies` / :mod:`~repro.dse.rl` /
  :mod:`~repro.dse.race` — budgeted search strategies (simulated
  annealing, greedy, REINFORCE policy explorer, random) raced under one
  shared query budget by a UCB bandit; the ``sa`` arm is the repo's
  annealer;
- :mod:`~repro.dse.hypervolume` — exact WFG hypervolume, the search
  quality metric the benchmarks gate on.
"""

from .augment import AugmentationResult, RoundOutcome, run_dse_rounds
from .crossdevice import (
    CROSS_DEVICE_KEYS,
    AnalyticPredictor,
    CrossDeviceResult,
    DeviceFrontEntry,
    cross_device_objectives,
    run_cross_device_dse,
)
from .ordering import order_pragmas
from .parallel import (
    DSECheckpoint,
    ParallelDSE,
    ShardResult,
    WorkerHooks,
)
from .pareto import (
    DEFAULT_OBJECTIVE_KEYS,
    dominates,
    objective_keys_for,
    pareto_front,
    pareto_merge,
)
from .pipeline import (
    CompiledGNNEngine,
    EncodingCache,
    EvaluationPipeline,
    PipelineStats,
    UnsupportedModelError,
)
from .hypervolume import hypervolume, normalized_hypervolume, reference_point
from .race import DEFAULT_ARMS, RaceResult, StrategyRacer, run_race
from .search import PARETO_KEYS, DSECandidate, DSEResult, Frontier, ModelDSE
from .strategies import (
    AnnealingStrategy,
    BudgetedEvaluator,
    GreedyStrategy,
    QueryBudget,
    RandomStrategy,
    SearchStrategy,
    StepOutcome,
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
    "run_cross_device_dse",
    "DSECheckpoint",
    "ParallelDSE",
    "ShardResult",
    "WorkerHooks",
    "pareto_merge",
    "CompiledGNNEngine",
    "EncodingCache",
    "EvaluationPipeline",
    "PipelineStats",
    "UnsupportedModelError",
    "AugmentationResult",
    "RoundOutcome",
    "run_dse_rounds",
    "order_pragmas",
    "dominates",
    "pareto_front",
    "DSECandidate",
    "DSEResult",
    "Frontier",
    "ModelDSE",
    "AnnealingStrategy",
    "BudgetedEvaluator",
    "DEFAULT_ARMS",
    "GreedyStrategy",
    "QueryBudget",
    "RaceResult",
    "RandomStrategy",
    "SearchStrategy",
    "StepOutcome",
    "StrategyRacer",
    "build_strategy",
    "hypervolume",
    "normalized_hypervolume",
    "reference_point",
    "run_race",
]
