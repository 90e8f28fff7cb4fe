"""Scaling of the sharded parallel DSE orchestrator.

For each kernel the full space is swept three ways:

- ``serial``:   plain :class:`ModelDSE` — the bit-identity reference;
- ``1 worker``: :class:`ParallelDSE` in-process (sharded + journalled
  code path, no subprocesses);
- ``4 workers``: the fork-based orchestrator.

Both parallel runs carry the same **simulated fixed per-batch dispatch
cost** (a deterministic sleep injected through
:class:`~repro.dse.parallel.WorkerHooks`), modelling the per-dispatch
latency (RPC hop / accelerator launch / HLS invocation) that parallel
workers overlap.  Pinning the dispatch cost makes the scaling numbers
hardware-independent — on a single-core CI runner the sleeps still
overlap across worker processes even though the compute cannot — the
same device the serving load test uses for its throughput bar.

The acceptance bar: on every benchmarked kernel the 4-worker run is
bit-identical to the serial explorer (top-K order *and* Pareto front)
and at least 2.5x faster than the identically-configured 1-worker run
(1.5x in ``--smoke`` mode, which uses a smaller dispatch cost).

It also gates the checkpoint journal: a 1-worker fir sweep stopped at
shard 2 and resumed must reproduce the serial result bit for bit,
resume exactly the two finished shards, and leave only the checkpoint
file behind.

Run standalone (no training, untrained weights)::

    python benchmarks/bench_parallel_dse.py --smoke   # ~30 s
    python benchmarks/bench_parallel_dse.py           # a few minutes
"""

import argparse
import math
import os
import sys
import tempfile
import time

try:
    import repro  # noqa: F401
except ImportError:  # standalone run from a source checkout, no install
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.designspace import build_design_space, point_key
from repro.dse import ModelDSE, ParallelDSE, WorkerHooks
from repro.explorer.database import Database
from repro.graph.encoding import EDGE_DIM, NODE_DIM
from repro.kernels import get_kernel
from repro.model.config import BRAM_OBJECTIVE, MODEL_CONFIGS, REGRESSION_OBJECTIVES
from repro.model.dataset import GraphDatasetBuilder
from repro.model.models import build_model
from repro.model.predictor import GNNDSEPredictor

WORKERS = 4
NUM_SHARDS = 16  # 4 shards per worker: whole rounds, no straggler tail
SPAWN_SLACK_SECONDS = 0.6  # fork + per-worker pipeline build, measured upper bound
# Worst-case factor on the compute portion of the multi-worker run: on a
# single-core runner the W CPU-bound workers time-slice one core, so their
# aggregate compute can cost up to ~W times the serial sweep in wall clock.
CONTENTION_FACTOR = float(WORKERS)


def _untrained_predictor(seed: int = 0) -> GNNDSEPredictor:
    builder = GraphDatasetBuilder(Database())
    config = MODEL_CONFIGS["M7"]
    classifier = build_model(
        config.for_task("classification"), NODE_DIM, EDGE_DIM, seed=seed
    )
    regressor = build_model(
        config.for_task("regression", REGRESSION_OBJECTIVES),
        NODE_DIM, EDGE_DIM, seed=seed + 1,
    )
    bram = build_model(
        config.for_task("regression", BRAM_OBJECTIVE), NODE_DIM, EDGE_DIM, seed=seed + 2
    )
    return GNNDSEPredictor(classifier, regressor, bram, builder.normalizer, builder)


def _signature(result):
    """Comparable bit-exact view of a DSE result (top order + front)."""
    return (
        [(point_key(c.point), c.prediction) for c in result.top],
        [(point_key(c.point), c.prediction) for c in result.pareto],
    )


def _dispatch_cost(compute_seconds: float, target: float) -> float:
    """Per-batch dispatch cost that keeps ``target`` speedup reachable.

    With S shards on W workers, the 1-worker run costs ``S*c + C`` and
    the W-worker run at worst ``(S/W)*c + A*C + spawn``, where A is the
    single-core contention factor (compute does not scale on one core —
    only the dispatch sleeps overlap).  Solving for the cost ``c`` that
    yields ``target`` under that pessimistic model, plus 20% margin,
    keeps the bar honest (the sleeps must genuinely overlap) without
    being flaky on slow single-core runners; on real multi-core boxes
    the measured speedup simply lands higher.
    """
    shards_ratio = NUM_SHARDS * (1.0 - target / WORKERS)
    needed = (
        (target * CONTENTION_FACTOR - 1.0) * compute_seconds
        + target * SPAWN_SLACK_SECONDS
    ) / shards_ratio
    return max(0.15, 1.2 * needed)


def bench_kernel(predictor, name: str, target_speedup: float) -> dict:
    spec = get_kernel(name)
    space = build_design_space(spec)

    start = time.perf_counter()
    serial = ModelDSE(predictor, spec, space, top_m=10).run()
    compute = time.perf_counter() - start
    reference = _signature(serial)

    shard_size = max(1, math.ceil(serial.explored / NUM_SHARDS))
    cost = _dispatch_cost(compute, target_speedup)
    times = {}
    for workers in (1, WORKERS):
        dse = ParallelDSE(
            predictor, spec, space,
            workers=workers,
            top_m=10,
            shard_size=shard_size,
            pipeline_batch_size=shard_size,  # one dispatch per shard
            hooks=WorkerHooks(batch_overhead_seconds=cost),
        )
        start = time.perf_counter()
        result = dse.run()
        times[workers] = time.perf_counter() - start
        if _signature(result) != reference:
            raise SystemExit(
                f"FAIL {name}: {workers}-worker result is not bit-identical "
                "to the serial explorer"
            )
        if result.explored != serial.explored:
            raise SystemExit(
                f"FAIL {name}: explored {result.explored} != {serial.explored}"
            )
    speedup = times[1] / times[WORKERS]
    print(
        f"{name:14s} {serial.explored:5d} pts  dispatch {cost:5.2f}s/batch  "
        f"1w {times[1]:6.2f}s  {WORKERS}w {times[WORKERS]:6.2f}s  "
        f"speedup {speedup:4.2f}x  (bit-identical)"
    )
    return {"kernel": name, "speedup": speedup, "times": times, "cost": cost}


class _Stop(Exception):
    """Simulated kill of a checkpointed run."""


def check_resume(predictor) -> None:
    """Stop a checkpointed fir sweep at shard 2, resume it, and compare."""
    spec = get_kernel("fir")
    space = build_design_space(spec)
    serial = ModelDSE(predictor, spec, space, top_m=10).run()

    def stop_at_shard_2(worker, shard, attempt):
        if shard == 2:
            raise _Stop()

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "fir.ckpt")
        try:
            ParallelDSE(
                predictor, spec, space, workers=1, top_m=10, checkpoint_path=path,
                hooks=WorkerHooks(on_shard_start=stop_at_shard_2),
            ).run()
        except _Stop:
            pass
        else:
            raise SystemExit("FAIL resume: the run was not stopped at shard 2")
        resumed = ParallelDSE(
            predictor, spec, space, workers=1, top_m=10, checkpoint_path=path,
            resume=True,
        ).run()
        left = sorted(os.listdir(directory))
    if _signature(resumed) != _signature(serial) or resumed.explored != serial.explored:
        raise SystemExit("FAIL resume: result is not bit-identical to the serial explorer")
    if resumed.shards_resumed != 2:
        raise SystemExit(f"FAIL resume: {resumed.shards_resumed} shards resumed, expected 2")
    if left != ["fir.ckpt"]:
        raise SystemExit(f"FAIL resume: checkpoint directory holds {left}")
    print(
        f"resume         fir stopped at shard 2, resumed {resumed.shards_resumed}/"
        f"{resumed.shards} shards  (bit-identical, only the checkpoint left)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small dispatch cost + relaxed 1.5x bar (~30 s total)",
    )
    args = parser.parse_args(argv)
    kernels = ("fir", "spmv-ellpack") if args.smoke else ("fir", "spmv-ellpack", "gesummv")
    target = 1.5 if args.smoke else 2.5

    predictor = _untrained_predictor()
    print(
        f"parallel DSE scaling — {WORKERS} workers, {NUM_SHARDS} shards, "
        f"target >= {target:.1f}x (untrained weights)"
    )
    check_resume(predictor)
    failures = []
    for name in kernels:
        outcome = bench_kernel(predictor, name, target)
        if outcome["speedup"] < target:
            failures.append(outcome)
    if failures:
        for outcome in failures:
            print(
                f"FAIL {outcome['kernel']}: speedup {outcome['speedup']:.2f}x "
                f"< {target:.1f}x"
            )
        return 1
    print(f"PASS: all kernels >= {target:.1f}x and bit-identical to serial")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
