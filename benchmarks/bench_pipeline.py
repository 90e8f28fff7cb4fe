"""Throughput of the batched, cached DSE evaluation pipeline.

Four modes per kernel, all returning bit-identical predictions:

- ``baseline``: ``GNNDSEPredictor.predict``, one point per call — the
  pre-pipeline hot path;
- ``batched``:  compiled engine, cache off, regression on every point —
  the raw batching win;
- ``cascade``:  compiled engine, classifier-first — regression only for
  predicted-valid points;
- ``pipeline``: compiled + cascade + cache on a DSE-shaped workload
  that revisits points, the way annealer chains and beam sweeps do.

Every row asserts in-row that the pipeline's predictions are
bit-identical to the eager per-point baseline, and its
``pipeline_speedup`` is pipeline points/sec over that baseline (bar:
>=5x).

Run standalone for a quick look (no training, untrained weights)::

    python benchmarks/bench_pipeline.py --smoke

or through pytest-benchmark with the cached trained predictor::

    pytest benchmarks/bench_pipeline.py --benchmark-only
"""

import argparse
import os
import random
import sys
import time

try:
    import repro  # noqa: F401
except ImportError:  # standalone run from a source checkout, no install
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.designspace import build_design_space
from repro.dse import EvaluationPipeline
from repro.kernels import get_kernel

KERNELS = ("spmv-ellpack", "gemm-ncubed")


def _dse_workload(space, unique, total, seed):
    """A search-shaped stream: ``total`` draws over a ``unique``-point pool."""
    rng = random.Random(seed)
    pool = space.sample(rng, unique)
    return pool, [rng.choice(pool) for _ in range(total)]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def measure_kernel(predictor, kernel, unique=48, total=256, batch_size=32, seed=0):
    """Measure all four modes on one kernel; returns a result row."""
    space = build_design_space(get_kernel(kernel))
    pool, workload = _dse_workload(space, unique, total, seed)

    def make_pipeline(cache):
        return EvaluationPipeline(
            predictor, batch_size=batch_size, cache=cache, engine="compiled"
        )

    def warm(pipeline):
        # One-time costs stay out of the timed region: kernel
        # lowering+encoding, engine compilation, first-touch of the
        # workspace buffers.  The point cache is cleared afterwards so
        # the timed run still evaluates every point.
        pipeline.predict_batch(kernel, pool[:2], objectives_for="all")
        pipeline.predict_batch(kernel, pool[:2], objectives_for="valid")
        pipeline.clear_cache()
        return pipeline

    predictor.predict(kernel, pool[0])
    expected, base_s = _timed(
        lambda: [predictor.predict(kernel, p) for p in workload]
    )

    batched = warm(make_pipeline(cache=False))
    full, batched_s = _timed(
        lambda: batched.predict_batch(kernel, pool, objectives_for="all")
    )

    casc = warm(make_pipeline(cache=False))
    casc_out, cascade_s = _timed(
        lambda: casc.predict_batch(kernel, pool, objectives_for="valid")
    )

    pipe = warm(make_pipeline(cache=True))
    pipe.reset_stats()

    def run_pipeline():
        out = []
        # DSE-sized request slices, the granularity a search issues.
        for i in range(0, len(workload), 64):
            out.extend(
                pipe.predict_batch(kernel, workload[i : i + 64], objectives_for="valid")
            )
        return out

    piped, pipeline_s = _timed(run_pipeline)

    # Equivalence spot-check: throughput numbers only count if the
    # pipeline returns bit-identically what the baseline did.
    for got, want in zip(piped, expected):
        assert got.valid == want.valid and got.valid_prob == want.valid_prob
        assert got.objectives is None or got == want
    valid_count = sum(1 for p in casc_out if p.valid)

    base_rate = len(workload) / base_s
    row = {
        "kernel": kernel,
        "workload": len(workload),
        "unique": len(pool),
        "valid_fraction": valid_count / len(pool),
        "baseline_pps": base_rate,
        "batched_pps": len(pool) / batched_s,
        "cascade_pps": len(pool) / cascade_s,
        "pipeline_pps": len(workload) / pipeline_s,
        "cache_hit_rate": pipe.stats.cache_hit_rate(),
        "stats": pipe.stats.summary(),
    }
    for mode in ("batched", "cascade", "pipeline"):
        row[f"{mode}_speedup"] = row[f"{mode}_pps"] / base_rate
    return row


def format_rows(rows):
    lines = [
        f"{'kernel':14s} {'base pts/s':>10s} {'batched':>9s} "
        f"{'cascade':>9s} {'pipeline':>9s} {'speedup':>8s} {'hit rate':>8s} "
        f"{'valid':>6s}"
    ]
    for row in rows:
        lines.append(
            f"{row['kernel']:14s} {row['baseline_pps']:10.1f} "
            f"{row['batched_pps']:9.1f} {row['cascade_pps']:9.1f} "
            f"{row['pipeline_pps']:9.1f} {row['pipeline_speedup']:7.1f}x "
            f"{row['cache_hit_rate']:8.2f} {row['valid_fraction']:6.2f}"
        )
    return "\n".join(lines)


def test_pipeline_throughput(benchmark, predictor):
    rows = benchmark.pedantic(
        lambda: [
            measure_kernel(predictor, kernel, batch_size=24) for kernel in KERNELS
        ],
        rounds=1,
        iterations=1,
    )
    print()
    print(format_rows(rows))
    for row in rows:
        benchmark.extra_info[row["kernel"]] = {
            key: value for key, value in row.items() if key != "stats"
        }
        assert row["pipeline_speedup"] >= 5.0, (
            f"{row['kernel']}: end-to-end pipeline only "
            f"{row['pipeline_speedup']:.1f}x over per-point baseline"
        )


def _untrained_predictor(seed=0):
    """Deterministic untrained stack for --smoke runs (no database)."""
    from repro.explorer.database import Database
    from repro.graph.encoding import EDGE_DIM, NODE_DIM
    from repro.model.config import (
        BRAM_OBJECTIVE,
        MODEL_CONFIGS,
        REGRESSION_OBJECTIVES,
    )
    from repro.model.dataset import GraphDatasetBuilder
    from repro.model.models import build_model
    from repro.model.predictor import GNNDSEPredictor

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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload with untrained weights; finishes in seconds",
    )
    parser.add_argument("--unique", type=int, default=None)
    parser.add_argument("--total", type=int, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        predictor = _untrained_predictor()
        unique, total, batch_size = args.unique or 16, args.total or 120, 16
    else:
        from repro.experiments import default_context

        predictor = default_context().predictor("M7")
        unique, total, batch_size = args.unique or 48, args.total or 256, 24

    rows = [
        measure_kernel(
            predictor, kernel, unique=unique, total=total, batch_size=batch_size
        )
        for kernel in KERNELS
    ]
    print(format_rows(rows))
    for row in rows:
        print(f"  {row['kernel']}: {row['stats']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
