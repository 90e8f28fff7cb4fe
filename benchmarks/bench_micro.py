"""Micro-benchmarks of the pipeline stages.

These quantify the claim structure of the paper: graph construction and
pragma-fill are cheap (done once per kernel / per design point), model
inference is milliseconds, and even our *simulated* HLS evaluator —
standing in for the minutes-to-hours real tool — runs fast enough to
generate thousands-of-designs databases.  The Pareto-merge benchmarks
time the DSE's running front on the two traffic shapes of the repo
benchmark: many small merges into a standing front (strategy race) and
one whole-sweep merge into an empty front (exhaustive sweep).  The
row-memo benchmark times the exhaustive gesummv forward with the
pipeline's conv-row memo at its default budget and with none, the
serve-cold replay times the repo benchmark's uncached serving traffic
(small fused chunks, little row reuse), the race-shape benchmark times
dse-race's stream of small cascade calls (the classifier stage, then
the regressor stage) with an occasional fused one, the warm-up
benchmark times a fresh pipeline's first chunks of every size up to
its batch, and the
cached-request benchmark times serve-hot's per-request work in the
server: JSON body in, cache lookup, response bytes out.
"""

import json
import random

import numpy as np
import pytest

import repro.dse.pipeline as pipeline_module
from repro.designspace import build_design_space
from repro.dse import PARETO_KEYS, DSECandidate, EvaluationPipeline, Frontier
from repro.explorer.database import Database
from repro.frontend.pragmas import PipelineOption
from repro.graph import encode_kernel
from repro.graph.encoding import EDGE_DIM, NODE_DIM
from repro.hls import MerlinHLSTool
from repro.kernels import get_kernel
from repro.model.config import BRAM_OBJECTIVE, MODEL_CONFIGS, REGRESSION_OBJECTIVES
from repro.model.dataset import GraphDatasetBuilder
from repro.model.models import build_model
from repro.model.predictor import GNNDSEPredictor, Prediction
from repro.serve import PredictorService
from repro.serve.http import predict_payload
from repro.serve.schemas import point_payload, prediction_from_payload


@pytest.fixture(scope="module")
def gemm():
    return get_kernel("gemm-ncubed")


def test_frontend_to_graph_encoding(benchmark):
    """Full front-end → IR → ProGraML graph → features, one kernel."""

    def pipeline():
        spec = get_kernel("gemm-ncubed")
        spec.invalidate()
        return encode_kernel(spec)

    enc = benchmark(pipeline)
    assert enc.num_nodes > 50


def test_pragma_fill(benchmark, gemm):
    """Per-design-point feature refresh (hot loop of dataset building)."""
    enc = encode_kernel(gemm)
    point = {"__PIPE__L0": PipelineOption.COARSE, "__PARA__L1": 8, "__TILE__L0": 2}
    x = benchmark(enc.fill, point)
    assert x.shape == enc.x_base.shape


def test_hls_synthesize(benchmark, gemm):
    """One simulated Merlin+HLS evaluation (uncached)."""
    space = build_design_space(gemm)
    rng = random.Random(0)
    points = space.sample(rng, 512)
    counter = {"i": 0}

    def synth():
        tool = MerlinHLSTool(cache=False)
        counter["i"] = (counter["i"] + 1) % len(points)
        return tool.synthesize(gemm, points[counter["i"]])

    result = benchmark(synth)
    assert result.latency > 0


def test_design_space_enumeration(benchmark):
    """Pruned enumeration of a mid-size space (atax, ~4.5k points)."""
    spec = get_kernel("atax")
    space = build_design_space(spec)

    count = benchmark(lambda: sum(1 for _ in space.enumerate()))
    assert count > 1000


def _candidates(rows):
    """5-objective candidates with the given objective rows."""
    return [
        DSECandidate({"i": i}, Prediction(True, 1.0, dict(zip(PARETO_KEYS, map(float, row)))))
        for i, row in enumerate(rows)
    ]


def _simplex(rng, count: int):
    """Points on the 5-objective simplex, which are mutually non-dominated."""
    return rng.dirichlet(np.ones(len(PARETO_KEYS)), size=count)


def test_pareto_merge_race_shape(benchmark):
    """45 merges of 8 additions into a standing front of 158 (race traffic).

    Each addition is a front member scaled by a factor in [0.9, 1.3):
    below 1 it displaces its source, otherwise it is dominated by it,
    so the front keeps roughly its size, as a race's does.
    """
    rng = np.random.default_rng(0)
    rows = _simplex(rng, 158)
    standing = _candidates(rows)
    batches = [
        _candidates(rows[rng.integers(0, len(rows), 8)] * rng.uniform(0.9, 1.3, size=(8, 1)))
        for _ in range(45)
    ]

    def setup():
        frontier = Frontier(10, PARETO_KEYS)
        frontier.merge(standing, standing)
        return (frontier,), {}

    def merges(frontier):
        for batch in batches:
            frontier.merge(batch, batch)
        return frontier

    frontier = benchmark.pedantic(merges, setup=setup, rounds=20)
    assert 140 < len(frontier.pareto) < 180


def test_pareto_merge_sweep_shape(benchmark):
    """One 253-row merge into an empty front (exhaustive-sweep traffic)."""
    rows = _simplex(np.random.default_rng(0), 236)
    # The 17 extra rows are front rows scaled up, so each is dominated.
    sweep = _candidates(np.vstack([rows, rows[:17] * 1.5]))

    def merge():
        frontier = Frontier(10, PARETO_KEYS)
        frontier.merge(sweep, sweep)
        return frontier

    frontier = benchmark(merge)
    assert len(frontier.pareto) == 236


@pytest.fixture(scope="module")
def untrained_m7():
    """A deterministic untrained M7 stack: the forward's cost does not
    depend on what the weights learned."""
    builder = GraphDatasetBuilder(Database())
    config = MODEL_CONFIGS["M7"]
    return GNNDSEPredictor(
        build_model(config.for_task("classification"), NODE_DIM, EDGE_DIM, seed=0),
        build_model(config.for_task("regression", REGRESSION_OBJECTIVES), NODE_DIM, EDGE_DIM, seed=1),
        build_model(config.for_task("regression", BRAM_OBJECTIVE), NODE_DIM, EDGE_DIM, seed=2),
        builder.normalizer,
        builder,
    )


@pytest.mark.parametrize("budget", ["default", "none"])
def test_row_memo_sweep_forward(benchmark, monkeypatch, untrained_m7, budget):
    """gesummv's 253-point exhaustive forward (classifier and regressors,
    batches of 24) from a cleared cache, with the default conv-row memo
    budget and with a zero budget, which keeps only in-chunk reuse."""
    if budget == "none":
        monkeypatch.setattr(pipeline_module, "ROW_MEMO_BYTES", 0)
    points = list(build_design_space(get_kernel("gesummv")).enumerate())
    pipeline = EvaluationPipeline(untrained_m7, batch_size=24)
    expected = pipeline.predict_batch("gesummv", points)  # compile and warm

    def sweep():
        pipeline.clear_cache()
        return pipeline.predict_batch("gesummv", points)

    assert benchmark(sweep) == expected


def test_serve_cold_replay_forward(benchmark, untrained_m7):
    """serve-cold's traffic through ``predict_batch``: requests of 4
    distinct points cycling stencil, atax and gemm-blocked on one
    pipeline at batch 16, each running the classifier and both
    regressors as one fused chunk.  Each round starts from a cleared
    cache, so no point repeats and rows are reused only within it."""
    kernels = ("stencil", "atax", "gemm-blocked")
    rng = random.Random(0)
    spaces = {k: build_design_space(get_kernel(k)) for k in kernels}
    requests = [(k, spaces[k].sample(rng, 4)) for _ in range(8) for k in kernels]
    pipeline = EvaluationPipeline(untrained_m7, batch_size=16)
    expected = [pipeline.predict_batch(k, points) for k, points in requests]  # compile and warm

    def replay():
        pipeline.clear_cache()
        return [pipeline.predict_batch(k, points) for k, points in requests]

    assert benchmark(replay) == expected
    kernel, points = requests[-1]
    assert expected[-1] == [untrained_m7.predict(kernel, p) for p in points]


def test_race_shape_forward(benchmark, untrained_m7):
    """dse-race's traffic through ``predict_batch``: 300 seeded calls of
    1 to 8 points from a 400-point mvt pool on one pipeline at batch 8,
    every tenth wanting objectives for every point (all three models as
    one fused chunk) and the rest for valid points only (the classifier,
    then both regressors on the points it accepts).  Each round starts
    from a cleared cache."""
    pool = build_design_space(get_kernel("mvt")).sample(random.Random(0), 400)
    rng = random.Random(1)
    calls = []
    for i in range(300):
        calls.append((rng.sample(pool, rng.randint(1, 8)), "all" if i % 10 == 0 else "valid"))
    pipeline = EvaluationPipeline(untrained_m7, batch_size=8)

    def race():
        pipeline.clear_cache()
        return [pipeline.predict_batch("mvt", pts, objectives_for=mode) for pts, mode in calls]

    expected = race()  # compile and warm
    assert benchmark(race) == expected
    for (points, mode), preds in list(zip(calls, expected))[::25]:
        for point, pred in zip(points, preds):
            eager = untrained_m7.predict("mvt", point)
            if mode == "all" or eager.valid:
                assert pred == eager
            else:
                assert pred.objectives is None and pred.valid_prob == eager.valid_prob


def test_pipeline_warmup_chunk_sizes(benchmark, untrained_m7):
    """A fresh pipeline (batch 8) runs first predicts at chunk sizes 1..8
    on mvt, from a cleared cache each time: the strategy race's set-up,
    which compiles the engines and grows their buffers to each size."""
    points = build_design_space(get_kernel("mvt")).sample(random.Random(0), 8)

    def warm():
        pipeline = EvaluationPipeline(untrained_m7, batch_size=8)
        for size in range(1, len(points) + 1):
            pipeline.clear_cache()
            got = pipeline.predict_batch("mvt", points[:size])
        return got

    got = benchmark(warm)
    assert got[-1] == untrained_m7.predict("mvt", points[-1])


def test_cached_predict_request(benchmark, untrained_m7):
    """One cached 4-point ``/v1/predict`` request through the service, from
    JSON body to response bytes: serve-hot's path without the socket.
    The first call misses and fills the cache through the batcher."""
    points = build_design_space(get_kernel("atax")).sample(random.Random(0), 4)
    body = json.dumps({"kernel": "atax", "points": [point_payload(p) for p in points]}).encode()
    expected = EvaluationPipeline(untrained_m7).predict_batch("atax", points)
    service = PredictorService(untrained_m7)

    def request():
        return json.dumps(predict_payload(service, json.loads(body))).encode()

    try:
        request()
        batches = service.metrics_snapshot()["batches"]
        reply = benchmark(request)
        snapshot = service.metrics_snapshot()
    finally:
        service.close()
    assert snapshot["batches"] == batches and snapshot["cache_served_requests"] >= 1
    assert [prediction_from_payload(p) for p in json.loads(reply)["predictions"]] == expected
