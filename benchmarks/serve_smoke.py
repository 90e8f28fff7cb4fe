"""End-to-end smoke test of the model-serving stack (``make serve-smoke``).

Boots the HTTP server on an ephemeral port with an untrained predictor
(no database or training needed, finishes in seconds), then checks the
whole request path from the outside:

- ``/healthz`` reports ``ok``;
- ``/v1/predict`` answers are **bit-identical** to the in-process
  :class:`~repro.dse.pipeline.EvaluationPipeline` on the same weights;
- a repeated ``/v1/predict`` is answered from the prediction cache,
  with no micro-batch, for ``objectives_for`` ``"all"`` and ``"valid"``
  (the latter on points the classifier rejected);
- ``/v1/dse/top`` returns a well-formed ranked payload;
- ``/v1/dse/top`` and an in-process :func:`~repro.dse.run_dse` on the
  same weights agree on ``top``, ``pareto``, ``explored`` and the
  ``race`` ledger, for the beam and for a seeded race on fir (one
  request path: the server and ``repro dse`` share ``run_dse``);
- ``/metrics`` accounts for every request we sent;
- no ``scipy`` module was loaded: scipy serves only the eager and
  training path, and the compiled engine sums in numpy.

Exits non-zero on any mismatch, so it can gate CI.
"""

import json
import os
import random
import sys

try:
    import repro  # noqa: F401
except ImportError:  # standalone run from a source checkout, no install
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.designspace import build_design_space
from repro.dse import EvaluationPipeline, run_dse
from repro.explorer.database import Database
from repro.graph.encoding import EDGE_DIM, NODE_DIM
from repro.kernels import get_kernel
from repro.model.config import BRAM_OBJECTIVE, MODEL_CONFIGS, REGRESSION_OBJECTIVES
from repro.model.dataset import GraphDatasetBuilder
from repro.model.models import build_model
from repro.model.predictor import GNNDSEPredictor
from repro.serve import PredictorService, ServeClient, start_server
from repro.serve.schemas import dse_result_payload

KERNEL = "spmv-ellpack"
POINTS = 12

#: (label, request fields) of the searches the server and an in-process
#: ``run_dse`` must agree on.  fir's 97-point space sweeps well inside
#: the time limit, so neither side is cut by the clock.
DSE_KERNEL = "fir"
DSE_CASES = (
    ("beam", {}),
    ("race", {"strategy": "race", "budget": 25, "seed": 3}),
)
DSE_FIELDS = ("top", "pareto", "explored", "race")


def make_predictor(seed=0):
    """Untrained-but-deterministic predictor stack (mirrors the tests)."""
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
        config.for_task("regression", BRAM_OBJECTIVE), NODE_DIM, EDGE_DIM,
        seed=seed + 2,
    )
    return GNNDSEPredictor(classifier, regressor, bram, builder.normalizer, builder)


def fail(message):
    print(f"serve-smoke: FAIL: {message}")
    raise SystemExit(1)


def main():
    predictor = make_predictor()
    space = build_design_space(get_kernel(KERNEL))
    points = space.sample(random.Random(1), POINTS)

    # Ground truth from the in-process pipeline on the same weights.
    expected = EvaluationPipeline(predictor, batch_size=4).predict_batch(
        KERNEL, points
    )

    service = PredictorService(predictor, batch_size=4, max_delay_seconds=0.002)
    server = start_server(service)  # ephemeral port
    print(f"serve-smoke: server up at {server.url}")
    try:
        client = ServeClient(server.url)

        health = client.healthz()
        if health.get("status") != "ok":
            fail(f"/healthz reported {health!r}")

        served = client.predict(KERNEL, points)
        if served != expected:
            fail("/v1/predict is not bit-identical to the in-process pipeline")
        print(f"serve-smoke: {len(served)} predictions bit-identical")

        # The valid-mode points are fresh, so their first request runs
        # only the classifier, which rejects them at this threshold.
        rejected = space.sample(random.Random(2), POINTS)
        for label, request_points, fields in (
            ("all", points, {}),
            ("valid", rejected, {"objectives_for": "valid", "valid_threshold": 0.999}),
        ):
            first = client.predict(KERNEL, request_points, **fields)
            before = client.metrics()
            again = client.predict(KERNEL, request_points, **fields)
            after = client.metrics()
            if again != first:
                fail(f"repeated {label!r} request changed its answer")
            if (
                after["cache_served_requests"] != before["cache_served_requests"] + 1
                or after["batches"] != before["batches"]
            ):
                fail(f"repeated {label!r} request was not answered from the cache")
        print("serve-smoke: repeated requests served from the cache (all, valid)")

        result = client.dse_top(KERNEL, top=3, time_limit=3.0)
        ranks = [entry["rank"] for entry in result["top"]]
        if result["kernel"] != KERNEL or ranks != list(range(1, len(ranks) + 1)):
            fail(f"/v1/dse/top payload malformed: {result!r}")
        print(
            f"serve-smoke: dse/top returned {len(ranks)} designs, "
            f"{result['explored']} points explored"
        )

        spec = get_kernel(DSE_KERNEL)
        dse_space = build_design_space(spec)
        for label, fields in DSE_CASES:
            served = client.dse_top(DSE_KERNEL, top=3, time_limit=30.0, **fields)
            local = run_dse(
                spec, dse_space, EvaluationPipeline(predictor),
                top_m=3, time_limit_seconds=30.0, **fields,
            )
            local = json.loads(json.dumps(dse_result_payload(local)))
            if served["time_limited"] or local["time_limited"]:
                fail(f"{label} search on {DSE_KERNEL} was cut by its time limit")
            for field in DSE_FIELDS:
                if served[field] != local[field]:
                    fail(f"/v1/dse/top {label} {field!r} differs from in-process run_dse")
            print(
                f"serve-smoke: dse/top {label} on {DSE_KERNEL} matches run_dse "
                f"({served['explored']} explored, {len(served['pareto'])} on the front)"
            )

        metrics = client.metrics()
        predict_count = metrics["latency"]["/v1/predict"]["count"]
        if predict_count < 1 or metrics["batches"] < 1:
            fail(f"/metrics did not account for our requests: {metrics!r}")
        print(
            f"serve-smoke: metrics ok ({predict_count} predict requests, "
            f"{metrics['batches']} batches, "
            f"mean fill {metrics['mean_batch_fill']:.2f})"
        )
    finally:
        server.stop()
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    if loaded:
        fail(f"serving loaded scipy: {', '.join(loaded)}")
    print("serve-smoke: no scipy module loaded")
    print("serve-smoke: PASS")


if __name__ == "__main__":
    main()
