"""Open-loop load test for the multi-worker serving stack.

Drives a :class:`~repro.serve.pool.WorkerPool` with open-loop traffic —
request arrival times are pre-scheduled from a seeded Poisson process
(plus periodic burst windows at a rate multiplier) and fired on
schedule regardless of how the server is coping, so the measurements
do not suffer coordinated omission: a slow server faces a growing
backlog exactly as it would in production, and every latency sample is
measured from the *scheduled* arrival.

Reported per run, from ``repro.obs`` histogram windows:

- p50/p99/p999 latency of successful responses;
- goodput (200s inside their deadline, per second of wall time);
- shed rate (429 + ``Retry-After``: admission control at work);
- 5xx / transport-error counts (must be zero — overload is never an
  internal error).

Modes
-----
``--smoke`` (CI, seconds): 2 workers, a fixed burst profile, then a
fleet-wide hot-swap and a rolling restart both *under load*.  Asserts
zero 5xx, zero dropped in-flight requests, bounded p99, bit-identical
predictions across workers, and that every response's model ``sha256``
matches a published artifact during the swap.

Default (scaling, ~a minute): the same fixed burst profile against
1/2/4 workers with a modeled per-dispatch overhead
(``dispatch_overhead_seconds``, standing in for accelerator inference
latency — this container has one core, so real compute cannot scale),
asserting ≥2.5x goodput at 4 workers vs 1.
"""

import argparse
import json
import os
import random
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

try:
    import repro  # noqa: F401
except ImportError:  # standalone run from a source checkout, no install
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.designspace import build_design_space
from repro.errors import ServeError
from repro.explorer.database import Database
from repro.graph.encoding import EDGE_DIM, NODE_DIM
from repro.kernels import get_kernel
from repro.model.config import BRAM_OBJECTIVE, MODEL_CONFIGS, REGRESSION_OBJECTIVES
from repro.model.dataset import GraphDatasetBuilder
from repro.model.models import build_model
from repro.model.predictor import GNNDSEPredictor
from repro.obs import Histogram
from repro.serve import ModelRegistry, PredictorService, ServeClient, WorkerPool
from repro.serve.client import ServeClientError
from repro.serve.registry import load_artifact
from repro.serve.schemas import point_payload

KERNEL = "spmv-ellpack"

#: The fixed burst profile every mode (and EXPERIMENTS.md) refers to:
#: a Poisson base rate with windows at BURST_FACTOR× every BURST_EVERY
#: seconds, BURST_LEN seconds long.
BURST_EVERY = 2.0
BURST_LEN = 0.6
BURST_FACTOR = 3.0


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


def make_factory(registry_root, batch_size=8, max_delay=0.004, max_pending=64,
                 overhead=0.0):
    """Service factory run inside each forked worker (registry-backed).

    The load serves one fixed point, so with the prediction cache on
    every request after the first would be answered from the cache and
    skip the batcher and its modeled dispatch cost.  ``cache=False``
    keeps each request dispatching, so the run measures scheduling.
    """

    def factory():
        registry = ModelRegistry(registry_root)
        current = registry.current()
        predictor = load_artifact(current.path)
        return PredictorService(
            predictor,
            batch_size=batch_size,
            max_delay_seconds=max_delay,
            max_pending=max_pending,
            cache=False,
            model_info=current.payload(),
            registry=registry,
            dispatch_overhead_seconds=overhead,
        )

    return factory


def poisson_schedule(rng, rate, duration,
                     burst_every=BURST_EVERY, burst_len=BURST_LEN,
                     burst_factor=BURST_FACTOR):
    """Arrival offsets (seconds) for the fixed burst profile."""
    t, out = 0.0, []
    while True:
        in_burst = burst_every > 0 and (t % burst_every) < burst_len
        t += rng.expovariate(rate * (burst_factor if in_burst else 1.0))
        if t >= duration:
            return out
        out.append(t)


class LoadStats:
    """Thread-safe tally of one load run."""

    def __init__(self, deadline_ms):
        self.deadline_ms = deadline_ms
        self.lock = threading.Lock()
        self.latency = Histogram("bench.serve.load.latency", window=1 << 17)
        self.attempted = 0
        self.ok = 0
        self.in_deadline = 0
        self.shed = 0
        self.client_errors = 0
        self.server_errors = 0
        self.transport_errors = 0
        self.model_shas = {}  # sha256 -> set of prediction fingerprints

    def record_response(self, latency_seconds, payload):
        fingerprint = json.dumps(payload["predictions"], sort_keys=True)
        sha = (payload.get("model") or {}).get("sha256")
        self.latency.observe(latency_seconds)
        with self.lock:
            self.ok += 1
            if latency_seconds * 1000.0 <= self.deadline_ms:
                self.in_deadline += 1
            self.model_shas.setdefault(sha, set()).add(fingerprint)

    def record_error(self, status):
        with self.lock:
            if status == 429:
                self.shed += 1
            elif status >= 500:
                self.server_errors += 1
            else:
                self.client_errors += 1

    def record_transport_error(self):
        with self.lock:
            self.transport_errors += 1

    def report(self, label, wall_seconds):
        snap = self.latency.snapshot()
        # Goodput counts every 200: deadline-aware scheduling already
        # sheds (429) any request the server could not start inside its
        # budget, so a success is by construction useful work.  The
        # in-deadline count additionally subtracts client-side latency
        # the server cannot observe.
        goodput = self.ok / wall_seconds if wall_seconds > 0 else 0.0
        print(
            f"bench-serve-load: [{label}] attempted={self.attempted} "
            f"ok={self.ok} in-deadline={self.in_deadline} shed={self.shed} "
            f"5xx={self.server_errors} transport-err={self.transport_errors}"
        )
        print(
            f"bench-serve-load: [{label}] latency "
            f"p50={snap['p50'] * 1000:.1f}ms p99={snap['p99'] * 1000:.1f}ms "
            f"p999={snap['p999'] * 1000:.1f}ms max={snap['max'] * 1000:.1f}ms "
            f"goodput={goodput:.1f}/s"
        )
        return {"goodput": goodput, **snap}


def run_load(url, point, schedule, deadline_ms, retries=0, concurrency=256):
    """Fire the schedule open-loop; returns (stats, wall_seconds)."""
    stats = LoadStats(deadline_ms)
    client = ServeClient(
        url, connect_timeout=5.0, read_timeout=15.0, retries=retries
    )
    payload = {
        "kernel": KERNEL,
        "point": point_payload(point),
        "deadline_ms": deadline_ms,
    }

    def fire(scheduled_at):
        try:
            response = client._request("POST", "/v1/predict", payload)
            stats.record_response(time.perf_counter() - scheduled_at, response)
        except ServeClientError as exc:
            stats.record_error(exc.status)
        except ServeError:
            stats.record_transport_error()

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        for offset in schedule:
            delay = start + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            stats.attempted += 1
            pool.submit(fire, start + offset)
    wall = time.perf_counter() - start
    return stats, wall


def fail(message):
    print(f"bench-serve-load: FAIL: {message}")
    raise SystemExit(1)


def check_clean(stats, label, expected_shas=None):
    """Invariants every phase must uphold (the zero-5xx contract)."""
    if stats.server_errors:
        fail(f"[{label}] {stats.server_errors} 5xx responses (want 0)")
    if stats.transport_errors:
        fail(f"[{label}] {stats.transport_errors} transport errors — "
             "a request was dropped mid-flight (want 0)")
    if stats.client_errors:
        fail(f"[{label}] {stats.client_errors} unexpected 4xx responses")
    if stats.ok == 0:
        fail(f"[{label}] no request succeeded")
    for sha, fingerprints in stats.model_shas.items():
        if len(fingerprints) > 1:
            fail(f"[{label}] model {sha} returned {len(fingerprints)} distinct "
                 "predictions for one point — workers are not bit-identical")
    if expected_shas is not None:
        stray = set(stats.model_shas) - set(expected_shas)
        if stray:
            fail(f"[{label}] responses carried unpublished model shas: {stray}")


def write_report(args, phases):
    """Dump per-phase latency/goodput JSON for CI artifact upload."""
    if not getattr(args, "output", None):
        return
    with open(args.output, "w") as handle:
        json.dump({"seed": args.seed, "phases": phases}, handle, indent=1)
        handle.write("\n")
    print(f"bench-serve-load: wrote {args.output}")


def smoke(args):
    """CI profile: bursts, fleet hot-swap under load, rolling restart."""
    root = tempfile.mkdtemp(prefix="bench-serve-load-registry-")
    registry = ModelRegistry(root)
    v1 = registry.publish(make_predictor(seed=0))
    v2 = registry.publish(make_predictor(seed=100), activate=False)
    point = build_design_space(get_kernel(KERNEL)).default_point()
    rng = random.Random(args.seed)
    deadline_ms = 2000.0

    factory = make_factory(root, max_pending=256)
    with WorkerPool(factory, workers=2) as pool:
        print(f"bench-serve-load: smoke pool up at {pool.url} (2 workers)")
        control = ServeClient(pool.url, timeout=10.0, retries=3)

        # Phase 1: steady + burst traffic against a healthy fleet.
        stats, wall = run_load(
            pool.url, point, poisson_schedule(rng, rate=50.0, duration=4.0),
            deadline_ms,
        )
        snap = stats.report("bursts", wall)
        phases = {"bursts": snap}
        check_clean(stats, "bursts", expected_shas={v1.sha256})
        if snap["p99"] > 5.0:
            fail(f"p99 {snap['p99']:.3f}s exceeds the 5s smoke bound")

        # Phase 2: hot-swap the whole fleet while the generator runs.
        schedule = poisson_schedule(rng, rate=40.0, duration=5.0)
        result = {}

        def swap_mid_load():
            time.sleep(1.0)
            registry.set_current(v2.version)
            result["reload"] = control.reload_model()

        swapper = threading.Thread(target=swap_mid_load)
        swapper.start()
        stats, wall = run_load(pool.url, point, schedule, deadline_ms)
        swapper.join()
        phases["hot-swap"] = stats.report("hot-swap", wall)
        check_clean(stats, "hot-swap", expected_shas={v1.sha256, v2.sha256})
        if not result.get("reload", {}).get("swapped"):
            fail(f"reload did not swap: {result!r}")
        if v2.sha256 not in stats.model_shas:
            fail("no response was served by the new artifact during the swap")
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if all(
                control.model()["model"]["sha256"] == v2.sha256
                for _ in range(2 * pool.worker_count())
            ):
                break
            time.sleep(0.2)
        else:
            fail("fleet did not converge on the new artifact after reload")
        print("bench-serve-load: fleet converged on "
              f"{v2.version} ({v2.sha256[:12]}…)")

        # Phase 3: rolling restart under load — zero dropped requests.
        schedule = poisson_schedule(rng, rate=40.0, duration=6.0)
        restart_error = []

        def restart_mid_load():
            time.sleep(1.0)
            try:
                pool.rolling_restart()
            except Exception as exc:  # surfaced after the load run
                restart_error.append(exc)

        restarter = threading.Thread(target=restart_mid_load)
        restarter.start()
        stats, wall = run_load(pool.url, point, schedule, deadline_ms)
        restarter.join()
        phases["rolling-restart"] = stats.report("rolling-restart", wall)
        if restart_error:
            fail(f"rolling restart raised: {restart_error[0]}")
        check_clean(stats, "rolling-restart", expected_shas={v2.sha256})
        if pool.worker_count() != 2:
            fail(f"pool has {pool.worker_count()} workers after restart (want 2)")
    write_report(args, phases)
    print("bench-serve-load: PASS")


def scaling(args):
    """Goodput at 1/2/4 workers under the fixed burst profile.

    ``dispatch_overhead_seconds`` models per-batch accelerator latency;
    workers overlap those waits, so goodput scales with pool size even
    on a single core (same technique as ``bench_parallel_dse.py``).
    """
    root = tempfile.mkdtemp(prefix="bench-serve-load-registry-")
    ModelRegistry(root).publish(make_predictor(seed=0))
    point = build_design_space(get_kernel(KERNEL)).default_point()
    results = {}
    for workers in args.worker_counts:
        factory = make_factory(root, overhead=args.overhead_ms / 1000.0)
        rng = random.Random(args.seed)  # identical schedule per pool size
        schedule = poisson_schedule(rng, rate=args.rate, duration=args.duration)
        with WorkerPool(factory, workers=workers) as pool:
            print(f"bench-serve-load: pool up at {pool.url} "
                  f"({workers} workers, {args.overhead_ms:g}ms modeled "
                  f"dispatch overhead)")
            stats, wall = run_load(
                pool.url, point, schedule, args.deadline_ms
            )
        label = f"{workers}w"
        results[workers] = stats.report(label, wall)
        check_clean(stats, label)
    if 1 in results and 4 in results:
        ratio = results[4]["goodput"] / max(results[1]["goodput"], 1e-9)
        print(f"bench-serve-load: goodput 4w/1w = {ratio:.2f}x")
        if ratio < 2.5:
            fail(f"goodput ratio {ratio:.2f}x below the 2.5x floor")
    write_report(args, {f"{w}w": report for w, report in results.items()})
    print("bench-serve-load: PASS")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="short CI profile: bursts + hot-swap + rolling "
                             "restart under load, with hard assertions")
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated pool sizes for the scaling run")
    parser.add_argument("--rate", type=float, default=110.0,
                        help="base Poisson arrival rate (requests/s); the "
                             "burst windows multiply it")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="seconds of scheduled traffic per scaling run")
    parser.add_argument("--deadline-ms", type=float, default=750.0,
                        help="per-request latency budget in the scaling runs")
    parser.add_argument("--overhead-ms", type=float, default=150.0,
                        help="modeled per-batch dispatch overhead")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", metavar="FILE",
                        help="write per-phase latency/goodput stats as JSON")
    args = parser.parse_args()
    args.worker_counts = [int(w) for w in str(args.workers).split(",") if w]
    if args.smoke:
        smoke(args)
    else:
        scaling(args)


if __name__ == "__main__":
    main()
