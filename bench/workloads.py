"""One benchmark workload in a fresh process: set up, measure, check.

``bench/run.py`` starts this script once per shard of a run.  It prints
``READY`` when set-up is done (the parent times set-up up to that
line), runs the workload for ``--seconds``, checks every output outside
the timed window, and prints one JSON line with the counts, metric
values, problems and provenance.  ``--shard`` varies the generated
inputs between the shards of one run.

Why each workload exists is in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import itertools
import json
import random
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

#: Front members re-predicted eagerly, and evaluated points checked
#: against the front, in one seeded operation per worker.
FRONT_SAMPLE = 32
EVALUATED_SAMPLE = 64

SERVE_KERNELS = ("stencil", "atax", "gemm-blocked")
CLIENTS = 2
POINTS_PER_REQUEST = 4
HOT_POINTS = 16
#: Every CHECK_EVERY-th response of each client is compared with eager
#: predictions after the window.
CHECK_EVERY = 16
#: Distinct points drawn per kernel for serve-cold; a window that uses
#: them all wraps around, and the wrap shows as cache hits.
COLD_POINTS = 1500
#: Warm-up requests per client per kernel, before the window.
WARM_ROUNDS = 2


class Workload:
    """Set-up / measure / report skeleton shared by every workload."""

    def __init__(self, args, tracer: Optional[harness.Tracer]):
        self.args = args
        self.tracer = tracer
        self.tally = harness.Tally()
        self.problems: List[str] = []
        self.engine = ""
        self.mark = 0
        self.absent: List[str] = []

    def close(self) -> None:
        pass


def pipeline_layers(
    spans: List[list], mark: int, delta: Dict[str, object], operations: int
) -> Dict[str, float]:
    """Set-up and pipeline layers from spans and a ``PipelineStats`` delta.

    Spans before ``mark`` are set-up; window totals are divided by
    ``operations``.
    """
    before = harness.span_durations(spans[:mark])
    calls = harness.span_durations(spans, mark).get("dse.pipeline.call", [])
    points = delta["points"]
    layers = {
        f"{name}_s": sum(before.get(name, []))
        for name in ("frontend.parse", "ir.lower", "ir.analyze", "graph.build",
                     "graph.encode", "designspace.build")
    }
    layers.update({
        "dse.pipeline.warmup_s": sum(before.get("dse.pipeline.call", [])),
        "dse.pipeline.busy_s": sum(calls) / operations,
        "dse.pipeline.calls": len(calls) / operations,
        "dse.pipeline.call_p50_ms": 1000.0 * statistics.median(calls) if calls else 0.0,
        "dse.pipeline.fill_s": delta["encode_seconds"] / operations,
        "dse.pipeline.forward_s": delta["inference_seconds"] / operations,
        "dse.pipeline.materialize_s": delta["materialize_seconds"] / operations,
        "dse.pipeline.forward_batches": delta["batches"] / operations,
        "dse.pipeline.model_points": delta["model_points"] / operations,
        "dse.pipeline.cache_hit_ratio": delta["cache_hit_rate"],
        "dse.pipeline.cascade_skip_ratio": delta["cascade_skipped"] / points if points else 0.0,
    })
    return layers


# ---------------------------------------------------------------------------
# model-driven DSE


class DSEWorkload(Workload):
    """Back-to-back DSE operations on one kernel, each from a cold point cache.

    Compiled batch templates stay warm across operations, as they do
    across requests in a long-lived process; the point cache is cleared
    so every operation evaluates its points.
    """

    kernel = ""
    batch_size = 24

    def setup(self) -> None:
        if self.tracer:
            harness.install_layers(self.tracer, harness.DSE_LAYERS)
        from repro import designspace, kernels
        from repro.dse import EvaluationPipeline

        self.predictor = harness.untrained_predictor()
        self.spec = kernels.get_kernel(self.kernel)
        self.space = designspace.build_design_space(self.spec)
        self.pipeline = EvaluationPipeline(self.predictor, batch_size=self.batch_size)
        self.warm(list(itertools.islice(self.space.enumerate(), self.batch_size)))
        self.pipeline.clear_cache()
        self.engine = self.pipeline.stats.engine
        self.rss_setup = harness.peak_rss_mb()

    def warm(self, points) -> None:
        raise NotImplementedError

    def operation(self, index: int):
        """Run one operation; returns ``(result, points, evaluated)``."""
        raise NotImplementedError

    def check(self, result, evaluated, rng: Optional[random.Random]) -> List[str]:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        before = self.pipeline.stats_snapshot()
        self.mark = self.tracer.mark() if self.tracer else 0
        self.ops: List[Tuple[float, object, int, object]] = []
        self.op_roots: List[int] = []
        deadline = time.perf_counter() + seconds
        while not self.ops or time.perf_counter() < deadline:
            self.pipeline.clear_cache()
            if self.tracer:
                self.op_roots.append(self.tracer.mark())
            start = time.perf_counter()
            try:
                with self.tracer.span("dse.op") if self.tracer else contextlib.nullcontext():
                    result, points, evaluated = self.operation(len(self.ops))
            except Exception:  # one failed operation must not end the run
                traceback.print_exc()
                result, points, evaluated = None, 0, None
            self.ops.append((time.perf_counter() - start, result, points, evaluated))
        self.delta = (self.pipeline.stats_snapshot() - before).to_dict()
        self.rss_end = harness.peak_rss_mb()

    def deep_check(self, rng: random.Random, pareto, evaluated) -> List[str]:
        members = rng.sample(pareto, min(FRONT_SAMPLE, len(pareto)))
        problems = [
            harness.eager_disagreement(
                self.predictor, self.kernel,
                [c.point for c in members], [c.prediction for c in members],
            ),
            harness.front_incomplete(
                self.predictor, self.kernel,
                rng.sample(evaluated, min(EVALUATED_SAMPLE, len(evaluated))), pareto,
            ),
        ]
        return [p for p in problems if p]

    def report(self) -> Dict[str, object]:
        rng = random.Random(f"check:{self.args.seed}:{self.args.shard}")
        deep = rng.randrange(len(self.ops))
        for index, (_, result, _, evaluated) in enumerate(self.ops):
            if result is None:
                problems = ["operation raised"]
            else:
                problems = self.check(result, evaluated, rng if index == deep else None)
            self.problems += [f"operation {index}: {p}" for p in problems]
            self.tally.record(not problems)
        times = [t for t, _, _, _ in self.ops]
        e2e = {
            "points_per_s": sum(p for _, _, p, _ in self.ops) / sum(times),
            "latency_p50_ms": 1000.0 * harness.percentile(times, 50),
            "peak_rss_mb": self.rss_end,
        }
        if not self.tracer:
            return e2e
        spans, ops = self.tracer.spans, len(self.ops)
        layers = pipeline_layers(spans, self.mark, self.delta, ops)
        merge = harness.span_durations(spans, self.mark).get("dse.pareto.merge", [])
        inside = sum(
            harness.time_within(spans, name, self.op_roots)
            for name in ("dse.pipeline.call", "dse.pareto.merge")
        )
        fronts = [len(r.pareto) for _, r, _, _ in self.ops if r is not None]
        layers.update({
            "dse.pareto.merge_s": sum(merge) / ops,
            "dse.pareto.merge_calls": len(merge) / ops,
            "dse.pareto.front_size": statistics.median(fronts) if fronts else 0,
            "dse.search.self_s": (sum(times) - inside) / ops,
            "mem.run_rss_delta_mb": self.rss_end - self.rss_setup,
            "trace.points_per_s": e2e["points_per_s"],
            "trace.latency_p50_ms": e2e["latency_p50_ms"],
            "trace.spans": len(spans) - self.mark,
            "run.operations": ops,
        })
        return layers


class SweepWorkload(DSEWorkload):
    """``repro dse -k gesummv``: the exhaustive ``ModelDSE.run()`` sweep.

    The sweep has no random input, so ``--seed`` only picks which
    front members and points the deep check samples.
    """

    kernel = "gesummv"

    def warm(self, points) -> None:
        self.pipeline.predict_batch(self.kernel, points, objectives_for="all")

    def operation(self, index: int):
        from repro.dse.search import ModelDSE

        result = ModelDSE(self.predictor, self.spec, self.space, pipeline=self.pipeline).run()
        return result, result.explored, None

    def check(self, result, evaluated, rng) -> List[str]:
        everything = list(self.space.enumerate())
        problems = []
        if result.explored != len(everything):
            problems.append(f"explored {result.explored} of {len(everything)} points")
        problems += harness.check_search_result(result.top, result.pareto)
        if rng is not None and not problems:
            problems += self.deep_check(rng, result.pareto, everything)
        return problems


class RaceWorkload(DSEWorkload):
    """The default four-arm strategy race under a query budget, on mvt.

    Each operation races with its own seed derived from ``--seed``.
    The pipeline batch is 8, not the CLI's 24: a compiled template's
    memory grows with its capacity, and warming every capacity up to 24
    on mvt peaks above 5 GB, while capacities 1..8 fit in well under
    1 GB.  Warming all of them in set-up keeps template compilation out
    of the window and makes peak memory independent of the seed.
    Predictions, and so every race, are identical at any batch size.
    """

    kernel = "mvt"
    batch_size = 8

    @property
    def budget(self) -> int:
        return 100 if self.args.smoke else 300

    def warm(self, points) -> None:
        for capacity in range(1, len(points) + 1):
            self.pipeline.clear_cache()
            self.pipeline.predict_batch(self.kernel, points[:capacity], objectives_for="all")

    def operation(self, index: int):
        from repro.dse.race import DEFAULT_ARMS, StrategyRacer
        from repro.dse.strategies import BudgetedEvaluator, QueryBudget

        # What run_race does, keeping the evaluator to see which points
        # the race evaluated.
        evaluator = BudgetedEvaluator(
            self.pipeline, self.spec, self.space, QueryBudget(self.budget)
        )
        seed = self.args.seed * 1000 + self.args.shard * 100 + index
        result = StrategyRacer(evaluator, DEFAULT_ARMS, seed=seed).run()
        return result, result.queries, evaluator

    def check(self, result, evaluator, rng) -> List[str]:
        problems = []
        if result.queries != self.budget:
            problems.append(f"race charged {result.queries} of {self.budget} queries")
        problems += harness.check_search_result(result.top, result.pareto)
        if rng is not None and not problems:
            evaluated = [c.point for c in evaluator.memo.values()]
            problems += self.deep_check(rng, result.pareto, evaluated)
        return problems

    def report(self) -> Dict[str, object]:
        out = super().report()
        if not self.tracer:
            return out
        spans, ops = self.tracer.spans, len(self.ops)
        durations = harness.span_durations(spans, self.mark)
        own = harness.self_times(spans, self.mark)
        evaluate = durations.get("dse.strategies.evaluate", [])
        totals = [o for _, r, _, _ in self.ops if r is not None for o in r.totals.values()]
        proposals = sum(o.proposals for o in totals)
        queries = sum(o.queries for o in totals)
        out.update({
            "dse.strategies.evaluate_s": sum(evaluate) / ops,
            "dse.strategies.evaluate_calls": len(evaluate) / ops,
            "dse.strategies.memo_hit_ratio": 1.0 - queries / proposals if proposals else 0.0,
            "dse.race.new_pareto_per_query":
                sum(o.new_pareto for o in totals) / queries if queries else 0.0,
        })
        for arm in harness.ARMS:
            out[f"dse.race.step_s.{arm}"] = sum(durations.get(f"dse.race.step.{arm}", [])) / ops
            out[f"dse.race.self_s.{arm}"] = own.get(f"dse.race.step.{arm}", 0.0) / ops
        return out


# ---------------------------------------------------------------------------
# serving


class Response(NamedTuple):
    """One request as its client saw it; ``status`` None is a transport error."""

    kernel: str
    points: list
    status: Optional[int]
    seconds: float
    body: Optional[bytes]
    done: float


class ServeWorkload(Workload):
    """Closed-loop clients against ``bench/serve_host.py`` over HTTP/1.1.

    ``CLIENTS`` threads each hold one persistent connection and send
    ``POST /v1/predict`` with ``POINTS_PER_REQUEST`` points, cycling
    through ``SERVE_KERNELS``; each waits for its reply before sending
    the next request.
    """

    hot = False
    server: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        from repro import designspace, kernels

        start = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH / "serve_host.py"),
             "--trace", "1" if self.tracer else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.port = json.loads(self.server.stdout.readline())["port"]
        self.wait_healthy()
        self.boot_s = time.perf_counter() - start
        rng = random.Random(f"inputs:{self.args.seed}:{self.args.shard}")
        spaces = {k: designspace.build_design_space(kernels.get_kernel(k)) for k in SERVE_KERNELS}
        if self.hot:
            self.hot_points = {k: distinct_points(s, rng, HOT_POINTS) for k, s in spaces.items()}
            warm = {k: chunks(points) for k, points in self.hot_points.items()}
        else:
            cold = {k: chunks(distinct_points(s, rng, COLD_POINTS)) for k, s in spaces.items()}
            reserved = WARM_ROUNDS * CLIENTS
            warm = {k: c[:reserved] for k, c in cold.items()}
            self.cold_chunks = {k: c[reserved:] for k, c in cold.items()}
        warm_rounds = WARM_ROUNDS * len(SERVE_KERNELS)
        self.run_clients(
            [itertools.islice(self.plan(c, warm), warm_rounds) for c in range(CLIENTS)],
            deadline=None,
        )
        self.command("reset")

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()  # closing with unread data would reset the server's socket
                if response.status == 200:
                    return
            except (OSError, http.client.HTTPException):
                if time.monotonic() > deadline:
                    raise
            finally:
                conn.close()
            time.sleep(0.01)

    def command(self, line: str) -> Dict[str, object]:
        self.server.stdin.write(line + "\n")
        self.server.stdin.flush()
        reply = self.server.stdout.readline()
        if not reply:
            raise RuntimeError(f"serve_host exited before answering {line!r}")
        return json.loads(reply)

    def plan(self, client: int, chunks_by_kernel) -> Iterator[Tuple[str, list]]:
        """The endless request stream of one client.

        Client ``c`` starts on kernel ``c``, so the clients' requests
        never share a batch.  Started on the same kernel, they either
        fall into step and share every batch or alternate, whichever the
        first requests' timing picks, and a run would land in either
        mode.  ``chunks_by_kernel`` None draws hot points at random.
        """
        rng = random.Random(f"requests:{self.args.seed}:{self.args.shard}:{client}")
        for n in itertools.count():
            kernel = SERVE_KERNELS[(n + client) % len(SERVE_KERNELS)]
            if chunks_by_kernel is None:
                yield kernel, rng.sample(self.hot_points[kernel], POINTS_PER_REQUEST)
            else:
                mine = chunks_by_kernel[kernel][client::CLIENTS]
                yield kernel, mine[(n // len(SERVE_KERNELS)) % len(mine)]

    def run_clients(self, plans, deadline: Optional[float]) -> List[List[Response]]:
        records: List[List[Response]] = [[] for _ in plans]
        threads = [
            threading.Thread(target=send_requests, args=(self.port, plan, deadline, out))
            for plan, out in zip(plans, records)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        chunks_by_kernel = None if self.hot else self.cold_chunks
        self.records = self.run_clients(
            [self.plan(c, chunks_by_kernel) for c in range(CLIENTS)], deadline=start + seconds
        )
        self.window = max(
            (r.done for rs in self.records for r in rs), default=time.perf_counter()
        ) - start
        self.server_report = self.stop_server()

    def stop_server(self) -> Dict[str, object]:
        report = self.command("stop")
        self.server.wait(timeout=30)
        return report

    def close(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            with contextlib.suppress(OSError, RuntimeError, ValueError, subprocess.TimeoutExpired):
                self.stop_server()
        if self.server.poll() is None:
            self.server.kill()
            self.server.wait()

    def report(self) -> Dict[str, object]:
        from repro.designspace.space import point_key
        from repro.nn.lazy.equiv import predictions_equivalent
        from repro.nn.tensor import get_default_dtype

        self.engine = self.server_report["engine"]
        sampled = tally_responses(self.records, self.tally, self.problems)
        predictor = harness.untrained_predictor()
        eager: Dict[tuple, object] = {}
        for r, served in sampled:
            keys = [(r.kernel, point_key(p)) for p in r.points]
            fresh = {k: p for k, p in zip(keys, r.points) if k not in eager}
            eager.update(zip(fresh, predictor.predict_batch(r.kernel, list(fresh.values()))))
            problem = predictions_equivalent(
                served, [eager[k] for k in keys], dtype=get_default_dtype()
            )
            if problem is not None:
                self.tally.fail_check()
                self.problems.append(f"{r.kernel}: {problem}")
        ok = [r for rs in self.records for r in rs if r.status == 200]
        rtts = [r.seconds for r in ok]
        e2e = {
            "points_per_s": sum(len(r.points) for r in ok) / self.window,
            "latency_p50_ms": 1000.0 * harness.percentile(rtts, 50),
            "peak_rss_mb": self.server_report["peak_rss_mb"],
        }
        if not self.tracer:
            return e2e
        trace = self.server_report["trace"]
        spans, mark = trace["spans"], self.server_report["mark"]
        layers = pipeline_layers(spans, mark, self.server_report["stats"], self.tally.attempted)
        window = harness.span_durations(spans, mark)
        service_p50 = 1000.0 * harness.percentile(window.get("serve.service.predict", []), 50)
        calls = len(window.get("dse.pipeline.call", []))
        layers.update({
            "serve.boot_s": self.boot_s,
            "mem.run_rss_delta_mb": self.server_report["peak_rss_mb"]
            - self.server_report["rss_at_reset_mb"],
            "serve.service.predict_p50_ms": service_p50,
            "serve.batcher.mean_fill":
                self.server_report["stats"]["points"] / calls if calls else 0.0,
            "serve.batcher.overhead_p50_ms": service_p50 - layers["dse.pipeline.call_p50_ms"],
            "serve.http.transport_p50_ms": e2e["latency_p50_ms"] - service_p50,
            "serve.shed_count": self.tally.shed,
            "serve.client.p90_ms": 1000.0 * harness.percentile(rtts, 90),
            "trace.points_per_s": e2e["points_per_s"],
            "trace.latency_p50_ms": e2e["latency_p50_ms"],
            "trace.spans": len(spans) - mark,
            "run.operations": self.tally.attempted,
        })
        self.absent = trace["absent"]
        return layers


def send_requests(port: int, plan, deadline: Optional[float], out: List[Response]) -> None:
    """One closed-loop client on one persistent connection.

    Sends each ``(kernel, points)`` of ``plan`` and waits for the reply,
    until the plan ends or ``deadline`` passes; a transport error is
    recorded with status None and the next request reconnects.
    """
    from repro.serve.schemas import point_payload

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for kernel, points in plan:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            body = json.dumps(
                {"kernel": kernel, "points": [point_payload(p) for p in points]}
            ).encode()
            start = time.perf_counter()
            try:
                conn.request("POST", "/v1/predict", body, {"Content-Type": "application/json"})
                response = conn.getresponse()
                status, data = response.status, response.read()
            except (OSError, http.client.HTTPException):
                conn.close()
                status, data = None, None
            done = time.perf_counter()
            out.append(Response(kernel, points, status, done - start, data, done))
    finally:
        conn.close()


def tally_responses(records: List[List[Response]], tally: harness.Tally,
                    problems: List[str]) -> List[Tuple[Response, list]]:
    """Count every response; return the sampled 200s with their predictions.

    Only a 200 whose body carries one prediction per point succeeds;
    other statuses and transport errors fail.  Every ``CHECK_EVERY``-th
    response of each client is returned for the eager comparison.
    """
    from repro.errors import ServeError
    from repro.serve.schemas import prediction_from_payload

    sampled = []
    for client in records:
        for index, r in enumerate(client):
            if r.status is None:
                tally.record(False)
                continue
            tally.record_status(r.status)
            if r.status != 200:
                continue
            try:
                served = [prediction_from_payload(p) for p in json.loads(r.body)["predictions"]]
                well_formed = len(served) == len(r.points)
            except (ValueError, KeyError, TypeError, ServeError):
                well_formed = False
            if not well_formed:
                tally.fail_check()
                problems.append(f"{r.kernel}: malformed reply for {len(r.points)} points")
            elif index % CHECK_EVERY == 0:
                sampled.append((r, served))
    return sampled


class ColdServeWorkload(ServeWorkload):
    """Points never repeat, so every request runs the model."""


class HotServeWorkload(ServeWorkload):
    """16 points per kernel, touched before the window: every request hits the cache."""

    hot = True


def distinct_points(space, rng: random.Random, count: int) -> list:
    """Up to ``count`` distinct seeded points of ``space``."""
    from repro.designspace.space import point_key

    seen, out = set(), []
    for _ in range(20 * count):
        point = space.sample(rng, 1)[0]
        key = point_key(point)
        if key not in seen:
            seen.add(key)
            out.append(point)
            if len(out) == count:
                break
    return out


def chunks(points: list) -> List[list]:
    return [points[i:i + POINTS_PER_REQUEST]
            for i in range(0, len(points) - POINTS_PER_REQUEST + 1, POINTS_PER_REQUEST)]


WORKLOADS = {
    "dse-sweep": SweepWorkload,
    "dse-race": RaceWorkload,
    "serve-cold": ColdServeWorkload,
    "serve-hot": HotServeWorkload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shard", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    harness.use_checkout_sources()

    tracer = harness.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args, tracer)
    with tracer or contextlib.nullcontext():
        try:
            workload.setup()
            print("READY", flush=True)
            workload.measure(args.seconds)
            metrics = workload.report()
        finally:
            workload.close()
    result = {
        "tally": workload.tally.to_dict(),
        "problems": workload.problems,
        "metrics": metrics,
        "stamp": harness.stamp(workload.engine),
        "absent": (tracer.absent if tracer else []) + workload.absent,
    }
    if tracer:
        harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace = {"workload": args.workload, "seed": args.seed, **tracer.export()}
        if isinstance(workload, ServeWorkload):
            trace["server"] = workload.server_report["trace"]
        (harness.OUT_DIR / f"{args.workload}.trace.json").write_text(json.dumps(trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
