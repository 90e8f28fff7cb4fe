"""Tests for the serving subsystem: micro-batcher, service, HTTP API.

The serving contract mirrors the pipeline's: anything a client reads
off the wire must be **bit-identical** to what an in-process
:class:`EvaluationPipeline` returns for the same predictor — the
micro-batcher may regroup requests into any batch composition, and the
JSON transport must round-trip every float exactly.
"""

import json
import os
import random
import socket
import subprocess
import sys
import textwrap
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from repro.designspace import build_design_space
from repro.designspace.space import point_key
from repro.dse import EvaluationPipeline
from repro.errors import (
    BacklogFullError,
    DeadlineExceededError,
    DesignSpaceError,
    ServeError,
)
from repro.kernels import get_kernel
from repro.model.predictor import Prediction
from repro.nn.tensor import set_default_dtype
from repro.serve import (
    MicroBatcher,
    PredictorService,
    ServeClient,
    ServeClientError,
    ServeMetrics,
    start_server,
)
from repro.serve.schemas import prediction_from_payload

from tests.test_pipeline import make_predictor, sample_points


@pytest.fixture(scope="module")
def predictor():
    # Module-scoped float64 stack (built under the suite fixture).
    return make_predictor()


# ---------------------------------------------------------------------------
# micro-batcher


def constant_prediction():
    return Prediction(valid=True, valid_prob=0.75, objectives=None)


class TestMicroBatcher:
    def test_flushes_full_batch_in_one_call(self):
        calls = []

        def predict(kernel, points, valid_threshold, objectives_for):
            calls.append((kernel, len(points)))
            return [constant_prediction() for _ in points]

        # The deadline is far away, so nothing can flush until the group
        # reaches batch_size — at which point all four ride one call.
        with MicroBatcher(predict, batch_size=4, max_delay_seconds=60.0) as mb:
            futures = [mb.submit("fir", {"a": i}) for i in range(4)]
            for f in futures:
                assert f.result(timeout=30).valid_prob == 0.75
        assert calls == [("fir", 4)]

    def test_deadline_flushes_partial_batch(self):
        calls = []

        def predict(kernel, points, valid_threshold, objectives_for):
            calls.append(len(points))
            return [constant_prediction() for _ in points]

        with MicroBatcher(predict, batch_size=64, max_delay_seconds=0.02) as mb:
            futures = [mb.submit("fir", {"a": i}) for i in range(3)]
            for f in futures:
                f.result(timeout=30)
        # Nowhere near 64 requests: the deadline, not the size, flushed.
        assert sum(calls) == 3

    def test_groups_never_mix_thresholds(self):
        calls = []

        def predict(kernel, points, valid_threshold, objectives_for):
            calls.append((kernel, valid_threshold, len(points)))
            return [constant_prediction() for _ in points]

        with MicroBatcher(predict, batch_size=8, max_delay_seconds=0.01) as mb:
            a = [mb.submit("fir", {"a": i}, valid_threshold=0.5) for i in range(2)]
            b = [mb.submit("fir", {"a": i}, valid_threshold=0.9) for i in range(2)]
            c = [mb.submit("aes", {"a": 0}, valid_threshold=0.5)]
            for f in a + b + c:
                f.result(timeout=30)
        keys = {(kernel, threshold) for kernel, threshold, _ in calls}
        assert keys == {("fir", 0.5), ("fir", 0.9), ("aes", 0.5)}

    def test_backlog_rejects_excess_load(self):
        started = threading.Event()
        gate = threading.Event()
        metrics = ServeMetrics()

        def predict(kernel, points, valid_threshold, objectives_for):
            started.set()
            gate.wait(timeout=30)
            return [constant_prediction() for _ in points]

        mb = MicroBatcher(
            predict, batch_size=2, max_delay_seconds=0.0, max_pending=2,
            metrics=metrics,
        )
        try:
            first = mb.submit("fir", {"a": 0})
            assert started.wait(timeout=30)  # worker busy, queue now empty
            queued = [mb.submit("fir", {"a": i}) for i in (1, 2)]
            with pytest.raises(BacklogFullError):
                mb.submit("fir", {"a": 3})
            assert metrics.snapshot()["rejected_requests"] == 1
            gate.set()
            for f in [first] + queued:
                f.result(timeout=30)
        finally:
            gate.set()
            mb.close()

    def test_close_drains_queued_work(self):
        done = []

        def predict(kernel, points, valid_threshold, objectives_for):
            time.sleep(0.01)
            done.append(len(points))
            return [constant_prediction() for _ in points]

        mb = MicroBatcher(predict, batch_size=4, max_delay_seconds=60.0)
        futures = [mb.submit("fir", {"a": i}) for i in range(3)]
        mb.close(drain=True)
        for f in futures:
            assert f.result(timeout=0).valid
        with pytest.raises(ServeError):
            mb.submit("fir", {"a": 9})

    def test_close_without_drain_fails_queued_requests(self):
        started = threading.Event()
        gate = threading.Event()

        def predict(kernel, points, valid_threshold, objectives_for):
            started.set()
            gate.wait(timeout=30)
            return [constant_prediction() for _ in points]

        mb = MicroBatcher(predict, batch_size=2, max_delay_seconds=0.0)
        first = mb.submit("fir", {"a": 0})
        assert started.wait(timeout=30)
        queued = [mb.submit("fir", {"a": i}) for i in (1, 2)]
        closer = threading.Thread(target=mb.close, kwargs={"drain": False})
        closer.start()
        gate.set()
        closer.join(timeout=30)
        assert first.result(timeout=30).valid  # in-flight work still lands
        for f in queued:
            with pytest.raises(ServeError):
                f.result(timeout=30)

    def test_predict_exception_reaches_caller_and_worker_survives(self):
        boom = [True]

        def predict(kernel, points, valid_threshold, objectives_for):
            if boom[0]:
                boom[0] = False
                raise ValueError("injected")
            return [constant_prediction() for _ in points]

        with MicroBatcher(predict, batch_size=1, max_delay_seconds=0.0) as mb:
            failed = mb.submit("fir", {"a": 0})
            with pytest.raises(ValueError, match="injected"):
                failed.result(timeout=30)
            assert mb.submit("fir", {"a": 1}).result(timeout=30).valid

    def test_rejects_bad_configuration(self):
        with pytest.raises(ServeError):
            MicroBatcher(lambda *a, **k: [], batch_size=0)
        with pytest.raises(ServeError):
            MicroBatcher(lambda *a, **k: [], batch_size=8, max_pending=4)


# ---------------------------------------------------------------------------
# pipeline thread safety (satellite: locks on EncodingCache + pipeline)


class TestPipelineThreadSafety:
    def test_hammer_bit_identical_to_serial(self, predictor):
        """8 threads × overlapping batches == the serial answers, exactly."""
        kernel = "fir"
        points = sample_points(kernel, 12, seed=5)
        serial = EvaluationPipeline(predictor, batch_size=4, engine="compiled")
        expected = serial.predict_batch(kernel, points)

        pipeline = EvaluationPipeline(predictor, batch_size=4, engine="compiled")
        results = [None] * 8
        errors = []

        def worker(idx):
            # Each thread walks the shared points from its own offset, in
            # its own batch sizes — maximum engine/cache contention.
            rng = random.Random(idx)
            try:
                mine = points[idx % 3:] + points[:idx % 3]
                out = []
                start = 0
                while start < len(mine):
                    size = rng.randint(1, 4)
                    out.extend(pipeline.predict_batch(kernel, mine[start:start + size]))
                    start += size
                results[idx] = (mine, out)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        by_key = {id(p): e for p, e in zip(points, expected)}
        for item in results:
            assert item is not None
            mine, out = item
            assert out == [by_key[id(p)] for p in mine]

    def test_encoding_cache_single_instance_under_races(self, predictor):
        pipeline = EvaluationPipeline(predictor, batch_size=2)
        got = []

        def fetch():
            got.append(pipeline.encodings.get("gesummv"))

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(e) for e in got}) == 1


# ---------------------------------------------------------------------------
# service layer


class TestPredictorService:
    def test_predict_bit_identical_to_pipeline(self, predictor):
        points = sample_points("gemm-ncubed", 4, seed=2)
        reference = EvaluationPipeline(predictor, batch_size=4, engine="compiled")
        expected = reference.predict_batch("gemm-ncubed", points)
        with PredictorService(predictor, batch_size=4) as service:
            got = service.predict("gemm-ncubed", points)
        assert got == expected

    def test_partial_points_complete_to_defaults(self, predictor):
        with PredictorService(predictor, batch_size=2) as service:
            space = service.space("fir")
            full = space.default_point()
            knob = next(iter(full))
            assert service.complete_point("fir", {knob: full[knob]}) == full
            assert service.predict("fir", [{}]) == service.predict("fir", [full])

    def test_unknown_kernel_and_knob_raise(self, predictor):
        with PredictorService(predictor, batch_size=2) as service:
            with pytest.raises(ServeError, match="unknown kernel"):
                service.predict("nope", [{}])
            with pytest.raises(DesignSpaceError, match="unknown knob"):
                service.predict("fir", [{"__NOT_A_KNOB__": 1}])
            with pytest.raises(ServeError, match="objectives_for"):
                service.predict("fir", [{}], objectives_for="sometimes")

    def test_closed_service_refuses_work(self, predictor):
        service = PredictorService(predictor, batch_size=2)
        service.close()
        with pytest.raises(ServeError):
            service.predict("fir", [{}])
        with pytest.raises(ServeError):
            service.dse_top("fir")

    def test_serving_loads_no_scipy(self):
        """scipy serves only the eager and training path: a fresh process
        that boots a service and predicts on the compiled engine never
        imports it."""
        script = textwrap.dedent("""
            import random, sys
            from repro.designspace import build_design_space
            from repro.explorer.database import Database
            from repro.graph.encoding import EDGE_DIM, NODE_DIM
            from repro.kernels import get_kernel
            from repro.model.config import BRAM_OBJECTIVE, MODEL_CONFIGS, REGRESSION_OBJECTIVES
            from repro.model.dataset import GraphDatasetBuilder
            from repro.model.models import build_model
            from repro.model.predictor import GNNDSEPredictor
            from repro.serve import PredictorService

            builder = GraphDatasetBuilder(Database())
            config = MODEL_CONFIGS["M7"]
            tasks = [config.for_task("classification"),
                     config.for_task("regression", REGRESSION_OBJECTIVES),
                     config.for_task("regression", BRAM_OBJECTIVE)]
            models = [build_model(task, NODE_DIM, EDGE_DIM, seed=s) for s, task in enumerate(tasks)]
            predictor = GNNDSEPredictor(*models, builder.normalizer, builder)
            with PredictorService(predictor, batch_size=4) as service:
                for kernel in ("stencil", "atax", "gemm-blocked"):
                    points = build_design_space(get_kernel(kernel)).sample(random.Random(0), 4)
                    assert len(service.predict(kernel, points)) == 4
                assert service.pipeline.stats.engine == "compiled"
            print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip().splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# cached requests: answered from the pipeline cache, not the batcher


class TestCachedServing:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_predict_cached_matches_batched_path(self, predictor, engine):
        points = sample_points("fir", 5, seed=21)
        pipeline = EvaluationPipeline(predictor, batch_size=4, engine=engine)
        assert pipeline.predict_cached("fir", points) is None  # cold: no answer
        for kwargs in ({}, {"valid_threshold": 0.99, "objectives_for": "valid"}):
            batched = pipeline.predict_batch("fir", points, **kwargs)
            calls = pipeline.stats.batches
            cached = pipeline.predict_cached("fir", points, **kwargs)
            assert cached == batched
            assert pipeline.stats.batches == calls  # no forward ran
        # One uncached point anywhere in the request sends it to the batcher.
        extra = sample_points("fir", 40, seed=22)
        fresh = next(p for p in extra if point_key(p) not in set(map(point_key, points)))
        assert pipeline.predict_cached("fir", points + [fresh]) is None
        assert pipeline.predict_cached("gemm-ncubed", points[:1]) is None

    def test_predict_cached_off_without_cache(self, predictor):
        points = sample_points("fir", 2, seed=21)
        pipeline = EvaluationPipeline(predictor, batch_size=4, cache=False)
        pipeline.predict_batch("fir", points)
        assert pipeline.predict_cached("fir", points) is None

    def test_predict_cached_never_blocks_on_a_busy_pipeline(self, predictor):
        points = sample_points("fir", 3, seed=23)
        pipeline = EvaluationPipeline(predictor, batch_size=4)
        pipeline.predict_batch("fir", points)
        held, release = threading.Event(), threading.Event()

        def hold():
            with pipeline._lock:
                held.set()
                release.wait(10.0)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(10.0)
            start = time.perf_counter()
            assert pipeline.predict_cached("fir", points) is None
            assert time.perf_counter() - start < 0.5
        finally:
            release.set()
            holder.join()
        assert pipeline.predict_cached("fir", points) is not None

    def test_metrics_count_cache_served_requests_apart_from_batches(self, predictor):
        points = sample_points("fir", 2, seed=24)
        with PredictorService(
            predictor, batch_size=2, max_delay_seconds=1.0
        ) as service:
            first = service.predict("fir", points)  # miss: one full batch
            second = service.predict("fir", points)  # hit: no batch
            snapshot = service.metrics_snapshot()
        assert second == first
        assert snapshot["batches"] == 1
        assert snapshot["batched_points"] == 2
        assert snapshot["mean_batch_fill"] == 2.0
        assert snapshot["cache_served_requests"] == 1
        assert snapshot["cache_served_points"] == 2

    def test_cached_valid_request_of_rejected_points_skips_the_batcher(self, predictor):
        """A "valid" request needs no regression record for a point the
        classifier rejected, so once classified it is answered from the
        cache instead of waiting on the micro-batcher."""
        points = sample_points("atax", 4, seed=5)
        kwargs = {"valid_threshold": 0.999, "objectives_for": "valid"}
        with PredictorService(predictor, batch_size=4) as service:
            first = service.predict("atax", points, **kwargs)
            assert all(p.objectives is None for p in first)  # every point rejected
            batches = service.metrics_snapshot()["batches"]
            assert service.pipeline.predict_cached("atax", points, **kwargs) == first
            assert service.predict("atax", points, **kwargs) == first
            snapshot = service.metrics_snapshot()
        assert snapshot["batches"] == batches
        assert snapshot["cache_served_requests"] == 1

    @pytest.mark.parametrize("kwargs", [{}, {"valid_threshold": 0.99, "objectives_for": "valid"}])
    def test_cached_request_keys_each_point_once(self, predictor, monkeypatch, kwargs):
        """One key and one materialisation per point: no second pass
        through predict_batch, and the stats move as predict_batch's do."""
        import repro.dse.pipeline as pipeline_module

        points = sample_points("fir", 4, seed=27)
        batched = EvaluationPipeline(predictor, batch_size=4)
        cached = EvaluationPipeline(predictor, batch_size=4)
        batched.predict_batch("fir", points, **kwargs)
        cached.predict_batch("fir", points, **kwargs)
        expected = batched.predict_batch("fir", points, **kwargs)
        keyed = []
        real_point_key = pipeline_module.point_key
        monkeypatch.setattr(
            pipeline_module, "point_key", lambda p: keyed.append(p) or real_point_key(p)
        )

        def second_pass(*args, **kw):
            raise AssertionError("predict_cached re-entered predict_batch")

        monkeypatch.setattr(cached, "predict_batch", second_pass)
        assert cached.predict_cached("fir", points, **kwargs) == expected
        assert len(keyed) == len(points)
        timed = ("wall_seconds", "encode_seconds", "inference_seconds",
                 "materialize_seconds", "points_per_second")
        got, want = cached.stats.to_dict(), batched.stats.to_dict()
        for name in timed:
            del got[name], want[name]
        assert got == want

    def test_cache_path_follows_a_hot_swap(self, predictor):
        """A point cached on v1 is recomputed by v2 and stamped with v2."""
        points = sample_points("fir", 2, seed=25)
        v1 = {"version": "v1", "sha256": "a" * 64}
        v2 = {"version": "v2", "sha256": "b" * 64}
        successor = make_predictor(seed=1)
        expected_v1 = EvaluationPipeline(predictor, batch_size=2).predict_batch(
            "fir", points
        )
        expected_v2 = EvaluationPipeline(successor, batch_size=2).predict_batch(
            "fir", points
        )
        assert expected_v1 != expected_v2
        with PredictorService(predictor, batch_size=2, model_info=v1) as service:
            service.predict("fir", points)
            got, info = service.predict_versioned("fir", points)  # v1 cache hit
            assert (got, info["sha256"]) == (expected_v1, v1["sha256"])
            assert service.metrics.snapshot()["cache_served_requests"] == 1
            service.swap(successor, v2)
            assert service.pipeline.predict_cached("fir", points) is None
            got, info = service.predict_versioned("fir", points)  # v2 computes
            assert (got, info["sha256"]) == (expected_v2, v2["sha256"])
            assert service.metrics.snapshot()["cache_served_requests"] == 1
            got, info = service.predict_versioned("fir", points)  # v2 cache hit
            assert (got, info["sha256"]) == (expected_v2, v2["sha256"])
            assert service.metrics.snapshot()["cache_served_requests"] == 2

    def test_persistent_connection_round_trips_skip_the_nagle_stall(self, predictor):
        """Cached requests on one keep-alive connection answer in ~1 ms.

        Headers and body written separately with Nagle on made every
        round trip wait for the client's delayed ACK (~40 ms).
        """
        import http.client

        from repro.serve.schemas import point_payload

        points = [point_payload(p) for p in sample_points("fir", 4, seed=26)]
        body = json.dumps({"kernel": "fir", "points": points}).encode()
        service = PredictorService(predictor, batch_size=4)
        server = start_server(service)
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            round_trips = []
            for _ in range(20):
                start = time.perf_counter()
                connection.request(
                    "POST", "/v1/predict", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                round_trips.append(time.perf_counter() - start)
                assert response.status == 200, payload
            assert service.metrics.snapshot()["cache_served_requests"] == 19
        finally:
            connection.close()
            server.stop()
        median_ms = 1000.0 * sorted(round_trips[1:])[len(round_trips[1:]) // 2]
        assert median_ms < 20.0, f"median cached round trip {median_ms:.1f} ms"


# ---------------------------------------------------------------------------
# HTTP API


@pytest.fixture(scope="module")
def server(predictor):
    service = PredictorService(predictor, batch_size=4, max_delay_seconds=0.002)
    http = start_server(service)
    yield http
    http.stop()


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.url)


def _read_response(reply):
    """Status, lower-cased headers and JSON body of one HTTP response."""
    status = int(reply.readline().split()[1])
    headers = {}
    while True:
        line = reply.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reply.read(int(headers.get("content-length", 0)))
    return status, headers, json.loads(body) if headers.get("content-type") == "application/json" else body


def _exchange(server, data: bytes):
    """Send raw request bytes on a fresh connection; read one response.

    Requests the server rejects end right where it stops reading, so no
    unread bytes turn its close into a reset that loses the reply.
    """
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(data)
        return _read_response(sock.makefile("rb"))


class TestHTTPServer:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert "fir" in health["kernels"]

    def test_predictions_bit_identical_over_http(self, client, server, predictor):
        """The acceptance contract: wire == in-process, float for float."""
        points = sample_points("spmv-ellpack", 6, seed=9)
        reference = EvaluationPipeline(predictor, batch_size=4, engine="compiled")
        expected = reference.predict_batch("spmv-ellpack", points)
        got = client.predict("spmv-ellpack", points)
        assert got == expected
        # And through the single-point endpoint shape too.
        assert client.predict_one("spmv-ellpack", points[0]) == expected[0]

    def test_threshold_and_cascade_forwarded(self, client, server, predictor):
        points = sample_points("fir", 3, seed=4)
        reference = EvaluationPipeline(predictor, batch_size=4, engine="compiled")
        expected = reference.predict_batch(
            "fir", points, valid_threshold=0.99, objectives_for="valid"
        )
        got = client.predict(
            "fir", points, valid_threshold=0.99, objectives_for="valid"
        )
        assert got == expected

    def test_unknown_kernel_is_404(self, client):
        with pytest.raises(ServeClientError) as info:
            client.predict("nope", [{}])
        assert info.value.status == 404
        assert info.value.error_type == "unknown_kernel"

    def test_bad_knob_is_400(self, client):
        with pytest.raises(ServeClientError) as info:
            client.predict("fir", [{"__NOT_A_KNOB__": 2}])
        assert info.value.status == 400
        assert info.value.error_type == "invalid_design_point"

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/predict",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        assert json.loads(info.value.read())["error"]["type"] == "bad_json"

    def test_point_and_points_are_exclusive(self, server):
        body = json.dumps(
            {"kernel": "fir", "point": {}, "points": [{}]}
        ).encode()
        request = urllib.request.Request(
            server.url + "/v1/predict", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_expect_100_continue_is_sent_before_the_body(self, server):
        """The buffered response writer must not hold back the interim
        100 Continue a client waits for before sending its body."""
        host, port = server.server_address[:2]
        body = json.dumps({"kernel": "fir", "point": {}}).encode()
        head = (
            "POST /v1/predict HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nExpect: 100-continue\r\n\r\n"
        ).encode()
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(head)
            reply = sock.makefile("rb")
            assert reply.readline().startswith(b"HTTP/1.1 100")
            assert reply.readline() == b"\r\n"
            sock.sendall(body)
            assert reply.readline().startswith(b"HTTP/1.1 200")

    def test_header_names_match_case_insensitively(self, server, predictor):
        body = json.dumps({"kernel": "fir", "point": {}}).encode()
        status, _, reply = _exchange(server, (
            "POST /v1/predict HTTP/1.1\r\nhOsT: test\r\n"
            f"content-TYPE: application/json\r\nCONTENT-LENGTH: {len(body)}\r\n\r\n"
        ).encode() + body)
        point = build_design_space(get_kernel("fir")).default_point()
        expected = EvaluationPipeline(predictor, batch_size=4).predict_batch("fir", [point])
        assert status == 200
        assert [prediction_from_payload(p) for p in reply["predictions"]] == expected

    def test_header_limits_answer_431(self, server):
        line = b"X-Long: " + b"a" * (65537 - len(b"X-Long: "))  # one byte past the limit
        status, _, _ = _exchange(server, b"GET /healthz HTTP/1.1\r\n" + line)
        assert status == 431
        many = "".join(f"X-H{i}: v\r\n" for i in range(100))
        status, _, _ = _exchange(server, f"GET /healthz HTTP/1.1\r\n{many}\r\n".encode())
        assert status == 200  # 100 headers is the limit, not past it
        status, _, _ = _exchange(
            server, f"GET /healthz HTTP/1.1\r\n{many}X-H100: v\r\n".encode()
        )
        assert status == 431

    @pytest.mark.parametrize("head", [
        "GET /healthz HTTP/1.1\r\nX-Folded: a\r\n b\r\n",  # obs-fold
        "GET /healthz HTTP/1.1\r\nno colon here\r\n",
        "GET /healthz HTTP/1.1\r\nX-Space : a\r\n",
    ])
    def test_malformed_header_lines_are_400(self, server, head):
        status, _, _ = _exchange(server, head.encode())
        assert status == 400

    @pytest.mark.parametrize("line,status", [
        ("GET /healthz HTTP/2.0", 505),
        ("GET /healthz HTTP/1.1.1", 400),
        ("GET /healthz FTP/1.1", 400),
        ("POST /healthz", 400),  # HTTP/0.9 knows only GET
        ("GET /healthz HTTP/1.1 extra", 400),
    ])
    def test_bad_request_lines_keep_the_stdlib_answers(self, server, line, status):
        # Before the version is known the stdlib answers HTTP/0.9 style,
        # a bare error page, so read to the close and look for the code.
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(f"{line}\r\n".encode())
            reply = sock.makefile("rb").read()
        assert f"Error code: {status}".encode() in reply

    def test_connection_close_closes_the_socket(self, server):
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            reply = sock.makefile("rb")
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert _read_response(reply)[0] == 200  # keep-alive: still open
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            assert _read_response(reply)[0] == 200
            assert reply.read(1) == b""  # the server closed the connection

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeClientError) as info:
            client._request("GET", "/nope")
        assert info.value.status == 404

    def test_metrics_counts_and_fill(self, client):
        client.predict("fir", sample_points("fir", 2, seed=1))
        metrics = client.metrics()
        assert metrics["requests"]["/v1/predict"] >= 1
        assert metrics["batches"] >= 1
        assert metrics["mean_batch_fill"] >= 1.0
        assert "p50_ms" in metrics["latency"]["/v1/predict"]
        assert metrics["pipeline"]["points"] >= 2
        histogram = metrics["batch_fill_histogram"]
        assert sum(histogram.values()) == metrics["batches"]

    def test_metrics_include_process_observability(self, client):
        client.predict("fir", sample_points("fir", 2, seed=2))
        obs_section = client.metrics()["obs"]
        # The pipeline's process-wide instruments ride along with the
        # per-server request stats.
        assert obs_section["counters"]["pipeline.points"] >= 2
        assert obs_section["histograms"]["pipeline.batch_fill"]["count"] >= 1

    def test_trace_endpoint_serves_schema_valid_trace(self, client, server):
        from repro import obs
        from repro.obs import validate_trace

        payload = client._request("GET", "/v1/trace")
        assert payload["enabled"] is False
        assert payload["spans"] == []
        obs.enable()
        try:
            client.predict("fir", sample_points("fir", 1, seed=3))
            traced = client._request("GET", "/v1/trace")
        finally:
            obs.disable()
            obs.reset()
        assert traced["enabled"] is True
        validate_trace({k: v for k, v in traced.items() if k != "enabled"})
        by_name = {}
        for entry in traced["spans"]:
            by_name.setdefault(entry["name"], []).append(entry)
        requests = by_name["serve.request"]
        assert any(s["attrs"].get("endpoint") == "/v1/predict" for s in requests)
        assert all(s["attrs"].get("status") == 200 for s in requests)
        # Pipeline work nests under the request that triggered it... on
        # the batcher thread it roots itself instead; either way the
        # batch spans are present.
        assert "pipeline.predict_batch" in by_name

    def test_dse_top_payload_schema(self, client):
        payload = client.dse_top("fir", top=3, time_limit=3.0)
        assert payload["schema_version"] == 2
        assert payload["kernel"] == "fir"
        assert payload["explored"] >= len(payload["top"]) >= 1
        ranks = [entry["rank"] for entry in payload["top"]]
        assert ranks == list(range(1, len(ranks) + 1))
        best = payload["top"][0]
        assert set(best) == {"rank", "point", "prediction"}
        assert best["prediction"]["valid"] in (True, False)

    def test_stopped_server_refuses_connections(self, predictor):
        service = PredictorService(predictor, batch_size=2)
        http = start_server(service)
        url = http.url
        http.stop()
        with pytest.raises(ServeError):
            ServeClient(url, timeout=2).healthz()


# ---------------------------------------------------------------------------
# acceptance load test: micro-batching vs batch-size-1 serving


@pytest.mark.slow
class TestMicroBatchingThroughput:
    """8 concurrent clients, fixed per-dispatch latency on the backend.

    Every inference dispatch pays a fixed overhead before the per-point
    compute (on real deployments: accelerator/RPC dispatch; here a
    deterministic ``sleep`` so the test is hardware-independent).
    Micro-batching amortizes that fixed cost across the whole batch —
    batch-size-1 serving pays it per request — so coalescing must win
    by well over 2x while returning bit-identical predictions.
    """

    DISPATCH_SECONDS = 0.2
    CLIENTS = 8
    REQUESTS_PER_CLIENT = 8
    WARM_SEED = 99

    def _distinct_points(self, count, seed):
        """``count`` distinct fir points, none of them a warm-up point.

        A repeated point is answered from the prediction cache without
        a dispatch, so every measured request must be a cache miss for
        the dispatch counts to measure amortization.
        """
        warm = {point_key(p) for p in sample_points("fir", 8, seed=self.WARM_SEED)}
        chosen = {}
        for point in sample_points("fir", 2000, seed=seed):
            key = point_key(point)
            if key not in warm:
                chosen.setdefault(key, point)
            if len(chosen) == count:
                return list(chosen.values())
        raise AssertionError(f"fir has fewer than {count} distinct cold points")

    def _serve_throughput(self, predictor, batch_size, max_delay_seconds, points):
        service = PredictorService(
            predictor, batch_size=batch_size, max_delay_seconds=max_delay_seconds
        )
        pipeline = service.pipeline

        dispatches = [0]

        def dispatch(kernel, batch, valid_threshold, objectives_for):
            dispatches[0] += 1
            time.sleep(self.DISPATCH_SECONDS)
            return pipeline.predict_batch(
                kernel, batch,
                valid_threshold=valid_threshold, objectives_for=objectives_for,
            )

        service.batcher.close()
        service.batcher = MicroBatcher(
            dispatch, batch_size=batch_size,
            max_delay_seconds=max_delay_seconds, metrics=service.metrics,
        )
        server = start_server(service)
        client = ServeClient(server.url)
        # Warm up outside the timed window: compile the engines and grow
        # their buffers to every chunk size a flush can produce (cache
        # stays cold — the warm-up points are disjoint from the measured
        # ones).
        warm = sample_points("fir", batch_size, seed=self.WARM_SEED)
        for size in range(1, batch_size + 1):
            pipeline.predict_batch("fir", warm[:size])
        client.predict("fir", points[-2:])
        dispatches[0] = 0  # count backend dispatches in the measured window only

        errors = []
        results = {}

        def worker(idx):
            mine = points[idx * self.REQUESTS_PER_CLIENT:
                          (idx + 1) * self.REQUESTS_PER_CLIENT]
            try:
                results[idx] = [client.predict_one("fir", p) for p in mine]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(self.CLIENTS)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        fill = service.metrics.mean_batch_fill()
        server.stop()
        assert not errors
        total = self.CLIENTS * self.REQUESTS_PER_CLIENT
        flat = [p for i in range(self.CLIENTS) for p in results[i]]
        return total / elapsed, fill, flat, dispatches[0]

    def test_micro_batching_at_least_2x_batch_size_1(self):
        previous = np.dtype(np.float64)
        set_default_dtype(np.float32)  # the serving-default dtype
        try:
            predictor = make_predictor()
            points = self._distinct_points(
                self.CLIENTS * self.REQUESTS_PER_CLIENT + 2, seed=13
            )
            reference = EvaluationPipeline(predictor, batch_size=8, engine="compiled")
            expected = reference.predict_batch("fir", points[:-2])

            # Judged on backend dispatch counts, not wall clock: every
            # dispatch pays the same fixed modelled cost, so "2x
            # throughput" is exactly "half the dispatches", and counts
            # stay deterministic on arbitrarily slow shared runners
            # (wall clock is still measured and printed for context).
            # A thread-scheduling fluke could leave one run barely
            # coalesced, so the pair is re-measured a few times and the
            # best attempt judged.  Bit-identity is asserted on every
            # attempt — it may never flake.
            for attempt in range(3):
                single_rps, single_fill, single_out, single_n = self._serve_throughput(
                    predictor, batch_size=1, max_delay_seconds=0.0, points=points
                )
                batched_rps, batched_fill, batched_out, batched_n = (
                    self._serve_throughput(
                        predictor, batch_size=8, max_delay_seconds=0.1, points=points
                    )
                )
                assert single_out == expected
                assert batched_out == expected
                if 2 * batched_n <= single_n:
                    break
        finally:
            set_default_dtype(previous)

        print(
            f"\nserve load test: batch-size-1 {single_rps:.1f} req/s "
            f"({single_n} dispatches), micro-batched {batched_rps:.1f} req/s "
            f"({batched_n} dispatches, fill {batched_fill:.2f}, "
            f"{self.CLIENTS} clients, attempt {attempt + 1})"
        )
        # Coalescing never changes values — even under full concurrency.
        assert single_fill == 1.0
        assert batched_fill > 1.0
        # Batch-size-1 serving pays the fixed cost once per request …
        assert single_n == self.CLIENTS * self.REQUESTS_PER_CLIENT
        # … micro-batching amortizes it at least 2x better.
        assert 2 * batched_n <= single_n, (
            f"micro-batching used {batched_n} dispatches vs batch-size-1's "
            f"{single_n} (fill {batched_fill:.2f}) — amortization under 2x"
        )


# ---------------------------------------------------------------------------
# model identity + zero-downtime hot swap


class TestModelIdentity:
    def test_model_endpoint_and_response_stamp(self, predictor):
        info = {"version": "v0007", "sha256": "cafe" * 16, "path": "reg/versions/v0007"}
        service = PredictorService(predictor, batch_size=4, model_info=info)
        http = start_server(service)
        try:
            client = ServeClient(http.url)
            model = client.model()
            assert model["model"]["version"] == "v0007"
            assert model["model"]["sha256"] == info["sha256"]
            assert model["swaps"] == 0
            predictions, stamped = client.predict_with_model(
                "fir", sample_points("fir", 2, seed=5)
            )
            assert len(predictions) == 2
            assert stamped["sha256"] == info["sha256"]
            assert client.healthz()["model"]["version"] == "v0007"
            top = client.dse_top("fir", top=2, time_limit=5.0)
            assert top["model"]["sha256"] == info["sha256"]
        finally:
            http.stop()

    def test_anonymous_service_reports_null_identity(self, predictor):
        with PredictorService(predictor, batch_size=2) as service:
            assert service.model_info == {"version": None, "sha256": None, "path": None}

    def test_reload_without_registry_is_a_client_error(self, predictor):
        service = PredictorService(predictor, batch_size=2)
        http = start_server(service)
        try:
            client = ServeClient(http.url)
            with pytest.raises(ServeClientError) as err:
                client.reload_model()
            assert err.value.status == 400
            assert "registry" in str(err.value)
        finally:
            http.stop()


class TestHotSwap:
    """The acceptance contract: a hot swap under concurrent load drops
    nothing, and every response is bit-identical to a fresh offline
    prediction from the artifact version its reported hash names."""

    def test_swap_under_load_zero_drops_bit_identical(self, tmp_path):
        from repro.serve import ModelRegistry
        from repro.serve.registry import load_artifact

        registry = ModelRegistry(tmp_path / "reg")
        v1 = registry.publish(make_predictor(seed=0), created=1.0)
        points = sample_points("fir", 10, seed=3)

        service = PredictorService(
            load_artifact(v1.path),
            batch_size=4,
            max_delay_seconds=0.001,
            engine="compiled",
            model_info=v1.payload(),
            registry=registry,
        )
        http = start_server(service)
        client = ServeClient(http.url)

        threads_n = 8
        results, errors = [], []
        done = threading.Event()
        lock = threading.Lock()

        def count(sha):
            with lock:
                return sum(1 for _, _, got in results if got == sha)

        def worker(worker_index):
            i = 0
            # Keep traffic flowing until the main thread has seen enough
            # responses from BOTH versions (so the load provably spans
            # the swap), then drain.
            while not done.is_set():
                point_index = (worker_index + i) % len(points)
                i += 1
                try:
                    predictions, info = client.predict_with_model(
                        "fir", [points[point_index]]
                    )
                    with lock:
                        results.append((point_index, predictions[0], info["sha256"]))
                except Exception as exc:  # noqa: BLE001 - the assertion
                    with lock:
                        errors.append(repr(exc))
                    return

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(threads_n)
        ]
        try:
            for thread in threads:
                thread.start()
            # Let a chunk of traffic land on v1, then swap mid-stream.
            while count(v1.sha256) < 100 and not errors:
                time.sleep(0.001)
            v2 = registry.publish(make_predictor(seed=1), created=2.0)
            info, swapped = service.reload()
            assert swapped and info["sha256"] == v2.sha256
            while count(v2.sha256) < 100 and not errors:
                time.sleep(0.001)
            done.set()
            for thread in threads:
                thread.join()
        finally:
            done.set()
            http.stop()

        # Zero dropped / error responses across the swap.
        assert errors == []
        assert len(results) >= 200
        seen_shas = {sha for _, _, sha in results}
        assert seen_shas == {v1.sha256, v2.sha256}, "load must span the swap"

        # Bit-identity: group responses by reported hash and compare to a
        # fresh offline prediction from that exact artifact version.
        by_sha = {v.sha256: v for v in registry.versions()}
        for sha in seen_shas:
            offline = EvaluationPipeline(
                load_artifact(by_sha[sha].path), batch_size=4, engine="compiled"
            )
            expected = offline.predict_batch("fir", points)
            for point_index, prediction, got_sha in results:
                if got_sha == sha:
                    assert prediction == expected[point_index]

    def test_swap_drains_old_generation(self, predictor):
        """In-flight requests finish on the generation they entered."""
        service = PredictorService(
            predictor, batch_size=2, model_info={"version": "v1", "sha256": "a"}
        )
        try:
            points = sample_points("fir", 4, seed=11)
            results = {}

            def requester():
                results["predictions"], results["info"] = service.predict_versioned(
                    "fir", points
                )

            thread = threading.Thread(target=requester)
            thread.start()
            service.swap(make_predictor(seed=1), {"version": "v2", "sha256": "b"})
            thread.join()
            # The in-flight request reports whichever generation it
            # entered — never a mix — and the service now serves v2.
            assert results["info"]["version"] in ("v1", "v2")
            assert service.model_info["version"] == "v2"
            assert service.swaps == 1
            predictions, info = service.predict_versioned("fir", points)
            assert info["version"] == "v2"
        finally:
            service.close()

    def test_swap_on_closed_service_raises(self, predictor):
        service = PredictorService(predictor, batch_size=2)
        service.close()
        with pytest.raises(ServeError):
            service.swap(predictor)


# ---------------------------------------------------------------------------
# deadline-aware scheduling (fake monotonic clock, zero wall-clock sleeps)


class FakeClock:
    """Injectable monotonic clock the tests advance by hand."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds
        return self.now


def make_scheduler(clock, **kwargs):
    """A MicroBatcher with no worker thread: tests drive the scheduling
    core (`_select_locked`) synchronously against the fake clock."""
    kwargs.setdefault("batch_size", 4)
    kwargs.setdefault("max_delay_seconds", 0.05)
    return MicroBatcher(
        lambda *a, **k: [], clock=clock, start_worker=False, **kwargs
    )


def select(mb):
    with mb._cond:
        return mb._select_locked(mb._clock())


class TestMicroBatcherDeadlines:
    def test_admission_rejects_already_expired(self):
        clock = FakeClock(now=10.0)
        metrics = ServeMetrics()
        mb = make_scheduler(clock, metrics=metrics)
        with pytest.raises(DeadlineExceededError) as info:
            mb.submit("fir", {"a": 0}, deadline=9.5)
        assert info.value.retry_after_seconds > 0
        assert metrics.snapshot()["expired_requests"] == 1
        # At exactly the deadline the request is still admissible.
        future = mb.submit("fir", {"a": 0}, deadline=10.0)
        assert not future.done()
        assert mb.pending() == 1

    def test_queued_request_expires_instead_of_dispatching(self):
        clock = FakeClock()
        mb = make_scheduler(clock, batch_size=4, max_delay_seconds=10.0)
        doomed = mb.submit("fir", {"a": 0}, deadline=1.0)
        group, expired, wait = select(mb)
        assert group is None and expired == []
        # The group must flush no later than its tightest deadline.
        assert wait == pytest.approx(1.0)
        clock.advance(1.5)
        group, expired, wait = select(mb)
        assert group is None
        assert [r.future for r in expired] == [doomed]
        assert mb.pending() == 0

    def test_flush_at_is_min_of_delay_and_member_deadlines(self):
        clock = FakeClock()
        mb = make_scheduler(clock, batch_size=8, max_delay_seconds=10.0)
        mb.submit("fir", {"a": 0})  # no deadline
        clock.advance(0.5)
        mb.submit("fir", {"a": 1}, deadline=2.0)
        group, expired, wait = select(mb)
        assert group is None
        # Head enqueued at 0 with 10s delay; member deadline 2.0 wins.
        assert wait == pytest.approx(1.5)
        clock.advance(1.5)
        group, expired, _ = select(mb)
        assert expired == []
        assert group is not None and len(group) == 2

    def test_groups_flush_in_arrival_order_by_head_key(self):
        clock = FakeClock()
        mb = make_scheduler(clock, batch_size=8, max_delay_seconds=0.01)
        mb.submit("fir", {"a": 0})
        mb.submit("aes", {"a": 1})
        mb.submit("fir", {"a": 2})
        clock.advance(1.0)  # everything past its flush deadline
        first, _, _ = select(mb)
        second, _, _ = select(mb)
        assert [r.key[0] for r in first] == ["fir", "fir"]
        assert [r.key[0] for r in second] == ["aes"]
        assert mb.pending() == 0

    def test_queue_full_sheds_with_retry_after(self):
        clock = FakeClock()
        metrics = ServeMetrics()
        mb = make_scheduler(clock, batch_size=2, max_pending=3, metrics=metrics)
        for i in range(3):
            mb.submit("fir", {"a": i})
        with pytest.raises(BacklogFullError) as info:
            mb.submit("fir", {"a": 99})
        assert info.value.retry_after_seconds > 0
        assert metrics.snapshot()["rejected_requests"] == 1

    def test_randomized_schedule_accounts_for_every_request(self):
        """Property: under a random arrival/deadline schedule, every
        admitted request is either dispatched while its deadline still
        holds or expired strictly after it passed — never both, never
        lost, never in an oversized or mixed-kernel group."""
        rng = random.Random(20240808)
        clock = FakeClock()
        mb = make_scheduler(
            clock, batch_size=4, max_delay_seconds=0.05, max_pending=16
        )
        dispatched, expired_ids, admitted = {}, set(), {}
        requests = []  # strong refs so id() keys stay unique
        shed = 0

        def drain():
            nonlocal shed
            while True:
                group, expired, wait = select(mb)
                for request in expired:
                    assert clock.now > request.deadline
                    assert id(request) not in dispatched
                    expired_ids.add(id(request))
                if group is not None:
                    assert len(group) <= mb.batch_size
                    assert len({r.key for r in group}) == 1
                    for request in group:
                        assert request.deadline is None or (
                            clock.now <= request.deadline
                        ) or (
                            # Admitted into a group whose flush the
                            # member's own deadline bounded.
                            request.deadline >= clock.now - mb.max_delay_seconds
                        )
                        assert id(request) not in expired_ids
                        dispatched[id(request)] = clock.now
                if group is None and not expired:
                    return wait

        for _ in range(300):
            clock.advance(rng.uniform(0.0, 0.04))
            kernel = rng.choice(["fir", "aes"])
            deadline = (
                clock.now + rng.uniform(0.005, 0.2)
                if rng.random() < 0.7 else None
            )
            try:
                future = mb.submit(kernel, {"a": rng.random()}, deadline=deadline)
            except BacklogFullError:
                shed += 1
                continue
            requests.append(mb._queue[-1])
            admitted[id(requests[-1])] = future
            if rng.random() < 0.5:
                drain()
        clock.advance(10.0)  # past every deadline and flush timer
        while mb.pending():
            drain()
        accounted = set(dispatched) | expired_ids
        assert accounted == set(admitted)
        assert not (set(dispatched) & expired_ids)
        assert len(admitted) + shed == 300

    def test_worker_thread_fails_expired_future(self):
        """Integration (real clock): a request whose deadline passes
        while the worker is busy fails with DeadlineExceededError and
        its batch is never computed."""
        computed = []
        release = threading.Event()

        def predict(kernel, points, valid_threshold, objectives_for):
            computed.append([p["a"] for p in points])
            release.wait(timeout=30)
            return [constant_prediction() for _ in points]

        mb = MicroBatcher(predict, batch_size=1, max_delay_seconds=0.0)
        try:
            first = mb.submit("fir", {"a": 0})
            doomed = mb.submit(
                "fir", {"a": 1}, deadline=time.monotonic() + 0.01
            )
            time.sleep(0.05)  # deadline passes while the worker is busy
            release.set()
            assert first.result(timeout=30).valid_prob == 0.75
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30)
            assert [0] in computed and [1] not in computed
        finally:
            mb.close()

    def test_service_deadline_maps_to_http_429_with_retry_after(self, predictor):
        """End to end: a queued-past-deadline request comes back 429
        with an integer Retry-After header, never a 5xx."""
        service = PredictorService(
            predictor, batch_size=1, max_delay_seconds=0.0,
            dispatch_overhead_seconds=0.25,
        )
        server = start_server(service)
        try:
            point = sample_points("fir", 1, seed=21)[0]
            body = json.dumps(
                {"kernel": "fir", "point": {k: point[k] for k in point},
                 "deadline_ms": 30.0}
            ).encode()

            def post():
                request = urllib.request.Request(
                    server.url + "/v1/predict", data=body, method="POST",
                    headers={"Content-Type": "application/json"},
                )
                return urllib.request.urlopen(request, timeout=30)

            statuses, retry_afters = [], []
            results = []

            def fire():
                try:
                    with post() as response:
                        results.append((response.status, None))
                except urllib.error.HTTPError as exc:
                    results.append((exc.code, exc.headers.get("Retry-After")))

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            statuses = [status for status, _ in results]
            retry_afters = [ra for status, ra in results if status == 429]
            assert all(status in (200, 429) for status in statuses)
            assert 429 in statuses  # 0.25s/batch serial: most must shed
            assert all(
                ra is not None and float(ra) >= 1 for ra in retry_afters
            )
            payload = service.metrics_snapshot()
            assert payload["expired_requests"] >= 1
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# client timeouts and bounded retry


class _FlakyHandler(BaseHTTPRequestHandler):
    """Scripted failures: each entry of ``script`` consumes one request."""

    protocol_version = "HTTP/1.1"
    script = []

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_GET(self):
        action = self.script.pop(0) if self.script else "ok"
        if action == "drop":
            self.connection.close()  # mid-response connection drop
            return
        if action == "shed":
            body = json.dumps(
                {"error": {"type": "backlog_full", "message": "shed"}}
            ).encode()
            self.send_response(429)
            self.send_header("Retry-After", "1")
        else:
            body = json.dumps({"status": "ok"}).encode()
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@contextmanager
def flaky_server(script):
    _FlakyHandler.script = list(script)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


@contextmanager
def stalled_server():
    """Accept connections but never answer (read-timeout trap)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    try:
        host, port = listener.getsockname()
        yield f"http://{host}:{port}"
    finally:
        listener.close()


class TestServeClientTimeouts:
    def test_read_timeout_against_stalled_handler(self):
        with stalled_server() as url:
            client = ServeClient(url, connect_timeout=5.0, read_timeout=0.2)
            start = time.monotonic()
            with pytest.raises(ServeError, match="timed out"):
                client.healthz()
            assert time.monotonic() - start < 3.0

    def test_bounded_retries_then_give_up(self):
        with stalled_server() as url:
            client = ServeClient(
                url, connect_timeout=5.0, read_timeout=0.1,
                retries=2, backoff_seconds=0.01,
            )
            start = time.monotonic()
            with pytest.raises(ServeError, match="timed out"):
                client.healthz()
            elapsed = time.monotonic() - start
            # Three attempts' worth of read timeouts, not unbounded.
            assert 0.3 <= elapsed < 3.0

    def test_retry_recovers_from_connection_drop(self):
        with flaky_server(["drop"]) as url:
            strict = ServeClient(url, timeout=5.0)
            with pytest.raises(ServeError):
                strict.healthz()
        with flaky_server(["drop"]) as url:
            client = ServeClient(
                url, timeout=5.0, retries=2, backoff_seconds=0.01
            )
            assert client.healthz() == {"status": "ok"}

    def test_retry_honors_429_retry_after(self):
        with flaky_server(["shed"]) as url:
            strict = ServeClient(url, timeout=5.0)
            with pytest.raises(ServeClientError) as info:
                strict.healthz()
            assert info.value.status == 429
            assert info.value.retry_after_seconds == 1.0
        with flaky_server(["shed"]) as url:
            client = ServeClient(
                url, timeout=5.0, retries=1,
                backoff_seconds=0.01, backoff_cap_seconds=0.05,
            )
            assert client.healthz() == {"status": "ok"}

    def test_negative_retries_rejected(self):
        with pytest.raises(ServeError):
            ServeClient("http://127.0.0.1:1", retries=-1)


# ---------------------------------------------------------------------------
# device-aware serving


def _raw_post(url, path, body):
    """POST a JSON body, returning (status, decoded payload)."""
    request = urllib.request.Request(
        url + path, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestDeviceServing:
    def test_predict_stamps_resolved_device(self, server):
        status, payload = _raw_post(
            server.url, "/v1/predict",
            {"kernel": "fir", "points": [{}], "device": "xcu50"},
        )
        assert status == 200
        assert payload["device"] == "xcu50"
        assert len(payload["predictions"]) == 1

    def test_predict_defaults_to_reference_device(self, server):
        status, payload = _raw_post(
            server.url, "/v1/predict", {"kernel": "fir", "points": [{}]},
        )
        assert status == 200
        assert payload["device"] == "xcvu9p"

    def test_unknown_device_is_400_unknown_device(self, server):
        for path, body in [
            ("/v1/predict", {"kernel": "fir", "points": [{}], "device": "nope"}),
            ("/v1/dse/top", {"kernel": "fir", "top": 2, "time_limit": 2,
                             "device": "nope"}),
        ]:
            status, payload = _raw_post(server.url, path, body)
            assert status == 400, path
            assert payload["error"]["type"] == "unknown_device", path
            assert "known devices" in payload["error"]["message"], path

    def test_non_string_device_is_400(self, server):
        status, payload = _raw_post(
            server.url, "/v1/predict",
            {"kernel": "fir", "points": [{}], "device": 7},
        )
        assert status == 400

    def test_cgra_predict_rejected(self, server):
        # The surrogate serves FPGA targets; CGRA search is analytic.
        status, payload = _raw_post(
            server.url, "/v1/predict",
            {"kernel": "fir", "points": [{}], "device": "cgra4x4"},
        )
        assert status == 400
        assert "cgra" in payload["error"]["message"]

    def test_dse_top_carries_device(self, server):
        status, payload = _raw_post(
            server.url, "/v1/dse/top",
            {"kernel": "fir", "top": 2, "time_limit": 3, "device": "xczu9eg"},
        )
        assert status == 200
        assert payload["schema_version"] == 2
        assert payload["device"] == "xczu9eg"
        assert payload["top"]

    def test_dse_top_default_device_stamped(self, client):
        payload = client.dse_top("fir", top=2, time_limit=2.0)
        assert payload["device"] == "xcvu9p"

    def test_device_dse_requires_serial_beam(self, server):
        status, payload = _raw_post(
            server.url, "/v1/dse/top",
            {"kernel": "fir", "top": 2, "time_limit": 2,
             "device": "xczu9eg", "workers": 2},
        )
        assert status == 400

    def test_service_level_unknown_device(self, predictor):
        service = PredictorService(predictor, batch_size=2)
        try:
            with pytest.raises(ServeError, match="unknown device"):
                service.predict("fir", [{}], device="nope")
        finally:
            service.close()

    def test_dse_top_on_cgra_uses_analytic_search(self, server):
        status, payload = _raw_post(
            server.url, "/v1/dse/top",
            {"kernel": "fir", "top": 2, "time_limit": 5, "device": "cgra4x4"},
        )
        assert status == 200
        assert payload["device"] == "cgra4x4"
        assert payload["top"]
        best = payload["top"][0]["prediction"]
        assert best["objectives"] is None or "PE" in best["objectives"]

    def test_device_pipelines_follow_the_one_binding_rule(self, predictor):
        service = PredictorService(predictor, batch_size=3, engine="reference", cache=False)
        try:
            pipeline_for = service._gen.pipeline_for
            assert pipeline_for("") is service.pipeline
            assert pipeline_for("xcvu9p") is service.pipeline  # reference device
            bound = pipeline_for("xczu9eg")
            assert pipeline_for("xczu9eg") is bound
            assert bound.predictor.device.name == "xczu9eg"
            assert (bound.batch_size, bound.engine_mode, bound.cache_enabled) == (
                3, "reference", False,
            )
        finally:
            service.close()

    def test_device_needs_a_rebindable_predictor(self):
        from repro.dse import AnalyticPredictor
        from repro.hls.device import get_device

        service = PredictorService(AnalyticPredictor(get_device("xcvu9p")), batch_size=2)
        try:
            assert service._gen.pipeline_for("xcvu9p") is service.pipeline  # home device
            with pytest.raises(ServeError, match="re-binding"):
                service._gen.pipeline_for("xczu9eg")
        finally:
            service.close()
