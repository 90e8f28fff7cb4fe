"""Self-tests of the benchmark harness: ``pytest bench/``."""

from __future__ import annotations

import json
import sys
import threading
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

harness.use_checkout_sources()


# -- statistics ---------------------------------------------------------------


def test_median_needs_one_sample():
    assert harness.percentile([3.0], 50) == 3.0
    assert harness.percentile([1.0, 2.0, 3.0], 50) == 2.0


@pytest.mark.parametrize("n, q", [(99, 90), (999, 99), (19, 50.1)])
def test_tail_percentile_refused_with_fewer_than_ten_beyond(n, q):
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile(list(range(n)), q)


@pytest.mark.parametrize("n, q", [(100, 90), (1000, 99)])
def test_tail_percentile_reported_with_ten_beyond(n, q):
    assert harness.percentile(list(range(n)), q) == pytest.approx(np.percentile(range(n), q))


def test_no_samples_is_refused():
    with pytest.raises(harness.InsufficientSamples):
        harness.percentile([], 50)


# -- front checks ---------------------------------------------------------------


def test_dominated_member_found():
    front = np.array([[1.0, 5.0], [2.0, 2.0], [3.0, 3.0]])
    assert harness.dominated_member(front) == (2, 1)


def test_non_dominated_front_and_ties_pass():
    front = np.array([[1.0, 5.0], [2.0, 2.0], [5.0, 1.0], [2.0, 2.0]])
    assert harness.dominated_member(front) is None


def test_completeness_covers_dominated_and_equal_points():
    front = np.array([[1.0, 5.0], [2.0, 2.0]])
    points = np.array([[2.0, 2.0], [3.0, 6.0], [1.5, 1.0], [0.5, 9.0]])
    assert harness.uncovered_points(points, front) == [2, 3]


def test_completeness_tolerance_absorbs_rounding():
    front = np.array([[1.0 + 1e-9, 2.0]])
    points = np.array([[1.0, 2.0]])
    assert harness.uncovered_points(points, front) == [0]
    assert harness.uncovered_points(points, front, rtol=1e-6) == []


def test_empty_front_covers_nothing():
    points = np.array([[1.0, 2.0]])
    assert harness.uncovered_points(points, np.zeros((0, 2))) == [0]


class _Prediction:
    def __init__(self, latency, valid=True, dsp=0.1):
        self.valid = valid
        self.objectives = {"latency": latency, "DSP": dsp, "BRAM": 0.1, "LUT": 0.1, "FF": 0.1}


class _Candidate:
    def __init__(self, prediction):
        self.prediction = prediction


def test_search_result_checks():
    good = [_Candidate(_Prediction(1.0, dsp=0.5)), _Candidate(_Prediction(2.0, dsp=0.2))]
    assert harness.check_search_result(good, good) == []
    assert "not sorted" in harness.check_search_result(good[::-1], good)[0]
    unusable = [_Candidate(_Prediction(1.0, valid=False))]
    assert "not usable" in harness.check_search_result(unusable, [])[0]
    over = [_Candidate(_Prediction(1.0, dsp=0.9))]
    assert "not usable" in harness.check_search_result([], over)[0]
    dominated = good + [_Candidate(_Prediction(3.0, dsp=0.6))]
    assert "dominated" in harness.check_search_result([], dominated)[0]


# -- failure accounting -----------------------------------------------------------


class _StatusHandler(BaseHTTPRequestHandler):
    """Replies with the status scripted for each request in turn.

    Status 0 drops the connection without replying (a transport error).
    """

    protocol_version = "HTTP/1.1"
    script: list = []

    def log_message(self, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        status = self.script.pop(0)
        if status == 0:
            self.close_connection = True
            return
        points = 4 if status == 200 else 0
        body = json.dumps({"predictions": [
            {"valid": True, "valid_prob": 0.9, "objectives": None}
        ] * points}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_429_500_and_transport_errors_all_fail():
    _StatusHandler.script = [200, 429, 500, 0, 200]
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StatusHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        plan = [("fir", [{"__PARA__L0": i}] * 4) for i in range(5)]
        records = []
        workloads.send_requests(server.server_address[1], iter(plan), None, records)
    finally:
        server.shutdown()
        server.server_close()
    assert [r.status for r in records] == [200, 429, 500, None, 200]
    tally, problems = harness.Tally(), []
    workloads.tally_responses([records], tally, problems)
    assert tally.to_dict() == {"attempted": 5, "succeeded": 2, "failed": 3, "shed": 1}
    assert problems == []


def test_malformed_reply_fails_its_request():
    reply = json.dumps({"predictions": []}).encode()
    records = [workloads.Response("fir", [{}] * 4, 200, 0.01, reply, 0.0)]
    tally, problems = harness.Tally(), []
    workloads.tally_responses([records], tally, problems)
    assert (tally.succeeded, tally.failed) == (0, 1)
    assert len(problems) == 1


# -- tracing ----------------------------------------------------------------------


@pytest.fixture
def toy_module(monkeypatch):
    module = types.ModuleType("bench_toy")

    def double(x):
        return 2 * x

    class Base:
        def step(self):
            return module.double(3)

    class Child(Base):
        name = "child"

    module.double, module.Base, module.Child = double, Base, Child
    monkeypatch.setitem(sys.modules, "bench_toy", module)
    return module


def test_shims_record_spans_and_restore_originals(toy_module):
    double, step = toy_module.double, toy_module.Base.step
    with harness.Tracer() as tracer:
        assert tracer.shim("bench_toy:double", "toy.double")
        assert tracer.shim("bench_toy:Child.step", "toy.step", lambda args: args[0].name)
        assert toy_module.Child().step() == 6
    assert toy_module.double is double
    assert toy_module.Base.step is step
    assert "step" not in vars(toy_module.Child)
    names = [s[0] for s in tracer.spans]
    assert names == ["toy.step.child", "toy.double"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == tracer.spans[0][4]


def test_missing_target_is_reported_absent(toy_module):
    with harness.Tracer() as tracer:
        assert not tracer.shim("bench_toy:gone", "toy.gone")
        assert not tracer.shim("bench_toy:Base.gone", "toy.base_gone")
        assert not tracer.shim("no_such_module_anywhere:f", "toy.module_gone")
    assert tracer.absent == ["toy.gone", "toy.base_gone", "toy.module_gone"]


def test_every_layer_target_exists():
    with harness.Tracer() as tracer:
        harness.install_layers(tracer, harness.DSE_LAYERS)
        harness.install_layers(tracer, harness.SERVER_LAYERS)
    assert tracer.absent == []


def test_self_time_and_nesting():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["call", 1.0, 4.0, 0, 0],
        ["merge", 4.0, 6.0, 0, 0],
        ["inner", 4.5, 5.0, 2, 0],
        ["call", 20.0, 21.0, -1, 1],
    ]
    own = harness.self_times(spans)
    assert own["op"] == pytest.approx(5.0)
    assert own["merge"] == pytest.approx(1.5)
    assert harness.time_within(spans, "call", [0]) == pytest.approx(3.0)
    assert harness.time_within(spans, "inner", [0]) == pytest.approx(0.5)
    assert harness.span_durations(spans, 4) == {"call": [1.0]}


# -- the benchmark declaration ------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert declared["run_seconds"] == run.DEFAULT_SECONDS
