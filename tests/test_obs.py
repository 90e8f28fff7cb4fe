"""Tests for ``repro.obs``: tracing, metrics, export, and integration.

Three contracts:

- **Correctness**: nearest-rank quantiles (the old serving helper was
  upper-biased), span nesting/parentage, schema validation of exported
  traces, monotonic-only duration math.
- **Cost**: with tracing disabled the hot-path instrumentation must add
  zero trace entries and near-zero time (a shared no-op span, no
  allocation).
- **Integration**: the pipeline, parallel DSE, and serving layer all
  feed the same process-wide registry and tracer.
"""

import json
import threading
import time

import pytest

from repro import obs
from repro.obs import (
    NULL_SPAN,
    REGISTRY,
    TRACER,
    Counter,
    Histogram,
    MetricsRegistry,
    TraceValidationError,
    counter,
    histogram,
    metrics_payload,
    metrics_text,
    nearest_rank_quantile,
    span,
    trace_payload,
    validate_trace,
    write_trace,
)
from repro.serve.metrics import ServeMetrics


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Tracing and metrics are process-global; leave them as found."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ---------------------------------------------------------------------------
# quantiles


class TestNearestRankQuantile:
    def test_median_of_four_is_two(self):
        # The bug this replaces: int(0.5 * 4) == 2 indexed element 3.
        assert nearest_rank_quantile([1, 2, 3, 4], 0.5) == 2

    def test_known_percentiles_on_1_to_100(self):
        values = list(range(1, 101))
        assert nearest_rank_quantile(values, 0.50) == 50
        assert nearest_rank_quantile(values, 0.95) == 95
        assert nearest_rank_quantile(values, 0.99) == 99
        assert nearest_rank_quantile(values, 1.00) == 100

    def test_small_arrays(self):
        assert nearest_rank_quantile([7], 0.5) == 7
        assert nearest_rank_quantile([1, 2], 0.5) == 1
        assert nearest_rank_quantile([1, 2], 0.51) == 2
        assert nearest_rank_quantile([1, 2, 3], 0.5) == 2

    def test_empty_and_clamping(self):
        assert nearest_rank_quantile([], 0.5) == 0.0
        assert nearest_rank_quantile([3, 4], -1.0) == 3
        assert nearest_rank_quantile([3, 4], 2.0) == 4

    def test_p0_is_minimum(self):
        assert nearest_rank_quantile([1, 2, 3, 4], 0.0) == 1


class TestHistogram:
    def test_snapshot_quantiles(self):
        h = Histogram("t")
        for v in range(1, 101):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["total"] == sum(range(1, 101))
        assert snap["mean"] == pytest.approx(50.5)
        assert snap["max"] == 100
        assert snap["p50"] == 50
        assert snap["p95"] == 95
        assert snap["p99"] == 99

    def test_window_bounds_memory_but_not_totals(self):
        h = Histogram("t", window=8)
        for v in range(100):
            h.observe(v)
        assert h.count == 100
        assert h.total == sum(range(100))
        # Quantiles come from the last 8 observations (92..99).
        assert h.quantile(0.0) == 92
        assert h.quantile(1.0) == 99

    def test_quantiles_single_sort(self):
        h = Histogram("t")
        for v in (4, 1, 3, 2):
            h.observe(v)
        assert h.quantiles([0.5, 1.0]) == [2, 4]

    def test_reset(self):
        h = Histogram("t")
        h.observe(5)
        h.reset()
        assert h.count == 0 and h.total == 0.0
        assert h.snapshot()["p50"] == 0.0


class TestCountersAndRegistry:
    def test_counter_inc(self):
        c = Counter("t")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_registry_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("b") is reg.histogram("b")
        reg.counter("a").inc()
        assert reg.counters() == {"a": 1}
        assert list(reg.histograms()) == ["b"]

    def test_global_helpers_share_one_registry(self):
        c = counter("test.obs.shared")
        assert REGISTRY.counter("test.obs.shared") is c
        h = histogram("test.obs.shared_h")
        assert REGISTRY.histogram("test.obs.shared_h") is h

    def test_counter_thread_safety(self):
        c = Counter("t")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


# ---------------------------------------------------------------------------
# tracing


class TestTracing:
    def test_disabled_span_is_shared_noop(self):
        assert span("anything", a=1) is NULL_SPAN
        with span("anything") as s:
            assert s is NULL_SPAN
            s.set(status=200)  # no-op, chainable
        assert len(TRACER) == 0

    def test_nesting_records_parentage(self):
        obs.enable()
        with span("root", kind="r") as root:
            with span("child") as child:
                with span("grandchild") as grand:
                    pass
            with span("sibling") as sib:
                pass
        spans = {s.name: s for s in TRACER.finished_spans()}
        assert spans["root"].parent_id is None
        assert spans["child"].parent_id == root.span_id
        assert spans["grandchild"].parent_id == spans["child"].span_id
        assert spans["sibling"].parent_id == root.span_id
        assert grand.duration_s is not None and grand.duration_s >= 0
        assert sib.duration_s <= spans["root"].duration_s

    def test_attrs_and_late_set(self):
        obs.enable()
        with span("req", endpoint="/x") as s:
            s.set(status=200)
        (done,) = TRACER.finished_spans()
        assert done.attrs == {"endpoint": "/x", "status": 200}

    def test_exception_marks_error_and_propagates(self):
        obs.enable()
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("x")
        (done,) = TRACER.finished_spans()
        assert done.attrs["error"] == "ValueError"
        assert done.duration_s is not None

    def test_record_external_region_nests_under_open_span(self):
        obs.enable()
        with span("orchestrator") as root:
            TRACER.record("worker.shard", TRACER.now(), 0.25, shard=3)
        ext = {s.name: s for s in TRACER.finished_spans()}["worker.shard"]
        assert ext.parent_id == root.span_id
        assert ext.duration_s == 0.25
        assert ext.attrs == {"shard": 3}

    def test_threads_have_independent_stacks(self):
        obs.enable()
        seen = {}

        def worker():
            with span("thread-span") as s:
                seen["parent"] = s

        with span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        by_name = {s.name: s for s in TRACER.finished_spans()}
        # The other thread had no open span, so its root has no parent.
        assert by_name["thread-span"].parent_id is None

    def test_max_spans_bounds_memory_and_counts_drops(self):
        obs.enable(max_spans=3)
        for i in range(5):
            with span(f"s{i}"):
                pass
        assert len(TRACER) == 3
        assert TRACER.dropped == 2
        obs.enable(max_spans=100_000)  # restore default for later tests

    def test_durations_ignore_wall_clock_steps(self, monkeypatch):
        obs.enable()
        # A wall clock jumping hours between reads must not skew spans.
        jumps = iter([0.0, -86_400.0, 7200.0, 0.0, -3600.0])
        real_time = time.time
        monkeypatch.setattr(
            time, "time", lambda: real_time() + next(jumps, 0.0)
        )
        with span("steady"):
            time.sleep(0.001)
        (done,) = TRACER.finished_spans()
        assert 0.0 <= done.duration_s < 5.0

    def test_disabled_overhead_is_negligible(self):
        # 100k disabled span() calls: a flag test + shared singleton.
        # Bound is extremely generous (~50x observed) to stay robust on
        # slow shared CI runners while still catching accidental
        # allocation or locking on the disabled path.
        n = 100_000
        start = time.perf_counter()
        for _ in range(n):
            with span("hot", i=0):
                pass
        elapsed = time.perf_counter() - start
        assert len(TRACER) == 0
        assert elapsed < 2.0, f"{elapsed:.3f}s for {n} disabled spans"


# ---------------------------------------------------------------------------
# export


class TestTraceExport:
    def test_round_trip_and_validation(self, tmp_path):
        obs.enable()
        with span("outer", k=1):
            with span("inner"):
                pass
        path = tmp_path / "trace.json"
        payload = write_trace(str(path))
        on_disk = json.loads(path.read_text())
        validate_trace(on_disk)
        assert on_disk["schema_version"] == payload["schema_version"] == 1
        assert on_disk["clock"] == "monotonic"
        assert on_disk["span_count"] == 2
        names = [s["name"] for s in on_disk["spans"]]
        assert names == ["outer", "inner"]  # start order

    def test_validation_rejects_bad_payloads(self):
        base = {
            "schema_version": 1, "clock": "monotonic", "started_at": 0.0,
            "span_count": 0, "dropped_spans": 0, "spans": [],
        }
        validate_trace(base)
        for mutate, match in [
            (lambda p: p.update(schema_version=2), "schema_version"),
            (lambda p: p.update(clock="wall"), "clock"),
            (lambda p: p.update(span_count=3), "span_count"),
        ]:
            bad = dict(base)
            mutate(bad)
            with pytest.raises(TraceValidationError, match=match):
                validate_trace(bad)

    def test_validation_rejects_bad_spans(self):
        def payload(spans):
            return {
                "schema_version": 1, "clock": "monotonic", "started_at": 0.0,
                "span_count": len(spans), "dropped_spans": 0, "spans": spans,
            }

        ok = {"name": "a", "id": 1, "parent_id": None, "start_s": 0.0,
              "duration_s": 0.1, "thread": "t", "attrs": {}}
        validate_trace(payload([ok]))
        dup = dict(ok, id=1)
        with pytest.raises(TraceValidationError, match="duplicate"):
            validate_trace(payload([ok, dup]))
        orphan = dict(ok, id=2, parent_id=99)
        with pytest.raises(TraceValidationError, match="parent_id"):
            validate_trace(payload([ok, orphan]))
        negative = dict(ok, duration_s=-0.5)
        with pytest.raises(TraceValidationError, match="duration_s"):
            validate_trace(payload([negative]))

    def test_span_durations_sum_consistently_with_wall_time(self):
        obs.enable()
        start = time.perf_counter()
        with span("root"):
            for _ in range(3):
                with span("step"):
                    time.sleep(0.01)
        wall = time.perf_counter() - start
        payload = trace_payload()
        by_name = {}
        for s in payload["spans"]:
            by_name.setdefault(s["name"], []).append(s)
        (root,) = by_name["root"]
        steps = by_name["step"]
        assert len(steps) == 3
        child_sum = sum(s["duration_s"] for s in steps)
        # Children are contained in the root; the root in the wall time.
        assert child_sum <= root["duration_s"] <= wall


class TestMetricsExport:
    def test_payload_shape(self):
        reg = MetricsRegistry()
        reg.counter("dse.retries").inc(2)
        reg.histogram("lag").observe(0.5)
        payload = metrics_payload(reg)
        assert payload["counters"] == {"dse.retries": 2}
        assert payload["histograms"]["lag"]["count"] == 1

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("dse.shard_retries").inc(3)
        reg.histogram("dse.heartbeat_lag_seconds").observe(0.25)
        text = metrics_text(reg)
        assert "repro_dse_shard_retries 3\n" in text
        assert "repro_dse_heartbeat_lag_seconds_count 1" in text
        assert 'repro_dse_heartbeat_lag_seconds{quantile="50"} 0.25' in text
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# serving metrics on the shared instruments


class TestServeMetrics:
    def test_latency_quantiles_are_nearest_rank(self):
        m = ServeMetrics()
        for ms in (1, 2, 3, 4):
            m.record_request("/v1/predict", ms / 1000.0, 200)
        latency = m.snapshot()["latency"]["/v1/predict"]
        assert latency["count"] == 4
        assert latency["p50_ms"] == pytest.approx(2.0)  # was 3.0 pre-fix
        assert latency["p99_ms"] == pytest.approx(4.0)
        assert latency["max_ms"] == pytest.approx(4.0)

    def test_uptime_survives_wall_clock_step(self, monkeypatch):
        m = ServeMetrics()
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() - 86_400.0)
        uptime = m.snapshot()["uptime_seconds"]
        assert 0.0 <= uptime < 60.0

    def test_snapshot_carries_process_registry(self):
        counter("test.obs.serve_visible").inc(7)
        snap = ServeMetrics().snapshot()
        assert snap["obs"]["counters"]["test.obs.serve_visible"] == 7
        assert "started_at" in snap


# ---------------------------------------------------------------------------
# pipeline integration (shares the module-scoped trained stack)


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def predictor(self):
        from tests.test_pipeline import make_predictor

        return make_predictor()

    def _run(self, predictor, n=6):
        from repro.designspace import build_design_space
        from repro.dse import EvaluationPipeline
        from repro.kernels import get_kernel

        space = build_design_space(get_kernel("fir"))
        points = space.sample(__import__("random").Random(0), n)
        pipeline = EvaluationPipeline(predictor, batch_size=4)
        pipeline.predict_batch("fir", points)
        pipeline.predict_batch("fir", points)  # all cache hits
        return pipeline

    def test_disabled_run_adds_zero_trace_entries(self, predictor):
        assert not obs.is_enabled()
        self._run(predictor)
        assert len(TRACER) == 0

    def test_enabled_run_traces_batches_and_counts_cache(self, predictor):
        REGISTRY.reset()
        obs.enable()
        pipeline = self._run(predictor)
        names = {s.name for s in TRACER.finished_spans()}
        assert "pipeline.predict_batch" in names
        assert "pipeline.forward" in names
        counters = REGISTRY.counters()
        assert counters["pipeline.points"] == pipeline.stats.points
        assert counters["pipeline.cache_hits"] == pipeline.stats.cache_hits
        assert counters["pipeline.cache_misses"] == pipeline.stats.cache_misses
        assert counters["pipeline.cache_hits"] > 0
        fill = REGISTRY.histogram("pipeline.batch_fill").snapshot()
        assert fill["count"] == pipeline.stats.batches
        # Validate the whole trace while we have a real one.
        validate_trace(trace_payload())

    def test_forward_spans_carry_row_reuse(self, predictor):
        REGISTRY.reset()
        obs.enable()
        pipeline = self._run(predictor, n=12)
        forwards = [s for s in TRACER.finished_spans() if s.name == "pipeline.forward"]
        assert sum(s.attrs["reused"] for s in forwards) == pipeline.stats.rows_reused > 0
        assert sum(s.attrs["computed"] for s in forwards) == pipeline.stats.rows_computed > 0
        assert REGISTRY.counters()["pipeline.rows_reused"] == pipeline.stats.rows_reused
