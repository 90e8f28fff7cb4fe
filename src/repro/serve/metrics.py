"""Thread-safe serving metrics: counters, latency quantiles, batch fill.

Everything the ``/metrics`` endpoint reports lives here.  Since the
``repro.obs`` subsystem landed, this module is a *consumer* of its
instrument classes rather than a parallel implementation: per-endpoint
latencies are :class:`repro.obs.Histogram` windows (bounded memory,
nearest-rank quantiles — the old private ``_quantile`` helper was
upper-biased, returning 3 for the median of ``[1, 2, 3, 4]``), and the
snapshot surfaces the process-wide :data:`repro.obs.REGISTRY` (pipeline
cache hits, shard retries, heartbeat lag, …) next to the per-server
request stats.

Uptime and latency math run on monotonic clocks; wall-clock time
appears only as the human-facing ``started_at`` stamp.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Dict

from ..obs import Histogram, metrics_payload

__all__ = ["ServeMetrics"]

#: Most-recent request latencies kept per endpoint.
_LATENCY_WINDOW = 4096


class ServeMetrics:
    """Cumulative serving statistics, safe to update from any thread.

    Request/latency/batch-fill state is per-instance (one server, one
    window); the ``obs`` section of :meth:`snapshot` reads the shared
    process registry so DSE and pipeline instruments ride along.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self.started_at = time.time()  # wall clock, display only
        self._requests: Counter = Counter()  # endpoint -> count
        self._statuses: Counter = Counter()  # http status -> count
        self._latencies: Dict[str, Histogram] = {}
        self._batch_fill: Counter = Counter()  # fill size -> batches
        self._points = 0
        self._cache_served_requests = 0
        self._cache_served_points = 0
        self._rejected = 0
        self._expired = 0

    # -- recording -----------------------------------------------------------

    def record_request(self, endpoint: str, seconds: float, status: int) -> None:
        with self._lock:
            self._requests[endpoint] += 1
            self._statuses[int(status)] += 1
            window = self._latencies.get(endpoint)
            if window is None:
                window = self._latencies[endpoint] = Histogram(
                    f"serve.latency.{endpoint}", _LATENCY_WINDOW
                )
        window.observe(seconds)

    def record_batch(self, fill: int) -> None:
        with self._lock:
            self._batch_fill[int(fill)] += 1
            self._points += int(fill)

    def record_cache_served(self, points: int) -> None:
        """Count a request answered from the prediction cache, not a batch."""
        with self._lock:
            self._cache_served_requests += 1
            self._cache_served_points += int(points)

    def record_rejection(self) -> None:
        with self._lock:
            self._rejected += 1

    def record_expired(self) -> None:
        """Count a request shed because its deadline had already passed."""
        with self._lock:
            self._expired += 1

    # -- reading -------------------------------------------------------------

    def mean_batch_fill(self) -> float:
        with self._lock:
            batches = sum(self._batch_fill.values())
            return self._points / batches if batches else 0.0

    def snapshot(self, pipeline_stats=None) -> Dict[str, object]:
        """One JSON-ready dict of everything, for ``/metrics``."""
        with self._lock:
            batches = sum(self._batch_fill.values())
            latency = {}
            for endpoint, window in self._latencies.items():
                snap = window.snapshot()
                latency[endpoint] = {
                    "count": self._requests[endpoint],
                    "p50_ms": snap["p50"] * 1000.0,
                    "p99_ms": snap["p99"] * 1000.0,
                    "p999_ms": snap["p999"] * 1000.0,
                    "max_ms": snap["max"] * 1000.0,
                }
            out: Dict[str, object] = {
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "started_at": self.started_at,
                "requests": dict(self._requests),
                "statuses": {str(k): v for k, v in self._statuses.items()},
                "rejected_requests": self._rejected,
                "expired_requests": self._expired,
                "latency": latency,
                "batches": batches,
                "batched_points": self._points,
                "mean_batch_fill": self._points / batches if batches else 0.0,
                "batch_fill_histogram": {
                    str(size): count
                    for size, count in sorted(self._batch_fill.items())
                },
                "cache_served_requests": self._cache_served_requests,
                "cache_served_points": self._cache_served_points,
            }
        if pipeline_stats is not None:
            out["pipeline"] = pipeline_stats.to_dict()
        # Process-wide instruments (dse.*, pipeline.*, serve.*): cache
        # hits, shard retries, heartbeat lag, batch spans, …
        out["obs"] = metrics_payload()
        return out
