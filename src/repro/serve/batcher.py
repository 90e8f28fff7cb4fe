"""Micro-batching scheduler: coalesce concurrent predicts into batches.

Concurrent clients each ask for one prediction at a time, but the
compiled engine's throughput comes from batch-sized forwards.  The
:class:`MicroBatcher` sits between them: requests enter a bounded
queue; a single worker thread groups requests that can share a forward
pass (same kernel, threshold, and cascade mode) and flushes a group
when it reaches ``batch_size`` **or** its oldest request has waited
``max_delay_seconds`` — whichever comes first.  Excess load is rejected
up front with :class:`~repro.errors.BacklogFullError` instead of
letting the queue (and every client's latency) grow without bound.

Only requests that need a forward pass come here:
:meth:`~repro.serve.service.PredictorService.predict_versioned` answers
a request whose points are all in the pipeline's prediction cache
directly, so ``max_delay_seconds`` bounds the added wait of uncached
requests only.

Admission control is deadline-aware.  A request may carry an absolute
deadline (monotonic-clock seconds): one that arrives already expired is
rejected at :meth:`submit`; one that expires while queued is rejected
at flush time with :class:`~repro.errors.DeadlineExceededError` instead
of spending forward-pass time on an answer nobody is waiting for; and a
group containing deadline-bound requests flushes no later than its
tightest deadline, even when the batch is not full.  Both rejection
paths carry a ``Retry-After`` hint derived from the queue depth and a
running estimate of dispatch cost.

Results are delivered through :class:`concurrent.futures.Future`, so
callers block only for their own request.  Because the evaluation
pipeline itself is bit-exact for any batch composition, coalescing
changes throughput but never values.

All scheduling math runs on an injectable monotonic ``clock`` — tests
drive the flush/expiry decisions with a fake clock and zero wall-clock
sleeps (see ``tests/test_serve.py``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, List, Optional, Tuple

from ..designspace.space import DesignPoint
from ..errors import BacklogFullError, DeadlineExceededError, ServeError
from ..model.predictor import DEFAULT_VALID_THRESHOLD, Prediction

__all__ = ["MicroBatcher"]

#: (kernel, valid_threshold, objectives_for, device) — requests sharing
#: this can ride in one ``predict_batch`` call.  The device is part of
#: the key so two targets' traffic can never coalesce into one forward
#: (their encodings and utilization scales differ).
_GroupKey = Tuple[str, float, str, str]


class _Request:
    __slots__ = ("key", "point", "future", "enqueued", "deadline")

    def __init__(self, key: _GroupKey, point: DesignPoint, enqueued: float,
                 deadline: Optional[float]):
        self.key = key
        self.point = point
        self.future: Future = Future()
        self.enqueued = enqueued
        self.deadline = deadline


class MicroBatcher:
    """Bounded request queue + one flushing worker thread.

    Parameters
    ----------
    predict_fn:
        ``predict_fn(kernel, points, valid_threshold, objectives_for)``
        returning one :class:`Prediction` per point; called from the
        worker thread only.
    batch_size:
        Flush a group as soon as it has this many requests.
    max_delay_seconds:
        Flush a group when its oldest request has waited this long,
        even if the batch is not full (bounds added latency under light
        load).
    max_pending:
        Queue bound; :meth:`submit` raises
        :class:`~repro.errors.BacklogFullError` beyond it.
    metrics:
        Optional :class:`~repro.serve.metrics.ServeMetrics` that
        receives batch-fill, rejection, and deadline-expiry counts.
    clock:
        Monotonic time source for every enqueue/deadline/flush decision
        (default :func:`time.monotonic`); injectable for deterministic
        tests.
    start_worker:
        With ``False`` the flushing thread is not started and the
        scheduling core (:meth:`_select_locked`) can be driven
        synchronously — test-only.
    """

    def __init__(
        self,
        predict_fn: Callable[..., List[Prediction]],
        batch_size: int = 16,
        max_delay_seconds: float = 0.005,
        max_pending: int = 1024,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
        start_worker: bool = True,
    ):
        if batch_size < 1:
            raise ServeError(f"batch_size must be >= 1, got {batch_size}")
        if max_pending < batch_size:
            raise ServeError("max_pending must be at least batch_size")
        self._predict_fn = predict_fn
        self.batch_size = int(batch_size)
        self.max_delay_seconds = float(max_delay_seconds)
        self.max_pending = int(max_pending)
        self.metrics = metrics
        self._clock = clock
        self._queue: deque = deque()
        self._cond = threading.Condition()
        self._closing = False
        self._drain_on_close = True
        # EWMA of recent dispatch durations: feeds the Retry-After hint
        # so shed clients back off roughly one queue-drain, not a guess.
        self._dispatch_ewma = 0.0
        self._worker: Optional[threading.Thread] = None
        if start_worker:
            self._worker = threading.Thread(
                target=self._run, name="repro-serve-batcher", daemon=True
            )
            self._worker.start()

    # -- client side ---------------------------------------------------------

    def submit(
        self,
        kernel: str,
        point: DesignPoint,
        valid_threshold: float = DEFAULT_VALID_THRESHOLD,
        objectives_for: str = "all",
        deadline: Optional[float] = None,
        device: str = "",
    ) -> Future:
        """Enqueue one prediction request; returns its future.

        ``deadline`` is an absolute clock value (same epoch as the
        batcher's ``clock``); a request admitted after its deadline is
        rejected immediately, one that expires while queued fails with
        :class:`~repro.errors.DeadlineExceededError` at flush time.
        ``device`` is a registered device name ("" = the predictor's
        own target); it keys the batch group and is forwarded to
        ``predict_fn`` only when non-empty.
        """
        now = self._clock()
        with self._cond:
            if self._closing:
                raise ServeError("batcher is shut down")
            if deadline is not None and now > deadline:
                if self.metrics is not None:
                    self.metrics.record_expired()
                raise DeadlineExceededError(
                    f"deadline passed {now - deadline:.3f}s before admission",
                    retry_after_seconds=self._retry_after_locked(),
                )
            if len(self._queue) >= self.max_pending:
                if self.metrics is not None:
                    self.metrics.record_rejection()
                raise BacklogFullError(
                    f"serving queue full ({self.max_pending} pending requests)",
                    retry_after_seconds=self._retry_after_locked(),
                )
            request = _Request(
                (kernel, float(valid_threshold), objectives_for, device),
                point, now, deadline,
            )
            self._queue.append(request)
            self._cond.notify()
        return request.future

    def pending(self) -> int:
        with self._cond:
            return len(self._queue)

    def retry_after_hint(self) -> float:
        """Estimated seconds until queued work drains (Retry-After)."""
        with self._cond:
            return self._retry_after_locked()

    def close(self, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` (default) finish queued work
        first, otherwise fail queued requests with :class:`ServeError`."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            self._drain_on_close = drain
            self._cond.notify_all()
        if self._worker is not None:
            self._worker.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- scheduling core (pure given queue state + ``now``) -------------------

    def _retry_after_locked(self) -> float:
        """Retry-After hint: queue depth in groups × per-group cost."""
        groups = max(len(self._queue), 1) / self.batch_size
        per_group = max(self._dispatch_ewma, self.max_delay_seconds, 0.01)
        return max(0.05, groups * per_group)

    def _select_locked(
        self, now: float
    ) -> Tuple[Optional[List[_Request]], List[_Request], Optional[float]]:
        """One flush decision at time ``now``; callers hold the lock.

        Returns ``(group, expired, wait)``: a group ready to dispatch
        (or None), requests whose deadline already passed (removed from
        the queue, not yet failed), and how long to wait before the
        next decision (None = until new work arrives).  The head
        request's group key decides the batch: groups flush in arrival
        order, so one kernel's traffic cannot starve another's.
        """
        expired = [
            r for r in self._queue
            if r.deadline is not None and now > r.deadline
        ]
        if expired:
            dead = set(map(id, expired))
            remaining = [r for r in self._queue if id(r) not in dead]
            self._queue.clear()
            self._queue.extend(remaining)
        if not self._queue:
            return None, expired, None
        head = self._queue[0]
        matching = [r for r in self._queue if r.key == head.key]
        flush_at = head.enqueued + self.max_delay_seconds
        # Deadline-aware flush: a group with deadline-bound members
        # dispatches no later than its tightest deadline, so a request
        # never expires merely because its batch was not full.
        for request in matching:
            if request.deadline is not None and request.deadline < flush_at:
                flush_at = request.deadline
        if len(matching) >= self.batch_size or now >= flush_at or self._closing:
            group = matching[: self.batch_size]
            taken = set(map(id, group))
            remaining = [r for r in self._queue if id(r) not in taken]
            self._queue.clear()
            self._queue.extend(remaining)
            return group, expired, 0.0
        return None, expired, flush_at - now

    # -- worker side ---------------------------------------------------------

    def _fail_expired(self, expired: List[_Request]) -> None:
        for request in expired:
            if self.metrics is not None:
                self.metrics.record_expired()
            request.future.set_exception(
                DeadlineExceededError(
                    "deadline passed before the batch flushed; "
                    "request was not computed",
                    retry_after_seconds=self.retry_after_hint(),
                )
            )

    def _take_group(self) -> Optional[List[_Request]]:
        """Block until a group is ready to flush; None when shut down."""
        while True:
            with self._cond:
                while True:
                    if self._closing and not self._drain_on_close:
                        failed = list(self._queue)
                        self._queue.clear()
                        for request in failed:
                            request.future.set_exception(
                                ServeError("batcher shut down before request ran")
                            )
                        return None
                    group, expired, wait = self._select_locked(self._clock())
                    if group is not None or expired:
                        break
                    if self._closing:
                        return None  # queue drained
                    self._cond.wait(timeout=wait)
            # Deliver expiry failures outside the lock: waiters wake
            # without contending for the scheduling mutex.
            self._fail_expired(expired)
            if group is not None:
                return group

    def _run(self) -> None:
        while True:
            group = self._take_group()
            if group is None:
                return
            kernel, threshold, objectives_for, device = group[0].key
            started = self._clock()
            # The device kwarg is passed only when set, so bare
            # predict_fn stubs (tests, load harnesses) keep working.
            extra = {"device": device} if device else {}
            try:
                predictions = self._predict_fn(
                    kernel,
                    [r.point for r in group],
                    valid_threshold=threshold,
                    objectives_for=objectives_for,
                    **extra,
                )
            except BaseException as exc:  # deliver, don't kill the worker
                for request in group:
                    request.future.set_exception(exc)
                continue
            elapsed = max(self._clock() - started, 0.0)
            with self._cond:
                self._dispatch_ewma = (
                    elapsed if self._dispatch_ewma == 0.0
                    else 0.8 * self._dispatch_ewma + 0.2 * elapsed
                )
            if self.metrics is not None:
                self.metrics.record_batch(len(group))
            for request, prediction in zip(group, predictions):
                request.future.set_result(prediction)
