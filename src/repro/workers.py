"""Shared fork-worker supervision for DSE sharding and serving scale-out.

Both multi-process subsystems in this repo — the sharded DSE
orchestrator (:class:`~repro.dse.parallel.ParallelDSE`) and the serving
:class:`~repro.serve.pool.WorkerPool` — need the same operational core:
fork-started child processes (so loaded predictors transfer by memory
inheritance, never pickling), per-worker monotonic heartbeat tracking,
liveness/stall detection, and best-effort teardown that never hangs the
parent.  That core used to live privately inside ``ParallelDSE``; this
module is the extraction, so one battle-tested lifecycle serves both.

What stays with the callers is *policy*: ParallelDSE decides when a
lost shard is retried, the serve pool decides when a dead worker is
respawned.  What lives here is *mechanism*:

- :class:`SupervisedWorker` — one child process plus its monotonic
  ``last_heartbeat`` stamp, an opaque per-worker ``channel`` (task
  queue, control pipe, …) chosen by the caller, and the parent end of
  the worker's private message pipe (``inbox``);
- :class:`Outbox` — the child end of that pipe;
- :class:`ForkSupervisor` — sequential worker ids, spawn with inherited
  arguments, message receipt from every worker, stall scans,
  kill-with-join, and a ``shutdown`` that notifies, joins, and
  force-terminates without ever raising out of a ``finally`` block.

Every worker reports to the parent on a pipe of its own, never on a
queue shared with its siblings.  A ``multiprocessing.Queue`` serializes
its writers with a lock shared across processes; a worker that dies
while its feeder thread holds that lock (``os._exit`` right after a
``put``, a SIGKILL mid-write) leaves it held for good, and every other
worker's messages then wait forever.  With one pipe per worker a death
mid-message costs only that worker's own pipe, which the parent reads
to end-of-file and drops with the worker.

All heartbeat/liveness math runs on ``time.monotonic()``; fork-started
children share the parent's monotonic epoch, so stamps can be
differenced across the process boundary (see PR 4's clock notes).
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import queue as queue_mod
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = ["ForkSupervisor", "Outbox", "SupervisedWorker"]

logger = logging.getLogger("repro.workers")


class SupervisedWorker:
    """One fork-started child process under supervision.

    ``channel`` is whatever per-worker object the spawner attached (a
    task queue for DSE workers, a control pipe for serve workers); the
    supervisor never touches it except to hand it to ``notify`` during
    shutdown.  ``inbox`` is the parent end of the worker's message pipe
    (set by :meth:`ForkSupervisor.spawn`; None once it reached
    end-of-file).  Subclass to add caller-side state (assigned shard,
    drain flags, …).
    """

    def __init__(self, worker_id: int, process, channel=None):
        self.worker_id = worker_id
        self.process = process
        self.channel = channel
        self.inbox = None
        # Monotonic arrival time of the last sign of life; stall
        # detection differences this against ``time.monotonic()`` only,
        # so a stepped wall clock cannot fake (or hide) a stall.
        self.last_heartbeat = time.monotonic()

    def beat(self) -> None:
        """Record a sign of life (heartbeat, result, exit message…)."""
        self.last_heartbeat = time.monotonic()

    def alive(self) -> bool:
        return self.process.is_alive()

    def heartbeat_age(self) -> float:
        """Seconds since the last recorded sign of life."""
        return time.monotonic() - self.last_heartbeat

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def close_inbox(self) -> None:
        inbox, self.inbox = self.inbox, None
        if inbox is not None:
            inbox.close()


class Outbox:
    """Child end of a worker's message pipe; ``put`` is thread-safe.

    The lock is the child's own (threads of one worker may report
    concurrently), so nothing it guards outlives the process.
    """

    def __init__(self, connection):
        self._connection = connection
        self._lock = threading.Lock()

    def put(self, message) -> None:
        with self._lock:
            self._connection.send(message)


class ForkSupervisor:
    """Spawn and track a fleet of fork-started worker processes.

    Parameters
    ----------
    target:
        Worker entry point.  Called in the child as
        ``target(worker_id, outbox, *args)`` — the supervisor always
        prepends the sequential worker id and the worker's
        :class:`Outbox`, whose messages the parent reads with
        :meth:`receive`.
    name_prefix:
        Process names become ``f"{name_prefix}-{worker_id}"``.
    worker_class:
        Handle class instantiated per spawn; subclass
        :class:`SupervisedWorker` to carry caller-side state.
    """

    def __init__(
        self,
        target: Callable,
        name_prefix: str = "repro-worker",
        worker_class=SupervisedWorker,
    ):
        self.target = target
        # Fork: workers inherit loaded predictors without pickling and
        # share the parent's monotonic clock epoch.
        self.context = multiprocessing.get_context("fork")
        self.name_prefix = name_prefix
        self.worker_class = worker_class
        self.workers: Dict[int, SupervisedWorker] = {}
        self._next_id = 0
        # Serializes reading inboxes against closing them, so a thread
        # discarding a worker never closes a pipe mid-read in another.
        self._inbox_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    def spawn(self, *args, channel=None) -> SupervisedWorker:
        """Fork one worker; returns its handle (already started)."""
        worker_id = self._next_id
        self._next_id += 1
        inbox, writer = self.context.Pipe(duplex=False)
        process = self.context.Process(
            target=self.target,
            args=(worker_id, Outbox(writer), *args),
            daemon=True,
            name=f"{self.name_prefix}-{worker_id}",
        )
        try:
            process.start()
        finally:
            # The child holds its own copy; with the parent's closed,
            # the worker's exit is end-of-file on ``inbox``.
            writer.close()
        handle = self.worker_class(worker_id, process, channel)
        handle.inbox = inbox
        self.workers[worker_id] = handle
        return handle

    def discard(self, worker_id: int) -> Optional[SupervisedWorker]:
        """Forget a worker (dead or retired); returns its handle if known.

        Messages the worker sent and :meth:`receive` has not returned
        yet are dropped with it.
        """
        handle = self.workers.pop(worker_id, None)
        if handle is not None:
            with self._inbox_lock:
                handle.close_inbox()
        return handle

    def get(self, worker_id: int) -> Optional[SupervisedWorker]:
        return self.workers.get(worker_id)

    def __len__(self) -> int:
        return len(self.workers)

    def handles(self) -> List[SupervisedWorker]:
        """Stable snapshot of current handles (safe to mutate while iterating)."""
        return list(self.workers.values())

    # -- messages --------------------------------------------------------------

    def receive(self, timeout: float = 0.0) -> list:
        """Every message the workers have sent, waiting up to ``timeout``.

        Returns as soon as any worker's pipe is readable, with all that
        is readable then, in per-worker send order.  A pipe at
        end-of-file (its worker exited, perhaps mid-message) is closed
        and no longer waited on.
        """
        with self._inbox_lock:
            inboxes = {
                handle.inbox: handle
                for handle in self.handles()
                if handle.inbox is not None
            }
            if inboxes:
                messages = []
                for inbox in multiprocessing.connection.wait(list(inboxes), timeout):
                    try:
                        while inbox.poll():
                            messages.append(inbox.recv())
                    except (EOFError, OSError):
                        inboxes[inbox].close_inbox()
                return messages
        time.sleep(timeout)
        return []

    # -- liveness --------------------------------------------------------------

    def stalled(self, timeout_seconds: float) -> List[SupervisedWorker]:
        """Workers alive but silent for longer than ``timeout_seconds``."""
        now = time.monotonic()
        return [
            handle
            for handle in self.handles()  # another thread may spawn/discard
            if handle.alive() and now - handle.last_heartbeat > timeout_seconds
        ]

    def kill(self, handle: SupervisedWorker, join_timeout: float = 5.0) -> None:
        """Terminate one worker and reap it (SIGKILL escalation)."""
        handle.process.terminate()
        handle.process.join(timeout=join_timeout)
        if handle.process.is_alive():  # pragma: no cover - stuck in D state
            try:
                handle.process.kill()
            except (OSError, AttributeError):
                pass
            handle.process.join(timeout=join_timeout)

    # -- teardown --------------------------------------------------------------

    def shutdown(
        self,
        notify: Optional[Callable[[SupervisedWorker], None]] = None,
        on_notify_error: Optional[Callable[[SupervisedWorker, BaseException], None]] = None,
        join_timeout: float = 5.0,
    ) -> None:
        """Notify, join, and force-terminate every worker; never raises.

        ``notify`` is the caller's shutdown signal (a ``None`` sentinel
        on a task queue, a ``stop`` message on a pipe).  A full queue on
        a wedged worker is expected and silently ignored — termination
        below still reaps the process; other notify failures go to
        ``on_notify_error`` (default: a warning log).
        """
        for handle in self.handles():
            if notify is None:
                continue
            try:
                notify(handle)
            except queue_mod.Full:
                # Expected when a wedged worker never drained its
                # queue; termination below still reaps the process.
                pass
            except Exception as exc:
                if on_notify_error is not None:
                    on_notify_error(handle, exc)
                else:
                    logger.warning(
                        "failed to notify worker %d of shutdown: %s",
                        handle.worker_id, exc,
                    )
        for handle in self.handles():
            handle.process.join(timeout=join_timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=join_timeout)
            with self._inbox_lock:
                handle.close_inbox()
        self.workers.clear()
