"""Pre-fork multi-process serving: N workers behind one shared listener.

A single :class:`~repro.serve.http.ServeHTTPServer` process is
GIL-bound: handler threads overlap on I/O but serialize on every
forward pass.  :class:`WorkerPool` scales the same HTTP surface across
processes the way classic pre-fork servers do:

1.  The parent binds **one** listening socket and forks N workers
    (:class:`~repro.workers.ForkSupervisor` — the same supervision core
    as the sharded DSE orchestrator).  Each worker wraps the inherited
    fd in its own ``ServeHTTPServer``; the kernel's shared accept queue
    load-balances connections across whoever calls ``accept`` first.
    Compared with per-worker ``SO_REUSEPORT`` sockets, the shared queue
    never strands backlogged connections when a worker exits — which is
    exactly what a rolling restart does N times in a row.
2.  Each worker builds its serving stack *after* the fork from a
    ``service_factory`` closure (fork passes it by memory inheritance,
    so a preloaded predictor or registry handle is shared copy-on-write
    and never pickled).  Workers loading from the same content-addressed
    :class:`~repro.serve.registry.ModelRegistry` therefore serve
    bit-identical predictions — the load harness asserts this.
3.  The parent runs a monitor thread: heartbeats arrive on each
    worker's own message pipe, silent workers are killed, dead workers
    respawned, and a ``/v1/model/reload`` accepted by *any* worker is
    broadcast to the rest (each worker re-follows the registry's
    ``current`` pointer, so the fleet converges on the new artifact
    while the per-worker generation refcounting keeps every
    in-flight request on the version that admitted it).
4.  :meth:`rolling_restart` replaces workers one at a time —
    spawn-then-drain, never drain-then-spawn — so capacity never dips
    and in-flight requests always finish (``server_close`` joins the
    handler threads; the service drains its micro-batches).

Worker processes are daemonic (a crashed parent cannot leak them), so
server-side DSE inside a pool worker is capped at ``workers=1`` —
daemonic processes may not fork children.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import ServeError
from ..obs import counter
from ..workers import ForkSupervisor, SupervisedWorker
from .http import ServeHTTPServer

__all__ = ["PoolHooks", "WorkerPool"]

logger = logging.getLogger("repro.serve.pool")

_RESPAWNS = counter("serve.pool.respawns")
_STALL_KILLS = counter("serve.pool.stall_kills")
_RELOAD_BROADCASTS = counter("serve.pool.reload_broadcasts")


@dataclass
class PoolHooks:
    """Instrumentation hooks threaded into every pool worker.

    ``on_worker_start(worker_id)`` runs in the child right before it
    reports ready — tests inject faults here (``os._exit``) to exercise
    the respawn path.  Hooks must be fork-inheritable (plain
    functions/closures); they never change served results.
    """

    on_worker_start: Optional[Callable[[int], None]] = None


class _PoolWorker(SupervisedWorker):
    """Pool-side state: the parent end of the worker's command pipe."""

    @property
    def commands(self):
        return self.channel


def _worker_main(worker_id, events, service_factory, listener, commands,
                 heartbeat_interval, hooks):
    """Child entry point: serve on the inherited listener until told to stop."""
    service = service_factory()
    # Daemonic children may not fork, so server-side DSE stays serial
    # inside pool workers (the request is rejected 400, never 500).
    service.MAX_DSE_WORKERS = 1

    def on_reload(info):
        events.put(("reload_request", worker_id, dict(info)))

    server = ServeHTTPServer(
        listener.getsockname(), service, listener=listener, on_reload=on_reload
    )
    # The zero-drop drain guarantee rides on server_close() joining
    # in-flight handler threads — and socketserver's _Threads.append
    # silently skips daemon threads, so daemon_threads must be off
    # here.  A wedged handler can't hang us: the parent bounds the
    # drain with a join timeout and kills past it.
    server.daemon_threads = False
    thread = threading.Thread(
        target=server.serve_forever, name=f"repro-serve-http-{worker_id}",
        daemon=True,
    )
    thread.start()
    if hooks is not None and hooks.on_worker_start is not None:
        hooks.on_worker_start(worker_id)
    events.put(("ready", worker_id, os.getpid()))
    try:
        while True:
            if commands.poll(heartbeat_interval):
                try:
                    command = commands.recv()
                except EOFError:  # parent died; exit cleanly
                    command = ("stop",)
                kind = command[0]
                if kind == "reload":
                    try:
                        info, swapped = service.reload()
                        events.put(("reloaded", worker_id, dict(info), swapped))
                    except Exception as exc:
                        events.put(("reload_failed", worker_id, str(exc)))
                elif kind in ("drain", "stop"):
                    return
            events.put(("hb", worker_id))
    finally:
        # Graceful exit: stop accepting, join in-flight handler threads
        # (block_on_close), drain queued micro-batches, then report.
        server.shutdown()
        server.server_close()
        service.close(drain=True)
        events.put(("exit", worker_id))


class WorkerPool:
    """N forked serving workers behind one shared listening socket.

    Parameters
    ----------
    service_factory:
        Zero-argument callable building a fresh
        :class:`~repro.serve.service.PredictorService`; runs in each
        child *after* the fork (threads and locks must not cross it).
        Registry-backed factories make fleet-wide hot-swap work: every
        worker reloads from the same content-addressed store.
    workers:
        Pool size; kept constant by respawn until :meth:`stop`.
    host, port:
        Bind address for the shared listener (``port=0`` = ephemeral).
    heartbeat_interval_seconds:
        Worker heartbeat cadence (also its command-poll latency).
    heartbeat_timeout_seconds:
        A worker alive but silent this long is killed and respawned.
    ready_timeout_seconds:
        Bound on waiting for a spawned worker's ready handshake.
    hooks:
        :class:`PoolHooks` for fault-injection tests.
    """

    def __init__(
        self,
        service_factory: Callable[[], object],
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval_seconds: float = 0.25,
        heartbeat_timeout_seconds: float = 10.0,
        ready_timeout_seconds: float = 60.0,
        hooks: Optional[PoolHooks] = None,
    ):
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self.service_factory = service_factory
        self.workers = int(workers)
        self.host = host
        self.port = int(port)
        self.heartbeat_interval_seconds = float(heartbeat_interval_seconds)
        self.heartbeat_timeout_seconds = float(heartbeat_timeout_seconds)
        self.ready_timeout_seconds = float(ready_timeout_seconds)
        self.hooks = hooks
        self._supervisor = ForkSupervisor(
            _worker_main,
            name_prefix="repro-serve-worker", worker_class=_PoolWorker,
        )
        self._listener: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._ready: Dict[int, threading.Event] = {}
        self._exited: Dict[int, threading.Event] = {}
        self._draining: set = set()
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._started = False
        self._stopped = False
        self.respawns = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Bind the listener, fork the fleet, wait until all are serving."""
        if self._started:
            raise ServeError("pool already started")
        self._started = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        # Non-blocking: workers race to accept from the shared queue,
        # and a loser's accept must error out (socketserver swallows
        # it), not wedge the worker's serve loop.
        listener.setblocking(False)
        self._listener = listener
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-serve-pool-monitor", daemon=True
        )
        self._monitor.start()
        for _ in range(self.workers):
            self._spawn_worker()
        # Fleet-level wait, not per-id: a worker that crashes during
        # startup is respawned by the monitor under a fresh id, and
        # start() succeeds once the *pool* reaches full strength.
        self._await_fleet_ready(self.ready_timeout_seconds)
        return self

    @property
    def url(self) -> str:
        if self._listener is None:
            raise ServeError("pool is not started")
        host, port = self._listener.getsockname()[:2]
        return f"http://{host}:{port}"

    def worker_pids(self) -> List[int]:
        return [h.pid for h in self._supervisor.handles() if h.pid is not None]

    def worker_count(self) -> int:
        return len(self._supervisor)

    def stop(self) -> None:
        """Drain and stop every worker; idempotent, never raises."""
        if self._stopped:
            return
        self._stopped = True
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)

        def _notify(handle):
            handle.commands.send(("drain",))

        self._supervisor.shutdown(
            notify=_notify, join_timeout=10.0,
            on_notify_error=lambda handle, exc: logger.warning(
                "failed to send drain to serve worker %d: %s", handle.worker_id, exc
            ),
        )
        if self._listener is not None:
            self._listener.close()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- fleet operations ------------------------------------------------------

    def reload_all(self) -> None:
        """Ask every worker to re-follow the registry's current pointer."""
        for handle in self._supervisor.handles():
            self._send_command(handle, ("reload",))

    def rolling_restart(self, timeout_seconds: float = 60.0) -> None:
        """Replace every worker, one at a time, with zero capacity gap.

        Spawn-then-drain per slot: the replacement is accepting from
        the shared queue *before* its predecessor stops, and the
        predecessor finishes its in-flight requests before exiting —
        so a load generator running across the restart sees neither
        connection resets nor shed capacity beyond one worker's worth.
        """
        deadline = time.monotonic() + float(timeout_seconds)
        for handle in self._supervisor.handles():
            replacement = self._spawn_worker()
            self._await_ready(
                [replacement.worker_id],
                timeout=max(deadline - time.monotonic(), 0.1),
            )
            self._drain_worker(
                handle, timeout=max(deadline - time.monotonic(), 0.1)
            )

    # -- internals -------------------------------------------------------------

    def _spawn_worker(self) -> _PoolWorker:
        parent_conn, child_conn = self._supervisor.context.Pipe()
        with self._lock:
            handle = self._supervisor.spawn(
                self.service_factory, self._listener, child_conn,
                self.heartbeat_interval_seconds, self.hooks,
                channel=parent_conn,
            )
            self._ready[handle.worker_id] = threading.Event()
            self._exited[handle.worker_id] = threading.Event()
        child_conn.close()  # the child holds its own copy post-fork
        return handle

    def _fleet_ready(self) -> bool:
        handles = self._supervisor.handles()
        if len(handles) < self.workers:
            return False
        with self._lock:
            events = [self._ready.get(h.worker_id) for h in handles]
        return all(event is not None and event.is_set() for event in events)

    def _await_fleet_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._fleet_ready():
                return
            time.sleep(0.01)
        raise ServeError(f"serve pool not ready after {timeout:g}s")

    def _await_ready(self, worker_ids: List[int], timeout: Optional[float] = None) -> None:
        timeout = self.ready_timeout_seconds if timeout is None else timeout
        deadline = time.monotonic() + timeout
        for worker_id in worker_ids:
            with self._lock:
                event = self._ready.get(worker_id)
            if event is None:
                continue
            if not event.wait(timeout=max(deadline - time.monotonic(), 0.0)):
                raise ServeError(
                    f"serve worker {worker_id} not ready after {timeout:g}s"
                )

    def _send_command(self, handle: _PoolWorker, command) -> bool:
        try:
            handle.commands.send(command)
            return True
        except (OSError, ValueError):
            # Broken pipe — the worker died; the monitor will respawn it.
            return False

    def _drain_worker(self, handle: _PoolWorker, timeout: float) -> None:
        with self._lock:
            self._draining.add(handle.worker_id)
        self._send_command(handle, ("drain",))
        handle.process.join(timeout=timeout)
        if handle.alive():
            logger.warning(
                "serve worker %d did not drain within %gs; killing",
                handle.worker_id, timeout,
            )
            self._supervisor.kill(handle)
        with self._lock:
            self._supervisor.discard(handle.worker_id)
            self._draining.discard(handle.worker_id)

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            for event in self._supervisor.receive(timeout=0.1):
                try:
                    self._handle_event(event)
                except Exception:  # pragma: no cover - monitor must survive
                    logger.exception("serve pool monitor failed on %r", event)
            self._scan()

    def _handle_event(self, event) -> None:
        kind, worker_id = event[0], event[1]
        handle = self._supervisor.get(worker_id)
        if handle is not None:
            handle.beat()
        if kind == "ready":
            with self._lock:
                ready = self._ready.get(worker_id)
            if ready is not None:
                ready.set()
        elif kind == "exit":
            with self._lock:
                exited = self._exited.get(worker_id)
            if exited is not None:
                exited.set()
        elif kind == "reload_request":
            # One worker swapped via HTTP; converge the rest of the
            # fleet on the registry's current pointer.
            _RELOAD_BROADCASTS.inc()
            for other in self._supervisor.handles():
                if other.worker_id != worker_id:
                    self._send_command(other, ("reload",))
        elif kind == "reload_failed":
            logger.warning("serve worker %d reload failed: %s", worker_id, event[2])

    def _scan(self) -> None:
        """Respawn dead workers, kill stalled ones (monitor thread only)."""
        if self._stop.is_set():
            return
        for handle in self._supervisor.stalled(self.heartbeat_timeout_seconds):
            with self._lock:
                if handle.worker_id in self._draining:
                    continue  # drained workers stop heartbeating by design
            logger.warning(
                "serve worker %d silent for >%gs; killing",
                handle.worker_id, self.heartbeat_timeout_seconds,
            )
            _STALL_KILLS.inc()
            self._supervisor.kill(handle)
        for handle in self._supervisor.handles():
            if handle.alive():
                continue
            with self._lock:
                draining = handle.worker_id in self._draining
            if draining:
                continue  # deliberate exit; rolling_restart discards it
            self._supervisor.discard(handle.worker_id)
            logger.warning(
                "serve worker %d died (exitcode %s); respawning",
                handle.worker_id, handle.process.exitcode,
            )
            _RESPAWNS.inc()
            self.respawns += 1
            self._spawn_worker()
