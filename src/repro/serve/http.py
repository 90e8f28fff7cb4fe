"""Stdlib-only HTTP JSON API over a :class:`PredictorService`.

Endpoints::

    POST /v1/predict    {"kernel": ..., "point": {...}}            one point
                        {"kernel": ..., "points": [{...}, ...]}    batch
                        optional: "valid_threshold", "objectives_for",
                        "deadline_ms" (latency budget; expired work is
                        shed with 429 instead of computed)
    POST /v1/dse/top    {"kernel": ..., "top": 10, "time_limit": 10}
    GET  /v1/model      identity of the artifact currently serving
    POST /v1/model/reload   follow the registry "current" pointer and
                        hot-swap if it moved (registry-backed servers)
    GET  /healthz
    GET  /metrics

Prediction and DSE responses carry a ``"model"`` object (version,
sha256, path) naming the artifact that computed them, so clients can
pin results to a model version across hot swaps.
    GET  /v1/trace      debug: the process trace buffer as trace JSON
                        (empty unless tracing is enabled, e.g.
                        ``repro serve --trace``)

Errors come back as structured JSON ``{"error": {"type", "message"}}``:
400 for malformed requests and invalid design points, 404 for unknown
kernels and paths, 413 for oversized bodies, 429 with a ``Retry-After``
header when admission control sheds load (queue full or deadline
already passed), 500 for everything unexpected.  A request line or
headers the handler cannot read get the stdlib's plain error page: 400,
505 for HTTP/2 and later, 431 for oversized headers.  Overload is by design
never a 5xx: a shed request is the server *working correctly* at
capacity, and load tests assert zero 5xx under sustained bursts.
Shutdown is graceful: :meth:`ServeHTTPServer.stop` stops accepting
connections, then drains the in-flight micro-batches before returning.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from ..errors import (
    BacklogFullError,
    DeadlineExceededError,
    DesignSpaceError,
    ReproError,
    ServeError,
)
from ..model.predictor import DEFAULT_VALID_THRESHOLD
from ..obs import is_enabled, span, trace_payload
from .schemas import point_from_payload, prediction_payload
from .service import PredictorService

__all__ = ["ServeHTTPServer", "predict_payload", "start_server"]

#: Reject request bodies beyond this many bytes (413).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Response write buffer; responses up to this size leave in one send.
WRITE_BUFFER_BYTES = 64 * 1024

#: Longest header line and most header lines a request may carry (the
#: stdlib's limits); past either the answer is 431.
MAX_LINE_BYTES = 65536
MAX_HEADERS = 100


class _RequestError(Exception):
    """Internal: carries an HTTP status + structured error payload."""

    def __init__(self, status: int, kind: str, message: str,
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.payload = {"error": {"type": kind, "message": message}}
        self.headers = dict(headers or {})


def _shed(kind: str, exc: Exception) -> _RequestError:
    """429 + Retry-After for admission-control rejections.

    RFC 9110 wants integer Retry-After seconds, so the server's
    fractional drain estimate rounds *up* — a client that sleeps the
    advertised time should find capacity, not another 429.
    """
    seconds = max(float(getattr(exc, "retry_after_seconds", 0.1)), 0.0)
    return _RequestError(
        429, kind, str(exc),
        headers={"Retry-After": str(max(int(math.ceil(seconds)), 1))},
    )


def _error_for(exc: Exception) -> _RequestError:
    if isinstance(exc, _RequestError):
        return exc
    if isinstance(exc, BacklogFullError):
        return _shed("backlog_full", exc)
    if isinstance(exc, DeadlineExceededError):
        return _shed("deadline_exceeded", exc)
    if isinstance(exc, DesignSpaceError):
        return _RequestError(400, "invalid_design_point", str(exc))
    if isinstance(exc, ServeError):
        message = str(exc)
        if message.startswith("unknown device"):
            return _RequestError(400, "unknown_device", message)
        if message.startswith("unknown kernel"):
            return _RequestError(404, "unknown_kernel", message)
        if "timed out" in message:
            return _RequestError(504, "timeout", message)
        return _RequestError(400, "bad_request", message)
    if isinstance(exc, ReproError):
        return _RequestError(400, "bad_request", str(exc))
    return _RequestError(500, "internal_error", f"{type(exc).__name__}: {exc}")


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: Socket-level read timeout per request (slowloris guard).
    timeout = 30.0
    # Each response leaves as one write: headers and body collect in a
    # buffered ``wfile`` that ``handle_one_request`` flushes once, and
    # TCP_NODELAY sends that write at once.  With Nagle on and separate
    # header and body writes, every persistent-connection round trip
    # waited out the client's delayed-ACK timer (~40 ms).
    disable_nagle_algorithm = True
    wbufsize = WRITE_BUFFER_BYTES

    # Quiet by default; the server object can collect access lines.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.access_log is not None:
            self.server.access_log.append(format % args)

    # -- plumbing --------------------------------------------------------------

    def parse_request(self) -> bool:
        """Parse the request line and headers; on failure answer and
        return False.

        Answers as the stdlib handler does: 400 for a bad request line
        or version, 505 for HTTP/2 and later, 431 for a header line past
        :data:`MAX_LINE_BYTES` or more than :data:`MAX_HEADERS` headers.
        The stdlib parses headers through ``email.parser``, about a
        fifth of a cached request's handler time; this reads
        ``name: value`` lines itself and answers 400 to a folded
        (obs-fold) or colon-less line.  ``headers`` maps each lower-cased name to its first value.
        """
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the protocol version
            version = words[-1]
            number = _http_version(version)
            if number is None:
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
                return False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
                return False
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST, f"Bad request syntax ({self.requestline!r})"
            )
            return False
        command, path = words[:2]
        if len(words) == 2:  # HTTP/0.9
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})"
                )
                return False
        if path.startswith("//"):  # a client would read it as a host (gh-87389)
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path

        self.headers = headers = {}
        count = 0
        while True:
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long", "header line"
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > MAX_HEADERS:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers",
                    f"got more than {MAX_HEADERS} headers",
                )
                return False
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line")
                return False
            headers.setdefault(name.lower(), value.strip())

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def handle_expect_100(self) -> bool:
        # The buffered wfile would hold "100 Continue" back until the
        # final response; the client is waiting for it before the body.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send_json(self, status: int, payload: Dict[str, object],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict[str, object]:
        try:
            length = int(self.headers.get("content-length", "0"))
        except ValueError:
            raise _RequestError(400, "bad_request", "bad Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _RequestError(
                413, "payload_too_large", f"body exceeds {MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise _RequestError(400, "bad_json", f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _RequestError(400, "bad_json", "request body must be a JSON object")
        return payload

    def _dispatch(self, endpoint: str, handler) -> None:
        service: PredictorService = self.server.service
        start = time.perf_counter()
        # Root span per request: handler threads have no open parent, so
        # everything the handler triggers (pipeline batches, DSE shards)
        # nests under it in the exported trace.
        with span("serve.request", endpoint=endpoint) as request_span:
            headers: Dict[str, str] = {}
            try:
                status, payload = handler(service)
            except Exception as exc:  # all failures become structured JSON
                error = _error_for(exc)
                status, payload, headers = error.status, error.payload, error.headers
            request_span.set(status=status)
        service.metrics.record_request(endpoint, time.perf_counter() - start, status)
        self._send_json(status, payload, headers)

    # -- endpoints -------------------------------------------------------------

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._dispatch("/healthz", lambda s: (200, s.health()))
        elif self.path == "/metrics":
            self._dispatch("/metrics", lambda s: (200, s.metrics_snapshot()))
        elif self.path == "/v1/trace":
            self._dispatch("/v1/trace", lambda s: (200, _trace_snapshot()))
        elif self.path == "/v1/model":
            self._dispatch(
                "/v1/model",
                lambda s: (200, {"model": s.model_info, "swaps": s.swaps}),
            )
        else:
            self._send_json(
                404,
                {"error": {"type": "not_found", "message": f"no route {self.path}"}},
            )

    def do_POST(self) -> None:
        if self.path == "/v1/predict":
            self._dispatch("/v1/predict", self._predict)
        elif self.path == "/v1/dse/top":
            self._dispatch("/v1/dse/top", self._dse_top)
        elif self.path == "/v1/model/reload":
            self._dispatch("/v1/model/reload", self._reload_model)
        else:
            self._send_json(
                404,
                {"error": {"type": "not_found", "message": f"no route {self.path}"}},
            )

    def _predict(self, service: PredictorService) -> Tuple[int, Dict[str, object]]:
        return 200, predict_payload(service, self._read_json())

    def _dse_top(self, service: PredictorService) -> Tuple[int, Dict[str, object]]:
        body = self._read_json()
        kernel = body.get("kernel")
        if not isinstance(kernel, str):
            raise _RequestError(400, "bad_request", "missing string field 'kernel'")
        try:
            top = int(body.get("top", 10))
            time_limit = float(body.get("time_limit", 10.0))
            workers = int(body.get("workers", 1))
            budget = int(body.get("budget", 1000))
            seed = int(body.get("seed", 0))
        except (TypeError, ValueError):
            raise _RequestError(
                400, "bad_request",
                "'top', 'time_limit', 'workers', 'budget' and 'seed' "
                "must be numbers",
            ) from None
        strategy = body.get("strategy", "beam")
        if not isinstance(strategy, str):
            raise _RequestError(400, "bad_request", "'strategy' must be a string")
        device = _device_field(body)
        return 200, service.dse_top(
            kernel, top=top, time_limit_seconds=time_limit, workers=workers,
            strategy=strategy, budget=budget, seed=seed, device=device,
        )

    def _reload_model(self, service: PredictorService) -> Tuple[int, Dict[str, object]]:
        self._read_json()  # accept (and ignore) an empty JSON body
        info, swapped = service.reload()
        # Fleet propagation: in a worker pool, the worker that happened
        # to accept this request tells the pool parent, which broadcasts
        # the reload to its siblings.
        callback = getattr(self.server, "on_reload", None)
        if swapped and callback is not None:
            callback(info)
        return 200, {"model": info, "swapped": swapped}


def predict_payload(service: PredictorService, body: Dict[str, object]) -> Dict[str, object]:
    """The ``/v1/predict`` response payload for a decoded request body.

    A malformed request raises an error the handler maps to a 4xx.
    """
    kernel = body.get("kernel")
    if not isinstance(kernel, str):
        raise _RequestError(400, "bad_request", "missing string field 'kernel'")
    if ("point" in body) == ("points" in body):
        raise _RequestError(
            400, "bad_request", "provide exactly one of 'point' or 'points'"
        )
    raw_points = [body["point"]] if "point" in body else body["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise _RequestError(400, "bad_request", "'points' must be a non-empty list")
    points = [point_from_payload(p) for p in raw_points]
    try:
        threshold = float(body.get("valid_threshold", DEFAULT_VALID_THRESHOLD))
    except (TypeError, ValueError):
        raise _RequestError(
            400, "bad_request", "'valid_threshold' must be a number"
        ) from None
    objectives_for = body.get("objectives_for", "all")
    device = _device_field(body)
    deadline_seconds = None
    if "deadline_ms" in body:
        try:
            deadline_ms = float(body["deadline_ms"])
        except (TypeError, ValueError):
            raise _RequestError(
                400, "bad_request", "'deadline_ms' must be a number"
            ) from None
        if deadline_ms <= 0:
            raise _RequestError(400, "bad_request", "'deadline_ms' must be > 0")
        deadline_seconds = deadline_ms / 1000.0
    predictions, model_info = service.predict_versioned(
        kernel, points, threshold, objectives_for,
        deadline_seconds=deadline_seconds, device=device,
    )
    return {
        "kernel": kernel,
        "device": service.resolve_device(device).name,
        "predictions": [prediction_payload(p) for p in predictions],
        "model": model_info,
    }


def _http_version(version: str) -> Optional[Tuple[int, int]]:
    """``HTTP/x.y`` as ``(x, y)``; None unless there is one dot between
    two runs of at most 10 ASCII digits (RFC 2145)."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(
        p.isascii() and p.isdigit() and len(p) <= 10 for p in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


def _device_field(body: Dict[str, object]) -> str:
    """Optional ``device`` request field ("" when absent; 400 on non-string)."""
    device = body.get("device", "")
    if not isinstance(device, str):
        raise _RequestError(400, "bad_request", "'device' must be a string")
    return device


def _trace_snapshot() -> Dict[str, object]:
    """The process trace buffer as trace JSON, plus the enabled flag."""
    payload = trace_payload()
    payload["enabled"] = is_enabled()
    return payload


class ServeHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`PredictorService`.

    With ``listener`` the server adopts an already-bound, already-
    listening socket instead of binding ``address`` itself.  That is
    how the pre-fork :class:`~repro.serve.pool.WorkerPool` scales out:
    the parent binds once, every forked worker wraps the inherited fd,
    and the kernel's shared accept queue load-balances connections —
    no per-worker ports, no lost backlog during rolling restarts.

    ``on_reload(model_info)`` is invoked after a ``/v1/model/reload``
    actually swaps, so a pool worker can ask the parent to propagate
    the reload fleet-wide.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: PredictorService,
                 access_log: Optional[list] = None,
                 listener: Optional[socket.socket] = None,
                 on_reload: Optional[Callable[[Dict[str, object]], None]] = None):
        if listener is None:
            super().__init__(address, _Handler)
        else:
            super().__init__(address, _Handler, bind_and_activate=False)
            self.socket.close()  # replace the unbound socket wholesale
            self.socket = listener
            self.server_address = listener.getsockname()
            # Mirror HTTPServer.server_bind: handlers may read these.
            host, port = self.server_address[:2]
            self.server_name = host
            self.server_port = port
        self.service = service
        self.access_log = access_log
        self.on_reload = on_reload

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, then drain in-flight batches."""
        self.shutdown()
        self.server_close()
        self.service.close(drain=drain)


def start_server(
    service: PredictorService, host: str = "127.0.0.1", port: int = 0
) -> ServeHTTPServer:
    """Start serving in a background thread; returns the bound server.

    ``port=0`` binds an ephemeral port (see :attr:`ServeHTTPServer.url`).
    The caller owns shutdown via :meth:`ServeHTTPServer.stop`.
    """
    server = ServeHTTPServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    return server
