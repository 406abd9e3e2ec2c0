"""HTTP/1.1 transport front-end for :class:`RuntimeService`.

Everything below :mod:`repro.service.service` is in-process: a tenant
needs a Python interpreter inside the service's address space to submit
work.  This module puts the service on the wire — a stdlib-only asyncio
HTTP/1.1 server speaking JSON, so any process with a socket (``curl``,
the bundled :class:`~repro.service.client.ServiceClient`, a browser) can
submit circuits, poll ids and stream completions::

    service = RuntimeService(allow_anonymous=False)
    token = service.register_client("alice", scopes=("submit", "read"))
    server = await serve(service, "127.0.0.1", 8080)

    $ curl -H "Authorization: Bearer $TOKEN" \\
        -d '{"circuits": "<qasm>", "backend": "noisy:ibmqx4", \\
             "shots": 1024, "seed": 7}' http://127.0.0.1:8080/v1/jobs

Endpoints (all JSON unless noted)::

    POST /v1/jobs                  submit QASM circuits -> 201 {job_id,...}
    GET  /v1/jobs/{id}             status snapshot for a svc-N id
    GET  /v1/jobs/{id}/result      await + return [{counts, shots, metadata}]
    GET  /v1/jobs/{id}/counts      await + return the histograms only
    GET  /v1/jobs/{id}/events      Server-Sent Events completion stream
    GET  /v1/jobs/{id}/trace       trace span tree (owner or admin)
    GET  /v1/stats                 service stats() snapshot (admin scope)
    GET  /v1/metrics               Prometheus text exposition (admin scope)
    GET  /v1/healthz               liveness probe (no auth)
    GET  /v1/health                readiness + degradation detail (no auth;
                                   503 + Retry-After while draining/shedding)

``/result``, ``/counts`` and ``/events`` accept ``?timeout=SECONDS``.
Circuits travel as OpenQASM 2.0 text (:mod:`repro.circuits.qasm`), so the
wire format is engine-agnostic and the counts a remote client reads back
are bit-identical to an in-process :func:`repro.runtime.execute.execute`
of the same circuit/backend/shots/seed — the transport, like the service,
decides *when* and *whether*, never *what*.

Authentication is the service's own bearer-token scheme: the
``Authorization: Bearer <token>`` header value is handed verbatim to
:class:`~repro.service.auth.TokenAuthenticator` (absent header = the
anonymous identity, if the service allows it).  Typed service errors map
onto HTTP status codes through one table (:data:`ERROR_STATUS`) and every
error body has the same shape::

    {"error": {"type": "RateLimited", "message": "...", "retry_after": 1.5}}

with rate limits additionally answering a ``Retry-After`` header computed
from the token bucket — measured truth, not a canned backoff hint.

This is HTTP/1.1 with keep-alive and chunked responses only where needed
(the SSE stream); request bodies must carry ``Content-Length``.  TLS and
real credential management stay out of scope, exactly like
:mod:`repro.service.auth` documents.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import threading
from typing import Callable, Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import faults
from repro.circuits.qasm import circuit_from_qasm
from repro.runtime import get_backend
from repro.exceptions import (
    CircuitError,
    CircuitOpen,
    JobError,
    JobExpired,
    ProviderError,
    QasmError,
    QueueTimeout,
    ScopeDenied,
    ServiceError,
    ServiceOverloaded,
    UnknownJob,
)
from repro.service.auth import AuthenticationError
from repro.service.quota import QuotaExceeded, RateLimited
from repro.service.service import RuntimeService, ServiceJob

#: The typed-error → HTTP status table, first match wins (subclasses
#: before their bases: ``QueueTimeout`` < ``JobError``, the service
#: errors < ``ServiceError``).  The client reverses this mapping from the
#: ``error.type`` field, so both ends speak the same exceptions.
ERROR_STATUS: Tuple[Tuple[type, int], ...] = (
    (RateLimited, 429),       # + Retry-After header from the token bucket
    (QuotaExceeded, 429),
    (ServiceOverloaded, 503),  # + Retry-After; load shedding / draining
    (CircuitOpen, 503),        # + Retry-After from the breaker cooldown
    (AuthenticationError, 401),
    (ScopeDenied, 403),
    (JobExpired, 404),
    (UnknownJob, 404),
    (QueueTimeout, 504),
    (QasmError, 400),         # unparsable circuit payload
    (CircuitError, 400),
    (ProviderError, 400),     # unknown backend spec
    (ServiceError, 400),      # residual service misuse (bad registration...)
    (ValueError, 400),
    (TypeError, 400),
    (JobError, 500),          # the job itself failed
)

#: Error attributes forwarded into the wire body when set, so typed
#: telemetry (retry seconds, queue position, granted scopes) survives the
#: hop and the client can rebuild the exception faithfully.
_ERROR_ATTRS = (
    "retry_after", "client", "scope", "granted", "in_flight", "limit",
    "waited", "queue_position", "queued_batches", "job_id",
    "queue_depth", "reason", "backend",
)

#: Submission payload fields; anything else is a 400 so typos fail loudly.
_SUBMIT_FIELDS = {"circuits", "backend", "shots", "seed", "priority"}

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 401: "Unauthorized",
    403: "Forbidden", 404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Hard cap on request bodies; a QASM batch is kilobytes, so anything
#: near this is abuse, not physics.
MAX_BODY_BYTES = 8 * 1024 * 1024

_MAX_HEADERS = 100

#: How long :meth:`ServiceServer.close` lets in-flight requests finish
#: before it cancels them.
CLOSE_GRACE_S = 10.0

_JOB_PATH = re.compile(r"/v1/jobs/([^/]+)(?:/(result|counts|events|trace))?")


def status_for(exc: BaseException) -> int:
    """Return the HTTP status for ``exc`` per :data:`ERROR_STATUS`."""
    for cls, status in ERROR_STATUS:
        if isinstance(exc, cls):
            return status
    return 500


def error_body(exc: BaseException) -> dict:
    """Build the standard ``{"error": {...}}`` wire body for ``exc``."""
    info: Dict[str, object] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    for attr in _ERROR_ATTRS:
        value = getattr(exc, attr, None)
        if value is None or value == "" or value == ():
            continue
        info[attr] = list(value) if isinstance(value, tuple) else value
    return {"error": info}


class _HttpError(Exception):
    """An error already resolved to a status + wire body (transport-level
    parse failures, 404/405 routing, and remapped wait timeouts)."""

    def __init__(self, status: int, body: Optional[dict] = None,
                 message: str = "") -> None:
        super().__init__(message or (body or {}).get("error", {}).get("message", ""))
        self.status = status
        self.body = body if body is not None else {
            "error": {"type": "BadRequest", "message": message}
        }


class _Request:
    """One parsed request: method, split target, headers, raw body."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, target: str, headers: Dict[str, str],
                 body: bytes) -> None:
        url = urlsplit(target)
        self.method = method
        self.path = url.path
        self.query = parse_qs(url.query)
        self.headers = headers
        self.body = body

    def timeout(self) -> Optional[float]:
        """The ``?timeout=SECONDS`` parameter, validated."""
        values = self.query.get("timeout")
        if not values:
            return None
        try:
            timeout = float(values[-1])
        except ValueError:
            raise ValueError(
                f"timeout must be a number of seconds, got {values[-1]!r}"
            ) from None
        if not math.isfinite(timeout) or timeout < 0:
            raise ValueError(
                f"timeout must be finite and non-negative, got {timeout}"
            )
        return timeout

    def keep_alive(self) -> bool:
        """Whether the client wants the connection kept after this response."""
        return self.headers.get("connection", "").lower() != "close"

    def bearer_token(self) -> Optional[str]:
        """Extract the ``Authorization: Bearer`` token (``None`` = absent)."""
        header = self.headers.get("authorization")
        if header is None:
            return None
        scheme, _, value = header.partition(" ")
        if scheme.lower() != "bearer" or not value.strip():
            raise AuthenticationError(
                "malformed Authorization header; expected 'Bearer <token>'"
            )
        return value.strip()


class ServiceServer:
    """The asyncio HTTP server wrapping one :class:`RuntimeService`.

    Construct, then ``await start()`` on the loop the service should bind
    to; ``port`` reports the actually-bound port (pass ``port=0`` for an
    OS-assigned one).  One server per service: requests run as plain
    coroutines on the service's loop, so every in-process invariant
    (admission under the service lock, settlement on the loop) holds for
    wire traffic too.
    """

    def __init__(self, service: RuntimeService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = False
        #: Live connection handlers; the idle ones (waiting for their
        #: next request) map to their writer so close() can hang up.
        self._handlers: Set[asyncio.Task] = set()
        self._idle: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> "ServiceServer":
        if self._server is not None:
            raise ServiceError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        return self

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, hang up idle keep-alive connections, and wait
        for the handlers; requests still running after
        :data:`CLOSE_GRACE_S` are cancelled."""
        if self._server is None:
            return
        self._closing = True
        self._server.close()
        for writer in self._idle.values():
            writer.close()
        if self._handlers:
            _done, pending = await asyncio.wait(set(self._handlers),
                                                timeout=CLOSE_GRACE_S)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending)
        await self._server.wait_closed()

    async def __aenter__(self) -> "ServiceServer":
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- connection plumbing ---------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if faults.should_fail("http.accept"):
            # Chaos hook: drop the connection on the floor, exactly like
            # an accept under memory pressure — clients see a reset and
            # must reconnect/retry.
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            while not self._closing:
                self._idle[task] = writer
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    await _send_json(writer, exc.status, exc.body,
                                     keep_alive=False)
                    return
                finally:
                    self._idle.pop(task, None)
                if request is None:
                    return
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, TimeoutError):
            pass  # peer went away mid-request; nothing to answer
        except asyncio.CancelledError:
            if not self._closing:
                raise
            # close() ran out of grace for this request: end quietly
            # rather than leave a cancelled task for the loop to report.
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None  # clean EOF between keep-alive requests
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise _HttpError(400, message=f"malformed request line {line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                return None  # EOF mid-headers: treat as a dropped peer
            if len(headers) >= _MAX_HEADERS:
                raise _HttpError(400, message="too many headers")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, message=f"malformed header {raw!r}")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _HttpError(400, message="malformed Content-Length") from None
            if length < 0:
                raise _HttpError(400, message="malformed Content-Length")
            if length > MAX_BODY_BYTES:
                raise _HttpError(
                    413, message=f"request body over {MAX_BODY_BYTES} bytes"
                )
            body = await reader.readexactly(length)
        elif headers.get("transfer-encoding"):
            raise _HttpError(
                400, message="chunked request bodies are not supported; "
                "send Content-Length"
            )
        return _Request(method, target, headers, body)

    # -- routing ---------------------------------------------------------

    async def _dispatch(self, request: _Request,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns whether to keep the connection.

        A client that sent ``Connection: close`` gets the same header
        echoed back and the connection torn down after the response.
        """
        keep = request.headers.get("connection", "").lower() != "close"
        try:
            handler, args = self._route(request)
            return await handler(request, writer, *args) and keep
        except _HttpError as exc:
            await _send_json(writer, exc.status, exc.body, keep_alive=keep)
            return keep
        except Exception as exc:  # the typed table, then a generic 500
            status = status_for(exc)
            headers = {}
            if isinstance(exc, (RateLimited, ServiceOverloaded, CircuitOpen)):
                headers["Retry-After"] = _retry_after_header(exc.retry_after)
            await _send_json(writer, status, error_body(exc),
                             extra_headers=headers, keep_alive=keep)
            return keep

    def _route(self, request: _Request) -> Tuple[Callable, tuple]:
        path = request.path
        if path == "/v1/healthz":
            self._require_method(request, "GET")
            return self._handle_healthz, ()
        if path == "/v1/health":
            self._require_method(request, "GET")
            return self._handle_health, ()
        if path == "/v1/jobs":
            self._require_method(request, "POST")
            return self._handle_submit, ()
        match = _JOB_PATH.fullmatch(path)
        if match:
            self._require_method(request, "GET")
            job_id, view = match.groups()
            handler = {
                None: self._handle_status,
                "result": self._handle_result,
                "counts": self._handle_counts,
                "events": self._handle_events,
                "trace": self._handle_trace,
            }[view]
            return handler, (job_id,)
        if path == "/v1/stats":
            self._require_method(request, "GET")
            return self._handle_stats, ()
        if path == "/v1/metrics":
            self._require_method(request, "GET")
            return self._handle_metrics, ()
        raise _HttpError(404, {
            "error": {"type": "NotFound", "message": f"no route for {path!r}"}
        })

    @staticmethod
    def _require_method(request: _Request, method: str) -> None:
        if request.method != method:
            raise _HttpError(405, {
                "error": {
                    "type": "MethodNotAllowed",
                    "message": f"{request.path} only accepts {method}",
                }
            })

    # -- handlers --------------------------------------------------------

    async def _handle_healthz(self, request: _Request,
                              writer: asyncio.StreamWriter) -> bool:
        await _send_json(writer, 200, {"ok": True},
                         keep_alive=request.keep_alive())
        return True

    async def _handle_health(self, request: _Request,
                             writer: asyncio.StreamWriter) -> bool:
        """Readiness probe: the service's ``health()`` report, unauthed.

        200 while the service would accept a submission; 503 with a
        ``Retry-After`` header while draining or shedding load — the
        shape load balancers and orchestrators expect, with the breaker
        /pool/journal detail in the body for humans.
        """
        report = self.service.health()
        status = 200 if report["ready"] else 503
        headers = {}
        if not report["ready"]:
            headers["Retry-After"] = _retry_after_header(
                report.get("retry_after", 1.0)
            )
        await _send_json(writer, status, _json_safe(report),
                         extra_headers=headers,
                         keep_alive=request.keep_alive())
        return True

    async def _handle_submit(self, request: _Request,
                             writer: asyncio.StreamWriter) -> bool:
        token = request.bearer_token()
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body must be a JSON object: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - _SUBMIT_FIELDS
        if unknown:
            raise ValueError(
                f"unknown submission field(s) {sorted(unknown)}; valid "
                f"fields: {sorted(_SUBMIT_FIELDS)}"
            )
        qasm = payload.get("circuits")
        single = isinstance(qasm, str)
        sources = [qasm] if single else qasm
        if (not isinstance(sources, list) or not sources
                or not all(isinstance(q, str) for q in sources)):
            raise ValueError(
                "'circuits' must be an OpenQASM 2.0 string or a non-empty "
                "list of them"
            )
        circuits = [circuit_from_qasm(q) for q in sources]
        backend = payload.get("backend")
        if not isinstance(backend, str) or not backend:
            raise ValueError("'backend' must be a backend spec string, e.g. "
                             "'statevector' or 'noisy:ibmqx4'")
        # Resolve eagerly: an unknown spec is this request's 400, not a
        # failed job the tenant discovers at collection time.
        get_backend(backend)
        shots = _validate_int_or_list(payload.get("shots", 1024), "shots")
        seed = payload.get("seed")
        if seed is not None:
            seed = _validate_int_or_list(seed, "seed")
        priority = payload.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ValueError(f"'priority' must be an integer, got {priority!r}")
        handle = await self.service.submit(
            circuits[0] if single else circuits, backend, shots=shots,
            seed=seed, token=token, priority=priority,
        )
        await _send_json(writer, 201, {
            "job_id": handle.job_id,
            "status": handle.status(),
            "client": handle.client,
            "size": handle.size,
        }, keep_alive=request.keep_alive())
        return True

    async def _handle_status(self, request: _Request,
                             writer: asyncio.StreamWriter,
                             job_id: str) -> bool:
        handle = self.service.job(job_id, request.bearer_token())
        await _send_json(writer, 200, {
            "job_id": handle.job_id,
            "status": handle.status(),
            "done": handle.done(),
            "client": handle.client,
            "size": handle.size,
        }, keep_alive=request.keep_alive())
        return True

    async def _collect(self, request: _Request, job_id: str):
        """Shared await-the-results path for ``/result`` and ``/counts``.

        A wait that times out while the job is genuinely still queued or
        running answers 504 (same as a queue-deadline drop) rather than
        the generic JobError 500 — the request timed out, the job did not
        fail.
        """
        handle = self.service.job(job_id, request.bearer_token())
        timeout = request.timeout()
        try:
            return handle, await handle.result(timeout)
        except QueueTimeout:
            raise
        except JobError as exc:
            if not handle.done() and handle.status() in ("queued", "running"):
                raise _HttpError(504, error_body(exc)) from exc
            raise

    async def _handle_result(self, request: _Request,
                             writer: asyncio.StreamWriter,
                             job_id: str) -> bool:
        handle, results = await self._collect(request, job_id)
        await _send_json(writer, 200, {
            "job_id": handle.job_id,
            "status": handle.status(),
            "results": [
                {
                    "counts": dict(result.counts),
                    "shots": result.shots,
                    "metadata": _json_safe(result.metadata),
                }
                for result in results
            ],
        }, keep_alive=request.keep_alive())
        return True

    async def _handle_counts(self, request: _Request,
                             writer: asyncio.StreamWriter,
                             job_id: str) -> bool:
        handle, results = await self._collect(request, job_id)
        await _send_json(writer, 200, {
            "job_id": handle.job_id,
            "counts": [dict(result.counts) for result in results],
        }, keep_alive=request.keep_alive())
        return True

    async def _handle_trace(self, request: _Request,
                            writer: asyncio.StreamWriter,
                            job_id: str) -> bool:
        # service.trace() reuses the owner-or-admin job() lookup, so the
        # wire endpoint inherits exactly the per-job read policy — and
        # answers journaled traces for recovered pre-restart ids.
        trace = self.service.trace(job_id, request.bearer_token())
        await _send_json(writer, 200, {
            "job_id": job_id,
            "trace": _json_safe(trace),
        }, keep_alive=request.keep_alive())
        return True

    async def _handle_metrics(self, request: _Request,
                              writer: asyncio.StreamWriter) -> bool:
        # Same tenant-boundary argument as /v1/stats: registry metrics
        # aggregate every client's traffic, so scraping needs admin.
        self.service.authenticator.authenticate(
            request.bearer_token(), scope="admin"
        )
        from repro.obs.metrics import DEFAULT_REGISTRY

        await _send_text(
            writer, 200, DEFAULT_REGISTRY.render_prometheus(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
            keep_alive=request.keep_alive(),
        )
        return True

    async def _handle_stats(self, request: _Request,
                            writer: asyncio.StreamWriter) -> bool:
        # Service-wide numbers cross tenant boundaries: admin only (the
        # anonymous identity of a single-tenant service carries it).
        self.service.authenticator.authenticate(
            request.bearer_token(), scope="admin"
        )
        await _send_json(writer, 200, _json_safe(self.service.stats()),
                         keep_alive=request.keep_alive())
        return True

    async def _handle_events(self, request: _Request,
                             writer: asyncio.StreamWriter,
                             job_id: str) -> bool:
        """Stream a job's completions as Server-Sent Events.

        One ``job`` event per finished runtime job (completion order, the
        async counterpart of ``as_completed()``), then one terminal
        ``settled`` event.  Typed errors *before* the stream starts map
        through the normal status table; errors mid-stream (the response
        status is already on the wire) become a final ``error`` event
        carrying the same body the plain endpoints would have returned.
        """
        handle = self.service.job(job_id, request.bearer_token())
        timeout = request.timeout()
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        async def emit(event: str, data: dict) -> None:
            frame = f"event: {event}\ndata: {json.dumps(_json_safe(data))}\n\n"
            payload = frame.encode("utf-8")
            writer.write(f"{len(payload):x}\r\n".encode("ascii"))
            writer.write(payload + b"\r\n")
            await writer.drain()

        try:
            if isinstance(handle, ServiceJob):
                index = 0
                async for job in handle.as_completed(timeout):
                    await emit("job", {
                        "index": index,
                        "status": job.status().value,
                        "circuit": getattr(job.circuit, "name", None),
                    })
                    index += 1
            await handle.wait(timeout)
            await emit("settled", {
                "job_id": handle.job_id,
                "status": handle.status(),
            })
        except (JobError, ServiceError) as exc:
            await emit("error", {
                **error_body(exc)["error"],
                "http_status": status_for(exc),
            })
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return False  # SSE responses close the connection


async def serve(service: RuntimeService, host: str = "127.0.0.1",
                port: int = 0, recover: bool = True) -> ServiceServer:
    """Start (and return) a :class:`ServiceServer` for ``service``.

    With ``recover=True`` (the default) a journaled service replays its
    journal first, so pre-restart ``svc-N`` ids resolve over the wire
    from the very first request the fresh process answers.
    """
    if recover and service.journal is not None:
        await service.recover()
    server = ServiceServer(service, host, port)
    await server.start()
    return server


class BackgroundServer:
    """Run a :class:`ServiceServer` on a dedicated event-loop thread.

    For synchronous embeddings — benchmarks, tests, driving a service
    from a plain script: the server (and therefore the service) gets its
    own loop on a daemon thread; :meth:`start` blocks until the port is
    bound, :meth:`stop` shuts the server down and (by default) closes the
    service with it.  Usable as a context manager.
    """

    def __init__(self, service: RuntimeService, host: str = "127.0.0.1",
                 port: int = 0, recover: bool = True) -> None:
        self.service = service
        self._host = host
        self._port = port
        self._recover = recover
        self._server: Optional[ServiceServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._close_service = True

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-service-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(60):
            raise ServiceError("HTTP server failed to start within 60s")
        if self._error is not None:
            raise self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup failures to start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._server = await serve(
            self.service, self._host, self._port, recover=self._recover
        )
        self._ready.set()
        await self._stop.wait()
        await self._server.close()
        if self._close_service:
            await self.service.close()

    @property
    def url(self) -> str:
        return self._server.url

    @property
    def port(self) -> int:
        return self._server.port

    def stop(self, close_service: bool = True) -> None:
        """Stop the server thread; ``close_service=False`` leaves the
        service's scheduler running for the caller to reuse."""
        if self._thread is None or self._loop is None:
            return
        self._close_service = close_service
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            pass  # loop already gone (startup failure path)
        self._thread.join(timeout=60)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _retry_after_header(retry_after: float) -> str:
    """Render the bucket's refill estimate as a Retry-After header value.

    HTTP Retry-After is integer seconds; round *up* so a client honouring
    it never retries into a still-empty bucket.
    """
    return str(max(1, math.ceil(retry_after)))


def _validate_int_or_list(value, field: str):
    """Validate a wire field that may be one int or a per-circuit list."""
    if isinstance(value, bool):
        raise ValueError(f"{field!r} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if (isinstance(value, list) and value
            and all(isinstance(v, int) and not isinstance(v, bool)
                    for v in value)):
        return value
    raise ValueError(
        f"{field!r} must be an integer or a non-empty list of integers, "
        f"got {value!r}"
    )


def _json_safe(value):
    """Recursively coerce ``value`` into JSON-serializable primitives.

    Result metadata may carry arbitrary objects (numpy scalars, enum
    members); the wire view stringifies what it cannot represent instead
    of failing the whole response.
    """
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        try:
            return _json_safe(value.item())
        except Exception:
            pass
    return str(value)


async def _send_json(writer: asyncio.StreamWriter, status: int, payload: dict,
                     extra_headers: Optional[Dict[str, str]] = None,
                     keep_alive: bool = True) -> None:
    await _send_body(
        writer, status, json.dumps(payload).encode("utf-8"),
        "application/json", extra_headers, keep_alive,
    )


async def _send_text(writer: asyncio.StreamWriter, status: int, text: str,
                     content_type: str = "text/plain; charset=utf-8",
                     keep_alive: bool = True) -> None:
    await _send_body(
        writer, status, text.encode("utf-8"), content_type, None, keep_alive
    )


async def _send_body(writer: asyncio.StreamWriter, status: int, body: bytes,
                     content_type: str,
                     extra_headers: Optional[Dict[str, str]],
                     keep_alive: bool) -> None:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()
