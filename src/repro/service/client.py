"""Synchronous stdlib client for the service's HTTP front-end.

:class:`ServiceClient` is the other end of :mod:`repro.service.http`: a
plain-``http.client`` consumer that serializes circuits to OpenQASM 2.0,
submits them with a bearer token, polls/awaits ``svc-N`` ids and streams
Server-Sent completion events — from a different thread, a different
process or a different machine.  The counts it reads back are
bit-identical to an in-process :func:`repro.runtime.execute.execute` of
the same submission (``tests/service/test_client.py`` pins it under both
executors), because the wire carries histograms verbatim and the service
never touches *what* runs.

Error handling mirrors the server's typed table in reverse: the
``error.type`` field of a non-2xx body is rebuilt into the same exception
the in-process API would have raised — :class:`RateLimited` with
``retry_after`` (from the body, falling back to the ``Retry-After``
header), :class:`QuotaExceeded`, :class:`ScopeDenied` with its scope
telemetry, :class:`AuthenticationError`, :class:`QueueTimeout`,
:class:`UnknownJob` — so calling code cannot tell a local service from a
remote one by its exceptions either.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlencode, urlsplit

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qasm import circuit_to_qasm
from repro.exceptions import (
    CircuitOpen,
    JobError,
    JobExpired,
    QasmError,
    QueueTimeout,
    ScopeDenied,
    ServiceError,
    ServiceOverloaded,
    UnknownJob,
)
from repro.service.auth import AuthenticationError
from repro.service.quota import QuotaExceeded, RateLimited


def _rebuild_rate_limited(message, info, headers):
    retry_after = info.get("retry_after")
    if retry_after is None:
        retry_after = headers.get("Retry-After", 0)
    return RateLimited(message, client=info.get("client", ""),
                       retry_after=float(retry_after or 0))


def _rebuild_quota(message, info, headers):
    return QuotaExceeded(message, client=info.get("client", ""),
                         in_flight=int(info.get("in_flight", 0)),
                         limit=int(info.get("limit", 0)))


def _rebuild_scope(message, info, headers):
    return ScopeDenied(message, client=info.get("client", ""),
                       scope=info.get("scope", ""),
                       granted=tuple(info.get("granted", ())))


def _rebuild_overloaded(message, info, headers):
    retry_after = info.get("retry_after")
    if retry_after is None:
        retry_after = headers.get("Retry-After", 1)
    return ServiceOverloaded(message,
                             retry_after=float(retry_after or 1),
                             queue_depth=int(info.get("queue_depth", 0)),
                             limit=int(info.get("limit", 0)),
                             reason=info.get("reason", "queue_depth"))


def _rebuild_circuit_open(message, info, headers):
    retry_after = info.get("retry_after")
    if retry_after is None:
        retry_after = headers.get("Retry-After", 0)
    return CircuitOpen(message, backend=info.get("backend", ""),
                       retry_after=float(retry_after or 0))


def _rebuild_queue_timeout(message, info, headers):
    return QueueTimeout(message, client=info.get("client", ""),
                        waited=float(info.get("waited", 0.0)),
                        queue_position=info.get("queue_position"),
                        queued_batches=int(info.get("queued_batches", 0)))


#: ``error.type`` on the wire -> rebuilder; the reverse of the server's
#: ERROR_STATUS table for the types that carry structured telemetry.
_REBUILDERS = {
    "RateLimited": _rebuild_rate_limited,
    "QuotaExceeded": _rebuild_quota,
    "ServiceOverloaded": _rebuild_overloaded,
    "CircuitOpen": _rebuild_circuit_open,
    "ScopeDenied": _rebuild_scope,
    "QueueTimeout": _rebuild_queue_timeout,
    "AuthenticationError": lambda m, i, h: AuthenticationError(m),
    "UnknownJob": lambda m, i, h: UnknownJob(m, job_id=i.get("job_id", "")),
    "JobExpired": lambda m, i, h: JobExpired(m, job_id=i.get("job_id", "")),
    "QasmError": lambda m, i, h: QasmError(m),
    "ValueError": lambda m, i, h: ValueError(m),
    "TypeError": lambda m, i, h: TypeError(m),
}


class ServiceClient:
    """Talk to a :class:`~repro.service.http.ServiceServer` over HTTP.

    Parameters
    ----------
    base_url:
        ``"http://host:port"`` (or bare ``"host:port"``).
    token:
        Bearer token sent with every request (``None`` relies on the
        server allowing anonymous access).
    timeout:
        Socket timeout in seconds for each HTTP exchange.  This bounds the
        *transport*; how long the server holds a ``result``/``counts``
        poll open is the separate per-call ``timeout=`` argument, which
        must be comfortably smaller.
    retries:
        Back-off-and-retry budget for *transient* rejections: the rate
        limiter's 429 (:class:`RateLimited`) and the 503s
        (:class:`~repro.exceptions.ServiceOverloaded`,
        :class:`~repro.exceptions.CircuitOpen`).  Each retry honours the
        server's ``retry_after`` (never sleeping less than it), adds
        jitter so a rejected storm does not re-arrive in lockstep, and
        caps the sleep at ``max_backoff_s``.  :class:`QuotaExceeded` is
        *not* retried — freeing quota is the caller's (or the server's
        ``over_quota="queue"`` policy's) job.  The default ``0`` keeps
        the historic raise-immediately behaviour.
    backoff_s / max_backoff_s:
        Base and cap for the retry sleep (exponential, jittered).

    One client holds one keep-alive connection and is not thread-safe —
    use a client per thread (they are cheap; the storm bench does exactly
    that).  Usable as a context manager.
    """

    #: Typed errors the retry budget applies to: all carry a
    #: ``retry_after`` hint and describe a *transient* server condition.
    RETRYABLE = (RateLimited, ServiceOverloaded, CircuitOpen)

    def __init__(self, base_url: str, token: Optional[str] = None,
                 timeout: float = 600.0, retries: int = 0,
                 backoff_s: float = 0.05, max_backoff_s: float = 5.0) -> None:
        if "//" not in base_url:
            base_url = "http://" + base_url
        url = urlsplit(base_url)
        if url.scheme != "http" or url.hostname is None:
            raise ValueError(
                f"base_url must be an http://host:port URL, got {base_url!r}"
            )
        self.host = url.hostname
        self.port = url.port if url.port is not None else 80
        self.token = token
        self.timeout = float(timeout)
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries!r}")
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing --------------------------------------------------------

    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None,
                 query: Optional[dict] = None, raw: bool = False,
                 any_status: bool = False):
        """One logical exchange, retried per the client's retry policy.

        With ``retries=0`` this is exactly one :meth:`_request_once`.
        Otherwise :data:`RETRYABLE` rejections are retried up to
        ``retries`` times, sleeping ``max(retry_after, exponential
        backoff)`` plus jitter between attempts, capped at
        ``max_backoff_s``; the final attempt's error propagates.
        """
        attempts = self.retries + 1
        for attempt in range(attempts):
            try:
                return self._request_once(method, path, payload, query,
                                          raw, any_status)
            except self.RETRYABLE as exc:
                if attempt == attempts - 1:
                    raise
                hint = float(getattr(exc, "retry_after", 0.0) or 0.0)
                delay = max(hint, self.backoff_s * (2 ** attempt))
                delay += random.uniform(0.0, delay / 2)
                time.sleep(min(delay, self.max_backoff_s))

    def _request_once(self, method: str, path: str,
                      payload: Optional[dict] = None,
                      query: Optional[dict] = None, raw: bool = False,
                      any_status: bool = False):
        """One exchange; reconnects once over a stale keep-alive.

        Returns the parsed JSON body — or, with ``raw=True``, the decoded
        text body untouched (the metrics endpoint speaks Prometheus text,
        not JSON).  Errors are always JSON and map through the typed
        table either way; ``any_status=True`` suppresses the raise and
        hands back whatever body came with the status (the health probe
        wants the 503 report, not an exception).
        """
        if query:
            path = f"{path}?{urlencode(query)}"
        body = None
        headers = self._headers()
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                break
            except (http.client.BadStatusLine, http.client.CannotSendRequest,
                    BrokenPipeError, ConnectionResetError):
                # The server closed the idle keep-alive connection between
                # calls; a fresh connection retries exactly once.
                self.close()
                if attempt:
                    raise
        data = response.read()
        text = data.decode("utf-8", errors="replace") if data else ""
        try:
            parsed = json.loads(text) if data else {}
        except json.JSONDecodeError:
            parsed = {}
        if response.status >= 400 and not any_status:
            raise self._error_for(response.status, parsed,
                                  dict(response.getheaders()))
        return text if raw else parsed

    @staticmethod
    def _error_for(status: int, payload: dict,
                   headers: Dict[str, str]) -> Exception:
        info = (payload or {}).get("error") or {}
        name = info.get("type", "")
        message = info.get("message") or f"HTTP {status}"
        rebuild = _REBUILDERS.get(name)
        if rebuild is not None:
            return rebuild(message, info, headers)
        if status == 401:
            return AuthenticationError(message)
        if status == 403:
            return ScopeDenied(message)
        if status == 404:
            return UnknownJob(message)
        if status == 503:
            return ServiceOverloaded(
                message, retry_after=float(headers.get("Retry-After", 1) or 1)
            )
        if status == 504:
            return QueueTimeout(message)
        if status == 400:
            return ValueError(message)
        if name == "JobError" or status >= 500:
            return JobError(message)
        return ServiceError(f"HTTP {status}: {message}")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the wire API ----------------------------------------------------

    def submit(self, circuits, backend: str, shots=1024, seed=None,
               priority: int = 0) -> str:
        """Submit circuits and return the service's ``svc-N`` job id.

        ``circuits`` may be a :class:`QuantumCircuit`, an OpenQASM 2.0
        string, or a list mixing either; circuits are serialized with
        :func:`~repro.circuits.qasm.circuit_to_qasm` before the hop.
        """
        single = isinstance(circuits, (QuantumCircuit, str))
        sources = [circuits] if single else list(circuits)
        serialized = [
            circuit_to_qasm(c) if isinstance(c, QuantumCircuit) else c
            for c in sources
        ]
        payload = {
            "circuits": serialized[0] if single else serialized,
            "backend": backend,
            "shots": shots,
            "priority": priority,
        }
        if seed is not None:
            payload["seed"] = seed
        return self._request("POST", "/v1/jobs", payload)["job_id"]

    def job(self, job_id: str) -> dict:
        """Return the full status snapshot for ``job_id``."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def status(self, job_id: str) -> str:
        """Return the job's status string by id."""
        return self.job(job_id)["status"]

    def result(self, job_id: str,
               timeout: Optional[float] = None) -> List[dict]:
        """Await and return ``[{counts, shots, metadata}, ...]`` by id."""
        query = {} if timeout is None else {"timeout": timeout}
        payload = self._request("GET", f"/v1/jobs/{job_id}/result",
                                query=query)
        return payload["results"]

    def counts(self, job_id: str,
               timeout: Optional[float] = None) -> List[Dict[str, int]]:
        """Await and return the ordered histograms by id — bit-identical
        to the in-process ``execute().counts()`` of the same submission."""
        query = {} if timeout is None else {"timeout": timeout}
        payload = self._request("GET", f"/v1/jobs/{job_id}/counts",
                                query=query)
        return payload["counts"]

    def trace(self, job_id: str) -> dict:
        """Return the job's trace span tree by id (owner or admin).

        The tree mirrors :meth:`RuntimeService.trace`: nested spans with
        root-relative ``start_s``/``duration_s`` seconds, per-chunk
        worker wall-clocks and engine names in ``attrs``, and structured
        ``events``.  Works for live jobs (in-flight spans report
        ``duration_s: null``) and for recovered pre-restart ids whose
        trace was journaled at settlement.
        """
        return self._request("GET", f"/v1/jobs/{job_id}/trace")["trace"]

    def stats(self) -> dict:
        """Return the service's ``stats()`` snapshot (admin scope)."""
        return self._request("GET", "/v1/stats")

    def metrics(self) -> str:
        """Return the ``/v1/metrics`` Prometheus text page (admin scope)."""
        return self._request("GET", "/v1/metrics", raw=True)

    def health(self) -> dict:
        """Return the ``/v1/health`` readiness report (no auth needed).

        Always returns the report — for a draining or load-shedding
        service (the wire 503) the report itself says so
        (``ready: false`` plus breaker/pool/journal detail) instead of
        raising, so monitoring loops need no exception handling.
        """
        return self._request_once("GET", "/v1/health", any_status=True)

    def events(self, job_id: str,
               timeout: Optional[float] = None) -> Iterator[Tuple[str, dict]]:
        """Stream the job's Server-Sent Events as ``(event, data)`` pairs.

        Yields one ``("job", {...})`` per completed runtime job in
        completion order, then a terminal ``("settled", {...})`` — or an
        ``("error", {...})`` carrying the typed wire body if the job went
        wrong mid-stream.  Uses a dedicated connection so the client's
        keep-alive connection stays free for status polls.
        """
        path = f"/v1/jobs/{job_id}/events"
        if timeout is not None:
            path += "?" + urlencode({"timeout": timeout})
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", path, headers=self._headers())
            response = conn.getresponse()
            if response.status >= 400:
                data = response.read()
                try:
                    parsed = json.loads(data.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    parsed = {}
                raise self._error_for(response.status, parsed,
                                      dict(response.getheaders()))
            event: Optional[str] = None
            data_lines: List[str] = []
            for raw in iter(response.readline, b""):
                line = raw.decode("utf-8").rstrip("\r\n")
                if line:
                    field, _, value = line.partition(":")
                    if field == "event":
                        event = value.strip()
                    elif field == "data":
                        data_lines.append(value.strip())
                    continue
                if event is None and not data_lines:
                    continue  # stray blank line
                data = json.loads("\n".join(data_lines)) if data_lines else {}
                yield (event or "message"), data
                event, data_lines = None, []
        finally:
            conn.close()

    def __repr__(self) -> str:
        return f"<ServiceClient http://{self.host}:{self.port}>"
