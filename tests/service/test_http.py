"""Wire-layer tests for :mod:`repro.service.http`: the typed-error →
status-code table (status, body shape, Retry-After), bearer-token scope
enforcement over HTTP, the SSE completion stream, and transport plumbing
(keep-alive, malformed requests, routing)."""

import http.client
import json
import threading

import pytest

from repro.circuits import library
from repro.devices.backend import Backend
from repro.exceptions import QueueTimeout, UnknownJob
from repro.results.counts import Counts
from repro.results.result import Result
from repro.runtime import execute
from repro.service import (
    AuthenticationError,
    BackgroundServer,
    ClientQuota,
    RuntimeService,
    ScopeDenied,
    ServiceClient,
)
from repro.service.http import ERROR_STATUS, error_body, status_for


class GatedBackend(Backend):
    """Blocks every run() on an event, so jobs stay in flight on demand."""

    name = "gated"

    def __init__(self, gate):
        self.gate = gate

    def run(self, circuit, shots=1024, seed=None):
        assert self.gate.wait(30), "gate never released"
        return Result(counts=Counts({"0": shots}), shots=shots)


def measured_bell():
    circuit = library.bell_pair()
    circuit.measure_all()
    return circuit


def qasm_bell():
    from repro.circuits.qasm import circuit_to_qasm

    return circuit_to_qasm(measured_bell())


def raw_request(port, method, path, token=None, body=None, headers=None):
    """One raw HTTP exchange, returning (status, headers dict, parsed body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        send_headers = dict(headers or {})
        if token is not None:
            send_headers["Authorization"] = f"Bearer {token}"
        payload = None
        if body is not None:
            payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        conn.request(method, path, body=payload, headers=send_headers)
        response = conn.getresponse()
        data = response.read()
        try:
            parsed = json.loads(data.decode()) if data else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = {"raw": data}
        return response.status, dict(response.getheaders()), parsed
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server():
    """A BackgroundServer over a two-tenant service (plus an admin).

    Module-scoped: tests share the server and only ever add jobs; the
    admission/quota tests that need bespoke policies build their own."""
    service = RuntimeService(executor="thread", journal=False,
                             accounting=False, allow_anonymous=False)
    service.register_client("alice", token="tok-alice",
                            scopes=("submit", "read"))
    service.register_client("bob", token="tok-bob", scopes=("submit", "read"))
    service.register_client("root", token="tok-admin", scopes=("admin",))
    with BackgroundServer(service) as background:
        yield background


# ----------------------------------------------------------------------
# The error table itself
# ----------------------------------------------------------------------


class TestErrorTable:
    def test_subclasses_precede_bases(self):
        # First match wins, so a subclass listed after its base would be
        # unreachable: QueueTimeout must map to 504 before JobError's 500
        # can shadow it, the typed service errors before ServiceError's
        # 400.  A shadowed entry is only tolerable when the status agrees
        # (QasmError/CircuitError are both 400).
        seen = []
        for cls, status in ERROR_STATUS:
            for earlier, earlier_status in seen:
                if issubclass(cls, earlier) and cls is not earlier:
                    assert status == earlier_status, (
                        f"{cls.__name__} ({status}) is shadowed by its base "
                        f"{earlier.__name__} ({earlier_status})"
                    )
            seen.append((cls, status))

    def test_status_for_picks_most_specific(self):
        assert status_for(QueueTimeout("late")) == 504
        assert status_for(UnknownJob("gone")) == 404
        assert status_for(ScopeDenied("no")) == 403
        assert status_for(AuthenticationError("who")) == 401
        assert status_for(RuntimeError("???")) == 500

    def test_error_body_carries_typed_telemetry(self):
        exc = ScopeDenied("no", client="alice", scope="admin",
                          granted=("submit", "read"))
        info = error_body(exc)["error"]
        assert info["type"] == "ScopeDenied"
        assert info["client"] == "alice"
        assert info["scope"] == "admin"
        assert info["granted"] == ["submit", "read"]

    def test_error_body_omits_unset_telemetry(self):
        info = error_body(UnknownJob("gone"))["error"]
        assert set(info) == {"type", "message"}


# ----------------------------------------------------------------------
# Status codes and body shape over the wire
# ----------------------------------------------------------------------


class TestWireErrorMapping:
    def submit_body(self, **overrides):
        body = {"circuits": qasm_bell(), "backend": "statevector",
                "shots": 16, "seed": 1}
        body.update(overrides)
        return body

    def assert_error(self, parsed, type_name):
        assert set(parsed) == {"error"}
        assert parsed["error"]["type"] == type_name
        assert parsed["error"]["message"]

    def test_unknown_token_is_401(self, server):
        status, _headers, parsed = raw_request(
            server.port, "POST", "/v1/jobs", token="nope",
            body=self.submit_body())
        assert status == 401
        self.assert_error(parsed, "AuthenticationError")

    def test_missing_token_is_401_when_anonymous_disabled(self, server):
        status, _headers, parsed = raw_request(
            server.port, "POST", "/v1/jobs", body=self.submit_body())
        assert status == 401
        self.assert_error(parsed, "AuthenticationError")

    def test_malformed_authorization_header_is_401(self, server):
        status, _headers, parsed = raw_request(
            server.port, "GET", "/v1/jobs/svc-1",
            headers={"Authorization": "Basic dXNlcjpwYXNz"})
        assert status == 401
        self.assert_error(parsed, "AuthenticationError")

    def test_rate_limited_is_429_with_retry_after(self):
        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False, allow_anonymous=False)
        service.register_client(
            "alice", token="tok-alice",
            quota=ClientQuota(shots_per_second=1.0, over_quota="reject"))
        with BackgroundServer(service) as background:
            first, _h, _p = raw_request(
                background.port, "POST", "/v1/jobs", token="tok-alice",
                body=self.submit_body(shots=1))
            assert first == 201
            status, headers, parsed = raw_request(
                background.port, "POST", "/v1/jobs", token="tok-alice",
                body=self.submit_body(shots=1000))
            assert status == 429
            self.assert_error(parsed, "RateLimited")
            # Retry-After is integer seconds rounded *up* from the token
            # bucket's refill estimate, and the body carries the float.
            retry_after = headers["Retry-After"]
            assert retry_after == str(int(retry_after))
            assert int(retry_after) >= 1
            assert parsed["error"]["retry_after"] > 0

    def test_quota_exceeded_is_429(self):
        gate = threading.Event()
        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False, allow_anonymous=False)
        service.register_client(
            "alice", token="tok-alice",
            quota=ClientQuota(max_in_flight_jobs=1, over_quota="reject"))
        backend = GatedBackend(gate)
        try:
            with BackgroundServer(service) as background:
                # The wire cannot carry a Backend object, so the job that
                # occupies the quota slot goes in through the in-process
                # submit on the server's own loop; the wire then sees a
                # full quota.
                import asyncio

                async def fill():
                    return await service.submit(
                        measured_bell(), backend, shots=16,
                        token="tok-alice")

                future = asyncio.run_coroutine_threadsafe(
                    fill(), background._loop)
                future.result(timeout=30)
                status, _headers, parsed = raw_request(
                    background.port, "POST", "/v1/jobs", token="tok-alice",
                    body=self.submit_body())
                assert status == 429
                self.assert_error(parsed, "QuotaExceeded")
                assert parsed["error"]["in_flight"] == 1
                assert parsed["error"]["limit"] == 1
                gate.set()  # let the job finish before the server stops
        finally:
            gate.set()

    def test_bad_json_is_400(self, server):
        status, _headers, parsed = raw_request(
            server.port, "POST", "/v1/jobs", token="tok-alice",
            body=b"this is not json")
        assert status == 400
        self.assert_error(parsed, "ValueError")

    def test_bad_qasm_is_400_qasm_error(self, server):
        status, _headers, parsed = raw_request(
            server.port, "POST", "/v1/jobs", token="tok-alice",
            body=self.submit_body(circuits="OPENQASM 3.0; nonsense"))
        assert status == 400
        self.assert_error(parsed, "QasmError")

    def test_unknown_submit_field_is_400(self, server):
        status, _headers, parsed = raw_request(
            server.port, "POST", "/v1/jobs", token="tok-alice",
            body=self.submit_body(shotz=16))
        assert status == 400
        self.assert_error(parsed, "ValueError")
        assert "shotz" in parsed["error"]["message"]

    def test_unknown_backend_is_400(self, server):
        status, _headers, parsed = raw_request(
            server.port, "POST", "/v1/jobs", token="tok-alice",
            body=self.submit_body(backend="warp-drive"))
        assert status == 400

    def test_bool_shots_is_400(self, server):
        status, _headers, parsed = raw_request(
            server.port, "POST", "/v1/jobs", token="tok-alice",
            body=self.submit_body(shots=True))
        assert status == 400
        self.assert_error(parsed, "ValueError")

    def test_unknown_job_id_is_404(self, server):
        status, _headers, parsed = raw_request(
            server.port, "GET", "/v1/jobs/svc-424242", token="tok-alice")
        assert status == 404
        self.assert_error(parsed, "UnknownJob")
        assert parsed["error"]["job_id"] == "svc-424242"

    def test_unknown_route_is_404(self, server):
        status, _headers, parsed = raw_request(
            server.port, "GET", "/v2/everything", token="tok-alice")
        assert status == 404
        assert parsed["error"]["type"] == "NotFound"

    def test_wrong_method_is_405(self, server):
        status, _headers, parsed = raw_request(
            server.port, "DELETE", "/v1/jobs", token="tok-alice")
        assert status == 405
        assert parsed["error"]["type"] == "MethodNotAllowed"

    def test_wait_timeout_while_blocked_is_504_not_500(self):
        gate = threading.Event()
        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False, allow_anonymous=False)
        service.register_client("alice", token="tok-alice")
        backend = GatedBackend(gate)
        try:
            with BackgroundServer(service) as background:
                import asyncio

                async def fill():
                    return await service.submit(
                        measured_bell(), backend, shots=16,
                        token="tok-alice")

                handle = asyncio.run_coroutine_threadsafe(
                    fill(), background._loop).result(timeout=30)
                status, _headers, parsed = raw_request(
                    background.port, "GET",
                    f"/v1/jobs/{handle.job_id}/counts?timeout=0.05",
                    token="tok-alice")
                # The job did not fail; the *request* timed out.
                assert status == 504
                assert set(parsed) == {"error"}
                gate.set()  # let the job finish before the server stops
        finally:
            gate.set()

    def test_invalid_timeout_parameter_is_400(self, server):
        _status, _headers, created = raw_request(
            server.port, "POST", "/v1/jobs", token="tok-alice",
            body=self.submit_body())
        status, _headers, parsed = raw_request(
            server.port, "GET",
            f"/v1/jobs/{created['job_id']}/counts?timeout=soon",
            token="tok-alice")
        assert status == 400
        self.assert_error(parsed, "ValueError")

    def test_oversized_body_is_413(self, server):
        from repro.service.http import MAX_BODY_BYTES

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Authorization", "Bearer tok-alice")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Token scopes over the wire
# ----------------------------------------------------------------------


class TestScopeEnforcement:
    def submit(self, port, token):
        status, _headers, parsed = raw_request(
            port, "POST", "/v1/jobs", token=token,
            body={"circuits": qasm_bell(), "backend": "statevector",
                  "shots": 16, "seed": 3})
        assert status == 201
        return parsed["job_id"]

    def test_tenant_cannot_read_another_tenants_job(self, server):
        job_id = self.submit(server.port, "tok-alice")
        status, _headers, parsed = raw_request(
            server.port, "GET", f"/v1/jobs/{job_id}", token="tok-bob")
        assert status == 403
        assert parsed["error"]["type"] == "ScopeDenied"
        assert parsed["error"]["client"] == "bob"

    def test_admin_reads_any_tenants_job(self, server):
        job_id = self.submit(server.port, "tok-alice")
        status, _headers, parsed = raw_request(
            server.port, "GET", f"/v1/jobs/{job_id}", token="tok-admin")
        assert status == 200
        assert parsed["client"] == "alice"

    def test_submit_only_token_cannot_read_even_its_own_job(self):
        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False, allow_anonymous=False)
        service.register_client("writer", token="tok-w", scopes=("submit",))
        with BackgroundServer(service) as background:
            job_id = self.submit(background.port, "tok-w")
            status, _headers, parsed = raw_request(
                background.port, "GET", f"/v1/jobs/{job_id}", token="tok-w")
            assert status == 403
            assert parsed["error"]["type"] == "ScopeDenied"

    def test_stats_requires_admin_scope(self, server):
        status, _headers, parsed = raw_request(
            server.port, "GET", "/v1/stats", token="tok-alice")
        assert status == 403
        status, _headers, parsed = raw_request(
            server.port, "GET", "/v1/stats", token="tok-admin")
        assert status == 200
        assert "settlement_errors" in parsed

    def test_healthz_needs_no_auth(self, server):
        status, _headers, parsed = raw_request(
            server.port, "GET", "/v1/healthz")
        assert status == 200
        assert parsed == {"ok": True}


# ----------------------------------------------------------------------
# The happy path: submit, status, results, SSE events, keep-alive
# ----------------------------------------------------------------------


class TestWireHappyPath:
    def test_submit_then_counts_matches_execute(self, server):
        status, _headers, created = raw_request(
            server.port, "POST", "/v1/jobs", token="tok-alice",
            body={"circuits": qasm_bell(), "backend": "statevector",
                  "shots": 128, "seed": 11})
        assert status == 201
        assert created["client"] == "alice"
        assert created["size"] == 1
        job_id = created["job_id"]
        assert job_id.startswith("svc-")

        status, _headers, snapshot = raw_request(
            server.port, "GET", f"/v1/jobs/{job_id}?timeout=30",
            token="tok-alice")
        assert status == 200
        assert snapshot["job_id"] == job_id

        status, _headers, payload = raw_request(
            server.port, "GET", f"/v1/jobs/{job_id}/counts?timeout=30",
            token="tok-alice")
        assert status == 200
        reference = execute(measured_bell(), "statevector", shots=128,
                            seed=11).result().counts
        assert payload["counts"] == [dict(reference)]

    def test_result_endpoint_carries_shots_and_metadata(self, server):
        _status, _headers, created = raw_request(
            server.port, "POST", "/v1/jobs", token="tok-alice",
            body={"circuits": qasm_bell(), "backend": "statevector",
                  "shots": 64, "seed": 5})
        status, _headers, payload = raw_request(
            server.port, "GET",
            f"/v1/jobs/{created['job_id']}/result?timeout=30",
            token="tok-alice")
        assert status == 200
        (result,) = payload["results"]
        assert result["shots"] == 64
        assert sum(result["counts"].values()) == 64
        assert isinstance(result["metadata"], dict)

    def test_batch_submission_returns_ordered_counts(self, server):
        circuits = [qasm_bell(), qasm_bell()]
        _status, _headers, created = raw_request(
            server.port, "POST", "/v1/jobs", token="tok-alice",
            body={"circuits": circuits, "backend": "statevector",
                  "shots": [32, 64], "seed": [1, 2]})
        assert created["size"] == 2
        _status, _headers, payload = raw_request(
            server.port, "GET",
            f"/v1/jobs/{created['job_id']}/counts?timeout=30",
            token="tok-alice")
        assert [sum(c.values()) for c in payload["counts"]] == [32, 64]

    def test_events_stream_one_job_event_per_circuit_then_settled(self, server):
        with ServiceClient(server.url, token="tok-alice") as client:
            job_id = client.submit(
                [measured_bell(), measured_bell()], backend="statevector",
                shots=16, seed=9)
            events = list(client.events(job_id, timeout=30))
        kinds = [kind for kind, _data in events]
        assert kinds == ["job", "job", "settled"]
        assert sorted(data["index"] for kind, data in events
                      if kind == "job") == [0, 1]
        assert all(data["status"] == "done" for kind, data in events
                   if kind == "job")
        settled = events[-1][1]
        assert settled == {"job_id": job_id, "status": "done"}

    def test_events_stream_reports_failed_job(self, server):
        # A backend that raises cannot travel over the wire; plant the
        # failing job in-process on the server's loop and stream its
        # events over HTTP — the terminal frame must say "failed".
        import asyncio

        class FailingBackend(Backend):
            name = "faulty"

            def run(self, circuit, shots=1024, seed=None):
                raise RuntimeError("hardware on fire")

        async def fail():
            return await server.service.submit(
                measured_bell(), FailingBackend(), shots=16,
                token="tok-alice")

        handle = asyncio.run_coroutine_threadsafe(
            fail(), server._loop).result(timeout=30)
        with ServiceClient(server.url, token="tok-alice") as client:
            events = list(client.events(handle.job_id, timeout=30))
        kinds = [kind for kind, _data in events]
        assert kinds == ["job", "settled"]
        # The batch dispatched fine (settled status "done"); the job
        # itself errored, which the per-job frame reports.
        assert events[0][1]["status"] == "error"

    def test_keep_alive_serves_many_requests_per_connection(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            for _ in range(3):
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()

    def test_connection_close_honoured(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("GET", "/v1/healthz",
                         headers={"Connection": "close"})
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") in ("close", None)
            response.read()
        finally:
            conn.close()

    def test_malformed_request_line_answers_400(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.sendall(b"NOT A VALID REQUEST\r\n\r\n")
            data = sock.recv(4096)
        assert b"400" in data.split(b"\r\n", 1)[0]


class TestShutdown:
    def test_stop_with_connected_client_logs_no_error(self, caplog):
        """A client still holding its keep-alive connection when the
        server stops used to leave a cancelled handler task behind, which
        asyncio reported as an ERROR with a CancelledError traceback."""
        import logging

        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False)
        with caplog.at_level(logging.ERROR):
            background = BackgroundServer(service).start()
            client = ServiceClient(background.url)
            try:
                job_id = client.submit(measured_bell(), "statevector",
                                       shots=16, seed=1)
                assert sum(client.counts(job_id)[0].values()) == 16
                background.stop()
            finally:
                client.close()
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_stop_abandons_in_flight_job_within_the_deadline(self):
        """stop() is bounded by one deadline: a job still running when it
        passes is abandoned, and no server or dispatcher thread survives."""
        import asyncio
        import time

        from repro.exceptions import JobAbandoned
        from repro.runtime.scheduler import CLOSE_GRACE_S

        gate = threading.Event()
        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False)
        try:
            background = BackgroundServer(service).start()
            http_thread = background._thread

            async def fill():
                job = await service.submit(measured_bell(),
                                           GatedBackend(gate), shots=16)
                await job.jobs(timeout=30)
                return job

            handle = asyncio.run_coroutine_threadsafe(
                fill(), background._loop).result(timeout=30)
            start = time.monotonic()
            background.stop()
            assert time.monotonic() - start <= CLOSE_GRACE_S + 2
            assert handle.done() and handle.status() == "failed"
            with pytest.raises(JobAbandoned):
                handle.batch.result(timeout=0)
            assert not http_thread.is_alive()
            assert not service.scheduler._thread.is_alive()
        finally:
            gate.set()
