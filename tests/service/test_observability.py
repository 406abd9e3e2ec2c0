"""End-to-end job tracing and metrics exposition through the service.

Covers the observability layer's service-facing contract: the trace
span tree a submission accumulates across submit → admission → queue →
dispatch → per-chunk simulate → collect → settle, its owner-or-admin
wire exposition at ``/v1/jobs/{id}/trace`` (including recovered
pre-restart ids answered from the journaled tree), the Prometheus
scrape at ``/v1/metrics``, and the settlement-error trace events.
"""

import asyncio
import http.client

import pytest

from repro.circuits import library
from repro.exceptions import ScopeDenied, UnknownJob
from repro.service import (
    BackgroundServer,
    RuntimeService,
    ServiceClient,
)


def measured_ghz(n=3):
    circuit = library.ghz_state(n)
    circuit.measure_all()
    return circuit


def run(coro):
    return asyncio.run(coro)


def walk(node):
    yield node
    for child in node.get("children", ()):
        yield from walk(child)


async def settled_trace(service, token, executor_hint=None, **submit_kw):
    """Submit, collect, settle (including the executor leg), and trace."""
    submit_kw.setdefault("shots", 128)
    submit_kw.setdefault("seed", 7)
    handle = await service.submit(
        [measured_ghz(2), measured_ghz(3)], "statevector",
        token=token, **submit_kw,
    )
    await handle.result()
    await service.drain(30)
    # the journal/ledger settlement leg runs off-loop; let it land
    for _ in range(100):
        trace = handle.trace()
        if trace["duration_s"] is not None:
            break
        await asyncio.sleep(0.01)
    return handle, handle.trace()


class TestServiceTrace:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_span_tree_covers_every_stage(self, executor):
        async def main():
            service = RuntimeService(executor=executor, journal=False,
                                     accounting=False)
            try:
                token = service.register_client("alice")
                _handle, trace = await settled_trace(service, token)
                stages = [c["name"] for c in trace["children"]]
                for stage in ("admission", "queue", "dispatch", "circuit",
                              "settle"):
                    assert stage in stages, (stage, stages)
                assert trace["attrs"]["status"] == "done"
                assert trace["attrs"]["client"] == "alice"
                chunk_names = [
                    n["name"] for n in walk(trace) if n["name"] == "chunk"
                ]
                assert chunk_names, "no chunk spans reached the tree"
                collects = [
                    n for n in walk(trace) if n["name"] == "collect"
                ]
                assert collects
                return trace
            finally:
                await service.close()

        run(main())

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_worker_wall_clocks_consistent_with_job_latency(self, executor):
        """Acceptance: every chunk's worker wall-clock is positive,
        bounded by the submission's end-to-end duration (width 1 pool
        would make them sum below it; any width keeps each chunk's
        parent window inside the root window)."""
        async def main():
            service = RuntimeService(executor=executor, max_workers=1,
                                     journal=False, accounting=False)
            try:
                token = service.register_client("alice")
                _handle, trace = await settled_trace(service, token)
                end_to_end = trace["duration_s"]
                assert end_to_end is not None and end_to_end > 0
                chunks = [n for n in walk(trace) if n["name"] == "chunk"]
                assert chunks
                worker_total = 0.0
                for chunk in chunks:
                    wall = chunk["attrs"]["worker_wall_s"]
                    assert 0.0 <= wall
                    window_end = chunk["start_s"] + chunk["duration_s"]
                    assert window_end <= end_to_end + 1e-6
                    worker_total += wall
                # one worker at a time: simulate time fits the window
                assert worker_total <= end_to_end + 1e-6
            finally:
                await service.close()

        run(main())

    def test_trace_is_owner_or_admin_scoped(self):
        async def main():
            service = RuntimeService(executor="thread", journal=False,
                                     accounting=False, allow_anonymous=False)
            try:
                alice = service.register_client("alice")
                bob = service.register_client("bob")
                admin = service.register_client(
                    "root", scopes=("read", "admin")
                )
                handle, _trace = await settled_trace(service, alice)
                assert service.trace(handle.job_id, alice)["attrs"][
                    "client"] == "alice"
                assert service.trace(handle.job_id, admin) is not None
                with pytest.raises(ScopeDenied):
                    service.trace(handle.job_id, bob)
                with pytest.raises(UnknownJob):
                    service.trace("svc-9999", alice)
            finally:
                await service.close()

        run(main())

    def test_untraced_submission_answers_with_stub(self):
        from repro.obs.trace import set_tracing_enabled

        async def main():
            service = RuntimeService(executor="thread", journal=False,
                                     accounting=False)
            previous = set_tracing_enabled(False)
            try:
                token = service.register_client("alice")
                handle = await service.submit(
                    measured_ghz(2), "statevector", shots=32, seed=1,
                    token=token,
                )
                await handle.result()
                trace = handle.trace()
                assert trace["attrs"]["traced"] is False
                assert trace["children"] == []
            finally:
                set_tracing_enabled(previous)
                await service.close()

        run(main())

    def test_settlement_error_becomes_trace_event(self):
        """The once-per-class warning satellite: every settlement
        bookkeeping failure lands as a structured event on the owning
        job's span, naming the stage and the exception."""

        class BrokenJournal:
            durable = False

            def next_id(self):
                return 1

            def record_submission(self, *a, **k):
                return {}

            def record_settlement(self, *a, **k):
                raise OSError("disk wedged")

            def records(self):
                return []

            def __len__(self):
                return 0

            # len() == 0 must not read as "no journal": the service's
            # ``journal or None`` disable-switch checks truthiness.
            def __bool__(self):
                return True

        async def main():
            service = RuntimeService(executor="thread",
                                     journal=BrokenJournal(),
                                     accounting=False)
            try:
                token = service.register_client("alice")
                handle = await service.submit(
                    measured_ghz(2), "statevector", shots=32, seed=1,
                    token=token,
                )
                await handle.result()
                await service.drain(30)
                for _ in range(200):
                    events = [
                        e for n in walk(handle.trace())
                        for e in n.get("events", ())
                        if e["name"] == "settlement_error"
                    ]
                    if events:
                        break
                    await asyncio.sleep(0.01)
                assert events, "settlement error never reached the trace"
                assert events[0]["stage"] == "journal"
                assert events[0]["error"] == "OSError"
                assert "disk wedged" in events[0]["message"]
                assert service.stats()["settlement_errors"] >= 1
            finally:
                await service.close()

        run(main())

    def test_recovered_id_answers_trace_from_journal(self, tmp_path):
        """A restarted service answers /v1/jobs/{id}/trace for settled
        pre-restart ids with the journaled span tree."""
        cache_dir = str(tmp_path)

        async def first_life():
            service = RuntimeService(executor="thread",
                                     cache_dir=cache_dir)
            try:
                token = service.register_client("alice", token="tok-a")
                handle, trace = await settled_trace(service, token)
                # wait for the journaled settlement to land on disk
                for _ in range(200):
                    record = service.journal.record(handle.journal_id)
                    if record["settled"] and record.get("trace"):
                        break
                    await asyncio.sleep(0.01)
                assert record.get("trace"), "trace never journaled"
                return handle.job_id, trace
            finally:
                await service.close()

        async def second_life(job_id):
            service = RuntimeService(executor="thread",
                                     cache_dir=cache_dir)
            try:
                service.register_client("alice", token="tok-a")
                await service.recover()
                return service.trace(job_id, "tok-a")
            finally:
                await service.close()

        job_id, live_trace = run(first_life())
        recovered = run(second_life(job_id))
        assert recovered["attrs"]["status"] == "done"
        stages = [c["name"] for c in recovered["children"]]
        assert "settle" in stages and "dispatch" in stages
        # the journaled tree is the settled live tree
        assert recovered == live_trace

    def test_unjournaled_recovered_record_degrades_to_stub(self, tmp_path):
        from repro.service.journal import JobJournal

        journal = JobJournal(cache_dir=str(tmp_path))
        journal.record_submission(
            journal.next_id(), "alice", [measured_ghz(2)], "statevector",
            16, 1,
        )
        journal.record_settlement(1, "done", counts=[{"00": 16}],
                                  shots=[16])

        async def main():
            service = RuntimeService(executor="thread", journal=journal,
                                     accounting=False)
            try:
                service.register_client("alice", token="tok-a")
                await service.recover()
                trace = service.trace("svc-1", "tok-a")
                assert trace["attrs"]["traced"] is False
                assert trace["attrs"]["recovered"] is True
                assert trace["duration_s"] is not None
            finally:
                await service.close()

        run(main())


@pytest.fixture(scope="module")
def server():
    service = RuntimeService(executor="thread", journal=False,
                             accounting=False, allow_anonymous=False)
    service.register_client("alice", token="tok-alice",
                            scopes=("submit", "read"))
    service.register_client("bob", token="tok-bob", scopes=("submit", "read"))
    service.register_client("root", token="tok-admin",
                            scopes=("read", "admin"))
    with BackgroundServer(service) as background:
        yield background


class TestWireExposition:
    def submit_and_settle(self, server, token="tok-alice"):
        with ServiceClient(server.url, token=token) as client:
            job_id = client.submit(measured_ghz(2), "statevector",
                                   shots=64, seed=3)
            client.result(job_id, timeout=30)
        return job_id

    def test_trace_endpoint_returns_span_tree(self, server):
        job_id = self.submit_and_settle(server)
        with ServiceClient(server.url, token="tok-alice") as client:
            trace = client.trace(job_id)
        assert trace["name"] == "job"
        assert trace["attrs"]["job_id"] == job_id
        stages = [c["name"] for c in trace["children"]]
        for stage in ("admission", "queue", "dispatch", "circuit"):
            assert stage in stages

    def test_trace_endpoint_scoping(self, server):
        job_id = self.submit_and_settle(server)
        with ServiceClient(server.url, token="tok-bob") as other:
            with pytest.raises(ScopeDenied):
                other.trace(job_id)
        with ServiceClient(server.url, token="tok-admin") as admin:
            assert admin.trace(job_id)["attrs"]["client"] == "alice"
        with ServiceClient(server.url, token="tok-alice") as client:
            with pytest.raises(UnknownJob):
                client.trace("svc-424242")

    def test_metrics_endpoint_prometheus_text(self, server):
        self.submit_and_settle(server)
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("GET", "/v1/metrics",
                         headers={"Authorization": "Bearer tok-admin"})
            response = conn.getresponse()
            body = response.read().decode("utf-8")
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/plain"
            )
        finally:
            conn.close()
        assert "# TYPE repro_service_submitted_jobs_total counter" in body
        assert "repro_scheduler_queue_wait_seconds_count" in body
        assert "repro_scheduler_in_flight_jobs" in body
        assert "repro_executor_pools_active" in body

    def test_metrics_requires_admin(self, server):
        with ServiceClient(server.url, token="tok-alice") as client:
            with pytest.raises(ScopeDenied):
                client.metrics()

    def test_client_metrics_round_trip(self, server):
        self.submit_and_settle(server)
        with ServiceClient(server.url, token="tok-admin") as admin:
            text = admin.metrics()
        assert isinstance(text, str)
        assert "repro_service_settled_jobs_total" in text

    def test_live_job_trace_reports_running_spans(self, server):
        """Snapshotting a trace mid-flight answers, with open spans
        showing null durations, rather than erroring or blocking."""
        with ServiceClient(server.url, token="tok-alice") as client:
            job_id = client.submit(
                [measured_ghz(2)] * 4, "statevector", shots=4096, seed=5
            )
            trace = client.trace(job_id)  # no wait: may still be running
            assert trace["attrs"]["job_id"] == job_id
            client.result(job_id, timeout=30)
            settled = client.trace(job_id)
        assert settled["duration_s"] is not None


def sample(text, name):
    """The value of one exposition sample (``name`` includes labels)."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.rsplit(" ", 1)[1])
    return None


class TestRegistryServiceCounters:
    def test_submissions_and_settlements_counted(self):
        async def main():
            service = RuntimeService(executor="thread", journal=False,
                                     accounting=False)
            try:
                token = service.register_client("alice")
                handle = await service.submit(
                    [measured_ghz(2), measured_ghz(3)], "statevector",
                    shots=32, seed=1, token=token,
                )
                await handle.result()
                await service.drain(30)
                for _ in range(100):
                    if handle.done():
                        break
                    await asyncio.sleep(0.01)
            finally:
                await service.close()
            return service.metrics.snapshot()["counters"]

        counters = run(main())
        assert counters["repro_service_submitted_jobs_total"] == 2
        assert counters['repro_service_settled_jobs_total{status="done"}'] == 2
        assert counters[
            'repro_service_client_completed_jobs_total{client="alice"}'
        ] == 2

    def test_failed_chunks_settle_failed_everywhere(self, tmp_path):
        """A batch whose every chunk fails is "failed" in the exposition,
        in stats(), in the journal and on the trace root alike."""
        from repro.faults import FaultPlan
        from repro.obs.metrics import DEFAULT_REGISTRY

        plan = FaultPlan(seed=1, sites={"chunk.simulate": 1.0})

        async def main():
            service = RuntimeService(executor="thread",
                                     cache_dir=str(tmp_path),
                                     accounting=False)
            try:
                token = service.register_client("alice")
                handle = await service.submit(
                    [measured_ghz(2), measured_ghz(3)], "statevector",
                    shots=32, seed=1, token=token, retry=0, fault_plan=plan,
                )
                await handle.wait(30)
                await service.drain(30)
                # the journal leg of settlement runs off-loop; let it land
                for _ in range(200):
                    if handle.trace()["duration_s"] is not None:
                        break
                    await asyncio.sleep(0.01)
                return (
                    DEFAULT_REGISTRY.render_prometheus(),
                    service.stats(),
                    service.journal.record(handle.journal_id),
                    handle.trace(),
                )
            finally:
                await service.close()

        exposition, stats, record, trace = run(main())
        settled = "repro_service_settled_jobs_total"
        assert sample(exposition, settled + '{status="failed"}') == 2
        assert sample(exposition, settled + '{status="done"}') == 0
        alice = stats["clients"]["alice"]
        assert alice["failed_batches"] == 1
        assert alice["completed_batches"] == 0
        assert stats["completed_jobs"] == 0
        assert record["status"] == "failed"
        assert trace["attrs"]["status"] == "failed"

    def test_recovered_jobs_are_counted(self, tmp_path):
        """Jobs re-submitted by recover() count as submitted, like fresh
        ones, in the counter, the exposition and stats()."""
        from repro.obs.metrics import DEFAULT_REGISTRY
        from repro.service import JobJournal

        journal = JobJournal(cache_dir=str(tmp_path))
        for seed in range(3):
            journal.record_submission(
                journal.next_id(), "anonymous", [measured_ghz(2)],
                "statevector", shots=32, seed=seed,
            )

        async def main():
            service = RuntimeService(executor="thread",
                                     cache_dir=str(tmp_path),
                                     accounting=False)
            try:
                summary = await service.recover()
                await service.drain(30)
                return (
                    summary,
                    service.metrics.snapshot()["counters"],
                    DEFAULT_REGISTRY.render_prometheus(),
                    service.stats(),
                )
            finally:
                await service.close()

        summary, counters, exposition, stats = run(main())
        assert summary["resubmitted"] == 3
        submitted = "repro_service_submitted_jobs_total"
        assert counters[submitted] == 3
        assert sample(exposition, submitted) == 3
        assert stats["clients"]["anonymous"]["submitted_jobs"] == 3
