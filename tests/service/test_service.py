"""Integration tests for :class:`repro.service.RuntimeService`: the async
submit/stream/collect surface, admission control (auth, quotas, rate
limits), queue policies through the service, and the determinism contract
(async path counts are bit-identical to plain ``execute()``)."""

import asyncio
import threading

import pytest

from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.devices.backend import Backend
from repro.exceptions import JobError, QueueTimeout, ServiceError
from repro.results.counts import Counts
from repro.results.result import Result
from repro.runtime import execute
from repro.service import (
    AuthenticationError,
    ClientQuota,
    QuotaExceeded,
    RateLimited,
    RuntimeService,
    TokenAuthenticator,
)


class FakeClock:
    def __init__(self, start=0.0):
        self.now = float(start)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class RecordingBackend(Backend):
    """Logs every run()'s circuit name; optionally gates on an event."""

    name = "recorder"

    def __init__(self, log, gate=None):
        self.log = log
        self.gate = gate

    def run(self, circuit, shots=1024, seed=None):
        if self.gate is not None:
            assert self.gate.wait(30), "gate never released"
        self.log.append(circuit.name)
        return Result(counts=Counts({"0": shots}), shots=shots)


class FailingBackend(Backend):
    name = "faulty"

    def run(self, circuit, shots=1024, seed=None):
        raise RuntimeError("hardware on fire")


def named_circuit(name):
    circuit = QuantumCircuit(1, name=name)
    circuit.measure_all()
    return circuit


def measured_bell():
    circuit = library.bell_pair()
    circuit.measure_all()
    return circuit


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Submission, collection, and the determinism contract
# ----------------------------------------------------------------------


class TestSubmitAndCollect:
    def test_counts_bit_identical_to_plain_execute(self):
        """The whole point of the service layer: it decides when and
        whether work runs, never what it computes."""
        circuits = [measured_bell(), library.ghz_state(3)]
        circuits[1].measure_all()
        for backend in ("statevector", "noisy:ibmqx4"):
            reference = [
                r.counts
                for r in execute(circuits, backend, shots=512, seed=11).result()
            ]

            async def main():
                async with RuntimeService() as service:
                    job = await service.submit(
                        circuits, backend, shots=512, seed=11
                    )
                    return await job.counts()

            assert run(main()) == reference

    def test_await_handle_returns_ordered_results(self):
        async def main():
            async with RuntimeService() as service:
                job = await service.submit(
                    [named_circuit("a"), named_circuit("b")],
                    RecordingBackend([]),
                    shots=8,
                )
                results = await job
                return [r.shots for r in results]

        assert run(main()) == [8, 8]

    def test_job_ids_are_stable_and_unique(self):
        async def main():
            async with RuntimeService() as service:
                jobs = [
                    await service.submit(named_circuit(f"c{i}"),
                                         RecordingBackend([]), shots=4)
                    for i in range(3)
                ]
                ids = [job.job_id for job in jobs]
                assert all(job_id.startswith("svc-") for job_id in ids)
                assert len(set(ids)) == 3
                for job in jobs:
                    await job.wait(timeout=30)
                    assert job.status() == "done"
                    assert job.done()

        run(main())

    def test_streaming_as_completed_exactly_once(self):
        async def main():
            async with RuntimeService() as service:
                handles = [
                    await service.submit(named_circuit(f"s{i}"),
                                         RecordingBackend([]), shots=4)
                    for i in range(5)
                ]
                seen = []
                async for handle in service.as_completed(handles, timeout=30):
                    seen.append(handle.job_id)
                assert sorted(seen) == sorted(h.job_id for h in handles)
                assert len(seen) == len(set(seen)) == 5

        run(main())

    def test_per_job_streaming_within_a_submission(self):
        async def main():
            async with RuntimeService() as service:
                handle = await service.submit(
                    [named_circuit(f"j{i}") for i in range(4)],
                    RecordingBackend([]),
                    shots=4,
                )
                streamed = []
                async for job in handle.as_completed(timeout=30):
                    assert job.done()
                    streamed.append(job)
                assert len(streamed) == 4
                assert len({id(job) for job in streamed}) == 4

        run(main())

    def test_service_is_bound_to_one_loop(self):
        service = RuntimeService()

        async def submit_once():
            await service.submit(named_circuit("x"), RecordingBackend([]),
                                 shots=4)

        run(submit_once())
        with pytest.raises(ServiceError, match="another event loop"):
            run(submit_once())
        service.scheduler.shutdown()


# ----------------------------------------------------------------------
# Terminal states: failures, cancellation, timeouts
# ----------------------------------------------------------------------


class TestTerminalStates:
    def test_streaming_includes_failed_and_cancelled_jobs(self):
        """as_completed() never loses a handle: completed, failed,
        dropped and cancelled submissions are all yielded exactly once."""
        log = []
        gate = threading.Event()

        async def main():
            service = RuntimeService(executor="thread", max_in_flight=1)
            try:
                blocker = await service.submit(
                    named_circuit("blocker"), RecordingBackend(log, gate=gate),
                    shots=4,
                )
                dropped = await service.submit(
                    named_circuit("late"), RecordingBackend(log), shots=4,
                    deadline=0.05,
                )
                cancelled = await service.submit(
                    named_circuit("doomed"), RecordingBackend(log), shots=4
                )
                failing = await service.submit(
                    named_circuit("faulty"), FailingBackend(), shots=4
                )
                good = await service.submit(
                    named_circuit("fine"), RecordingBackend(log), shots=4
                )
                await dropped.wait(timeout=30)  # deadline expires while queued
                assert cancelled.cancel()
                gate.set()

                handles = [blocker, dropped, cancelled, failing, good]
                seen = []
                async for handle in service.as_completed(handles, timeout=30):
                    seen.append(handle.job_id)
                assert sorted(seen) == sorted(h.job_id for h in handles)
                assert len(seen) == len(set(seen))

                assert blocker.status() == "done"
                assert good.status() == "done"
                assert dropped.status() == "dropped"
                assert cancelled.status() == "cancelled"
                with pytest.raises(QueueTimeout):
                    await dropped.result()
                with pytest.raises(JobError, match="cancelled"):
                    await cancelled.result()
                with pytest.raises(JobError, match="hardware on fire"):
                    await failing.result()

                stats = service.stats()["clients"]["anonymous"]
                assert stats["dropped_batches"] == 1
                assert stats["cancelled_batches"] == 1
                assert stats["failed_batches"] == 1
                assert stats["completed_batches"] == 2  # blocker + good
            finally:
                gate.set()
                await service.close()

        run(main())

    def test_result_timeout_while_queued_raises_queue_timeout(self):
        """Satellite: a timeout with the batch still queued surfaces the
        typed QueueTimeout (position + wait time), via the async path."""
        gate = threading.Event()

        async def main():
            service = RuntimeService(executor="thread", max_in_flight=1)
            try:
                await service.submit(
                    named_circuit("blocker"),
                    RecordingBackend([], gate=gate),
                    shots=4,
                )
                stuck = await service.submit(
                    named_circuit("stuck"), RecordingBackend([]), shots=4
                )
                with pytest.raises(QueueTimeout) as excinfo:
                    await stuck.result(timeout=0.05)
                assert excinfo.value.client == "anonymous"
                assert excinfo.value.waited > 0
                assert excinfo.value.queue_position == 0
                assert excinfo.value.queued_batches == 1
            finally:
                gate.set()
                await service.close()

        run(main())

    def test_dispatch_failure_is_a_failed_handle(self):
        async def main():
            async with RuntimeService() as service:
                handle = await service.submit(
                    named_circuit("x"), "no-such-backend", shots=4
                )
                await handle.wait(timeout=30)
                assert handle.status() == "failed"
                with pytest.raises(JobError, match="failed to dispatch"):
                    await handle.result()

        run(main())

    def test_deadline_reprioritize_jumps_the_queue(self):
        """deadline_action='reprioritize' boosts an expired batch ahead of
        higher-priority work instead of dropping it."""
        log = []
        gate = threading.Event()

        async def main():
            service = RuntimeService(executor="thread", max_in_flight=1)
            try:
                blocker = await service.submit(
                    named_circuit("blocker"), RecordingBackend(log, gate=gate),
                    shots=4,
                )
                await blocker.jobs(timeout=10)  # pinned in flight, gated
                important = await service.submit(
                    named_circuit("important"), RecordingBackend(log),
                    shots=4, priority=5,
                )
                boosted = await service.submit(
                    named_circuit("boosted"), RecordingBackend(log), shots=4,
                    priority=0, deadline=0.05, deadline_action="reprioritize",
                )
                await asyncio.sleep(0.2)  # let the deadline expire, queued
                gate.set()
                await asyncio.gather(important.result(), boosted.result())
                assert log.index("boosted") < log.index("important")
            finally:
                gate.set()
                await service.close()

        run(main())


# ----------------------------------------------------------------------
# Admission control: authentication, quotas, rate limits
# ----------------------------------------------------------------------


class TestAdmission:
    def test_anonymous_disabled_requires_token(self):
        async def main():
            service = RuntimeService(allow_anonymous=False)
            try:
                with pytest.raises(AuthenticationError):
                    await service.submit(named_circuit("x"),
                                         RecordingBackend([]), shots=4)
                with pytest.raises(AuthenticationError):
                    await service.submit(named_circuit("x"),
                                         RecordingBackend([]), shots=4,
                                         token="bogus")
                assert service.stats()["rejected_auth"] == 2
                token = service.register_client("alice")
                handle = await service.submit(
                    named_circuit("x"), RecordingBackend([]), shots=4,
                    token=token,
                )
                assert handle.client == "alice"
                await handle.result()
            finally:
                await service.close()

        run(main())

    def test_revoked_token_stops_authenticating(self):
        async def main():
            service = RuntimeService(allow_anonymous=False)
            try:
                token = service.register_client("alice")
                service.authenticator.revoke(token)
                with pytest.raises(AuthenticationError):
                    await service.submit(named_circuit("x"),
                                         RecordingBackend([]), shots=4,
                                         token=token)
            finally:
                await service.close()

        run(main())

    def test_concurrency_quota_rejects_over_limit(self):
        gate = threading.Event()

        async def main():
            service = RuntimeService(executor="thread")
            try:
                token = service.register_client(
                    "alice", quota=ClientQuota(max_in_flight_jobs=2)
                )
                backend = RecordingBackend([], gate=gate)
                await service.submit(named_circuit("a"), backend, shots=4,
                                     token=token)
                await service.submit(named_circuit("b"), backend, shots=4,
                                     token=token)
                with pytest.raises(QuotaExceeded) as excinfo:
                    await service.submit(named_circuit("c"), backend, shots=4,
                                         token=token)
                assert excinfo.value.client == "alice"
                assert excinfo.value.in_flight == 2
                assert excinfo.value.limit == 2
                stats = service.stats()["clients"]["alice"]
                assert stats["rejected_quota"] == 1
            finally:
                gate.set()
                await service.close()

        run(main())

    def test_quota_queue_policy_applies_backpressure(self):
        """over_quota='queue' waits for capacity instead of raising —
        and the waiter is admitted once in-flight work settles."""
        gate = threading.Event()

        async def main():
            service = RuntimeService(executor="thread")
            try:
                token = service.register_client(
                    "alice",
                    quota=ClientQuota(max_in_flight_jobs=1,
                                      over_quota="queue"),
                )
                backend = RecordingBackend([], gate=gate)
                first = await service.submit(named_circuit("first"), backend,
                                             shots=4, token=token)
                second_task = asyncio.ensure_future(
                    service.submit(named_circuit("second"),
                                   RecordingBackend([]), shots=4, token=token)
                )
                await asyncio.sleep(0.05)
                assert not second_task.done()  # backpressured, not rejected
                gate.set()
                second = await asyncio.wait_for(second_task, timeout=30)
                await asyncio.gather(first.result(), second.result())
                stats = service.stats()["clients"]["alice"]
                assert stats["queued_waits"] >= 1
                assert stats["rejected_quota"] == 0
            finally:
                gate.set()
                await service.close()

        run(main())

    def test_oversized_batch_admitted_when_idle_under_queue_policy(self):
        """A single submission larger than the whole concurrency limit is
        admitted once nothing is in flight (debt model, like the
        scheduler and the token bucket) — under over_quota='queue' it
        must not wait forever on a settle that can never come."""

        async def main():
            async with RuntimeService() as service:
                token = service.register_client(
                    "alice",
                    quota=ClientQuota(max_in_flight_jobs=2,
                                      over_quota="queue"),
                )
                handle = await asyncio.wait_for(
                    service.submit(
                        [named_circuit(f"big{i}") for i in range(5)],
                        RecordingBackend([]), shots=4, token=token,
                    ),
                    timeout=30,
                )
                results = await handle.result()
                assert len(results) == 5

        run(main())

    def test_oversized_batch_waits_until_idle_then_admits(self):
        """With work in flight the oversized batch backpressures; the
        settle wakes it and the empty ledger admits it."""
        gate = threading.Event()

        async def main():
            service = RuntimeService(executor="thread")
            try:
                token = service.register_client(
                    "alice",
                    quota=ClientQuota(max_in_flight_jobs=2,
                                      over_quota="queue"),
                )
                first = await service.submit(
                    named_circuit("first"), RecordingBackend([], gate=gate),
                    shots=4, token=token,
                )
                big_task = asyncio.ensure_future(
                    service.submit(
                        [named_circuit(f"big{i}") for i in range(5)],
                        RecordingBackend([]), shots=4, token=token,
                    )
                )
                await asyncio.sleep(0.05)
                assert not big_task.done()  # backpressured behind `first`
                gate.set()
                big = await asyncio.wait_for(big_task, timeout=30)
                await first.result()
                assert len(await big.result()) == 5
            finally:
                gate.set()
                await service.close()

        run(main())

    def test_generator_circuits_are_materialized_once(self):
        """Admission math must not consume an iterator input — the same
        circuits that were counted reach the scheduler."""

        async def main():
            async with RuntimeService() as service:
                handle = await service.submit(
                    (named_circuit(f"g{i}") for i in range(3)),
                    RecordingBackend([]), shots=8,
                )
                assert handle.size == 3
                results = await handle.result()
                assert len(results) == 3
                assert all(r.shots == 8 for r in results)

        run(main())

    def test_failed_submission_refunds_rate_budget(self):
        """A scheduler-side rejection after admission rolls back both the
        concurrency charge and the shots debited from the bucket."""
        clock = FakeClock()

        async def main():
            service = RuntimeService(clock=clock)
            try:
                token = service.register_client(
                    "alice",
                    quota=ClientQuota(max_in_flight_jobs=4,
                                      shots_per_second=10, burst_shots=100),
                )
                with pytest.raises(ValueError, match="priority"):
                    await service.submit(named_circuit("bad"),
                                         RecordingBackend([]), shots=100,
                                         token=token, priority=-1)
                state = service._clients["alice"]
                assert state.in_flight_jobs == 0
                assert state.bucket.tokens == pytest.approx(100.0)
                ok = await service.submit(named_circuit("ok"),
                                          RecordingBackend([]), shots=100,
                                          token=token)
                await ok.result()
            finally:
                await service.close()

        run(main())

    def test_rate_limit_queue_policy_paces_with_injected_sleep(self):
        """over_quota='queue' rate limiting is deterministic when the
        injected sleep advances the injected clock (they must agree)."""
        clock = FakeClock()

        async def fake_sleep(seconds):
            clock.advance(seconds)

        async def main():
            service = RuntimeService(clock=clock, sleep=fake_sleep)
            try:
                token = service.register_client(
                    "alice",
                    quota=ClientQuota(shots_per_second=10, burst_shots=100,
                                      over_quota="queue"),
                )
                first = await service.submit(
                    named_circuit("a"), RecordingBackend([]), shots=100,
                    token=token,
                )
                second = await service.submit(
                    named_circuit("b"), RecordingBackend([]), shots=100,
                    token=token,
                )
                await asyncio.gather(first.result(), second.result())
                stats = service.stats()["clients"]["alice"]
                assert stats["queued_waits"] >= 1
                assert stats["rejected_rate"] == 0
            finally:
                await service.close()

        run(main())

    def test_rate_limit_rejects_with_retry_after(self):
        clock = FakeClock()

        async def main():
            service = RuntimeService(clock=clock)
            try:
                token = service.register_client(
                    "alice",
                    quota=ClientQuota(shots_per_second=10, burst_shots=100),
                )
                handle = await service.submit(
                    named_circuit("a"), RecordingBackend([]), shots=100,
                    token=token,
                )
                await handle.result()
                with pytest.raises(RateLimited) as excinfo:
                    await service.submit(named_circuit("b"),
                                         RecordingBackend([]), shots=100,
                                         token=token)
                assert excinfo.value.client == "alice"
                assert excinfo.value.retry_after == pytest.approx(10.0)
                assert service.stats()["clients"]["alice"]["rejected_rate"] == 1
                # The bucket refills with (fake) time.
                clock.advance(10.0)
                ok = await service.submit(named_circuit("c"),
                                          RecordingBackend([]), shots=100,
                                          token=token)
                await ok.result()
            finally:
                await service.close()

        run(main())


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


class TestServiceStats:
    def test_stats_snapshot_shape_and_latency(self):
        async def main():
            async with RuntimeService() as service:
                token = service.register_client("alice", weight=2)
                handles = [
                    await service.submit(named_circuit(f"s{i}"),
                                         RecordingBackend([]), shots=4,
                                         token=token)
                    for i in range(4)
                ]
                async for _handle in service.as_completed(handles, timeout=30):
                    pass
                stats = service.stats()
                for key in ("uptime_s", "jobs_per_second", "completed_jobs",
                            "queued_batches", "in_flight_jobs",
                            "queue_latency", "clients"):
                    assert key in stats
                assert stats["completed_jobs"] == 4
                assert stats["jobs_per_second"] > 0
                latency = stats["queue_latency"]
                assert latency["window_count"] == 4
                assert latency["total_count"] == 4
                assert latency["p50_s"] is not None
                assert latency["p99_s"] >= latency["p50_s"]
                alice = stats["clients"]["alice"]
                assert alice["weight"] == 2
                assert alice["completed_batches"] == 4
                assert alice["in_flight_jobs"] == 0
                assert alice["scheduler"]["dispatched_batches"] == 4

        run(main())

    def test_jobs_per_second_is_lifetime_rate(self):
        """One completion five seconds after start reads 0.2 jobs/s, not
        a rate over the instant of the completion."""
        now = [0.0]

        async def main():
            async with RuntimeService(clock=lambda: now[0]) as service:
                now[0] = 5.0
                handle = await service.submit(named_circuit("x"),
                                              RecordingBackend([]), shots=4)
                await handle.wait(30)
                return service.stats()

        stats = run(main())
        assert stats["completed_jobs"] == 1
        assert stats["uptime_s"] == 5.0
        assert stats["jobs_per_second"] == pytest.approx(0.2)

    def test_jobs_per_second_zero_without_completions(self):
        clock = FakeClock()

        async def main():
            async with RuntimeService(clock=clock) as service:
                at_start = service.stats()["jobs_per_second"]  # uptime 0
                clock.advance(30.0)
                return at_start, service.stats()

        at_start, stats = run(main())
        assert at_start == 0.0
        assert stats["jobs_per_second"] == 0.0
        assert stats["uptime_s"] == 30.0

    def test_jobs_per_second_counts_every_completion(self):
        clock = FakeClock()

        async def main():
            async with RuntimeService(clock=clock) as service:
                for i in range(10):
                    clock.advance(1.0)
                    handle = await service.submit(
                        named_circuit(f"j{i}"), RecordingBackend([]), shots=4
                    )
                    await handle.result()
                return service.stats()

        stats = run(main())
        assert stats["completed_jobs"] == 10
        assert stats["jobs_per_second"] == pytest.approx(1.0)

    def test_queue_latency_empty_before_any_dispatch(self):
        async def main():
            async with RuntimeService() as service:
                return service.stats()

        assert run(main())["queue_latency"] == {
            "window_count": 0, "total_count": 0, "mean_s": None,
            "p50_s": None, "p99_s": None, "max_s": None,
        }

    def test_client_entry_counts_one_multi_job_submission(self):
        async def main():
            async with RuntimeService() as service:
                token = service.register_client("alice")
                handle = await service.submit(
                    [named_circuit(f"m{i}") for i in range(4)],
                    RecordingBackend([]), shots=4, token=token,
                )
                await handle.result()
                return service.stats()["clients"]["alice"]

        alice = run(main())
        assert alice["submitted_batches"] == 1
        assert alice["submitted_jobs"] == 4
        assert alice["completed_batches"] == 1
        assert alice["completed_jobs"] == 4
        for field in ("failed_batches", "dropped_batches",
                      "cancelled_batches", "rejected_quota", "rejected_rate",
                      "rejected_overload", "queued_waits"):
            assert alice[field] == 0, field

    def test_failed_batch_is_not_a_completion(self):
        """The service counts successes as completed; its scheduler view
        counts every retired batch."""
        async def main():
            async with RuntimeService() as service:
                handle = await service.submit(named_circuit("x"),
                                              FailingBackend(), shots=4)
                await handle.wait(30)
                assert (await service.drain(30))["settled"]
                return (service.stats(),
                        service.metrics.snapshot()["counters"])

        stats, counters = run(main())
        anonymous = stats["clients"][TokenAuthenticator.ANONYMOUS]
        assert anonymous["failed_batches"] == 1
        assert anonymous["completed_batches"] == 0
        assert anonymous["completed_jobs"] == 0
        assert anonymous["scheduler"]["completed_batches"] == 1
        assert stats["completed_jobs"] == 0
        settled = "repro_service_settled_jobs_total"
        assert counters[settled + '{status="failed"}'] == 1
        assert counters[settled + '{status="done"}'] == 0

    def test_stats_read_the_service_registry(self):
        clock = FakeClock()

        async def main():
            service = RuntimeService(allow_anonymous=False, clock=clock)
            try:
                with pytest.raises(AuthenticationError):
                    await service.submit(named_circuit("x"),
                                         RecordingBackend([]), shots=4)
                token = service.register_client(
                    "alice",
                    quota=ClientQuota(shots_per_second=10, burst_shots=10),
                )
                handle = await service.submit(named_circuit("a"),
                                              RecordingBackend([]), shots=10,
                                              token=token)
                await handle.result()
                with pytest.raises(RateLimited):
                    await service.submit(named_circuit("b"),
                                         RecordingBackend([]), shots=10,
                                         token=token)
                return service.stats(), service.metrics.snapshot()["counters"]
            finally:
                await service.close()

        stats, counters = run(main())
        rejected = "repro_service_rejected_total"
        assert stats["rejected_auth"] == counters[rejected + '{reason="auth"}'] == 1
        assert stats["clients"]["alice"]["rejected_rate"] == 1
        assert counters[rejected + '{reason="rate"}'] == 1
        assert stats["completed_jobs"] == counters[
            'repro_service_settled_jobs_total{status="done"}'
        ] == 1
        assert counters["repro_service_submitted_jobs_total"] == 1

    def test_stats_are_per_instance(self):
        async def main():
            async with RuntimeService() as busy, RuntimeService() as idle:
                handle = await busy.submit(named_circuit("x"),
                                           RecordingBackend([]), shots=4)
                await handle.result()
                return busy.stats(), idle.stats()

        busy, idle = run(main())
        assert busy["completed_jobs"] == 1
        assert idle["completed_jobs"] == 0
        assert idle["queue_latency"]["total_count"] == 0
        assert idle["clients"] == {}

    def test_anonymous_client_appears_after_first_submission(self):
        async def main():
            async with RuntimeService() as service:
                handle = await service.submit(named_circuit("x"),
                                              RecordingBackend([]), shots=4)
                await handle.result()
                stats = service.stats()
                anonymous = stats["clients"][TokenAuthenticator.ANONYMOUS]
                assert anonymous["completed_batches"] == 1

        run(main())


# ----------------------------------------------------------------------
# Settlement bookkeeping failures and the settle/timeout race
# ----------------------------------------------------------------------


class BrokenJournal:
    """Delegates to a real journal but fails every settlement write."""

    def __init__(self, inner):
        self._inner = inner
        self.durable = inner.durable

    def __bool__(self):
        return True  # an empty journal is still a journal

    def __len__(self):
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def record_settlement(self, *args, **kwargs):
        raise OSError("disk wedged")


class TestSettlementErrors:
    def test_failed_journal_write_is_counted_not_swallowed(
        self, tmp_path, caplog
    ):
        """Satellite regression: a failing settlement write used to vanish
        into a bare ``except Exception: pass``.  Now every failure bumps
        ``stats()['settlement_errors']`` and the first failure of each
        (stage, exception class) pair logs one warning."""
        import logging

        from repro.service import JobJournal

        journal = BrokenJournal(JobJournal(cache_dir=str(tmp_path)))

        async def main():
            async with RuntimeService(journal=journal,
                                      accounting=False) as service:
                with caplog.at_level(logging.WARNING, logger="repro.service"):
                    for i in range(3):
                        handle = await service.submit(
                            named_circuit(f"job{i}"), RecordingBackend([]),
                            shots=4,
                        )
                        await handle.result()
                    # The journal write runs off-loop; wait for the errors
                    # to be counted rather than sleeping blind.
                    for _ in range(200):
                        if service.stats()["settlement_errors"] >= 3:
                            break
                        await asyncio.sleep(0.01)
                stats = service.stats()
                assert stats["settlement_errors"] == 3
                warnings = [r for r in caplog.records
                            if "settlement journal failed" in r.message]
                # Three failures of one class: exactly one warning.
                assert len(warnings) == 1

        run(main())

    def test_settlement_errors_zero_on_healthy_service(self):
        async def main():
            async with RuntimeService() as service:
                handle = await service.submit(named_circuit("fine"),
                                              RecordingBackend([]), shots=4)
                await handle.result()
                assert service.stats()["settlement_errors"] == 0

        run(main())


class TestSettleTimeoutRace:
    """Satellite regression for the settle/timeout race in
    ``ServiceJob._await_settled``: the batch reaches a terminal status but
    the ``call_soon_threadsafe`` settlement callback has not run on the
    loop yet when ``wait(timeout=...)`` expires.  The old code raised a
    spurious ``JobError`` for finished work."""

    class StalledBatch:
        """A batch frozen at a terminal status whose settle callback never
        fires — the worst-case ordering of the race, held still."""

        def __init__(self, status="done"):
            self._status = status

        def status(self):
            return self._status

        def jobs(self, timeout=None):
            raise AssertionError("terminal batch must not re-enter the queue")

    def make_handle(self, batch):
        from repro.service.service import ServiceJob

        handle = ServiceJob.__new__(ServiceJob)
        handle.job_id = "svc-race"
        handle.batch = batch
        handle._settled = asyncio.Event()  # never set: the stalled loop
        return handle

    @pytest.mark.parametrize("status", ["done", "failed", "dropped",
                                        "cancelled"])
    def test_wait_returns_for_terminal_batch_despite_unsettled_event(
        self, status
    ):
        async def main():
            handle = self.make_handle(self.StalledBatch(status))
            # Must return, not raise: the work IS finished.
            await handle._await_settled(timeout=0.05)

        run(main())

    def test_wait_still_times_out_while_running(self):
        async def main():
            batch = self.StalledBatch("running")
            batch.jobs = lambda timeout=None: None  # not queued: no re-raise
            handle = self.make_handle(batch)
            with pytest.raises(JobError, match="not finished"):
                await handle._await_settled(timeout=0.05)

        run(main())

    def test_wait_result_collects_after_race(self):
        """End-to-end shape of the race: wait() times out against a
        terminal batch, then result() collects normally."""

        class TerminalBatch(self.StalledBatch):
            def __init__(self):
                super().__init__("done")
                self.collected = False

            def jobs(self, timeout=None):
                self.collected = True

                class JobSetStub:
                    def result(self):
                        return ["the-results"]

                return JobSetStub()

        async def main():
            batch = TerminalBatch()
            handle = self.make_handle(batch)
            handle._loop = asyncio.get_running_loop()
            await handle.wait(timeout=0.05)  # race: returns, no JobError
            assert await handle.result(timeout=0.05) == ["the-results"]
            assert batch.collected

        run(main())
