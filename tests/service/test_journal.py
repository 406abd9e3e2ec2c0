"""Unit tests for the write-ahead job journal and in-process recovery.

Cross-*process* durability (a real restarted interpreter) lives in
``test_durability.py``; this file pins the journal's own contract —
write-ahead ordering, settlement, degraded (unpicklable) records,
reload-from-disk — plus the service-level ``recover()`` semantics that
can be exercised without forking: recovered handles under the same
``svc-N`` ids, bit-identical journaled counts, exactly-once re-runs.
"""

import asyncio
import threading

import pytest

from repro.circuits import library
from repro.exceptions import JobError, ServiceError
from repro.runtime import execute
from repro.service import JobJournal, RecoveredJob, RuntimeService


def run(coro):
    return asyncio.run(coro)


def measured_bell():
    circuit = library.bell_pair()
    circuit.measure_all()
    return circuit


class TestJobJournal:
    def test_submission_then_settlement_roundtrip(self, tmp_path):
        journal = JobJournal(cache_dir=str(tmp_path))
        assert journal.durable
        job_id = journal.next_id()
        journal.record_submission(
            job_id, "alice", [measured_bell()], "statevector",
            shots=256, seed=7, priority=1, weight=2,
        )
        record = journal.record(job_id)
        assert record["job_id"] == f"svc-{job_id}"
        assert record["client"] == "alice"
        assert record["settled"] is False
        assert record["status"] == "submitted"
        assert record["recoverable"] is True
        assert record["fingerprints"] == [measured_bell().fingerprint()]
        journal.record_settlement(
            job_id, "done", counts=[{"00": 128, "11": 128}], shots=[256]
        )
        record = journal.record(job_id)
        assert record["settled"] is True
        assert record["status"] == "done"
        assert record["counts"] == [{"00": 128, "11": 128}]
        assert record["circuits"] is None  # payload dropped once settled
        assert journal.unsettled() == []

    def test_reload_from_disk_resumes_ids(self, tmp_path):
        journal = JobJournal(cache_dir=str(tmp_path))
        first = journal.next_id()
        journal.record_submission(
            first, "alice", [measured_bell()], "statevector", 128, 1
        )
        reloaded = JobJournal(cache_dir=str(tmp_path))
        assert len(reloaded) == 1
        assert reloaded.record(first)["client"] == "alice"
        # Ids stay monotonic across restarts: no svc-N collision.
        assert reloaded.next_id() == first + 1

    def test_unpicklable_payload_degrades_not_raises(self, tmp_path):
        journal = JobJournal(cache_dir=str(tmp_path))
        job_id = journal.next_id()
        unpicklable = threading.Lock()
        record = journal.record_submission(
            job_id, "alice", [measured_bell()], unpicklable, 128, 1
        )
        assert record["recoverable"] is False
        assert record["circuits"] is None
        assert isinstance(record["backend"], str)
        # The degraded record still settles (the counts survive).
        journal.record_settlement(job_id, "done", counts=[{"0": 128}])
        assert JobJournal(cache_dir=str(tmp_path)).record(job_id)[
            "counts"
        ] == [{"0": 128}]

    def test_settlement_validates_status_and_id(self, tmp_path):
        journal = JobJournal(cache_dir=str(tmp_path))
        with pytest.raises(ServiceError):
            journal.record_settlement(999, "done")
        job_id = journal.next_id()
        journal.record_submission(job_id, "a", [measured_bell()], "sv", 1, 1)
        with pytest.raises(ServiceError):
            journal.record_settlement(job_id, "exploded")

    def test_settlement_journals_error_type_and_message(self, tmp_path):
        journal = JobJournal(cache_dir=str(tmp_path))
        job_id = journal.next_id()
        journal.record_submission(job_id, "a", [measured_bell()], "sv", 1, 1)
        journal.record_settlement(
            job_id, "failed", error=RuntimeError("hardware on fire")
        )
        error = journal.record(job_id)["error"]
        assert error == {"type": "RuntimeError", "message": "hardware on fire"}

    def test_memory_only_journal_is_not_durable(self):
        journal = JobJournal()
        assert not journal.durable
        job_id = journal.next_id()
        journal.record_submission(job_id, "a", [measured_bell()], "sv", 8, 0)
        assert len(journal) == 1


class TestServiceRecovery:
    def test_recover_restores_settled_jobs_bit_identically(self, tmp_path):
        circuit = measured_bell()
        reference = [
            dict(r.counts)
            for r in execute([circuit], "statevector", shots=512, seed=11).result()
        ]

        async def first_life():
            service = RuntimeService(cache_dir=str(tmp_path))
            job = await service.submit(circuit, "statevector", shots=512,
                                       seed=11)
            counts = [dict(c) for c in await job.counts()]
            await service.drain()
            await service.close()
            return job.job_id, counts

        job_id, before = run(first_life())
        assert before == reference

        async def second_life():
            service = RuntimeService(cache_dir=str(tmp_path))
            summary = await service.recover()
            handle = service.job(job_id)
            counts = [dict(c) for c in await handle.counts()]
            status = service.status(job_id)
            await service.close()
            return summary, handle, counts, status

        summary, handle, after, status = run(second_life())
        assert summary["restored"] >= 1 and summary["resubmitted"] == 0
        assert isinstance(handle, RecoveredJob)
        assert status == "done"
        assert after == before  # bit-identical across the restart
        assert all(r.metadata["recovered"] for r in run(
            second_life_result(tmp_path, job_id)
        ))

    def test_recover_reruns_unsettled_job_exactly_once(self, tmp_path):
        circuit = measured_bell()
        journal = JobJournal(cache_dir=str(tmp_path))
        job_id = journal.next_id()
        journal.record_submission(
            job_id, "alice", [circuit], "statevector", shots=256, seed=3,
            weight=2,
        )
        reference = [
            dict(r.counts)
            for r in execute([circuit], "statevector", shots=256, seed=3).result()
        ]

        async def recovered_life():
            service = RuntimeService(cache_dir=str(tmp_path))
            first = await service.recover()
            handle = service.job(f"svc-{job_id}")
            counts = [dict(c) for c in await handle.counts()]
            await service.drain()
            second = await service.recover()  # idempotent: nothing left
            await service.close()
            return first, second, counts

        first, second, counts = run(recovered_life())
        assert first["resubmitted"] == 1
        assert second == {"restored": 0, "resubmitted": 0, "skipped": 1}
        assert counts == reference
        # The re-run settled under its original id.
        record = JobJournal(cache_dir=str(tmp_path)).record(job_id)
        assert record["settled"] and record["status"] == "done"

    def test_recover_settles_unrecoverable_records_as_failed(self, tmp_path):
        journal = JobJournal(cache_dir=str(tmp_path))
        job_id = journal.next_id()
        record = journal.record_submission(
            job_id, "alice", [measured_bell()], threading.Lock(), 128, 1
        )
        assert not record["recoverable"]

        async def recover_life():
            service = RuntimeService(cache_dir=str(tmp_path))
            summary = await service.recover()
            handle = service.job(f"svc-{job_id}")
            try:
                await handle.result()
            except JobError as exc:
                failure = str(exc)
            else:
                failure = None
            await service.close()
            return summary, handle.status(), failure

        summary, status, failure = run(recover_life())
        assert summary == {"restored": 0, "resubmitted": 0, "skipped": 1}
        assert status == "failed"
        assert failure is not None and "restart" in failure

    def test_explicit_empty_journal_is_kept(self, tmp_path):
        """A fresh journal has ``len() == 0``; the service used to test
        its truthiness and silently run without it."""
        journal = JobJournal(cache_dir=str(tmp_path))

        async def live():
            service = RuntimeService(journal=journal, accounting=False)
            assert service.journal is journal
            job = await service.submit(measured_bell(), "statevector",
                                       shots=64, seed=0)
            await job.wait()
            await service.close()
            return job.job_id

        job_id = run(live())
        assert journal.record(int(job_id.split("-")[1]))["job_id"] == job_id

    def test_journal_false_disables_durability(self, tmp_path):
        async def live():
            service = RuntimeService(
                cache_dir=str(tmp_path), journal=False, accounting=False
            )
            job = await service.submit(measured_bell(), "statevector",
                                       shots=64, seed=0)
            await job.wait()
            stats = service.stats()
            await service.close()
            return stats

        stats = run(live())
        assert stats["journal"] is None
        assert stats["accounting"] is None

    def test_submit_failure_settles_journal_record(self, tmp_path):
        async def live():
            service = RuntimeService(cache_dir=str(tmp_path))
            with pytest.raises(ValueError):
                await service.submit(measured_bell(), "statevector",
                                     shots=64, priority=-1)
            await service.close()

        run(live())
        records = JobJournal(cache_dir=str(tmp_path)).records()
        assert len(records) == 1
        assert records[0]["settled"] and records[0]["status"] == "failed"
        assert records[0]["error"]["type"] == "ValueError"


async def second_life_result(tmp_path, job_id):
    service = RuntimeService(cache_dir=str(tmp_path))
    await service.recover()
    results = await service.result(job_id)
    await service.close()
    return results
