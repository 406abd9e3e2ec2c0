"""Bounded service memory: a settled job lives in the journal, not in RAM.

A durable service lets go of a job's handle once the journal holds its
settlement, and answers the id from the journal from then on — the same
lookup a restart uses.  These tests pin that a long run of jobs leaves
no per-job memory behind beyond the log's index, that every id still
answers exactly what its live handle did (across log checkpoints too),
and that a journal-less service keeps only its most recent settled
handles and says so, with a typed :class:`JobExpired`, past that bound.
"""

import asyncio
import gc
import json
import time
import tracemalloc

import pytest

from repro.circuits import library
from repro.exceptions import JobExpired, UnknownJob
from repro.runtime import recordlog
from repro.service import (
    BackgroundServer,
    RecoveredJob,
    RuntimeService,
    ServiceClient,
    ServiceJob,
)
from repro.service import service as service_module
from repro.service.service import RECENT_SETTLED_JOBS

#: Jobs run before memory is measured: caches, metric windows and the
#: allocator settle in these.
WARM_UP_JOBS = 100

#: Jobs measured for per-job retention.
MEASURED_JOBS = 1400


def measured_bell():
    circuit = library.bell_pair()
    circuit.measure_all()
    return circuit


def run(coro):
    return asyncio.run(coro)


async def settled_on_disk(service: RuntimeService) -> None:
    """Wait until every settlement has reached the journal (off-loop)."""
    for _ in range(5000):
        if not service.journal.unsettled():
            return
        await asyncio.sleep(0.001)
    raise AssertionError("settlements never reached the journal")


def fingerprint(counts, trace) -> int:
    """A compact stand-in for a job's answers, so that remembering them
    does not itself count as retained memory."""
    return hash(json.dumps([[dict(c) for c in counts], trace]))


class TestDurableRetention:
    def test_settled_jobs_are_served_from_the_journal_in_bounded_memory(
        self, tmp_path, monkeypatch
    ):
        # A small floor forces several checkpoints during the run, so ids
        # are also read back from frames a checkpoint moved.
        monkeypatch.setattr(recordlog, "CHECKPOINT_FLOOR", 64 * 1024)
        circuit = measured_bell()
        total = WARM_UP_JOBS + MEASURED_JOBS
        seen = [None] * total

        async def life():
            service = RuntimeService(cache_dir=str(tmp_path),
                                     executor="thread")
            largest_map = 0
            growth = None
            try:
                for index in range(total):
                    if index == WARM_UP_JOBS:
                        gc.collect()
                        tracemalloc.start()
                        baseline = tracemalloc.get_traced_memory()[0]
                    handle = await service.submit(circuit, "statevector",
                                                  shots=64, seed=index % 8)
                    counts = await handle.counts()
                    await settled_on_disk(service)
                    largest_map = max(largest_map, len(service._jobs))
                    seen[index] = (handle.job_id,
                                   fingerprint(counts, handle.trace()))
                gc.collect()
                growth = tracemalloc.get_traced_memory()[0] - baseline
            finally:
                tracemalloc.stop()
            log = service.journal._log
            checkpointed = log.checkpoint_size > 0
            answers = []
            for job_id, _ in seen:
                handle = service.job(job_id)
                answers.append((type(handle),
                                fingerprint(await handle.counts(),
                                            handle.trace())))
            await service.close()
            return growth, largest_map, checkpointed, answers

        growth, largest_map, checkpointed, answers = run(life())
        assert growth / MEASURED_JOBS < 1024, (
            f"{growth / MEASURED_JOBS:.0f} bytes retained per settled job"
        )
        assert largest_map <= RECENT_SETTLED_JOBS
        assert checkpointed
        for (job_id, live), (kind, served) in zip(seen, answers):
            assert kind is RecoveredJob, job_id
            assert served == live, job_id

    def test_result_is_identical_before_and_after_eviction(self, tmp_path):
        """A settled job's ``/result`` and ``/counts`` bytes do not depend
        on whether the live handle or the journal answers them."""
        service = RuntimeService(cache_dir=str(tmp_path), executor="thread")
        held = []
        # Hold every settled handle in memory until released below.
        service._retire = lambda handle, journaled: held.append(
            (handle, journaled))
        with BackgroundServer(service) as server:
            with ServiceClient(server.url) as client:
                job_id = client.submit(measured_bell(), "statevector",
                                       shots=128, seed=5)
                client.counts(job_id, timeout=60)
                for _ in range(5000):
                    if held:
                        break
                    time.sleep(0.001)  # settlement is journaled off-loop
                assert isinstance(service.job(job_id), ServiceJob)
                paths = [f"/v1/jobs/{job_id}/{view}"
                         for view in ("result", "counts", "trace")]
                live = [client._request("GET", path, raw=True)
                        for path in paths]
                (handle, journaled), = held
                assert journaled
                RuntimeService._retire(service, handle, journaled)
                assert isinstance(service.job(job_id), RecoveredJob)
                served = [client._request("GET", path, raw=True)
                          for path in paths]
        assert served == live
        result = json.loads(served[0])["results"][0]
        assert result["metadata"]["engine"] == "statevector"
        assert "recovered" not in result["metadata"]


class TestJournalLessExpiry:
    def test_old_ids_expire_past_the_bound(self):
        circuit = measured_bell()
        extra = 8

        async def life():
            service = RuntimeService(executor="thread", journal=False,
                                     accounting=False)
            handles = []
            largest_map = 0
            for seed in range(RECENT_SETTLED_JOBS + extra):
                handle = await service.submit(circuit, "statevector",
                                              shots=16, seed=seed)
                await handle.wait()
                handles.append(handle)
                largest_map = max(largest_map, len(service._jobs))
            expired = []
            for handle in handles[:extra]:
                with pytest.raises(JobExpired) as excinfo:
                    service.job(handle.job_id)
                expired.append(excinfo.value)
            kept = [service.job(h.job_id) for h in handles[extra:]]
            unknown = handles[-1].journal_id + 1000
            with pytest.raises(UnknownJob) as excinfo:
                service.job(f"svc-{unknown}")
            await service.close()
            return handles, largest_map, expired, kept, excinfo.value

        handles, largest_map, expired, kept, unknown = run(life())
        assert largest_map <= RECENT_SETTLED_JOBS
        for handle, error in zip(handles, expired):
            assert isinstance(error, UnknownJob)  # existing handlers hold
            assert error.job_id == handle.job_id
            assert "expired" in str(error)
        assert kept == handles[extra:]  # the recent ones are the live handles
        assert type(unknown) is UnknownJob

    def test_expiry_is_typed_over_the_wire(self, monkeypatch):
        monkeypatch.setattr(service_module, "RECENT_SETTLED_JOBS", 2)
        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False)
        with BackgroundServer(service) as server:
            with ServiceClient(server.url) as client:
                job_ids = []
                for seed in range(4):
                    job_ids.append(client.submit(measured_bell(),
                                                 "statevector", shots=16,
                                                 seed=seed))
                    client.counts(job_ids[-1], timeout=60)
                with pytest.raises(JobExpired) as excinfo:
                    client.counts(job_ids[0], timeout=60)
                recent = client.counts(job_ids[-1], timeout=60)
        assert excinfo.value.job_id == job_ids[0]
        assert "expired" in str(excinfo.value)
        assert sum(recent[0].values()) == 16
