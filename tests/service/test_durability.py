"""Restart-recovery tests with real killed interpreters.

The in-process recovery suite (``test_journal.py``) exercises recovery
mechanics; this file proves the actual durability claim: a service whose
*process dies* — including mid-flight, via ``os._exit`` with a job
journaled but unsettled — comes back in a fresh interpreter over the
same ``$REPRO_CACHE_DIR`` and

* answers ``status()``/``result()``/``counts()`` for pre-restart
  ``svc-N`` ids with bit-identical counts,
* re-runs the unsettled job exactly once, and
* still honours the pre-restart bearer token (hashed records persist).

A crash *mid-journal-write* is simulated by tearing or corrupting frames
of the journal's record log: replay's digest check must turn the damaged
record into a miss, never a crash, and spare every other record.

The drivers run through :func:`repro.runtime.harness.run_driver_process`
— the same subprocess contract the persistence sweeps use.
"""

import pickle

import pytest

from repro.circuits import library
from repro.runtime import execute
from repro.runtime.harness import run_driver_process
from repro.service import JobJournal
from repro.service.recordlog import HEADER, RecordLog

#: Both executors the scheduler can fan out over; the service must be
#: restart-durable regardless of which ran the pre-crash jobs.
EXECUTORS = ("thread", "process")

#: Life 1: serve two seeded jobs to completion, journal a third, then die
#: without yielding to the event loop — deterministically unsettled.
_FIRST_LIFE = """
import asyncio, json, os, sys
from repro.circuits import library
from repro.service import RuntimeService

spec = json.loads(sys.argv[1])

def bell():
    c = library.bell_pair()
    c.measure_all()
    return c

def ghz():
    c = library.ghz_state(3)
    c.measure_all()
    return c

async def main():
    service = RuntimeService(executor=spec["executor"])
    token = service.register_client("alice", token="alice-token", weight=2)
    first = await service.submit(bell(), "statevector", shots=512, seed=11,
                                 token=token)
    second = await service.submit(ghz(), "noisy:ibmqx4", shots=256, seed=7,
                                  token=token)
    report = {
        "first": {"id": first.job_id,
                  "counts": [dict(sorted(c.items()))
                             for c in await first.counts()]},
        "second": {"id": second.job_id,
                   "counts": [dict(sorted(c.items()))
                              for c in await second.counts()]},
    }
    # Settlement journaling runs off-loop; wait until both records are
    # settled ON DISK (a fresh journal over the same dir sees them), so
    # the kill below deterministically tears off only the third job.
    # Bounded: a wedged settlement should fail loudly, not hang the
    # harness until its timeout.
    from repro.service import JobJournal
    deadline = asyncio.get_running_loop().time() + 120.0
    while True:
        durable = JobJournal(cache_dir=os.environ["REPRO_CACHE_DIR"])
        one, two = durable.record(1), durable.record(2)
        if one and two and one["settled"] and two["settled"]:
            break
        if asyncio.get_running_loop().time() > deadline:
            raise RuntimeError(f"settlements never landed on disk: {one} {two}")
        await asyncio.sleep(0.01)
    third = await service.submit(bell(), "statevector", shots=128, seed=3,
                                 token=token)
    report["third"] = {"id": third.job_id}
    print(json.dumps(report))
    sys.stdout.flush()
    # Die without ever yielding to the loop again: the settle machinery
    # (loop callbacks -> journal settlement) can never run, so the third
    # job stays journaled-but-unsettled no matter what the executor did
    # with it.  Worker processes are reaped first purely so they do not
    # inherit our stdout pipe and wedge the harness waiting on EOF.
    from repro.runtime.pool import shutdown_executors
    shutdown_executors(wait=True)
    os._exit(0)

asyncio.run(main())
"""

#: Life 2: recover in a fresh interpreter and serve the pre-restart ids.
_SECOND_LIFE = """
import asyncio, json, sys
from repro.service import RuntimeService

spec = json.loads(sys.argv[1])

async def main():
    service = RuntimeService(executor=spec["executor"])
    summary = await service.recover()
    report = {"summary": summary, "jobs": {}}
    for job_id in spec["job_ids"]:
        handle = service.job(job_id, token=spec.get("token"))
        await handle.wait()
        report["jobs"][job_id] = {
            "status": service.status(job_id, token=spec.get("token")),
            "type": type(handle).__name__,
            "counts": [dict(sorted(c.items()))
                       for c in await handle.counts()],
        }
    report["second_recover"] = await service.recover()
    await service.close()
    print(json.dumps(report))

asyncio.run(main())
"""


@pytest.mark.parametrize("executor", EXECUTORS)
def test_killed_service_recovers_bit_identically(tmp_path, executor):
    spec = {"executor": executor}
    first_life, _ = run_driver_process(_FIRST_LIFE, spec, cache_dir=tmp_path)
    ids = [first_life["first"]["id"], first_life["second"]["id"],
           first_life["third"]["id"]]
    assert ids == ["svc-1", "svc-2", "svc-3"]

    second_life, _ = run_driver_process(
        _SECOND_LIFE,
        {"executor": executor, "job_ids": ids, "token": "alice-token"},
        cache_dir=tmp_path,
    )
    # Two settled jobs restored, the torn-off third re-run exactly once.
    assert second_life["summary"] == {
        "restored": 2, "resubmitted": 1, "skipped": 0,
    }
    assert second_life["second_recover"] == {
        "restored": 0, "resubmitted": 0, "skipped": 3,
    }
    jobs = second_life["jobs"]
    for key in ("first", "second"):
        pre = first_life[key]
        post = jobs[pre["id"]]
        assert post["type"] == "RecoveredJob"
        assert post["status"] == "done"
        assert post["counts"] == pre["counts"]  # bit-identical
    # The recovered third job ran for real, deterministically: its counts
    # must match a local reference run of the same workload.
    bell = library.bell_pair()
    bell.measure_all()
    reference = [
        dict(sorted(r.counts.items()))
        for r in execute([bell], "statevector", shots=128, seed=3).result()
    ]
    third = jobs[first_life["third"]["id"]]
    assert third["type"] == "ServiceJob"
    assert third["status"] == "done"
    assert third["counts"] == reference


def _frames(data):
    """Yield ``(start, end, key, value)`` for each frame of an intact log."""
    pos = 0
    while pos < len(data):
        _magic, length, _digest = HEADER.unpack_from(data, pos)
        end = pos + HEADER.size + length
        key, value = pickle.loads(data[pos + HEADER.size:end])
        yield pos, end, key, value
        pos = end


def test_crash_mid_journal_write_is_a_miss_not_a_crash(tmp_path):
    first_life, _ = run_driver_process(
        _FIRST_LIFE, {"executor": "thread"}, cache_dir=tmp_path
    )
    log = tmp_path / "service" / "journal.log"
    data = log.read_bytes()
    frames = list(_frames(data))
    # Two submissions, two settlements, then the third job's submission,
    # the last write before the process died.
    assert len(frames) == 5
    start, end, key, record = frames[-1]
    assert key == 3 and not record["settled"]

    # A crash mid-append tears the last frame: it is a miss and replay
    # stops there, keeping everything before it.
    log.write_bytes(data[:(start + end) // 2])
    journal = JobJournal(cache_dir=str(tmp_path))
    assert [r["id"] for r in journal.records()] == [1, 2]
    assert all(r["settled"] for r in journal.records())

    # Torn inside the very first frame: loading must not raise, and every
    # record is simply gone.
    log.write_bytes(data[:37])
    journal = JobJournal(cache_dir=str(tmp_path))
    assert len(journal) == 0
    assert journal.next_id() == 1

    second_life, _ = run_driver_process(
        _SECOND_LIFE,
        {"executor": "thread", "job_ids": [], "token": "alice-token"},
        cache_dir=tmp_path,
    )
    assert second_life["summary"] == {
        "restored": 0, "resubmitted": 0, "skipped": 0,
    }


def test_single_torn_record_spares_the_rest(tmp_path):
    first_life, _ = run_driver_process(
        _FIRST_LIFE, {"executor": "thread"}, cache_dir=tmp_path
    )
    log = tmp_path / "service" / "journal.log"
    before = JobJournal(cache_dir=str(tmp_path))
    assert len(before) == 3
    # Corrupt exactly the settled first job's settlement frame.
    data = bytearray(log.read_bytes())
    (start, end), = [(start, end) for start, end, key, record
                     in _frames(bytes(data))
                     if key == 1 and record["settled"]]
    data[(start + HEADER.size + end) // 2] ^= 0xFF
    log.write_bytes(bytes(data))

    replayed = RecordLog(log)
    replayed.replay()
    assert replayed.corrupt == 1  # skipped and counted, not a crash
    journal = JobJournal(cache_dir=str(tmp_path))
    assert len(journal) == 3
    # Job 1's submission frame survives, so it comes back unsettled.
    assert journal.record(1)["settled"] is False
    assert journal.record(2)["settled"] is True
    # Ids never collide with the survivors.
    assert journal.next_id() == 4

    # Recovery over the remaining records still works end to end: job 2
    # is restored, jobs 1 and 3 re-run, and job 1's re-run reproduces its
    # pre-crash counts bit for bit.
    second_life, _ = run_driver_process(
        _SECOND_LIFE,
        {"executor": "thread",
         "job_ids": [first_life["first"]["id"], first_life["second"]["id"]],
         "token": "alice-token"},
        cache_dir=tmp_path,
    )
    assert second_life["summary"] == {
        "restored": 1, "resubmitted": 2, "skipped": 0,
    }
    jobs = second_life["jobs"]
    for key, kind in (("first", "ServiceJob"), ("second", "RecoveredJob")):
        job = jobs[first_life[key]["id"]]
        assert job["type"] == kind
        assert job["counts"] == first_life[key]["counts"]
