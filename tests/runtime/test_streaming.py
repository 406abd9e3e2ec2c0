"""Satellite: streaming collection (``as_completed``) and job priorities.

The streaming contract is exactly-once delivery in completion order: every
job of the set surfaces exactly once, whatever its terminal state — done,
cancelled, or failed — so a consumer loop never hangs on a lost job and
never double-processes one.  Priorities shape executor submission order,
which the serial executor turns into exact execution order.
"""

import threading

import pytest

from repro.circuits import library
from repro.devices.backend import Backend
from repro.exceptions import JobError
from repro.results.counts import Counts
from repro.results.result import Result
from repro.runtime import execute
from repro.runtime.job import JobStatus


def measured_bell():
    qc = library.bell_pair()
    qc.measure_all()
    return qc


class GateBackend(Backend):
    """Backend whose runs block until released (streaming-order tests)."""

    name = "gate"

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()

    def run(self, circuit, shots=1024, seed=None):
        self.started.set()
        assert self.release.wait(timeout=10)
        return Result(counts=Counts({"0": shots}), shots=shots)


class FailingBackend(Backend):
    name = "failing"

    def run(self, circuit, shots=1024, seed=None):
        raise RuntimeError("engine exploded")


class RecordingBackend(Backend):
    """Records the ``shots`` of each run, i.e. the execution order."""

    name = "recorder"

    def __init__(self):
        self.order = []

    def run(self, circuit, shots=1024, seed=None):
        self.order.append(shots)
        return Result(counts=Counts({"0": shots}), shots=shots)


class TestAsCompleted:
    def test_yields_every_job_exactly_once(self):
        jobs = execute(
            [measured_bell()] * 5, "statevector", shots=list(range(10, 60, 10)),
            seed=[1, 2, 3, 4, 5], executor="thread", dedupe=False,
        )
        seen = [job.job_id for job in jobs.as_completed(timeout=30)]
        assert sorted(seen) == sorted(job.job_id for job in jobs)
        assert len(seen) == len(set(seen)) == 5

    def test_completion_order_not_submission_order(self):
        gate = GateBackend()
        jobs = execute(
            [measured_bell()] * 2,
            [gate, "statevector"],
            shots=16,
            seed=1,
            executor="thread",
            max_workers=2,
        )
        stream = jobs.as_completed(timeout=30)
        first = next(stream)
        assert first is jobs[1]  # the fast job surfaces while job 0 blocks
        gate.release.set()
        assert next(stream) is jobs[0]
        with pytest.raises(StopIteration):
            next(stream)

    def test_cancelled_jobs_still_surface(self):
        gate = GateBackend()
        # One worker: the gate occupies it, the second job stays queued.
        jobs = execute(
            [measured_bell()] * 2, gate, shots=16, executor="thread",
            max_workers=1, dedupe=False,
        )
        assert gate.started.wait(timeout=10)
        assert jobs[1].cancel() is True
        gate.release.set()
        streamed = list(jobs.as_completed(timeout=30))
        assert len(streamed) == 2
        statuses = {job.job_id: job.status() for job in streamed}
        assert statuses[jobs[0].job_id] is JobStatus.DONE
        assert statuses[jobs[1].job_id] is JobStatus.CANCELLED
        with pytest.raises(JobError, match="cancelled"):
            jobs[1].result()

    def test_failed_jobs_still_surface(self):
        jobs = execute(
            [measured_bell()] * 2,
            [FailingBackend(), "statevector"],
            shots=16,
            seed=1,
            executor="thread",
        )
        streamed = list(jobs.as_completed(timeout=30))
        assert len(streamed) == 2
        failed = next(job for job in streamed if job.backend.name == "failing")
        assert failed.status() is JobStatus.ERROR
        with pytest.raises(JobError, match="engine exploded"):
            failed.result()

    def test_timeout_raises_but_jobs_survive(self):
        gate = GateBackend()
        jobs = execute(
            [measured_bell()], gate, shots=16, executor="thread", max_workers=1
        )
        with pytest.raises(JobError, match="pending"):
            list(jobs.as_completed(timeout=0.05))
        gate.release.set()
        # The stream can be restarted after the work finishes.
        assert [job.job_id for job in jobs.as_completed(timeout=30)] == [
            jobs[0].job_id
        ]

    def test_stream_wakes_on_completion_not_on_a_timer(self, monkeypatch):
        import time
        import types

        import repro.runtime.job as job_module

        def no_sleep(_seconds):
            raise AssertionError("as_completed slept instead of waiting")

        monkeypatch.setattr(job_module, "time", types.SimpleNamespace(
            monotonic=time.monotonic, perf_counter=time.perf_counter,
            sleep=no_sleep,
        ))
        gate = GateBackend()
        jobs = execute(
            [measured_bell()], gate, shots=16, executor="thread", max_workers=1
        )
        stream = jobs.as_completed(timeout=30)
        assert gate.started.wait(timeout=10)
        threading.Timer(0.05, gate.release.set).start()
        assert next(stream) is jobs[0]
        with pytest.raises(StopIteration):
            next(stream)

    def test_derived_jobs_stream_with_their_primary(self):
        jobs = execute(
            [measured_bell()] * 4, "density_matrix", shots=64, seed=7,
            executor="thread",
        )
        assert jobs.num_executed == 1
        streamed = list(jobs.as_completed(timeout=30))
        assert sorted(j.job_id for j in streamed) == sorted(
            j.job_id for j in jobs
        )

    def test_empty_set_streams_nothing(self):
        jobs = execute([], "statevector")
        assert list(jobs.as_completed()) == []

    def test_serial_executor_streams_in_submission_order(self):
        jobs = execute(
            [measured_bell()] * 3, "statevector", shots=[8, 16, 24],
            seed=[1, 2, 3], executor="serial", dedupe=False,
        )
        assert [job.shots for job in jobs.as_completed()] == [8, 16, 24]


class TestPriorities:
    def test_priority_orders_serial_execution(self):
        recorder = RecordingBackend()
        jobs = execute(
            [measured_bell()] * 3, recorder, shots=[1, 2, 3], seed=[1, 2, 3],
            priority=[0, 5, 1], executor="serial", dedupe=False,
        )
        # Highest priority ran first; equal-priority falls back to input order.
        assert recorder.order == [2, 3, 1]
        # JobSet order is untouched — input order, with priorities attached.
        assert [job.shots for job in jobs] == [1, 2, 3]
        assert [job.priority for job in jobs] == [0, 5, 1]

    def test_equal_priorities_keep_input_order(self):
        recorder = RecordingBackend()
        execute(
            [measured_bell()] * 3, recorder, shots=[1, 2, 3], seed=[1, 2, 3],
            priority=7, executor="serial", dedupe=False,
        )
        assert recorder.order == [1, 2, 3]

    def test_negative_priority_runs_last(self):
        recorder = RecordingBackend()
        execute(
            [measured_bell()] * 3, recorder, shots=[1, 2, 3], seed=[1, 2, 3],
            priority=[-1, 0, 0], executor="serial", dedupe=False,
        )
        assert recorder.order == [2, 3, 1]

    def test_priority_never_changes_counts(self):
        base = execute(
            [measured_bell()] * 3, "density_matrix", shots=128, seed=[1, 2, 3],
            executor="serial",
        ).counts()
        prioritised = execute(
            [measured_bell()] * 3, "density_matrix", shots=128, seed=[1, 2, 3],
            priority=[0, 9, 3], executor="serial",
        ).counts()
        assert [dict(c) for c in prioritised] == [dict(c) for c in base]

    def test_priority_list_length_validated(self):
        with pytest.raises(JobError, match="priority list"):
            execute(
                [measured_bell()] * 2, "statevector", shots=8, priority=[1, 2, 3]
            )
