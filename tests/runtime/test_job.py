"""Tests for Job/JobSet lifecycle, chunk merging, and failure handling."""

import threading
import time

import pytest

from repro.circuits import library
from repro.devices.backend import Backend
from repro.exceptions import JobError
from repro.results.counts import Counts
from repro.results.result import Result
from repro.runtime.batching import chunk_seed, split_shots
from repro.runtime.execute import execute
from repro.runtime.job import JobStatus


def measured_bell():
    qc = library.bell_pair()
    qc.measure_all()
    return qc


class BlockingBackend(Backend):
    """Backend that blocks until released (for status/cancel tests).

    Tests using it pin ``executor="thread"``: the in-memory events cannot
    cross a process boundary, and inline (serial) execution would block the
    test thread itself — so these tests stay meaningful under the CI
    executor matrix (``REPRO_EXECUTOR``).
    """

    name = "blocking"

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


class TestShotSplitting:
    def test_no_chunking(self):
        assert split_shots(1000, None) == [1000]
        assert split_shots(1000, 1000) == [1000]
        assert split_shots(1000, 2000) == [1000]

    def test_even_split(self):
        assert split_shots(1000, 250) == [250, 250, 250, 250]

    def test_remainder_chunk(self):
        assert split_shots(1000, 300) == [300, 300, 300, 100]

    def test_zero_shots(self):
        assert split_shots(0, 128) == [0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_shots(-1, None)
        with pytest.raises(ValueError):
            split_shots(100, 0)

    def test_chunk_seed_deterministic_and_distinct(self):
        seeds = [chunk_seed(42, i) for i in range(4)]
        assert seeds == [chunk_seed(42, i) for i in range(4)]
        assert len(set(seeds)) == 4
        assert chunk_seed(None, 3) is None


class TestJobLifecycle:
    def test_status_transitions(self):
        backend = BlockingBackend()
        job = execute(
            measured_bell(), backend, shots=10, max_workers=1, executor="thread"
        )
        assert backend.started.wait(timeout=10)
        assert job.status() is JobStatus.RUNNING
        assert not job.done()
        backend.release.set()
        result = job.result()
        assert job.status() is JobStatus.DONE
        assert job.done()
        assert result.counts == {"0": 10}

    def test_result_is_cached(self):
        job = execute(measured_bell(), "statevector", shots=100, seed=1)
        assert job.result() is job.result()

    def test_concurrent_result_calls_collect_once(self, monkeypatch):
        """Two threads calling result() while the first collection is slow
        get one Result, and the trace holds one finished collect span."""
        from repro.runtime import job as job_module

        merge = job_module.merge_chunk_results
        merging = threading.Event()

        def slow_merge(*args, **kwargs):
            merging.set()
            time.sleep(0.2)
            return merge(*args, **kwargs)

        monkeypatch.setattr(job_module, "merge_chunk_results", slow_merge)
        job = execute(measured_bell(), "statevector", shots=100, seed=1,
                      executor="thread")
        results = []
        first = threading.Thread(target=lambda: results.append(job.result()))
        first.start()
        assert merging.wait(timeout=10)
        second = threading.Thread(target=lambda: results.append(job.result()))
        second.start()
        first.join(timeout=10)
        second.join(timeout=10)
        assert len(results) == 2 and results[0] is results[1]

        def spans(node, name):
            found = [node] if node["name"] == name else []
            for child in node["children"]:
                found += spans(child, name)
            return found

        collects = spans(job.trace(), "collect")
        assert len(collects) == 1
        assert collects[0]["duration_s"] is not None

    def test_counts_shorthand(self):
        job = execute(measured_bell(), "statevector", shots=100, seed=1)
        assert job.counts() == job.result().counts

    def test_failure_raises_joberror(self):
        job = execute(measured_bell(), FailingBackend(), shots=10, max_workers=1)
        with pytest.raises(JobError, match="engine exploded"):
            job.result()
        assert job.status() is JobStatus.ERROR

    def test_cancel_queued_job(self):
        backend = BlockingBackend()
        # One worker: the first job occupies it, the second stays queued.
        jobs = execute([measured_bell()] * 2, backend, shots=10, max_workers=1,
                       dedupe=False, executor="thread")
        assert backend.started.wait(timeout=10)
        assert jobs[1].cancel() is True
        assert jobs[1].status() is JobStatus.CANCELLED
        backend.release.set()
        jobs[0].result()
        with pytest.raises(JobError, match="cancelled"):
            jobs[1].result()

    def test_cancel_finished_job_fails(self):
        job = execute(measured_bell(), "statevector", shots=10, seed=1)
        job.result()
        assert job.cancel() is False

    def test_time_taken_positive(self):
        job = execute(measured_bell(), "statevector", shots=100, seed=1)
        job.result()
        assert job.time_taken > 0.0

    def test_repr_mentions_backend(self):
        job = execute(measured_bell(), "statevector", shots=10, seed=1)
        job.result()
        assert "statevector" in repr(job)


class TestChunkMerging:
    def test_chunked_counts_total(self):
        job = execute(
            measured_bell(), "stabilizer", shots=1000, seed=3, chunk_shots=300
        )
        result = job.result()
        assert result.counts.shots == 1000
        assert result.shots == 1000
        assert result.metadata["chunks"] == 4
        assert len(result.metadata["chunk_seeds"]) == 4

    def test_chunked_exact_engine_keeps_probabilities(self):
        job = execute(
            measured_bell(), "statevector", shots=1000, seed=3, chunk_shots=500
        )
        result = job.result()
        assert result.probabilities is not None
        assert result.counts.shots == 1000


class TestJobSet:
    def test_ordering_and_access(self):
        circuits = [measured_bell() for _ in range(3)]
        jobs = execute(circuits, "statevector", shots=100, seed=5)
        assert len(jobs) == 3
        assert jobs[0] is list(jobs)[0]
        assert jobs.result()[1].counts == jobs[1].counts()

    def test_statuses_and_done(self):
        jobs = execute([measured_bell()] * 2, "statevector", shots=50, seed=2)
        jobs.result()
        assert jobs.done()
        assert jobs.statuses() == [JobStatus.DONE, JobStatus.DONE]

    def test_empty_batch(self):
        jobs = execute([], "statevector")
        assert len(jobs) == 0
        assert jobs.result() == []
        assert jobs.done()

    def test_repr_summarises(self):
        jobs = execute([measured_bell()] * 2, "statevector", shots=10, seed=1)
        jobs.result()
        assert "done=2" in repr(jobs)
