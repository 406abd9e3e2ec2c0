"""Tests for the execute() entry point and batch deduplication."""

import pytest

from repro.circuits import library
from repro.core.injector import AssertionInjector
from repro.exceptions import JobError
from repro.runtime.batching import plan_batches
from repro.runtime.execute import execute, execute_and_collect
from repro.runtime.job import Job, JobSet
from repro.runtime.provider import get_backend


def measured_bell():
    qc = library.bell_pair()
    qc.measure_all()
    return qc


def measured_ghz(n=3):
    qc = library.ghz_state(n)
    qc.measure_all()
    return qc


class TestExecuteShapes:
    def test_single_circuit_returns_job(self):
        job = execute(measured_bell(), "statevector", shots=100, seed=1)
        assert isinstance(job, Job)

    def test_batch_returns_jobset_in_order(self):
        jobs = execute(
            [measured_bell(), measured_ghz()], "statevector", shots=100, seed=1
        )
        assert isinstance(jobs, JobSet)
        assert jobs[0].circuit.num_qubits == 2
        assert jobs[1].circuit.num_qubits == 3

    def test_backend_spec_string(self):
        job = execute(measured_bell(), "stabilizer", shots=100, seed=1)
        assert job.backend.name == "stabilizer"

    def test_per_circuit_backends(self):
        jobs = execute(
            [measured_bell(), measured_bell()],
            ["statevector", get_backend("stabilizer")],
            shots=100,
            seed=1,
        )
        assert jobs[0].backend.name == "statevector"
        assert jobs[1].backend.name == "stabilizer"

    def test_per_circuit_shots_and_seeds(self):
        jobs = execute(
            [measured_bell(), measured_bell()],
            "statevector",
            shots=[100, 200],
            seed=[1, 2],
            dedupe=False,
        )
        results = jobs.result()
        assert results[0].counts.shots == 100
        assert results[1].counts.shots == 200

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(JobError, match="shots list"):
            execute([measured_bell()], "statevector", shots=[100, 200])
        with pytest.raises(JobError, match="seed list"):
            execute([measured_bell()], "statevector", seed=[1, 2])
        with pytest.raises(JobError, match="backend list"):
            execute([measured_bell()], ["statevector", "stabilizer"])

    def test_invalid_workers_rejected(self):
        with pytest.raises(JobError, match="max_workers"):
            execute(measured_bell(), "statevector", max_workers=0)

    def test_invalid_shots_rejected_before_submission(self):
        """A bad batch entry must fail fast, before any job is submitted."""
        with pytest.raises(JobError, match="shots must be non-negative"):
            execute(
                [measured_bell(), measured_bell()],
                "statevector",
                shots=[1024, -5],
                seed=[1, 2],
            )

    def test_invalid_chunk_shots_rejected(self):
        with pytest.raises(JobError, match="chunk_shots"):
            execute(measured_bell(), "statevector", shots=100, chunk_shots=0)

    @pytest.mark.parametrize("name, value", [
        ("chunk_shots", 2.5),
        ("chunk_shots", True),
        ("chunk_shots", "auto"),
        ("shots", 2.5),
        ("shots", False),
        ("shots", "8"),
        ("max_workers", 2.5),
        ("max_workers", True),
        ("seed", 2.5),
        ("seed", True),
        ("seed", "8"),
        ("priority", 2.5),
        ("priority", True),
        ("priority", "8"),
    ])
    def test_non_integer_counts_rejected_before_any_job(self, name, value):
        """Only ints (NumPy ints included) count shots, chunks and
        workers, seed a job or set its priority; anything else fails
        before a backend prepares or a pool is opened."""
        calls = []

        class Recording(type(get_backend("stabilizer"))):
            def prepare(self, circuit):
                calls.append(circuit)
                return circuit

        backend = Recording()
        backend.transpile = True
        with pytest.raises(JobError, match=f"{name} must be an int"):
            execute(measured_bell(), backend, executor="thread",
                    **{"shots": 8, name: value})
        assert calls == []

    def test_numpy_integer_counts_accepted(self):
        import numpy as np

        job = execute(measured_bell(), "stabilizer", shots=np.int64(64),
                      seed=3, chunk_shots=np.int32(16),
                      max_workers=np.int64(2), executor="serial")
        assert job.plan["chunk_shots"] == 16
        assert type(job.plan["chunk_shots"]) is int
        assert job.result().counts.shots == 64

    def test_per_circuit_seed_and_priority_entries_checked(self):
        with pytest.raises(JobError, match="seed must be an int"):
            execute([measured_bell()] * 2, "statevector", shots=8,
                    seed=[1, 2.5])
        with pytest.raises(JobError, match="priority must be an int"):
            execute([measured_bell()] * 2, "statevector", shots=8,
                    priority=[1, True])

    def test_negative_seed_rejected_before_submission(self):
        with pytest.raises(JobError, match="seed must be non-negative"):
            execute([measured_bell()] * 2, "statevector", shots=8,
                    seed=[1, -1])

    def test_numpy_integer_seed_and_priority_accepted(self):
        import numpy as np

        job = execute(measured_bell(), "stabilizer", shots=64,
                      seed=np.int64(3), priority=np.int32(2),
                      executor="serial")
        reference = execute(measured_bell(), "stabilizer", shots=64, seed=3,
                            executor="serial")
        assert dict(job.counts()) == dict(reference.counts())

    def test_execute_and_collect(self):
        result = execute_and_collect(measured_bell(), "statevector", shots=64, seed=9)
        assert result.counts.shots == 64


class TestBatchEquivalence:
    """execute() must reproduce the sequential backend.run loop exactly."""

    @pytest.mark.parametrize("spec", ["statevector", "density_matrix", "stabilizer"])
    def test_distinct_circuits_match_sequential_loop(self, spec):
        circuits = [measured_bell(), measured_ghz(3), measured_ghz(4)]
        backend = get_backend(spec)
        sequential = [backend.run(c, shots=512, seed=7) for c in circuits]
        batch = execute(circuits, backend, shots=512, seed=7, max_workers=3)
        for loop_result, job_result in zip(sequential, batch.result()):
            assert dict(loop_result.counts) == dict(job_result.counts)

    def test_noisy_sweep_batch_matches_sequential_loop(self, ibmqx4_device):
        """Acceptance: >= 8 sweep circuits, identical counts to the loop."""
        injected = []
        for mode in ("pairwise", "single"):
            injector = AssertionInjector(library.ghz_state(3))
            injector.assert_entangled([0, 1, 2], mode=mode)
            injector.measure_program()
            injected.append(injector.circuit)
        circuits = (injected + [measured_bell(), measured_ghz(3)]) * 2
        assert len(circuits) >= 8
        backend = get_backend("noisy:ibmqx4")
        sequential = [backend.run(c, shots=1024, seed=2020) for c in circuits]
        batch = execute(circuits, backend, shots=1024, seed=2020, max_workers=4)
        for loop_result, job_result in zip(sequential, batch.result()):
            assert dict(loop_result.counts) == dict(job_result.counts)


class TestDeduplication:
    def test_spec_string_backend_still_dedupes(self):
        """A scalar spec string must resolve to ONE backend instance."""
        jobs = execute([measured_bell()] * 4, "density_matrix", shots=64, seed=3)
        assert jobs.num_executed == 1
        assert len({id(job.backend) for job in jobs}) == 1

    def test_repeated_specs_in_backend_list_share_instances(self):
        jobs = execute(
            [measured_bell()] * 3,
            ["density_matrix", "density_matrix", "stabilizer"],
            shots=64,
            seed=3,
        )
        assert jobs[0].backend is jobs[1].backend
        assert jobs.num_executed == 2

    def test_share_runs_once(self):
        backend = get_backend("density_matrix")
        jobs = execute([measured_bell()] * 6, backend, shots=256, seed=3)
        results = jobs.result()
        assert jobs.num_executed == 1
        reference = dict(backend.run(measured_bell(), shots=256, seed=3).counts)
        for result in results:
            assert dict(result.counts) == reference

    def test_shared_results_are_independent_copies(self):
        jobs = execute([measured_bell()] * 2, "density_matrix", shots=256, seed=3)
        first, second = jobs.result()
        first.counts["00"] = 0
        assert second.counts != first.counts

    def test_resample_matches_dedicated_runs(self):
        backend = get_backend("density_matrix")
        seeds = [1, 2, 3, 4]
        jobs = execute([measured_bell()] * 4, backend, shots=512, seed=seeds)
        assert jobs.num_executed == 1
        for seed, result in zip(seeds, jobs.result()):
            dedicated = backend.run(measured_bell(), shots=512, seed=seed)
            assert dict(result.counts) == dict(dedicated.counts)
            assert result.metadata["seed"] == seed

    def test_resample_respects_chunking(self):
        """A deduplicated chunked job matches its dedicated chunked run."""
        backend = get_backend("density_matrix")
        jobs = execute(
            [measured_bell()] * 2, backend, shots=1024, seed=[1, 2],
            chunk_shots=512,
        )
        assert jobs.num_executed == 1
        dedicated = execute(
            measured_bell(), backend, shots=1024, seed=2, chunk_shots=512
        ).result()
        assert dict(jobs.result()[1].counts) == dict(dedicated.counts)

    def test_fallback_resample_runs_lazily_but_correctly(self):
        """Primary without exact probabilities: derived job runs for real.

        Poll loops must terminate (``done()`` goes true once no pool work
        is outstanding), and the lazy fallback simulation inside
        ``result()`` must match a dedicated run exactly.
        """
        from repro.devices.backend import StatevectorBackend
        from repro.runtime.job import JobStatus

        backend = StatevectorBackend(max_branches=1)  # forces per-shot mode
        jobs = execute(
            [measured_bell()] * 2, backend, shots=64, seed=[1, 2], max_workers=1
        )
        jobs[0].result()
        assert jobs.done()  # nothing outstanding in the pool
        result = jobs[1].result()
        assert jobs[1].status() is JobStatus.DONE
        assert jobs[1].time_taken > 0.0  # the fallback really simulated
        dedicated = backend.run(measured_bell(), shots=64, seed=2)
        assert dict(result.counts) == dict(dedicated.counts)

    def test_cancelled_primary_does_not_orphan_derived_jobs(self):
        """Dedup is transparent: siblings survive a primary's cancellation."""
        import threading

        from repro.devices.backend import Backend
        from repro.exceptions import JobError
        from repro.results.counts import Counts
        from repro.results.result import Result

        release = threading.Event()

        class Gate(Backend):
            name = "gate"
            returns_probabilities = False

            def run(self, circuit, shots=1024, seed=None):
                release.wait(timeout=10)
                return Result(counts=Counts({"0": shots}), shots=shots)

        blocker = Gate()
        fast = get_backend("density_matrix")
        # One worker: the gate job occupies it so the dedup group's primary
        # (job 2) stays queued and cancellable.  Pinned to the thread
        # executor: the gate's event cannot cross a process boundary and
        # inline execution has no queue to cancel from.
        jobs = execute(
            [measured_bell()] * 3,
            [blocker, fast, fast],
            shots=64,
            seed=[0, 1, 1],
            max_workers=1,
            executor="thread",
        )
        assert jobs[1].cancel() is True
        release.set()
        jobs[0].result()
        with pytest.raises(JobError, match="cancelled"):
            jobs[1].result()
        # The derived sibling was never cancelled and still yields counts.
        result = jobs[2].result()
        dedicated = fast.run(measured_bell(), shots=64, seed=1)
        assert dict(result.counts) == dict(dedicated.counts)

    def test_per_shot_engine_distinct_seeds_run_independently(self):
        backend = get_backend("stabilizer")
        jobs = execute([measured_bell()] * 3, backend, shots=128, seed=[1, 2, 3])
        assert jobs.num_executed == 3
        for seed, result in zip([1, 2, 3], jobs.result()):
            dedicated = backend.run(measured_bell(), shots=128, seed=seed)
            assert dict(result.counts) == dict(dedicated.counts)

    def test_unseeded_jobs_never_share(self):
        jobs = execute([measured_bell()] * 3, "stabilizer", shots=64, seed=None)
        assert jobs.num_executed == 3

    def test_dedupe_disabled(self):
        jobs = execute([measured_bell()] * 4, "density_matrix", shots=64, seed=1,
                       dedupe=False)
        assert jobs.num_executed == 4

    def test_distinct_backends_never_group(self):
        jobs = execute(
            [measured_bell(), measured_bell()],
            [get_backend("density_matrix"), get_backend("density_matrix")],
            shots=64,
            seed=1,
        )
        assert jobs.num_executed == 2


class TestPlanBatches:
    def test_plan_counts(self):
        backend = get_backend("density_matrix")
        circuits = [measured_bell()] * 3 + [measured_ghz()]
        plan = plan_batches(circuits, [backend] * 4, [64] * 4, [5] * 4)
        assert plan.num_executed == 2
        roles = [j.role for j in plan.jobs]
        assert roles == ["primary", "share", "share", "primary"]

    def test_plan_dedupe_off(self):
        backend = get_backend("density_matrix")
        plan = plan_batches(
            [measured_bell()] * 2, [backend] * 2, [64] * 2, [5] * 2, dedupe=False
        )
        assert [j.role for j in plan.jobs] == ["independent", "independent"]
