"""Tests for :mod:`repro.runtime.scheduler` and its execute() integration:
adaptive chunk planning, backend-aware executor defaults, the parent-side
process-fan-out prepare, and the fair-share multi-client queue.
"""

import math
import multiprocessing
import threading
import time

import pytest

from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.devices.backend import Backend, NoisyDeviceBackend
from repro.devices.ibmqx4 import ibmqx4
from repro.exceptions import JobAbandoned, JobError, QueueTimeout
from repro.results.counts import Counts
from repro.results.result import Result
from repro.runtime import (
    DEFAULT_COST_MODEL,
    Scheduler,
    TranspileCache,
    execute,
    get_backend,
    profile_key,
)
from repro.runtime.cache import transpile_key
from repro.runtime.pool import EXECUTOR_ENV_VAR
from repro.runtime.profile import CostModel
from repro.runtime.scheduler import (
    MIN_CHUNK_SHOTS,
    OVERSUBSCRIBE,
    SCHEDULE_ENV_VAR,
    TARGET_CHUNK_SECONDS,
    plan_chunk_shots,
)


def measured_bell():
    circuit = library.bell_pair()
    circuit.measure_all()
    return circuit


def measured_ghz(n):
    circuit = library.ghz_state(n)
    circuit.measure_all()
    return circuit


# ----------------------------------------------------------------------
# Backend classification and executor defaults
# ----------------------------------------------------------------------


class TestBackendClassification:
    """Only engines without an exact distribution pay per shot."""

    @pytest.mark.parametrize("spec", ["stabilizer", "trajectory:ibmqx4"])
    def test_sampling_engines_chunk(self, spec):
        assert plan_chunk_shots(
            get_backend(spec), measured_bell(), 1000, width=4,
            cost_model=CostModel(),
        ) == 250

    @pytest.mark.parametrize("spec", ["statevector", "density_matrix", "noisy:ibmqx4"])
    def test_exact_engines_never_chunk(self, spec):
        assert plan_chunk_shots(
            get_backend(spec), measured_bell(), 100000, width=8,
            cost_model=CostModel(),
        ) is None


class TestExecutorDefaults:
    """Every in-repo engine runs on threads unless told otherwise."""

    @pytest.mark.parametrize("spec", [
        "statevector", "density_matrix", "stabilizer", "noisy:ibmqx4",
        "trajectory:ibmqx4",
    ])
    def test_every_engine_defaults_to_thread(self, monkeypatch, spec):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        job = execute(measured_bell(), spec, shots=8, seed=1,
                      schedule="adaptive")
        assert job.plan["executor"] == "thread"

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "serial")
        job = execute(measured_bell(), "stabilizer", shots=8, seed=1,
                      schedule="adaptive")
        assert job.plan["executor"] == "serial"

    def test_explicit_executor_wins(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        job = execute(measured_bell(), "stabilizer", shots=8, seed=1,
                      schedule="adaptive", executor="serial")
        assert job.plan["executor"] == "serial"

    def test_fixed_schedule_keeps_flat_default(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        job = execute(measured_bell(), "stabilizer", shots=8, seed=1,
                      schedule="fixed")
        assert job.plan["executor"] == "thread"

    def test_mixed_batch_shares_one_pool(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        jobs = execute(
            [measured_bell(), measured_bell()],
            [get_backend("trajectory:ibmqx4"), get_backend("statevector")],
            shots=8, seed=1, schedule="adaptive",
        )
        assert [job.plan["executor"] for job in jobs] == ["thread", "thread"]

    def test_schedule_env_default(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        monkeypatch.setenv(SCHEDULE_ENV_VAR, "fixed")
        job = execute(measured_bell(), "stabilizer", shots=8, seed=1)
        assert job.plan["schedule"] == "fixed"
        assert job.plan["executor"] == "thread"

    def test_bad_schedule_rejected(self):
        with pytest.raises(JobError, match="schedule"):
            execute(measured_bell(), "statevector", shots=8, schedule="psychic")

    def test_bad_schedule_env_rejected(self, monkeypatch):
        monkeypatch.setenv(SCHEDULE_ENV_VAR, "psychic")
        with pytest.raises(JobError, match="REPRO_SCHEDULE"):
            execute(measured_bell(), "statevector", shots=8)


# ----------------------------------------------------------------------
# Adaptive chunk planning
# ----------------------------------------------------------------------


class TestPlanChunkShots:
    def test_exact_backend_never_chunks(self):
        model = CostModel()
        model.observe_run(profile_key(get_backend("statevector"), measured_bell()),
                          shots=10, elapsed=100.0)
        assert plan_chunk_shots(
            get_backend("statevector"), measured_bell(), 100000, width=8,
            cost_model=model,
        ) is None

    def test_single_worker_never_chunks(self):
        assert plan_chunk_shots(
            get_backend("stabilizer"), measured_bell(), 100000, width=1,
            cost_model=CostModel(),
        ) is None

    def test_small_jobs_never_chunk(self):
        assert plan_chunk_shots(
            get_backend("stabilizer"), measured_bell(), MIN_CHUNK_SHOTS, width=8,
            cost_model=CostModel(),
        ) is None

    def test_cold_model_saturates_pool(self):
        chunk = plan_chunk_shots(
            get_backend("stabilizer"), measured_bell(), 1000, width=4,
            cost_model=CostModel(),
        )
        assert chunk == 250  # one chunk per worker

    def test_warm_model_targets_chunk_seconds(self):
        backend = get_backend("trajectory:ibmqx4")
        model = CostModel()
        model.observe_run(profile_key(backend, measured_bell()), 1000, 16.0)
        chunk = plan_chunk_shots(backend, measured_bell(), 1000, width=4,
                                 cost_model=model)
        # 16 s of work cut into 1.6 s targets -> 10 chunks of 100.
        assert TARGET_CHUNK_SECONDS == 1.6
        assert chunk == 100

    def test_cheap_jobs_stay_whole(self):
        backend = get_backend("stabilizer")
        model = CostModel()
        model.observe_run(profile_key(backend, measured_bell()), 100000, 0.1)
        assert plan_chunk_shots(backend, measured_bell(), 1000, width=4,
                                cost_model=model) is None

    def test_oversubscription_bound(self):
        backend = get_backend("stabilizer")
        model = CostModel()
        model.observe_run(profile_key(backend, measured_bell()), 10, 10.0)
        width = 4
        chunk = plan_chunk_shots(backend, measured_bell(), 10000, width=width,
                                 cost_model=model)
        import math

        assert math.ceil(10000 / chunk) <= width * OVERSUBSCRIBE

    def test_min_chunk_floor(self):
        backend = get_backend("stabilizer")
        model = CostModel()
        model.observe_run(profile_key(backend, measured_bell()), 10, 10.0)
        chunk = plan_chunk_shots(backend, measured_bell(), 40, width=4,
                                 cost_model=model)
        assert chunk >= MIN_CHUNK_SHOTS

    def test_plan_is_deterministic(self):
        backend = get_backend("stabilizer")
        model = CostModel()
        model.observe_run(profile_key(backend, measured_bell()), 1000, 1.0)
        plans = {
            plan_chunk_shots(backend, measured_bell(), 1000, width=4,
                             cost_model=model)
            for _ in range(5)
        }
        assert len(plans) == 1


class TestAdaptiveChunkingInExecute:
    def _warmed_key(self, backend, circuit, per_shot=0.5):
        """Teach the default model a heavy per-shot cost for this key."""
        key = profile_key(backend, circuit)
        DEFAULT_COST_MODEL.observe_run(key, 100, per_shot * 100)
        return key

    def test_unseeded_per_shot_job_is_chunked(self):
        backend = get_backend("stabilizer")
        circuit = measured_ghz(6)
        self._warmed_key(backend, circuit)
        job = execute(circuit, backend, shots=320, executor="serial",
                      max_workers=4, schedule="adaptive")
        assert job.plan["chunk_shots"] is not None
        assert len(job._futures) > 1
        assert job.result().counts.shots == 320

    def test_seeded_job_keeps_fixed_plan(self):
        backend = get_backend("stabilizer")
        circuit = measured_ghz(6)
        self._warmed_key(backend, circuit)
        adaptive = execute(circuit, backend, shots=320, seed=11,
                           executor="serial", max_workers=4,
                           schedule="adaptive")
        fixed = execute(circuit, backend, shots=320, seed=11,
                        executor="serial", max_workers=4, schedule="fixed")
        assert adaptive.plan["chunk_shots"] is None
        assert len(adaptive._futures) == 1
        assert dict(adaptive.counts()) == dict(fixed.counts())

    def test_auto_opt_in_matches_explicit_fixed_chunking(self):
        backend = get_backend("stabilizer")
        circuit = measured_ghz(6)
        self._warmed_key(backend, circuit)
        auto = execute(circuit, backend, shots=320, seed=11,
                       chunk_shots="auto", executor="serial", max_workers=4,
                       schedule="adaptive")
        resolved = auto.plan["chunk_shots"]
        assert resolved is not None and resolved < 320
        fixed = execute(circuit, backend, shots=320, seed=11,
                        chunk_shots=resolved, executor="serial",
                        max_workers=4, schedule="fixed")
        assert dict(auto.counts()) == dict(fixed.counts())

    def test_auto_requires_adaptive(self):
        with pytest.raises(JobError, match="auto"):
            execute(measured_bell(), "stabilizer", shots=64,
                    chunk_shots="auto", schedule="fixed")

    def test_bogus_chunk_string_rejected(self):
        with pytest.raises(JobError, match="chunk_shots"):
            execute(measured_bell(), "stabilizer", shots=64,
                    chunk_shots="huge")

    def test_explicit_chunk_shots_always_wins(self):
        backend = get_backend("stabilizer")
        circuit = measured_ghz(6)
        self._warmed_key(backend, circuit)
        job = execute(circuit, backend, shots=320, chunk_shots=320,
                      executor="serial", max_workers=4, schedule="adaptive")
        assert job.plan["chunk_shots"] == 320
        assert len(job._futures) == 1


# ----------------------------------------------------------------------
# Parent-side prepare before process fan-out
# ----------------------------------------------------------------------


class CountingTranspileCache(TranspileCache):
    """A TranspileCache that appends one byte to a file per actual lowering.

    The file is shared across processes, so worker-side transpiles are
    counted too — which is the whole point of the regression test below.
    """

    def __init__(self, count_file, maxsize: int = 1024) -> None:
        super().__init__(maxsize=maxsize)
        self.count_file = str(count_file)

    def transpile(self, circuit, device, layout=None, optimize=True):
        key = transpile_key(circuit, device, layout, optimize)
        cached = self.lookup(key)
        if cached is not None:
            return cached
        with open(self.count_file, "ab") as handle:
            handle.write(b"x")
        from repro.transpiler.passes import transpile_for_device

        lowered = transpile_for_device(
            circuit, device, layout=layout, optimize=optimize
        )
        self.store(key, lowered)
        return lowered


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="counting cache crosses the process boundary by reference",
)


class TestParentSidePrepare:
    @needs_fork
    def test_process_fanout_transpiles_exactly_once(self, tmp_path):
        """ROADMAP satellite: explicit-cache backends must not re-transpile
        per chunk task under executor="process" — the parent lowers once
        and ships the prepared circuit."""
        counter = tmp_path / "transpiles"
        counter.touch()
        cache = CountingTranspileCache(counter)
        backend = NoisyDeviceBackend(ibmqx4(), cache=cache)
        circuit = measured_bell()
        job = execute(circuit, backend, shots=256, seed=3, chunk_shots=64,
                      executor="process")
        pooled = dict(job.counts())
        assert counter.read_bytes() == b"x"  # one lowering, parent-side
        reference = execute(
            circuit, NoisyDeviceBackend(ibmqx4(), cache=False), shots=256,
            seed=3, chunk_shots=64, executor="serial",
        )
        assert pooled == dict(reference.counts())

    @needs_fork
    def test_thread_fanout_still_counts_one(self, tmp_path):
        """Thread pools share the cache, so one lowering there too."""
        counter = tmp_path / "transpiles"
        counter.touch()
        backend = NoisyDeviceBackend(ibmqx4(), cache=CountingTranspileCache(counter))
        execute(measured_bell(), backend, shots=256, seed=3, chunk_shots=64,
                executor="thread").result()
        assert counter.read_bytes() == b"x"

    def test_prepare_failure_surfaces_at_collection(self):
        """A circuit too big for the device keeps failing through the job
        future (collection-time JobError), not at submit time."""
        backend = NoisyDeviceBackend(ibmqx4())  # 5-qubit device
        job = execute(measured_ghz(6), backend, shots=32, seed=1,
                      executor="process")
        with pytest.raises(JobError, match="failed"):
            job.result()

    def test_transpile_disabled_backend_untouched(self):
        """transpile=False backends ship as-is (nothing to prepare)."""
        backend = NoisyDeviceBackend(ibmqx4(), transpile=False)
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_all()
        job = execute(circuit, backend, shots=64, seed=5, executor="process")
        serial = execute(circuit, backend, shots=64, seed=5, executor="serial")
        assert dict(job.counts()) == dict(serial.counts())


# ----------------------------------------------------------------------
# Cost keys and prepare-first dispatch
# ----------------------------------------------------------------------


class TestOneCostKey:
    """One execution mode per engine, so one cost key per (engine, qubits)."""

    def test_trajectory_key_is_the_backend_name(self):
        circuit = measured_bell()
        assert profile_key(get_backend("trajectory:ibmqx4"), circuit) == (
            "trajectory(ibmqx4)", 2
        )

    def test_run_and_prepare_share_the_key(self):
        """A job's probe carries one key; run and prepare costs land on it."""
        backend = get_backend("trajectory:ibmqx4")
        circuit = measured_bell()
        key = profile_key(backend, circuit)
        job = execute(circuit, backend, shots=32, seed=3, executor="serial")
        job.result()
        model, probe_key = job._cost_probe
        assert model is DEFAULT_COST_MODEL
        assert probe_key == key
        entry = DEFAULT_COST_MODEL.profile(key)
        assert entry["shot_samples"] >= 1

    def test_every_sampling_engine_has_one_chunk_target(self):
        """A user engine is planned like the in-repo batch-axis engines."""

        class UserEngine(Backend):
            name = "user-engine"

        circuit = measured_bell()
        model = CostModel()
        backends = [get_backend("trajectory:ibmqx4"), get_backend("stabilizer"),
                    UserEngine()]
        for backend in backends:
            model.observe_run(profile_key(backend, circuit), 1000, 1.0)
        plans = {
            plan_chunk_shots(backend, circuit, 20000, width=4, cost_model=model)
            for backend in backends
        }
        assert len(plans) == 1 and None not in plans


class TranspilingRecordingBackend(Backend):
    """Records run order and looks like a transpiling device backend."""

    name = "transpiling-recorder"
    transpile = True

    def __init__(self, log):
        self.log = log

    def prepare(self, circuit):
        return circuit

    def run(self, circuit, shots=1024, seed=None):
        self.log.append(circuit.name)
        return Result(counts=Counts({"0": shots}), shots=shots)


class TestPrepareAwareDispatch:
    """ROADMAP follow-up: transpile-heavy jobs are submitted first."""

    def _circuits(self):
        cheap = QuantumCircuit(1, name="cheap")
        cheap.measure_all()
        heavy = QuantumCircuit(6, name="heavy")
        heavy.measure_all()
        return cheap, heavy

    def test_adaptive_submits_transpile_heavy_first(self):
        log = []
        backend = TranspilingRecordingBackend(log)
        cheap, heavy = self._circuits()
        DEFAULT_COST_MODEL.observe_prepare(profile_key(backend, heavy), 5.0)
        execute([cheap, heavy], backend, shots=8, seed=1, executor="serial",
                schedule="adaptive", dedupe=False).result()
        assert log == ["heavy", "cheap"]

    def test_fixed_schedule_keeps_submission_order(self):
        log = []
        backend = TranspilingRecordingBackend(log)
        cheap, heavy = self._circuits()
        DEFAULT_COST_MODEL.observe_prepare(profile_key(backend, heavy), 5.0)
        execute([cheap, heavy], backend, shots=8, seed=1, executor="serial",
                schedule="fixed", dedupe=False).result()
        assert log == ["cheap", "heavy"]

    def test_priority_still_wins_over_prepare_estimate(self):
        log = []
        backend = TranspilingRecordingBackend(log)
        cheap, heavy = self._circuits()
        DEFAULT_COST_MODEL.observe_prepare(profile_key(backend, heavy), 5.0)
        execute([cheap, heavy], backend, shots=8, seed=1, executor="serial",
                schedule="adaptive", dedupe=False, priority=[1, 0]).result()
        assert log == ["cheap", "heavy"]


# ----------------------------------------------------------------------
# Fair-share multi-client scheduler
# ----------------------------------------------------------------------


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


def named_circuit(name):
    circuit = QuantumCircuit(1, name=name)
    circuit.measure_all()
    return circuit


def wait_for_dispatches(scheduler, count, timeout=10.0):
    """Block until the scheduler has dispatched ``count`` batches.

    The dispatch counter increments *before* the dispatcher enters
    execute(), so this observably pins "the blocker batch now occupies the
    serial dispatcher" even while its gated simulation is still blocked.
    """
    deadline = time.monotonic() + timeout
    while scheduler.stats()["dispatched_batches"] < count:
        assert time.monotonic() < deadline, "dispatcher never picked up work"
        time.sleep(0.002)


class TestSchedulerFairShare:
    def test_weighted_round_robin_order(self):
        """Weights steer dispatch: each round grants `weight` slots."""
        log = []
        gate = threading.Event()
        blocker_backend = RecordingBackend(log, gate=gate)
        backend = RecordingBackend(log)
        with Scheduler(max_in_flight=1, executor="serial") as scheduler:
            scheduler.client("a", weight=1)
            scheduler.client("b", weight=3)
            # The blocker holds the (serial) dispatcher so every batch
            # below is queued before the round-robin starts.
            scheduler.submit(named_circuit("blocker"), blocker_backend,
                             shots=1, client="z")
            wait_for_dispatches(scheduler, 1)
            for i in range(4):
                scheduler.submit(named_circuit(f"a{i}"), backend, shots=1,
                                 client="a")
            for i in range(4):
                scheduler.submit(named_circuit(f"b{i}"), backend, shots=1,
                                 client="b")
            gate.set()
            assert scheduler.wait_idle(timeout=30)
        assert log == [
            "blocker",
            "a0", "b0", "b1", "b2",  # round one: 1 + 3 slots
            "a1", "b3",              # round two: b drained mid-round
            "a2", "a3",
        ]

    def test_priority_orders_within_client(self):
        log = []
        gate = threading.Event()
        with Scheduler(max_in_flight=1, executor="serial") as scheduler:
            scheduler.submit(named_circuit("blocker"),
                             RecordingBackend(log, gate=gate), shots=1,
                             client="z")
            wait_for_dispatches(scheduler, 1)
            backend = RecordingBackend(log)
            scheduler.submit(named_circuit("low"), backend, shots=1,
                             client="a", priority=0)
            scheduler.submit(named_circuit("high"), backend, shots=1,
                             client="a", priority=5)
            scheduler.submit(named_circuit("low2"), backend, shots=1,
                             client="a", priority=0)
            gate.set()
            assert scheduler.wait_idle(timeout=30)
        assert log == ["blocker", "high", "low", "low2"]

    def test_admission_control_bounds_in_flight_jobs(self):
        gate = threading.Event()
        backend = RecordingBackend([], gate=gate)
        scheduler = Scheduler(max_in_flight=2, executor="thread", max_workers=2)
        try:
            first = scheduler.submit(
                [named_circuit("g0"), named_circuit("g1")], backend, shots=1,
                client="a", dedupe=False,
            )
            second = scheduler.submit(named_circuit("g2"), backend, shots=1,
                                      client="a")
            deadline = time.monotonic() + 10
            while not first.dispatched and time.monotonic() < deadline:
                time.sleep(0.005)
            assert first.dispatched
            time.sleep(0.05)  # give the dispatcher a chance to over-admit
            stats = scheduler.stats()
            assert stats["in_flight_jobs"] == 2
            assert stats["queued_batches"] == 1
            assert second.status() == "queued"
            gate.set()
            assert scheduler.wait_idle(timeout=30)
            assert second.status() == "done"
        finally:
            gate.set()
            scheduler.shutdown()

    def test_oversized_batch_admitted_alone(self):
        with Scheduler(max_in_flight=1, executor="serial") as scheduler:
            batch = scheduler.submit(
                [named_circuit(f"c{i}") for i in range(3)],
                RecordingBackend([]), shots=4, client="big", dedupe=False,
            )
            results = batch.result(timeout=30)
        assert len(results) == 3

    def test_failed_dispatch_marks_batch_and_keeps_serving(self):
        with Scheduler(executor="serial") as scheduler:
            bad = scheduler.submit(named_circuit("bad"), "statevector",
                                   shots=-5, client="a")
            good = scheduler.submit(named_circuit("good"), "statevector",
                                    shots=16, seed=1, client="a")
            with pytest.raises(JobError, match="failed to dispatch"):
                bad.result(timeout=30)
            assert bad.status() == "failed"
            assert len(good.result(timeout=30)) == 1
            assert scheduler.wait_idle(timeout=10)
            stats = scheduler.stats()["clients"]["a"]
        # Failed jobs count as settled: submitted vs completed reconciles.
        assert stats["failed_batches"] == 1
        assert stats["completed_batches"] == 2
        assert stats["completed_jobs"] == stats["submitted_jobs"] == 2

    def test_result_timeout_is_one_shared_deadline(self):
        """A dispatched-but-stuck batch must time out in about `timeout`
        seconds, not dispatch-wait plus collection-wait."""
        gate = threading.Event()
        backend = RecordingBackend([], gate=gate)
        scheduler = Scheduler(executor="thread", max_workers=1)
        try:
            batch = scheduler.submit(named_circuit("stuck"), backend, shots=1)
            start = time.monotonic()
            with pytest.raises(JobError):
                batch.result(timeout=0.4)
            assert time.monotonic() - start < 5.0
        finally:
            gate.set()
            scheduler.shutdown()

    def test_counts_identical_to_direct_execute(self):
        circuit = measured_bell()
        direct = execute(circuit, "statevector", shots=512, seed=9,
                         executor="serial").counts()
        with Scheduler(executor="serial") as scheduler:
            batch = scheduler.submit(circuit, "statevector", shots=512,
                                     seed=9, client="a")
            scheduled = batch.counts(timeout=30)
        assert [dict(scheduled[0])] == [dict(direct)]

    def test_submit_after_shutdown_raises(self):
        scheduler = Scheduler(executor="serial")
        scheduler.shutdown()
        with pytest.raises(JobError, match="shut down"):
            scheduler.submit(named_circuit("late"), "statevector", shots=4)

    def test_shutdown_with_zero_timeout_fails_queued_batches(self):
        gate = threading.Event()
        log = []
        scheduler = Scheduler(max_in_flight=1, executor="serial")
        scheduler.submit(named_circuit("blocker"),
                         RecordingBackend(log, gate=gate), shots=1, client="z")
        wait_for_dispatches(scheduler, 1)  # the blocker owns the dispatcher
        queued = scheduler.submit(named_circuit("never"),
                                  RecordingBackend(log), shots=1, client="a")
        # shutdown(0) fails the queued batch immediately; the dispatcher
        # needs the gate released to finish the blocker.
        stopper = threading.Thread(
            target=scheduler.shutdown, kwargs={"timeout": 0}
        )
        stopper.start()
        with pytest.raises(JobError):
            queued.jobs(timeout=10)
        assert queued.status() == "failed"
        gate.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        assert log == ["blocker"]

    def test_shutdown_abandons_running_jobs_at_the_deadline(self):
        gate = threading.Event()
        scheduler = Scheduler(executor="thread", max_workers=1)
        try:
            batch = scheduler.submit(named_circuit("stuck"),
                                     RecordingBackend([], gate=gate), shots=1)
            batch.jobs(timeout=10)
            start = time.monotonic()
            summary = scheduler.shutdown(timeout=0.2)
            assert time.monotonic() - start < 5.0
            assert summary == {"settled": False, "failed": [],
                               "abandoned": [batch], "threads": []}
            assert batch.status() == "failed"
            with pytest.raises(JobAbandoned):
                batch.result(timeout=0)
            with pytest.raises(JobAbandoned):
                batch._jobset[0].result(timeout=0)
        finally:
            gate.set()

    def test_stats_shape(self):
        with Scheduler(executor="serial") as scheduler:
            scheduler.client("a", weight=2)
            batch = scheduler.submit(named_circuit("c"), "statevector",
                                     shots=8, seed=1, client="a")
            batch.result(timeout=30)
            assert scheduler.wait_idle(timeout=10)
            stats = scheduler.stats()
        assert stats["clients"]["a"]["weight"] == 2
        assert stats["clients"]["a"]["submitted_batches"] == 1
        assert stats["clients"]["a"]["completed_batches"] == 1
        assert stats["clients"]["a"]["completed_jobs"] == 1
        assert stats["dispatched_batches"] == 1
        assert stats["in_flight_jobs"] == 0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(JobError, match="max_in_flight"):
            Scheduler(max_in_flight=0)
        scheduler = Scheduler(executor="serial")
        try:
            with pytest.raises(JobError, match="weight"):
                scheduler.client("a", weight=0)
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# Queue policies: validation, timeouts, deadlines, preemption, width
# ----------------------------------------------------------------------


class TestSubmitValidation:
    def test_bad_client_names_rejected(self):
        with Scheduler(executor="serial") as scheduler:
            with pytest.raises(ValueError, match="non-empty string"):
                scheduler.submit(named_circuit("c"), "statevector", client="")
            with pytest.raises(ValueError, match="non-empty string"):
                scheduler.submit(named_circuit("c"), "statevector", client=7)

    @pytest.mark.parametrize("priority", [-1, -100, 1.5, "high", True, None])
    def test_bad_priorities_rejected(self, priority):
        with Scheduler(executor="serial") as scheduler:
            with pytest.raises(ValueError, match="priority"):
                scheduler.submit(named_circuit("c"), "statevector",
                                 priority=priority)

    def test_bad_deadlines_rejected(self):
        with Scheduler(executor="serial") as scheduler:
            with pytest.raises(ValueError, match="deadline must be positive"):
                scheduler.submit(named_circuit("c"), "statevector", deadline=0)
            with pytest.raises(ValueError, match="deadline_action"):
                scheduler.submit(named_circuit("c"), "statevector",
                                 deadline=1.0, deadline_action="explode")

    def test_unregistered_client_rejected_when_registration_required(self):
        with Scheduler(executor="serial",
                       require_registration=True) as scheduler:
            scheduler.client("alice")
            with pytest.raises(ValueError, match="not registered"):
                scheduler.submit(named_circuit("c"), "statevector",
                                 client="mallory")
            # The error names who *is* registered, to aid fixing the call.
            with pytest.raises(ValueError, match="alice"):
                scheduler.submit(named_circuit("c"), "statevector",
                                 client="mallory")
            batch = scheduler.submit(named_circuit("c"), "statevector",
                                     shots=8, seed=1, client="alice")
            batch.result(timeout=30)

    def test_auto_registration_still_default(self):
        with Scheduler(executor="serial") as scheduler:
            batch = scheduler.submit(named_circuit("c"), "statevector",
                                     shots=8, seed=1, client="newcomer")
            batch.result(timeout=30)


class TestQueueTimeoutSemantics:
    def test_timeout_while_queued_raises_queue_timeout_with_position(self):
        gate = threading.Event()
        try:
            with Scheduler(max_in_flight=1, executor="thread") as scheduler:
                blocker = scheduler.submit(
                    named_circuit("blocker"), RecordingBackend([], gate=gate),
                    shots=4,
                )
                blocker.jobs(timeout=10)  # pinned in flight, gated
                first = scheduler.submit(named_circuit("first"),
                                         RecordingBackend([]), shots=4)
                second = scheduler.submit(named_circuit("second"),
                                          RecordingBackend([]), shots=4)
                with pytest.raises(QueueTimeout) as excinfo:
                    second.result(timeout=0.05)
                error = excinfo.value
                assert isinstance(error, JobError)  # old handlers still catch
                assert error.client == "default"
                assert error.waited >= 0.05
                assert error.queue_position == 1  # behind `first`
                assert error.queued_batches == 2
                assert "position 2 of 2" in str(error)
                with pytest.raises(QueueTimeout) as excinfo:
                    first.counts(timeout=0.05)
                assert excinfo.value.queue_position == 0
                gate.set()
                assert first.counts(timeout=30)
        finally:
            gate.set()

    def test_timeout_after_dispatch_is_not_a_queue_timeout(self):
        gate = threading.Event()
        try:
            with Scheduler(max_in_flight=1, executor="thread") as scheduler:
                batch = scheduler.submit(
                    named_circuit("slow"), RecordingBackend([], gate=gate),
                    shots=4,
                )
                batch.jobs(timeout=10)
                with pytest.raises(JobError) as excinfo:
                    batch.result(timeout=0.05)
                assert not isinstance(excinfo.value, QueueTimeout)
                gate.set()
                batch.result(timeout=30)
        finally:
            gate.set()


class TestDeadlines:
    def test_deadline_drop_retires_queued_batch(self):
        gate = threading.Event()
        try:
            with Scheduler(max_in_flight=1, executor="thread") as scheduler:
                log = []
                blocker = scheduler.submit(
                    named_circuit("blocker"), RecordingBackend(log, gate=gate),
                    shots=4,
                )
                blocker.jobs(timeout=10)
                doomed = scheduler.submit(
                    named_circuit("doomed"), RecordingBackend(log), shots=4,
                    deadline=0.05,
                )
                deadline = time.monotonic() + 10
                while doomed.status() != "dropped":
                    assert time.monotonic() < deadline, "never dropped"
                    time.sleep(0.005)
                assert doomed.done()
                with pytest.raises(QueueTimeout, match="deadline"):
                    doomed.result(timeout=1)
                gate.set()
                blocker.result(timeout=30)
                assert scheduler.wait_idle(timeout=10)
                stats = scheduler.stats()["clients"]["default"]
                assert stats["dropped_batches"] == 1
                assert "doomed" not in log  # dropped work never runs
        finally:
            gate.set()

    def test_deadline_reprioritize_boosts_ahead_of_high_priority(self):
        gate = threading.Event()
        log = []
        try:
            with Scheduler(max_in_flight=1, executor="thread") as scheduler:
                blocker = scheduler.submit(
                    named_circuit("blocker"), RecordingBackend(log, gate=gate),
                    shots=4,
                )
                blocker.jobs(timeout=10)
                important = scheduler.submit(
                    named_circuit("important"), RecordingBackend(log),
                    shots=4, priority=9,
                )
                boosted = scheduler.submit(
                    named_circuit("boosted"), RecordingBackend(log), shots=4,
                    priority=0, deadline=0.05,
                    deadline_action="reprioritize",
                )
                time.sleep(0.2)  # deadline expires while still queued
                gate.set()
                important.result(timeout=30)
                boosted.result(timeout=30)
                assert log.index("boosted") < log.index("important")
                stats = scheduler.stats()["clients"]["default"]
                assert stats["reprioritized_batches"] == 1
                assert stats["dropped_batches"] == 0
        finally:
            gate.set()


class TestPreemption:
    def test_long_waiting_batch_is_boosted(self):
        """preempt_after boosts a starved batch ahead of later
        high-priority arrivals (aging beats priority eventually)."""
        gate = threading.Event()
        log = []
        try:
            with Scheduler(max_in_flight=1, executor="thread",
                           preempt_after=0.05) as scheduler:
                blocker = scheduler.submit(
                    named_circuit("blocker"), RecordingBackend(log, gate=gate),
                    shots=4,
                )
                blocker.jobs(timeout=10)
                starved = scheduler.submit(
                    named_circuit("starved"), RecordingBackend(log), shots=4,
                    priority=0,
                )
                time.sleep(0.15)  # starved ages past preempt_after
                jumper = scheduler.submit(
                    named_circuit("jumper"), RecordingBackend(log), shots=4,
                    priority=9,
                )
                gate.set()
                starved.result(timeout=30)
                jumper.result(timeout=30)
                assert log.index("starved") < log.index("jumper")
                stats = scheduler.stats()["clients"]["default"]
                assert stats["preempted_batches"] >= 1
        finally:
            gate.set()

    def test_invalid_preempt_after_rejected(self):
        with pytest.raises(JobError, match="preempt_after"):
            Scheduler(preempt_after=0)


class TestCancelQueued:
    def test_cancel_dequeues_and_settles(self):
        gate = threading.Event()
        log = []
        try:
            with Scheduler(max_in_flight=1, executor="thread") as scheduler:
                blocker = scheduler.submit(
                    named_circuit("blocker"), RecordingBackend(log, gate=gate),
                    shots=4,
                )
                blocker.jobs(timeout=10)
                doomed = scheduler.submit(named_circuit("doomed"),
                                          RecordingBackend(log), shots=4)
                assert doomed.cancel()
                assert doomed.status() == "cancelled"
                assert doomed.done()
                with pytest.raises(JobError, match="cancelled"):
                    doomed.result(timeout=1)
                gate.set()
                blocker.result(timeout=30)
                assert scheduler.wait_idle(timeout=10)
                assert "doomed" not in log
                stats = scheduler.stats()["clients"]["default"]
                assert stats["cancelled_batches"] == 1
        finally:
            gate.set()


class TestWidthPlanner:
    def test_no_data_means_no_opinion(self):
        from repro.runtime import plan_width

        model = CostModel()
        assert plan_width(get_backend("statevector"),
                          [measured_bell()], 1024,
                          max_width=8, cost_model=model) is None

    def test_width_scales_with_estimated_cost(self):
        from repro.runtime import plan_width
        from repro.runtime.scheduler import WORKER_SECONDS

        backend = get_backend("statevector")
        circuit = measured_bell()
        model = CostModel()
        key = profile_key(backend, circuit)
        # Train: 1 ms per shot -> 1024 shots ~ 1.024 s of estimated work.
        model.observe_run(key, shots=100, elapsed=0.1)
        width = plan_width(backend, [circuit], 1024, max_width=64,
                           cost_model=model)
        expected = math.ceil(1024 * 0.001 / WORKER_SECONDS)
        assert width == expected
        # Tiny batches take one worker; huge ones clamp to the cap.
        assert plan_width(backend, [circuit], 16, max_width=64,
                          cost_model=model) == 1
        assert plan_width(backend, [circuit] * 100, 100000, max_width=8,
                          cost_model=model) == 8

    def test_single_worker_cap_means_no_opinion(self):
        from repro.runtime import plan_width

        assert plan_width(get_backend("statevector"), [measured_bell()],
                          1024, max_width=1) is None

    def test_unknown_backend_spec_means_no_opinion(self):
        from repro.runtime import plan_width

        assert plan_width("no-such-backend", [measured_bell()], 1024,
                          max_width=8) is None

    def test_scheduler_records_planned_width(self, monkeypatch):
        # The planner defers to the machine width; pin it so the test is
        # meaningful on single-core runners too.
        import repro.runtime.scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "default_max_workers",
                            lambda: 8)
        backend = get_backend("statevector")
        circuit = measured_bell()
        model = CostModel()
        model.observe_run(profile_key(backend, circuit), shots=100, elapsed=0.1)
        with Scheduler(executor="thread", width_planning=True,
                       cost_model=model) as scheduler:
            batch = scheduler.submit(circuit, backend, shots=1024, seed=3)
            batch.result(timeout=30)
            assert batch.planned_width is not None
            assert batch.planned_width >= 1

    def test_width_planning_never_changes_counts(self):
        circuit = measured_bell()
        reference = execute(circuit, "statevector", shots=256,
                            seed=5).result().counts
        model = CostModel()
        model.observe_run(profile_key(get_backend("statevector"), circuit),
                          shots=100, elapsed=0.1)
        with Scheduler(executor="thread", width_planning=True,
                       cost_model=model) as scheduler:
            batch = scheduler.submit(circuit, "statevector", shots=256, seed=5)
            assert batch.counts(timeout=30)[0] == reference


class TestSchedulerQueueStats:
    def test_queue_wait_samples_exposed(self):
        with Scheduler(executor="serial") as scheduler:
            batch = scheduler.submit(named_circuit("c"), "statevector",
                                     shots=8, seed=1)
            batch.result(timeout=30)
            assert scheduler.wait_idle(timeout=10)
            stats = scheduler.stats()
        assert stats["queue_wait_samples"] == 1
        assert stats["queue_wait_mean_s"] >= 0.0

    def test_queue_wait_histogram_backs_stats(self):
        with Scheduler(executor="serial") as scheduler:
            for seed in range(3):
                scheduler.submit(named_circuit("c"), "statevector", shots=8,
                                 seed=seed).result(timeout=30)
            assert scheduler.wait_idle(timeout=10)
            stats = scheduler.stats()
            wait = scheduler.queue_wait.snapshot()
            exposed = scheduler.metrics.snapshot()["histograms"][
                "repro_scheduler_queue_wait_seconds"
            ]
        assert stats["queue_wait_samples"] == wait["count"] == 3
        assert exposed["count"] == 3
        assert stats["queue_wait_mean_s"] == pytest.approx(wait["mean"])

    def test_stats_are_per_instance(self):
        with Scheduler(executor="serial") as busy, \
                Scheduler(executor="serial") as idle:
            for name in ("a", "b"):
                busy.submit(named_circuit(name), "statevector", shots=8,
                            seed=1, client="alice").result(timeout=30)
            assert busy.wait_idle(timeout=10)
            busy_stats, idle_stats = busy.stats(), idle.stats()
            counters = busy.metrics.snapshot()["counters"]
        assert busy_stats["dispatched_batches"] == 2
        assert counters["repro_scheduler_dispatched_batches_total"] == 2
        assert counters[
            'repro_scheduler_client_submitted_jobs_total{client="alice"}'
        ] == 2
        assert busy_stats["clients"]["alice"]["submitted_batches"] == 2
        assert idle_stats["dispatched_batches"] == 0
        assert idle_stats["queue_wait_samples"] == 0
        assert idle_stats["clients"] == {}

    def test_newest_scheduler_shown_in_default_registry(self):
        from repro.obs.metrics import DEFAULT_REGISTRY

        dispatched = "repro_scheduler_dispatched_batches_total"
        with Scheduler(executor="serial") as older:
            older.submit(named_circuit("c"), "statevector", shots=8,
                         seed=1).result(timeout=30)
            assert older.wait_idle(timeout=10)
            assert DEFAULT_REGISTRY.snapshot()["counters"][dispatched] == 1
            with Scheduler(executor="serial"):
                # the newer scheduler takes the slot; its count is its own
                assert DEFAULT_REGISTRY.snapshot()["counters"][dispatched] == 0
