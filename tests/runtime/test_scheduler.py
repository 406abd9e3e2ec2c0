"""Tests for :mod:`repro.runtime.scheduler` and its execute() integration:
the in-memory cost model, adaptive chunk planning, backend-aware executor
defaults, the parent-side process-fan-out prepare, and the fair-share
multi-client queue.
"""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.devices.backend import Backend, NoisyDeviceBackend
from repro.devices.ibmqx4 import ibmqx4
from repro.exceptions import JobAbandoned, JobError, QueueTimeout
from repro.results.counts import Counts
from repro.results.result import Result
from repro.runtime import (
    DEFAULT_COST_MODEL,
    CostModel,
    Scheduler,
    TranspileCache,
    execute,
    get_backend,
    profile_key,
)
from repro.runtime.cache import transpile_key
from repro.runtime.pool import EXECUTOR_ENV_VAR
from repro.runtime.scheduler import (
    EWMA_ALPHA,
    MIN_CHUNK_SHOTS,
    OVERSUBSCRIBE,
    SPLIT_THRESHOLD_SECONDS,
    TARGET_CHUNK_SECONDS,
    default_schedule_mode,
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
        job = execute(measured_bell(), spec, shots=8, seed=1)
        assert job.plan["executor"] == "thread"

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "serial")
        job = execute(measured_bell(), "stabilizer", shots=8, seed=1)
        assert job.plan["executor"] == "serial"

    def test_explicit_executor_wins(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        job = execute(measured_bell(), "stabilizer", shots=8, seed=1, executor="serial")
        assert job.plan["executor"] == "serial"

    def test_mixed_batch_shares_one_pool(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        jobs = execute(
            [measured_bell(), measured_bell()],
            [get_backend("trajectory:ibmqx4"), get_backend("statevector")],
            shots=8, seed=1,
        )
        assert [job.plan["executor"] for job in jobs] == ["thread", "thread"]

    def test_schedule_switch_is_gone(self):
        """One chunk-planning rule: no ``schedule`` argument anywhere."""
        with pytest.raises(TypeError, match="schedule"):
            execute(measured_bell(), "statevector", shots=8, schedule="fixed")
        with pytest.raises(TypeError, match="schedule"):
            Scheduler(schedule="fixed")

    def test_schedule_env_is_not_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE", "psychic")
        assert default_schedule_mode() == "adaptive"
        job = execute(measured_bell(), "stabilizer", shots=8, seed=1)
        assert "schedule" not in job.plan
        assert job.result().counts.shots == 8


# ----------------------------------------------------------------------
# The in-memory cost model
# ----------------------------------------------------------------------


class TestProfileKey:
    def test_backend_name_and_qubits(self):
        bell = library.bell_pair()
        ghz = library.ghz_state(3)
        stab = get_backend("stabilizer")
        noisy = get_backend("noisy:ibmqx4")
        assert profile_key(stab, bell) == ("stabilizer", 2)
        assert profile_key(noisy, bell) == ("noisy(ibmqx4)", 2)
        assert profile_key(stab, ghz) != profile_key(stab, bell)

    def test_seeds_and_shots_do_not_participate(self):
        """The key is (engine, size) — nothing run-specific."""
        key = profile_key(get_backend("stabilizer"), library.bell_pair())
        assert key == ("stabilizer", 2)


class TestObservation:
    def test_first_sample_initialises_directly(self):
        model = CostModel()
        model.observe_run(("engine", 2), shots=100, elapsed=1.0)
        assert model.per_shot(("engine", 2)) == pytest.approx(0.01)

    def test_ewma_update(self):
        model = CostModel()
        key = ("engine", 2)
        model.observe_run(key, shots=10, elapsed=1.0)   # 0.1 s/shot
        model.observe_run(key, shots=10, elapsed=2.0)   # 0.2 s/shot
        expected = (1 - EWMA_ALPHA) * 0.1 + EWMA_ALPHA * 0.2
        assert model.per_shot(key) == pytest.approx(expected)
        assert model.profile(key)["shot_samples"] == 2

    def test_unknown_key_estimates_none(self):
        model = CostModel()
        assert model.per_shot(("never-seen", 9)) is None
        assert model.profile(("never-seen", 9)) is None

    def test_garbage_observations_ignored(self):
        model = CostModel()
        key = ("engine", 2)
        model.observe_run(key, shots=0, elapsed=1.0)
        model.observe_run(key, shots=10, elapsed=-1.0)
        model.observe_run(key, shots=10, elapsed=float("nan"))
        assert model.per_shot(key) is None

    def test_concurrent_observations_all_counted(self):
        model = CostModel()
        key = ("engine", 3)

        def hammer():
            for _ in range(200):
                model.observe_run(key, shots=10, elapsed=0.5)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert model.profile(key)["shot_samples"] == 800
        assert model.per_shot(key) == pytest.approx(0.05)

    def test_clear_drops_every_estimate(self):
        model = CostModel()
        model.observe_run(("engine", 2), shots=10, elapsed=1.0)
        model.clear()
        assert model.per_shot(("engine", 2)) is None
        assert model.summary() == {}

    def test_observation_after_clear_initialises_directly(self):
        model = CostModel()
        key = ("engine", 2)
        model.observe_run(key, shots=10, elapsed=5.0)
        model.clear()
        model.observe_run(key, shots=10, elapsed=1.0)
        assert model.per_shot(key) == pytest.approx(0.1)
        assert model.profile(key)["shot_samples"] == 1

    def test_infinite_elapsed_ignored(self):
        model = CostModel()
        key = ("engine", 2)
        model.observe_run(key, shots=10, elapsed=1.0)
        model.observe_run(key, shots=10, elapsed=float("inf"))
        assert model.per_shot(key) == pytest.approx(0.1)
        assert model.profile(key)["shot_samples"] == 1

    def test_zero_elapsed_is_a_sample(self):
        """A chunk faster than the clock's resolution still counts."""
        model = CostModel()
        model.observe_run(("engine", 2), shots=10, elapsed=0.0)
        assert model.per_shot(("engine", 2)) == 0.0
        assert model.profile(("engine", 2))["shot_samples"] == 1

    def test_profile_and_summary_are_copies(self):
        model = CostModel()
        key = ("engine", 2)
        model.observe_run(key, shots=10, elapsed=1.0)
        model.profile(key)["per_shot"] = 99.0
        model.summary()[key]["shot_samples"] = 99
        assert model.profile(key) == {"per_shot": pytest.approx(0.1),
                                      "shot_samples": 1}

    def test_models_do_not_share_entries(self):
        first, second = CostModel(), CostModel()
        first.observe_run(("engine", 2), shots=10, elapsed=1.0)
        assert second.per_shot(("engine", 2)) is None
        assert second.summary() == {}


class TestExecuteFeedsDefaultModel:
    def test_completed_chunks_observed(self):
        backend = get_backend("stabilizer")
        circuit = measured_ghz(4)
        key = profile_key(backend, circuit)
        before = (DEFAULT_COST_MODEL.profile(key) or {}).get("shot_samples", 0)
        execute(circuit, backend, shots=64, seed=1, executor="serial").result()
        after = DEFAULT_COST_MODEL.profile(key)["shot_samples"]
        assert after == before + 1
        assert DEFAULT_COST_MODEL.per_shot(key) > 0

    def test_cost_model_stats_shape(self):
        from repro.runtime import cost_model_stats

        stats = cost_model_stats()
        assert "profiles" in stats
        for label, entry in stats["profiles"].items():
            assert "/q" in label
            assert set(entry) == {"per_shot", "shot_samples"}

    def test_stats_label_is_name_and_width(self):
        from repro.runtime import cost_model_stats

        DEFAULT_COST_MODEL.observe_run(("stats-engine", 7), 4, 1.0)
        entry = cost_model_stats()["profiles"]["stats-engine/q7"]
        assert entry["per_shot"] == pytest.approx(0.25)
        assert entry["shot_samples"] >= 1

    def test_metric_families_read_the_default_model(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.sources import register_runtime_sources

        DEFAULT_COST_MODEL.observe_run(("metric-engine", 5), 8, 2.0)
        text = register_runtime_sources(MetricsRegistry()).render_prometheus()
        lines = text.splitlines()
        assert ('repro_cost_model_per_shot_seconds{profile="metric-engine/q5"} 0.25'
                in lines)
        assert any(
            line.startswith(
                'repro_cost_model_shot_samples_total{profile="metric-engine/q5"}')
            for line in lines
        )


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

    def test_split_boundary_is_a_threshold_per_worker(self):
        """Under one target's worth of work, a job splits only once it is
        worth the split threshold on every worker."""
        backend = get_backend("stabilizer")
        key = profile_key(backend, measured_bell())
        below, above = CostModel(), CostModel()
        below.observe_run(key, 1000, 4 * SPLIT_THRESHOLD_SECONDS * 0.9)
        above.observe_run(key, 1000, 4 * SPLIT_THRESHOLD_SECONDS * 1.1)
        assert plan_chunk_shots(backend, measured_bell(), 1000, width=4,
                                cost_model=below) is None
        assert plan_chunk_shots(backend, measured_bell(), 1000, width=4,
                                cost_model=above) == 250

    def test_costly_job_saturates_pool(self):
        """A job worth exactly a threshold per worker gets one chunk per
        worker."""
        backend = get_backend("stabilizer")
        model = CostModel()
        total = 4 * SPLIT_THRESHOLD_SECONDS
        assert total < TARGET_CHUNK_SECONDS
        model.observe_run(profile_key(backend, measured_bell()), 1000, total)
        chunk = plan_chunk_shots(backend, measured_bell(), 1000, width=4,
                                 cost_model=model)
        assert chunk == 250

    def test_default_width_is_the_pool_default(self, monkeypatch):
        import repro.runtime.scheduler as scheduler

        monkeypatch.setattr(scheduler, "default_max_workers", lambda: 5)
        assert plan_chunk_shots(get_backend("stabilizer"), measured_bell(),
                                1000, cost_model=CostModel()) == 200
        monkeypatch.setattr(scheduler, "default_max_workers", lambda: 1)
        assert plan_chunk_shots(get_backend("stabilizer"), measured_bell(),
                                1000, cost_model=CostModel()) is None

    def test_explicit_model_ignores_the_default(self):
        backend = get_backend("stabilizer")
        circuit = measured_ghz(5)
        DEFAULT_COST_MODEL.observe_run(profile_key(backend, circuit), 10, 100.0)
        assert plan_chunk_shots(backend, circuit, 1000, width=4) == 63
        assert plan_chunk_shots(backend, circuit, 1000, width=4,
                                cost_model=CostModel()) == 250


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
        job = execute(circuit, backend, shots=320, executor="process",
                      max_workers=4)
        assert job.plan["chunk_shots"] is not None
        assert len(job._futures) > 1
        assert job.result().counts.shots == 320

    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_warmed_job_stays_whole_off_process_pools(self, kind):
        # Thread chunks of the in-repo engines do not overlap, and serial
        # ones run back to back: the same job the process pool splits
        # runs as one task here.
        backend = get_backend("stabilizer")
        circuit = measured_ghz(6)
        self._warmed_key(backend, circuit)
        job = execute(circuit, backend, shots=320, executor=kind,
                      max_workers=4)
        assert job.plan["chunk_shots"] is None
        assert len(job._futures) == 1
        assert job.result().counts.shots == 320

    def test_seeded_job_stays_whole_on_process_pool(self):
        # The warmed model would split this job if it were unseeded; the
        # caller's seed keeps it whole, so it draws the serial run's counts.
        backend = get_backend("stabilizer")
        circuit = measured_ghz(6)
        self._warmed_key(backend, circuit)
        planned = execute(circuit, backend, shots=320, seed=11,
                          executor="process", max_workers=4)
        serial = execute(circuit, backend, shots=320, seed=11,
                         executor="serial")
        assert planned.plan["chunk_shots"] is None
        assert len(planned._futures) == 1
        assert dict(planned.counts()) == dict(serial.counts())

    def test_bogus_chunk_string_rejected(self):
        with pytest.raises(JobError, match="chunk_shots"):
            execute(measured_bell(), "stabilizer", shots=64,
                    chunk_shots="huge")

    def test_explicit_chunk_shots_always_wins(self):
        backend = get_backend("stabilizer")
        circuit = measured_ghz(6)
        self._warmed_key(backend, circuit)
        job = execute(circuit, backend, shots=320, chunk_shots=320,
                      executor="process", max_workers=4)
        assert job.plan["chunk_shots"] == 320
        assert len(job._futures) == 1


# ----------------------------------------------------------------------
# Estimates live in memory only
# ----------------------------------------------------------------------


#: Runs one seeded trajectory job in a fresh interpreter and reports the
#: cost model before and after it, as JSON on stdout.
_FRESH_PROCESS_SCRIPT = textwrap.dedent("""
    import json
    from repro.circuits import library
    from repro.runtime import DEFAULT_COST_MODEL, execute, get_backend, profile_key
    from repro.runtime.scheduler import plan_chunk_shots

    circuit = library.bell_pair()
    circuit.measure_all()
    backend = get_backend("trajectory:ibmqx4")
    key = profile_key(backend, circuit)
    before = DEFAULT_COST_MODEL.per_shot(key)
    plan = plan_chunk_shots(backend, circuit, 96, width=4)
    job = execute(circuit, backend, shots=96, seed=5, executor="serial")
    counts = dict(sorted(job.counts().items()))
    print(json.dumps({
        "before": before,
        "plan": plan,
        "after": DEFAULT_COST_MODEL.profile(key),
        "counts": counts,
    }))
""")


@pytest.fixture(scope="module")
def fresh_processes(tmp_path_factory):
    """Two interpreters run the same job, one after the other, against
    one ``$REPRO_CACHE_DIR``."""
    cache_dir = tmp_path_factory.mktemp("cache")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, REPRO_CACHE_DIR=str(cache_dir))
    reports = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "-c", _FRESH_PROCESS_SCRIPT], env=env,
            capture_output=True, text=True, timeout=120,
            stdin=subprocess.DEVNULL,
        )
        assert done.returncode == 0, done.stderr
        reports.append(json.loads(done.stdout))
    return {"cache_dir": cache_dir, "first": reports[0], "second": reports[1]}


class TestEstimatesLiveInMemory:
    def test_first_process_learns(self, fresh_processes):
        first = fresh_processes["first"]
        assert first["before"] is None
        assert first["after"]["per_shot"] > 0
        assert first["after"]["shot_samples"] == 1

    def test_fresh_process_starts_cold(self, fresh_processes):
        """Nothing the first process measured reaches the second."""
        second = fresh_processes["second"]
        assert second["before"] is None
        assert second["after"]["shot_samples"] == 1

    def test_fresh_process_plans_the_bootstrap(self, fresh_processes):
        assert fresh_processes["first"]["plan"] == 24  # 96 shots / width 4
        assert fresh_processes["second"]["plan"] == 24

    def test_seeded_counts_agree_across_processes(self, fresh_processes):
        assert fresh_processes["first"]["counts"] == fresh_processes["second"]["counts"]
        assert sum(fresh_processes["first"]["counts"].values()) == 96

    def test_cache_dir_holds_no_profile_namespace(self, fresh_processes):
        namespaces = set(os.listdir(fresh_processes["cache_dir"]))
        assert "transpile" in namespaces
        assert namespaces <= {"transpile", "distribution"}

    def test_cache_dir_hook_leaves_the_model_alone(self, tmp_path):
        from repro.runtime import set_default_cache_dir
        from repro.runtime.cache import DEFAULT_CACHE
        from repro.runtime.distcache import DEFAULT_DISTRIBUTION_CACHE

        key = ("hook-engine", 3)
        DEFAULT_COST_MODEL.observe_run(key, 10, 1.0)
        before_t = DEFAULT_CACHE._store.disk
        before_d = DEFAULT_DISTRIBUTION_CACHE._store.disk
        try:
            set_default_cache_dir(str(tmp_path))
            assert DEFAULT_COST_MODEL.per_shot(key) == pytest.approx(0.1)
            set_default_cache_dir(None)
            assert DEFAULT_COST_MODEL.per_shot(key) == pytest.approx(0.1)
        finally:
            DEFAULT_CACHE._store.disk = before_t
            DEFAULT_DISTRIBUTION_CACHE._store.disk = before_d
        assert not (tmp_path / "profile").exists()

    def test_planned_runs_write_no_profile_namespace(self, tmp_path):
        from repro.runtime import set_default_cache_dir
        from repro.runtime.cache import DEFAULT_CACHE
        from repro.runtime.distcache import DEFAULT_DISTRIBUTION_CACHE

        backend = get_backend("trajectory:ibmqx4")
        before_t = DEFAULT_CACHE._store.disk
        before_d = DEFAULT_DISTRIBUTION_CACHE._store.disk
        try:
            set_default_cache_dir(str(tmp_path))
            planned = execute(measured_ghz(3), backend, shots=96,
                              executor="process", max_workers=2)
            seeded = execute(measured_ghz(3), backend, shots=96, seed=3,
                             executor="serial")
            assert planned.result().counts.shots == 96
            assert seeded.result().counts.shots == 96
        finally:
            DEFAULT_CACHE._store.disk = before_t
            DEFAULT_DISTRIBUTION_CACHE._store.disk = before_d
        assert DEFAULT_COST_MODEL.per_shot(profile_key(backend, measured_ghz(3))) > 0
        assert set(os.listdir(tmp_path)) <= {"transpile", "distribution"}


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


class TestDispatchOrder:
    """Jobs reach the pool in priority order, then plan order."""

    def _circuits(self):
        cheap = QuantumCircuit(1, name="cheap")
        cheap.measure_all()
        heavy = QuantumCircuit(6, name="heavy")
        heavy.measure_all()
        return cheap, heavy

    def test_keeps_submission_order(self):
        log = []
        backend = TranspilingRecordingBackend(log)
        cheap, heavy = self._circuits()
        execute([cheap, heavy], backend, shots=8, seed=1, executor="serial",
                dedupe=False).result()
        assert log == ["cheap", "heavy"]

    def test_priority_wins_over_plan_order(self):
        log = []
        backend = TranspilingRecordingBackend(log)
        cheap, heavy = self._circuits()
        execute([heavy, cheap], backend, shots=8, seed=1, executor="serial",
                dedupe=False, priority=[0, 1]).result()
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


class GatedBackend(RecordingBackend):
    """A gated :class:`RecordingBackend` that reports when a run started."""

    def __init__(self, log, gate):
        super().__init__(log, gate=gate)
        self.started = threading.Event()

    def run(self, circuit, shots=1024, seed=None):
        self.started.set()
        return super().run(circuit, shots=shots, seed=seed)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestCompletionCallbacks:
    """Completion reaches the scheduler only through job done-callbacks:
    the dispatcher sleeps while work runs, every terminal path settles a
    batch exactly once, and queue policies fire on their own timers."""

    @staticmethod
    def settle_log(batch):
        fired = []
        batch.add_done_callback(fired.append)
        return fired

    @staticmethod
    def assert_settled_once(scheduler, batch, fired):
        assert scheduler.wait_idle(timeout=10)
        assert fired == [batch]
        late = []
        batch.add_done_callback(late.append)  # settled: fires at once
        assert late == [batch]
        stats = scheduler.stats()
        assert stats["in_flight_jobs"] == 0
        for client in stats["clients"].values():
            assert client["completed_batches"] == client["submitted_batches"]
            assert client["completed_jobs"] == client["submitted_jobs"]

    def test_dispatcher_sleeps_while_a_batch_runs(self):
        gate = threading.Event()
        wakes = []
        try:
            with Scheduler(executor="thread") as scheduler:
                wait = scheduler._lock.wait

                def counting_wait(timeout=None):
                    if threading.current_thread().name == "repro-scheduler":
                        wakes.append(timeout)
                    return wait(timeout)

                scheduler._lock.wait = counting_wait
                batch = scheduler.submit(
                    named_circuit("gated"), RecordingBackend([], gate=gate),
                    shots=4,
                )
                batch.jobs(timeout=10)
                before = len(wakes)
                time.sleep(0.3)
                during = len(wakes) - before
                gate.set()
                batch.result(timeout=30)
                assert scheduler.wait_idle(timeout=10)
        finally:
            gate.set()
        assert during <= 3, f"dispatcher woke {during} times while idle"

    def test_countdown_survives_concurrent_settles(self):
        """Many jobs settling at once on more workers than cores, with a
        tiny switch interval: a lost countdown update would leave a batch
        in flight forever."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Scheduler(executor="thread", max_workers=8,
                           max_in_flight=1000) as scheduler:
                batches = [
                    scheduler.submit(
                        [named_circuit(f"c{b}-{j}") for j in range(32)],
                        RecordingBackend([]), shots=1, seed=list(range(32)),
                        client=f"client{b % 3}", dedupe=False,
                    )
                    for b in range(6)
                ]
                fired = [self.settle_log(batch) for batch in batches]
                for batch, log in zip(batches, fired):
                    self.assert_settled_once(scheduler, batch, log)
        finally:
            sys.setswitchinterval(previous)

    def test_cached_batch_settles_once(self):
        from repro.runtime import DistributionCache

        cache = DistributionCache()
        with Scheduler(executor="thread") as scheduler:
            scheduler.submit(measured_bell(), "statevector", shots=64,
                             seed=1, distribution_cache=cache).result(timeout=30)
            batch = scheduler.submit(measured_bell(), "statevector",
                                     shots=64, seed=2,
                                     distribution_cache=cache)
            fired = self.settle_log(batch)
            assert batch.jobs(timeout=10)[0].cached
            self.assert_settled_once(scheduler, batch, fired)
        assert batch.status() == "done"

    def test_derived_job_with_cancelled_source_settles_once(self):
        gate = threading.Event()
        blocker_backend = GatedBackend([], gate)
        try:
            with Scheduler(executor="thread", max_workers=1) as scheduler:
                blocker = scheduler.submit(named_circuit("blocker"),
                                           blocker_backend, shots=4)
                assert blocker_backend.started.wait(10)
                circuit = measured_bell()
                batch = scheduler.submit([circuit, circuit], "statevector",
                                         shots=64, seed=[3, 4])
                fired = self.settle_log(batch)
                primary, derived = batch.jobs(timeout=10)
                assert derived.derived
                assert primary.cancel()
                # Settled while the blocker still holds the only worker.
                wait_until(lambda: fired)
                assert blocker.status() == "running"
                gate.set()
                self.assert_settled_once(scheduler, batch, fired)
                assert derived.result(timeout=30).counts.shots == 64
        finally:
            gate.set()

    def test_dispatch_failure_settles_once(self):
        with Scheduler(executor="thread") as scheduler:
            batch = scheduler.submit(named_circuit("x"), "no-such-backend",
                                     shots=4)
            fired = self.settle_log(batch)
            self.assert_settled_once(scheduler, batch, fired)
        assert batch.status() == "failed"

    @pytest.mark.parametrize("path", ["deadline_drop", "queued_cancel",
                                      "shutdown_abandon"])
    def test_queue_side_and_shutdown_paths_settle_once(self, path):
        gate = threading.Event()
        try:
            scheduler = Scheduler(max_in_flight=1, executor="thread")
            blocker = scheduler.submit(
                named_circuit("blocker"), RecordingBackend([], gate=gate),
                shots=4,
            )
            blocker.jobs(timeout=10)
            queued = scheduler.submit(
                named_circuit("queued"), RecordingBackend([]), shots=4,
                deadline=0.05 if path == "deadline_drop" else None,
            )
            fired = {b: self.settle_log(b) for b in (blocker, queued)}
            if path == "deadline_drop":
                wait_until(lambda: queued.status() == "dropped")
            elif path == "queued_cancel":
                assert queued.cancel()
            else:
                report = scheduler.shutdown(timeout=0)
                assert report["failed"] == [queued]
                assert report["abandoned"] == [blocker]
            assert fired[queued] == [queued]
            gate.set()
            for batch in (blocker, queued):
                self.assert_settled_once(scheduler, batch, fired[batch])
        finally:
            gate.set()
            scheduler.shutdown()

    def test_reprioritize_deadline_fires_while_work_runs(self):
        gate = threading.Event()
        try:
            with Scheduler(max_in_flight=1, executor="thread") as scheduler:
                blocker = scheduler.submit(
                    named_circuit("blocker"), RecordingBackend([], gate=gate),
                    shots=4,
                )
                blocker.jobs(timeout=10)
                scheduler.submit(named_circuit("late"), RecordingBackend([]),
                                 shots=4, deadline=0.05,
                                 deadline_action="reprioritize")
                # Nothing else happens: the dispatcher's own timer fires.
                wait_until(lambda: scheduler.stats()["clients"]["default"]
                           ["reprioritized_batches"] == 1)
                assert blocker.status() == "running"
                gate.set()
        finally:
            gate.set()

    def test_preemption_fires_while_work_runs(self):
        gate = threading.Event()
        try:
            with Scheduler(max_in_flight=1, executor="thread",
                           preempt_after=0.05) as scheduler:
                blocker = scheduler.submit(
                    named_circuit("blocker"), RecordingBackend([], gate=gate),
                    shots=4,
                )
                blocker.jobs(timeout=10)
                scheduler.submit(named_circuit("aged"), RecordingBackend([]),
                                 shots=4)
                wait_until(lambda: scheduler.stats()["clients"]["default"]
                           ["preempted_batches"] == 1)
                assert blocker.status() == "running"
                gate.set()
        finally:
            gate.set()


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
