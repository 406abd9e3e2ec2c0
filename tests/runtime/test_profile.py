"""Tests for the online cost model (:mod:`repro.runtime.profile`)."""

import threading

import pytest

from repro.runtime.profile import (
    EWMA_ALPHA,
    FLUSH_EVERY,
    CostModel,
    profile_key,
)
from repro.runtime.recordlog import HEADER, MAGIC, RecordLog
from repro.runtime.store import LOG_NAME


def flip_every_frame(log):
    """Flip one byte in the middle of every frame of the log at ``log``."""
    data = bytearray(log.read_bytes())
    starts = [i for i in range(len(data)) if data.startswith(MAGIC, i)]
    for start, end in zip(starts, starts[1:] + [len(data)]):
        data[(start + HEADER.size + end) // 2] ^= 0xFF
    log.write_bytes(bytes(data))


class TestProfileKey:
    def test_backend_name_and_qubits(self):
        from repro.circuits import library
        from repro.runtime import get_backend

        bell = library.bell_pair()
        ghz = library.ghz_state(3)
        stab = get_backend("stabilizer")
        noisy = get_backend("noisy:ibmqx4")
        assert profile_key(stab, bell) == ("stabilizer", 2)
        assert profile_key(noisy, bell) == ("noisy(ibmqx4)", 2)
        assert profile_key(stab, ghz) != profile_key(stab, bell)

    def test_seeds_and_shots_do_not_participate(self):
        """The key is (engine, size) — nothing run-specific."""
        from repro.circuits import library
        from repro.runtime import get_backend

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

    def test_prepare_observations_are_separate(self):
        model = CostModel()
        key = ("engine", 2)
        model.observe_prepare(key, 0.5)
        assert model.per_prepare(key) == pytest.approx(0.5)
        assert model.per_shot(key) is None

    def test_unknown_key_estimates_none(self):
        model = CostModel()
        assert model.per_shot(("never-seen", 9)) is None
        assert model.estimate_run(("never-seen", 9), 1000) is None
        assert model.profile(("never-seen", 9)) is None

    def test_estimate_run_scales_with_shots(self):
        model = CostModel()
        model.observe_run(("engine", 2), shots=10, elapsed=1.0)
        assert model.estimate_run(("engine", 2), 500) == pytest.approx(50.0)

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


class TestPersistence:
    def test_flush_then_warm_start_in_new_model(self, tmp_path):
        first = CostModel(cache_dir=tmp_path)
        first.observe_run(("engine", 2), shots=100, elapsed=2.0)
        first.flush()
        second = CostModel(cache_dir=tmp_path)
        assert second.per_shot(("engine", 2)) == pytest.approx(0.02)
        assert second.profile(("engine", 2))["shot_samples"] == 1

    def test_auto_flush_after_enough_observations(self, tmp_path):
        model = CostModel(cache_dir=tmp_path)
        for _ in range(FLUSH_EVERY):
            model.observe_run(("engine", 2), shots=10, elapsed=1.0)
        # No explicit flush: the write-through already happened.
        fresh = CostModel(cache_dir=tmp_path)
        assert fresh.per_shot(("engine", 2)) is not None

    def test_flush_all_entries(self, tmp_path):
        model = CostModel()
        model.observe_run(("engine", 2), shots=10, elapsed=1.0)
        model.attach_disk(tmp_path)
        assert model.flush(all_entries=True) == 1
        assert CostModel(cache_dir=tmp_path).per_shot(("engine", 2)) is not None

    def test_corrupt_persisted_entry_is_a_fresh_start(self, tmp_path):
        model = CostModel(cache_dir=tmp_path)
        model.observe_run(("engine", 2), shots=10, elapsed=1.0)
        model.flush()
        flip_every_frame(tmp_path / "profile" / LOG_NAME)
        fresh = CostModel(cache_dir=tmp_path)
        assert fresh.per_shot(("engine", 2)) is None
        # ... and the fresh model still learns and persists normally.
        fresh.observe_run(("engine", 2), shots=10, elapsed=1.0)
        assert fresh.per_shot(("engine", 2)) == pytest.approx(0.1)

    def test_foreign_payload_rejected(self, tmp_path):
        """A wrong-schema dict under the right key must not poison estimates."""
        probe = CostModel(cache_dir=tmp_path)
        probe._store.store(("engine", 2), {"per_shot": "fast"})
        fresh = CostModel(cache_dir=tmp_path)
        assert fresh.per_shot(("engine", 2)) is None

    def test_clear_drops_live_estimates_and_does_not_resurrect(self, tmp_path):
        model = CostModel(cache_dir=tmp_path)
        model.observe_run(("engine", 2), shots=10, elapsed=1.0)
        model.flush()
        model.clear()
        assert model.per_shot(("engine", 2)) is None
        # A post-clear flush must not write the wiped entries back.
        model.flush(all_entries=True)
        assert CostModel(cache_dir=tmp_path).per_shot(("engine", 2)) is None

    def test_reading_before_attach_does_not_clobber_warm_profile(self, tmp_path):
        """Regression: a cold read creates an empty live entry; attaching a
        warm disk tier afterwards (the CLI --cache-dir path) must surface
        the persisted estimate, and flushing must not overwrite it."""
        warm = CostModel(cache_dir=tmp_path)
        warm.observe_run(("engine", 2), shots=10, elapsed=1.0)
        warm.flush()

        late = CostModel()  # memory-only, like the default before --cache-dir
        assert late.per_shot(("engine", 2)) is None  # creates the empty entry
        late.attach_disk(tmp_path)
        late.flush(all_entries=True)  # what set_default_cache_dir does
        assert late.per_shot(("engine", 2)) == pytest.approx(0.1)
        assert CostModel(cache_dir=tmp_path).per_shot(
            ("engine", 2)
        ) == pytest.approx(0.1)

    def test_flush_never_writes_sample_less_entries(self, tmp_path):
        model = CostModel(cache_dir=tmp_path)
        assert model.per_shot(("empty", 1)) is None
        assert model.flush(all_entries=True) == 0
        assert RecordLog(tmp_path / "profile" / LOG_NAME).keys() == []

    def test_keys_spans_live_and_persisted(self, tmp_path):
        writer = CostModel(cache_dir=tmp_path)
        writer.observe_run(("persisted", 2), shots=10, elapsed=1.0)
        writer.flush()
        reader = CostModel(cache_dir=tmp_path)
        reader.observe_run(("live", 2), shots=10, elapsed=1.0)
        assert set(reader.keys()) >= {("persisted", 2), ("live", 2)}


class TestExecuteFeedsDefaultModel:
    def test_completed_chunks_observed(self):
        from repro.circuits import library
        from repro.runtime import DEFAULT_COST_MODEL, execute, get_backend

        backend = get_backend("stabilizer")
        circuit = library.ghz_state(4)
        circuit.measure_all()
        key = profile_key(backend, circuit)
        before = (DEFAULT_COST_MODEL.profile(key) or {}).get("shot_samples", 0)
        execute(circuit, backend, shots=64, seed=1, executor="serial").result()
        after = DEFAULT_COST_MODEL.profile(key)["shot_samples"]
        assert after == before + 1
        assert DEFAULT_COST_MODEL.per_shot(key) > 0

    def test_fixed_schedule_still_observes(self):
        """Profiling is passive: fixed runs feed the model too."""
        from repro.circuits import library
        from repro.runtime import DEFAULT_COST_MODEL, execute, get_backend

        backend = get_backend("stabilizer")
        circuit = library.ghz_state(5)
        circuit.measure_all()
        key = profile_key(backend, circuit)
        before = (DEFAULT_COST_MODEL.profile(key) or {}).get("shot_samples", 0)
        execute(
            circuit, backend, shots=64, seed=2, executor="serial",
            schedule="fixed",
        ).result()
        assert DEFAULT_COST_MODEL.profile(key)["shot_samples"] == before + 1

    def test_cost_model_stats_shape(self):
        from repro.runtime import cost_model_stats

        stats = cost_model_stats()
        assert "profiles" in stats
        for label, entry in stats["profiles"].items():
            assert "/q" in label
            assert set(entry) == {
                "per_shot", "per_prepare", "shot_samples", "prepare_samples",
            }
