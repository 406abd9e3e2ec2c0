"""Cross-process persistent-cache tests: the determinism-first harness.

The tentpole claim of the persistent cache store: a *second process*
running the same sweep against the same ``REPRO_CACHE_DIR`` performs zero
transpiles and zero exact-distribution simulations, and its counts are
bit-identical to a cache-disabled run.  These tests drive real
``subprocess`` interpreters (the only honest way to test cross-process
behaviour) through the shared :mod:`repro.runtime.harness` sweep driver —
the same one ``benchmarks/bench_runtime.py`` times.
"""

import pytest

from repro.runtime.harness import run_sweep_process
from repro.runtime.recordlog import HEADER, LOCK_SUFFIX, MAGIC, RecordLog
from repro.runtime.store import LOG_NAME


def flip_every_frame(log):
    """Flip one byte in the middle of every frame of the log at ``log``."""
    data = bytearray(log.read_bytes())
    starts = [i for i in range(len(data)) if data.startswith(MAGIC, i)]
    for start, end in zip(starts, starts[1:] + [len(data)]):
        data[(start + HEADER.size + end) // 2] ^= 0xFF
    log.write_bytes(bytes(data))


def run_driver(cache_dir=None):
    """Run the shared sweep driver; return its JSON report."""
    report, _elapsed = run_sweep_process(
        cache_dir=cache_dir,
        variants=("bell-entangled", "ghz-pairwise"),
        shots=1024,
        repeats=3,
    )
    return report


@pytest.fixture(scope="module")
def sweep_runs(tmp_path_factory):
    """One cache-disabled run plus two runs sharing a cache directory."""
    cache_dir = tmp_path_factory.mktemp("cache")
    return {
        "uncached": run_driver(cache_dir=None),
        "cold": run_driver(cache_dir=cache_dir),
        "warm": run_driver(cache_dir=cache_dir),
        "cache_dir": cache_dir,
    }


class TestCrossProcessDeterminism:
    def test_counts_bit_identical_across_all_three_processes(self, sweep_runs):
        """Disk-cache-served counts == cold counts == cache-disabled counts."""
        assert sweep_runs["cold"]["counts"] == sweep_runs["uncached"]["counts"]
        assert sweep_runs["warm"]["counts"] == sweep_runs["uncached"]["counts"]

    def test_cold_process_simulates_and_populates(self, sweep_runs):
        cold = sweep_runs["cold"]
        assert cold["executed"] == 2  # one per distinct circuit
        assert cold["cached"] == 0
        assert cold["transpile"]["misses"] == 2
        assert cold["transpile"]["disk"]["stores"] == 2
        assert cold["distribution"]["disk"]["stores"] == 2

    def test_warm_process_reports_zero_misses_and_zero_simulations(
        self, sweep_runs
    ):
        """The acceptance criterion: zero transpiles, zero simulations."""
        warm = sweep_runs["warm"]
        assert warm["executed"] == 0
        assert warm["cached"] == 2  # primaries served from the disk tier
        assert warm["transpile"]["misses"] == 0
        assert warm["transpile"]["hits"] == 2  # the explicit prepare() calls
        assert warm["distribution"]["misses"] == 0
        assert warm["distribution"]["hits"] == 2
        assert warm["transpile"]["disk"]["hits"] == 2
        assert warm["distribution"]["disk"]["hits"] == 2

    def test_cache_directory_layout(self, sweep_runs):
        cache_dir = sweep_runs["cache_dir"]
        assert len(RecordLog(cache_dir / "transpile" / LOG_NAME)) == 2
        assert len(RecordLog(cache_dir / "distribution" / LOG_NAME)) == 2
        # Every file the runs left is a log of frames or its lock.
        for path in cache_dir.rglob("*"):
            if path.name.endswith(LOCK_SUFFIX):
                assert path.name == LOG_NAME + LOCK_SUFFIX
            elif path.is_file():
                assert path.name == LOG_NAME
                assert path.read_bytes().startswith(MAGIC)

    def test_uncached_process_touched_no_cache_dir(self, sweep_runs):
        uncached = sweep_runs["uncached"]
        assert uncached["transpile"]["disk"] is None
        assert uncached["distribution"]["disk"] is None
        assert uncached["executed"] == 2


class TestCorruptedCacheDirStaysCorrect:
    def test_corrupted_entries_fall_back_to_simulation_with_same_counts(
        self, tmp_path
    ):
        """Flip a byte in every persisted entry: the next process re-simulates
        (misses, no crash) and still produces identical counts."""
        cache_dir = tmp_path / "cache"
        cold = run_driver(cache_dir=cache_dir)
        for log in cache_dir.rglob(LOG_NAME):
            flip_every_frame(log)
        recovered = run_driver(cache_dir=cache_dir)
        assert recovered["counts"] == cold["counts"]
        assert recovered["executed"] == 2  # really re-simulated
        assert recovered["transpile"]["misses"] == 2
        assert recovered["distribution"]["misses"] == 2

    def test_disk_hit_equals_memory_hit_equals_fresh_simulation(self, tmp_path):
        """The three serving paths agree bit-for-bit in one process."""
        from repro.circuits import library
        from repro.runtime import DistributionCache, execute, get_backend

        circuit = library.bell_pair()
        circuit.measure_all()
        backend = get_backend("noisy:ibmqx4")

        fresh = backend.run(circuit, shots=2048, seed=99)

        warm = DistributionCache(cache_dir=tmp_path)
        execute(
            circuit, backend, shots=64, seed=1, distribution_cache=warm
        ).result()
        memory_hit = execute(
            circuit, backend, shots=2048, seed=99, distribution_cache=warm
        )
        # A cold cache over the same directory: memory misses, disk hits.
        disk_only = DistributionCache(cache_dir=tmp_path)
        disk_hit = execute(
            circuit, backend, shots=2048, seed=99, distribution_cache=disk_only
        )

        assert memory_hit.cached and disk_hit.cached
        assert dict(memory_hit.counts()) == dict(fresh.counts)
        assert dict(disk_hit.counts()) == dict(fresh.counts)
        assert disk_only.stats()["disk"]["hits"] == 1
