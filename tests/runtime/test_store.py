"""Tests for the shared cache store: tiers, LRU semantics, corruption.

Three contracts are pinned here:

* **LRU unification** — `TranspileCache` and `DistributionCache` sit on
  the *same* `CacheStore`, so their eviction order and ``maxsize``
  semantics cannot drift apart again (they used to be two hand-rolled
  copies of the same OrderedDict machinery).
* **Persistence** — the disk tier, a record log, round-trips entries
  across store instances and OS processes keyed by content fingerprints,
  with per-tier statistics, a recency bound, and several writers at once.
* **Corruption tolerance** — a truncated, bit-flipped or alien on-disk
  entry is a miss, never an error, and never mis-serves data (the frame
  digest and stored-key check reject it).
"""

import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.results.result import Result
from repro.runtime import recordlog
from repro.runtime.distcache import DistributionCache
from repro.runtime.cache import TranspileCache
from repro.runtime.recordlog import LOCK_SUFFIX, MAGIC, encode
from repro.runtime.store import LOG_NAME, CacheStore, default_cache_dir

SRC = str(Path(__file__).resolve().parents[2] / "src")


def log_path(tmp_path, namespace="t"):
    return tmp_path / namespace / LOG_NAME


def fresh_keys(tmp_path, namespace="t", **kwargs):
    """The live disk keys as a new store (a new process) sees them."""
    return CacheStore(cache_dir=tmp_path, namespace=namespace,
                      **kwargs).disk.keys()


class TestMemoryOnlyStore:
    def test_lookup_store_roundtrip(self):
        store = CacheStore(maxsize=4)
        assert store.lookup("k") is None
        store.store("k", {"v": 1})
        assert store.lookup("k") == {"v": 1}
        assert store.hits == 1
        assert store.misses == 1
        assert len(store) == 1

    def test_lru_eviction_order(self):
        store = CacheStore(maxsize=2)
        store.store("a", 1)
        store.store("b", 2)
        assert store.lookup("a") == 1  # refresh "a": "b" becomes LRU
        store.store("c", 3)
        assert store.lookup("b") is None  # evicted
        assert store.lookup("a") == 1
        assert store.lookup("c") == 3
        assert store.stats()["memory"]["evictions"] == 1

    def test_maxsize_zero_disables(self):
        store = CacheStore(maxsize=0)
        store.store("k", 1)
        assert store.lookup("k") is None
        assert len(store) == 0
        assert store.misses == 1

    def test_maxsize_assignment_trims(self):
        store = CacheStore(maxsize=4)
        for i in range(4):
            store.store(i, i)
        store.maxsize = 2
        assert len(store) == 2
        # The two most recent survive.
        assert store.lookup(3) == 3
        assert store.lookup(0) is None

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError, match="maxsize"):
            CacheStore(maxsize=-1)
        store = CacheStore()
        with pytest.raises(ValueError, match="maxsize"):
            store.maxsize = -1

    def test_clear_preserves_stats(self):
        store = CacheStore()
        store.store("k", 1)
        store.lookup("k")
        store.clear()
        assert len(store) == 0
        assert store.hits == 1

    def test_stats_shape(self):
        store = CacheStore()
        stats = store.stats()
        assert stats["disk"] is None
        assert set(stats["memory"]) == {
            "hits", "misses", "stores", "evictions", "errors", "entries",
        }


class TestDiskTierPersistence:
    def test_fresh_store_reads_previous_stores_entries(self, tmp_path):
        first = CacheStore(cache_dir=tmp_path, namespace="t")
        first.store(("fp", "dev"), {"lowered": True})
        # A different store instance over the same directory — the
        # in-process analogue of a second OS process.
        second = CacheStore(cache_dir=tmp_path, namespace="t")
        assert second.lookup(("fp", "dev")) == {"lowered": True}
        assert second.stats()["disk"]["hits"] == 1
        assert second.stats()["memory"]["misses"] == 1

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        CacheStore(cache_dir=tmp_path, namespace="t").store("k", 7)
        store = CacheStore(cache_dir=tmp_path, namespace="t")
        assert store.lookup("k") == 7
        assert store.lookup("k") == 7
        assert store.stats()["disk"]["hits"] == 1  # second hit was memory
        assert store.stats()["memory"]["hits"] == 1

    def test_namespaces_are_disjoint(self, tmp_path):
        a = CacheStore(cache_dir=tmp_path, namespace="a")
        b = CacheStore(cache_dir=tmp_path, namespace="b")
        a.store("k", "a-value")
        assert b.lookup("k") is None
        assert (tmp_path / "a").is_dir() and (tmp_path / "b").is_dir()

    def test_disk_lru_eviction_bounds_entries(self, tmp_path):
        store = CacheStore(maxsize=1, cache_dir=tmp_path, namespace="t",
                           disk_maxsize=2)
        for i in range(3):
            store.store(f"k{i}", i)
        assert store.lookup("k1") == 1  # a disk hit refreshes k1
        store.store("k3", 3)
        assert sorted(store.disk.keys()) == ["k1", "k3"]
        assert store.stats()["disk"]["entries"] == 2
        assert store.stats()["disk"]["evictions"] == 2

    def test_remove_spans_tiers(self, tmp_path):
        store = CacheStore(cache_dir=tmp_path, namespace="t")
        store.store("k", 1)
        assert store.remove("k") is True
        assert store.lookup("k") is None
        assert store.disk.keys() == []
        fresh = CacheStore(cache_dir=tmp_path, namespace="t")
        assert fresh.lookup("k") is None  # the tombstone survives replay
        assert fresh.remove("k") is False

    def test_clear_spans_tiers(self, tmp_path):
        store = CacheStore(cache_dir=tmp_path, namespace="t")
        store.store("k", 1)
        store.clear()
        assert store.disk.keys() == []
        assert log_path(tmp_path).stat().st_size == 0
        assert fresh_keys(tmp_path) == []

    def test_keys_spans_tiers(self, tmp_path):
        CacheStore(cache_dir=tmp_path, namespace="t").store(("a", "b"), 1)
        store = CacheStore(cache_dir=tmp_path, namespace="t")
        store.store(("c", "d"), 2)
        assert sorted(store.keys()) == [("a", "b"), ("c", "d")]

    def test_attach_disk_later(self, tmp_path):
        store = CacheStore()
        store.store("early", 1)
        store.attach_disk(tmp_path)
        store.store("late", 2)
        fresh = CacheStore(cache_dir=tmp_path, namespace="store")
        assert fresh.lookup("late") == 2
        assert fresh.lookup("early") is None  # pre-attach entries stay local
        store.attach_disk(None)
        assert store.stats()["disk"] is None

    def test_unpicklable_value_skips_disk_not_memory(self, tmp_path):
        store = CacheStore(cache_dir=tmp_path, namespace="t")
        store.store("k", lambda: None)  # lambdas don't pickle
        assert store.lookup("k") is not None
        assert store.disk.keys() == []
        assert fresh_keys(tmp_path) == []
        assert store.stats()["disk"]["errors"] == 1

    def test_pickled_store_ships_config_and_disk_dir(self, tmp_path):
        store = CacheStore(maxsize=7, cache_dir=tmp_path, namespace="t")
        store.store("k", 1)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.maxsize == 7
        assert len(clone) == 0  # memory contents never ship
        assert clone.hits == 0 and clone.misses == 0
        # ... but the disk tier is shared: the clone reads the original's
        # persisted entries (what a spawn-started pool worker sees).
        assert clone.lookup("k") == 1
        assert clone.stats()["disk"]["hits"] == 1


class TestCorruptionTolerance:
    def _seeded(self, tmp_path, value={"p": 0.5}):
        store = CacheStore(cache_dir=tmp_path, namespace="t")
        store.store("key", value)
        return store, log_path(tmp_path)

    def _fresh(self, tmp_path):
        return CacheStore(cache_dir=tmp_path, namespace="t")

    def test_truncated_entry_is_a_miss(self, tmp_path):
        _store, path = self._seeded(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        fresh = self._fresh(tmp_path)
        assert fresh.lookup("key") is None
        # The torn bytes do not poison later writes.
        fresh.store("key", {"p": 0.75})
        assert self._fresh(tmp_path).lookup("key") == {"p": 0.75}

    def test_every_single_bit_flip_is_a_miss_or_equal(self, tmp_path):
        """Flip one bit at a time through the whole log: never an error,
        never wrong data."""
        _store, path = self._seeded(tmp_path, value={"p": 0.25})
        blob = bytearray(path.read_bytes())
        for pos in range(0, len(blob), max(1, len(blob) // 40)):
            mutated = bytearray(blob)
            mutated[pos] ^= 0x01
            path.write_bytes(bytes(mutated))
            got = self._fresh(tmp_path).lookup("key")
            assert got is None or got == {"p": 0.25}

    def test_flipped_body_is_a_counted_miss(self, tmp_path):
        _store, path = self._seeded(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        fresh = self._fresh(tmp_path)
        assert fresh.lookup("key") is None
        assert fresh.stats()["disk"]["errors"] == 1

    def test_emptied_entry_is_a_miss(self, tmp_path):
        _store, path = self._seeded(tmp_path)
        path.write_bytes(b"")
        assert self._fresh(tmp_path).lookup("key") is None

    def test_alien_file_in_directory_is_ignored(self, tmp_path):
        store, path = self._seeded(tmp_path)
        (path.parent / "README.txt").write_text("not an entry")
        fresh = self._fresh(tmp_path)
        assert fresh.lookup("key") == {"p": 0.5}
        assert "README.txt" not in [k for k in fresh.keys()]

    def test_wrong_schema_version_is_a_miss(self, tmp_path):
        _store, path = self._seeded(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(MAGIC, MAGIC[:4] + b"\x00" + MAGIC[5:], 1))
        assert self._fresh(tmp_path).lookup("key") is None

    def test_key_mismatch_never_aliases(self, tmp_path):
        """Swap two equal-sized frames under a live index: the index now
        points each key at the other's frame, and the stored-key check
        turns both reads into misses, never the other key's value."""
        store = CacheStore(maxsize=1, cache_dir=tmp_path, namespace="t")
        store.store("a", "value-a")
        store.store("b", "value-b")
        path = log_path(tmp_path)
        blob = path.read_bytes()
        half = len(blob) // 2
        path.write_bytes(blob[half:] + blob[:half])
        store.maxsize = 0
        store.maxsize = 1  # empty the memory tier
        assert store.lookup("a") is None
        assert store.lookup("b") is None
        # Each frame still holds its own key: a new index reads both.
        fresh = self._fresh(tmp_path)
        assert (fresh.lookup("a"), fresh.lookup("b")) == ("value-a", "value-b")

    def test_corrupt_entries_skipped_by_keys(self, tmp_path):
        store = CacheStore(cache_dir=tmp_path, namespace="t")
        store.store("a", 1)
        store.store("b", 2)
        path = log_path(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 4] ^= 0xFF  # inside the first frame
        path.write_bytes(bytes(blob))
        assert len(store.keys()) >= 1  # memory still has both
        fresh = self._fresh(tmp_path)
        assert fresh.keys() == ["b"]
        assert fresh.stats()["disk"]["errors"] == 1

    def test_store_survives_readonly_directory(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permissions")
        store = CacheStore(cache_dir=tmp_path, namespace="t")
        directory = log_path(tmp_path).parent
        directory.chmod(0o500)
        try:
            store.store("k", 1)  # disk write fails silently
            assert store.lookup("k") == 1  # memory tier still serves
            assert store.stats()["disk"]["errors"] == 1
        finally:
            directory.chmod(0o700)


#: Probability dictionaries over 3-bit outcomes, then normalised.
_distributions = st.dictionaries(
    st.integers(min_value=0, max_value=7).map(lambda i: format(i, "03b")),
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


class TestResultRoundTrip:
    @given(raw=_distributions, shots=st.integers(min_value=1, max_value=512))
    @settings(max_examples=40, deadline=None)
    def test_disk_roundtrip_preserves_distribution_and_resampling(
        self, tmp_path_factory, raw, shots
    ):
        """CacheStore round-trips arbitrary cached Result distributions and
        disk-hit == memory-hit == the original, down to resampled counts."""
        import numpy as np

        from repro.results.counts import counts_from_probabilities

        tmp_path = tmp_path_factory.mktemp("roundtrip")
        total = sum(raw.values())
        probabilities = {k: v / total for k, v in raw.items()}
        original = Result(
            shots=0, probabilities=probabilities, metadata={"engine": "test"}
        )

        store = CacheStore(cache_dir=tmp_path, namespace="dist")
        store.store(("fp", "be"), original)
        memory_hit = store.lookup(("fp", "be"))
        disk_hit = CacheStore(cache_dir=tmp_path, namespace="dist").lookup(
            ("fp", "be")
        )

        assert memory_hit.probabilities == probabilities
        assert disk_hit.probabilities == probabilities  # bit-exact floats
        assert disk_hit.metadata["engine"] == "test"
        draws = [
            counts_from_probabilities(
                source.probabilities, shots, np.random.default_rng(11)
            )
            for source in (original, memory_hit, disk_hit)
        ]
        assert dict(draws[0]) == dict(draws[1]) == dict(draws[2])


class _TranspileAdapter:
    """Drives TranspileCache through its public store/lookup surface."""

    def __init__(self, maxsize, cache_dir=None):
        self.cache = TranspileCache(maxsize=maxsize, cache_dir=cache_dir)

    def key(self, i):
        return (f"circuit-fp-{i}", "device-fp", None, True)

    def insert(self, i):
        self.cache.store(self.key(i), {"lowered": i})

    def probe(self, i):
        return self.cache.lookup(self.key(i)) is not None


class _DistributionAdapter:
    """Drives DistributionCache through its public store/lookup surface."""

    def __init__(self, maxsize, cache_dir=None):
        self.cache = DistributionCache(maxsize=maxsize, cache_dir=cache_dir)

    def key(self, i):
        return (f"circuit-fp-{i}", "backend-fp")

    def insert(self, i):
        self.cache.store(self.key(i), Result(shots=8, probabilities={"0": 1.0}))

    def probe(self, i):
        return self.cache.lookup(self.key(i)) is not None


@pytest.mark.parametrize(
    "adapter_cls", [_TranspileAdapter, _DistributionAdapter],
    ids=["transpile", "distribution"],
)
class TestUnifiedLruSemantics:
    """Regression for the duplicated-LRU drift: both caches must show
    identical eviction order and maxsize semantics because they share one
    CacheStore implementation."""

    def test_backed_by_the_shared_store(self, adapter_cls):
        assert type(adapter_cls(maxsize=4).cache._store) is CacheStore

    def test_eviction_order_script(self, adapter_cls):
        a = adapter_cls(maxsize=3)
        for i in (0, 1, 2):
            a.insert(i)
        assert a.probe(0)  # refresh 0 -> LRU order is now 1, 2, 0
        a.insert(3)  # evicts 1
        assert [a.probe(i) for i in (0, 1, 2, 3)] == [True, False, True, True]
        assert len(a.cache) == 3
        assert a.cache.stats()["memory"]["evictions"] == 1

    def test_maxsize_zero_semantics(self, adapter_cls):
        a = adapter_cls(maxsize=0)
        a.insert(0)
        assert not a.probe(0)
        assert len(a.cache) == 0
        assert a.cache.hits == 0
        assert a.cache.misses == 1

    def test_negative_maxsize_rejected(self, adapter_cls):
        with pytest.raises(ValueError, match="maxsize"):
            adapter_cls(maxsize=-1)

    def test_clear_preserves_stats(self, adapter_cls):
        a = adapter_cls(maxsize=4)
        a.insert(0)
        assert a.probe(0)
        a.cache.clear()
        assert len(a.cache) == 0
        assert a.cache.hits == 1

    def test_disk_tier_respects_eviction_independence(self, adapter_cls, tmp_path):
        """Memory eviction never deletes the disk copy: an evicted entry is
        re-served from disk."""
        a = adapter_cls(maxsize=1, cache_dir=tmp_path)
        a.insert(0)
        a.insert(1)  # evicts 0 from memory
        assert len(a.cache) == 1
        assert a.probe(0)  # disk hit re-promotes
        assert a.cache.stats()["disk"]["hits"] == 1


class TestDefaultCacheDir:
    def test_unset_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() is None

    def test_blank_means_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "   ")
        assert default_cache_dir() is None

    def test_set_value_returned(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        assert default_cache_dir() == "/tmp/somewhere"

    def test_set_default_cache_dir_attaches_and_detaches(self, tmp_path):
        from repro.runtime import set_default_cache_dir
        from repro.runtime.cache import DEFAULT_CACHE
        from repro.runtime.distcache import DEFAULT_DISTRIBUTION_CACHE

        before_t = DEFAULT_CACHE._store.disk
        before_d = DEFAULT_DISTRIBUTION_CACHE._store.disk
        try:
            set_default_cache_dir(str(tmp_path))
            assert DEFAULT_CACHE.stats()["disk"]["directory"] == str(
                tmp_path / "transpile"
            )
            assert DEFAULT_DISTRIBUTION_CACHE.stats()["disk"]["directory"] == str(
                tmp_path / "distribution"
            )
        finally:
            DEFAULT_CACHE._store.disk = before_t
            DEFAULT_DISTRIBUTION_CACHE._store.disk = before_d


class TestBadCacheDirDegrades:
    def test_unusable_cache_dir_warns_and_stays_memory_only(self):
        """A bad directory disables persistence — never raises (the default
        caches are built at import from $REPRO_CACHE_DIR)."""
        with pytest.warns(RuntimeWarning, match="disk cache tier disabled"):
            store = CacheStore(cache_dir="/dev/null/not-a-dir", namespace="t")
        store.store("k", 1)
        assert store.lookup("k") == 1
        assert store.stats()["disk"] is None

    def test_attach_disk_with_bad_dir_degrades(self):
        store = CacheStore()
        with pytest.warns(RuntimeWarning, match="disk cache tier disabled"):
            store.attach_disk("/dev/null/not-a-dir")
        assert store.stats()["disk"] is None

    def test_bad_env_cache_dir_does_not_break_import(self):
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = "/dev/null/not-a-dir"
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import repro.runtime; print(repro.runtime.transpile_cache_stats()['disk'])"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "None"


class TestDisablingNeverDeletesDiskEntries:
    def test_maxsize_zero_leaves_the_persistent_tier_intact(self, tmp_path):
        """--no-transpile-cache style disabling (maxsize = 0) must not wipe
        the disk entries other invocations rely on."""
        cache = TranspileCache(cache_dir=tmp_path)
        cache.store(("fp", "dev", None, True), {"lowered": 1})
        cache.maxsize = 0
        assert cache.lookup(("fp", "dev", None, True)) is None  # disabled
        fresh = TranspileCache(cache_dir=tmp_path)
        assert fresh.lookup(("fp", "dev", None, True)) == {"lowered": 1}


class TestDiskLog:
    def test_cache_dir_holds_only_logs_and_their_locks(self, tmp_path):
        store = CacheStore(cache_dir=tmp_path, namespace="t")
        for i in range(20):
            store.store(f"k{i}", list(range(50)))
        store.remove("k3")
        names = sorted(p.name for p in log_path(tmp_path).parent.iterdir())
        assert names == [LOG_NAME, LOG_NAME + LOCK_SUFFIX]
        assert log_path(tmp_path).read_bytes().startswith(MAGIC)

    def test_negative_maxsize_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="maxsize"):
            CacheStore(cache_dir=tmp_path, namespace="t", disk_maxsize=-1)

    def test_unbounded_disk_keeps_everything(self, tmp_path):
        store = CacheStore(cache_dir=tmp_path, namespace="t", disk_maxsize=None)
        for i in range(10):
            store.store(i, i)
        assert len(store.disk) == 10

    def test_store_past_the_bound_keeps_the_most_recent_keys(
        self, tmp_path, monkeypatch
    ):
        """Storing 3x ``disk_maxsize`` entries leaves exactly the
        ``disk_maxsize`` most recent live, a new store agrees, and the next
        checkpoint shrinks the log to those entries' frames."""
        bound = 64
        value = "v" * 1000
        monkeypatch.setattr(recordlog, "CHECKPOINT_FLOOR", 1 << 30)
        store = CacheStore(maxsize=4, cache_dir=tmp_path, namespace="t",
                           disk_maxsize=bound)
        for i in range(3 * bound):
            store.store(("k", i), value)
        expected = [("k", i) for i in range(2 * bound, 3 * bound)]
        assert store.disk.keys() == expected
        assert fresh_keys(tmp_path, disk_maxsize=bound) == expected
        assert store.stats()["disk"]["evictions"] == 2 * bound
        path = log_path(tmp_path)
        before = path.stat().st_size
        monkeypatch.setattr(recordlog, "CHECKPOINT_FLOOR", 0)
        store.store(("k", 3 * bound), value)  # the next append checkpoints
        live = [("k", i) for i in range(2 * bound + 1, 3 * bound + 1)]
        assert store.disk.keys() == live
        frame = len(encode(("k", 0), pickle.dumps(value, pickle.HIGHEST_PROTOCOL)))
        assert path.stat().st_size == bound * frame < before / 2
        assert fresh_keys(tmp_path, disk_maxsize=bound) == live


#: Loads the namespace-"t" log, says so, waits for a line on stdin, then
#: appends ``count`` keys ``(worker, i)``.
_WRITER = """
import sys
from repro.runtime.store import CacheStore
cache_dir, worker, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = CacheStore(maxsize=1, cache_dir=cache_dir, namespace="t")
len(store.disk)
print("ready", flush=True)
sys.stdin.readline()
for i in range(count):
    store.store((worker, i), bytes([worker]) * 4096)
assert store.stats()["disk"]["errors"] == 0, store.stats()
"""


def _store_in_child(store):
    store.store("child", "from the child")


class TestSeveralWriters:
    def test_processes_appending_at_once_lose_nothing(self, tmp_path):
        """Three processes append disjoint keys to one log at once — 2.4
        MiB, past the checkpoint floor, so checkpoints replace the file
        while the others append.  A new store then reads every key, and no frame is
        corrupt."""
        workers, count = 3, 200
        seed = CacheStore(cache_dir=tmp_path, namespace="t")
        seed.store("seed", 0)
        inode = log_path(tmp_path).stat().st_ino
        env = dict(os.environ, PYTHONPATH=SRC)
        procs = [
            subprocess.Popen([sys.executable, "-c", _WRITER, str(tmp_path),
                              str(worker), str(count)],
                             env=env, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for worker in range(workers)
        ]
        try:
            for proc in procs:  # every writer has loaded the small log ...
                assert proc.stdout.readline() == b"ready\n"
            for proc in procs:  # ... before any of them appends
                proc.stdin.write(b"go\n")
                proc.stdin.flush()
            for proc in procs:
                _out, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, err.decode()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert log_path(tmp_path).stat().st_ino != inode  # checkpointed
        fresh = CacheStore(maxsize=1, cache_dir=tmp_path, namespace="t")
        assert len(fresh.disk) == workers * count + 1
        for worker in range(workers):
            for i in range(count):
                assert fresh.lookup((worker, i)) == bytes([worker]) * 4096
        assert fresh.disk.corrupt == 0
        # The writer that seeded the log sees the others' entries too.
        assert seed.lookup((2, count - 1)) == bytes([2]) * 4096

    def test_fork_child_and_parent_both_append(self, tmp_path):
        store = CacheStore(maxsize=1, cache_dir=tmp_path, namespace="t")
        store.store("before", "from the parent")  # descriptors are open
        child = multiprocessing.get_context("fork").Process(
            target=_store_in_child, args=(store,))
        child.start()
        store.store("parent", "from the parent")
        child.join(60)
        assert child.exitcode == 0
        assert store.lookup("child") == "from the child"
        fresh = CacheStore(cache_dir=tmp_path, namespace="t")
        assert {key: fresh.lookup(key) for key in ("before", "parent", "child")} == {
            "before": "from the parent",
            "parent": "from the parent",
            "child": "from the child",
        }
        assert fresh.disk.corrupt == 0
