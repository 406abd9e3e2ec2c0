"""The shared cache store behind every runtime cache: one LRU, two tiers.

Before this module existed, :class:`~repro.runtime.cache.TranspileCache`
and :class:`~repro.runtime.distcache.DistributionCache` each carried their
own copy of the same ``OrderedDict``-plus-lock bounded-LRU machinery, and
both died with the interpreter — every new process (CLI invocation, CI
shard, process-pool worker) re-paid transpilation and exact-distribution
simulation from scratch.  :class:`CacheStore` folds that duplication into
one implementation and adds an optional persistent tier:

``memory``
    Today's behaviour: a bounded, thread-safe, in-process LRU.
``disk``
    A :class:`~repro.runtime.recordlog.RecordLog` — the package's one
    on-disk format — at ``<cache_dir>/<namespace>/`` holding the entries
    under the same content fingerprints the memory tier uses.
    Fingerprints are stable content hashes, so a *second process* running
    the same sweep finds the first process's entries and skips the work
    entirely.

Disk-tier discipline
--------------------
Each record is ``(key, pickle.dumps(value))``: the log verifies every
frame's digest, so a truncated or bit-flipped entry is a **miss, never an
error**, and building the index unpickles keys, never values.  Keys are
stored whole, so two keys never alias.  The log's index is a recency
LRU bounded at ``disk_maxsize``; removals append tombstones, so they
survive a restart.  Several processes may write one directory at once
(see the record log's writer rule).  An unusable ``cache_dir``
(unwritable, not a directory, ...) disables the disk tier with a warning
instead of raising, and an entry that cannot be pickled or written skips
the disk tier (counted in the tier's ``errors``).

Cache directories are trusted local state — never point
``REPRO_CACHE_DIR`` at a directory an untrusted party can write.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional

from repro.runtime.recordlog import RecordLog

#: File name of a store's log inside ``<cache_dir>/<namespace>/``.
LOG_NAME = "cache.log"

#: Environment variable that attaches a disk tier to the process-default
#: runtime caches.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Optional[str]:
    """Return ``$REPRO_CACHE_DIR`` (stripped) or ``None`` when unset/empty."""
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return value or None


def set_default_cache_dir(cache_dir: Optional[str]) -> None:
    """Attach (or, with ``None``, detach) disk tiers on the default caches.

    Reconfigures the process-wide
    :data:`~repro.runtime.cache.DEFAULT_CACHE` and
    :data:`~repro.runtime.distcache.DEFAULT_DISTRIBUTION_CACHE` in place —
    the hook behind the experiments CLI's ``--cache-dir`` flag.  Memory
    tiers and statistics are untouched.
    """
    from repro.runtime.cache import DEFAULT_CACHE
    from repro.runtime.distcache import DEFAULT_DISTRIBUTION_CACHE

    DEFAULT_CACHE.attach_disk(cache_dir)
    DEFAULT_DISTRIBUTION_CACHE.attach_disk(cache_dir)


class TierStats:
    """Mutable per-tier lookup/store/evict counters."""

    __slots__ = ("hits", "misses", "stores", "evictions", "errors")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: Entries that could not be serialized/deserialized or written
        #: (skipped, not raised — the corruption-tolerance contract).
        self.errors = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "errors": self.errors,
        }


class MemoryTier:
    """The in-process LRU tier: an ``OrderedDict`` bounded at ``maxsize``.

    Not independently locked — :class:`CacheStore` serializes all access.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize}")
        self.maxsize = maxsize
        self.stats = TierStats()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> Optional[Any]:
        value = self._entries.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def store(self, key: Hashable, value: Any) -> None:
        if self.maxsize == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        self.stats.stores += 1
        self.trim()

    def trim(self) -> None:
        """Evict LRU entries until the tier fits ``maxsize``."""
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def remove(self, key: Hashable) -> bool:
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()

    def keys(self) -> List[Hashable]:
        return list(self._entries)

    def items(self) -> List[tuple]:
        return list(self._entries.items())


def _open_log(directory, maxsize: Optional[int]) -> Optional[RecordLog]:
    """Return the disk tier's log in ``directory``, or ``None`` (with a
    warning) when the directory is unusable.

    A bad cache directory (unwritable, not a directory, ...) must disable
    persistence with a warning — never break imports or callers, since the
    process-default caches are built at module import from
    ``$REPRO_CACHE_DIR``.
    """
    try:
        return RecordLog(Path(directory) / LOG_NAME, maxsize=maxsize)
    except OSError as exc:
        warnings.warn(
            f"disk cache tier disabled: cannot use {str(directory)!r} ({exc})",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


class CacheStore:
    """A thread-safe bounded-LRU cache with memory and optional disk tiers.

    Lookups consult the memory tier first, then the disk tier; a disk hit
    is promoted into memory so later lookups stay in-process.  Stores write
    through to both tiers.  ``maxsize == 0`` disables the store entirely
    (every lookup misses, stores are dropped) — how benchmarks and the
    ``--no-transpile-cache`` CLI flag measure the uncached path.

    Locking: the store's lock covers only the memory tier and the
    counters; disk I/O happens under the log's own lock, so a slow disk
    read never blocks memory-tier users.

    Parameters
    ----------
    maxsize:
        Memory-tier entry bound (assignable later via :attr:`maxsize`).
    cache_dir:
        Parent directory for the disk tier, or ``None`` for memory-only.
        The tier's log lives in ``<cache_dir>/<namespace>/`` so several
        stores can share one directory.  An unusable directory disables
        the tier with a :class:`RuntimeWarning` instead of raising.
    namespace:
        Disk subdirectory name; also keeps unrelated stores' entries apart.
    disk_maxsize:
        Disk-tier entry bound (``None`` = unbounded).

    Attributes
    ----------
    hits / misses:
        Overall lookup outcomes (a disk hit counts as a hit); per-tier
        counters live in :meth:`stats`.  Lifetime — they survive
        :meth:`clear`.
    disk:
        The disk tier's :class:`~repro.runtime.recordlog.RecordLog`, or
        ``None``.
    """

    def __init__(
        self,
        maxsize: int = 1024,
        cache_dir: Optional[str] = None,
        namespace: str = "store",
        disk_maxsize: Optional[int] = 4096,
    ) -> None:
        self.namespace = namespace
        self.hits = 0
        self.misses = 0
        self._disk_maxsize = disk_maxsize
        self._lock = threading.Lock()
        self.memory = MemoryTier(maxsize)
        self.disk: Optional[RecordLog] = None
        self._disk_stats = TierStats()
        if cache_dir:
            self.attach_disk(cache_dir)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    @property
    def maxsize(self) -> int:
        """Memory-tier bound; assigning trims immediately (0 disables)."""
        return self.memory.maxsize

    @maxsize.setter
    def maxsize(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"maxsize must be non-negative, got {value}")
        with self._lock:
            self.memory.maxsize = value
            self.memory.trim()

    def attach_disk(self, cache_dir: Optional[str]) -> None:
        """Attach a disk tier under ``<cache_dir>/<namespace>/`` (or detach
        with ``None``).  Memory entries and statistics are untouched."""
        self._use_log(Path(cache_dir) / self.namespace if cache_dir else None)

    def _use_log(self, directory) -> None:
        log = None if directory is None else _open_log(
            directory, self._disk_maxsize)
        with self._lock:
            self.disk = log
            self._disk_stats = TierStats()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Return the memory-tier entry count (the hot working set)."""
        return len(self.memory)

    def lookup(self, key: Hashable) -> Optional[Any]:
        """Return the cached value for ``key`` or ``None`` (both tiers)."""
        with self._lock:
            if self.memory.maxsize == 0:
                self.misses += 1
                return None
            value = self.memory.lookup(key)
            if value is not None:
                self.hits += 1
                return value
            disk, stats = self.disk, self._disk_stats
            if disk is None:
                self.misses += 1
                return None
        failed = False
        try:  # I/O outside the store lock
            blob = disk.read(key)
            value = None if blob is None else pickle.loads(blob)
        except Exception:  # unreadable log, or a value that no longer loads
            value, failed = None, True
        with self._lock:
            if failed:
                stats.errors += 1
            if value is None:
                stats.misses += 1
                self.misses += 1
            else:
                stats.hits += 1
                self.memory.store(key, value)  # promote the disk hit
                self.hits += 1
        return value

    def store(self, key: Hashable, value: Any) -> None:
        """Write ``key -> value`` through to every enabled tier.

        A value that cannot be pickled, or a write the disk refuses, skips
        the disk tier and counts in its ``errors``."""
        with self._lock:
            if self.memory.maxsize == 0:
                return
            self.memory.store(key, value)
            disk, stats = self.disk, self._disk_stats
        if disk is None:
            return
        try:
            disk.append(key, pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
            stored = True
        except Exception:  # unpicklable value, full or read-only disk
            stored = False
        with self._lock:
            if stored:
                stats.stores += 1
            else:
                stats.errors += 1

    def remove(self, key: Hashable) -> bool:
        """Drop ``key`` from both tiers; ``True`` if either held it."""
        with self._lock:
            in_memory = self.memory.remove(key)
            disk = self.disk
        on_disk = False
        if disk is not None:
            try:
                on_disk = disk.remove(key)
            except OSError:
                with self._lock:
                    self._disk_stats.errors += 1
        return in_memory or on_disk

    def clear(self) -> None:
        """Drop all entries from both tiers (statistics are preserved)."""
        with self._lock:
            self.memory.clear()
            disk = self.disk
        if disk is not None:
            try:
                disk.clear()
            except OSError:
                with self._lock:
                    self._disk_stats.errors += 1

    def _disk_keys(self, disk: Optional[RecordLog]) -> List[Hashable]:
        if disk is None:
            return []
        try:
            return disk.keys()
        except OSError:
            return []

    def keys(self) -> List[Hashable]:
        """Return the distinct keys across both tiers (for invalidation)."""
        with self._lock:
            found = self.memory.keys()
            disk = self.disk
        seen = set(found)
        found.extend(key for key in self._disk_keys(disk) if key not in seen)
        return found

    def items(self) -> List[tuple]:
        """Return distinct ``(key, value)`` pairs across both tiers.

        Memory-tier entries win (they are at least as fresh as their disk
        copies); each disk-only entry is read once.  Entries that fail to
        read are skipped, never raised — the bulk-load counterpart of the
        corruption-is-a-miss lookup contract.
        """
        with self._lock:
            found = self.memory.items()
            disk = self.disk
        seen = {key for key, _value in found}
        for key in self._disk_keys(disk):
            if key in seen:
                continue
            try:
                blob = disk.read(key)
                if blob is not None:
                    found.append((key, pickle.loads(blob)))
            except Exception:
                continue
        return found

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Return overall and per-tier statistics.

        The top-level ``entries``/``hits``/``misses``/``hit_rate`` keys keep
        the pre-unification cache-stats shape; ``memory`` and ``disk`` add
        per-tier detail (``disk`` is ``None`` for memory-only stores).  The
        disk tier's ``errors`` include the log frames that failed
        verification, and its ``evictions`` the keys its bound dropped.
        """
        total = self.hits + self.misses
        memory = self.memory.stats.as_dict()
        memory["entries"] = len(self.memory)
        disk = None
        log = self.disk
        if log is not None:
            disk = self._disk_stats.as_dict()
            try:
                disk["entries"] = len(log)
            except OSError:
                disk["entries"] = 0
            disk["errors"] += log.corrupt
            disk["evictions"] = log.evictions
            disk["directory"] = str(log.path.parent)
        return {
            "entries": len(self.memory),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
            "memory": memory,
            "disk": disk,
        }

    def __repr__(self) -> str:
        tiers = "memory+disk" if self.disk is not None else "memory"
        return (
            f"CacheStore({self.namespace!r}, {tiers}, entries={len(self.memory)}, "
            f"hits={self.hits}, misses={self.misses})"
        )

    # ------------------------------------------------------------------
    # Pickling (process-pool workers)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Ship configuration, not contents.

        The lock cannot cross a process boundary and shipping every memory
        entry with every task would dwarf the task itself, so a worker
        unpickles a fresh store with the same bounds and — crucially — the
        same disk-tier log: fork- *and* spawn-started workers read the
        parent's persisted entries instead of recomputing, and append to
        the same log.  Statistics restart at zero on the worker side.
        """
        return {
            "namespace": self.namespace,
            "maxsize": self.memory.maxsize,
            "disk_dir": None if self.disk is None else str(self.disk.path.parent),
            "disk_maxsize": self._disk_maxsize,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            maxsize=state["maxsize"],
            cache_dir=None,
            namespace=state["namespace"],
            disk_maxsize=state["disk_maxsize"],
        )
        if state["disk_dir"]:
            self._use_log(state["disk_dir"])


class StoreBackedCache:
    """Shared surface of the caches built on :class:`CacheStore`.

    Holds the store delegation — bounds, statistics, tier management —
    once, so :class:`~repro.runtime.cache.TranspileCache` and
    :class:`~repro.runtime.distcache.DistributionCache` cannot drift apart
    again.  Subclasses set :attr:`_namespace` and add their typed
    ``lookup``/``store`` surfaces.
    """

    _namespace = "store"

    def __init__(self, maxsize: int, cache_dir: Optional[str] = None) -> None:
        self._store = CacheStore(
            maxsize=maxsize, cache_dir=cache_dir, namespace=self._namespace
        )

    @property
    def maxsize(self) -> int:
        return self._store.maxsize

    @maxsize.setter
    def maxsize(self, value: int) -> None:
        self._store.maxsize = value

    @property
    def hits(self) -> int:
        return self._store.hits

    @property
    def misses(self) -> int:
        return self._store.misses

    def __len__(self) -> int:
        return len(self._store)

    def attach_disk(self, cache_dir: Optional[str]) -> None:
        """Attach/detach the persistent tier (see :meth:`CacheStore.attach_disk`)."""
        self._store.attach_disk(cache_dir)

    def clear(self) -> None:
        """Drop all entries — both tiers (statistics are preserved)."""
        self._store.clear()

    def stats(self) -> dict:
        """Return overall + per-tier statistics (see :meth:`CacheStore.stats`)."""
        return self._store.stats()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={len(self._store)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
