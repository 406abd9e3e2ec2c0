"""Online execution-cost profiles: measure every chunk, size the next.

:func:`~repro.runtime.scheduler.plan_chunk_shots` needs one number to
split a job on a process pool: what one shot costs on a given engine.
This module owns that number as an **online cost model** — the
measure-then-decide loop of profile-guided optimisation applied to the
runtime, with one decision reading it:

* Every completed chunk task reports its worker-side wall-clock back to the
  parent (the ``(result, elapsed)`` pair chunk tasks already return), and a
  done-callback feeds it into :meth:`CostModel.observe_run`.
* Estimates are exponentially-weighted moving averages keyed by
  ``(engine name, qubit count)`` — coarse enough to aggregate across a
  sweep's circuit variants, fine enough to separate a 2-qubit Bell batch
  from a 23-qubit GHZ batch on the same engine.
* Profiles persist through the same :class:`~repro.runtime.store.CacheStore`
  disk tier the transpile and distribution caches use
  (``$REPRO_CACHE_DIR``/``cache_dir=``, namespace ``profile/``), so a *warm
  process* plans from measured costs on its very first call instead of
  re-learning them.

Observation is always on and always passive: every executor kind feeds
the model (profiling costs one float per chunk), and only process-pool
chunk planning reads it.  Nothing in this module ever touches counts —
estimates steer chunk sizing only where that is count-transparent (see
the scheduler's determinism contract).
"""

from __future__ import annotations

import atexit
import math
import threading
from typing import Dict, Hashable, Optional, Tuple

from repro.runtime.store import StoreBackedCache, default_cache_dir

#: Cost-model key: (engine/backend name, qubit count).
ProfileKey = Tuple[str, int]

#: EWMA smoothing factor: high enough to track a machine whose load
#: changes, low enough that one descheduled chunk does not whipsaw the
#: chunk planner.
EWMA_ALPHA = 0.3

#: Dirty observations per key before the entry is written through to the
#: store (and its disk tier) without an explicit :meth:`CostModel.flush`.
FLUSH_EVERY = 8


def profile_key(backend, circuit) -> ProfileKey:
    """Return the cost key for one ``(backend, circuit)`` pairing.

    The backend ``name`` already encodes the engine family and, for device
    backends, the device (``"noisy(ibmqx4)"``); the qubit count is the
    dominant cost factor within a family.  Seeds, shots and noise scale
    are deliberately excluded — they change *how much* work runs, not the
    per-shot unit cost the planner divides by.
    """
    return (str(getattr(backend, "name", type(backend).__name__)),
            int(getattr(circuit, "num_qubits", 0)))


def _fresh_entry() -> Dict[str, object]:
    return {"per_shot": None, "shot_samples": 0}


def _loaded_entry(value) -> Dict[str, object]:
    """Return a persisted payload's ``per_shot`` fields as a live entry.

    Fields this model no longer keeps (older profiles also stored
    ``per_prepare``/``prepare_samples``) are dropped; a foreign or
    corrupt payload is a fresh start.
    """
    if not isinstance(value, dict):
        return _fresh_entry()
    per_shot, samples = value.get("per_shot"), value.get("shot_samples")
    if per_shot is not None and not (
        isinstance(per_shot, float) and math.isfinite(per_shot) and per_shot >= 0
    ):
        return _fresh_entry()
    if not isinstance(samples, int) or samples < 0:
        return _fresh_entry()
    return {"per_shot": per_shot, "shot_samples": samples}


def _ewma(old: Optional[float], value: float) -> float:
    if old is None:
        return value
    return (1.0 - EWMA_ALPHA) * old + EWMA_ALPHA * value


class CostModel(StoreBackedCache):
    """EWMA per-shot cost estimates, persisted across processes.

    Parameters
    ----------
    maxsize:
        Memory-tier bound on distinct profile keys.
    cache_dir:
        Attach a persistent tier under ``<cache_dir>/profile/``; ``None``
        keeps profiles in-process only.  The process-wide
        :data:`DEFAULT_COST_MODEL` reads ``$REPRO_CACHE_DIR`` instead.

    Thread safety: observations arrive from executor done-callbacks on
    arbitrary threads; one lock covers the live-entry table.  Disk writes
    are batched (every :data:`FLUSH_EVERY` observations per key, plus
    :meth:`flush` and an ``atexit`` flush for the default model) so the
    chunk hot path never waits on file I/O per observation.
    """

    _namespace = "profile"

    def __init__(self, maxsize: int = 256, cache_dir: Optional[str] = None) -> None:
        super().__init__(maxsize, cache_dir)
        self._profile_lock = threading.Lock()
        self._live: Dict[Hashable, Dict[str, object]] = {}
        self._dirty: Dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def _entry(self, key: ProfileKey) -> Dict[str, object]:
        """Return the live entry for ``key``, warm-starting from the store.

        Caller holds the profile lock.  The first touch of a key consults
        the store (memory tier, then disk) — this is the warm-process path:
        a persisted profile is planning-ready before any job has run.
        """
        entry = self._live.get(key)
        if entry is None:
            entry = _loaded_entry(self._store.lookup(key))
            self._live[key] = entry
        return entry

    def observe_run(self, key: ProfileKey, shots: int, elapsed: float) -> None:
        """Fold one completed chunk's ``(shots, elapsed seconds)`` in."""
        if shots <= 0 or not math.isfinite(elapsed) or elapsed < 0:
            return
        with self._profile_lock:
            entry = self._entry(key)
            entry["per_shot"] = _ewma(entry["per_shot"], elapsed / shots)
            entry["shot_samples"] = int(entry["shot_samples"]) + 1
            self._mark_dirty(key, entry)

    def _mark_dirty(self, key: ProfileKey, entry: Dict[str, object]) -> None:
        """Caller holds the profile lock; write through every FLUSH_EVERY."""
        pending = self._dirty.get(key, 0) + 1
        if pending >= FLUSH_EVERY:
            self._store.store(key, dict(entry))
            self._dirty[key] = 0
        else:
            self._dirty[key] = pending

    @staticmethod
    def _has_samples(entry: Dict[str, object]) -> bool:
        return bool(entry["shot_samples"])

    def flush(self, all_entries: bool = False) -> int:
        """Write dirty (or, with ``all_entries``, every live) profile through
        to the store; returns how many entries were written.

        Called automatically at interpreter exit for the process default,
        and by :func:`repro.runtime.store.set_default_cache_dir` after a
        disk tier is attached mid-process.  Sample-less entries (created by
        reading an unknown key) are never written: flushing them would
        overwrite a warmer persisted profile with an empty one.
        """
        with self._profile_lock:
            if all_entries:
                victims = [k for k, e in self._live.items() if self._has_samples(e)]
            else:
                victims = [
                    k
                    for k, n in self._dirty.items()
                    if n > 0 and self._has_samples(self._live[k])
                ]
            for key in victims:
                self._store.store(key, dict(self._live[key]))
                self._dirty[key] = 0
            return len(victims)

    def attach_disk(self, cache_dir) -> None:
        """Attach/detach the persistent tier (see the store's method).

        Sample-less live entries — artifacts of reading a key before the
        attach — are dropped first, so the next read consults the newly
        attached tier instead of being shadowed by an empty placeholder.
        """
        with self._profile_lock:
            for key in [
                k for k, e in self._live.items() if not self._has_samples(e)
            ]:
                del self._live[key]
                self._dirty.pop(key, None)
        super().attach_disk(cache_dir)

    def clear(self) -> None:
        """Drop every profile — live entries and both store tiers."""
        with self._profile_lock:
            self._live.clear()
            self._dirty.clear()
        super().clear()

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------

    def per_shot(self, key: ProfileKey) -> Optional[float]:
        """Return the estimated seconds per shot, or ``None`` when unknown."""
        with self._profile_lock:
            entry = self._entry(key)
            return entry["per_shot"] if entry["shot_samples"] else None

    def profile(self, key: ProfileKey) -> Optional[dict]:
        """Return a copy of the full entry for ``key``, or ``None``."""
        with self._profile_lock:
            entry = self._entry(key)
            return dict(entry) if self._has_samples(entry) else None

    def keys(self) -> list:
        """Return every profiled key (live entries plus persisted ones)."""
        with self._profile_lock:
            live = list(self._live)
        seen = set(live)
        for key in self._store.keys():
            if key not in seen:
                seen.add(key)
                live.append(key)
        return live

    def summary(self) -> dict:
        """Return ``{key: entry}`` for every live profiled key (for stats)."""
        with self._profile_lock:
            return {
                key: dict(entry)
                for key, entry in self._live.items()
                if self._has_samples(entry)
            }


#: Process-wide default model: every execute() call observes into it,
#: process-pool chunk planning reads it.  Attaches a disk tier automatically
#: when ``$REPRO_CACHE_DIR`` is set, so profiles survive the interpreter.
DEFAULT_COST_MODEL = CostModel(cache_dir=default_cache_dir())


def cost_model_stats() -> dict:
    """Return the default cost model's store statistics plus its profiles."""
    stats = DEFAULT_COST_MODEL.stats()
    stats["profiles"] = {
        f"{name}/q{qubits}": entry
        for (name, qubits), entry in sorted(DEFAULT_COST_MODEL.summary().items())
    }
    return stats


atexit.register(DEFAULT_COST_MODEL.flush)
