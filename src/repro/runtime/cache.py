"""Transpile caching keyed by circuit shape.

Transpiling for a device is the most expensive *classical* step of a noisy
run, and the paper's sweeps re-execute the same instrumented circuit at many
noise scales, shot counts and rotation angles.  :class:`TranspileCache`
keys each entry by
``(circuit.shape_fingerprint(), device content fingerprint, layout, optimize)``
and stores a :class:`~repro.transpiler.template.ShapeTemplate`, so a sweep
pays the full lowering once per circuit shape — the profile-guided "pay the
analysis once, reuse it across runs" discipline.

The shape fingerprint is the circuit's content hash without the parameter
values of its 1-qubit gates: it keeps every gate name, operand, condition,
unitary payload and every multi-qubit gate's parameters.  Those angles may
leave the key because lowering reads them in one place only: each 1-qubit
gate decomposes to exactly one u1/u2/u3, the layout, routing, direction
and CX-cancellation passes never read a parameter, and the angles reach
the output only through the 1-qubit runs that merging folds.  A template
returns its stored circuit for the angles it was built with and rebuilds
only the runs an angle touches for any other; either way the result is
``transpile_for_device``'s output bit for bit.

The noise scale deliberately does **not** participate in the key: lowering
never sees it — ``transpile_for_device`` takes no noise argument and layout
selection reads the device's unscaled calibration — so a noise sweep's
per-scale backends all hit the same entry.

Storage lives in a shared :class:`~repro.runtime.store.CacheStore`
(thread-safe, bounded LRU) — the same machinery behind the distribution
cache.  Because the key is a pure content hash, entries also survive the
process when a disk tier is attached (``cache_dir=`` here, or
``$REPRO_CACHE_DIR`` for the process-wide default cache): the tier holds
one pickled template per shape, and a second CLI invocation or CI shard
running the same sweep skips every full lowering.  Returned circuits may
be shared: callers must treat them as immutable, which every engine in
:mod:`repro.simulators` already does.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.devices.device import DeviceModel
from repro.runtime.store import StoreBackedCache, default_cache_dir
from repro.transpiler.layout import Layout
from repro.transpiler.template import ShapeTemplate

#: Cache key: (shape fingerprint, device fingerprint, layout tuple, optimize).
CacheKey = Tuple[str, str, Optional[Tuple[int, ...]], bool]


def device_fingerprint(device: DeviceModel) -> str:
    """Return a content hash of everything lowering can depend on.

    Keying the cache on ``device.name`` alone would let two same-named
    devices with different coupling, basis gates or calibration silently
    share transpiled circuits, so the name, topology and calibration data
    all participate.  Device models are declarative and treated as
    immutable, so the digest is memoised on the instance.
    """
    cached = getattr(device, "_structure_fingerprint", None)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    hasher.update(
        f"{device.name}|{device.num_qubits}|{device.basis_gates}".encode()
    )
    hasher.update(repr(sorted(device.coupling_map.directed_edges)).encode())
    for qcal in device.qubit_calibrations:
        hasher.update(
            repr(
                (
                    qcal.t1,
                    qcal.t2,
                    qcal.readout_p0_given_1,
                    qcal.readout_p1_given_0,
                    qcal.frequency_ghz,
                )
            ).encode()
        )
    for gcal in device.gate_calibrations:
        hasher.update(
            repr((gcal.name, gcal.qubits, gcal.error_rate, gcal.duration_ns)).encode()
        )
    digest = hasher.hexdigest()
    device._structure_fingerprint = digest
    return digest


def transpile_key(
    circuit: QuantumCircuit,
    device: DeviceModel,
    layout: Optional[Layout] = None,
    optimize: bool = True,
) -> CacheKey:
    """Build the canonical cache key for one transpile request."""
    layout_key = None if layout is None else tuple(layout.virtual_to_physical)
    return (
        circuit.shape_fingerprint(),
        device_fingerprint(device),
        layout_key,
        bool(optimize),
    )


class TranspileCache(StoreBackedCache):
    """Per-shape transpile-template cache over the shared cache store.

    Parameters
    ----------
    maxsize:
        Maximum number of memory-tier entries; ``0`` disables the cache
        entirely (every lookup misses), which is how benchmarks measure
        the uncached path.
    cache_dir:
        Attach a persistent disk tier under ``<cache_dir>/transpile/``;
        ``None`` (default) keeps the cache memory-only.  The process-wide
        :data:`DEFAULT_CACHE` reads ``$REPRO_CACHE_DIR`` instead.

    Attributes
    ----------
    hits / misses:
        Lifetime lookup statistics (survive :meth:`clear`).  A lookup that
        finds its shape is a hit whatever the angles, and a disk-tier hit
        counts as a hit — per-tier detail lives in :meth:`stats`.

    Pickling ships configuration (bounds, disk directory), never contents:
    a process-pool worker unpickles an empty memory tier but shares the
    disk tier, so explicit-cache backends in spawn-started workers still
    reuse the parent's persisted transpiles (see
    :meth:`CacheStore.__getstate__`).
    """

    _namespace = "transpile"

    def __init__(self, maxsize: int = 1024, cache_dir: Optional[str] = None) -> None:
        super().__init__(maxsize, cache_dir)

    def lookup(self, key: CacheKey) -> Optional[ShapeTemplate]:
        """Return the template for ``key`` (marking a hit) or ``None``."""
        return self._store.lookup(key)

    def store(self, key: CacheKey, template: ShapeTemplate) -> None:
        """Insert a template, evicting the LRU entry when full."""
        self._store.store(key, template)

    def transpile(
        self,
        circuit: QuantumCircuit,
        device: DeviceModel,
        layout: Optional[Layout] = None,
        optimize: bool = True,
    ) -> QuantumCircuit:
        """Return the device-lowered circuit, building its shape's template
        on a miss."""
        key = transpile_key(circuit, device, layout, optimize)
        template = self.lookup(key)
        if template is not None:
            return template.bind(circuit)
        template = ShapeTemplate(circuit, device, layout=layout, optimize=optimize)
        self.store(key, template)
        return template.circuit


#: Process-wide default cache used by the device backends.  Attaches a disk
#: tier automatically when ``$REPRO_CACHE_DIR`` is set, so repeated CLI
#: invocations and CI shards share transpiles across processes.
DEFAULT_CACHE = TranspileCache(cache_dir=default_cache_dir())


def transpile_cached(
    circuit: QuantumCircuit,
    device: DeviceModel,
    layout: Optional[Layout] = None,
    optimize: bool = True,
    cache: Optional[TranspileCache] = None,
) -> QuantumCircuit:
    """Transpile through ``cache`` (the process-wide default when ``None``)."""
    target = DEFAULT_CACHE if cache is None else cache
    return target.transpile(circuit, device, layout, optimize)


def transpile_cache_stats() -> dict:
    """Return the default cache's statistics."""
    return DEFAULT_CACHE.stats()


def clear_transpile_cache() -> None:
    """Empty the default cache (e.g. between benchmark rounds)."""
    DEFAULT_CACHE.clear()
