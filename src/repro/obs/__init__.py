"""Observability layer: job trace span trees and a unified metrics registry.

The stack spans five layers (HTTP -> service -> scheduler -> executor
pools -> batched simulators); ``repro.obs`` gives them one trace format
and one metrics registry:

* :mod:`repro.obs.trace` — per-job span trees (submit -> admission ->
  queue wait -> dispatch -> prepare -> per-chunk simulate -> collect ->
  settle) with monotonic timestamps.  Span contexts are plain picklable
  dicts shipped inside chunk tasks, so worker-measured wall-clocks
  survive thread *and* process executor boundaries and merge back into
  the parent tree on completion.  Tracing is always on and cheap (a few
  dict/list appends per chunk); :func:`set_tracing_enabled` exists so
  benchmarks can measure the overhead, not so production can avoid it.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (counters,
  gauges, histograms with bounded reservoirs).  The scheduler and the
  service keep every count in instruments of a registry they own, and
  their ``stats()`` are views over those instruments; the process-wide
  :data:`DEFAULT_REGISTRY` mounts the newest scheduler's and service's
  registries next to collectors over the executor pools, both cache
  tiers and the cost model, so one snapshot and one exposition format
  (:meth:`MetricsRegistry.render_prometheus` backs ``GET /v1/metrics``)
  show them all.

Nothing in here imports the runtime or service layers at module import
time — those layers import *us* and register their sources — so the
dependency direction stays acyclic.
"""

from repro.obs.metrics import (
    DEFAULT_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    Span,
    set_tracing_enabled,
    tracing_enabled,
    worker_chunk_record,
)

__all__ = [
    "Counter",
    "DEFAULT_REGISTRY",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "set_tracing_enabled",
    "tracing_enabled",
    "worker_chunk_record",
]
