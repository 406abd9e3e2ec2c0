"""Batched, cached, parallel job execution — the preferred run layer.

The paper's workflow is batch-shaped: every figure and table sweeps many
circuit variants (assertion points x noise scales x shot counts) across
interchangeable backends.  This package is the layer between the engines
(:mod:`repro.simulators`, :mod:`repro.devices`) and the drivers
(:mod:`repro.experiments`, benchmarks) that makes those sweeps cheap:

* :func:`~repro.runtime.execute.execute` — one entry point for a circuit
  or a batch, fanning out across circuits and shot chunks on a shared
  executor.
* :mod:`~repro.runtime.pool` — process-wide ``serial``/``thread``/
  ``process`` executors, lazily created and reused across calls.
* :class:`~repro.runtime.job.Job` / :class:`~repro.runtime.job.JobSet` —
  submit/status/result/cancel futures with priorities and streaming
  collection (:meth:`~repro.runtime.job.JobSet.as_completed`).
* :func:`~repro.runtime.provider.get_backend` — named backend registry
  (``"statevector"``, ``"noisy:ibmqx4"``, ...) replacing ad-hoc
  constructor calls.
* :class:`~repro.runtime.store.CacheStore` — the shared bounded-LRU store
  behind both caches, with an optional persistent disk tier
  (``$REPRO_CACHE_DIR`` / ``cache_dir=``) so entries survive the process.
* :class:`~repro.runtime.cache.TranspileCache` — transpile memoisation
  keyed by circuit shape (angles of 1-qubit gates left out), wired into
  the device backends.
* :class:`~repro.runtime.distcache.DistributionCache` — cross-call
  distribution reuse: repeat runs of an exact-distribution backend
  re-sample cached probabilities instead of re-simulating, populated at
  job completion so overlapping calls share entries.
* :mod:`~repro.runtime.batching` — identical ``(circuit, backend)`` jobs
  simulate the distribution once and re-sample counts per job.
* :mod:`~repro.runtime.scheduler` — an in-memory
  :class:`~repro.runtime.scheduler.CostModel` (EWMA per-shot estimates
  fed by every completed chunk) sizes the shot chunks of unseeded jobs
  on process pools, its one decision; and
  :class:`~repro.runtime.scheduler.Scheduler` adds a
  fair-share multi-client submission queue with weighted round-robin
  dispatch and bounded in-flight admission control.

Everything is deterministic under a caller seed: serial, thread, process,
chunked, deduplicated, cached (memory- or disk-tier) and scheduled
execution all produce the same counts for the same seed and
``chunk_shots``.
"""

from repro.runtime.batching import BatchPlan, plan_batches
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.cache import (
    DEFAULT_CACHE,
    TranspileCache,
    clear_transpile_cache,
    transpile_cache_stats,
    transpile_cached,
)
from repro.runtime.distcache import (
    DEFAULT_DISTRIBUTION_CACHE,
    DistributionCache,
    clear_distribution_cache,
    distribution_cache_stats,
    distribution_key,
)
from repro.runtime.execute import execute, execute_and_collect
from repro.runtime.job import Job, JobSet, JobStatus
from repro.runtime.pool import (
    EXECUTOR_KINDS,
    SerialExecutor,
    default_executor_kind,
    get_executor,
    pool_stats,
    shutdown_executors,
)
from repro.runtime.retry import (
    RetryPolicy,
    backoff_rng,
    next_backoff,
    resolve_retry_policy,
)
from repro.runtime.provider import (
    get_backend,
    list_backends,
    register_backend,
    register_device,
    resolve_backend,
)
from repro.runtime.scheduler import (
    DEADLINE_ACTIONS,
    DEFAULT_COST_MODEL,
    CostModel,
    ScheduledBatch,
    Scheduler,
    cost_model_stats,
    default_schedule_mode,
    plan_chunk_shots,
    profile_key,
)
from repro.runtime.store import (
    CacheStore,
    default_cache_dir,
    set_default_cache_dir,
)

# Register the runtime's stat sources (pools, both caches, the cost
# model) with the process-wide metrics registry.  Import-time is the
# right moment: anything that can run a job can be scraped.
from repro.obs.sources import register_runtime_sources as _register_runtime_sources

_register_runtime_sources()

__all__ = [
    "BatchPlan",
    "CacheStore",
    "CircuitBreaker",
    "CostModel",
    "DEADLINE_ACTIONS",
    "DEFAULT_CACHE",
    "DEFAULT_COST_MODEL",
    "DEFAULT_DISTRIBUTION_CACHE",
    "DistributionCache",
    "EXECUTOR_KINDS",
    "Job",
    "JobSet",
    "JobStatus",
    "RetryPolicy",
    "ScheduledBatch",
    "Scheduler",
    "SerialExecutor",
    "TranspileCache",
    "backoff_rng",
    "clear_distribution_cache",
    "clear_transpile_cache",
    "cost_model_stats",
    "default_cache_dir",
    "default_executor_kind",
    "default_schedule_mode",
    "distribution_cache_stats",
    "distribution_key",
    "execute",
    "execute_and_collect",
    "get_backend",
    "get_executor",
    "list_backends",
    "next_backoff",
    "plan_batches",
    "plan_chunk_shots",
    "pool_stats",
    "profile_key",
    "register_backend",
    "register_device",
    "resolve_backend",
    "resolve_retry_policy",
    "set_default_cache_dir",
    "shutdown_executors",
    "transpile_cache_stats",
    "transpile_cached",
]
