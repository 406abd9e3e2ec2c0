"""``execute()`` — the batched, parallel front door of the runtime.

One call covers the paper's whole execution surface::

    from repro.runtime import execute, get_backend

    job = execute(circuit, "statevector", shots=4096, seed=7)
    result = job.result()

    jobs = execute(sweep_circuits, get_backend("noisy:ibmqx4"),
                   shots=8192, seed=2020, max_workers=4)
    for job in jobs.as_completed():
        ...

Semantics:

* **Batching** — a list of circuits becomes a :class:`~repro.runtime.job.JobSet`
  whose jobs fan out over a shared executor (see :mod:`repro.runtime.pool`):
  ``executor="thread"`` (the default; chunks overlap where NumPy kernels
  release the GIL, which the trajectory walker mostly does not — see
  :mod:`repro.runtime.pool`), ``"process"`` for worker processes,
  ``"serial"`` for inline execution.  Executors are process-wide and reused across calls —
  no per-call pool churn.
* **Deduplication** — with ``dedupe=True`` (default), jobs with the same
  ``(circuit.fingerprint(), backend)`` simulate the distribution once and
  share/re-sample it (see :mod:`repro.runtime.batching`), preserving the
  exact counts a dedicated run would have produced.
* **Cross-call distribution caching** — with ``distribution_cache`` set, a
  primary whose ``(circuit fingerprint, backend content hash)`` was already
  simulated by an *earlier* call re-samples the cached distribution instead
  of re-simulating (see :mod:`repro.runtime.distcache`) — same counts,
  none of the work.
* **Shot chunking** — ``chunk_shots=N`` splits each job into ≤N-shot chunks
  executed in parallel, with per-chunk seeds spawned deterministically from
  the caller's seed; worker count never changes the merged counts.
* **Priorities** — higher-priority jobs are submitted to the executor
  first (FIFO queues make that start-order; under ``executor="serial"`` it
  is the exact execution order).  Priorities never affect counts or the
  returned job order.
* **Determinism** — an unchunked, unbatched, uncached ``execute`` is
  bit-identical to the sequential ``backend.run`` loop it replaces, and
  every executor kind, chunking choice and cache state reproduces those
  same counts for the same seed.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Sequence, Union

from repro.circuits.circuit import QuantumCircuit
from repro.devices.backend import Backend
from repro.exceptions import JobError
from repro.obs.trace import Span, tracing_enabled
from repro.runtime.batching import (
    ROLE_CACHED,
    ROLE_INDEPENDENT,
    ROLE_PRIMARY,
    plan_batches,
)
from repro.runtime.distcache import (
    DEFAULT_DISTRIBUTION_CACHE,
    DistributionCache,
    distribution_key,
)
from repro.runtime.job import Job, JobSet
from repro.runtime.pool import executor_kind, get_executor
from repro.runtime.provider import resolve_backend
from repro.runtime.retry import resolve_retry_policy
from repro.runtime.scheduler import DEFAULT_COST_MODEL, plan_chunk_shots, profile_key

CircuitInput = Union[QuantumCircuit, Sequence[QuantumCircuit]]
BackendInput = Union[str, Backend, Sequence[Union[str, Backend]]]
DistCacheInput = Union[bool, DistributionCache, None]
ChunkInput = Optional[int]


def _broadcast(value, count: int, name: str) -> list:
    """Expand a scalar to ``count`` entries or validate a sequence's length."""
    if isinstance(value, (list, tuple)):
        if len(value) != count:
            raise JobError(
                f"{name} list has {len(value)} entries for {count} circuit(s)"
            )
        return list(value)
    return [value] * count


def _count(value, name: str) -> int:
    """Return ``value`` as a Python int, or raise :class:`JobError`.

    Accepts what :func:`operator.index` accepts (so NumPy integers pass)
    except ``bool``: ``True`` is not a count, a seed or a priority.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise JobError(f"{name} must be an int, got {type(value).__name__} {value!r}")


def _resolve_distribution_cache(
    distribution_cache: DistCacheInput,
) -> Optional[DistributionCache]:
    """Map the ``distribution_cache`` argument to a cache instance or ``None``."""
    if distribution_cache is None or distribution_cache is False:
        return None
    if distribution_cache is True:
        return DEFAULT_DISTRIBUTION_CACHE
    if isinstance(distribution_cache, DistributionCache):
        return distribution_cache
    raise JobError(
        "distribution_cache must be a bool or a DistributionCache, "
        f"got {type(distribution_cache).__name__}"
    )


def execute(
    circuits: CircuitInput,
    backend: BackendInput,
    shots: Union[int, Sequence[int]] = 1024,
    seed: Union[None, int, Sequence[Optional[int]]] = None,
    max_workers: Optional[int] = None,
    chunk_shots: ChunkInput = None,
    dedupe: bool = True,
    executor: Optional[str] = None,
    priority: Union[int, Sequence[int]] = 0,
    distribution_cache: DistCacheInput = False,
    trace_parent: Optional[Span] = None,
    retry=None,
    fault_plan=None,
) -> Union[Job, JobSet]:
    """Submit one circuit or a batch for (parallel) execution.

    Parameters
    ----------
    circuits:
        A :class:`~repro.circuits.circuit.QuantumCircuit` or a sequence of
        them.
    backend:
        A backend instance, a provider spec string (``"noisy:ibmqx4"``), or
        a per-circuit sequence of either.
    shots / seed:
        Scalars apply to every circuit; sequences must match the batch
        length.  A scalar seed replicates the sequential-loop convention of
        running every circuit with the *same* seed.
    max_workers:
        Pool width for the thread/process executors (default: CPU count,
        capped at 32).  Pools are shared process-wide per ``(kind, width)``
        and reused across calls.  Width never changes the merged counts.
    chunk_shots:
        Split each job into chunks of at most this many shots (parallel
        shot sharding for the per-shot Monte-Carlo engines).  An explicit
        int always wins.  ``None`` keeps a job whole except an unseeded
        one on a process pool, which is sized from the cost model's
        measured per-shot cost; serial and thread runs stay whole.  The
        resolved size is recorded in ``job.plan`` (see
        :mod:`repro.runtime.scheduler`).
    dedupe:
        Group identical ``(circuit, backend)`` jobs so the distribution is
        simulated once and re-sampled per job.
    executor:
        ``"serial"``, ``"thread"`` or ``"process"``; ``None`` reads
        ``$REPRO_EXECUTOR``, and with neither set the call runs on
        threads.  Under ``"process"`` work crosses the boundary by pickle,
        and device circuits are transpiled once in the parent before
        fan-out.
    priority:
        Scalar or per-circuit submission priority (default 0).  Higher
        priorities reach the executor queue first; job order in the
        returned :class:`JobSet` is unaffected.
    distribution_cache:
        Cross-call reuse policy: ``False`` (default) off, ``True`` the
        process-wide default :class:`~repro.runtime.distcache.DistributionCache`,
        or a cache instance.  Cached hits re-sample counts without
        simulating — bit-identical to a fresh run.  A missing entry is
        stored by a done-callback the moment the primary's simulation
        *completes* (nobody has to collect the result first), so an
        overlapping ``execute()`` call issued after that point is served
        from the cache instead of simulating again.  When the cache has a
        disk tier (``$REPRO_CACHE_DIR`` or ``cache_dir=``), entries also
        survive into future processes.
    trace_parent:
        Optional :class:`~repro.obs.trace.Span` to hang the per-job trace
        spans off (the service layer passes its per-submission root).
        With ``None``, each job gets its own root span as long as
        process-wide tracing is enabled; job traces are read back via
        ``job.trace()`` / ``jobset.trace()``.
    retry:
        Chunk retry policy: ``None`` uses the defaults
        (``$REPRO_MAX_RETRIES``, falling back to 2 retries per chunk),
        ``False``/``0`` disables retries, an int sets ``max_retries``, a
        dict or :class:`~repro.runtime.retry.RetryPolicy` sets every knob
        (``max_retries``, job-wide ``retry_budget``, ``backoff_s``,
        ``max_backoff_s``).  Retried chunks resubmit with their original
        ``(seed, chunk index)``, so retries never change counts.
    fault_plan:
        A :class:`repro.faults.FaultPlan` (or spec dict/JSON) consulted
        per chunk attempt for chaos testing; ``None`` uses the ambient
        plan (``$REPRO_FAULT_PLAN`` / :func:`repro.faults.activate`), and
        with no ambient plan injection is completely off.

    Returns
    -------
    Job or JobSet
        A single :class:`Job` when ``circuits`` is a lone circuit, else a
        :class:`JobSet` in input order.  Submission returns immediately
        (``executor="serial"`` runs inline); call ``.result()`` or iterate
        ``.as_completed()`` to collect.
    """
    if chunk_shots is not None:
        chunk_shots = _count(chunk_shots, "chunk_shots")
        if chunk_shots < 1:
            raise JobError(f"chunk_shots must be positive, got {chunk_shots}")
    if max_workers is not None:
        max_workers = _count(max_workers, "max_workers")
        if max_workers < 1:
            raise JobError(f"max_workers must be positive, got {max_workers}")
    single = isinstance(circuits, QuantumCircuit)
    circuit_list: List[QuantumCircuit] = [circuits] if single else list(circuits)
    if not circuit_list:
        return JobSet([])
    count = len(circuit_list)
    # Resolve each distinct spec string once so repeated specs share one
    # backend instance — dedup groups by backend identity, so per-circuit
    # resolution would silently disable batching for spec-string callers.
    resolved_specs: dict = {}
    backends = []
    for spec in _broadcast(backend, count, "backend"):
        if isinstance(spec, Backend):
            backends.append(spec)
            continue
        if spec not in resolved_specs:
            resolved_specs[spec] = resolve_backend(spec)
        backends.append(resolved_specs[spec])
    shots_list = [_count(s, "shots") for s in _broadcast(shots, count, "shots")]
    seed_list = [
        None if s is None else _count(s, "seed")
        for s in _broadcast(seed, count, "seed")
    ]
    priority_list = [
        _count(p, "priority") for p in _broadcast(priority, count, "priority")
    ]
    dist_cache = _resolve_distribution_cache(distribution_cache)
    # Validate everything before any job reaches the pool: a late failure
    # would leak already-submitted work with no Job handle to collect it.
    for s in shots_list:
        if s < 0:
            raise JobError(f"shots must be non-negative, got {s}")
    for s in seed_list:
        if s is not None and s < 0:
            raise JobError(f"seed must be non-negative, got {s}")
    retry_policy = resolve_retry_policy(retry)
    if fault_plan is not None:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.from_spec(fault_plan)
    else:
        from repro.faults import active_plan

        fault_plan = active_plan()
    pool = get_executor(executor, max_workers)
    kind = executor_kind(pool)

    # Planned chunk sizing, resolved once per (profile key, shots) so that
    # identical jobs inside one call (dedup groups, repeated sweep points)
    # always share a plan even while cost observations stream in.
    resolved_chunks: dict = {}

    def chunk_for(index: int) -> Optional[int]:
        if chunk_shots is not None:
            return chunk_shots  # explicit always wins
        if kind != "process":
            # Serial chunks run one after another and thread chunks of
            # the in-repo engines do not overlap: splitting only adds
            # per-chunk setup, so these runs stay whole.
            return None
        if seed_list[index] is not None:
            # A caller seed pins the chunk plan: a planned split here
            # would change counts.
            return None
        key = (profile_key(backends[index], circuit_list[index]), shots_list[index])
        if key not in resolved_chunks:
            resolved_chunks[key] = plan_chunk_shots(
                backends[index],
                circuit_list[index],
                shots_list[index],
                width=max_workers,
                cost_model=DEFAULT_COST_MODEL,
            )
        return resolved_chunks[key]

    plan = plan_batches(circuit_list, backends, shots_list, seed_list, dedupe=dedupe)
    jobs: List[Job] = []
    to_submit: List[Job] = []
    for job_plan in plan.jobs:
        index = job_plan.index
        primary = job_plan.role in (ROLE_PRIMARY, ROLE_INDEPENDENT)
        distribution = None
        store = None
        if primary and dist_cache is not None:
            key = distribution_key(circuit_list[index], backends[index])
            if key is not None:
                distribution = dist_cache.lookup(key)
                if distribution is None:
                    store = (dist_cache, key)
        job_chunk = chunk_for(index)
        if distribution is not None:
            # Cross-call hit: the job re-samples the cached distribution
            # (and still serves as dedup source for this call's siblings).
            job = Job(
                circuit_list[index],
                backends[index],
                shots_list[index],
                seed_list[index],
                role=ROLE_CACHED,
                chunk_shots=job_chunk,
                priority=priority_list[index],
                distribution=distribution,
            )
        else:
            job = Job(
                circuit_list[index],
                backends[index],
                shots_list[index],
                seed_list[index],
                role=job_plan.role,
                source=None if primary else jobs[job_plan.source],
                chunk_shots=job_chunk,
                priority=priority_list[index],
            )
            job._dist_store = store
            job._retry_policy = retry_policy
            job._fault_plan = fault_plan
            if primary:
                job._cost_probe = (
                    DEFAULT_COST_MODEL,
                    profile_key(backends[index], circuit_list[index]),
                )
                to_submit.append(job)
        job.plan = {"chunk_shots": job_chunk, "executor": None}
        if trace_parent is not None or tracing_enabled():
            attrs = {
                "job_id": job.job_id,
                "circuit": getattr(circuit_list[index], "name", None),
                "backend": getattr(backends[index], "name", None),
                "shots": shots_list[index],
                "role": "cached" if job.cached else job_plan.role,
            }
            if trace_parent is not None:
                job._span = trace_parent.child("circuit", **attrs)
            else:
                job._span = Span("job", attrs)
        jobs.append(job)
    # Stable sort: higher priorities go first, equal ones keep plan order.
    # Dispatch order never changes counts or the returned job order.  The
    # shared pools outlive the call — no shutdown, no churn.
    for job in sorted(to_submit, key=lambda job: -job.priority):
        job.plan["executor"] = kind
        job._submit(pool)
    return jobs[0] if single else JobSet(jobs)


def execute_and_collect(
    circuits: CircuitInput,
    backend: BackendInput,
    shots: Union[int, Sequence[int]] = 1024,
    seed: Union[None, int, Sequence[Optional[int]]] = None,
    **options,
):
    """Blocking convenience: ``execute(...)`` then ``.result()`` immediately."""
    submitted = execute(circuits, backend, shots=shots, seed=seed, **options)
    return submitted.result()
