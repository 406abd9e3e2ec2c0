"""`RuntimeService`: the asyncio multi-tenant front door of the runtime.

The fair-share :class:`~repro.runtime.scheduler.Scheduler` is a library
object — a caller constructs it and blocks threads on batch handles.
This module promotes it to a *service*: a long-running object many
concurrent (async) clients talk to through four calls::

    service = RuntimeService()
    token = service.register_client("alice", weight=2,
                                    quota=ClientQuota(max_in_flight_jobs=8))

    job = await service.submit(circuits, "noisy:ibmqx4", shots=2048,
                               seed=7, token=token)
    async for finished in job.as_completed():     # streaming collection
        ...
    results = await job.result()                  # or bulk collection

    async for handle in service.as_completed([job, other, third]):
        ...                                       # cross-submission stream

Design rules:

* **Never block the event loop.**  Submission is admission-control math
  plus a queue insert; completion is bridged from the executor futures by
  callbacks (:meth:`Job.add_done_callback` → the scheduler's batch
  countdown → ``loop.call_soon_threadsafe``), not by polling; result
  *collection* (which may merge chunks or lazily re-run a derived job)
  runs in the loop's default thread pool.
* **Admission before execution.**  Authentication
  (:mod:`repro.service.auth`), per-client concurrency quotas and
  shots/sec token buckets (:mod:`repro.service.quota`) gate ``submit()``
  with typed errors — or, under ``over_quota="queue"``, with async
  backpressure.  The scheduler's queue policies (deadlines, preemption)
  act after admission.
* **Counts are sacred.**  The service adds *when* and *whether*, never
  *what*: everything flows through the same ``Scheduler`` → ``execute()``
  stack, so a seeded submission's counts are bit-identical to calling
  :func:`repro.runtime.execute.execute` directly
  (``tests/service/test_service.py`` pins it).
* **Bounded memory.**  The service holds a handle only while something
  still needs it: a job in flight, or a settled job whose outcome nothing
  else can answer for.  Once the journal holds a job's settlement the
  handle goes, and :meth:`RuntimeService.job` answers that id from the
  journal — the same lookup a restart uses.  Without a journal the last
  :data:`RECENT_SETTLED_JOBS` settled handles stay; older ids raise
  :class:`~repro.exceptions.JobExpired`.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import itertools
import logging
import threading
import time
from typing import AsyncIterator, Dict, List, Optional

from repro.exceptions import (
    JobAbandoned,
    JobError,
    JobExpired,
    QueueTimeout,
    ScopeDenied,
    ServiceError,
    ServiceOverloaded,
    UnknownJob,
)
from repro.obs.metrics import DEFAULT_REGISTRY, Counter, MetricsRegistry
from repro.obs.trace import Span, tracing_enabled
from repro.runtime.scheduler import CLOSE_GRACE_S, ScheduledBatch, Scheduler
from repro.runtime.store import CacheStore, default_cache_dir
from repro.service.accounting import CostLedger
from repro.service.auth import AuthenticationError, ClientIdentity, TokenAuthenticator
from repro.service.journal import JobJournal
from repro.service.quota import (
    UNLIMITED,
    ClientQuota,
    QuotaExceeded,
    RateLimited,
    TokenBucket,
)

logger = logging.getLogger("repro.service")

#: Batch states in which a handle's work is finished even if the
#: settlement callback has not reached the event loop yet.
_TERMINAL_STATUSES = ("done", "failed", "dropped", "cancelled")

#: Settled handles a service keeps when its journal does not hold their
#: settlement (no journal, or the write failed); past this many newer
#: ones, such an id raises :class:`~repro.exceptions.JobExpired`.
RECENT_SETTLED_JOBS = 256

#: Fallback id source for journal-less services.  A journaled service
#: allocates ids from the journal instead, so they stay monotonic across
#: restarts.
_service_job_counter = itertools.count(1)

def _terminal_status(batch: ScheduledBatch) -> tuple:
    """Return a settled batch's ``(terminal status, error or None)``.

    The one classification of a settlement: its counters, ``stats()``,
    journal record and trace root all use it.  A batch that left the
    queue without running keeps its queue outcome (``"failed"``,
    ``"dropped"``, ``"cancelled"``); one whose jobs ran is ``"failed"``
    when any job errored, ``"cancelled"`` when any was cancelled, else
    ``"done"``.
    """
    status = batch.status()
    if status in ("failed", "dropped", "cancelled"):
        return status, batch._error
    from repro.runtime.job import JobStatus

    jobset = batch._jobset
    statuses = jobset.statuses()
    if JobStatus.ERROR in statuses:
        error = next(
            (job._error for job in jobset.jobs if job._error is not None), None
        )
        return "failed", error
    if JobStatus.CANCELLED in statuses:
        return "cancelled", None
    return "done", None


class ServiceJob:
    """One submission's handle: a stable id plus async status/result APIs.

    Created by :meth:`RuntimeService.submit`; awaiting the handle (or
    calling :meth:`result`) yields the submission's ordered result list.
    The handle settles exactly once — on completion, failure, queue-drop,
    or cancellation — and :meth:`RuntimeService.as_completed` streams
    handles in settle order.
    """

    def __init__(
        self, service: "RuntimeService", client: str, batch: ScheduledBatch,
        size: int, loop: asyncio.AbstractEventLoop, job_id: int,
    ) -> None:
        self.journal_id = int(job_id)
        self.job_id = f"svc-{self.journal_id}"
        self.client = client
        self.batch = batch
        self.size = size
        self._service = service
        self._loop = loop
        self._dispatched = asyncio.Event()
        self._settled = asyncio.Event()
        # Attached by submit()/recover(): the batch's total shots, which
        # settlement charges to the tenant's ledger.
        self._total_shots = 0
        # Trace plumbing, attached by submit()/_resubmit(): the root span
        # of this submission's trace tree and the open "settle" stage.
        self._span: Optional[Span] = None
        self._settle_span: Optional[Span] = None

    # -- lifecycle -------------------------------------------------------

    def status(self) -> str:
        """Return ``"queued"``, ``"running"``, ``"done"``, ``"failed"``,
        ``"dropped"`` or ``"cancelled"`` (the batch states, service-side)."""
        return self.batch.status()

    def done(self) -> bool:
        """Return ``True`` once the handle has settled (any terminal state)."""
        return self._settled.is_set()

    def cancel(self) -> bool:
        """Cancel: dequeue while queued, else cancel the not-yet-run jobs."""
        return self.batch.cancel()

    async def wait(self, timeout: Optional[float] = None) -> "ServiceJob":
        """Wait until the handle settles; returns ``self`` (never raises
        for job failure — inspect :meth:`status` / collect to surface it)."""
        await self._await_settled(timeout)
        return self

    async def _await_settled(self, timeout: Optional[float]) -> None:
        try:
            await asyncio.wait_for(self._settled.wait(), timeout)
        except asyncio.TimeoutError:
            status = self.batch.status()
            if status == "queued":
                # Raises the typed QueueTimeout with position + wait time.
                self.batch.jobs(timeout=0)
            if status in _TERMINAL_STATUSES:
                # Settle/timeout race: the batch finished, but the
                # call_soon_threadsafe settlement callback has not run on
                # the loop yet (it may even be queued behind this very
                # wakeup).  The job IS finished — treating it as a timeout
                # hands the caller a spurious JobError for completed work.
                return
            raise JobError(
                f"{self.job_id} not finished within {timeout}s"
            ) from None

    # -- collection ------------------------------------------------------

    async def jobs(self, timeout: Optional[float] = None):
        """Wait for dispatch and return the underlying runtime ``JobSet``.

        Raises the batch's typed error (:class:`QueueTimeout` for a
        deadline drop, :class:`~repro.exceptions.JobError` otherwise) when
        the batch never made it out of the queue.
        """
        try:
            await asyncio.wait_for(self._dispatched.wait(), timeout)
        except asyncio.TimeoutError:
            self.batch.jobs(timeout=0)  # raises QueueTimeout while queued
            raise JobError(
                f"{self.job_id} not dispatched within {timeout}s"
            ) from None
        return self.batch.jobs(timeout=0)

    async def result(self, timeout: Optional[float] = None) -> List:
        """Await completion and return the ordered result list.

        Chunk merging (and the rare derived-job fallback simulation) runs
        in the loop's default executor so the event loop never blocks.
        """
        await self._await_settled(timeout)
        jobset = self.batch.jobs(timeout=0)  # raises the typed queue error
        return await self._loop.run_in_executor(None, jobset.result)

    async def counts(self, timeout: Optional[float] = None) -> List:
        """Shorthand for ``[r.counts for r in await job.result()]``."""
        return [result.counts for result in await self.result(timeout)]

    def __await__(self):
        return self.result().__await__()

    def trace(self) -> dict:
        """Return this submission's trace span tree as JSON-safe dicts.

        Safe at any point in the job's life: spans still in flight report
        ``duration_s: null``.  A job submitted while process-wide tracing
        was disabled returns a minimal untraced stub so the wire endpoint
        always has an answer.
        """
        if self._span is not None:
            return self._span.to_dict()
        return {
            "name": "job",
            "span_id": None,
            "start_s": 0.0,
            "duration_s": None,
            "attrs": {
                "job_id": self.job_id,
                "client": self.client,
                "status": self.status(),
                "traced": False,
            },
            "children": [],
        }

    async def as_completed(
        self, timeout: Optional[float] = None
    ) -> AsyncIterator:
        """Yield the submission's runtime ``Job`` objects in completion
        order, each exactly once — cancelled and failed jobs included
        (their ``result()`` raises), so the stream never drops work.

        The async counterpart of
        :meth:`repro.runtime.job.JobSet.as_completed`, driven by future
        done-callbacks instead of a polling thread.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        jobset = await self.jobs(timeout)
        queue: asyncio.Queue = asyncio.Queue()
        for job in jobset:
            job.add_done_callback(
                lambda j: RuntimeService._post(self._loop, queue.put_nowait, j)
            )
        for _ in range(len(jobset)):
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                yield await asyncio.wait_for(queue.get(), remaining)
            except asyncio.TimeoutError:
                raise JobError(
                    f"{self.job_id}: jobs still pending after {timeout}s"
                ) from None

    def __repr__(self) -> str:
        return (
            f"<ServiceJob {self.job_id} client={self.client!r} "
            f"size={self.size} status={self.status()}>"
        )


class RecoveredJob:
    """A settled job served from its journal record.

    What :meth:`RuntimeService.job` returns for a settled id it holds no
    live handle for — after a restart, or once the service has let the
    handle go.  Mirrors the terminal slice of the :class:`ServiceJob`
    interface — ``status``/``done``/``wait``/``result``/``counts``/
    ``trace``/``cancel`` — so tenants polling a ``svc-N`` id cannot tell
    the difference.  Counts, result metadata and the trace come straight
    from the journal, so they equal what the live handle returned; only
    a job ``restored`` across a restart marks its results' metadata
    ``recovered``.  Failures re-raise with the journaled type name and
    message.
    """

    def __init__(self, record: dict, restored: bool = True) -> None:
        self.journal_id = record["id"]
        self.job_id = record["job_id"]
        self.client = record["client"]
        self.size = record.get("size", len(record.get("fingerprints") or []))
        self._record = record
        self._restored = restored

    def status(self) -> str:
        return self._record["status"]

    def done(self) -> bool:
        return True

    def cancel(self) -> bool:
        return False  # already terminal

    async def wait(self, timeout: Optional[float] = None) -> "RecoveredJob":
        return self

    def trace(self) -> dict:
        """Return the journaled trace span tree for this id.

        The service journaled the finished tree at settlement where it
        could; records settled without one (older journals, tracing
        disabled, crash before settlement) degrade to a stub built from
        the journaled submit/settle wall-clock timestamps.
        """
        trace = self._record.get("trace")
        if trace is not None:
            return trace
        record = self._record
        duration = None
        if record.get("settled_at") and record.get("submitted_at"):
            duration = max(0.0, record["settled_at"] - record["submitted_at"])
        return {
            "name": "job",
            "span_id": None,
            "start_s": 0.0,
            "duration_s": duration,
            "attrs": {
                "job_id": self.job_id,
                "client": self.client,
                "status": record["status"],
                "recovered": self._restored,
                "traced": False,
            },
            "children": [],
        }

    async def result(self, timeout: Optional[float] = None) -> List:
        """Rebuild the result list from journaled counts, or re-raise."""
        record = self._record
        status = record["status"]
        if status == "done":
            from repro.results.counts import Counts
            from repro.results.result import Result

            counts = record.get("counts") or []
            shots = record.get("shots_out") or [
                sum(c.values()) for c in counts
            ]
            metadata = record.get("metadata") or [{} for _ in counts]
            marker = (
                {"recovered": True, "job_id": self.job_id}
                if self._restored else {}
            )
            return [
                Result(counts=Counts(c), shots=n, metadata={**m, **marker})
                for c, n, m in zip(counts, shots, metadata)
            ]
        error = record.get("error") or {}
        message = (
            f"{self.job_id} {status} before restart"
            + (f": [{error['type']}] {error['message']}" if error else "")
        )
        if status == "dropped":
            raise QueueTimeout(message, client=self.client)
        raise JobError(message)

    async def counts(self, timeout: Optional[float] = None) -> List:
        return [result.counts for result in await self.result(timeout)]

    def __await__(self):
        return self.result().__await__()

    def __repr__(self) -> str:
        return (
            f"<RecoveredJob {self.job_id} client={self.client!r} "
            f"size={self.size} status={self.status()}>"
        )


class _ServiceClient:
    """Service-side per-client state: quota machinery and count instruments.

    ``completed_jobs`` and the in-flight gauge are exposition families of
    the service's registry; the per-status batch settlements, rejections
    and backpressure waits are instruments only ``stats()`` reads.
    """

    __slots__ = ("identity", "quota", "bucket", "in_flight_jobs", "condition",
                 "completed_jobs", "settled", "rejected", "queued_waits")

    def __init__(self, identity: ClientIdentity, quota: ClientQuota,
                 clock, registry: MetricsRegistry) -> None:
        self.identity = identity
        self.set_quota(quota, clock)
        self.in_flight_jobs = 0
        self.condition: Optional[asyncio.Condition] = None
        labels = {"client": identity.name}
        self.completed_jobs = registry.counter(
            "repro_service_client_completed_jobs_total", labels,
            "Jobs settled done, per client",
        )
        registry.gauge(
            "repro_service_client_in_flight_jobs", labels,
            "Jobs admitted and not yet settled, per client",
            fn=lambda: self.in_flight_jobs,
        )
        self.settled = {
            status: Counter("settled_batches", dict(labels, status=status))
            for status in _TERMINAL_STATUSES
        }
        self.rejected = {
            reason: Counter("rejected", dict(labels, reason=reason))
            for reason in ("quota", "rate", "overload")  # auth has no client
        }
        self.queued_waits = Counter("queued_waits", labels)

    def set_quota(self, quota: ClientQuota, clock) -> None:
        self.quota = quota
        self.bucket = (
            TokenBucket(
                quota.shots_per_second,
                quota.burst_shots
                if quota.burst_shots is not None
                else quota.shots_per_second,
                clock=clock,
            )
            if quota.shots_per_second is not None
            else None
        )

    def view(self, scheduler: Optional[dict]) -> dict:
        """This client's ``stats()["clients"]`` entry; ``scheduler`` is its
        :meth:`Scheduler.stats` entry (the source of submit counts)."""
        snapshot = {
            ("completed" if status == "done" else status) + "_batches":
                int(counter.value)
            for status, counter in self.settled.items()
        }
        for reason, counter in self.rejected.items():
            snapshot[f"rejected_{reason}"] = int(counter.value)
        for field in ("submitted_batches", "submitted_jobs"):
            snapshot[field] = scheduler[field] if scheduler is not None else 0
        snapshot["completed_jobs"] = int(self.completed_jobs.value)
        snapshot["queued_waits"] = int(self.queued_waits.value)
        snapshot["in_flight_jobs"] = self.in_flight_jobs
        snapshot["weight"] = self.identity.weight
        if scheduler is not None:
            snapshot["scheduler"] = scheduler
        return snapshot


class RuntimeService:
    """A long-running multi-tenant async service over the runtime stack.

    Parameters
    ----------
    authenticator:
        Token resolver (default: a fresh
        :class:`~repro.service.auth.TokenAuthenticator` honouring
        ``allow_anonymous``).
    default_quota:
        :class:`~repro.service.quota.ClientQuota` applied to clients
        registered without one (and to anonymous submissions); default
        unlimited.
    allow_anonymous:
        Accept token-less submissions under the shared ``"anonymous"``
        client (default ``True`` — turn off for real multi-tenancy).
    preempt_after:
        Queue policy, forwarded to the scheduler: boost batches queued
        longer than ``preempt_after`` seconds.
    breaker:
        Per-backend circuit-breaker policy, forwarded to the scheduler:
        ``None``/``True`` for the default thresholds, ``False`` to
        disable, or a dict of
        :class:`~repro.runtime.breaker.CircuitBreaker` kwargs.
    max_queue_depth:
        Load-shedding watermark: submissions arriving while the
        scheduler queue already holds this many batches are rejected
        with :class:`~repro.exceptions.ServiceOverloaded` (a 503 with
        ``Retry-After`` on the wire) instead of deepening the queue.
        ``None`` (default) never sheds.
    max_in_flight / executor / max_workers:
        Forwarded to the underlying
        :class:`~repro.runtime.scheduler.Scheduler`.
    cache_dir:
        Root for the service's durable state (``<cache_dir>/service/``:
        job journal, cost ledgers, hashed token records).  Defaults to
        ``$REPRO_CACHE_DIR``; ``None`` with the variable unset means no
        durability.
    journal / accounting:
        The write-ahead :class:`~repro.service.journal.JobJournal` and
        per-tenant :class:`~repro.service.accounting.CostLedger`.  Each
        accepts an instance, ``False`` (disable), or ``None`` (default):
        auto-construct under ``cache_dir`` when one resolves.
    cost_weighted_shares:
        When ``True`` (default ``False``), settled jobs feed the cost
        ledger back into scheduler fair-share weights — heavy spenders
        are nudged down, light ones up (see
        :meth:`~repro.service.accounting.CostLedger.effective_weight`).
    clock / sleep:
        Injectable monotonic clock and async sleep, used together by the
        rate limiter (``clock`` feeds the token buckets, ``sleep`` paces
        ``over_quota="queue"`` backpressure).  They must agree: a
        test-injected fake clock needs a matching fake sleep that
        advances it, or queued rate-limited submissions wait on real
        time the fake clock never reaches.

    One service binds to one event loop (the loop of its first async
    call); the scheduler and executor machinery below it remain plain
    threads and processes.
    """

    def __init__(
        self,
        authenticator: Optional[TokenAuthenticator] = None,
        default_quota: Optional[ClientQuota] = None,
        allow_anonymous: bool = True,
        max_in_flight: Optional[int] = None,
        executor: Optional[str] = None,
        max_workers: Optional[int] = None,
        preempt_after: Optional[float] = None,
        breaker=None,
        max_queue_depth: Optional[int] = None,
        clock=time.monotonic,
        sleep=asyncio.sleep,
        cache_dir: Optional[str] = None,
        journal=None,
        accounting=None,
        cost_weighted_shares: bool = False,
    ) -> None:
        resolved_dir = cache_dir if cache_dir is not None else default_cache_dir()
        if authenticator is not None:
            self.authenticator = authenticator
        else:
            auth_store = (
                CacheStore(
                    maxsize=1024,
                    cache_dir=resolved_dir,
                    namespace="service/auth",
                    disk_maxsize=None,
                )
                if resolved_dir
                else None
            )
            self.authenticator = TokenAuthenticator(
                allow_anonymous=allow_anonymous, store=auth_store
            )
        if journal is None:
            self.journal = JobJournal(cache_dir=resolved_dir) if resolved_dir else None
        else:
            self.journal = None if journal is False else journal
        if accounting is None:
            self.accounting = (
                CostLedger(cache_dir=resolved_dir) if resolved_dir else None
            )
        else:
            self.accounting = None if accounting is False else accounting
        self.cost_weighted_shares = bool(cost_weighted_shares)
        self.default_quota = (
            default_quota if default_quota is not None else UNLIMITED
        )
        self.scheduler = Scheduler(
            max_in_flight=max_in_flight,
            executor=executor,
            max_workers=max_workers,
            require_registration=True,
            preempt_after=preempt_after,
            breaker=breaker,
        )
        if max_queue_depth is not None and int(max_queue_depth) < 1:
            raise ServiceError(
                f"max_queue_depth must be a positive integer or None, "
                f"got {max_queue_depth!r}"
            )
        self.max_queue_depth = (
            int(max_queue_depth) if max_queue_depth is not None else None
        )
        self._draining = False
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._clients: Dict[str, _ServiceClient] = {}
        # Live handles, plus settled ones the journal cannot answer for;
        # ``_recent`` orders the latter for expiry (see _retire).
        self._jobs: Dict[str, ServiceJob] = {}
        self._recent: collections.deque = collections.deque()
        self._expired_through = 0  # newest journal id expired from _jobs
        # Journal ids at or above this one are known to this life: its own
        # submissions, or records recover() already handled (``None``:
        # none yet).
        self._known_from: Optional[int] = None
        self._started_wall = time.time()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._settlement_warned: set = set()  # (stage, exc type) seen
        self._started = started = clock()
        # Every service count lives in an instrument of this registry,
        # which stats() reads and DEFAULT_REGISTRY mounts (weakly; the
        # newest service owns the "service" slot).  Gauge callbacks close
        # over state containers, never over the service itself.
        self.metrics = metrics = MetricsRegistry()

        def by_label(name, label, values, text):
            return {v: metrics.counter(name, {label: v}, text) for v in values}

        self._submitted = metrics.counter(
            "repro_service_submitted_jobs_total",
            help="Jobs admitted by submit() or re-submitted by recover()",
        )
        self._settled = by_label(
            "repro_service_settled_jobs_total", "status", _TERMINAL_STATUSES,
            "Jobs settled, by terminal status",
        )
        self._rejected = by_label(
            "repro_service_rejected_total", "reason",
            ("auth", "quota", "rate", "overload"),
            "Submissions rejected before admission",
        )
        self._settlement_errors = by_label(
            "repro_service_settlement_errors_total", "stage",
            ("collect", "journal", "ledger"),
            "Settlement bookkeeping failures, by stage",
        )
        self._job_latency = metrics.histogram(
            "repro_service_job_latency_seconds",
            help="Submit-to-settle seconds per submission",
        )
        metrics.gauge("repro_service_uptime_seconds",
                      help="Seconds since the service started",
                      fn=lambda: clock() - started)
        metrics.gauge("repro_service_known_jobs",
                      help="Job handles held in memory: live jobs plus "
                           "settled ones the journal cannot answer for",
                      fn=functools.partial(len, self._jobs))
        metrics.gauge("repro_service_clients",
                      help="Clients with service-side state",
                      fn=functools.partial(len, self._clients))
        DEFAULT_REGISTRY.mount("service", metrics)
        if self.authenticator.allow_anonymous:
            self.scheduler.client(TokenAuthenticator.ANONYMOUS, weight=1)

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------

    def register_client(
        self,
        name: str,
        token: Optional[str] = None,
        weight: int = 1,
        quota: Optional[ClientQuota] = None,
        scopes=None,
        expires_in: Optional[float] = None,
        **metadata,
    ) -> str:
        """Register a tenant and return its bearer token.

        ``weight`` feeds the scheduler's weighted round-robin; ``quota``
        (default: the service's ``default_quota``) bounds the client's
        concurrency and shots/sec.  ``scopes`` (default
        ``("submit", "read")``) and ``expires_in`` seconds attach to the
        *token*.  Re-registering the same token is an explicit policy
        update; issuing an additional token for a name requires the same
        weight/quota (a mismatch raises
        :class:`~repro.exceptions.RegistrationConflict` — one client,
        one policy).
        """
        token = self.authenticator.register(
            name, token=token, weight=weight, quota=quota,
            scopes=scopes, expires_in=expires_in, **metadata
        )
        self.scheduler.client(name, weight=weight)
        identity = ClientIdentity(name, weight, quota, dict(metadata))
        effective = quota if quota is not None else self.default_quota
        with self._lock:
            state = self._clients.get(name)
            if state is None:
                self._clients[name] = _ServiceClient(
                    identity, effective, self._clock, self.metrics
                )
            else:
                # Re-registration updates policy but keeps counters.
                state.identity = identity
                state.set_quota(effective, self._clock)
        return token

    def _client_state(self, identity: ClientIdentity) -> _ServiceClient:
        with self._lock:
            state = self._clients.get(identity.name)
            if state is None:
                quota = (
                    identity.quota
                    if identity.quota is not None
                    else self.default_quota
                )
                state = _ServiceClient(identity, quota, self._clock,
                                       self.metrics)
                self._clients[identity.name] = state
            return state

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise ServiceError(
                "RuntimeService is bound to another event loop; create one "
                "service per loop"
            )
        return loop

    @staticmethod
    def _batch_shape(circuits, shots) -> (int, int):
        """Return ``(num_circuits, total_shots)`` for admission math.

        ``circuits`` must already be a single circuit or a materialized
        sequence — :meth:`submit` listifies iterators before admission so
        a generator is not exhausted here and then replayed empty into
        the scheduler.
        """
        from repro.circuits.circuit import QuantumCircuit

        size = 1 if isinstance(circuits, QuantumCircuit) else len(circuits)
        if isinstance(shots, (list, tuple)):
            total = sum(int(s) for s in shots)
        else:
            total = int(shots) * size
        return size, total

    def _check_admission_open(self, state: _ServiceClient) -> None:
        """Shed load before any admission math runs.

        Raises :class:`ServiceOverloaded` (the wire's 503 +
        ``Retry-After``) while the service is draining or the scheduler
        queue sits at the ``max_queue_depth`` watermark.  Shedding comes
        before quota/rate admission on purpose: an overloaded service
        must not debit a client's token bucket for work it refuses.
        """
        if self._draining:
            self._reject("overload", state)
            raise ServiceOverloaded(
                "service is draining and no longer accepts submissions",
                retry_after=5.0,
                reason="draining",
            )
        if self.max_queue_depth is None:
            return
        depth = self.scheduler.queue_depth()
        if depth >= self.max_queue_depth:
            self._reject("overload", state)
            raise ServiceOverloaded(
                f"scheduler queue holds {depth} batch(es), at the "
                f"load-shedding watermark of {self.max_queue_depth}",
                retry_after=1.0,
                queue_depth=depth,
                limit=self.max_queue_depth,
            )

    def _reject(self, reason: str,
                state: Optional[_ServiceClient] = None) -> None:
        """Count one refused submission (per client where one is known)."""
        self._rejected[reason].inc()
        if state is not None:
            state.rejected[reason].inc()

    def _try_admit(self, state: _ServiceClient, size: int, total_shots: int):
        """One admission attempt; returns ``(kind, retry_after)``.

        ``kind`` is ``"ok"`` (in-flight charged, bucket debited),
        ``"quota"`` (concurrency limit) or ``"rate"`` (bucket empty,
        ``retry_after`` seconds until it refills enough).

        A single submission larger than the whole concurrency limit is
        admitted once nothing else is in flight (debt model, matching
        ``Scheduler._admits`` and :class:`TokenBucket`) — otherwise the
        ``"queue"`` policy would wait on a settle that can never come.
        """
        with self._lock:
            limit = state.quota.max_in_flight_jobs
            if limit is not None and state.in_flight_jobs + size > limit:
                if not (size > limit and state.in_flight_jobs == 0):
                    return "quota", None
            if state.bucket is not None:
                retry_after = state.bucket.acquire(total_shots)
                if retry_after > 0:
                    return "rate", retry_after
            state.in_flight_jobs += size
            return "ok", None

    async def submit(
        self,
        circuits,
        backend,
        shots=1024,
        seed=None,
        token: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
        deadline_action: str = "drop",
        **options,
    ) -> ServiceJob:
        """Authenticate, admit and queue a submission; return its handle.

        ``circuits``/``backend``/``shots``/``seed``/``**options`` are
        :func:`repro.runtime.execute.execute` arguments, ``priority`` /
        ``deadline`` / ``deadline_action`` are scheduler queue policy.
        Raises :class:`AuthenticationError`, :class:`QuotaExceeded` or
        :class:`RateLimited` (typed, with retry telemetry) for rejected
        submissions — or, for ``over_quota="queue"`` clients, applies
        backpressure by awaiting capacity instead.  A draining or
        queue-saturated service rejects with
        :class:`~repro.exceptions.ServiceOverloaded`, and a backend
        whose circuit breaker is open with
        :class:`~repro.exceptions.CircuitOpen` — both carry
        ``retry_after`` so clients can back off honestly.
        """
        from repro.circuits.circuit import QuantumCircuit

        loop = self._bind_loop()
        try:
            identity = self.authenticator.authenticate(token, scope="submit")
        except (AuthenticationError, ScopeDenied):
            self._reject("auth")
            raise
        state = self._client_state(identity)
        self._check_admission_open(state)
        if not isinstance(circuits, QuantumCircuit):
            circuits = list(circuits)  # admission math must not eat iterators
        size, total_shots = self._batch_shape(circuits, shots)
        root_span = None
        admission_span = None
        if tracing_enabled():
            root_span = Span(
                "job",
                {"client": identity.name, "size": size, "shots": total_shots},
            )
            admission_span = root_span.child("admission")
        while True:
            kind, retry_after = self._try_admit(state, size, total_shots)
            if kind == "ok":
                break
            if state.quota.over_quota == "reject":
                if kind == "quota":
                    self._reject("quota", state)
                    raise QuotaExceeded(
                        f"client {identity.name!r} has "
                        f"{state.in_flight_jobs} job(s) in flight; "
                        f"{size} more would exceed its limit of "
                        f"{state.quota.max_in_flight_jobs}",
                        client=identity.name,
                        in_flight=state.in_flight_jobs,
                        limit=state.quota.max_in_flight_jobs,
                    )
                self._reject("rate", state)
                raise RateLimited(
                    f"client {identity.name!r} exceeded "
                    f"{state.quota.shots_per_second:g} shots/sec; retry in "
                    f"{retry_after:.3f}s",
                    client=identity.name,
                    retry_after=retry_after,
                )
            # Backpressure: wait for capacity without blocking the loop.
            state.queued_waits.inc()
            if admission_span is not None:
                admission_span.event("backpressure", kind=kind)
            if kind == "rate":
                await self._sleep(retry_after)
            else:
                if state.condition is None:
                    state.condition = asyncio.Condition()
                async with state.condition:
                    await state.condition.wait()
        if admission_span is not None:
            admission_span.finish()
        if self.journal is not None:
            numeric_id = self.journal.next_id()
            if self._known_from is None:
                self._known_from = numeric_id
        else:
            numeric_id = next(_service_job_counter)
        circuit_list = (
            [circuits] if isinstance(circuits, QuantumCircuit) else circuits
        )
        journaled = False
        try:
            if self.journal is not None:
                # Write-ahead: the record must exist before the scheduler
                # can possibly run the job, so a crash in between errs
                # toward re-running (safe — counts are a pure function of
                # circuit/backend/shots/seed), never toward losing it.
                self.journal.record_submission(
                    numeric_id,
                    identity.name,
                    circuit_list,
                    backend,
                    shots,
                    seed,
                    priority=priority,
                    weight=identity.weight,
                    options=options,
                )
                journaled = True
            batch = self.scheduler.submit(
                circuits,
                backend,
                shots=shots,
                seed=seed,
                client=identity.name,
                priority=priority,
                deadline=deadline,
                deadline_action=deadline_action,
                trace_span=root_span,
                **options,
            )
        except BaseException as exc:
            # Roll back admission in full: the concurrency charge AND the
            # shots already debited from the rate bucket, then wake any
            # over-quota waiters blocked on the freed capacity.
            with self._lock:
                state.in_flight_jobs -= size
                if state.bucket is not None:
                    state.bucket.credit(total_shots)
            if state.condition is not None:
                asyncio.ensure_future(self._notify(state.condition))
            if journaled:
                # Never leave an unsettled record for work the scheduler
                # refused — recovery would re-run a submission the tenant
                # saw rejected.
                self.journal.record_settlement(numeric_id, "failed", error=exc)
            raise
        handle = self._track(identity.name, batch, size, loop, numeric_id,
                             total_shots, root_span)
        if root_span is not None:
            root_span.set(
                job_id=handle.job_id,
                backend=backend if isinstance(backend, str)
                else getattr(backend, "name", None),
            )
        return handle

    def _track(self, client: str, batch: ScheduledBatch, size: int, loop,
               job_id: int, total_shots: int,
               span: Optional[Span]) -> ServiceJob:
        """Count a batch the scheduler accepted and return its handle.

        The one path :meth:`submit` and :meth:`recover` share, so a
        re-submitted job is counted like a fresh one.
        """
        self._submitted.inc(size)
        handle = ServiceJob(self, client, batch, size, loop, job_id=job_id)
        handle._total_shots = total_shots
        handle._span = span
        with self._lock:
            self._jobs[handle.job_id] = handle
        # The bridges out of the threaded scheduler, each hopping onto the
        # loop: one when the batch leaves the queue, one when the
        # scheduler retires it (its last job settled, or a queue-side
        # terminal state).
        batch.add_dispatch_callback(
            lambda _batch: self._post(loop, handle._dispatched.set)
        )
        batch.add_done_callback(
            lambda _batch: self._post(loop, self._settle, handle)
        )
        return handle

    @staticmethod
    def _post(loop: asyncio.AbstractEventLoop, fn, *args) -> None:
        """``call_soon_threadsafe`` tolerant of a loop closed mid-teardown."""
        try:
            loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass  # the owning loop is gone; nobody is awaiting the handle

    # ------------------------------------------------------------------
    # Settlement (event-loop thread)
    # ------------------------------------------------------------------

    def _settle(self, handle: ServiceJob) -> None:
        """Terminal bookkeeping; runs on the loop exactly once per handle."""
        if handle._settled.is_set():
            return
        handle._settled.set()
        status, error = _terminal_status(handle.batch)
        if handle._span is not None:
            handle._settle_span = handle._span.child("settle", status=status)
        self._settled[status].inc(handle.size)
        self._job_latency.observe(
            max(0.0, time.monotonic() - handle.batch.submitted_at)
        )
        state = self._clients.get(handle.client)
        if state is not None:
            with self._lock:
                state.in_flight_jobs -= handle.size
            state.settled[status].inc()
            if status == "done":
                state.completed_jobs.inc(handle.size)
            if state.condition is not None:
                # Wake over-quota waiters; we are already on the loop.
                asyncio.ensure_future(self._notify(state.condition))
        if self.journal is not None or self.accounting is not None:
            # Journal/ledger writes and result collection are blocking
            # I/O — off the loop with them.  A closing loop leaves the
            # record unsettled, which recovery treats as re-runnable.
            try:
                handle._loop.run_in_executor(
                    None, self._record_settlement, handle, status, error
                )
            except RuntimeError:
                self._finalize_trace(handle, status)
                self._retire(handle, journaled=False)
        else:
            self._finalize_trace(handle, status)
            self._retire(handle, journaled=False)

    def _retire(self, handle: ServiceJob, journaled: bool) -> None:
        """Let go of a settled handle.

        At once when the journal holds its settlement (:meth:`job` then
        answers from the journal); otherwise once
        :data:`RECENT_SETTLED_JOBS` newer such handles have settled, after
        which the id raises :class:`~repro.exceptions.JobExpired`.
        """
        with self._lock:
            if journaled:
                self._jobs.pop(handle.job_id, None)
                return
            self._recent.append(handle)
            while len(self._recent) > RECENT_SETTLED_JOBS:
                expired = self._recent.popleft()
                self._jobs.pop(expired.job_id, None)
                self._expired_through = max(self._expired_through,
                                            expired.journal_id)

    def _finalize_trace(self, handle: ServiceJob, terminal: str) -> None:
        """Close the handle's settle and root spans.

        Idempotent (span ``finish`` is).  Only a settlement that journals
        builds the span tree (``to_dict``); the other paths discard it.
        """
        span = handle._span
        if span is None:
            return
        if handle._settle_span is not None:
            handle._settle_span.finish()
        if span.end_s is None:
            span.set(status=terminal)
        span.finish()

    @staticmethod
    async def _notify(condition: asyncio.Condition) -> None:
        async with condition:
            condition.notify_all()

    def _record_settlement(self, handle: ServiceJob, terminal: str,
                           error: Optional[BaseException]) -> None:
        """Journal a handle's terminal outcome and charge its ledger.

        Runs in the loop's default executor: collecting results (chunk
        merging) and the store writes both block.  ``terminal``/``error``
        come from :func:`_terminal_status`, like every other record of
        the settlement.  Never raises — durability bookkeeping must not
        take the service down — but never *swallows* either: a failed
        journal write means recovery will re-run this job, a failed
        ledger charge under-bills the tenant, so each failure is counted
        (``stats()["settlement_errors"]``) and logged once per failure
        class via :meth:`_note_settlement_error`.
        """
        journaled = False
        try:
            counts = shots_out = metadata = None
            if terminal == "done":
                try:
                    results = handle.batch._jobset.result()
                except Exception as exc:
                    self._note_settlement_error("collect", handle, exc)
                    self._finalize_trace(handle, terminal)
                    return
                counts = [dict(r.counts) for r in results]
                shots_out = [r.shots for r in results]
                metadata = [r.metadata for r in results]
            self._finalize_trace(handle, terminal)
            # Work a stop abandoned did not fail: leaving its record
            # unsettled lets recover() re-run it.
            if self.journal is not None and not isinstance(error, JobAbandoned):
                trace = None if handle._span is None else handle._span.to_dict()
                try:
                    self.journal.record_settlement(
                        handle.journal_id, terminal,
                        counts=counts, shots=shots_out, error=error,
                        trace=trace, metadata=metadata,
                    )
                    journaled = True
                except Exception as exc:
                    self._note_settlement_error("journal", handle, exc)
            if terminal == "done" and self.accounting is not None:
                try:
                    self._charge(handle)
                except Exception as exc:
                    self._note_settlement_error("ledger", handle, exc)
        finally:
            self._retire(handle, journaled)

    def _note_settlement_error(self, stage: str, handle: ServiceJob,
                               exc: Exception) -> None:
        """Account for a failed settlement write instead of swallowing it.

        Every failure bumps the ``settlement_errors`` counter surfaced by
        :meth:`stats` (and the per-stage registry counter); every failure
        is also recorded as a structured ``settlement_error`` event on
        the owning job's trace span, so the *which job* question the
        once-per-class log line cannot answer is answered by the trace.
        The first failure of each ``(stage, exception class)`` pair
        additionally logs a warning — once, so a wedged disk under a
        storm does not turn the log into the bottleneck.
        """
        key = (stage, type(exc))
        self._settlement_errors[stage].inc()
        with self._lock:
            first = key not in self._settlement_warned
            self._settlement_warned.add(key)
        span = handle._settle_span or handle._span
        if span is not None:
            span.event(
                "settlement_error",
                stage=stage,
                error=type(exc).__name__,
                message=str(exc),
            )
        if first:
            logger.warning(
                "settlement %s failed for %s (%s: %s); counting further "
                "failures of this class in stats()['settlement_errors'] "
                "without logging each one",
                stage, handle.job_id, type(exc).__name__, exc,
            )

    def _charge(self, handle: ServiceJob) -> None:
        """Charge the tenant's cost ledger for a completed handle and,
        under ``cost_weighted_shares``, rebalance its scheduler weight.

        The charge is the batch's measured chunk wall-clock
        (:attr:`JobSet.time_taken`): a dedupe twin or a distribution-cache
        hit that simulated nothing adds nothing.
        """
        self.accounting.charge(
            handle.client, handle._total_shots, handle.batch._jobset.time_taken
        )
        if not self.cost_weighted_shares:
            return
        state = self._clients.get(handle.client)
        if state is None:
            return
        base = state.identity.weight
        target = self.accounting.effective_weight(handle.client, base)
        if self.scheduler.client_weights().get(handle.client) != target:
            self.scheduler.client(handle.client, weight=target)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    async def as_completed(
        self, handles, timeout: Optional[float] = None
    ) -> AsyncIterator[ServiceJob]:
        """Yield each :class:`ServiceJob` as it settles, exactly once.

        Terminal-state agnostic: completed, failed, dropped and cancelled
        handles are all yielded (collecting the unlucky ones raises their
        typed error), so a many-client driver never loses track of work.
        """
        self._bind_loop()
        pending = {
            asyncio.ensure_future(handle.wait()): handle for handle in handles
        }
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            while pending:
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                done, _not_done = await asyncio.wait(
                    pending, timeout=remaining,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    raise JobError(
                        f"{len(pending)} submission(s) still pending after "
                        f"{timeout}s"
                    )
                for task in done:
                    yield pending.pop(task)
        finally:
            for task in pending:
                task.cancel()

    # ------------------------------------------------------------------
    # Durability / recovery
    # ------------------------------------------------------------------

    async def recover(self) -> dict:
        """Restore journaled jobs after a restart; returns what happened.

        Settled records need nothing: :meth:`job` answers their pre-restart
        ``svc-N`` ids from the journal, counts bit-identical because they
        *are* the journaled counts.  Journaled-but-unsettled records are
        re-submitted to the scheduler exactly once (write-ahead means the
        original run may or may not have started; re-running is safe
        because counts are a pure function of circuit/backend/shots/seed
        and the id is reused, so the tenant still sees one job).
        Unsettled records whose payload did not survive pickling are
        settled as failed instead of silently dropped.

        Idempotent: ids already known to this service — its own
        submissions, and every record an earlier ``recover()`` handled —
        are skipped, so a second ``recover()`` is a no-op.  Returns
        ``{"restored": n, "resubmitted": n, "skipped": n}``.
        """
        loop = self._bind_loop()
        summary = {"restored": 0, "resubmitted": 0, "skipped": 0}
        if self.journal is None:
            return summary
        # Claim every earlier record up front: should a re-submission
        # raise, the rest stay journaled for the next life instead of
        # risking a second run in this one.
        known_from, self._known_from = self._known_from, 0
        unsettled = {record["id"]: record
                     for record in self.journal.unsettled()}
        for job_id in self.journal.ids():
            record = unsettled.get(job_id)
            if known_from is not None and job_id >= known_from:
                summary["skipped"] += 1
            elif record is None:
                summary["restored"] += 1  # settled: the journal answers
            elif not record.get("recoverable", False):
                self.journal.record_settlement(
                    job_id, "failed",
                    error=ServiceError(
                        "journaled submission did not survive the restart "
                        "(payload was not picklable); re-submit it"
                    ),
                )
                summary["skipped"] += 1
            else:
                handle = self._resubmit(record, loop)
                summary["resubmitted" if handle is not None else "skipped"] += 1
        return summary

    def _resubmit(self, record: dict, loop) -> Optional[ServiceJob]:
        """Re-run one unsettled journal record under its original id.

        Bypasses auth and quota admission — the submission was already
        admitted before the crash; charging it again could wedge recovery
        behind the tenant's own quota.
        """
        name = record["client"]
        weight = max(1, int(record.get("weight", 1)))
        self.scheduler.client(name, weight=weight)
        state = self._client_state(ClientIdentity(name, weight))
        size = record.get("size", len(record["circuits"]))
        with self._lock:
            state.in_flight_jobs += size
        root_span = None
        if tracing_enabled():
            root_span = Span(
                "job",
                {
                    "client": name,
                    "size": size,
                    "job_id": record["job_id"],
                    "resubmitted": True,
                },
            )
        try:
            batch = self.scheduler.submit(
                record["circuits"],
                record["backend"],
                shots=record["shots"],
                seed=record["seed"],
                client=name,
                priority=record.get("priority", 0),
                trace_span=root_span,
                **record.get("options", {}),
            )
        except BaseException as exc:
            with self._lock:
                state.in_flight_jobs -= size
            self.journal.record_settlement(record["id"], "failed", error=exc)
            return None
        _size, total_shots = self._batch_shape(record["circuits"], record["shots"])
        return self._track(name, batch, size, loop, record["id"], total_shots,
                           root_span)

    def job(self, job_id: str, token: Optional[str] = None):
        """Look a handle up by its stable ``svc-N`` id.

        ``token`` must carry the ``read`` scope and belong to the job's
        owner (or carry ``admin``).  A live :class:`ServiceJob` comes back
        while the service holds one; a settled id it does not hold is
        answered from the journal as a :class:`RecoveredJob` — after a
        restart and after the service let the handle go alike, so
        tenants never need to know either happened.  Raises
        :class:`~repro.exceptions.JobExpired` for a settled id that left
        memory with no journal to answer for it, else
        :class:`~repro.exceptions.UnknownJob`.
        """
        identity = self.authenticator.authenticate(token, scope="read")
        with self._lock:
            handle = self._jobs.get(job_id)
        if handle is None:
            handle = self._journaled(job_id)
        if identity.name != handle.client and not identity.has_scope("admin"):
            raise ScopeDenied(
                f"client {identity.name!r} may not read job {job_id} "
                f"owned by {handle.client!r}",
                client=identity.name,
                scope="admin",
                granted=identity.scopes,
            )
        return handle

    def _journaled(self, job_id: str) -> RecoveredJob:
        """Answer an id without a live handle from the journal, or raise
        the typed miss."""
        prefix, _, digits = str(job_id).partition("-")
        number = (
            int(digits)
            if prefix == "svc" and digits.isascii() and digits.isdigit()
            else None
        )
        record = (
            self.journal.record(number)
            if number is not None and self.journal is not None
            else None
        )
        if record is not None and record["settled"]:
            restored = record.get("settled_at", 0.0) < self._started_wall
            return RecoveredJob(record, restored=restored)
        if number is not None and number <= self._expired_through:
            raise JobExpired(
                f"job {job_id!r} expired: it settled and left this "
                f"service's memory, and no journal holds its outcome",
                job_id=str(job_id),
            )
        raise UnknownJob(f"unknown job id {job_id!r}", job_id=str(job_id))

    def status(self, job_id: str, token: Optional[str] = None) -> str:
        """Return the job's terminal-or-live status by ``svc-N`` id."""
        return self.job(job_id, token).status()

    def trace(self, job_id: str, token: Optional[str] = None) -> dict:
        """Return the job's trace span tree by ``svc-N`` id.

        Owner-or-admin scoped like every per-job read.  Works for live
        handles (spans still in flight report ``duration_s: null``) and
        for settled ids whose trace was journaled.
        """
        return self.job(job_id, token).trace()

    async def result(
        self, job_id: str, token: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> List:
        """Await and return the ordered result list by ``svc-N`` id."""
        return await self.job(job_id, token).result(timeout)

    async def counts(
        self, job_id: str, token: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> List:
        """Shorthand for ``[r.counts for r in await service.result(...)]``."""
        return [r.counts for r in await self.result(job_id, token, timeout)]

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Snapshot service-wide and per-client statistics.

        A view over this service's and its scheduler's registry
        instruments (the numbers ``/v1/metrics`` exposes).
        ``jobs_per_second`` is the lifetime ``completed_jobs /
        uptime_s``; ``queue_latency`` summarises the scheduler's
        queue-wait histogram (lifetime count, mean and max, percentiles
        over the most recent ``window_count`` waits).  Scheduler-side
        counters (queue depth, preemptions, drops) are folded in so one
        call tells the whole story.
        """
        scheduler = self.scheduler.stats()
        uptime = self._clock() - self._started
        completed = int(self._settled["done"].value)
        with self._lock:
            clients = dict(self._clients)
        per_client = {
            name: state.view(scheduler["clients"].get(name))
            for name, state in clients.items()
        }
        totals = {
            field: sum(c["scheduler"][field] for c in per_client.values()
                       if "scheduler" in c)
            for field in ("preempted_batches", "reprioritized_batches",
                          "dropped_batches")
        }
        wait = self.scheduler.queue_wait.snapshot()
        return {
            "uptime_s": uptime,
            "jobs_per_second": completed / uptime if uptime > 0 else 0.0,
            "completed_jobs": completed,
            "rejected_auth": int(self._rejected["auth"].value),
            "settlement_errors": int(sum(
                counter.value for counter in self._settlement_errors.values()
            )),
            "queued_batches": scheduler["queued_batches"],
            "in_flight_jobs": scheduler["in_flight_jobs"],
            "max_in_flight": scheduler["max_in_flight"],
            "dispatched_batches": scheduler["dispatched_batches"],
            "queue_latency": {
                "window_count": wait["window"],
                "total_count": wait["count"],
                "mean_s": wait["mean"],
                "p50_s": wait["p50"],
                "p99_s": wait["p99"],
                "max_s": wait["max"],
            },
            **totals,
            "journal": self._journal_view(),
            "accounting": (
                self.accounting.snapshot()
                if self.accounting is not None
                else None
            ),
            "scheduler_weights": self.scheduler.client_weights(),
            "clients": per_client,
        }

    def _journal_view(self) -> Optional[dict]:
        if self.journal is None:
            return None
        return {"records": len(self.journal), "durable": self.journal.durable}

    def health(self) -> dict:
        """Liveness + readiness snapshot for ``GET /v1/health``.

        Cheap enough for a load balancer to poll: queue depth, breaker
        and pool state, journal durability — no per-client rollups.
        ``ready`` is the admission answer (would a submission be
        accepted right now, load permitting); ``status`` is ``"ok"``,
        ``"degraded"`` (shedding load or a breaker is open) or
        ``"draining"``.  A not-ready report carries ``retry_after``
        seconds, which the wire endpoint turns into a 503 +
        ``Retry-After``.
        """
        from repro.runtime.pool import pool_stats

        depth = self.scheduler.queue_depth()
        breakers = self.scheduler.breakers()
        pools = pool_stats()
        shedding = (
            self.max_queue_depth is not None and depth >= self.max_queue_depth
        )
        open_breakers = sorted(
            key for key, snap in breakers.items() if snap["state"] == "open"
        )
        if self._draining:
            status, ready = "draining", False
        elif shedding:
            status, ready = "degraded", False
        elif open_breakers:
            status, ready = "degraded", True
        else:
            status, ready = "ok", True
        report = {
            "status": status,
            "ready": ready,
            "draining": self._draining,
            "uptime_s": self._clock() - self._started,
            "queued_batches": depth,
            "max_queue_depth": self.max_queue_depth,
            "open_breakers": open_breakers,
            "breakers": breakers,
            "pools": {
                "active": pools["active"],
                "rebuilds": pools["rebuilds"],
            },
            "journal": self._journal_view(),
        }
        if not ready:
            report["retry_after"] = 5.0 if self._draining else 1.0
        return report

    async def drain(self, timeout: Optional[float] = None) -> dict:
        """Gracefully drain: stop admissions, settle what is in flight.

        From the moment ``drain()`` is entered, new submissions are shed
        with :class:`~repro.exceptions.ServiceOverloaded`
        (``reason="draining"``) — and ``health()`` reports
        ``status="draining"``, so load balancers route elsewhere.
        Queued and in-flight work gets ``timeout`` seconds to settle;
        whatever remains stays journaled as unsettled (write-ahead), so
        a restarted service re-runs it rather than losing it.

        Returns a summary: ``settled`` (everything finished in time),
        the residual ``queued_batches``/``in_flight_jobs``, and
        ``unsettled_records`` still open in the journal.  Admissions
        stay closed afterwards; call :meth:`resume` to re-open them
        (tests do), or :meth:`close` to shut down.
        """
        loop = self._bind_loop()
        with self._lock:
            self._draining = True
        settled = await loop.run_in_executor(
            None, lambda: self.scheduler.wait_idle(timeout)
        )
        scheduler = self.scheduler
        unsettled = 0
        if self.journal is not None:
            try:
                unsettled = len(self.journal.unsettled())
            except Exception:
                # A wedged (or test-stubbed) journal must not turn a
                # graceful drain into a crash; the count is telemetry.
                unsettled = None
        return {
            "settled": bool(settled),
            "queued_batches": scheduler.queue_depth(),
            "in_flight_jobs": scheduler.stats()["in_flight_jobs"],
            "unsettled_records": unsettled,
        }

    def resume(self) -> None:
        """Re-open admissions after a :meth:`drain`."""
        with self._lock:
            self._draining = False

    async def close(self, timeout: float = CLOSE_GRACE_S) -> dict:
        """Shut down: :meth:`drain` until ``timeout``, then settle the rest.

        What is still queued at the deadline is failed and what is still
        running is abandoned (:meth:`Scheduler.shutdown
        <repro.runtime.scheduler.Scheduler.shutdown>` with no further
        wait); those handles resolve with
        :class:`~repro.exceptions.JobAbandoned`.  A journaled service
        leaves their records unsettled, so :meth:`recover` re-runs them
        after a restart.  Returns the scheduler's summary with the
        handles named by their ``svc-N`` ids.
        """
        await self.drain(timeout)
        with self._lock:
            ids = {handle.batch: handle.job_id for handle in self._jobs.values()}
        summary = await self._bind_loop().run_in_executor(
            None, self.scheduler.shutdown, 0
        )
        for key in ("failed", "abandoned"):
            summary[key] = [ids.get(batch, repr(batch)) for batch in summary[key]]
        return summary

    async def __aenter__(self) -> "RuntimeService":
        self._bind_loop()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close(CLOSE_GRACE_S if exc_info[0] is None else 0)

    def __repr__(self) -> str:
        scheduler = self.scheduler.stats()
        return (
            f"<RuntimeService clients={len(self._clients)} "
            f"queued={scheduler['queued_batches']} "
            f"in_flight={scheduler['in_flight_jobs']}>"
        )
