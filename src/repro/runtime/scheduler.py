"""Chunk sizing from measured costs, and a fair-share multi-client
submission queue.

* :class:`CostModel` keeps one number per ``(engine name, qubit count)``:
  what a shot costs, as an exponentially-weighted moving average of
  measured chunk wall-clocks.  Every completed chunk feeds it through a
  done-callback (the ``(result, elapsed)`` pair chunk tasks already
  return), on every executor kind.  The table lives in memory only: a
  fresh process plans its first job of a key from the cold bootstrap,
  and every later one from measurements.
* :func:`plan_chunk_shots` sizes shot chunks for the sampling engines
  (stabilizer, trajectory, user engines) from that per-shot cost —
  enough chunks to saturate the pool, never so many that scheduling
  overhead dominates.  It is the cost model's only reader, and
  ``execute()`` asks it only for unseeded jobs on process pools: thread
  chunks of the in-repo engines do not overlap, so serial and thread
  runs stay whole.  The warm estimate keeps cheap jobs whole, where a
  split would only add pool round-trips.  Exact-distribution engines are
  never chunked (their simulation cost is shots-independent).
* :class:`Scheduler` is a submission front door for *many clients*:
  weighted round-robin dispatch across per-client queues, priority order
  within a client, and bounded in-flight admission control layered on the
  existing ``execute()``/:class:`~repro.runtime.job.JobSet` machinery.
  It learns that a batch finished only from its jobs' done-callbacks
  (:meth:`~repro.runtime.job.Job.add_done_callback`); the dispatcher
  sleeps until something it can act on happens (a submit, a completion
  that frees admission, a cancel, shutdown) or the earliest queue
  deadline or preemption is due.

Determinism contract
--------------------
Planned chunk sizes never change counts for a seeded call.  Counts are
a pure function of ``(circuit, backend, shots, seed, chunk_shots)``, and
``execute()`` resolves ``chunk_shots`` by one rule:

* an explicit int always wins;
* otherwise only a process pool chunks, and only an unseeded job (no
  reproducibility contract — every run draws fresh entropy).  The
  resolved size is recorded in ``job.plan["chunk_shots"]``;
* every other job runs whole, so its counts equal the serial run's
  (``tests/runtime/test_schedule_determinism.py`` pins this).
"""

from __future__ import annotations

import functools
import math
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import CircuitOpen, JobAbandoned, JobError, QueueTimeout
from repro.obs.metrics import DEFAULT_REGISTRY, Counter, MetricsRegistry
from repro.obs.trace import Span, tracing_enabled
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.pool import default_max_workers

#: Adaptive chunks aim for roughly this much work per pool task.  The
#: sampling engines draw their shots along a batch axis, so their
#: per-shot cost falls with chunk size (kernel dispatch and the tile's
#: one Philox draw amortise over the tile): chunks are fat, and fine
#: slicing would be pure overhead.  A long job still streams progress through the pool.
TARGET_CHUNK_SECONDS = 1.6

#: Estimated job cost below which splitting is pure overhead.
SPLIT_THRESHOLD_SECONDS = 0.05

#: Never emit chunks smaller than this many shots.
MIN_CHUNK_SHOTS = 16

#: At most this many chunks per pool worker (bounded oversubscription
#: keeps the tail short without flooding the queue).
OVERSUBSCRIBE = 4

#: The one stop deadline.  A clean stop (:meth:`Scheduler.shutdown`,
#: ``RuntimeService.close``, ``BackgroundServer.stop``) lets queued and
#: in-flight work settle for this many seconds, then fails what is still
#: queued and abandons what is still running.
CLOSE_GRACE_S = 10.0

#: Seconds a stop waits, past its deadline, for a thread with nothing
#: left to do to exit.
EXIT_GRACE_S = 1.0

#: Cost-model key: (engine/backend name, qubit count).
ProfileKey = Tuple[str, int]

#: EWMA smoothing factor: high enough to track a machine whose load
#: changes, low enough that one descheduled chunk does not whipsaw the
#: chunk planner.
EWMA_ALPHA = 0.3


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


class CostModel:
    """EWMA per-shot cost estimates, one entry per :data:`ProfileKey`.

    Observations arrive from executor done-callbacks on arbitrary
    threads; one lock covers the table.  Keys are ``(engine name, qubit
    count)``, so the table stays as small as the set of engines and
    widths a process runs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[ProfileKey, Dict[str, object]] = {}

    def observe_run(self, key: ProfileKey, shots: int, elapsed: float) -> None:
        """Fold one completed chunk's ``(shots, elapsed seconds)`` in."""
        if shots <= 0 or not math.isfinite(elapsed) or elapsed < 0:
            return
        value = elapsed / shots
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._entries[key] = {"per_shot": value, "shot_samples": 1}
                return
            entry["per_shot"] = (
                (1.0 - EWMA_ALPHA) * entry["per_shot"] + EWMA_ALPHA * value
            )
            entry["shot_samples"] += 1

    def per_shot(self, key: ProfileKey) -> Optional[float]:
        """Return the estimated seconds per shot, or ``None`` when unknown."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry["per_shot"]

    def profile(self, key: ProfileKey) -> Optional[dict]:
        """Return a copy of the entry for ``key``, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else dict(entry)

    def summary(self) -> Dict[ProfileKey, dict]:
        """Return ``{key: entry}`` for every profiled key (for stats)."""
        with self._lock:
            return {key: dict(entry) for key, entry in self._entries.items()}

    def clear(self) -> None:
        """Drop every estimate."""
        with self._lock:
            self._entries.clear()


#: Process-wide default model: every execute() call observes into it,
#: process-pool chunk planning reads it.
DEFAULT_COST_MODEL = CostModel()


def cost_model_stats() -> dict:
    """Return the default cost model's profiles, keyed ``"<name>/q<qubits>"``."""
    return {
        "profiles": {
            f"{name}/q{qubits}": entry
            for (name, qubits), entry in sorted(DEFAULT_COST_MODEL.summary().items())
        }
    }


def default_schedule_mode() -> str:
    """Return ``"adaptive"``, the one chunk-planning rule ``execute()``
    applies (see the module's determinism contract)."""
    return "adaptive"


def plan_chunk_shots(
    backend,
    circuit,
    shots: int,
    width: Optional[int] = None,
    cost_model: Optional[CostModel] = None,
) -> Optional[int]:
    """Pick an adaptive ``chunk_shots`` for one job, or ``None`` (unchunked).

    Deterministic given the model state: the same ``(backend, circuit,
    shots, width)`` against the same estimate always plans the same split.

    * Exact-distribution backends and single-worker pools never chunk.
    * With no measured cost yet (cold model), the bootstrap plan splits
      into one chunk per worker — saturating the pool is the best guess
      available — subject to the :data:`MIN_CHUNK_SHOTS` floor.
    * With a measured per-shot cost, the job is cut into roughly
      :data:`TARGET_CHUNK_SECONDS` pieces, at most :data:`OVERSUBSCRIBE`
      per worker.  A job under one target's worth splits only once it is
      worth :data:`SPLIT_THRESHOLD_SECONDS` on every worker, and then
      into one chunk per worker: the threshold is per worker.
    """
    if shots <= MIN_CHUNK_SHOTS or getattr(backend, "returns_probabilities", False):
        return None
    width = width if width is not None else default_max_workers()
    if width <= 1:
        return None
    model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    per_shot = model.per_shot(profile_key(backend, circuit))
    if per_shot is None:
        chunk = max(MIN_CHUNK_SHOTS, math.ceil(shots / width))
        return chunk if chunk < shots else None
    total = per_shot * shots
    chunks = min(
        width * OVERSUBSCRIBE, max(1, math.ceil(total / TARGET_CHUNK_SECONDS))
    )
    if total >= width * SPLIT_THRESHOLD_SECONDS:
        chunks = max(chunks, width)  # enough pieces to saturate the pool
    chunks = min(chunks, shots // MIN_CHUNK_SHOTS)
    if chunks <= 1:
        return None
    chunk = math.ceil(shots / chunks)
    return chunk if chunk < shots else None


# ----------------------------------------------------------------------
# Fair-share multi-client submission queue
# ----------------------------------------------------------------------


_BATCH_QUEUED = "queued"
_BATCH_RUNNING = "running"
_BATCH_DONE = "done"
_BATCH_FAILED = "failed"
_BATCH_DROPPED = "dropped"
_BATCH_CANCELLED = "cancelled"

#: Deadline actions for batches that overstay their queue deadline.
DEADLINE_ACTIONS = ("drop", "reprioritize")

#: Rank that sorts a boosted (reprioritized/preempted) batch ahead of any
#: regular priority while keeping submission order among boosted peers.
_URGENT_RANK = -math.inf


class ScheduledBatch:
    """One client's submission, in the scheduler's hands.

    Returned immediately by :meth:`Scheduler.submit`; the underlying
    :class:`~repro.runtime.job.JobSet` exists only once the fair-share
    dispatcher admits the batch.  Collection blocks until then.  From
    dispatch on, the batch counts its jobs down through their
    done-callbacks; the last one retires it from the scheduler.
    """

    def __init__(
        self,
        client: str,
        priority: int,
        size: int,
        scheduler: Optional["Scheduler"] = None,
        deadline: Optional[float] = None,
        deadline_action: str = "drop",
        trace_span: Optional[Span] = None,
    ) -> None:
        self.client = client
        self.priority = int(priority)
        self.size = size
        #: Queue deadline in seconds from submission; ``None`` waits forever.
        self.deadline = deadline
        self.deadline_action = deadline_action
        #: Root trace span the queue/dispatch/per-circuit spans hang off.
        #: A front-end (the service) passes its own; standalone batches
        #: get a fresh root when process-wide tracing is on.
        if trace_span is None and tracing_enabled():
            trace_span = Span(
                "batch", {"client": client, "size": size, "priority": int(priority)}
            )
        self.trace_span = trace_span
        self._trace_queue_span = (
            trace_span.child("queue") if trace_span is not None else None
        )
        self.submitted_at = time.monotonic()
        self.dispatched_at: Optional[float] = None
        self._scheduler = scheduler
        #: Breaker key this batch's outcome reports to (``None`` = ungated).
        self._breaker_key: Optional[str] = None
        self._dispatched = threading.Event()
        self._jobset = None
        self._error: Optional[BaseException] = None
        self._cancelled = False
        self._boosted = False
        self._callback_lock = threading.Lock()
        #: Callbacks per event, ``None`` once the event fired.
        self._callbacks: Dict[str, Optional[List[Callable]]] = {
            "dispatch": [], "done": [],
        }
        self._jobs_left = 0

    # -- scheduler-internal ---------------------------------------------

    def _mark_dispatched(self, jobset) -> None:
        """Record the dispatch and arm the job countdown (the scheduler
        lock is held; a job already settled counts down at once)."""
        self.dispatched_at = time.monotonic()
        self._finish_queue_span()
        self._jobset = jobset
        self._dispatched.set()
        self._fire("dispatch")
        self._jobs_left = len(jobset)
        if not self._jobs_left:
            self._scheduler._retire_dispatched(self)
        for job in jobset:
            job.add_done_callback(self._job_settled)

    def _job_settled(self, _job) -> None:
        with self._callback_lock:
            self._jobs_left -= 1
            if self._jobs_left:
                return
        self._scheduler._retire_dispatched(self)

    def _mark_failed(self, error: BaseException) -> None:
        self._error = error
        self._finish_queue_span(outcome=type(error).__name__)
        self._dispatched.set()
        self._fire("dispatch")
        self._fire("done")

    def _mark_cancelled(self) -> None:
        self._cancelled = True
        self._finish_queue_span(outcome="cancelled")
        self._dispatched.set()
        self._fire("dispatch")
        self._fire("done")

    def _finish_queue_span(self, outcome: Optional[str] = None) -> None:
        span = self._trace_queue_span
        if span is not None:
            if span.end_s is None and outcome is not None:
                span.set(outcome=outcome)
            span.finish()

    def _fire(self, event: str) -> None:
        with self._callback_lock:
            callbacks, self._callbacks[event] = self._callbacks[event], None
        for fn in callbacks or ():
            fn(self)

    def _add_callback(self, event: str, fn: Callable) -> None:
        with self._callback_lock:
            callbacks = self._callbacks[event]
            if callbacks is not None:
                callbacks.append(fn)
                return
        fn(self)

    # -- client surface -------------------------------------------------

    def add_dispatch_callback(self, fn: Callable) -> None:
        """Call ``fn(batch)`` once the batch leaves the queue.

        Fires exactly once on any of dispatch, dispatch failure, deadline
        drop or queue-side cancel — or immediately when the batch already
        left the queue.  Callbacks may run on the dispatcher thread with
        the scheduler lock held, so they must be quick and must not call
        back into the scheduler (an async front-end typically just
        schedules a loop callback; see :mod:`repro.service`).
        """
        self._add_callback("dispatch", fn)

    def add_done_callback(self, fn: Callable) -> None:
        """Call ``fn(batch)`` once the batch is settled and retired.

        Fires exactly once, after the dispatch callbacks: when the last
        job of a dispatched batch settles (on the thread that settled it),
        or with the queue-side terminal state (dispatch failure, deadline
        drop, cancel, shutdown) — or immediately when the batch already
        settled.  The scheduler's counts and in-flight load already
        reflect the batch.  The same rules as for
        :meth:`add_dispatch_callback` apply: quick, and no calls back into
        the scheduler.
        """
        self._add_callback("done", fn)

    @property
    def dispatched(self) -> bool:
        """Return ``True`` once the batch has left the queue (or failed)."""
        return self._dispatched.is_set()

    def wait_time(self) -> float:
        """Return seconds spent in the queue (so far, or until dispatch)."""
        end = self.dispatched_at if self.dispatched_at is not None else time.monotonic()
        return max(0.0, end - self.submitted_at)

    def trace(self) -> Optional[dict]:
        """Return the batch's trace span tree (``None`` when untraced)."""
        return None if self.trace_span is None else self.trace_span.to_dict()

    def status(self) -> str:
        """Return ``"queued"``, ``"running"``, ``"done"``, ``"failed"``,
        ``"dropped"`` (queue deadline expired) or ``"cancelled"``."""
        if self._cancelled:
            return _BATCH_CANCELLED
        if not self._dispatched.is_set():
            return _BATCH_QUEUED
        if self._error is not None:
            return (
                _BATCH_DROPPED
                if isinstance(self._error, QueueTimeout)
                else _BATCH_FAILED
            )
        return _BATCH_DONE if self._jobset.done() else _BATCH_RUNNING

    def cancel(self) -> bool:
        """Cancel the batch: dequeue it while queued, else cancel its jobs.

        Returns ``True`` when the batch (still queued) or at least one of
        its jobs (already dispatched) will not run.  A cancelled queued
        batch settles immediately — ``status()`` reports ``"cancelled"``
        and collection raises :class:`~repro.exceptions.JobError`.
        """
        if self._scheduler is not None and self._scheduler._cancel_queued(self):
            return True
        jobset = self._jobset
        if jobset is not None:
            return any(jobset.cancel())
        return False

    def jobs(self, timeout: Optional[float] = None):
        """Block until dispatch and return the batch's :class:`JobSet`.

        Raises
        ------
        QueueTimeout
            When ``timeout`` expires with the batch still *queued* (never
            dispatched).  The exception carries the batch's queue position
            and wait time so callers can retry or abandon with context.
        JobAbandoned
            When :meth:`Scheduler.shutdown` failed the batch in the queue
            or abandoned it in flight.
        JobError
            When the batch was cancelled or failed to dispatch.
        """
        if not self._dispatched.wait(timeout):
            waited = self.wait_time()
            position, queued = None, 0
            if self._scheduler is not None:
                position, queued = self._scheduler._queue_snapshot(self)
            where = (
                f", position {position + 1} of {queued} queued batch(es)"
                if position is not None
                else ""
            )
            raise QueueTimeout(
                f"batch for client {self.client!r} still queued after "
                f"{waited:.3f}s (timeout {timeout}s{where})",
                client=self.client,
                waited=waited,
                queue_position=position,
                queued_batches=queued,
            )
        if self._cancelled:
            raise JobError(f"batch for client {self.client!r} was cancelled")
        if self._error is not None:
            if isinstance(self._error, (QueueTimeout, JobAbandoned)):
                raise self._error  # deadline drop or stop: the typed error
            raise JobError(
                f"batch for client {self.client!r} failed to dispatch: {self._error}"
            ) from self._error
        return self._jobset

    def result(self, timeout: Optional[float] = None):
        """Block for dispatch *and* completion; return the results in order.

        ``timeout`` is one deadline covering both waits — time spent in
        the queue is not granted again to collection.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        jobset = self.jobs(timeout)
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        return jobset.result(timeout=remaining)

    def counts(self, timeout: Optional[float] = None):
        """Shorthand for ``[r.counts for r in batch.result()]`` (one shared
        deadline, exactly like :meth:`result`)."""
        return [result.counts for result in self.result(timeout=timeout)]

    def done(self) -> bool:
        """Return ``True`` once the batch is settled: every job finished,
        or the batch failed, was dropped, or was cancelled in the queue."""
        return self.status() in (
            _BATCH_DONE,
            _BATCH_FAILED,
            _BATCH_DROPPED,
            _BATCH_CANCELLED,
        )

    def __repr__(self) -> str:
        return (
            f"<ScheduledBatch client={self.client!r} size={self.size} "
            f"priority={self.priority} status={self.status()}>"
        )


#: Per-client scheduler counts, in ``Scheduler.stats()`` order.  The
#: three in :data:`_EXPOSED_CLIENT_COUNTS` are exposition families
#: (``repro_scheduler_client_<field>_total{client}``); the rest are
#: instruments read only by ``stats()``.
_CLIENT_COUNTS = (
    "submitted_batches",
    "dispatched_batches",
    "completed_batches",
    "failed_batches",
    "dropped_batches",
    "cancelled_batches",
    "reprioritized_batches",
    "preempted_batches",
    "submitted_jobs",
    "completed_jobs",
)
_EXPOSED_CLIENT_COUNTS = {
    "submitted_jobs": "Jobs submitted, per client",
    "dispatched_batches": "Batches dispatched, per client",
    "completed_jobs": "Jobs retired (any outcome), per client",
}


class _ClientState:
    """Per-client queue and count instruments (the scheduler lock guards
    the queue; each instrument is resolved once, here)."""

    __slots__ = ("name", "weight", "pending") + _CLIENT_COUNTS

    def __init__(self, name: str, weight: int, registry: MetricsRegistry) -> None:
        self.name = name
        self.weight = weight
        #: Pending (batch, entry) kept sorted: higher priority first,
        #: submission order within a priority.
        self.pending: List[tuple] = []
        labels = {"client": name}
        for field in _CLIENT_COUNTS:
            text = _EXPOSED_CLIENT_COUNTS.get(field)
            setattr(self, field, (
                registry.counter(f"repro_scheduler_client_{field}_total", labels, text)
                if text is not None
                else Counter(field, labels)
            ))
        registry.gauge(
            "repro_scheduler_client_weight", labels,
            "Current round-robin weight, per client", fn=lambda: self.weight,
        )

    def counts(self) -> Dict[str, int]:
        return {field: int(getattr(self, field).value) for field in _CLIENT_COUNTS}

    def _retire(self, batch: "ScheduledBatch") -> None:
        """Jobs that will never run still count as settled — submitted vs
        completed must keep reconciling."""
        self.completed_batches.inc()
        self.completed_jobs.inc(batch.size)

    def record_failure(self, batch: "ScheduledBatch", error) -> None:
        """Retire ``batch`` as failed (dispatch error)."""
        self._retire(batch)
        self.failed_batches.inc()
        batch._mark_failed(error)

    def record_dropped(self, batch: "ScheduledBatch", error: QueueTimeout) -> None:
        """Retire ``batch`` as dropped (queue deadline expired)."""
        self._retire(batch)
        self.dropped_batches.inc()
        batch._mark_failed(error)

    def record_cancelled(self, batch: "ScheduledBatch") -> None:
        """Retire ``batch`` as cancelled while still queued."""
        self._retire(batch)
        self.cancelled_batches.inc()
        batch._mark_cancelled()


def _breaker_samples(breakers: Dict[str, CircuitBreaker]) -> List[tuple]:
    """Collector samples for a scheduler's circuit breakers (which keep
    their own counts)."""
    state_codes = {"closed": 0, "open": 1, "half_open": 2}
    samples = []
    for key, breaker in list(breakers.items()):
        snap = breaker.snapshot()
        labels = {"backend": key}
        samples.append(("repro_breaker_state", labels, state_codes.get(snap["state"], -1)))
        samples.append(("repro_breaker_rejections_total", labels, snap["rejections"], "counter"))
        samples.append(("repro_breaker_transitions_total", labels, snap["transitions"], "counter"))
    return samples


class Scheduler:
    """Fair-share submission queue over the runtime's execution stack.

    Many clients — sweep drivers, CI shards, interactive sessions —
    ``submit()`` batches concurrently; a dispatcher thread admits them
    into ``execute()`` under two policies:

    * **Weighted round-robin** across clients: each scheduling round
      grants every client with pending work ``weight`` dispatch slots, so
      a weight-3 client drains three batches for every one of a weight-1
      client, and no client starves.  Within one client, higher
      ``priority`` batches go first (submission order breaks ties).
    * **Bounded admission**: at most ``max_in_flight`` *jobs* (circuits)
      are in the execution stack at once; further batches wait in the
      queue.  A batch larger than the whole bound is admitted alone — it
      could never run otherwise.

    Scheduling policy affects *when* work starts, never what it computes:
    every batch flows through the same ``execute()`` the caller would have
    used, so counts keep the runtime's seed-determinism contract.

    Queue policies (the service layer's knobs) layer on top:

    * **Deadlines** — a batch submitted with ``deadline=`` that is still
      queued after that many seconds is retired per its
      ``deadline_action``: ``"drop"`` fails it with a typed
      :class:`~repro.exceptions.QueueTimeout` (queue position and wait
      time attached), ``"reprioritize"`` boosts it ahead of every
      regular-priority batch instead.
    * **Preemption** — with ``preempt_after=`` set, any batch waiting
      longer than that is boosted to the front of its client's queue and
      the client jumps the round-robin order once, so long-waiting
      low-priority work preempts a steady stream of high-priority
      submissions instead of starving behind it.

    Completion reaches the scheduler only through job done-callbacks:
    each dispatched batch counts its jobs down and the last one retires
    it (in-flight load, client counts, breaker outcome), waking the
    dispatcher when work waits for admission.  The dispatcher otherwise
    sleeps until a submit, cancel or shutdown, or until the earliest
    queue deadline or ``preempt_after`` falls due — it never polls.

    Parameters
    ----------
    max_in_flight:
        In-flight job bound (default: ``4 * default_max_workers()``).
    executor / max_workers:
        Forwarded to every ``execute()`` call (per-batch ``**options``
        override them).
    require_registration:
        When ``True``, :meth:`submit` rejects client names that were not
        :meth:`client`-registered first (the multi-tenant service's
        admission discipline).  Default ``False`` keeps the library
        behaviour of auto-registering at weight 1.
    preempt_after:
        Seconds a queued batch may wait before it is boosted (see above);
        ``None`` disables preemption.
    breaker:
        Per-backend-spec circuit breaking: ``None``/``True`` enables the
        default :class:`~repro.runtime.breaker.CircuitBreaker` knobs, a
        dict overrides them (``failure_threshold``, ``min_samples``,
        ``window``, ``cooldown_s``, ``probe_limit``, ``probe_successes``),
        ``False`` disables breaking entirely.  A spec whose breaker is
        open has :meth:`submit` raise a typed
        :class:`~repro.exceptions.CircuitOpen` (with ``retry_after``)
        instead of queueing doomed work.  Breakers key on the backend
        spec string (or the instance's ``name``); per-circuit backend
        lists are never gated.
    """

    def __init__(
        self,
        max_in_flight: Optional[int] = None,
        executor: Optional[str] = None,
        max_workers: Optional[int] = None,
        require_registration: bool = False,
        preempt_after: Optional[float] = None,
        breaker=None,
    ) -> None:
        if max_in_flight is None:
            max_in_flight = 4 * default_max_workers()
        if max_in_flight < 1:
            raise JobError(f"max_in_flight must be positive, got {max_in_flight}")
        if preempt_after is not None and preempt_after <= 0:
            raise JobError(
                f"preempt_after must be positive seconds, got {preempt_after}"
            )
        self.max_in_flight = int(max_in_flight)
        self.executor = executor
        self.max_workers = max_workers
        self.require_registration = bool(require_registration)
        self.preempt_after = preempt_after
        if breaker is False:
            self._breaker_config = None
        elif breaker is None or breaker is True:
            self._breaker_config = {}
        elif isinstance(breaker, dict):
            self._breaker_config = dict(breaker)
        else:
            raise JobError(
                f"breaker must be None, a bool or a dict of CircuitBreaker "
                f"knobs, got {breaker!r}"
            )
        self._breakers: Dict[str, CircuitBreaker] = {}
        # Re-entrant: a job already settled at dispatch (serial executor,
        # abandon at shutdown) retires its batch on the thread holding it.
        self._lock = threading.Condition(threading.RLock())
        self._idle_waiters = 0  # wait_idle() callers blocked on the lock
        self._clients: Dict[str, _ClientState] = {}
        self._round: List[str] = []  # remaining WRR slots of the current round
        self._in_flight: List[ScheduledBatch] = []
        self._in_flight_jobs = 0
        self._sequence = 0
        self._closed = False
        self._abandoning = False  # shutdown's deadline passed
        self._thread: Optional[threading.Thread] = None
        # Every scheduler count lives in an instrument of this registry,
        # which stats() reads and DEFAULT_REGISTRY mounts (weakly; the
        # newest scheduler owns the "scheduler" slot).
        self.metrics = MetricsRegistry()
        self._dispatched = self.metrics.counter(
            "repro_scheduler_dispatched_batches_total", help="Batches dispatched"
        )
        self.queue_wait = self.metrics.histogram(
            "repro_scheduler_queue_wait_seconds",
            help="Seconds batches spent in the fair-share queue",
            reservoir=4096,
        )
        self.metrics.gauge(
            "repro_scheduler_max_in_flight", help="In-flight job bound"
        ).set(self.max_in_flight)
        ref = weakref.ref(self)
        for name, text, read in (
            ("in_flight_jobs", "Jobs in the execution stack", lambda s: s._in_flight_jobs),
            ("in_flight_batches", "Batches in the execution stack", lambda s: len(s._in_flight)),
            ("queued_batches", "Batches waiting in the queue", lambda s: s.queue_depth()),
        ):
            # Read through a weak reference: a dead scheduler's gauges
            # read NaN and drop out of the exposition.
            self.metrics.gauge(
                f"repro_scheduler_{name}", help=text,
                fn=lambda read=read: read(ref()),
            )
        self.metrics.register_collector(
            "breakers", functools.partial(_breaker_samples, self._breakers)
        )
        DEFAULT_REGISTRY.mount("scheduler", self.metrics)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def client(self, name: str, weight: int = 1) -> None:
        """Register ``name`` (or update its ``weight``; default 1).

        Weight updates apply from the *next* round-robin round: the
        service layer's cost-accounting feedback calls this continuously
        to rebalance fair-share against measured per-tenant spend.
        """
        if weight < 1:
            raise JobError(f"client weight must be positive, got {weight}")
        with self._lock:
            state = self._clients.get(name)
            if state is None:
                self._clients[name] = _ClientState(name, int(weight), self.metrics)
            else:
                state.weight = int(weight)

    # -- circuit breaking ------------------------------------------------

    def _breaker_key_for(self, backend) -> Optional[str]:
        """Map a submission's backend argument to its breaker key.

        Spec strings key directly; backend instances key on their
        ``name``.  Per-circuit backend sequences are never gated (their
        outcome would be ambiguous across specs).
        """
        if self._breaker_config is None:
            return None
        if isinstance(backend, str):
            return backend
        if isinstance(backend, (list, tuple)):
            return None
        name = getattr(backend, "name", None)
        if isinstance(name, str) and name:
            return name
        return None

    def _breaker_for(self, key: str) -> CircuitBreaker:
        """Get-or-create the breaker for ``key`` (caller holds the lock)."""
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(**self._breaker_config)
            self._breakers[key] = breaker
        return breaker

    def _record_breaker_outcome(self, batch: ScheduledBatch,
                                success: bool) -> None:
        """Report a settled batch's outcome (caller holds the lock)."""
        key = batch._breaker_key
        if key is None:
            return
        breaker = self._breakers.get(key)
        if breaker is None:
            return
        before = breaker.state
        if success:
            breaker.record_success()
        else:
            breaker.record_failure()
        after = breaker.state
        if after != before and batch.trace_span is not None:
            batch.trace_span.event(
                "breaker_transition", backend=key, state=after
            )

    def breakers(self) -> Dict[str, dict]:
        """Snapshot every backend spec's breaker state."""
        with self._lock:
            items = list(self._breakers.items())
        return {key: breaker.snapshot() for key, breaker in items}

    def client_weights(self) -> Dict[str, int]:
        """Snapshot ``{client name: current round-robin weight}``.

        The live dispatch weights — after any cost-accounting rebalance —
        as opposed to the base weights clients registered with.
        """
        with self._lock:
            return {name: state.weight for name, state in self._clients.items()}

    def submit(
        self,
        circuits,
        backend,
        shots=1024,
        seed=None,
        client: str = "default",
        priority: int = 0,
        deadline: Optional[float] = None,
        deadline_action: str = "drop",
        trace_span: Optional[Span] = None,
        **options,
    ) -> ScheduledBatch:
        """Queue a batch for ``client`` and return its handle immediately.

        ``circuits``/``backend``/``shots``/``seed`` and ``**options`` are
        exactly :func:`repro.runtime.execute.execute`'s arguments; the
        scheduler's ``executor``/``max_workers`` defaults
        apply unless the batch overrides them.  ``priority`` orders
        batches *within* this client's queue (cross-client order is the
        weighted round-robin's business); it must be a non-negative
        integer — anything else raises ``ValueError`` instead of being
        silently coerced.  ``deadline`` bounds the batch's *queue* wait in
        seconds; once expired, ``deadline_action="drop"`` retires it with
        a :class:`~repro.exceptions.QueueTimeout` and ``"reprioritize"``
        boosts it ahead of all regular-priority batches.
        """
        from repro.circuits.circuit import QuantumCircuit

        if not isinstance(client, str) or not client:
            raise ValueError(
                f"client name must be a non-empty string, got {client!r}"
            )
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ValueError(
                "priority must be a non-negative int, got "
                f"{type(priority).__name__} {priority!r}"
            )
        if priority < 0:
            raise ValueError(f"priority must be non-negative, got {priority}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive seconds, got {deadline}")
        if deadline_action not in DEADLINE_ACTIONS:
            raise ValueError(
                f"unknown deadline_action {deadline_action!r}; "
                f"choose from {list(DEADLINE_ACTIONS)}"
            )
        circuit_list = (
            [circuits] if isinstance(circuits, QuantumCircuit) else list(circuits)
        )
        batch = ScheduledBatch(
            client,
            priority,
            len(circuit_list),
            scheduler=self,
            deadline=deadline,
            deadline_action=deadline_action,
            trace_span=trace_span,
        )
        spec = {
            "circuits": circuit_list,
            "backend": backend,
            "shots": shots,
            "seed": seed,
            "options": options,
        }
        with self._lock:
            if self._closed:
                raise JobError("scheduler is shut down")
            state = self._clients.get(client)
            if state is None:
                if self.require_registration:
                    raise ValueError(
                        f"client {client!r} is not registered with this "
                        "scheduler; register it first with "
                        f"Scheduler.client({client!r}) "
                        f"(registered: {sorted(self._clients) or 'none'})"
                    )
                state = _ClientState(client, 1, self.metrics)
                self._clients[client] = state
            breaker_key = self._breaker_key_for(backend)
            if breaker_key is not None:
                admitted, retry_after = self._breaker_for(breaker_key).allow()
                if not admitted:
                    raise CircuitOpen(
                        f"circuit breaker open for backend "
                        f"{breaker_key!r}; retry in {retry_after:.3f}s",
                        backend=breaker_key,
                        retry_after=retry_after,
                    )
                batch._breaker_key = breaker_key
            self._sequence += 1
            entry = (-batch.priority, self._sequence, spec)
            # Insertion sort keeps the queue ordered without re-sorting on
            # every dispatch; queues are short relative to batch cost.
            position = len(state.pending)
            for i, (existing, _b) in enumerate(state.pending):
                if entry[:2] < existing[:2]:
                    position = i
                    break
            state.pending.insert(position, (entry, batch))
            state.submitted_batches.inc()
            state.submitted_jobs.inc(batch.size)
            self._ensure_thread()
            self._lock.notify_all()
        return batch

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _ensure_thread(self) -> None:
        """Start the dispatcher lazily (caller holds the lock)."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="repro-scheduler", daemon=True
            )
            self._thread.start()

    def _admits(self, batch: ScheduledBatch) -> bool:
        """Admission control (caller holds the lock)."""
        if not self._in_flight:
            return True  # never deadlock on an over-sized batch
        return self._in_flight_jobs + batch.size <= self.max_in_flight

    def _next_slot(self) -> Optional[_ClientState]:
        """Return the next WRR client with pending work (holds the lock).

        The round list grants each client ``weight`` consecutive slots per
        round, rebuilt from the live registrations whenever it runs dry.
        Empty-handed slots (client drained mid-round) are skipped.
        """
        for _ in range(2):  # current round, then at most one rebuild
            while self._round:
                name = self._round.pop(0)
                state = self._clients.get(name)
                if state is not None and state.pending:
                    return state
            self._round = [
                name
                for name, state in self._clients.items()
                for _slot in range(state.weight)
                if state.pending
            ]
            if not self._round:
                return None
        return None

    def _dispatch_one(self, state: _ClientState) -> None:
        """Pop and execute ``state``'s head batch (caller holds the lock)."""
        _entry, batch = state.pending.pop(0)
        spec = _entry[2]
        options = dict(spec["options"])
        options.setdefault("executor", self.executor)
        options.setdefault("max_workers", self.max_workers)
        self._in_flight.append(batch)
        self._in_flight_jobs += batch.size
        state.dispatched_batches.inc()
        self._dispatched.inc()
        self.queue_wait.observe(time.monotonic() - batch.submitted_at)
        batch._finish_queue_span()
        dispatch_span = (
            batch.trace_span.child("dispatch") if batch.trace_span is not None else None
        )
        if batch.trace_span is not None:
            options["trace_parent"] = batch.trace_span
        self._lock.release()
        # execute() outside the lock: submission may pay pool creation,
        # transpiles and (serial executor) the entire simulation.
        try:
            from repro.runtime.execute import execute

            jobset = execute(
                spec["circuits"],
                spec["backend"],
                shots=spec["shots"],
                seed=spec["seed"],
                **options,
            )
        except BaseException as exc:
            if dispatch_span is not None:
                dispatch_span.finish().set(error=type(exc).__name__)
            self._lock.acquire()
            self._in_flight.remove(batch)
            self._in_flight_jobs -= batch.size
            self._record_breaker_outcome(batch, success=False)
            state.record_failure(batch, exc)
            return
        if dispatch_span is not None:
            dispatch_span.finish().set(executor=options.get("executor"))
        self._lock.acquire()
        batch._mark_dispatched(jobset)
        if self._abandoning:
            self._abandon(batch)

    def _abandon(self, batch: ScheduledBatch) -> None:
        """Resolve an unfinished dispatched batch with
        :class:`~repro.exceptions.JobAbandoned` (caller holds the lock)."""
        if batch._jobset is None or batch._jobset.done():
            return
        # Set before the jobs settle: their callbacks read the outcome.
        batch._error = JobAbandoned(
            f"batch for client {batch.client!r} was abandoned at shutdown"
        )
        for job in batch._jobset:
            job._abandon(batch._error)

    def _retire_dispatched(self, batch: ScheduledBatch) -> None:
        """Retire a dispatched batch whose jobs all settled, then fire
        its done callbacks.  Runs on whichever thread settled the last
        job."""
        with self._lock:
            self._in_flight.remove(batch)
            self._in_flight_jobs -= batch.size
            self._clients[batch.client]._retire(batch)
            if batch._breaker_key is not None:
                from repro.runtime.job import JobStatus

                success = JobStatus.ERROR not in batch._jobset.statuses()
                self._record_breaker_outcome(batch, success)
            # Wake only someone with a use for it: the dispatcher when
            # work waits for admission or the scheduler is closing, and
            # wait_idle().  An idle dispatcher woken on every completion
            # would contend for the interpreter lock with the thread
            # delivering the result.
            if self._idle_waiters or self._closed or self._has_pending():
                self._lock.notify_all()
        batch._fire("done")

    def _apply_queue_policies(self) -> bool:
        """Enforce deadlines and preemption on queued batches (holds lock).

        Deadline-expired batches are dropped (typed
        :class:`~repro.exceptions.QueueTimeout`) or boosted per their
        ``deadline_action``; batches waiting longer than ``preempt_after``
        are boosted and their client jumps the round order once.  Boosted
        entries take :data:`_URGENT_RANK`, which outranks every regular
        priority while preserving submission order among boosted peers.
        """
        now = time.monotonic()
        changed = False
        for state in self._clients.values():
            if not state.pending:
                continue
            retained = []
            resort = False
            for entry, batch in state.pending:
                waited = now - batch.submitted_at
                if batch.deadline is not None and waited > batch.deadline:
                    if batch.deadline_action == "drop":
                        position = len(retained)
                        queued = self._queued_batches()
                        state.record_dropped(
                            batch,
                            QueueTimeout(
                                f"batch for client {batch.client!r} dropped: "
                                f"queued {waited:.3f}s past its "
                                f"{batch.deadline}s deadline",
                                client=batch.client,
                                waited=waited,
                                queue_position=position,
                                queued_batches=queued,
                            ),
                        )
                        changed = True
                        continue
                    if not batch._boosted:
                        entry = (_URGENT_RANK, entry[1], entry[2])
                        batch._boosted = True
                        state.reprioritized_batches.inc()
                        resort = changed = True
                elif (
                    self.preempt_after is not None
                    and waited > self.preempt_after
                    and not batch._boosted
                ):
                    entry = (_URGENT_RANK, entry[1], entry[2])
                    batch._boosted = True
                    state.preempted_batches.inc()
                    # The aged client takes the very next dispatch slot.
                    self._round.insert(0, state.name)
                    resort = changed = True
                retained.append((entry, batch))
            if resort:
                retained.sort(key=lambda item: item[0][:2])
            state.pending[:] = retained
        return changed

    def _next_expiry(self) -> Optional[float]:
        """Seconds until the earliest queued deadline or preemption falls
        due, ``None`` when none can (caller holds the lock)."""
        due = []
        for state in self._clients.values():
            for _entry, batch in state.pending:
                if batch.deadline is not None and (
                    batch.deadline_action == "drop" or not batch._boosted
                ):
                    due.append(batch.submitted_at + batch.deadline)
                if self.preempt_after is not None and not batch._boosted:
                    due.append(batch.submitted_at + self.preempt_after)
        if not due:
            return None
        return max(0.0, min(due) - time.monotonic())

    def _dispatch_loop(self) -> None:
        with self._lock:
            while True:
                progressed = self._apply_queue_policies()
                while True:
                    state = self._next_slot()
                    if state is None:
                        break
                    _entry, head = state.pending[0]
                    if not self._admits(head):
                        # Head-of-line blocks the round: credits are spent
                        # in order, so fairness is preserved across waits.
                        self._round.insert(0, state.name)
                        break
                    self._dispatch_one(state)
                    progressed = True
                if progressed:
                    self._lock.notify_all()
                if self._closed and not self._in_flight and not self._has_pending():
                    return
                # Submit, completion, cancel and shutdown all notify.
                self._lock.wait(self._next_expiry())

    def _has_pending(self) -> bool:
        return any(state.pending for state in self._clients.values())

    def _queued_batches(self) -> int:
        """Total queued batches across clients (caller holds the lock)."""
        return sum(len(state.pending) for state in self._clients.values())

    def _queue_snapshot(self, batch: ScheduledBatch):
        """Return ``(position within its client's queue, total queued)``.

        Position is ``None`` when the batch already left the queue (the
        caller lost a race with the dispatcher).
        """
        with self._lock:
            total = self._queued_batches()
            state = self._clients.get(batch.client)
            if state is not None:
                for index, (_entry, queued) in enumerate(state.pending):
                    if queued is batch:
                        return index, total
            return None, total

    def queue_position(self, batch: ScheduledBatch) -> Optional[int]:
        """Return ``batch``'s position in its client's queue (0 = next),
        or ``None`` once it has left the queue."""
        position, _total = self._queue_snapshot(batch)
        return position

    def queue_depth(self) -> int:
        """Total queued batches across clients.

        A cheap accessor for admission-control callers (the service's
        load-shedding watermark) that must not pay for the full
        :meth:`stats` snapshot on every submission.
        """
        with self._lock:
            return self._queued_batches()

    def _cancel_queued(self, batch: ScheduledBatch) -> bool:
        """Dequeue and retire ``batch`` if it is still queued."""
        with self._lock:
            state = self._clients.get(batch.client)
            if state is None:
                return False
            for index, (_entry, queued) in enumerate(state.pending):
                if queued is batch:
                    del state.pending[index]
                    state.record_cancelled(batch)
                    self._lock.notify_all()
                    return True
            return False

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Return queue depth, in-flight load, and per-client counters.

        A view over :attr:`metrics`.  A client's ``completed_batches`` /
        ``completed_jobs`` count every *retired* batch — done, failed,
        dropped or cancelled — so submitted and completed reconcile; the
        service's per-client ``completed_batches`` counts successes only.
        ``queue_wait_samples`` / ``queue_wait_mean_s`` are lifetime
        figures of the queue-wait histogram.
        """
        wait = self.queue_wait.snapshot()
        with self._lock:
            breakers = list(self._breakers.items())
            snapshot = {
                "max_in_flight": self.max_in_flight,
                "in_flight_jobs": self._in_flight_jobs,
                "in_flight_batches": len(self._in_flight),
                "queued_batches": self._queued_batches(),
                "dispatched_batches": int(self._dispatched.value),
                "queue_wait_samples": wait["count"],
                "queue_wait_mean_s": wait["mean"],
                "clients": {
                    name: dict(state.counts(), weight=state.weight)
                    for name, state in self._clients.items()
                },
            }
        snapshot["breakers"] = {
            key: breaker.snapshot() for key, breaker in breakers
        }
        return snapshot

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is queued or in flight; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._has_pending() or self._in_flight:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle_waiters += 1
                try:
                    self._lock.wait(remaining)
                finally:
                    self._idle_waiters -= 1
            return True

    def shutdown(self, timeout: float = CLOSE_GRACE_S) -> dict:
        """Stop accepting work, drain until ``timeout``, then settle the rest.

        Past the deadline, batches still queued are failed and dispatched
        batches with unfinished jobs are abandoned; both resolve with
        :class:`~repro.exceptions.JobAbandoned`.  An abandoned chunk
        already on a pool worker finishes there, its result discarded.

        Returns ``{"settled", "failed", "abandoned", "threads"}``:
        whether all work finished in time, the failed and abandoned batch
        handles, and the dispatcher's name if it is still alive
        :data:`EXIT_GRACE_S` later (a ``"serial"`` dispatch simulating
        inline; its batch is abandoned once it has jobs).
        """
        with self._lock:
            self._closed = True
            self._lock.notify_all()
        settled = self.wait_idle(timeout)
        failed: List[ScheduledBatch] = []
        with self._lock:
            self._abandoning = True
            for state in self._clients.values():
                for _entry, batch in state.pending:
                    state.record_failure(
                        batch, JobAbandoned("scheduler was shut down")
                    )
                    failed.append(batch)
                state.pending.clear()
            in_flight = list(self._in_flight)
            for batch in in_flight:
                self._abandon(batch)
            thread = self._thread
            self._lock.notify_all()
        if thread is not None:
            thread.join(EXIT_GRACE_S)
        return {
            "settled": settled,
            "failed": failed,
            "abandoned": [
                b for b in in_flight if isinstance(b._error, JobAbandoned)
            ],
            "threads": [thread.name] if thread and thread.is_alive() else [],
        }

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(CLOSE_GRACE_S if exc_info[0] is None else 0)

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"<Scheduler clients={len(stats['clients'])} "
            f"queued={stats['queued_batches']} "
            f"in_flight={stats['in_flight_jobs']}/{self.max_in_flight}>"
        )
