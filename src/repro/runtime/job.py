"""Asynchronous jobs: the submit/result/cancel half of the runtime.

A :class:`Job` is one circuit's execution on one backend, fanned out as one
or more shot-chunk tasks on the shared ``concurrent.futures`` executor the
runtime keeps per configuration (see :mod:`repro.runtime.pool`; the
submit-then-collect discipline of mainstream SDK ``Job`` objects).  A
:class:`JobSet` is an ordered batch of jobs returned by
:func:`repro.runtime.execute.execute`, with bulk and streaming
(:meth:`JobSet.as_completed`) collection.

Chunk tasks are submitted as the module-level :func:`_execute_chunk` so the
same code path serves thread pools (shared objects) and process pools
(pickled ``(backend, circuit)`` arguments, pickled results back).

Determinism contract
--------------------
* An unchunked job runs ``backend.run(circuit, shots, seed)`` verbatim, so
  its counts are bit-identical to the sequential loop it replaces —
  whichever executor kind runs it.
* A chunked job derives chunk ``i``'s seed from the caller's seed via
  ``SeedSequence`` spawning and merges chunk counts **in chunk order**, so
  its counts depend only on ``(circuit, backend, shots, seed,
  chunk_shots)`` — never on executor kind, worker count or completion
  order.
* A deduplicated job (see :mod:`repro.runtime.batching`) clones or
  re-samples its group primary's result with its own seed, and a
  distribution-cache hit (see :mod:`repro.runtime.distcache`) re-samples
  the cached distribution the same way — both reproduce the counts a
  dedicated run would have drawn.
"""

from __future__ import annotations

import copy
import enum
import functools
import itertools
import os
import queue
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    InvalidStateError,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import FaultInjected, JobAbandoned, JobError
from repro.obs.metrics import DEFAULT_REGISTRY
from repro.obs.trace import Span, worker_chunk_record
from repro.results.counts import Counts
from repro.results.result import Result
from repro.runtime.batching import (
    ROLE_INDEPENDENT,
    ROLE_SHARE,
    chunk_seed,
    clone_result,
    merge_chunk_results,
    resample_result,
    split_shots,
)
from repro.runtime.retry import RetryPolicy, backoff_rng, next_backoff

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuits.circuit import QuantumCircuit
    from repro.devices.backend import Backend


class JobStatus(enum.Enum):
    """Lifecycle of a :class:`Job`."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"
    ERROR = "error"


_job_counter = itertools.count(1)

_M_CHUNK_RETRIES = DEFAULT_REGISTRY.counter(
    "repro_chunk_retries_total",
    help="Chunk attempts retried after an execution failure.",
)
_M_POOL_RESUBMITS = DEFAULT_REGISTRY.counter(
    "repro_chunk_pool_resubmits_total",
    help="Chunk attempts resubmitted after an executor pool loss.",
)

#: Cap on per-chunk resubmissions after pool losses.  Pool losses do not
#: consume the chunk's retry policy (the chunk did nothing wrong), but an
#: environment that keeps killing workers must still converge to an error.
_MAX_POOL_RESUBMITS = 3


def _execute_chunk(
    backend: "Backend",
    circuit: "QuantumCircuit",
    shots: int,
    seed: Optional[int],
    trace_ctx: Optional[dict] = None,
    fault: Optional[str] = None,
) -> Tuple[Result, float, Optional[dict]]:
    """Run one shot chunk; return ``(result, elapsed_seconds, trace_record)``.

    Module-level so process-pool executors can pickle the task; thread and
    serial executors call it with shared objects and pay nothing extra.
    ``trace_ctx`` is the picklable span context of the chunk's parent-side
    trace span (or ``None`` when the job is untraced); the returned trace
    record carries the worker-measured wall-clock back across the executor
    boundary for :meth:`repro.obs.trace.Span.merge_worker`.

    ``fault`` is a pre-computed fault-injection verdict (see
    :mod:`repro.faults`) shipped in from the parent — the plan itself
    never crosses the executor boundary.  ``"fail"`` raises
    :class:`~repro.exceptions.FaultInjected`; ``"crash"`` hard-exits the
    worker process (only ever sent to process-pool workers), which is how
    chaos tests break a real shared pool.
    """
    if fault == "crash":
        os._exit(17)
    if fault == "fail":
        raise FaultInjected(
            f"injected fault at chunk.simulate (shots={shots}, seed={seed})",
            site="chunk.simulate",
        )
    start = time.perf_counter()
    result = backend.run(circuit, shots=shots, seed=seed)
    elapsed = time.perf_counter() - start
    record = worker_chunk_record(
        trace_ctx,
        engine=type(backend).__name__,
        shots=shots,
        duration_s=elapsed,
        batch_width=getattr(backend, "max_batch", None),
    )
    return result, elapsed, record


class _ChunkFuture(Future):
    """A stable per-chunk future that survives retries and pool rebuilds.

    The job's collection machinery (``result()``, ``status()``, the done
    barrier, trace/cost callbacks) holds *these*, while the underlying
    executor futures come and go as :class:`_ChunkRun` retries attempts.
    The proxy settles exactly once, with the same ``(result, elapsed,
    record)`` tuple a direct executor future would carry.
    """

    def __init__(self, run: "_ChunkRun") -> None:
        super().__init__()
        self._run = run
        self._terminal = False

    def cancel(self) -> bool:
        # Route cancellation through the run, which knows whether the
        # chunk is waiting on a backoff timer (cancellable), in flight
        # (cancellable only if the executor agrees) or already settled.
        if self._terminal or self.done():
            return super().cancel()
        return self._run.request_cancel()

    def _force_cancel(self) -> bool:
        """Settle the proxy as cancelled (run-internal)."""
        self._terminal = True
        return super().cancel() or self.cancelled()

    def running(self) -> bool:
        # The proxy never enters the real RUNNING state (that would make
        # it uncancellable); report the current attempt's view instead.
        if self.done():
            return False
        with self._run._lock:
            attempt = self._run._attempt_future
        return attempt is not None and (attempt.running() or attempt.done())


class _ChunkRun:
    """One chunk's execution manager: attempts, retries, pool recovery.

    Owns the chunk's stable :class:`_ChunkFuture` proxy and drives real
    executor submissions behind it.  Failure handling, in order:

    * :class:`~concurrent.futures.BrokenExecutor` — the pool died under
      the chunk (e.g. an injected ``pool.worker_crash``).  Quarantine and
      rebuild the shared pool via
      :func:`repro.runtime.pool.rebuild_executor` and resubmit on the
      replacement.  Pool losses do not consume the retry policy (the
      chunk did nothing wrong) but are capped at
      :data:`_MAX_POOL_RESUBMITS`.
    * Any other exception — retry per the job's
      :class:`~repro.runtime.retry.RetryPolicy` after a
      decorrelated-jitter backoff, resubmitting with the chunk's original
      ``(shots, seed)`` so a retried chunk's counts are bit-identical to
      a fault-free run.
    * Out of retries/budget — settle the proxy with the exception.

    Fault-injection verdicts are computed here, in the parent, keyed by
    ``(job seed, chunk index, attempt)`` — bit-reproducible, and the
    plan object itself never has to cross a pickle boundary.
    """

    def __init__(self, job: "Job", index: int, shots: int,
                 seed: Optional[int], backend, circuit, ctx, span,
                 executor, kind: str) -> None:
        self.job = job
        self.index = index
        self.shots = shots
        self.seed = seed
        self.backend = backend
        self.circuit = circuit
        self.ctx = ctx
        self.span = span
        self.executor = executor
        self.kind = kind
        self.proxy = _ChunkFuture(self)
        self.attempt = 0  # total executions started (feeds fault keys)
        self.retries = 0  # policy-consuming retries
        self.pool_resubmits = 0
        self.prev_backoff = 0.0
        self._lock = threading.Lock()
        self._attempt_future: Optional[Future] = None
        self._timer: Optional[threading.Timer] = None
        self._started = False

    # -- attempt lifecycle ----------------------------------------------

    def launch(self) -> None:
        """Start the first attempt (called once, after the job's barrier
        is armed, so every settle path is observed)."""
        self._start_attempt()

    def _fault_for_attempt(self) -> Optional[str]:
        plan = self.job._fault_plan
        if plan is None:
            return None
        key = (self.job.seed, self.index, self.attempt)
        # Worker crashes only make sense where the worker is a separate
        # process; under thread/serial executors the "worker" is us.
        if self.kind == "process" and plan.should_fire(
            "pool.worker_crash", key=key
        ):
            return "crash"
        if plan.should_fire("chunk.simulate", key=key):
            return "fail"
        return None

    def _start_attempt(self) -> None:
        with self._lock:
            self._timer = None
            if self.proxy.done():
                return
            self._started = True
        fault = self._fault_for_attempt()
        try:
            future = self.executor.submit(
                _execute_chunk, self.backend, self.circuit, self.shots,
                self.seed, self.ctx, fault,
            )
        except BaseException as exc:
            # Submit-time failures (broken/shut-down pool) flow through
            # the same failure path as run-time ones, so the proxy always
            # settles and the job's done barrier always fires.
            self._handle_failure(exc)
            return
        with self._lock:
            self._attempt_future = future
        future.add_done_callback(self._settled)

    def _settled(self, future: Future) -> None:
        if future.cancelled():
            self.proxy._force_cancel()
            return
        exc = future.exception()
        if exc is None:
            try:
                self.proxy.set_result(future.result())
            except InvalidStateError:  # pragma: no cover - settle race
                pass
            return
        self._handle_failure(exc)

    # -- failure handling -----------------------------------------------

    def _handle_failure(self, exc: BaseException) -> None:
        if self.proxy.done():
            return
        if isinstance(exc, BrokenExecutor):
            if self._resubmit_after_pool_loss(exc):
                return
        elif self._retry_after_failure(exc):
            return
        self._terminal_failure(exc)

    def _resubmit_after_pool_loss(self, exc: BaseException) -> bool:
        from repro.runtime.pool import rebuild_executor

        if self.pool_resubmits >= _MAX_POOL_RESUBMITS:
            return False
        replacement = rebuild_executor(self.executor)
        self.pool_resubmits += 1
        self.attempt += 1
        self.executor = replacement
        self.job._note_pool_rebuild()
        _M_POOL_RESUBMITS.inc()
        if self.span is not None:
            self.span.event(
                "pool_rebuild",
                error=type(exc).__name__,
                resubmit=self.pool_resubmits,
            )
        # No backoff: the replacement pool is healthy by construction.
        self._start_attempt()
        return True

    def _retry_after_failure(self, exc: BaseException) -> bool:
        policy = self.job._retry_policy
        if policy is None or self.retries >= policy.max_retries:
            return False
        if not self.job._consume_retry_budget():
            return False
        self.retries += 1
        self.attempt += 1
        rng = backoff_rng(self.job.seed, self.index, self.attempt)
        delay = next_backoff(policy, self.prev_backoff, rng)
        self.prev_backoff = delay
        _M_CHUNK_RETRIES.inc()
        if self.span is not None:
            self.span.event(
                "retry",
                attempt=self.attempt,
                error=type(exc).__name__,
                backoff_s=round(delay, 6),
            )
        timer = threading.Timer(delay, self._start_attempt)
        timer.daemon = True
        with self._lock:
            if self.proxy.done():  # cancelled while we were deciding
                return True
            self._timer = timer
        timer.start()
        return True

    def _terminal_failure(self, exc: BaseException) -> None:
        self.proxy._terminal = True
        try:
            self.proxy.set_exception(exc)
        except InvalidStateError:  # already settled (or abandoned)
            pass

    # -- cancellation ----------------------------------------------------

    def request_cancel(self) -> bool:
        with self._lock:
            if self.proxy.done():
                return self.proxy.cancelled()
            timer, self._timer = self._timer, None
            attempt = self._attempt_future
            launched = self._started
        if timer is not None:
            # Waiting out a retry backoff: nothing is in flight.
            timer.cancel()
            self.proxy._force_cancel()
            return True
        if not launched:
            self.proxy._force_cancel()
            return True
        if attempt is not None:
            # The executor future's done-callback settles the proxy as
            # cancelled when this succeeds; a running attempt refuses and
            # the chunk runs to completion (unchanged semantics).
            return attempt.cancel()
        return False


class Job:
    """A single circuit execution in flight.

    Jobs are created by :func:`repro.runtime.execute.execute`; user code
    interacts with the returned object only.

    Attributes
    ----------
    job_id:
        Monotonic identifier, unique within the process.
    circuit / backend / shots / seed:
        The submitted work.
    priority:
        Submission priority (higher submits first; see
        :func:`repro.runtime.execute.execute`).
    """

    def __init__(
        self,
        circuit: "QuantumCircuit",
        backend: "Backend",
        shots: int,
        seed: Optional[int],
        role: str = ROLE_INDEPENDENT,
        source: Optional["Job"] = None,
        chunk_shots: Optional[int] = None,
        priority: int = 0,
        distribution: Optional[Result] = None,
    ) -> None:
        self.job_id = f"job-{next(_job_counter)}"
        self.circuit = circuit
        self.backend = backend
        self.shots = shots
        self.seed = seed
        self.chunk_shots = chunk_shots
        self.priority = int(priority)
        self._role = role
        self._source = source if source is not None else self
        self._distribution = distribution
        #: Set by execute() on a distribution-cache miss: (cache, key) to
        #: store this job's distribution into once it completes.
        self._dist_store = None
        self._dist_stored = False
        #: Set by execute(): (CostModel, profile key) every completed
        #: chunk reports its measured wall-clock into (see
        #: repro.runtime.scheduler).
        self._cost_probe = None
        #: Set by execute(): how this job was planned —
        #: {"chunk_shots", "executor"} — for introspection.
        self.plan: Optional[dict] = None
        #: Set by execute() when tracing is on: this job's trace span.
        #: Chunk submissions hang child spans off it and ship its context
        #: into the chunk task (see repro.obs.trace).
        self._span: Optional[Span] = None
        #: Set by execute(): the chunk retry policy (None = fail fast).
        self._retry_policy: Optional[RetryPolicy] = None
        #: Set by execute(): the fault plan consulted per chunk attempt.
        self._fault_plan = None
        self._retry_budget_used = 0
        #: Telemetry: policy-consuming chunk retries this job performed.
        self.retries = 0
        #: Telemetry: chunk resubmissions after executor pool losses (the
        #: registry-level rebuild count lives in ``pool_stats()``; many
        #: chunks of one job can resubmit onto a single rebuilt pool).
        self.pool_rebuilds = 0
        self._chunk_runs: List[_ChunkRun] = []
        self._futures: List[Future] = []
        self._chunk_elapsed: List[float] = []
        self._pool_elapsed_recorded = False
        self._result: Optional[Result] = None
        self._error: Optional[BaseException] = None
        self._cancelled = False
        self._lock = threading.Lock()
        #: Held by the one caller collecting this job; concurrent
        #: result() calls wait on it, then return what that caller stored.
        self._collect_lock = threading.Lock()
        self._done_callbacks: List = []
        self._done_barrier: Optional[int] = None
        self._done_notified = False

    # ------------------------------------------------------------------
    # Submission (runtime-internal)
    # ------------------------------------------------------------------

    def chunk_plan(self) -> List[tuple]:
        """Return the job's ``(shots, seed)`` chunk schedule.

        The same plan drives both a primary's pool submission and a
        derived job's re-sampling, so counts depend only on ``(circuit,
        backend, shots, seed, chunk_shots)`` — never on dedup grouping.
        """
        shot_chunks = split_shots(self.shots, self.chunk_shots)
        if len(shot_chunks) == 1:
            return [(self.shots, self.seed)]
        return [(n, chunk_seed(self.seed, i)) for i, n in enumerate(shot_chunks)]

    def _run_chunk(self, shots: int, seed: Optional[int]) -> Result:
        """Run one chunk inline (lazy fallbacks), recording its elapsed time."""
        span = (
            self._span.child("chunk", shots=shots, inline=True)
            if self._span is not None
            else None
        )
        result, elapsed, record = _execute_chunk(
            self.backend,
            self.circuit,
            shots,
            seed,
            None if span is None else span.context(),
        )
        if span is not None:
            span.finish().merge_worker(record)
        with self._lock:
            self._chunk_elapsed.append(elapsed)
        return result

    def _prepare_for_fanout(self) -> Tuple["Backend", "QuantumCircuit"]:
        """Transpile once in the parent before fan-out.

        A process-pool worker unpickles a backend whose explicit
        :class:`~repro.runtime.cache.TranspileCache` ships configuration,
        not contents, and concurrent thread chunks can all miss a shared
        cache before the first one stores — so without this step chunk
        tasks re-lower the circuit.  Instead the parent runs ``prepare()``
        once (through the cache) and ships the *prepared* circuit with a
        transpile-disabled copy of the backend: the chunks execute exactly
        the circuit a direct ``run()`` would have, so counts are untouched.

        Any ``prepare()`` failure falls back to shipping the original pair
        so the error keeps surfacing through the job's future (the
        established collection-time error path), not at submit time.
        """
        prepare = getattr(self.backend, "prepare", None)
        if prepare is None or not getattr(self.backend, "transpile", False):
            return self.backend, self.circuit
        span = misses_before = None
        if self._span is not None:
            span = self._span.child("prepare")
            cache = getattr(self.backend, "cache", None)
            if cache is None:
                from repro.runtime.cache import DEFAULT_CACHE

                cache = DEFAULT_CACHE
            misses_before = getattr(cache, "misses", None)
        try:
            prepared = prepare(self.circuit)
        except Exception:
            if span is not None:
                span.finish().set(error=True)
            return self.backend, self.circuit
        if span is not None:
            # cache=False: every prepare lowers the circuit.
            span.finish().set(
                cache_hit=misses_before is not None and cache.misses <= misses_before
            )
        shipped = copy.copy(self.backend)
        shipped.transpile = False
        return shipped, prepared

    def _submit(self, executor) -> None:
        """Schedule this job's chunk tasks on ``executor``.

        Each chunk is driven by a :class:`_ChunkRun` behind a stable
        :class:`_ChunkFuture` proxy, so retries and pool rebuilds are
        invisible to collection: ``self._futures`` never changes after
        submit.  Tasks are the picklable module-level
        :func:`_execute_chunk`, so any executor kind — serial, thread or
        process — can run them.  Every kind ships a parent-side-prepared
        circuit (see :meth:`_prepare_for_fanout`).
        On a distribution-cache miss, a done-callback on the first chunk
        publishes the distribution at *completion* time — a chunked job's
        merged distribution is exactly its first chunk's — so overlapping
        ``execute()`` calls see the entry as soon as the simulation
        finishes, not when somebody first collects the result.  Every
        chunk future also reports its measured wall-clock into the
        runtime's cost model when a probe is attached.
        """
        from repro.runtime.pool import executor_kind

        kind = executor_kind(executor)
        backend, circuit = self._prepare_for_fanout()
        runs: List[_ChunkRun] = []
        for index, (shots, seed) in enumerate(self.chunk_plan()):
            span = ctx = None
            if self._span is not None:
                span = self._span.child(
                    "chunk", chunk=index, shots=shots, executor=kind
                )
                ctx = span.context()
            run = _ChunkRun(
                self, index, shots, seed, backend, circuit, ctx, span,
                executor, kind,
            )
            runs.append(run)
            self._futures.append(run.proxy)
            if span is not None:
                run.proxy.add_done_callback(
                    functools.partial(self._trace_chunk, span)
                )
            if self._cost_probe is not None:
                run.proxy.add_done_callback(
                    functools.partial(self._observe_chunk, shots)
                )
        self._chunk_runs = runs
        if self._dist_store is not None and self._futures:
            self._futures[0].add_done_callback(self._distribution_completed)
        # Arm the completion barrier *before* the first launch: whatever
        # a launch does — run inline (serial), fail at submit time, get
        # cancelled — every proxy settles through a path the barrier
        # observes, so done callbacks (and as_completed streaming) can
        # never be lost to a chunk that died before arming.
        self._arm_done_barrier()
        for run in runs:
            run.launch()

    def _trace_chunk(self, span: Span, future: Future) -> None:
        """Done-callback: close the chunk span and fold in the worker view.

        The parent-side window (submit -> completion) is the span's own
        duration; the worker-measured wall-clock arrives in the returned
        trace record (``worker_wall_s``), the only chunk timing trusted
        across a process boundary.
        """
        span.finish()
        if future.cancelled():
            span.set(cancelled=True)
            return
        exc = future.exception()
        if exc is not None:
            span.set(error=type(exc).__name__)
            return
        _result, _elapsed, record = future.result()
        span.merge_worker(record)

    def _observe_chunk(self, shots: int, future: Future) -> None:
        """Done-callback: feed one chunk's measured cost to the cost model."""
        if future.cancelled() or future.exception() is not None:
            return
        _result, elapsed, _trace = future.result()
        model, key = self._cost_probe
        model.observe_run(key, shots, elapsed)

    def _distribution_completed(self, future: Future) -> None:
        """Done-callback: store the finished chunk's distribution."""
        if future.cancelled() or future.exception() is not None:
            return
        result, _elapsed, _trace = future.result()
        self._publish_distribution(result)

    def _publish_distribution(self, result: Result) -> None:
        """Store ``result``'s distribution into the pending cache slot once.

        Idempotent: called from the completion callback and (as a fallback,
        e.g. when a callback could not run) from :meth:`result` — whichever
        takes the lock first stores, the other skips.  The store happens
        *inside* the critical section so that once any publish call has
        returned, the entry is visible — ``result()`` must never return
        before the cache reflects the job (callers compare stats right
        after collecting).
        """
        if self._dist_store is None or result.probabilities is None:
            return
        cache, key = self._dist_store
        with self._lock:
            if self._dist_stored:
                return
            cache.store(key, result)
            self._dist_stored = True

    # ------------------------------------------------------------------
    # Completion notification (the non-blocking bridge)
    # ------------------------------------------------------------------

    def add_done_callback(self, fn) -> None:
        """Call ``fn(self)`` once this job reaches a terminal state.

        The event-driven counterpart of polling :meth:`done`: an async
        front-end (see :mod:`repro.service`) registers a callback instead
        of blocking a thread per job.  Fires exactly once, from whichever
        thread settles the last chunk future (or inline, when the job is
        already terminal at registration time).  Derived and
        distribution-cached jobs settle with their source, exactly as
        :meth:`status` reports them.  Callbacks must not block: they run
        on executor worker/collector threads.
        """
        if self.cached:
            fn(self)
            return
        if self.derived:
            self._source.add_done_callback(lambda _source: fn(self))
            return
        with self._lock:
            if not self._done_notified:
                self._done_callbacks.append(fn)
                fn = None
        if fn is not None:
            fn(self)

    def _arm_done_barrier(self) -> None:
        """Register the chunk-future countdown that fires done callbacks."""
        with self._lock:
            if self._done_barrier is not None or not self._futures:
                return
            self._done_barrier = len(self._futures)
        for future in self._futures:
            # Future done-callbacks fire on completion, failure *and*
            # cancellation, so every terminal path counts down.
            future.add_done_callback(self._chunk_settled)

    def _chunk_settled(self, _future: Future) -> None:
        with self._lock:
            if self._done_barrier is None or self._done_notified:
                # A settle racing barrier arming (or a defensive re-fire)
                # must never crash the settling thread.
                return
            self._done_barrier -= 1
            if self._done_barrier > 0:
                return
            self._done_notified = True
            callbacks, self._done_callbacks = self._done_callbacks, []
        for fn in callbacks:
            fn(self)

    # ------------------------------------------------------------------
    # Retry accounting (chunk-run internal)
    # ------------------------------------------------------------------

    def _consume_retry_budget(self) -> bool:
        """Reserve one retry against the job-wide budget (thread-safe)."""
        policy = self._retry_policy
        if policy is None:
            return False
        with self._lock:
            if (
                policy.retry_budget is not None
                and self._retry_budget_used >= policy.retry_budget
            ):
                return False
            self._retry_budget_used += 1
            self.retries += 1
            return True

    def _note_pool_rebuild(self) -> None:
        with self._lock:
            self.pool_rebuilds += 1

    def _abandon(self, error: BaseException) -> None:
        """Settle every unfinished chunk with ``error`` (a scheduler stop
        past its deadline).  An attempt not yet started never runs; one
        already running finishes on its worker, its result discarded."""
        for run in self._chunk_runs:
            run._terminal_failure(error)  # no-op on a settled chunk
            if run._attempt_future is not None:
                run._attempt_future.cancel()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def derived(self) -> bool:
        """Return ``True`` when this job reuses a group primary's result."""
        return self._source is not self

    @property
    def cached(self) -> bool:
        """Return ``True`` when this job re-samples a cached distribution.

        A cached job never touches the backend: its counts come from a
        cross-call :class:`~repro.runtime.distcache.DistributionCache` hit
        (bit-identical to a fresh run, per the determinism contract).
        """
        return self._distribution is not None

    def status(self) -> JobStatus:
        """Return the job's current :class:`JobStatus`.

        ``DONE`` means no pool work is outstanding and :meth:`result`
        returns without waiting on other jobs.  For a deduplicated job it
        is derived from the group primary; in the rare per-shot-fallback
        case (primary finished without an exact distribution) or after the
        primary was cancelled, :meth:`result` still has to run this job's
        own simulation lazily on the calling thread.
        """
        if self._cancelled:
            return JobStatus.CANCELLED
        if self._error is not None:
            return JobStatus.ERROR
        if self._result is not None:
            return JobStatus.DONE
        if self.cached:
            # The distribution is in hand; result() re-samples it without
            # waiting on any pool work.
            return JobStatus.DONE
        if self.derived:
            source_status = self._source.status()
            if source_status is JobStatus.CANCELLED:
                # This job was not cancelled: result() will run it
                # independently on demand.
                return JobStatus.DONE
            return source_status
        if not self._futures:
            return JobStatus.QUEUED
        if any(f.cancelled() for f in self._futures):
            return JobStatus.CANCELLED
        if any(f.done() and f.exception() is not None for f in self._futures):
            return JobStatus.ERROR
        if all(f.done() for f in self._futures):
            return JobStatus.DONE
        if any(f.running() or f.done() for f in self._futures):
            return JobStatus.RUNNING
        return JobStatus.QUEUED

    def done(self) -> bool:
        """Return ``True`` once the job has finished (any terminal state)."""
        return self.status() in (JobStatus.DONE, JobStatus.CANCELLED, JobStatus.ERROR)

    @property
    def time_taken(self) -> float:
        """Return the summed wall-clock seconds of this job's chunk runs.

        Derived (deduplicated) jobs report ``0.0`` — their result cost
        nothing beyond the primary's execution — except when the primary
        carried no exact distribution and a real fallback simulation ran.
        """
        with self._lock:
            return float(sum(self._chunk_elapsed))

    def _finish_span(self, **attrs) -> None:
        """Close this job's trace span once, stamping terminal attributes."""
        if self._span is not None:
            if self._span.end_s is None and attrs:
                self._span.set(**attrs)
            self._span.finish()

    def trace(self) -> Optional[dict]:
        """Return this job's trace span tree as JSON-safe dicts.

        ``None`` when the job ran untraced (tracing disabled at submit
        time).  Safe to call while the job is still running: unfinished
        spans report ``duration_s: null``.
        """
        return None if self._span is None else self._span.to_dict()

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def cancel(self) -> bool:
        """Attempt to cancel the job's pending chunk tasks.

        Returns ``True`` when the job will **not** produce a result: if any
        chunk was cancelled before starting, the job's counts can never be
        complete, so the whole job is marked cancelled (even when other
        chunks were already running).  Returns ``False`` when nothing could
        be cancelled — the job runs to completion as normal.  A derived job
        cannot be cancelled independently of its primary.
        """
        if self._result is not None or self.derived or self.cached:
            return False
        cancelled = [f.cancel() for f in self._futures]
        if cancelled and any(cancelled):
            self._cancelled = True
            self._finish_span(status="cancelled")
            return True
        return False

    def result(self, timeout: Optional[float] = None) -> Result:
        """Block until the job finishes and return its merged :class:`Result`.

        ``timeout`` is a total deadline in seconds for the whole job, not
        per chunk.  A deduplicated job derives its result from the group
        primary; when the primary finished without an exact distribution
        (per-shot fallback) or was cancelled, this call runs the job's own
        simulation on the calling thread instead — that inline simulation
        is not interruptible, so the deadline only bounds waits on pool
        work.

        Collection is single-flight: concurrent callers wait for the first
        one, so a job's chunks merge once and its trace holds one
        ``collect`` span.

        Raises
        ------
        JobError
            If the job was cancelled or a chunk raised.
        """
        if self._result is not None:
            return self._result
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._collect_lock.acquire(
            timeout=-1 if timeout is None else max(0.0, timeout)
        ):
            raise JobError(f"{self.job_id} timed out after {timeout}s")
        try:
            if self._result is not None:
                return self._result
            return self._collect(timeout, deadline)
        finally:
            self._collect_lock.release()

    def _collect(self, timeout: Optional[float], deadline: Optional[float]) -> Result:
        """Build and store this job's result; :meth:`result` holds the
        collect lock.  ``timeout`` is only for error messages."""
        if self._cancelled:
            raise JobError(f"{self.job_id} was cancelled")
        if self.cached:
            # Replay this job's own chunk plan against the cached
            # distribution — the same schedule a dedicated (possibly
            # chunked) run would have drawn from, so counts match it
            # bit-for-bit.
            chunk_results = []
            for shots, seed in self.chunk_plan():
                derived = resample_result(self._distribution, shots, seed)
                if derived is None:  # defensive: entries always carry one
                    derived = self._run_chunk(shots, seed)
                chunk_results.append(derived)
            merged = merge_chunk_results(chunk_results, self.shots, self.seed)
            merged.metadata["distribution_cache"] = True
            self._result = merged
            self._finish_span(status="done", cached=True)
            return self._result
        if self.derived:
            try:
                source_result = self._source.result(
                    timeout=None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
            except JobError:
                if self._source.status() is not JobStatus.CANCELLED:
                    raise
                # The group primary was cancelled out from under us; this
                # job was not, so run it independently (dedup must stay a
                # transparent optimization).
                chunk_results = [
                    self._run_chunk(shots, seed) for shots, seed in self.chunk_plan()
                ]
                self._result = merge_chunk_results(
                    chunk_results, self.shots, self.seed
                )
                self._finish_span(status="done", fallback=True)
                return self._result
            if self._role == ROLE_SHARE:
                self._result = clone_result(source_result, self.seed)
            else:
                # Replay this job's own chunk plan so the derived counts are
                # bit-identical to a dedicated (possibly chunked) run; fall
                # back to real execution per chunk when the primary carried
                # no exact distribution (per-shot statevector fallback).
                chunk_results = []
                for shots, seed in self.chunk_plan():
                    derived = resample_result(source_result, shots, seed)
                    if derived is None:
                        derived = self._run_chunk(shots, seed)
                    chunk_results.append(derived)
                self._result = merge_chunk_results(
                    chunk_results, self.shots, self.seed
                )
            self._finish_span(status="done", derived=True)
            return self._result
        try:
            chunk_results = []
            chunk_elapsed = []
            for future in self._futures:
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                result, elapsed, _trace = future.result(timeout=remaining)
                chunk_results.append(result)
                chunk_elapsed.append(elapsed)
        except CancelledError:
            self._cancelled = True
            self._finish_span(status="cancelled")
            raise JobError(f"{self.job_id} was cancelled") from None
        except FutureTimeoutError:
            # Not terminal: the chunks keep running and result() may be
            # retried with a fresh deadline.
            raise JobError(f"{self.job_id} timed out after {timeout}s") from None
        except Exception as exc:
            self._error = exc
            self._finish_span(status="error", error=type(exc).__name__)
            if isinstance(exc, JobAbandoned):
                raise
            raise JobError(f"{self.job_id} failed: {exc}") from exc
        # Worker wall-clock is recorded at collection time (the workers may
        # live in another process); recorded once, even if a later step
        # of this collection raises and result() is called again.
        with self._lock:
            if not self._pool_elapsed_recorded:
                self._chunk_elapsed.extend(chunk_elapsed)
                self._pool_elapsed_recorded = True
        collect_span = (
            self._span.child("collect", chunks=len(chunk_results))
            if self._span is not None
            else None
        )
        self._result = merge_chunk_results(chunk_results, self.shots, self.seed)
        self._publish_distribution(self._result)
        if collect_span is not None:
            collect_span.finish()
        self._finish_span(status="done")
        return self._result

    def counts(self, timeout: Optional[float] = None) -> Counts:
        """Shorthand for ``job.result().counts``."""
        return self.result(timeout=timeout).counts

    def __repr__(self) -> str:
        return (
            f"<Job {self.job_id} {self.circuit.name!r} on {self.backend.name!r} "
            f"shots={self.shots} status={self.status().value}>"
        )


class JobSet:
    """An ordered batch of :class:`Job` objects with bulk collection."""

    def __init__(self, jobs: Sequence[Job]) -> None:
        self.jobs: List[Job] = list(jobs)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, index: int) -> Job:
        return self.jobs[index]

    def statuses(self) -> List[JobStatus]:
        """Return every job's current status, in submission order."""
        return [job.status() for job in self.jobs]

    def done(self) -> bool:
        """Return ``True`` once every job has finished."""
        return all(job.done() for job in self.jobs)

    def cancel(self) -> List[bool]:
        """Attempt to cancel every job; returns per-job success flags."""
        return [job.cancel() for job in self.jobs]

    def result(self, timeout: Optional[float] = None) -> List[Result]:
        """Block until all jobs finish and return their results in order.

        ``timeout`` is one shared deadline for the whole batch, not per
        job.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        results = []
        for job in self.jobs:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            results.append(job.result(timeout=remaining))
        return results

    def counts(self, timeout: Optional[float] = None) -> List[Counts]:
        """Return every job's counts, in submission order (shared deadline)."""
        return [result.counts for result in self.result(timeout=timeout)]

    def as_completed(
        self, timeout: Optional[float] = None
    ) -> Iterator[Job]:
        """Yield each job as it finishes, in completion order.

        Streaming counterpart of :meth:`result`: a sweep can consume fast
        jobs while slow ones still run.  Every job is yielded **exactly
        once**, whatever its terminal state — callers see cancelled and
        failed jobs too (their ``result()`` raises
        :class:`~repro.exceptions.JobError`), so the stream never silently
        drops work.  Driven by :meth:`Job.add_done_callback` feeding a
        queue: a job surfaces once every chunk it ran settled, derived
        jobs with their source and distribution-cached jobs at once.

        Raises
        ------
        JobError
            When ``timeout`` (seconds, for the whole stream) expires with
            jobs still pending.  The pending jobs keep running and remain
            collectable individually.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        finished: queue.SimpleQueue = queue.SimpleQueue()
        for job in self.jobs:
            job.add_done_callback(finished.put)
        for pending in range(len(self.jobs), 0, -1):
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                yield finished.get(timeout=remaining)
            except queue.Empty:
                raise JobError(
                    f"{pending} job(s) still pending after {timeout}s"
                ) from None

    @property
    def time_taken(self) -> float:
        """Return the summed chunk wall-clock time across the batch."""
        return float(sum(job.time_taken for job in self.jobs))

    def trace(self) -> List[Optional[dict]]:
        """Return every job's trace span tree, in submission order."""
        return [job.trace() for job in self.jobs]

    @property
    def num_executed(self) -> int:
        """Return how many jobs actually ran on a backend.

        Derived (in-call dedup) and distribution-cached (cross-call reuse)
        jobs never touch a backend, so they are excluded.
        """
        return sum(1 for job in self.jobs if not job.derived and not job.cached)

    @property
    def num_cached(self) -> int:
        """Return how many jobs were served by the distribution cache."""
        return sum(1 for job in self.jobs if job.cached)

    def __repr__(self) -> str:
        from collections import Counter

        tally = Counter(status.value for status in self.statuses())
        summary = ", ".join(f"{k}={v}" for k, v in sorted(tally.items()))
        return f"<JobSet of {len(self.jobs)} jobs: {summary}>"
