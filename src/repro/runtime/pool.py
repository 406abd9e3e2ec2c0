"""Process-wide worker pools shared across ``execute()`` calls.

Building a fresh pool inside every ``execute()`` call is pure churn for
single-job callers like ``run_table1``.  This module keeps three
selectable executor kinds behind one lazily-created, process-wide
registry:

``serial``
    Run every task inline on the calling thread (:class:`SerialExecutor`).
    Zero scheduling overhead and strictly deterministic execution *order*,
    which makes job priorities directly observable.
``thread``
    A shared :class:`~concurrent.futures.ThreadPoolExecutor`, the default
    for every in-repo engine.  Chunks overlap only where NumPy kernels
    release the GIL: the trajectory walker is mostly Python-level steps,
    and on a 2-core host 4 thread chunks of a 131072-shot job took about
    twice as long as the job unsplit.  ``execute()`` therefore plans
    chunks only on process pools; thread and serial runs stay whole
    unless the caller passes ``chunk_shots``.
``process``
    A shared :class:`~concurrent.futures.ProcessPoolExecutor`, for
    engines that hold the GIL; circuits, backends and results cross the
    boundary by pickle (see the runtime's pickling hooks).  Its workers
    start with ``fork``, chosen explicitly rather than taken from the
    platform: Python 3.14 makes ``forkserver`` the Linux default, and
    ``forkserver`` (like ``spawn``) re-imports the parent's ``__main__``
    in each worker, so every process-pool job launched from a script
    without an ``if __name__ == "__main__"`` guard fails with
    ``RuntimeError: ... before the current process has finished its
    bootstrapping phase``.  ``fork`` runs such scripts unchanged, and its
    workers need no imports of their own: on a 2-core host a fresh 2-wide
    pool answered its first two tasks in about 9 ms under ``fork``
    against about 0.35 s under ``forkserver`` or ``spawn``.  The runtime,
    service, observability and batched-engine suites pass under either
    start method.  The price of ``fork`` is that a worker inherits the
    parent's locks as they stood: a parent whose main thread is blocked
    reading ``sys.stdin`` hangs its first worker on the stdin buffer lock.

Pools are keyed by ``(kind, width)`` and created on first use, so repeated
``execute()`` calls with the same configuration reuse one executor instead
of rebuilding it.  A call with a different ``max_workers`` gets a pool of
its own, not a share of the default one.  The counts contract is unchanged: for a fixed seed,
every executor kind produces bit-identical counts (``tests/runtime/
test_determinism.py`` pins this).

The default kind comes from the ``REPRO_EXECUTOR`` environment variable
(``serial`` | ``thread`` | ``process``), falling back to ``thread`` — which
is how CI runs the runtime suite under every executor without touching the
tests.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import (
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Dict, Optional, Tuple

from repro.exceptions import JobError

#: The selectable executor kinds, in increasing isolation order.
EXECUTOR_KINDS = ("serial", "thread", "process")

#: Environment variable naming the default executor kind.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"


class SerialExecutor(Executor):
    """An :class:`~concurrent.futures.Executor` that runs tasks inline.

    ``submit()`` executes the task on the calling thread and returns an
    already-completed :class:`~concurrent.futures.Future` (exceptions are
    captured in the future, matching pool semantics, not raised at submit
    time).  Tasks therefore run in exact submission order, which is what
    makes job priorities observable under this executor.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        if not future.set_running_or_notify_cancel():  # pragma: no cover
            return future
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:
            future.set_exception(exc)
        return future


def default_executor_kind() -> str:
    """Return the default kind: ``$REPRO_EXECUTOR`` or ``"thread"``."""
    kind = os.environ.get(EXECUTOR_ENV_VAR, "").strip().lower()
    if not kind:
        return "thread"
    if kind not in EXECUTOR_KINDS:
        raise JobError(
            f"{EXECUTOR_ENV_VAR}={kind!r} is not a valid executor kind; "
            f"choose from {list(EXECUTOR_KINDS)}"
        )
    return kind


def default_max_workers() -> int:
    """Return the default pool width (CPU count, capped at 32)."""
    return min(32, (os.cpu_count() or 1))


#: Registry key: (kind, width); the serial executor has no width.
_PoolKey = Tuple[str, Optional[int]]

_lock = threading.Lock()
_pools: Dict[_PoolKey, Executor] = {}
_stats = {"created": 0, "reused": 0, "rebuilds": 0}


def _make_executor(kind: str, width: Optional[int]) -> Executor:
    if kind == "serial":
        pool: Executor = SerialExecutor()
    elif kind == "thread":
        pool = ThreadPoolExecutor(
            max_workers=width, thread_name_prefix="repro-runtime"
        )
    else:
        pool = ProcessPoolExecutor(
            max_workers=width, mp_context=multiprocessing.get_context("fork")
        )
    pool._repro_kind = kind
    pool._repro_key = (kind, width)
    return pool


def executor_kind(executor: Executor) -> str:
    """Return a registry pool's kind (``"serial"``/``"thread"``/``"process"``)."""
    return executor._repro_kind


def _is_broken(pool: Executor) -> bool:
    """Return ``True`` for a process pool whose workers died."""
    return bool(getattr(pool, "_broken", False))


def get_executor(
    kind: Optional[str] = None, max_workers: Optional[int] = None
) -> Executor:
    """Return the shared executor for ``(kind, max_workers)``.

    The first request for a configuration creates its pool; later requests
    return the same object (``pool_stats()`` tracks both).  A broken
    process pool (workers killed) is transparently discarded and rebuilt.

    Parameters
    ----------
    kind:
        ``"serial"``, ``"thread"`` or ``"process"``; ``None`` uses
        :func:`default_executor_kind`.
    max_workers:
        Pool width; ``None`` uses :func:`default_max_workers`.  Ignored by
        the serial executor.
    """
    kind = kind if kind is not None else default_executor_kind()
    if kind not in EXECUTOR_KINDS:
        raise JobError(
            f"unknown executor kind {kind!r}; choose from {list(EXECUTOR_KINDS)}"
        )
    if max_workers is not None and max_workers < 1:
        raise JobError(f"max_workers must be positive, got {max_workers}")
    if kind == "serial":
        key: _PoolKey = ("serial", None)
    else:
        key = (kind, int(max_workers) if max_workers else default_max_workers())
    with _lock:
        pool = _pools.get(key)
        if pool is not None and _is_broken(pool):
            pool.shutdown(wait=False)
            del _pools[key]
            pool = None
        if pool is None:
            pool = _make_executor(kind, key[1])
            _pools[key] = pool
            _stats["created"] += 1
        else:
            _stats["reused"] += 1
        return pool


def rebuild_executor(pool: Executor) -> Executor:
    """Quarantine a broken registry pool and return a fresh replacement.

    The self-healing path: a chunk that fails with
    :class:`~concurrent.futures.process.BrokenProcessPool` calls this to
    swap the shared pool for a new one, then resubmits.  Concurrent
    callers (every in-flight chunk of the broken pool fails at once)
    rebuild exactly once — whoever arrives after the swap gets the
    already-rebuilt pool back.
    """
    key = pool._repro_key
    with _lock:
        current = _pools.get(key)
        if current is not None and current is not pool:
            # Someone already rebuilt; hand back the healthy replacement.
            return current
        if current is pool:
            del _pools[key]
        replacement = _make_executor(*key)
        _pools[key] = replacement
        _stats["created"] += 1
        _stats["rebuilds"] += 1
    pool.shutdown(wait=False)
    return replacement


def pool_stats() -> dict:
    """Return ``{"active", "created", "reused", "rebuilds", "pools"}``.

    ``created``/``reused``/``rebuilds`` are lifetime counters (they
    survive :func:`shutdown_executors`); ``pools`` lists the live
    ``(kind, width)`` keys.
    """
    with _lock:
        return {
            "active": len(_pools),
            "created": _stats["created"],
            "reused": _stats["reused"],
            "rebuilds": _stats["rebuilds"],
            "pools": sorted(_pools),
        }


def shutdown_executors(wait: bool = True) -> None:
    """Shut down and drop every shared pool (they rebuild lazily on use)."""
    with _lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


atexit.register(shutdown_executors)
