"""Subprocess sweep harness: run a paper-shaped sweep in a fresh process.

Cross-process cache behaviour can only be tested honestly with real
interpreter processes, and both ``tests/runtime/test_persistence.py`` and
``benchmarks/bench_runtime.py`` need the same machinery: build a batch of
instrumented sweep variants, run it through ``execute()`` with the
distribution cache on, and report counts plus cache statistics as JSON.
This module is the single owner of that driver so the test suite and the
benchmarks cannot drift onto different contracts.

The driver process resolves its cache configuration exactly like any user
process would — from ``$REPRO_CACHE_DIR`` — so what the harness measures is
the real zero-configuration persistence path, not a test-only hook.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional, Sequence, Tuple

#: The sweep variants a driver can build, by name.  Instrumented with the
#: paper's assertion types so the workload matches the reproduction's
#: actual sweep shape (distinct circuits, each repeated many times).
VARIANT_NAMES = ("bell-classical", "bell-entangled", "ghz-pairwise", "ghz-single")

#: Source of the driver process.  It prints a single JSON object:
#: ``counts`` (one sorted dict per job), ``executed``/``cached`` (job
#: tallies), and ``transpile``/``distribution`` (cache store statistics).
#: The explicit ``prepare()`` loop forces transpile-cache traffic even when
#: every job is served from the distribution cache, so "zero transpile
#: misses" is a meaningful assertion in a warm process.
_DRIVER_SOURCE = """
import json, sys
from repro.circuits import library
from repro.core.injector import AssertionInjector
from repro.runtime import (
    distribution_cache_stats, execute, get_backend, transpile_cache_stats,
)

def _instrument(program, assertion, *args, **kwargs):
    injector = AssertionInjector(program)
    getattr(injector, assertion)(*args, **kwargs)
    injector.measure_program()
    return injector.circuit

BUILDERS = {
    "bell-classical": lambda: _instrument(library.bell_pair(), "assert_classical", 0, 0),
    "bell-entangled": lambda: _instrument(library.bell_pair(), "assert_entangled", [0, 1]),
    "ghz-pairwise": lambda: _instrument(
        library.ghz_state(3), "assert_entangled", [0, 1, 2], mode="pairwise"),
    "ghz-single": lambda: _instrument(
        library.ghz_state(3), "assert_entangled", [0, 1, 2], mode="single"),
}

spec = json.loads(sys.argv[1])
variants = [BUILDERS[name]() for name in spec["variants"]]
circuits = variants * spec["repeats"]
backend = get_backend("noisy:ibmqx4")
for circuit in variants:
    backend.prepare(circuit)
jobs = execute(
    circuits, backend, shots=spec["shots"], seed=list(range(len(circuits))),
    distribution_cache=True,
)
counts = [dict(sorted(c.items())) for c in jobs.counts()]
print(json.dumps({
    "counts": counts,
    "executed": jobs.num_executed,
    "cached": jobs.num_cached,
    "transpile": transpile_cache_stats(),
    "distribution": distribution_cache_stats(),
}))
"""


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group is already empty


def _expire(proc: subprocess.Popen, expired: threading.Event) -> None:
    expired.set()
    _kill_group(proc)


def run_driver_process(
    source: str,
    spec: Optional[dict] = None,
    cache_dir: Optional[os.PathLike] = None,
    timeout: float = 600.0,
) -> Tuple[dict, float]:
    """Run an arbitrary driver source in a fresh interpreter.

    The shared machinery under :func:`run_sweep_process`, exposed so other
    cross-process suites (service restart-recovery, journal corruption)
    reuse one contract instead of growing their own subprocess plumbing:
    the child gets ``src`` on ``PYTHONPATH``, ``$REPRO_CACHE_DIR`` set to
    ``cache_dir`` (or removed when ``None``), ``spec`` as a JSON argv, and
    must print a single JSON object on stdout.

    The child runs in a session of its own, and once it exits (or times
    out) its whole process group is killed: a fork-mode pool worker the
    driver left behind — crash-style drivers ``os._exit`` mid-flight,
    exactly what the restart-recovery suite does — dies with it instead
    of living on as an orphan.  Its stdout/stderr go to temporary
    *files*, not pipes, so the parent waits on the child's exit alone,
    never on EOF from a descendant that inherited a pipe's write end.

    Returns ``(report, elapsed_seconds)``; raises ``RuntimeError`` with
    the child's stderr on a non-zero exit.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if cache_dir is None:
        env.pop("REPRO_CACHE_DIR", None)
    else:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    start = time.perf_counter()
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-c", source, json.dumps(spec or {})],
            env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
            start_new_session=True,
        )
        # A blocking wait returns the moment the child exits; a wait with
        # a timeout polls, in steps of up to 50 ms, which would round every
        # elapsed time this harness reports.  A timer enforces the timeout.
        expired = threading.Event()
        timer = threading.Timer(timeout, _expire, (proc, expired))
        timer.start()
        try:
            returncode = proc.wait()
            elapsed = time.perf_counter() - start
        finally:
            timer.cancel()
            _kill_group(proc)
            proc.wait()
        if expired.is_set():
            raise subprocess.TimeoutExpired(proc.args, timeout)
        stdout.seek(0)
        out = stdout.read().decode()
        stderr.seek(0)
        err = stderr.read().decode()
    if returncode != 0:
        raise RuntimeError(f"driver process failed:\n{err}")
    return json.loads(out), elapsed


def run_sweep_process(
    cache_dir: Optional[os.PathLike] = None,
    variants: Sequence[str] = ("bell-entangled", "ghz-pairwise"),
    shots: int = 1024,
    repeats: int = 3,
    timeout: float = 600.0,
) -> Tuple[dict, float]:
    """Run the sweep driver in a fresh interpreter on ``noisy:ibmqx4``.

    Parameters
    ----------
    cache_dir:
        Value for the child's ``$REPRO_CACHE_DIR``; ``None`` removes the
        variable so the child runs memory-only (the cache-disabled
        baseline).
    variants / shots / repeats:
        Workload shape: which :data:`VARIANT_NAMES` to build and how the
        batch fans out (``len(variants) * repeats`` jobs).

    Returns
    -------
    (report, elapsed):
        The driver's parsed JSON report and its wall-clock seconds
        (including interpreter startup — both cold and warm runs pay it,
        so cold-vs-warm comparisons stay honest).
    """
    unknown = [name for name in variants if name not in VARIANT_NAMES]
    if unknown:
        raise ValueError(f"unknown sweep variants {unknown}; pick from {VARIANT_NAMES}")
    spec = {
        "variants": list(variants),
        "shots": int(shots),
        "repeats": int(repeats),
    }
    return run_driver_process(
        _DRIVER_SOURCE, spec, cache_dir=cache_dir, timeout=timeout
    )
