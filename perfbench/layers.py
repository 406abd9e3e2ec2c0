"""Statistics and span-tree readers shared by the benchmark processes.

``run.py`` imports this module without importing ``repro`` or NumPy.
The span trees read here are the ones the program already returns from
``Job.trace()`` and ``ServiceClient.trace()``; nothing in ``src/`` is
instrumented for the benchmark.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from typing import Dict, Iterable, List, Optional

#: Kernel passes, in time order, whose median scales one job: the passes
#: just before and after it and one more on either side.
SPEED_WINDOW = 5

#: Chunk-span ``engine`` attribute (the backend class) -> layer name.
ENGINES = {
    "StabilizerBackend": "stabilizer",
    "NoisyDeviceBackend": "density_matrix",
    "TrajectoryDeviceBackend": "trajectory",
    "StatevectorBackend": "statevector",
}


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def nearest_rank(values: Iterable[float], q: float) -> float:
    """The ``q`` quantile by nearest rank: an observed sample, never an
    interpolation between two."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q`` quantile."""
    return count - max(1, math.ceil(q * count)) if count else 0


# The shared host this benchmark runs on changes speed by up to a factor
# of 1.7 from one second to the next (neighbours' load; process CPU time
# tracks wall time, so it is not visible as steal).  A reference kernel
# touches nothing of the program, so its time gauges the host alone, and
# scaling a job's time by the kernel time measured beside it cancels the
# host's drift while keeping every change the program's own code makes.
# Each workload uses the kernel its own jobs resemble: a slow spell of the
# host lengthened GHZ jobs (pure-Python stabilizer) 1.72-1.76 times and
# the interpreter kernel 1.65-1.70 times, but the noisy-device jobs
# (NumPy arrays) only 1.34-1.51 times, like the array kernel (1.37).


def interpreter_kernel() -> float:
    """Run a fixed pure-Python kernel once; return its wall time."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(8000):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + i // 3
    ordered = sorted(((value * 31) % 1009, key) for key, value in table.items())
    words = [str(key) for _, key in ordered] * 24
    "".join(words).count("7")
    return time.perf_counter() - start


@functools.lru_cache(maxsize=1)
def _array_operands() -> tuple:
    import numpy

    rng = numpy.random.default_rng(0)
    gaussian = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    unitary = numpy.linalg.qr(gaussian)[0]
    batch = rng.standard_normal((1024, 32)) + 1j * rng.standard_normal((1024, 32))
    rho = unitary @ numpy.diag(numpy.linspace(0.0, 1.0, 32)) @ unitary.conj().T
    return numpy, unitary, batch, rho


def array_kernel() -> float:
    """Run a fixed NumPy kernel once -- a batch of 5-qubit state vectors
    and a 5-qubit density matrix evolved -- and return its wall time."""
    numpy, unitary, states, rho = _array_operands()
    start = time.perf_counter()
    for _ in range(4):
        states = states @ unitary
        norms = (states.real ** 2 + states.imag ** 2).sum(axis=1)
        states = states / numpy.sqrt(norms)[:, None]
    adjoint = unitary.conj().T
    for _ in range(30):
        rho = unitary @ rho @ adjoint
        numpy.trace(rho)
    return time.perf_counter() - start


#: Each kernel with its wall time per pass on the reference host.  Every
#: end-to-end time but ``setup_s`` is reported in reference-host seconds:
#: the wall time measured, times this over the kernel time measured beside it.
KERNELS = {
    "interpreter": (interpreter_kernel, 0.0011),
    "array": (array_kernel, 0.0025),
}


def rolling_scales(samples: List[float], reference_s: float,
                   width: int = SPEED_WINDOW) -> List[float]:
    """Factors from this host's wall seconds to reference-host seconds: the
    reference pass time over the median of each sample's ``width``
    time-ordered neighbours."""
    half = width // 2
    return [reference_s / median(samples[max(0, i - half):i + half + 1])
            for i in range(len(samples))]


def children(node: dict, name: str) -> List[dict]:
    return [child for child in node.get("children", ()) if child["name"] == name]


def duration(node: Optional[dict]) -> float:
    return float((node or {}).get("duration_s") or 0.0)


def runtime_split(job_span: dict) -> Dict[str, float]:
    """Split one runtime job span (``Job.trace()``, or a service tree's
    ``circuit`` child) into its layers.

    ``queue_wait_s`` is each chunk's parent-side window minus the
    worker-measured ``worker_wall_s``: the time the chunk waited for a
    pool worker plus any pickling across a process boundary.
    """
    chunks = children(job_span, "chunk")
    busy = sum(float(c["attrs"].get("worker_wall_s", 0.0)) for c in chunks)
    prepare = sum(duration(p) for p in children(job_span, "prepare"))
    split = {
        "busy_s": busy,
        "prepare_s": prepare,
        "queue_wait_s": sum(
            max(0.0, duration(c) - float(c["attrs"].get("worker_wall_s", 0.0)))
            for c in chunks
        ),
        "collect_s": sum(duration(c) for c in children(job_span, "collect")),
        "self_s": max(0.0, duration(job_span) - busy - prepare),
        "chunk_retries": 0,
        "pool_rebuilds": 0,
        "engines": {},
    }
    for chunk in chunks:
        for event in chunk.get("events", ()):
            if event["name"] == "retry":
                split["chunk_retries"] += 1
            elif event["name"] == "pool_rebuild":
                split["pool_rebuilds"] += 1
        attrs = chunk["attrs"]
        engine = ENGINES.get(attrs.get("engine"), attrs.get("engine"))
        if engine:
            shots, wall = split["engines"].get(engine, (0, 0.0))
            split["engines"][engine] = (
                shots + int(attrs.get("worker_shots", 0)),
                wall + float(attrs.get("worker_wall_s", 0.0)),
            )
    return split


def status_kib(pid: int, field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Largest ``VmHWM`` (peak resident set) among ``pids``, in MiB."""
    return max((status_kib(pid, "VmHWM") for pid in pids), default=0) / 1024.0


def child_pids(parent: int) -> List[int]:
    """Live direct children of ``parent`` (pool workers), read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # The command name may hold spaces; fields resume after ')'.
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == parent:
            found.append(int(entry))
    return found


def tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                continue
    return total
