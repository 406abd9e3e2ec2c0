"""Shared configuration for the benchmark harness.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the regenerated
paper tables next to the timing numbers.

``bench_runtime.py`` cases additionally :func:`record` their wall-clocks
and speedups; at session end they are written to ``BENCH_runtime.json``
in the repo root, so the perf trajectory is machine-readable and can be
tracked across changes.  Smoke runs (``REPRO_STORM_SMOKE=1``) shrink the
storm cases to a load sanity check and write no ledger.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

#: ``REPRO_STORM_SMOKE=1``: shrink the storm cases for CI load checks.
SMOKE = os.environ.get("REPRO_STORM_SMOKE", "").strip() not in ("", "0")

#: Case name -> {"baseline_s", "optimized_s", "speedup", ...} fields.
_BENCH_RESULTS: dict = {}

#: Where the machine-readable runtime-bench record lands.
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"


def emit(text: str) -> None:
    """Print a regenerated table (visible with ``-s``)."""
    print()
    print(text)


def record(case: str, baseline_s: float, optimized_s: float, **extra) -> None:
    """Record one bench case's wall-clocks (and derived speedup).

    ``extra`` fields (shot counts, worker counts, ...) are stored
    verbatim so the JSON is self-describing; so is the machine's
    ``cpu_count``, since a merged ledger holds cases from many runs.
    """
    _BENCH_RESULTS[case] = dict(
        baseline_s=round(float(baseline_s), 6),
        optimized_s=round(float(optimized_s), 6),
        speedup=round(float(baseline_s) / float(optimized_s), 3)
        if optimized_s > 0
        else None,
        cpu_count=os.cpu_count(),
        **extra,
    )


def pytest_sessionfinish(session) -> None:
    """Merge every recorded case into ``BENCH_runtime.json`` (if any ran).

    Cases not re-run this session keep their previous record, so a
    partial bench invocation (``-k one_case``) never erases the rest of
    the tracked perf trajectory.  A smoke run writes nothing.
    """
    if SMOKE or not _BENCH_RESULTS:
        return
    cases: dict = {}
    try:
        previous = json.loads(BENCH_JSON_PATH.read_text())
        if isinstance(previous, dict) and isinstance(previous.get("cases"), dict):
            cases = previous["cases"]
    except (OSError, ValueError):
        pass  # no previous record (or corrupt): start fresh
    cases.update(_BENCH_RESULTS)
    payload = {
        "generated_unix": time.time(),
        "cases": dict(sorted(cases.items())),
    }
    BENCH_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
