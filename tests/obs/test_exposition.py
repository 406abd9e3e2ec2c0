"""Golden list of the metric families one service exposes.

Every family counts its events once: a family that only repeated
another's count (or a value derived from one) was removed, and a new
family needs a deliberate change to this list.  The scrape runs in a
fresh interpreter so instruments and collectors other tests created in
this process cannot leak into it.
"""

import os
import subprocess
import sys
from pathlib import Path

_SCRIPT = """
import asyncio
from repro.circuits import library
from repro.obs.metrics import DEFAULT_REGISTRY
from repro.service import RuntimeService

async def main():
    service = RuntimeService(executor="thread")
    try:
        for seed in (1, 2, 3):
            circuit = library.ghz_state(2)
            circuit.measure_all()
            handle = await service.submit(circuit, "statevector", shots=64,
                                          seed=seed)
            await handle.result()
        await service.drain(30)
        for line in DEFAULT_REGISTRY.render_prometheus().splitlines():
            if line.startswith("# TYPE "):
                print(line.split()[2])
    finally:
        await service.close()

asyncio.run(main())
"""

FAMILIES = [
    "repro_breaker_rejections_total",
    "repro_breaker_state",
    "repro_breaker_transitions_total",
    "repro_cache_entries",
    "repro_cache_errors_total",
    "repro_cache_evictions_total",
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_cache_stores_total",
    "repro_cache_tier_entries",
    "repro_chunk_pool_resubmits_total",
    "repro_chunk_retries_total",
    "repro_cost_model_per_shot_seconds",
    "repro_cost_model_shot_samples_total",
    "repro_executor_pool_rebuilds_total",
    "repro_executor_pool_width",
    "repro_executor_pools_active",
    "repro_executor_pools_created_total",
    "repro_executor_pools_reused_total",
    "repro_scheduler_client_completed_jobs_total",
    "repro_scheduler_client_dispatched_batches_total",
    "repro_scheduler_client_submitted_jobs_total",
    "repro_scheduler_client_weight",
    "repro_scheduler_dispatched_batches_total",
    "repro_scheduler_in_flight_batches",
    "repro_scheduler_in_flight_jobs",
    "repro_scheduler_max_in_flight",
    "repro_scheduler_queue_wait_seconds",
    "repro_scheduler_queued_batches",
    "repro_service_client_completed_jobs_total",
    "repro_service_client_in_flight_jobs",
    "repro_service_clients",
    "repro_service_job_latency_seconds",
    "repro_service_known_jobs",
    "repro_service_rejected_total",
    "repro_service_settled_jobs_total",
    "repro_service_settlement_errors_total",
    "repro_service_submitted_jobs_total",
    "repro_service_uptime_seconds",
]


def test_service_exposes_exactly_the_golden_families():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == FAMILIES
    assert len(FAMILIES) == 39
