"""Runtime bench: the batched execute() path vs the sequential run() loop.

The workload mirrors the paper's sweeps: a handful of distinct instrumented
circuits, each executed many times (noise points, shot counts, repeated
assertion variants).  The sequential baseline pays a fresh transpile and a
fresh density-matrix evolution per run — exactly what the seed code did.
The batched path goes through ``repro.runtime.execute`` with the transpile
cache and job deduplication on, so each distinct circuit is lowered and
simulated once and every duplicate job re-uses or re-samples the cached
distribution.

The v2 bench covers cross-call reuse: the distribution cache on a
repeated noisy sweep (the second call re-samples instead of
re-simulating).

The v3 bench covers the *cross-process* path: the same sweep run in two
fresh interpreter processes against one ``REPRO_CACHE_DIR``.  The first
(cold) process pays every transpile and simulation and persists them; the
second (warm) process serves everything from the disk-backed cache store —
zero transpiles, zero exact-distribution simulations, bit-identical
counts.

The v4 bench covers the scheduler: a long unseeded trajectory job under
``schedule="fixed"`` runs as one pool task, while ``schedule="adaptive"``
shards it into cost-model-sized chunks that saturate the process pool.

The v6/v7 benches storm the multi-tenant service layer (concurrent
tenants vs back-to-back submissions, plus the write-ahead-journal tax);
the v8 bench runs the same storm *over the HTTP wire* — OpenQASM + JSON
on every hop through ``repro.service.http`` — recording wire jobs/sec;
the v9 bench measures the always-on tracing tax (traced vs untraced
storm jobs/sec, asserted <=5%); the v10 bench runs the storm under the
fault-injection harness — an armed-but-silent plan must cost <=15% over a
clean storm, an actively-faulting plan must still terminate every job
with surviving counts bit-identical, and a killed process-pool worker
must heal via pool rebuild with zero failed jobs.

Counts are asserted bit-identical between every pair of paths (the
runtime's determinism contract) and each optimized wall-clock must beat
its baseline.

Run with ``pytest benchmarks/bench_runtime.py -s`` to see the numbers.
Every case also records its wall-clocks into ``BENCH_runtime.json`` (see
``conftest.record``) so the perf trajectory is tracked across PRs.
"""

import os
import statistics
import time

from conftest import SMOKE, emit, record

from repro.circuits import library
from repro.core.injector import AssertionInjector
from repro.devices.backend import NoisyDeviceBackend
from repro.devices.ibmqx4 import ibmqx4
from repro.runtime import DistributionCache, TranspileCache, execute, get_backend

SHOTS = 2048
SEED = 11
REPEATS = 4  # sweep repetitions of each distinct circuit


def sweep_circuits():
    """Build 4 distinct instrumented sweep variants (16 jobs with repeats)."""
    variants = []

    bell_classical = AssertionInjector(library.bell_pair())
    bell_classical.assert_classical(0, 0)
    bell_classical.measure_program()
    variants.append(bell_classical.circuit)

    bell_entangled = AssertionInjector(library.bell_pair())
    bell_entangled.assert_entangled([0, 1])
    bell_entangled.measure_program()
    variants.append(bell_entangled.circuit)

    for mode in ("pairwise", "single"):
        ghz = AssertionInjector(library.ghz_state(3))
        ghz.assert_entangled([0, 1, 2], mode=mode)
        ghz.measure_program()
        variants.append(ghz.circuit)

    return variants * REPEATS


def test_batched_execute_beats_sequential_loop():
    device = ibmqx4()
    circuits = sweep_circuits()
    assert len(circuits) >= 8

    # Sequential baseline: fresh transpile + fresh simulation per run, the
    # way the experiments executed before the runtime existed.
    uncached = NoisyDeviceBackend(device, cache=False)
    start = time.perf_counter()
    sequential = [uncached.run(c, shots=SHOTS, seed=SEED) for c in circuits]
    sequential_s = time.perf_counter() - start

    # Batched path: one execute() call, shared cache, dedupe, thread pool.
    cache = TranspileCache()
    cached = NoisyDeviceBackend(device, cache=cache)
    start = time.perf_counter()
    jobs = execute(circuits, cached, shots=SHOTS, seed=SEED, max_workers=4)
    batched = jobs.result()
    batched_s = time.perf_counter() - start

    for loop_result, job_result in zip(sequential, batched):
        assert dict(loop_result.counts) == dict(job_result.counts)

    distinct = len(set(c.fingerprint() for c in circuits))
    assert jobs.num_executed == distinct
    assert cache.stats()["misses"] == distinct
    # Dedup cuts the simulated work 4x, so this wall-clock comparison has
    # ~300% headroom against scheduler noise on shared CI runners; the
    # semantic guarantees are carried by the equality asserts above.
    assert batched_s < sequential_s, (
        f"batched path ({batched_s:.3f}s) should beat the sequential loop "
        f"({sequential_s:.3f}s)"
    )
    record(
        "batched_execute_vs_sequential_loop", sequential_s, batched_s,
        jobs=len(circuits), distinct_circuits=distinct,
    )
    emit(
        "runtime bench — batched execute() vs sequential backend.run() loop\n"
        f"jobs            : {len(circuits)} ({distinct} distinct circuits)\n"
        f"sequential loop : {sequential_s:8.3f} s\n"
        f"batched execute : {batched_s:8.3f} s  "
        f"(speedup {sequential_s / batched_s:.1f}x, "
        f"{jobs.num_executed} simulations, "
        f"{cache.stats()['hits']} transpile-cache hits)"
    )


def test_resampled_shot_sweep_simulates_once():
    """A shots/seed sweep over one circuit runs a single simulation."""
    device = ibmqx4()
    injector = AssertionInjector(library.bell_pair())
    injector.assert_entangled([0, 1])
    injector.measure_program()
    circuit = injector.circuit

    shots = [512, 1024, 2048, 4096, 512, 1024, 2048, 4096]
    seeds = [1, 2, 3, 4, 5, 6, 7, 8]
    backend = NoisyDeviceBackend(device, cache=TranspileCache())

    start = time.perf_counter()
    jobs = execute([circuit] * 8, backend, shots=shots, seed=seeds, max_workers=4)
    results = jobs.result()
    batched_s = time.perf_counter() - start
    assert jobs.num_executed == 1

    start = time.perf_counter()
    dedicated = [
        NoisyDeviceBackend(device, cache=False).run(circuit, shots=n, seed=s)
        for n, s in zip(shots, seeds)
    ]
    sequential_s = time.perf_counter() - start

    for loop_result, job_result in zip(dedicated, results):
        assert dict(loop_result.counts) == dict(job_result.counts)
    record("resampled_shot_sweep", sequential_s, batched_s, jobs=8)
    emit(
        "runtime bench — 8-point shot/seed sweep of one circuit\n"
        f"sequential loop : {sequential_s:8.3f} s (8 simulations)\n"
        f"batched execute : {batched_s:8.3f} s (1 simulation + 7 resamples, "
        f"speedup {sequential_s / batched_s:.1f}x)"
    )


def test_cross_call_distribution_cache_resamples_repeat_sweep():
    """v2: a repeated noisy sweep re-samples from the distribution cache.

    The first call simulates each distinct circuit once and populates the
    cache; the second call — new seeds, same circuits and backend — never
    touches the backend, yet every count histogram is bit-identical to a
    dedicated uncached run.  Strictly less work, so the wall-clock win
    holds even on a single-core runner.
    """
    device = ibmqx4()
    circuits = sweep_circuits()[:8]  # 4 distinct variants x 2
    backend = NoisyDeviceBackend(device, cache=TranspileCache())
    cache = DistributionCache()

    start = time.perf_counter()
    first = execute(
        circuits, backend, shots=2048, seed=list(range(1, 9)),
        distribution_cache=cache,
    )
    first_counts = first.counts()
    first_s = time.perf_counter() - start
    assert first.num_executed == 4  # one real simulation per distinct circuit
    assert first.num_cached == 0

    second_seeds = list(range(101, 109))
    start = time.perf_counter()
    second = execute(
        circuits, backend, shots=2048, seed=second_seeds,
        distribution_cache=cache,
    )
    second_counts = second.counts()
    second_s = time.perf_counter() - start
    assert second.num_executed == 0  # every job served without simulating
    assert second.num_cached == 4
    assert cache.stats()["hits"] == 4

    # Bit-identical to the dedicated, uncached, serial path.
    uncached = NoisyDeviceBackend(device, cache=False)
    for circuit, seed, counts in zip(circuits, second_seeds, second_counts):
        dedicated = uncached.run(circuit, shots=2048, seed=seed)
        assert dict(counts) == dict(dedicated.counts)
    assert len(first_counts) == len(second_counts)

    assert second_s < first_s, (
        f"cached sweep ({second_s:.3f}s) should beat the simulating sweep "
        f"({first_s:.3f}s)"
    )
    record("distribution_cache_repeat_sweep", first_s, second_s, jobs=len(circuits))
    emit(
        "runtime bench — repeated noisy sweep, cold vs warm distribution cache\n"
        f"jobs            : {len(circuits)} (4 distinct circuits)\n"
        f"first call      : {first_s:8.3f} s (4 simulations, cache cold)\n"
        f"second call     : {second_s:8.3f} s (0 simulations, 4 cache hits, "
        f"speedup {first_s / second_s:.1f}x)"
    )


def test_adaptive_chunking_saturates_pool_on_trajectory_engine():
    """v4: cost-driven chunk sizing vs the fixed single-task plan.

    The trajectory engine pays per shot, so a long unseeded job under the
    fixed schedule occupies exactly one process-pool worker while the rest
    idle.  The adaptive schedule reads the cost model's measured per-shot
    cost (learned here from a short probe run — in production, from any
    earlier call or a persisted profile) and shards the job to saturate
    the pool.  The job is unseeded because that is where adaptive chunking
    applies automatically (a caller seed pins the chunk plan; see the
    scheduler's determinism contract), so the assertions are structural
    (chunk count, total shots) plus the wall-clock win where the cores
    exist to deliver it.
    """
    backend = get_backend("trajectory:ibmqx4", noise_scale=0.25)
    injector = AssertionInjector(library.bell_pair())
    injector.assert_entangled([0, 1])
    injector.measure_program()
    circuit = injector.circuit
    # Long enough that the learned estimate clears the planner's split bar
    # (width x SPLIT_THRESHOLD_SECONDS) several times over: the batched
    # engine runs a Bell job of a couple of thousand shots so fast that the
    # planner rightly keeps it whole.
    shots = 16384
    # A fixed 4-wide pool: the planner sizes chunks for the pool it is
    # given, and the wall-clock assertion below is gated on the cores
    # actually existing to back those workers.
    workers = 4

    # Probe: one short seeded run teaches the model this engine's cost.
    execute(circuit, backend, shots=64, seed=1, executor="serial").result()

    start = time.perf_counter()
    fixed = execute(
        circuit, backend, shots=shots, executor="process",
        max_workers=workers, schedule="fixed",
    )
    fixed.result()
    fixed_s = time.perf_counter() - start

    start = time.perf_counter()
    adaptive = execute(
        circuit, backend, shots=shots, executor="process",
        max_workers=workers, schedule="adaptive",
    )
    adaptive.result()
    adaptive_s = time.perf_counter() - start

    assert len(fixed._futures) == 1  # the fixed plan is one pool task
    chunk = adaptive.plan["chunk_shots"]
    assert chunk is not None and chunk < shots  # the model forced a split
    assert len(adaptive._futures) > 1
    assert adaptive.result().counts.shots == shots
    if (os.cpu_count() or 1) >= 4:
        # With >=4 cores the fixed plan leaves 3 of them idle, so the
        # sharded plan has ~3x headroom against pool/pickle overhead.
        assert adaptive_s < fixed_s, (
            f"adaptive chunking ({adaptive_s:.3f}s) should beat the "
            f"single-task fixed plan ({fixed_s:.3f}s) on {os.cpu_count()} cores"
        )
    record(
        "adaptive_chunking_trajectory", fixed_s, adaptive_s,
        shots=shots, workers=workers, chunk_shots=chunk,
    )
    emit(
        "runtime bench — trajectory engine, fixed vs adaptive chunking\n"
        f"job             : {shots} unseeded shots, {workers} process workers\n"
        f"fixed schedule  : {fixed_s:8.3f} s (1 task)\n"
        f"adaptive        : {adaptive_s:8.3f} s ({len(adaptive._futures)} tasks "
        f"of <= {chunk} shots, speedup {fixed_s / adaptive_s:.1f}x)"
    )


#: Cold/warm interpreter pairs the warm-cache gate takes the median of.
COLD_WARM_PAIRS = 7


def _run_sweep_process(cache_dir):
    """Time the shared cross-process sweep driver (all four variants)."""
    from repro.runtime.harness import VARIANT_NAMES, run_sweep_process

    return run_sweep_process(
        cache_dir=cache_dir, variants=VARIANT_NAMES, shots=2048, repeats=4
    )


def test_warm_disk_cache_accelerates_cold_process(tmp_path):
    """v3: a fresh process with a warm REPRO_CACHE_DIR skips all the work.

    Both runs pay interpreter startup and imports; only the first pays
    transpilation and density-matrix simulation.  The warm process must
    report zero transpile misses and zero executed simulations while
    producing bit-identical counts — the paper's "pay the analysis once"
    discipline surviving the interpreter.

    The two times differ by less than a loaded host's run-to-run spread,
    so the gate compares medians over ``COLD_WARM_PAIRS`` alternating
    cold/warm interpreter pairs, each cold run on a fresh directory.
    """
    cold_times, warm_times = [], []
    for pair in range(COLD_WARM_PAIRS):
        cache_dir = tmp_path / f"cache-{pair}"
        cold, cold_s = _run_sweep_process(cache_dir)
        warm, warm_s = _run_sweep_process(cache_dir)
        assert warm["counts"] == cold["counts"]
        assert cold["executed"] == 4  # one simulation per distinct circuit
        assert warm["executed"] == 0
        assert warm["cached"] == 4
        assert warm["transpile"]["misses"] == 0
        assert warm["distribution"]["misses"] == 0
        cold_times.append(cold_s)
        warm_times.append(warm_s)
    cold_s = statistics.median(cold_times)
    warm_s = statistics.median(warm_times)
    assert warm_s < cold_s, (
        f"warm process ({warm_s:.3f}s) should beat the cold process "
        f"({cold_s:.3f}s); medians of {COLD_WARM_PAIRS} pairs"
    )
    record("warm_disk_cache_cold_process", cold_s, warm_s,
           jobs=len(cold["counts"]), pairs=COLD_WARM_PAIRS)
    emit(
        "runtime bench — same sweep in two processes, one REPRO_CACHE_DIR\n"
        f"jobs            : {len(cold['counts'])} (4 distinct circuits)\n"
        f"cold process    : {cold_s:8.3f} s median of {COLD_WARM_PAIRS} "
        f"(4 simulations, {cold['transpile']['misses']} transpiles)\n"
        f"warm process    : {warm_s:8.3f} s median of {COLD_WARM_PAIRS} "
        f"(0 simulations, 0 transpiles, speedup {cold_s / warm_s:.1f}x)"
    )


def test_service_storm_many_clients(tmp_path):
    """v6: the multi-tenant async service under a many-client storm.

    Baseline: the same submissions driven strictly one at a time
    (submit, await, collect, repeat) — every job pays the full queue
    round-trip latency back to back.  Optimized: all clients submit
    concurrently through ``RuntimeService`` and stream completions via
    ``as_completed()``, so queue machinery, dispatch and collection
    pipeline across submissions.  Quotas and rate limits are live for
    every tenant, and one sampled submission is asserted bit-identical
    to plain ``execute()`` (the service never touches counts).

    The v7 rider measures the durability tax: a *sustained* storm — a
    distinct circuit per submission, so every job pays a real transpile
    and density-matrix simulation instead of a cache resample — run
    plain vs with the write-ahead job journal and cost ledger writing
    every submission and settlement through to disk.  The journaled run
    must stay within 10% of the plain wall-clock (best-of runs; a ratio
    of two same-box runs, so shared-load noise mostly cancels).  And a
    service that has completed exactly one job must report a sane
    jobs/sec — bounded by one-per-elapsed, never the ~1e9/s the pre-fix
    ``RateMeter`` gave a single early event.

    ``REPRO_STORM_SMOKE=1`` shrinks the storm for CI smoke runs, which
    record nothing.
    """
    import asyncio

    from repro.service import ClientQuota, RuntimeService

    clients = 3 if SMOKE else 6
    per_client = 3 if SMOKE else 8
    shots = 256
    circuit = library.bell_pair()
    circuit.measure_all()
    backend = get_backend("statevector")
    reference = execute(circuit, backend, shots=shots, seed=0).result().counts
    quota = ClientQuota(max_in_flight_jobs=4, over_quota="queue")

    async def sequential() -> float:
        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False)
        try:
            tokens = [
                service.register_client(f"seq{c}", quota=quota)
                for c in range(clients)
            ]
            start = time.perf_counter()
            for c, token in enumerate(tokens):
                for i in range(per_client):
                    handle = await service.submit(
                        circuit, backend, shots=shots,
                        seed=c * per_client + i, token=token,
                    )
                    await handle.result()
            return time.perf_counter() - start
        finally:
            await service.close()

    async def storm():
        # Explicitly journal-less, even when $REPRO_CACHE_DIR is set.
        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False)
        try:
            tokens = [
                service.register_client(f"storm{c}", quota=quota)
                for c in range(clients)
            ]

            async def one_client(c, token):
                handles = [
                    await service.submit(
                        circuit, backend, shots=shots,
                        seed=c * per_client + i, token=token,
                    )
                    for i in range(per_client)
                ]
                async for handle in service.as_completed(handles, timeout=300):
                    assert handle.status() == "done"
                return handles

            start = time.perf_counter()
            all_handles = await asyncio.gather(*(
                one_client(c, token) for c, token in enumerate(tokens)
            ))
            elapsed = time.perf_counter() - start
            sampled = await all_handles[0][0].counts()
            assert sampled[0] == reference  # seed 0: service == execute()
            return elapsed, service.stats()
        finally:
            await service.close()

    async def single_job():
        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False)
        try:
            token = service.register_client("solo")
            handle = await service.submit(circuit, backend, shots=shots,
                                          seed=0, token=token)
            await handle.result()
            stats = service.stats()
            return stats["jobs_per_second"], stats["uptime_s"]
        finally:
            await service.close()

    run_offsets = iter(range(0, 10_000_000, 10_000))

    def sustained_circuit(index):
        circuit = library.ghz_state(4)
        circuit.rz(1e-4 * (index + 1), 0)  # distinct fingerprint per job
        circuit.measure_all()
        return circuit

    async def sustained(cache_dir=None):
        # A distinct circuit per submission: no distribution-cache
        # resampling, every job pays a real transpile + density-matrix
        # simulation, so wall-clock measures sustained throughput.  Each
        # run draws fresh angles so no run warms another's caches.
        base = next(run_offsets)
        if cache_dir is None:
            service = RuntimeService(executor="thread", journal=False,
                                     accounting=False)
        else:
            service = RuntimeService(executor="thread",
                                     cache_dir=str(cache_dir))
        try:
            tokens = [
                service.register_client(f"sus{c}", quota=quota)
                for c in range(clients)
            ]

            async def one_client(c, token):
                handles = [
                    await service.submit(
                        sustained_circuit(base + c * per_client + i),
                        "noisy:ibmqx4", shots=shots,
                        seed=c * per_client + i, token=token,
                    )
                    for i in range(per_client)
                ]
                async for handle in service.as_completed(handles,
                                                         timeout=300):
                    assert handle.status() == "done"

            start = time.perf_counter()
            await asyncio.gather(*(
                one_client(c, token) for c, token in enumerate(tokens)
            ))
            return time.perf_counter() - start
        finally:
            await service.close()

    sequential_s = asyncio.run(sequential())
    storm_s, stats = asyncio.run(storm())

    # Journaling overhead on the sustained storm: best-of runs on both
    # sides, with escalation rounds against wall-clock noise.
    asyncio.run(sustained())  # warm-up: code paths, not circuits
    sustained_s = asyncio.run(sustained())
    journaled_s = None
    for attempt in range(3):
        candidate = asyncio.run(sustained(tmp_path / f"journal{attempt}"))
        journaled_s = candidate if journaled_s is None else min(
            journaled_s, candidate
        )
        if journaled_s <= sustained_s * 1.10:
            break
        sustained_s = min(sustained_s, asyncio.run(sustained()))
    overhead = journaled_s / sustained_s - 1.0
    assert journaled_s <= sustained_s * 1.10, (
        f"write-ahead journaling ({journaled_s:.3f}s) should cost <=10% "
        f"over the plain sustained storm ({sustained_s:.3f}s), "
        f"got {overhead:+.1%}"
    )

    jobs = clients * per_client
    assert stats["completed_jobs"] == jobs
    latency = stats["queue_latency"]
    assert latency["total_count"] == jobs
    assert latency["p99_s"] is not None
    # Bounded tail: queueing may stack client batches, but the p99 wait
    # must stay within the storm's own wall-clock (no stuck submissions).
    assert latency["p99_s"] <= storm_s
    jobs_per_second = jobs / storm_s

    # One completed job can never legitimately report more than
    # one-per-elapsed (the pre-fix RateMeter said ~1e9/s here).
    single_rate, single_uptime = asyncio.run(single_job())
    assert 0.0 < single_rate <= 1.05 / min(single_uptime, 60.0), (
        f"one completed job after {single_uptime:.3f}s reported "
        f"{single_rate:.3g} jobs/s"
    )

    record(
        "service_storm_many_clients",
        sequential_s,
        storm_s,
        clients=clients,
        jobs=jobs,
        shots_per_job=shots,
        jobs_per_second=round(jobs_per_second, 2),
        queue_p50_s=round(latency["p50_s"], 6),
        queue_p99_s=round(latency["p99_s"], 6),
        sustained_s=round(sustained_s, 6),
        journaled_s=round(journaled_s, 6),
        journaling_overhead=round(overhead, 4),
        single_job_rate=round(single_rate, 6),
    )
    emit(
        "runtime bench — many-client storm through repro.service\n"
        f"storm           : {clients} clients x {per_client} submissions "
        f"({jobs} jobs, quotas + rate limits live)\n"
        f"sequential      : {sequential_s:8.3f} s\n"
        f"service storm   : {storm_s:8.3f} s  "
        f"({jobs_per_second:.1f} jobs/s, p50 {latency['p50_s'] * 1e3:.1f} ms, "
        f"p99 {latency['p99_s'] * 1e3:.1f} ms, "
        f"speedup {sequential_s / storm_s:.1f}x)\n"
        f"sustained storm : {sustained_s:8.3f} s plain, {journaled_s:8.3f} s "
        f"journaled (write-ahead journal + cost ledger, "
        f"overhead {overhead:+.1%})\n"
        f"single-job rate : {single_rate:8.3f} jobs/s after "
        f"{single_uptime:.3f}s uptime (sane, not ~1e9)"
    )


def test_service_wire_storm():
    """v8: the same storm over the HTTP wire instead of in-process.

    Baseline: one :class:`ServiceClient` submits and awaits one job at a
    time over HTTP — every job pays the full request/queue/response
    round trip back to back.  Optimized: every tenant drives its own
    client on its own thread against one :class:`BackgroundServer`, so
    HTTP parsing, admission, dispatch and collection pipeline across
    connections.  One sampled submission is asserted bit-identical to
    plain ``execute()`` — OpenQASM serialization, the JSON hop and the
    asyncio front-end must not perturb counts.

    ``REPRO_STORM_SMOKE=1`` shrinks the storm for CI smoke runs, which
    record nothing.
    """
    import threading

    from repro.service import (
        BackgroundServer,
        ClientQuota,
        RuntimeService,
        ServiceClient,
    )

    clients = 3 if SMOKE else 6
    per_client = 3 if SMOKE else 8
    shots = 256
    circuit = library.bell_pair()
    circuit.measure_all()
    reference = dict(
        execute(circuit, "statevector", shots=shots, seed=0).result().counts
    )
    quota = ClientQuota(max_in_flight_jobs=4, over_quota="queue")

    service = RuntimeService(executor="thread", journal=False,
                             accounting=False)
    tokens = {
        f"wire{c}": service.register_client(f"wire{c}", quota=quota)
        for c in range(clients)
    }
    with BackgroundServer(service) as server:
        # Sequential over-the-wire baseline: one tenant, one job in
        # flight, full HTTP round trip per job.
        with ServiceClient(server.url, token=tokens["wire0"]) as client:
            start = time.perf_counter()
            for i in range(per_client * clients):
                job_id = client.submit(circuit, "statevector", shots=shots,
                                       seed=i)
                client.counts(job_id, timeout=120)
            sequential_s = time.perf_counter() - start

        # The storm: one client per tenant, each on its own thread.
        sampled = {}

        def one_client(c, token):
            with ServiceClient(server.url, token=token) as client:
                job_ids = [
                    client.submit(circuit, "statevector", shots=shots,
                                  seed=c * per_client + i)
                    for i in range(per_client)
                ]
                counts = [client.counts(j, timeout=120) for j in job_ids]
                if c == 0:
                    sampled["counts"] = counts[0][0]

        threads = [
            threading.Thread(target=one_client, args=(c, token))
            for c, (_name, token) in enumerate(sorted(tokens.items()))
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        storm_s = time.perf_counter() - start

    assert sampled["counts"] == reference  # seed 0: wire == execute()
    jobs = clients * per_client
    jobs_per_second = jobs / storm_s

    record(
        "service_wire_storm",
        sequential_s,
        storm_s,
        clients=clients,
        per_client=per_client,
        jobs=jobs,
        shots_per_job=shots,
        jobs_per_second=round(jobs_per_second, 2),
    )
    emit(
        "runtime bench — storm over the HTTP wire (repro.service.http)\n"
        f"storm           : {clients} clients x {per_client} submissions "
        f"({jobs} jobs over HTTP, QASM + JSON on every hop)\n"
        f"sequential wire : {sequential_s:8.3f} s\n"
        f"threaded wire   : {storm_s:8.3f} s  "
        f"({jobs_per_second:.1f} jobs/s, "
        f"speedup {sequential_s / storm_s:.1f}x)"
    )


def test_traced_storm_overhead():
    """v9: the tracing tax — the same many-client storm, spans off vs on.

    Tracing is always-on in production, so its cost is measured the way
    it is paid: the full service storm (admission, queue, dispatch,
    chunk fan-out, settle) run once with ``set_tracing_enabled(False)``
    and once with span trees recording every stage, including the
    worker-side chunk records shipped back across the executor boundary.
    The traced storm must stay within 5% of the untraced wall-clock
    (best-of runs with escalation, same-box ratio so shared-load noise
    mostly cancels).  The traced run is asserted to actually produce
    full span trees — a "win" from tracing silently not happening would
    be meaningless.

    ``REPRO_STORM_SMOKE=1`` shrinks the storm for CI smoke runs, which
    record nothing.
    """
    import asyncio

    from repro.obs import set_tracing_enabled
    from repro.service import ClientQuota, RuntimeService

    clients = 3 if SMOKE else 6
    per_client = 3 if SMOKE else 8
    shots = 256
    circuit = library.bell_pair()
    circuit.measure_all()
    backend = get_backend("statevector")
    quota = ClientQuota(max_in_flight_jobs=4, over_quota="queue")

    async def storm():
        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False)
        try:
            tokens = [
                service.register_client(f"trc{c}", quota=quota)
                for c in range(clients)
            ]

            async def one_client(c, token):
                handles = [
                    await service.submit(
                        circuit, backend, shots=shots,
                        seed=c * per_client + i, token=token,
                    )
                    for i in range(per_client)
                ]
                async for handle in service.as_completed(handles,
                                                         timeout=300):
                    assert handle.status() == "done"
                return handles

            start = time.perf_counter()
            all_handles = await asyncio.gather(*(
                one_client(c, token) for c, token in enumerate(tokens)
            ))
            elapsed = time.perf_counter() - start
            return elapsed, all_handles[0][0].trace()
        finally:
            await service.close()

    def run_storm(traced):
        previous = set_tracing_enabled(traced)
        try:
            return asyncio.run(storm())
        finally:
            set_tracing_enabled(previous)

    def walk(node):
        yield node
        for child in node.get("children", ()):
            yield from walk(child)

    run_storm(True)  # warm-up: code paths and caches, not the clock

    untraced_s, stub = run_storm(False)
    assert stub["span_id"] is None  # the off switch really was off

    traced_s = None
    trace = None
    for attempt in range(3):
        candidate_s, candidate_trace = run_storm(True)
        if traced_s is None or candidate_s < traced_s:
            traced_s, trace = candidate_s, candidate_trace
        if traced_s <= untraced_s * 1.05:
            break
        untraced_s = min(untraced_s, run_storm(False)[0])

    # The traced run recorded the full tree: every stage plus the
    # worker-side chunk record merged back across the executor boundary.
    assert trace["span_id"] is not None
    stages = {node["name"] for node in walk(trace)}
    assert {"job", "admission", "queue", "dispatch", "chunk"} <= stages
    chunks = [n for n in walk(trace) if n["name"] == "chunk"]
    assert all(n["attrs"]["worker_wall_s"] >= 0.0 for n in chunks)

    overhead = traced_s / untraced_s - 1.0
    assert traced_s <= untraced_s * 1.05, (
        f"always-on tracing ({traced_s:.3f}s) should cost <=5% over the "
        f"untraced storm ({untraced_s:.3f}s), got {overhead:+.1%}"
    )

    jobs = clients * per_client
    record(
        "traced_storm_overhead",
        untraced_s,
        traced_s,
        clients=clients,
        jobs=jobs,
        shots_per_job=shots,
        untraced_jobs_per_second=round(jobs / untraced_s, 2),
        traced_jobs_per_second=round(jobs / traced_s, 2),
        tracing_overhead=round(overhead, 4),
        spans_per_job=len(list(walk(trace))),
    )
    emit(
        "runtime bench — tracing tax on the many-client storm\n"
        f"storm           : {clients} clients x {per_client} submissions "
        f"({jobs} jobs, full span trees per job)\n"
        f"untraced storm  : {untraced_s:8.3f} s "
        f"({jobs / untraced_s:.1f} jobs/s)\n"
        f"traced storm    : {traced_s:8.3f} s "
        f"({jobs / traced_s:.1f} jobs/s, {len(list(walk(trace)))} spans/job, "
        f"overhead {overhead:+.1%})"
    )


def test_chaos_storm_resilience():
    """v10: the many-client storm under the fault-injection harness.

    Three questions, one workload.  First, the cost of *capability*: the
    same storm with an armed-but-silent plan (every site at rate 0.0, so
    each chunk attempt consults the plan and fires nothing) must stay
    within 15% of the clean storm's wall-clock — resilience machinery
    may not tax the fault-free path.  Second, behaviour under real
    chaos: with ~20% of chunk attempts faulting, retries must terminate
    every job, almost all must survive, and every survivor's counts must
    stay bit-identical to the clean reference (retries resubmit with the
    chunk's original seed).  Third, the acceptance scenario: a
    process-pool worker hard-killed mid-storm heals through pool rebuild
    + resubmission with *zero* failed jobs.

    ``REPRO_STORM_SMOKE=1`` shrinks the storm for CI smoke runs, which
    record nothing.
    """
    import asyncio

    from repro.faults import FaultPlan
    from repro.runtime import pool_stats
    from repro.service import ClientQuota, RuntimeService

    clients = 3 if SMOKE else 6
    per_client = 3 if SMOKE else 8
    jobs = clients * per_client
    shots = 256
    retry = {"max_retries": 3, "backoff_s": 0.001, "max_backoff_s": 0.01}
    circuit = library.bell_pair()
    circuit.measure_all()
    backend = get_backend("statevector")
    quota = ClientQuota(max_in_flight_jobs=4, over_quota="queue")
    reference = {
        seed: dict(execute(circuit, backend, shots=shots,
                           seed=seed).result().counts)
        for seed in range(jobs)
    }

    async def storm(fault_plan=None, executor="thread", chunk_shots=None,
                    reference=reference):
        service = RuntimeService(executor=executor, journal=False,
                                 accounting=False)
        try:
            tokens = [
                service.register_client(f"chaos{c}", quota=quota)
                for c in range(clients)
            ]

            async def one_client(c, token):
                options = dict(retry=dict(retry))
                if fault_plan is not None:
                    options["fault_plan"] = fault_plan
                if chunk_shots is not None:
                    options["chunk_shots"] = chunk_shots
                handles = [
                    (c * per_client + i, await service.submit(
                        circuit, backend, shots=shots,
                        seed=c * per_client + i, token=token, **options,
                    ))
                    for i in range(per_client)
                ]
                async for _h in service.as_completed(
                    [h for _s, h in handles], timeout=300
                ):
                    pass
                return handles

            start = time.perf_counter()
            all_handles = await asyncio.gather(*(
                one_client(c, token) for c, token in enumerate(tokens)
            ))
            elapsed = time.perf_counter() - start
            survived = failed = 0
            for handles in all_handles:
                for seed, handle in handles:
                    if handle.status() == "done":
                        survived += 1
                        counts = await handle.counts()
                        assert counts == [reference[seed]], (
                            f"survivor seed {seed} diverged from the "
                            "fault-free reference"
                        )
                    else:
                        failed += 1
            return elapsed, survived, failed
        finally:
            await service.close()

    def run_storm(**kwargs):
        return asyncio.run(storm(**kwargs))

    silent_sites = {site: 0.0 for site in
                    ("chunk.simulate", "pool.worker_crash")}

    # -- capability tax: armed-but-silent plan vs clean, best-of runs ----
    run_storm()  # warm-up: pools, transpiles, distribution machinery
    clean_s, survived, failed = run_storm()
    assert (survived, failed) == (jobs, 0)
    armed_s = None
    for _attempt in range(3):
        candidate, survived, failed = run_storm(
            fault_plan=FaultPlan(seed=1, sites=dict(silent_sites))
        )
        assert (survived, failed) == (jobs, 0)
        armed_s = candidate if armed_s is None else min(armed_s, candidate)
        if armed_s <= clean_s * 1.15:
            break
        best, _s, _f = run_storm()
        clean_s = min(clean_s, best)
    injection_overhead = armed_s / clean_s - 1.0
    assert armed_s <= clean_s * 1.15, (
        f"armed-but-silent fault plan ({armed_s:.3f}s) should cost <=15% "
        f"over the clean storm ({clean_s:.3f}s), got {injection_overhead:+.1%}"
    )

    # -- live chaos: ~20% of chunk attempts fault, retries absorb it ----
    plan = FaultPlan(seed=13, sites={"chunk.simulate": 0.2})
    faulted_s, survived, failed = run_storm(fault_plan=plan)
    fired = plan.stats()["chunk.simulate"]["fired"]
    assert fired > 0, "a 20% plan that never fired measured nothing"
    assert survived + failed == jobs  # every job terminated
    assert survived >= jobs * 0.8

    # -- acceptance: a worker hard-killed mid-storm, zero failed jobs ----
    # Chunked jobs re-seed per (seed, chunk index), so the crash storm's
    # survivors are held against a reference computed the same way.
    chunked_reference = {
        seed: dict(execute(circuit, backend, shots=shots, seed=seed,
                           chunk_shots=shots // 4, executor="process",
                           retry=False).result().counts)
        for seed in range(jobs)
    }
    rebuilds_before = pool_stats()["rebuilds"]
    crash_plan = FaultPlan(seed=2, sites={
        "pool.worker_crash": {"rate": 1.0, "times": 1},
    })
    crash_s, crash_survived, crash_failed = run_storm(
        fault_plan=crash_plan, executor="process", chunk_shots=shots // 4,
        reference=chunked_reference,
    )
    assert crash_plan.stats()["pool.worker_crash"]["fired"] == 1
    assert (crash_survived, crash_failed) == (jobs, 0)
    assert pool_stats()["rebuilds"] > rebuilds_before

    record(
        "chaos_storm_resilience",
        clean_s,
        armed_s,
        clients=clients,
        jobs=jobs,
        shots_per_job=shots,
        clean_jobs_per_second=round(jobs / clean_s, 2),
        armed_jobs_per_second=round(jobs / armed_s, 2),
        injection_overhead=round(injection_overhead, 4),
        faulted_s=round(faulted_s, 6),
        faulted_jobs_per_second=round(jobs / faulted_s, 2),
        faults_fired=fired,
        faulted_survived=survived,
        faulted_failed=failed,
        crash_storm_s=round(crash_s, 6),
        crash_jobs_per_second=round(jobs / crash_s, 2),
    )
    emit(
        "runtime bench — storm resilience under fault injection\n"
        f"storm           : {clients} clients x {per_client} submissions "
        f"({jobs} jobs, retries live)\n"
        f"clean storm     : {clean_s:8.3f} s ({jobs / clean_s:.1f} jobs/s)\n"
        f"armed (silent)  : {armed_s:8.3f} s ({jobs / armed_s:.1f} jobs/s, "
        f"overhead {injection_overhead:+.1%})\n"
        f"faulted (20%)   : {faulted_s:8.3f} s ({jobs / faulted_s:.1f} "
        f"jobs/s, {fired} faults fired, {survived}/{jobs} survived, "
        f"{failed} failed)\n"
        f"worker crash    : {crash_s:8.3f} s (process pool killed once, "
        f"rebuilt, {crash_survived}/{jobs} jobs done, 0 failed)"
    )
