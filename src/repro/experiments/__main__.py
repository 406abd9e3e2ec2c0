"""Command-line experiment runner.

Regenerates every paper artifact and ablation from the terminal::

    python -m repro.experiments                  # everything
    python -m repro.experiments table1           # one experiment
    python -m repro.experiments --list           # show the index
    python -m repro.experiments sweep --workers 4 --runtime-stats

Each experiment prints the same paper-vs-measured summary the benchmarks
assert on.  Execution flows through :mod:`repro.runtime`: batch-shaped
experiments (the noise sweep, the scaling study) fan their jobs out over
the runtime's shared executors (``--workers``, ``--executor
serial|thread|process``), every device run shares the runtime's transpile
cache (``--runtime-stats`` prints cache and pool statistics, or
``--no-transpile-cache`` empties and disables reuse for A/B timing), the
service layer can be exposed over HTTP with ``--serve HOST:PORT`` (plus
``--serve-client NAME:TOKEN[:SCOPES]`` to pre-register tenants), the
noise sweep re-samples repeat runs through the cross-call distribution
cache, ``--cache-dir PATH`` (or ``$REPRO_CACHE_DIR``) persists the
caches on disk so a *second invocation* skips transpiles and
exact-distribution simulations entirely, ``--list-backends`` shows
the provider registry's spec strings, and ``--service-demo`` drives a
small multi-client storm through the async service layer
(:mod:`repro.service`) and prints its stats snapshot.

Observability hooks: ``--runtime-stats-json PATH`` writes the process-wide
metrics registry snapshot (:mod:`repro.obs.metrics` — the same numbers a
``/v1/metrics`` scrape exposes) as machine-readable JSON, and ``--trace
svc-N --server URL [--token TOKEN]`` fetches a job's trace span tree from
a running ``--serve`` front-end and renders it as an indented stage tree
with per-span wall-clock durations.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from repro.experiments import (
    run_amplification,
    run_baseline_comparison,
    run_fig6,
    run_fig7,
    run_mitigation_comparison,
    run_noise_sweep,
    run_parity_ablation,
    run_phase_ablation,
    run_scaling,
    run_sec43,
    run_table1,
    run_table2,
)

#: Experiment id -> (description, runner taking (workers, executor)).
#: Runners whose workload is batch-shaped forward both to the runtime's
#: shared pools; single-job experiments ignore them.
Runner = Callable[[Optional[int], Optional[str]], object]
EXPERIMENTS: Dict[str, tuple] = {
    "fig6": (
        "E1: classical assertion, QUIRK-style",
        lambda workers, executor: run_fig6(),
    ),
    "fig7": (
        "E2: superposition assertion, QUIRK-style",
        lambda workers, executor: run_fig7(),
    ),
    "table1": (
        "E3: classical assertion on ibmqx4 model",
        lambda workers, executor: run_table1(),
    ),
    "table2": (
        "E4: entanglement assertion on ibmqx4 model",
        lambda workers, executor: run_table2(),
    ),
    "sec43": (
        "E5: superposition assertion on ibmqx4 model",
        lambda workers, executor: run_sec43(),
    ),
    "parity": (
        "A1: even/odd CNOT-count ablation",
        lambda workers, executor: run_parity_ablation(),
    ),
    "scaling": (
        "A2: overhead & scaling (stabilizer)",
        # Only an explicit --workers overrides run_scaling's serial default
        # (its per-row timings assume one engine run at a time).
        lambda workers, executor: run_scaling(
            executor=executor,
            **({} if workers is None else {"max_workers": workers}),
        ),
    ),
    "baseline": (
        "A3: dynamic vs statistical assertions",
        lambda workers, executor: run_baseline_comparison(),
    ),
    "sweep": (
        "A4: noise sweep of the filtering benefit",
        lambda workers, executor: run_noise_sweep(
            max_workers=workers, executor=executor, distribution_cache=True
        ),
    ),
    "phase": (
        "A5b: phase-error detection extension",
        lambda workers, executor: run_phase_ablation(),
    ),
    "mitigation": (
        "A6: assertion filtering vs readout mitigation",
        lambda workers, executor: run_mitigation_comparison(),
    ),
    "amplification": (
        "A7: stacked assertions & auto-correction saturation",
        lambda workers, executor: run_amplification(),
    ),
}


def _service_demo(workers, executor, cache_dir=None) -> int:
    """Drive a small multi-client storm through :mod:`repro.service`.

    Three tenants with different weights, quotas and shot appetites
    submit a burst of seeded assertion circuits concurrently;
    completions stream back via ``as_completed()`` and the service's
    stats snapshot (jobs/sec, queue p50/p99, per-client counters and —
    when a cache dir makes the service durable — the per-tenant cost
    ledger) is printed at the end.
    """
    import asyncio

    from repro.circuits import library
    from repro.service import ClientQuota, RuntimeService

    circuit = library.bell_pair()
    circuit.measure_all()
    tenants = {
        "alice": dict(shots=512, weight=3,
                      quota=ClientQuota(max_in_flight_jobs=8,
                                        over_quota="queue")),
        "bob": dict(shots=256, weight=1,
                    quota=ClientQuota(max_in_flight_jobs=4,
                                      over_quota="queue")),
        "carol": dict(shots=128, weight=1,
                      quota=ClientQuota(max_in_flight_jobs=2,
                                        over_quota="queue")),
    }
    per_client = 8

    async def one_client(service, name, token, shots):
        handles = [
            await service.submit(circuit, "noisy:ibmqx4", shots=shots,
                                 seed=i, token=token)
            for i in range(per_client)
        ]
        async for handle in service.as_completed(handles, timeout=300):
            print(f"  {handle.job_id:>8}  {name:<6} {handle.status()}")
        return handles

    async def storm():
        service = RuntimeService(executor=executor, max_workers=workers,
                                 cache_dir=cache_dir)
        try:
            tokens = {
                name: service.register_client(
                    name, weight=spec["weight"], quota=spec["quota"]
                )
                for name, spec in tenants.items()
            }
            print(f"service demo: {len(tenants)} clients x {per_client} "
                  "submissions (noisy:ibmqx4, 128-512 shots)")
            await asyncio.gather(*(
                one_client(service, name, token, tenants[name]["shots"])
                for name, token in tokens.items()
            ))
            await service.drain()
            stats = service.stats()
            if stats["accounting"] is not None:
                # Settlements charge the ledger off-loop; give the last
                # few a beat to land before snapshotting it.
                for _ in range(50):
                    if len(stats["accounting"]) >= len(tenants):
                        break
                    await asyncio.sleep(0.02)
                    stats = service.stats()
            return stats
        finally:
            await service.close()

    stats = asyncio.run(storm())
    latency = stats["queue_latency"]
    print(
        "service stats: "
        f"{stats['completed_jobs']} jobs completed, "
        f"{stats['jobs_per_second']:.1f} jobs/s, "
        f"{stats['dispatched_batches']} batches dispatched"
    )
    if latency["p50_s"] is not None:
        print(
            "queue latency: "
            f"p50 {latency['p50_s'] * 1e3:.1f} ms, "
            f"p99 {latency['p99_s'] * 1e3:.1f} ms, "
            f"max {latency['max_s'] * 1e3:.1f} ms"
        )
    for name, client in sorted(stats["clients"].items()):
        print(
            f"  {name:<6} weight={client['weight']} "
            f"submitted={client['submitted_jobs']} "
            f"completed={client['completed_jobs']} "
            f"waits={client['queued_waits']} "
            f"rejected={client['rejected_quota'] + client['rejected_rate']}"
        )
    if stats["accounting"] is not None:
        journal = stats["journal"]
        print(
            f"journal: {journal['records']} records "
            f"(durable={journal['durable']}); per-tenant cost ledger:"
        )
        for name, spend in sorted(stats["accounting"].items()):
            cost = (f"{spend['cost_s']:.3f} s est"
                    if spend["cost_s"] else "unpriced")
            print(
                f"  {name:<6} shots={spend['shots']} "
                f"jobs={spend['jobs']} cost={cost}"
            )
    return 0


def _format_span(span: dict, indent: int = 0) -> list:
    """Render one span (and its subtree) as indented human-readable lines."""
    duration = span.get("duration_s")
    timing = (
        f"{duration * 1e3:.3f} ms" if duration is not None else "in flight"
    )
    attrs = span.get("attrs") or {}
    detail = " ".join(
        f"{key}={value}" for key, value in attrs.items() if value is not None
    )
    lines = [
        "  " * indent
        + f"{span.get('name', '?'):<10} {timing:>12}"
        + (f"  {detail}" if detail else "")
    ]
    for event in span.get("events") or []:
        fields = " ".join(
            f"{k}={v}" for k, v in event.items() if k not in ("name", "t_s")
        )
        lines.append(
            "  " * (indent + 1) + f"! {event.get('name')}"
            + (f" {fields}" if fields else "")
        )
    for child in span.get("children") or []:
        lines.extend(_format_span(child, indent + 1))
    return lines


def _trace_job(job_id: str, server: str, token) -> int:
    """Fetch and pretty-print one job's trace tree from a --serve front-end."""
    from repro.service.client import ServiceClient

    with ServiceClient(server, token=token) as client:
        try:
            trace = client.trace(job_id)
        except Exception as exc:
            print(f"trace {job_id} failed: {exc}", file=sys.stderr)
            return 1
    print(f"trace for {job_id} on {server}:")
    for line in _format_span(trace):
        print(line)
    return 0


def _write_runtime_stats_json(path: str) -> None:
    """Dump the metrics registry snapshot as JSON to ``path`` (``-`` = stdout).

    The snapshot is the registry's own — counters, gauges and histogram
    summaries keyed by their full Prometheus names — so scripts consuming
    this file and dashboards scraping ``/v1/metrics`` read one source.
    """
    import json

    from repro.obs.metrics import DEFAULT_REGISTRY

    payload = json.dumps(DEFAULT_REGISTRY.snapshot(), indent=2, sort_keys=True)
    if path == "-":
        print(payload)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
    print(f"runtime stats written to {path}")


def _parse_serve_client(spec: str) -> tuple:
    """Parse ``NAME:TOKEN[:SCOPES]`` (scopes ``+``-separated) for --serve-client."""
    parts = spec.split(":")
    if len(parts) not in (2, 3) or not parts[0] or not parts[1]:
        raise ValueError(
            f"--serve-client expects NAME:TOKEN[:SCOPES], got {spec!r}"
        )
    name, token = parts[0], parts[1]
    scopes = tuple(parts[2].split("+")) if len(parts) == 3 else None
    return name, token, scopes


def _serve(address, clients, workers, executor, cache_dir) -> int:
    """Run the HTTP front-end (:mod:`repro.service.http`) until interrupted.

    Binds ``HOST:PORT`` (port 0 picks a free one), pre-registers any
    ``--serve-client`` tenants, recovers the journal when a cache dir
    makes the service durable — pre-restart ``svc-N`` ids answer over
    the wire — and prints the bound URL on a flushed line so a parent
    process can scrape the ephemeral port.

    Anonymous access is tied to the tenant list: with any
    ``--serve-client`` registered the service runs ``allow_anonymous=
    False`` (the all-scope anonymous identity must not leak onto a
    multi-tenant network surface); a bare ``--serve`` keeps the
    single-tenant embedding default so curl works without tokens.
    """
    import asyncio

    from repro.service import RuntimeService
    from repro.service.http import serve

    host, _, port_text = address.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"--serve expects HOST:PORT, got {address!r}", file=sys.stderr)
        return 2

    async def run() -> int:
        service = RuntimeService(executor=executor, max_workers=workers,
                                 cache_dir=cache_dir,
                                 allow_anonymous=not clients)
        try:
            for name, token, scopes in clients:
                service.register_client(name, token=token, scopes=scopes)
            server = await serve(service, host=host, port=int(port_text))
            print(f"serving repro.service on {server.url}", flush=True)
            try:
                await server.serve_forever()
            finally:
                await server.close()
        finally:
            await service.close()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; service closed", file=sys.stderr)
        return 0


def main(argv=None) -> int:
    """Entry point for ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables/figures and the ablations.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"which experiments to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="list the runtime provider's backend specs and exit",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="runtime pool width for batch-shaped experiments "
        "(default: CPU count; counts are seed-deterministic either way)",
    )
    parser.add_argument(
        "--executor",
        choices=["serial", "thread", "process"],
        default=None,
        help="runtime executor kind for batch-shaped experiments "
        "(default: $REPRO_EXECUTOR or thread; counts are identical under "
        "every kind)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persist the transpile/distribution caches under PATH so "
        "repeat invocations skip transpiles and exact-distribution "
        "simulations (counts are bit-identical either way; default: "
        "$REPRO_CACHE_DIR, else memory-only)",
    )
    parser.add_argument(
        "--no-transpile-cache",
        action="store_true",
        help="disable the runtime transpile cache (forces re-lowering)",
    )
    parser.add_argument(
        "--runtime-stats",
        action="store_true",
        help="when done, print the process-wide metrics registry (the "
        "/v1/metrics exposition: pools, caches, cost model, scheduler, "
        "service) in Prometheus text format",
    )
    parser.add_argument(
        "--runtime-stats-json",
        default=None,
        metavar="PATH",
        help="when done, write the process-wide metrics registry snapshot "
        "(the /v1/metrics numbers: pools, caches, cost model, scheduler, "
        "service) as JSON to PATH ('-' prints to stdout)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="JOB_ID",
        help="fetch a job's trace span tree (e.g. svc-3) from a running "
        "--serve front-end and print it as an indented stage tree; "
        "requires --server, honours --token",
    )
    parser.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="base URL of a running --serve front-end (for --trace)",
    )
    parser.add_argument(
        "--token",
        default=None,
        metavar="TOKEN",
        help="bearer token for --trace (the job's owner or an admin)",
    )
    parser.add_argument(
        "--service-demo",
        action="store_true",
        help="run a small multi-client storm through the async service "
        "layer (repro.service) and print its stats snapshot, then exit "
        "(with --cache-dir or $REPRO_CACHE_DIR the service journals to "
        "disk and the per-tenant cost ledger is printed too)",
    )
    parser.add_argument(
        "--serve",
        default=None,
        metavar="HOST:PORT",
        help="serve the service layer over HTTP (repro.service.http) until "
        "interrupted, instead of running experiments; PORT 0 binds an "
        "ephemeral port and the bound URL is printed; honours --executor, "
        "--workers and --cache-dir (a cache dir makes the service durable "
        "and recovers the journal before accepting requests)",
    )
    parser.add_argument(
        "--serve-client",
        action="append",
        default=[],
        metavar="NAME:TOKEN[:SCOPES]",
        help="pre-register a tenant for --serve; SCOPES is a +-separated "
        "subset of submit+read+admin (default: submit+read); repeatable",
    )
    args = parser.parse_args(argv)

    if args.serve_client and not args.serve:
        parser.error("--serve-client requires --serve")
    if args.trace and not args.server:
        parser.error("--trace requires --server URL")
    if args.server and not args.trace:
        parser.error("--server only makes sense with --trace")
    if args.trace:
        return _trace_job(args.trace, args.server, args.token)
    if args.serve:
        try:
            clients = [_parse_serve_client(s) for s in args.serve_client]
        except ValueError as exc:
            parser.error(str(exc))
        return _serve(args.serve, clients, args.workers, args.executor,
                      args.cache_dir)

    if args.service_demo:
        return _service_demo(args.workers, args.executor, args.cache_dir)

    from repro.runtime import cache as runtime_cache

    if args.list:
        for name, (description, _runner) in EXPERIMENTS.items():
            print(f"{name:>10}  {description}")
        return 0
    if args.list_backends:
        from repro.runtime import list_backends

        for spec in list_backends():
            print(spec)
        return 0
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be positive, got {args.workers}")
    if args.cache_dir:
        from repro.runtime import set_default_cache_dir

        set_default_cache_dir(args.cache_dir)
    if args.no_transpile_cache:
        # maxsize = 0 empties the memory tier (the setter trims) and makes
        # every lookup miss — without clear(), which would also delete the
        # persistent disk entries other invocations rely on.
        runtime_cache.DEFAULT_CACHE.maxsize = 0

    selected = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s) {unknown}; choose from {list(EXPERIMENTS)}"
        )
    for name in selected:
        _description, runner = EXPERIMENTS[name]
        print(runner(args.workers, args.executor).summary())
        print()
    if args.runtime_stats:
        from repro.obs.metrics import DEFAULT_REGISTRY

        print(DEFAULT_REGISTRY.render_prometheus(), end="")
    if args.runtime_stats_json:
        _write_runtime_stats_json(args.runtime_stats_json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
