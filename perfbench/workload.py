"""One fresh benchmark process: start up, then run one workload's timed window.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --spawn-wall T --work-dir DIR --out FILE [--setup-only]

``run.py`` starts several of these per run with a hermetic environment.
Each measures its own set-up (from ``--spawn-wall``, the parent's
``time.time()`` just before the spawn, to the moment the first timed job
could be issued: ``import repro``, backend build, pool or server start,
warm-up jobs).  With ``--setup-only`` it then tears down; otherwise it runs
the closed-loop timed window, checks every output, and writes one JSON
document to ``--out``.

With ``--trace 1`` the window alternates blocks with the program's span
recording off and on; the per-layer split comes from the span trees of the
traced blocks (read after the window, so reading them costs the window
nothing) and ``trace_overhead`` from the throughput of the two halves.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import os
import random
import select
import subprocess
import sys
import threading
import time

import layers

JOB_DEADLINE_S = 30.0
#: In-process windows run on past ``--seconds`` until at least this many
#: jobs are done, so that ten or more lie beyond the 90th percentile.
MIN_JOBS = 100
SERVER_START_DEADLINE_S = 60.0
SERVER_STOP_DEADLINE_S = 15.0
CONTROL_DEADLINE_S = 10.0

#: ghz-scaling: jobs per block for each (GHZ size, assertion mode).  Every
#: block holds exactly this mix.  In latency order, the median then falls
#: in the middle of the (8, pairwise) jobs and the 90th percentile in the
#: middle of the (24, pairwise) jobs, never on the edge between two
#: configurations, where one extreme job would move it.  Small sizes weigh
#: more so a run completes enough jobs that ten or more lie beyond p90.
GHZ_MIX = {
    (8, "single"): 12, (8, "pairwise"): 16,
    (16, "single"): 2, (16, "pairwise"): 2,
    (24, "single"): 2, (24, "pairwise"): 4,
    (32, "single"): 1, (32, "pairwise"): 1,
}
GHZ_SHOTS = 64

#: noisy-assertions: a block runs each assertion kind once on the density
#: matrix engine and the kinds below on trajectories, engines interleaved.
#: In latency order the median then falls in the middle of the trajectory
#: classical jobs and the 90th percentile inside the trajectory
#: entanglement jobs; with one trajectory job per density-matrix job the
#: median would sit on the edge between the two engines.
NOISY_SPECS = ("noisy:ibmqx4", "trajectory:ibmqx4")
NOISY_KINDS = ("classical", "entanglement", "superposition")
NOISY_TRAJECTORY_KINDS = ("classical", "classical", "superposition",
                          "entanglement", "entanglement")
NOISY_SHOTS = 1024
PREPARE_SAMPLES = 24

#: One client: with two, GIL hand-offs and thread wake-ups between the
#: clients and the server's threads made latency bimodal from run to run
#: (quartile spread 0.18-0.22 of the median, 0.05 with one).
WIRE_CLIENTS = 1
WIRE_SEEDS = 8
WIRE_SHOTS = 1024
WIRE_TRACE_SAMPLES = 300
WIRE_MAX_REJECTS = 5
#: The server keeps every settled job in memory, so its peak RSS grows
#: with the jobs served.  It is read once this many jobs have completed,
#: so the figure does not rise merely because the service got faster.
WIRE_RSS_JOBS = 2000


def prom_counters(text: str) -> dict:
    """Sum Prometheus samples by metric name and ``cache`` label."""
    totals: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name, _, labels = name_labels.partition("{")
        key = name
        if 'cache="' in labels:
            key += "/" + labels.split('cache="', 1)[1].split('"', 1)[0]
        if 'tier="' in labels:
            key += "/" + labels.split('tier="', 1)[1].split('"', 1)[0]
        totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def registry_deltas(before: dict, after: dict) -> dict:
    """Transpile-cache and retry counters moved between two scrapes."""

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    lookups = delta("repro_cache_hits_total/transpile/memory") + delta(
        "repro_cache_misses_total/transpile/memory"
    )
    hits = delta("repro_cache_hits_total/transpile/memory") + delta(
        "repro_cache_hits_total/transpile/disk"
    )
    return {
        "transpiler.cache_lookups": lookups,
        "transpiler.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "runtime.chunk_retries": delta("repro_chunk_retries_total"),
        "runtime.pool_rebuilds": delta("repro_executor_pool_rebuilds_total"),
    }


def split_metrics(splits: list, latencies: list) -> dict:
    """Per-layer medians over runtime job spans (one split per job)."""
    metrics = {
        "simulators.busy_s": layers.median(s["busy_s"] for s in splits),
        "simulators.busy_share": layers.median(
            s["busy_s"] / latency for s, latency in zip(splits, latencies) if latency
        ),
        "runtime.queue_wait_s": layers.median(s["queue_wait_s"] for s in splits),
        "runtime.collect_s": layers.median(s["collect_s"] for s in splits),
        "runtime.self_s": layers.median(s["self_s"] for s in splits),
    }
    engines: dict = {}
    for split in splits:
        for engine, (shots, wall) in split["engines"].items():
            total_shots, total_wall = engines.get(engine, (0, 0.0))
            engines[engine] = (total_shots + shots, total_wall + wall)
    for engine, (shots, wall) in engines.items():
        metrics[f"simulators.{engine}.shots_per_busy_s"] = shots / wall if wall else 0.0
    return metrics


def scaled_rate(samples: list, loops: int) -> float:
    """Correct jobs per reference-host second of ``loops`` closed loops,
    each busy for the sum of its jobs' scaled spans."""
    busy = sum(s["span_s"] * s["scale"] for s in samples)
    return loops * sum(s["ok"] for s in samples) / busy if busy else 0.0


class InProcess:
    """Closed loop on in-process ``execute()``: one client, one job in flight.

    Jobs come in blocks of fixed composition in a seeded order, and the
    window always ends on a block boundary, so every run measures the same
    mix whatever its seed.
    """

    specs: tuple = ()
    loops = 1  # closed loops (clients) running at once
    kernel = "interpreter"  # the reference kernel, see layers.KERNELS

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.sampled = None  # (circuit, spec, shots, seed, counts) re-run serially

    def setup(self) -> dict:
        from repro.runtime import get_backend

        start = time.perf_counter()
        self.backends = {spec: get_backend(spec) for spec in self.specs}
        backend_build_s = time.perf_counter() - start
        self.warm_up()
        return {"backend_build_s": backend_build_s}

    def teardown(self) -> None:
        from repro.runtime import shutdown_executors

        shutdown_executors()

    def run_job(self, make, spec: str, shots: int, seed: int, traced: bool) -> dict:
        from repro.core import evaluate_assertions
        from repro.runtime import execute

        sample = {"ok": False, "traced": traced, "spec": spec,
                  "kernel_s": layers.KERNELS[self.kernel][0]()}
        job = None
        start = sample["start"] = time.perf_counter()
        try:
            injector = make()
            instrumented = time.perf_counter()
            job = execute(injector.circuit, self.backends[spec], shots=shots, seed=seed)
            submitted = time.perf_counter()
            result = job.result(timeout=JOB_DEADLINE_S)
            ran = time.perf_counter()
            report = evaluate_assertions(result.counts, injector.records)
        except Exception as exc:  # a failed or hung job is counted, not fatal
            if job is not None:
                job.cancel()
            sample["error"] = f"{type(exc).__name__}: {exc}"
            sample["span_s"] = time.perf_counter() - start
            return sample
        done = time.perf_counter()
        sample.update(
            latency_s=done - start,
            span_s=done - start,
            instrument_s=instrumented - start,
            execute_s=submitted - instrumented,
            evaluate_s=done - ran,
            executor=job.plan.get("executor"),
        )
        sample["ok"] = (
            sum(result.counts.values()) == shots and self.passes(report.pass_rate)
        )
        if not sample["ok"]:
            sample["error"] = f"pass rate {report.pass_rate}"
        if traced:
            sample["job"] = job
            sample["circuit"] = injector.circuit
        if self.sampled is None and sample["ok"] and self.rng.random() < 0.2:
            self.sampled = (injector.circuit, spec, shots, seed, dict(result.counts))
        return sample

    def run_window(self, seconds: float, trace: bool) -> tuple:
        from repro.obs.trace import set_tracing_enabled

        samples, phases = [], []
        start = time.perf_counter()
        while True:
            traced = trace and len(phases) % 2 == 1
            if trace:
                set_tracing_enabled(traced)
            block_start = time.perf_counter()
            block = [self.run_job(*job, traced) for job in self.block()]
            phases.append({
                "traced": traced,
                "jobs": len(block),
                "ok_jobs": sum(s["ok"] for s in block),
                "elapsed_s": time.perf_counter() - block_start,
            })
            samples.extend(block)
            over = time.perf_counter() - start >= seconds and len(samples) >= MIN_JOBS
            if over and (not trace or len(phases) % 2 == 0):
                break
        if trace:
            set_tracing_enabled(True)  # the program's default
        return samples, phases, time.perf_counter() - start

    def verify(self, samples: list) -> list:
        """Re-run the sampled job serially: counts must be bit-identical."""
        from repro.runtime import execute

        if self.sampled is None:
            return ["no job was sampled for the serial re-run"]
        circuit, spec, shots, seed, counts = self.sampled
        again = execute(circuit, spec, shots=shots, seed=seed, executor="serial")
        if dict(again.result(timeout=JOB_DEADLINE_S).counts) != counts:
            return [f"serial re-run of a {spec} job gave different counts"]
        return []

    def scrape(self) -> dict:
        from repro.obs.metrics import DEFAULT_REGISTRY

        return prom_counters(DEFAULT_REGISTRY.render_prometheus())

    def peak_rss(self) -> float:
        """The workload process and its pool workers, which run the engines."""
        return layers.peak_rss_mb([os.getpid()] + layers.child_pids(os.getpid()))

    def layer_metrics(self, samples: list) -> dict:
        ok = [s for s in samples if s["ok"]]
        traced = [s for s in ok if s["traced"]]
        splits = [layers.runtime_split(s["job"].trace()) for s in traced]
        metrics = split_metrics(splits, [s["latency_s"] for s in traced])
        metrics.update({
            "core.instrument_s": layers.median(s["instrument_s"] for s in ok),
            "core.evaluate_s": layers.median(s["evaluate_s"] for s in ok),
            "runtime.execute_s": layers.median(s["execute_s"] for s in ok),
            "transpiler.prepare_s": self.prepare_time(traced),
            "trace.jobs": len(traced),
        })
        return metrics

    def prepare_time(self, traced: list) -> float:
        """Median uncached ``Backend.prepare`` time over traced circuits.

        Timed after the window on a cache-less copy of each backend, so
        the jobs themselves still meet the transpile cache exactly as a
        user's would.
        """
        times = []
        for sample in traced[:PREPARE_SAMPLES]:
            backend = self.backends[sample["spec"]]
            if not getattr(backend, "transpile", False):
                continue
            uncached = copy.copy(backend)
            uncached.cache = False
            start = time.perf_counter()
            uncached.prepare(sample["circuit"])
            times.append(time.perf_counter() - start)
        return layers.median(times)

    def traces(self, samples: list) -> list:
        return [s["job"].trace() for s in samples if s.get("job") is not None]


class GhzScaling(InProcess):
    """GHZ(n) with entanglement assertions on the stabilizer engine."""

    specs = ("stabilizer",)

    def warm_up(self) -> None:
        from repro.runtime import execute

        # Two jobs at once so every pool worker has run the engine once.
        circuits = [self.instrument(8, mode) for mode in ("single", "pairwise")]
        execute([c.circuit for c in circuits], self.backends["stabilizer"],
                shots=GHZ_SHOTS, seed=0).result(timeout=JOB_DEADLINE_S)

    @staticmethod
    def instrument(n: int, mode: str):
        from repro import AssertionInjector, library

        injector = AssertionInjector(library.ghz_state(n))
        injector.assert_entangled(list(range(n)), mode=mode)
        injector.measure_program()
        return injector

    def block(self) -> list:
        configs = [config for config, count in GHZ_MIX.items() for _ in range(count)]
        self.rng.shuffle(configs)
        return [
            (lambda n=n, mode=mode: self.instrument(n, mode), "stabilizer",
             GHZ_SHOTS, self.rng.randrange(2**31))
            for n, mode in configs
        ]

    @staticmethod
    def passes(pass_rate: float) -> bool:
        return pass_rate == 1.0  # the ideal engine never trips a correct assertion


class NoisyAssertions(InProcess):
    """The paper's three assertion kinds on the noisy 5-qubit device model.

    Every job carries a fresh ``rz`` angle, so every circuit fingerprint is
    new and every job pays a transpile and a full simulation.
    """

    specs = NOISY_SPECS
    kernel = "array"

    def __init__(self, rng: random.Random) -> None:
        super().__init__(rng)
        self.angles: set = set()

    def warm_up(self) -> None:
        from repro.runtime import execute

        for spec in self.specs:
            injector = self.instrument("entanglement", self.angle())
            execute(injector.circuit, self.backends[spec], shots=NOISY_SHOTS,
                    seed=0).result(timeout=JOB_DEADLINE_S)

    def angle(self) -> float:
        while True:
            theta = self.rng.uniform(0.01, 0.2)
            if theta not in self.angles:
                self.angles.add(theta)
                return theta

    @staticmethod
    def instrument(kind: str, theta: float):
        from repro import AssertionInjector, QuantumCircuit, library

        if kind == "classical":
            program = QuantumCircuit(2, name="classical")
            program.x(1)
            program.rz(theta, 0)
            injector = AssertionInjector(program)
            injector.assert_classical([0, 1], [0, 1])
        elif kind == "entanglement":
            program = library.ghz_state(3)
            program.rz(theta, 0)
            injector = AssertionInjector(program)
            injector.assert_entangled([0, 1, 2], mode="single")
        else:
            program = QuantumCircuit(2, name="superposition")
            program.h(0)
            program.h(1)
            program.rz(theta, 0)
            injector = AssertionInjector(program)
            injector.assert_uniform([0, 1])
        injector.measure_program()
        return injector

    def block(self) -> list:
        density, trajectory = NOISY_SPECS
        per_engine = [
            [(density, kind) for kind in self.rng.sample(NOISY_KINDS, len(NOISY_KINDS))],
            [(trajectory, kind) for kind in self.rng.sample(
                NOISY_TRAJECTORY_KINDS, len(NOISY_TRAJECTORY_KINDS))],
        ]
        jobs = []
        for pair in itertools.zip_longest(*per_engine):
            for spec, kind in filter(None, pair):
                theta = self.angle()
                jobs.append((
                    lambda kind=kind, theta=theta: self.instrument(kind, theta),
                    spec, NOISY_SHOTS, self.rng.randrange(2**31),
                ))
        return jobs

    @staticmethod
    def passes(pass_rate: float) -> bool:
        # Device noise trips some shots; a correct program still passes most.
        return 0.5 < pass_rate < 1.0


class ServiceWire:
    """``WIRE_CLIENTS`` client threads, each with one ``ServiceClient``,
    against a durable ``RuntimeService`` served over HTTP from a child
    process."""

    loops = WIRE_CLIENTS
    kernel = "interpreter"

    def __init__(self, rng: random.Random, work_dir: str) -> None:
        self.rng = rng
        self.work_dir = work_dir
        self.cache_dir = os.path.join(work_dir, "service-cache")
        self.proc = None
        self.clients = []

    def setup(self) -> dict:
        from repro import AssertionInjector, library
        from repro.service import ServiceClient

        start = time.perf_counter()
        self.programs = []
        for program, mode in ((library.bell_pair(), "single"),
                              (library.ghz_state(3), "pairwise"),
                              (library.ghz_state(3), "single")):
            injector = AssertionInjector(program)
            injector.assert_entangled(list(range(program.num_qubits)), mode=mode)
            injector.measure_program()
            self.programs.append(injector)
        self.instrument_s = (time.perf_counter() - start) / len(self.programs)
        self.seeds = [self.rng.randrange(2**31) for _ in range(WIRE_SEEDS)]
        self.thread_rngs = [random.Random(self.rng.randrange(2**63))
                            for _ in range(WIRE_CLIENTS)]
        ready = self.start_server()
        self.clients = [ServiceClient(ready["url"], timeout=JOB_DEADLINE_S + 10)
                        for _ in range(WIRE_CLIENTS)]
        for index, client in enumerate(self.clients):
            if not self.wire_job(client, random.Random(index), False)["ok"]:
                raise RuntimeError("service-wire warm-up job failed")
        return {"backend_build_s": ready["backend_build_s"],
                "server_import_s": ready["import_s"]}

    def start_server(self) -> dict:
        ready_file = os.path.join(self.work_dir, "server-ready.json")
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")
        self.server_log = open(os.path.join(self.work_dir, "server.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, script, "--cache-dir", self.cache_dir,
             "--ready-file", ready_file],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.server_log,
        )
        deadline = time.monotonic() + SERVER_START_DEADLINE_S
        while not os.path.exists(ready_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("service-wire server did not start")
            time.sleep(0.005)
        with open(ready_file) as handle:
            return json.load(handle)

    def control(self, command: str) -> None:
        """Send one command to the server and wait for its ``ok``."""
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()
        deadline = time.monotonic() + CONTROL_DEADLINE_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if ready and self.proc.stdout.readline().strip() == b"ok":
                return
        raise RuntimeError(f"service-wire server did not answer {command!r}")

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        if self.proc is not None:
            try:
                self.proc.stdin.write(b"stop\n")
                self.proc.stdin.close()
            except OSError:
                pass  # the server is already gone
            try:
                self.proc.wait(timeout=SERVER_STOP_DEADLINE_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=SERVER_STOP_DEADLINE_S)
            self.proc.stdout.close()
            self.server_log.close()

    def wire_job(self, client, rng, traced: bool) -> dict:
        from repro.core import evaluate_assertions
        from repro.results import Counts

        index = rng.randrange(len(self.programs))
        seed = rng.choice(self.seeds)
        injector = self.programs[index]
        sample = {"ok": False, "traced": traced, "key": (index, seed), "rejected": 0,
                  "kernel_s": layers.KERNELS[self.kernel][0]()}
        start = sample["start"] = time.perf_counter()
        try:
            for attempt in range(WIRE_MAX_REJECTS + 1):
                try:
                    job_id = client.submit(injector.circuit, "statevector",
                                           shots=WIRE_SHOTS, seed=seed)
                    break
                except client.RETRYABLE as exc:  # a 429 or 503: back off, resubmit
                    sample["rejected"] += 1
                    if attempt == WIRE_MAX_REJECTS:
                        raise
                    time.sleep(min(float(exc.retry_after or 0.01), 0.5))
            submitted = time.perf_counter()
            counts = client.counts(job_id, timeout=JOB_DEADLINE_S)[0]
            collected = time.perf_counter()
            report = evaluate_assertions(Counts(counts), injector.records)
        except Exception as exc:  # a failed or hung job is counted, not fatal
            sample["error"] = f"{type(exc).__name__}: {exc}"
            sample["span_s"] = time.perf_counter() - start
            return sample
        done = time.perf_counter()
        sample.update(
            latency_s=done - start,
            span_s=done - start,
            submit_s=submitted - start,
            counts_s=collected - submitted,
            evaluate_s=done - collected,
            job_id=job_id,
            counts=counts,
        )
        sample["ok"] = sum(counts.values()) == WIRE_SHOTS and report.pass_rate == 1.0
        if not sample["ok"]:
            sample["error"] = f"pass rate {report.pass_rate}"
        return sample

    def client_loop(self, index: int, until: float, traced: bool, out: list) -> None:
        client, rng = self.clients[index], self.thread_rngs[index]
        while time.perf_counter() < until:
            sample = self.wire_job(client, rng, traced)
            self.rejected[index] += sample["rejected"]
            out.append(sample)
            with self.lock:
                self.completed += sample["ok"]
                if self.completed == WIRE_RSS_JOBS and self.rss_probe is None:
                    self.rss_probe = self.read_rss()

    def read_rss(self) -> tuple:
        """``(peak MiB, current KiB, jobs completed)`` of the server."""
        return (layers.peak_rss_mb([self.proc.pid]),
                layers.status_kib(self.proc.pid, "VmRSS"), self.completed)

    def peak_rss(self) -> float:
        self.rss_end = self.read_rss()
        return (self.rss_probe or self.rss_end)[0]

    def run_window(self, seconds: float, trace: bool) -> tuple:
        self.rejected = [0] * len(self.clients)  # one slot per client thread
        self.lock = threading.Lock()
        self.completed = 0
        self.rss_probe = None
        self.journal_before = layers.tree_bytes(self.cache_dir)
        modes = [False, True, False, True] if trace else [None]
        samples, phases = [], []
        start = time.perf_counter()
        for traced in modes:
            if traced is not None:
                self.control(f"trace {int(traced)}")
            outs = [[] for _ in self.clients]
            phase_start = time.perf_counter()
            until = phase_start + seconds / len(modes)
            threads = [
                threading.Thread(target=self.client_loop,
                                 args=(i, until, bool(traced), outs[i]))
                for i in range(len(self.clients))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=seconds + JOB_DEADLINE_S + 20)
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("a service-wire client thread did not finish")
            phase = [s for out in outs for s in out]
            phases.append({
                "traced": bool(traced),
                "jobs": len(phase),
                "ok_jobs": sum(s["ok"] for s in phase),
                "elapsed_s": time.perf_counter() - phase_start,
            })
            samples.extend(phase)
        if trace:
            self.control("trace 1")  # the program's default
        return samples, phases, time.perf_counter() - start

    def verify(self, samples: list) -> list:
        """Every job's wire counts must equal an in-process serial
        ``execute()``; a mismatch fails that job."""
        from repro.runtime import execute

        expected = {}
        for sample in samples:
            if not sample["ok"]:
                continue
            if sample["key"] not in expected:
                index, seed = sample["key"]
                job = execute(self.programs[index].circuit, "statevector",
                              shots=WIRE_SHOTS, seed=seed, executor="serial")
                expected[sample["key"]] = dict(job.result().counts)
            if sample.pop("counts") != expected[sample["key"]]:
                sample["ok"] = False
                sample["error"] = "wire counts differ from in-process execute()"
        return []

    def scrape(self) -> dict:
        return prom_counters(self.clients[0].metrics())

    def layer_metrics(self, samples: list) -> dict:
        ok = [s for s in samples if s["ok"]]
        traced = [s for s in ok if s["traced"]]
        chosen = sorted(self.rng.sample(range(len(traced)),
                                        min(WIRE_TRACE_SAMPLES, len(traced))))
        self.traced = [traced[i] for i in chosen]
        self.trees = trees = [self.clients[0].trace(s["job_id"]) for s in self.traced]
        circuits = [c for tree in trees for c in layers.children(tree, "circuit")]
        splits = [layers.runtime_split(c) for c in circuits]
        metrics = split_metrics(splits, [s["latency_s"] for s in self.traced])

        def span_median(name: str) -> float:
            return layers.median(
                layers.duration(span) for tree in trees
                for span in layers.children(tree, name)
            )

        probe = self.rss_probe or self.rss_end
        served = self.rss_end[2] - probe[2]
        metrics.update({
            "service.retained_kib_per_job": (
                (self.rss_end[1] - probe[1]) / served if served else 0.0
            ),
            "core.instrument_s": self.instrument_s,
            "core.evaluate_s": layers.median(s["evaluate_s"] for s in ok),
            "runtime.execute_s": span_median("dispatch"),
            "service.admission_s": span_median("admission"),
            "service.queue_wait_s": span_median("queue"),
            "service.dispatch_s": span_median("dispatch"),
            "service.settle_s": span_median("settle"),
            "service.journal_bytes_per_job": (
                (layers.tree_bytes(self.cache_dir) - self.journal_before) / len(samples)
                if samples else 0.0
            ),
            "wire.submit_rtt_s": layers.median(s["submit_s"] for s in ok),
            "wire.counts_rtt_s": layers.median(s["counts_s"] for s in ok),
            "wire.overhead_s": layers.median(
                s["latency_s"] - layers.duration(tree)
                for s, tree in zip(self.traced, trees)
            ),
            "wire.rejected": sum(self.rejected),
            "trace.jobs": len(trees),
        })
        return metrics

    def traces(self, samples: list) -> list:
        return self.trees


def settings() -> dict:
    """The program settings this process resolved, after run.py's pinning."""
    from repro.faults import active_plan
    from repro.obs.trace import tracing_enabled
    from repro.runtime import default_cache_dir, default_schedule_mode
    from repro.runtime.retry import resolve_retry_policy

    policy = resolve_retry_policy(None)
    return {
        "REPRO_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "cache_dir": default_cache_dir(),
        "schedule": default_schedule_mode(),
        "max_retries": None if policy is None else policy.max_retries,
        "fault_plan": active_plan() is not None,
        "tracing": tracing_enabled(),
    }


def run_window(workload, seconds: float, trace: bool, trace_file: str) -> dict:
    import numpy

    before = workload.scrape()
    samples, phases, elapsed = workload.run_window(seconds, trace)
    rss = workload.peak_rss()
    after = workload.scrape()
    # Each job's wall times are scaled by the host speed measured by the
    # reference kernel passes run just before it and its neighbours.
    samples.sort(key=lambda s: s["start"])  # client threads interleave
    scales = layers.rolling_scales([s["kernel_s"] for s in samples],
                                   layers.KERNELS[workload.kernel][1])
    for sample, scale in zip(samples, scales):
        sample["scale"] = scale
    rerun_failures = workload.verify(samples)
    ok = [s for s in samples if s["ok"]]
    latencies = [s["latency_s"] * s["scale"] for s in ok]
    wall = [s["latency_s"] for s in ok]
    window = {
        "attempted": len(samples),
        "failed": len(samples) - len(ok) + len(rerun_failures),
        "failures": rerun_failures + sorted({s["error"] for s in samples if not s["ok"]}),
        "elapsed_s": elapsed,
        "phases": phases,
        "latency_samples": len(latencies),
        "beyond_p90": layers.beyond(len(latencies), 0.9),
        "executors": sorted({s.get("executor") or "service" for s in ok}),
        "numpy": numpy.__version__,
        "kernel": workload.kernel,
        "host_scale": {"median": layers.median(scales), "min": min(scales),
                       "max": max(scales)},
        "wall": {
            "jobs_per_s": len(ok) / elapsed,
            "job_latency_p50_s": layers.median(wall),
            "job_latency_p90_s": layers.nearest_rank(wall, 0.9),
        },
        "end_to_end": {
            "jobs_per_s": scaled_rate(samples, workload.loops),
            "job_latency_p50_s": layers.median(latencies),
            "job_latency_p90_s": layers.nearest_rank(latencies, 0.9),
            "peak_rss_mb": rss,
        },
    }
    if trace:
        per_layer = registry_deltas(before, after)
        per_layer.update(workload.layer_metrics(samples))
        untraced = scaled_rate([s for s in samples if not s["traced"]], workload.loops)
        traced = scaled_rate([s for s in samples if s["traced"]], workload.loops)
        per_layer["trace_overhead"] = untraced / traced - 1.0 if traced else 0.0
        window["per_layer"] = per_layer
        with open(trace_file, "w") as handle:
            json.dump(workload.traces(samples), handle)
    return window


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ghz-scaling", "noisy-assertions", "service-wire"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-wall", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import repro  # noqa: F401  (timed: the import every user pays)

    import_s = time.perf_counter() - start
    rng = random.Random(args.seed)
    if args.workload == "ghz-scaling":
        workload = GhzScaling(rng)
    elif args.workload == "noisy-assertions":
        workload = NoisyAssertions(rng)
    else:
        workload = ServiceWire(rng, args.work_dir)
    report = {"settings": settings()}
    try:
        setup = workload.setup()
        setup["setup_s"] = time.time() - args.spawn_wall
        setup["import_s"] = import_s
        report["setup"] = setup
        if not args.setup_only:
            report["window"] = run_window(workload, args.seconds, bool(args.trace),
                                          args.trace_file)
    finally:
        workload.teardown()
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
