"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload ghz-scaling --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it needs ``BENCHMARK.json`` and
``src/``, and nothing installed beyond the repository's own dependencies.

Workloads (closed loops; ``--seed`` generates every input, see
``workload.py``):

* ``ghz-scaling`` -- in-process ``execute()`` of assertion-instrumented
  GHZ(n), n in {8, 16, 24, 32}, on the stabilizer engine.
* ``noisy-assertions`` -- the paper's classical, entanglement and
  superposition assertions on the noisy ibmqx4 model, alternating the
  density-matrix and trajectory engines; every job transpiles afresh.
* ``service-wire`` -- one client thread against a durable
  ``RuntimeService`` served over HTTP from a child process.

A run starts ``STARTUPS`` fresh interpreters one after another, each in a
hermetic environment: every ``REPRO_*`` variable is cleared and each gets
its own empty ``REPRO_CACHE_DIR``, so no start-up or run warms another.
All of them measure set-up; the last one then runs the timed window.
``setup_s`` is the median wall time over the start-ups after the first,
which only warms the page cache.

The run and every process it starts keep to one CPU.  Before each job
the client runs a reference kernel (``layers.KERNELS``) on that CPU, and
the job's times are scaled to the reference host by the kernel passes
around it, so the window's times follow the program and not the shared
host's speed of the moment.  The run record keeps the wall-clock figures
too.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` with the
program at its defaults; ``--trace 1`` reports the per-layer split.  The
last line of standard output is the result object; the lines before it
list each metric with its unit.  Every run also writes a self-describing
record to ``.perfbench/runs/`` and a traced run its spans to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

import layers

STARTUPS = 5
RUN_DEADLINE_S = 170.0
STATE_DIR = ".perfbench"


def git_sha(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(root, ".git", ref)
        if os.path.exists(ref_file):
            with open(ref_file) as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256(root: str) -> str:
    """Digest of every Python file under ``src/``: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def hermetic_env(root: str) -> tuple:
    removed = sorted(key for key in os.environ if key.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env, removed


def start_up(args, root: str, env: dict, directory: str, final: bool,
             deadline: float) -> dict:
    """Run one fresh workload process to completion; return its report."""
    os.makedirs(directory)
    out = os.path.join(directory, "report.json")
    command = [
        sys.executable, os.path.join("perfbench", "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", directory, "--out", out,
    ]
    if final:
        traces = os.path.join(root, STATE_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    else:
        command.append("--setup-only")
    env = dict(env, REPRO_CACHE_DIR=os.path.join(directory, "cache"))
    log_path = os.path.join(directory, "log.txt")
    with open(log_path, "wb") as log:
        command += ["--spawn-wall", repr(time.time())]
        proc = subprocess.Popen(command, cwd=root, env=env, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        # Pool workers and the service-wire server share the session.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        with open(log_path, errors="replace") as handle:
            sys.stderr.write(handle.read()[-4000:])
        reason = "timed out" if code is None else f"exited with {code}"
        raise RuntimeError(f"{args.workload} start-up {directory} {reason}")
    with open(out) as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from a checkout root holding src/repro", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_DEADLINE_S
    # One CPU for the run and every process it starts, so the reference
    # kernel gauges the very CPU that runs the jobs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env, removed = hermetic_env(root)
    work = os.path.join(root, STATE_DIR, "tmp",
                        f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        reports = [
            start_up(args, root, env, os.path.join(work, f"startup{i}"),
                     i == STARTUPS - 1, deadline)
            for i in range(STARTUPS)
        ]
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    warm = [report["setup"] for report in reports[1:]]
    window = reports[-1]["window"]
    if args.trace:
        measured = dict(window["per_layer"])
        measured["setup.import_s"] = layers.median(s["import_s"] for s in warm)
        measured["devices.backend_build_s"] = layers.median(
            s["backend_build_s"] for s in warm
        )
    else:
        measured = dict(window["end_to_end"])
        measured["setup_s"] = layers.median(s["setup_s"] for s in warm)
    # A layer the workload never reaches (the wire, in-process) reads 0.
    metrics = {m["name"]: {"value": measured[m["name"]] if not args.trace
                           else measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": window["numpy"],
        "cleared_env": removed,
        "cpus": sorted(os.sched_getaffinity(0)),
        "settings": reports[-1]["settings"],
        "setup_samples": [s["setup_s"] for s in warm],
        "discarded_setup_s": reports[0]["setup"]["setup_s"],
        "window": window,
        "metrics": metrics,
    }
    runs = os.path.join(root, STATE_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(runs, name), "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {window['attempted']} jobs "
          f"in {window['elapsed_s']:.2f} s, {window['failed']} failed, "
          f"{window['latency_samples']} latency samples "
          f"({window['beyond_p90']} beyond p90), setup samples {len(warm)}")
    for failure in window["failures"]:
        print(f"  failure: {failure}")
    for metric_name, metric in metrics.items():
        print(f"  {metric_name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": window["failed"] == 0 and not window["failures"],
        "attempted": window["attempted"],
        "failed": window["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
