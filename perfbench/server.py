"""The service-wire workload's server process.

Started by ``workload.py`` as::

    python3 perfbench/server.py --cache-dir DIR --ready-file FILE

It builds a durable :class:`repro.service.RuntimeService` (journal and
accounting under ``DIR``) behind a :class:`repro.service.BackgroundServer`
through the public API, writes ``{"url", "pid", ...}`` to ``FILE`` once the
port is bound, then obeys one command per line on stdin, answering each on
stdout: ``trace 0`` / ``trace 1`` switch the program's span recording,
``stop`` (or end of input) shuts the server down.  The caller bounds the
shutdown with its own deadline and kills the process after it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

STOP_DEADLINE_S = 10.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--ready-file", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import repro  # noqa: F401  (timed: the server's share of set-up)

    import_s = time.perf_counter() - start
    from repro.obs.trace import set_tracing_enabled
    from repro.runtime import get_backend
    from repro.service import BackgroundServer, RuntimeService

    start = time.perf_counter()
    get_backend("statevector")
    backend_build_s = time.perf_counter() - start

    server = BackgroundServer(RuntimeService(cache_dir=args.cache_dir)).start()
    ready = {
        "url": server.url,
        "pid": os.getpid(),
        "import_s": import_s,
        "backend_build_s": backend_build_s,
    }
    partial = args.ready_file + ".part"
    with open(partial, "w") as handle:
        json.dump(ready, handle)
    os.replace(partial, args.ready_file)

    for line in sys.stdin:
        command = line.split()
        if command[:1] == ["trace"] and len(command) == 2:
            set_tracing_enabled(command[1] == "1")
        elif command == ["stop"]:
            break
        print("ok", flush=True)

    # BackgroundServer.stop() can wait far longer than a benchmark may;
    # bound it here, and the parent kills the process past its own deadline.
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(STOP_DEADLINE_S)
    if stopper.is_alive():
        sys.stdout.flush()
        os._exit(3)  # pool threads still held by the stuck stop
    return 0


if __name__ == "__main__":
    sys.exit(main())
