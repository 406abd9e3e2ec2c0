"""End-to-end tests for :class:`repro.service.client.ServiceClient`:
counts over the wire bit-identical to in-process ``execute()`` under both
executors, the OpenQASM round trip for every library circuit, typed-error
reconstruction on the client side, and pre-restart ``svc-N`` ids served
over HTTP after a recover — including from a genuinely separate server
process driven through ``python -m repro.experiments --serve``."""

import os
import re
import subprocess
import sys

import pytest

from repro.circuits import library
from repro.circuits.qasm import circuit_to_qasm
from repro.exceptions import QueueTimeout, UnknownJob
from repro.runtime import execute
from repro.service import (
    AuthenticationError,
    BackgroundServer,
    ClientQuota,
    QuotaExceeded,
    RateLimited,
    RuntimeService,
    ScopeDenied,
    ServiceClient,
)

EXECUTORS = ("thread", "process")

#: The checkout these tests run from: a ``--serve`` child serves its ``src``.
CHECKOUT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


def measured(circuit):
    circuit.measure_all()
    return circuit


#: Every public circuit builder in :mod:`repro.circuits.library`, with
#: concrete arguments — the wire must round-trip each of them through
#: OpenQASM bit-identically.
LIBRARY_CIRCUITS = {
    "bell_pair": lambda: measured(library.bell_pair()),
    "ghz_state": lambda: measured(library.ghz_state(3)),
    "w_state": lambda: measured(library.w_state(3)),
    "uniform_superposition": lambda: measured(
        library.uniform_superposition(2)),
    "qft": lambda: measured(library.qft(3)),
    "inverse_qft": lambda: measured(library.inverse_qft(3)),
    "teleportation": lambda: measured(library.teleportation()),
    "grover": lambda: measured(library.grover(3, [5])),
    "deutsch_jozsa": lambda: measured(library.deutsch_jozsa(3)),
    "phase_estimation": lambda: measured(library.phase_estimation(0.25, 3)),
    "random_circuit": lambda: measured(library.random_circuit(3, 4, seed=5)),
}


def single_tenant_server(executor="thread", cache_dir=None):
    service = RuntimeService(executor=executor, allow_anonymous=False,
                             cache_dir=cache_dir,
                             **({} if cache_dir else
                                {"journal": False, "accounting": False}))
    service.register_client("alice", token="tok-alice",
                            scopes=("submit", "read"))
    return BackgroundServer(service)


# ----------------------------------------------------------------------
# The determinism contract over the wire
# ----------------------------------------------------------------------


class TestBitIdenticalCounts:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_client_counts_match_in_process_execute(self, executor):
        circuit = measured(library.bell_pair())
        reference = [
            dict(execute(circuit, "noisy:ibmqx4", shots=256,
                         seed=s).result().counts)
            for s in (1, 2)
        ]
        with single_tenant_server(executor=executor) as server:
            with ServiceClient(server.url, token="tok-alice") as client:
                job_id = client.submit(
                    [circuit, circuit], backend="noisy:ibmqx4",
                    shots=256, seed=[1, 2])
                assert client.counts(job_id, timeout=120) == reference

    @pytest.mark.parametrize("name", sorted(LIBRARY_CIRCUITS))
    def test_library_circuit_round_trips_over_the_wire(self, name, server):
        circuit = LIBRARY_CIRCUITS[name]()
        reference = dict(
            execute(circuit, "statevector", shots=128, seed=23)
            .result().counts
        )
        with ServiceClient(server.url, token="tok-alice") as client:
            job_id = client.submit(circuit, backend="statevector",
                                   shots=128, seed=23)
            assert client.counts(job_id, timeout=120) == [reference]

    def test_qasm_string_submission_equals_circuit_submission(self, server):
        circuit = measured(library.ghz_state(3))
        with ServiceClient(server.url, token="tok-alice") as client:
            from_circuit = client.counts(
                client.submit(circuit, backend="statevector", shots=64,
                              seed=4), timeout=120)
            from_qasm = client.counts(
                client.submit(circuit_to_qasm(circuit),
                              backend="statevector", shots=64, seed=4),
                timeout=120)
        assert from_circuit == from_qasm

    def test_result_carries_shots(self, server):
        circuit = measured(library.bell_pair())
        with ServiceClient(server.url, token="tok-alice") as client:
            job_id = client.submit(circuit, backend="statevector", shots=96,
                                   seed=8)
            (result,) = client.result(job_id, timeout=120)
        assert result["shots"] == 96
        assert sum(result["counts"].values()) == 96


@pytest.fixture(scope="module")
def server():
    with single_tenant_server() as background:
        yield background


# ----------------------------------------------------------------------
# Typed errors rebuilt client-side
# ----------------------------------------------------------------------


class TestErrorReconstruction:
    def test_bad_token_raises_authentication_error(self, server):
        with ServiceClient(server.url, token="wrong") as client:
            with pytest.raises(AuthenticationError):
                client.submit(measured(library.bell_pair()),
                              backend="statevector")

    def test_unknown_job_raises_unknown_job_with_id(self, server):
        with ServiceClient(server.url, token="tok-alice") as client:
            with pytest.raises(UnknownJob) as excinfo:
                client.status("svc-31337")
        assert excinfo.value.job_id == "svc-31337"

    def test_rate_limited_rebuilds_retry_after(self):
        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False, allow_anonymous=False)
        service.register_client(
            "alice", token="tok-alice",
            quota=ClientQuota(shots_per_second=1.0, over_quota="reject"))
        circuit = measured(library.bell_pair())
        with BackgroundServer(service) as background:
            with ServiceClient(background.url, token="tok-alice") as client:
                client.submit(circuit, backend="statevector", shots=1)
                with pytest.raises(RateLimited) as excinfo:
                    client.submit(circuit, backend="statevector", shots=1000)
        assert excinfo.value.client == "alice"
        assert excinfo.value.retry_after > 0

    def test_quota_exceeded_rebuilds_limits(self):
        import asyncio
        import threading

        from repro.devices.backend import Backend
        from repro.results.counts import Counts
        from repro.results.result import Result

        gate = threading.Event()

        class GatedBackend(Backend):
            name = "gated"

            def run(self, circuit, shots=1024, seed=None):
                assert gate.wait(30)
                return Result(counts=Counts({"0": shots}), shots=shots)

        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False, allow_anonymous=False)
        service.register_client(
            "alice", token="tok-alice",
            quota=ClientQuota(max_in_flight_jobs=1, over_quota="reject"))
        circuit = measured(library.bell_pair())
        try:
            with BackgroundServer(service) as background:
                async def fill():
                    return await service.submit(circuit, GatedBackend(),
                                                shots=16, token="tok-alice")

                asyncio.run_coroutine_threadsafe(
                    fill(), background._loop).result(timeout=30)
                with ServiceClient(background.url,
                                   token="tok-alice") as client:
                    with pytest.raises(QuotaExceeded) as excinfo:
                        client.submit(circuit, backend="statevector",
                                      shots=16)
                gate.set()  # let the job finish before the server stops
        finally:
            gate.set()
        assert excinfo.value.in_flight == 1
        assert excinfo.value.limit == 1

    def test_cross_tenant_read_raises_scope_denied(self):
        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False, allow_anonymous=False)
        service.register_client("alice", token="tok-alice")
        service.register_client("bob", token="tok-bob")
        circuit = measured(library.bell_pair())
        with BackgroundServer(service) as background:
            with ServiceClient(background.url, token="tok-alice") as alice:
                job_id = alice.submit(circuit, backend="statevector",
                                      shots=16)
            with ServiceClient(background.url, token="tok-bob") as bob:
                with pytest.raises(ScopeDenied) as excinfo:
                    bob.status(job_id)
        assert excinfo.value.client == "bob"

    def test_validation_errors_raise_value_error(self, server):
        with ServiceClient(server.url, token="tok-alice") as client:
            with pytest.raises(ValueError, match="backend"):
                client.submit(measured(library.bell_pair()), backend="")

    def test_queue_timeout_on_slow_collection(self):
        import asyncio
        import threading

        from repro.devices.backend import Backend
        from repro.results.counts import Counts
        from repro.results.result import Result

        gate = threading.Event()

        class GatedBackend(Backend):
            name = "gated"

            def run(self, circuit, shots=1024, seed=None):
                assert gate.wait(30)
                return Result(counts=Counts({"0": shots}), shots=shots)

        service = RuntimeService(executor="thread", journal=False,
                                 accounting=False, allow_anonymous=False)
        service.register_client("alice", token="tok-alice")
        circuit = measured(library.bell_pair())
        try:
            with BackgroundServer(service) as background:
                async def fill():
                    return await service.submit(circuit, GatedBackend(),
                                                shots=16, token="tok-alice")

                handle = asyncio.run_coroutine_threadsafe(
                    fill(), background._loop).result(timeout=30)
                with ServiceClient(background.url,
                                   token="tok-alice") as client:
                    # 504 while the job is alive-but-slow rebuilds as the
                    # queue-timeout type, not a generic JobError.
                    with pytest.raises(QueueTimeout):
                        client.counts(handle.job_id, timeout=0.05)
                gate.set()  # let the job finish before the server stops
        finally:
            gate.set()


# ----------------------------------------------------------------------
# Restart durability over the wire
# ----------------------------------------------------------------------


class TestRestartOverTheWire:
    def test_pre_restart_ids_resolve_after_recover(self, tmp_path):
        circuit = measured(library.bell_pair())
        cache_dir = str(tmp_path)

        # Life 1: submit, collect, shut the whole server down.
        with single_tenant_server(cache_dir=cache_dir) as server:
            with ServiceClient(server.url, token="tok-alice") as client:
                job_id = client.submit(circuit, backend="statevector",
                                       shots=128, seed=13)
                first_counts = client.counts(job_id, timeout=120)

        # Life 2: a fresh service over the same journal; serve() recovers
        # before the port opens, so the old id answers immediately.
        with single_tenant_server(cache_dir=cache_dir) as server:
            with ServiceClient(server.url, token="tok-alice") as client:
                assert client.status(job_id) == "done"
                assert client.counts(job_id, timeout=120) == first_counts

    def test_second_process_submits_and_reads_over_http(self, tmp_path):
        """The acceptance path: a *separate* server process started via
        ``--serve``, a scoped token, a bell_pair batch, streamed events,
        and counts bit-identical to in-process ``execute()``."""
        circuit = measured(library.bell_pair())
        reference = dict(
            execute(circuit, "statevector", shots=256, seed=42)
            .result().counts
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(CHECKOUT, "src"),
                   REPRO_CACHE_DIR=str(tmp_path))
        env.pop("REPRO_EXECUTOR", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments",
             "--serve", "127.0.0.1:0",
             "--serve-client", "alice:tok-alice:submit+read"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=CHECKOUT)
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            assert match, f"no URL in banner {banner!r}"
            port = int(match.group(1))
            with ServiceClient(f"127.0.0.1:{port}",
                               token="tok-alice") as client:
                job_id = client.submit(circuit, backend="statevector",
                                       shots=256, seed=42)
                events = list(client.events(job_id, timeout=120))
                assert [kind for kind, _ in events] == ["job", "settled"]
                assert client.counts(job_id, timeout=120) == [reference]
            # Registering tenants must turn anonymous access off: the
            # all-scope anonymous identity would otherwise read any
            # tenant's job over the open socket.
            with ServiceClient(f"127.0.0.1:{port}") as anon:
                with pytest.raises(AuthenticationError):
                    anon.status(job_id)
        finally:
            proc.terminate()
            proc.wait(timeout=30)
