"""Tests for the fingerprint-keyed transpile cache."""

import pytest

from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.devices.backend import NoisyDeviceBackend, TrajectoryDeviceBackend
from repro.devices.generic import linear_device
from repro.runtime.cache import (
    TranspileCache,
    transpile_cached,
    transpile_key,
)
from repro.transpiler.layout import Layout


def measured_bell():
    qc = library.bell_pair()
    qc.measure_all()
    return qc


class TestFingerprint:
    def test_identical_rebuild_shares_fingerprint(self):
        assert measured_bell().fingerprint() == measured_bell().fingerprint()

    def test_name_does_not_participate(self):
        a = QuantumCircuit(2, 2, name="a")
        a.h(0).cx(0, 1).measure([0, 1], [0, 1])
        b = QuantumCircuit(2, 2, name="b")
        b.h(0).cx(0, 1).measure([0, 1], [0, 1])
        assert a.fingerprint() == b.fingerprint()

    def test_operations_participate(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = QuantumCircuit(2)
        b.x(0)
        assert a.fingerprint() != b.fingerprint()

    def test_parameters_participate(self):
        a = QuantumCircuit(1)
        a.rx(0.5, 0)
        b = QuantumCircuit(1)
        b.rx(0.25, 0)
        assert a.fingerprint() != b.fingerprint()

    def test_bit_counts_participate(self):
        assert QuantumCircuit(2).fingerprint() != QuantumCircuit(3).fingerprint()

    def test_operand_order_participates(self):
        a = QuantumCircuit(2)
        a.cx(0, 1)
        b = QuantumCircuit(2)
        b.cx(1, 0)
        assert a.fingerprint() != b.fingerprint()

    def test_unitary_payload_participates(self):
        import numpy as np

        a = QuantumCircuit(1)
        a.unitary(np.eye(2), [0])
        b = QuantumCircuit(1)
        b.unitary(np.array([[0, 1], [1, 0]], dtype=complex), [0])
        assert a.fingerprint() != b.fingerprint()

    def test_condition_participates(self):
        a = QuantumCircuit(1, 1)
        a.x(0, condition=(0, 1))
        b = QuantumCircuit(1, 1)
        b.x(0)
        assert a.fingerprint() != b.fingerprint()


class TestFingerprintMemo:
    """The fingerprint is memoised (hashed once per execute() call instead
    of once each for planning, distribution keying and transpile keying) —
    and every mutation path must invalidate the memo, or a stale hash
    would silently poison the runtime caches."""

    def test_repeat_calls_return_the_memo(self):
        qc = measured_bell()
        assert qc.fingerprint() is qc.fingerprint()

    def test_builder_mutation_invalidates(self):
        qc = measured_bell()
        before = qc.fingerprint()
        qc.x(0)
        assert qc.fingerprint() != before

    def test_direct_data_append_invalidates(self):
        a, b = measured_bell(), measured_bell()
        a.fingerprint()
        a.data.append(b.data[0])
        b.data.append(b.data[0])
        assert a.fingerprint() == b.fingerprint()

    def test_data_reassignment_invalidates(self):
        qc = measured_bell()
        before = qc.fingerprint()
        qc.data = qc.data[:-1]
        assert qc.fingerprint() != before

    def test_slice_assignment_invalidates(self):
        qc = measured_bell()
        before = qc.fingerprint()
        qc.data[0] = qc.data[1]
        assert qc.fingerprint() != before

    def test_pop_and_delete_invalidate(self):
        qc = measured_bell()
        before = qc.fingerprint()
        qc.data.pop()
        mid = qc.fingerprint()
        assert mid != before
        del qc.data[0]
        assert qc.fingerprint() != mid

    def test_add_register_invalidates(self):
        qc = measured_bell()
        before = qc.fingerprint()
        qc.add_qubits(1)
        assert qc.fingerprint() != before

    def test_compose_invalidates(self):
        qc = library.bell_pair()
        before = qc.fingerprint()
        qc.compose(library.bell_pair())
        assert qc.fingerprint() != before

    def test_copy_memo_is_independent(self):
        qc = measured_bell()
        original = qc.fingerprint()
        clone = qc.copy()
        assert clone.fingerprint() == original
        clone.x(0)
        assert clone.fingerprint() != original
        assert qc.fingerprint() == original

    def test_memoised_circuit_survives_pickle(self):
        import pickle

        qc = measured_bell()
        digest = qc.fingerprint()
        clone = pickle.loads(pickle.dumps(qc))
        assert clone.fingerprint() == digest
        clone.x(0)  # tracking still live after unpickling
        assert clone.fingerprint() != digest

    def test_mutation_racing_a_hash_never_pins_a_stale_memo(self):
        """A mutation landing while another thread is mid-hash must not let
        that thread install its pre-mutation digest (generation guard)."""
        import threading

        expected = measured_bell()
        expected.x(0)
        for _ in range(30):
            qc = measured_bell()
            stop = threading.Event()

            def hash_loop():
                while not stop.is_set():
                    qc.fingerprint()

            worker = threading.Thread(target=hash_loop)
            worker.start()
            qc.x(0)
            stop.set()
            worker.join()
            assert qc.fingerprint() == expected.fingerprint()


class TestTranspileKey:
    def test_key_components(self, ibmqx4_device):
        from repro.runtime.cache import device_fingerprint

        circuit = measured_bell()
        layout = Layout([1, 2], 5)
        key = transpile_key(circuit, ibmqx4_device, layout, True)
        assert key == (
            circuit.shape_fingerprint(),
            device_fingerprint(ibmqx4_device),
            (1, 2),
            True,
        )

    def test_same_named_devices_never_collide(self, ibmqx4_device):
        """Keying is by device content, not name: impostors miss."""
        cache = TranspileCache()
        NoisyDeviceBackend(ibmqx4_device, cache=cache).prepare(measured_bell())
        impostor = linear_device(5, name="ibmqx4")
        prepared = NoisyDeviceBackend(impostor, cache=cache).prepare(measured_bell())
        assert cache.misses == 2
        for inst in prepared.data:
            if inst.name == "cx":
                assert impostor.coupling_map.supports(*inst.qubits)

    def test_calibration_participates_in_device_fingerprint(self):
        from repro.runtime.cache import device_fingerprint

        a = linear_device(5)
        b = linear_device(5, cx_error=0.4)
        assert a.name == b.name
        assert device_fingerprint(a) != device_fingerprint(b)
        # Content-identical rebuilds share the fingerprint (cross-call hits).
        assert device_fingerprint(linear_device(5)) == device_fingerprint(a)

    def test_noise_scale_shares_key_across_backends(self, ibmqx4_device):
        """Lowering never sees the noise scale: a sweep hits one entry."""
        cache = TranspileCache()
        for scale in (0.5, 1.0, 2.0):
            NoisyDeviceBackend(ibmqx4_device, noise_scale=scale, cache=cache).prepare(
                measured_bell()
            )
        assert cache.misses == 1
        assert cache.hits == 2


class TestTranspileCache:
    def test_hit_returns_same_object(self, ibmqx4_device):
        cache = TranspileCache()
        circuit = measured_bell()
        first = cache.transpile(circuit, ibmqx4_device)
        second = cache.transpile(measured_bell(), ibmqx4_device)
        assert first is second
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        # Unified-store shape: per-tier detail rides along (no disk tier
        # unless a cache_dir was given).
        assert stats["memory"]["hits"] == 1
        assert stats["disk"] is None

    def test_lru_eviction(self, ibmqx4_device):
        cache = TranspileCache(maxsize=1)
        cache.transpile(measured_bell(), ibmqx4_device)
        ghz = library.ghz_state(3)
        ghz.measure_all()
        cache.transpile(ghz, ibmqx4_device)
        assert len(cache) == 1
        # The bell entry was evicted: transpiling it again misses.
        cache.transpile(measured_bell(), ibmqx4_device)
        assert cache.misses == 3

    def test_maxsize_zero_disables_storage(self, ibmqx4_device):
        cache = TranspileCache(maxsize=0)
        cache.transpile(measured_bell(), ibmqx4_device)
        cache.transpile(measured_bell(), ibmqx4_device)
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.misses == 2

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            TranspileCache(maxsize=-1)

    def test_clear_preserves_stats(self, ibmqx4_device):
        cache = TranspileCache()
        cache.transpile(measured_bell(), ibmqx4_device)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1

    def test_transpile_cached_uses_explicit_cache(self, ibmqx4_device):
        cache = TranspileCache()
        transpile_cached(measured_bell(), ibmqx4_device, cache=cache)
        assert len(cache) == 1


class TestBackendCacheWiring:
    def test_cache_hits_never_change_results(self, ibmqx4_device):
        cache = TranspileCache()
        backend = NoisyDeviceBackend(ibmqx4_device, cache=cache)
        cold = backend.run(measured_bell(), shots=1500, seed=17)
        assert cache.misses == 1
        warm = backend.run(measured_bell(), shots=1500, seed=17)
        assert cache.hits == 1
        assert dict(cold.counts) == dict(warm.counts)
        assert cold.probabilities == warm.probabilities

    def test_cache_false_disables_caching(self, ibmqx4_device):
        backend = NoisyDeviceBackend(ibmqx4_device, cache=False)
        a = backend.run(measured_bell(), shots=500, seed=1)
        b = backend.run(measured_bell(), shots=500, seed=1)
        assert dict(a.counts) == dict(b.counts)

    def test_trajectory_backend_shares_prepare(self):
        device = linear_device(3)
        cache = TranspileCache()
        backend = TrajectoryDeviceBackend(device, cache=cache)
        result = backend.run(measured_bell(), shots=50, seed=2)
        # The shared DeviceBackend.run stamps trajectory results too.
        assert result.metadata["device"] == device.name
        assert "transpiled_ops" in result.metadata
        assert len(cache) == 1

    def test_pinned_layout_participates_in_key(self, ibmqx4_device):
        cache = TranspileCache()
        free = NoisyDeviceBackend(ibmqx4_device, cache=cache)
        pinned = NoisyDeviceBackend(
            ibmqx4_device, layout=Layout([1, 2], 5), cache=cache
        )
        free.prepare(measured_bell())
        pinned.prepare(measured_bell())
        assert cache.misses == 2


class TestDiskBackedTranspileCache:
    def test_fresh_cache_serves_persisted_transpile(self, ibmqx4_device, tmp_path):
        """A new cache instance (i.e. a new process) over the same directory
        skips the lowering and returns an identical circuit."""
        warm = TranspileCache(cache_dir=tmp_path)
        lowered = NoisyDeviceBackend(ibmqx4_device, cache=warm).prepare(
            measured_bell()
        )
        assert warm.misses == 1

        cold = TranspileCache(cache_dir=tmp_path)
        served = NoisyDeviceBackend(ibmqx4_device, cache=cold).prepare(
            measured_bell()
        )
        assert cold.hits == 1
        assert cold.misses == 0
        assert cold.stats()["disk"]["hits"] == 1
        assert served.fingerprint() == lowered.fingerprint()

    def test_disk_served_circuit_runs_identically(self, ibmqx4_device, tmp_path):
        warm_backend = NoisyDeviceBackend(
            ibmqx4_device, cache=TranspileCache(cache_dir=tmp_path)
        )
        direct = warm_backend.run(measured_bell(), shots=1024, seed=3)
        disk_backend = NoisyDeviceBackend(
            ibmqx4_device, cache=TranspileCache(cache_dir=tmp_path)
        )
        from_disk = disk_backend.run(measured_bell(), shots=1024, seed=3)
        assert dict(direct.counts) == dict(from_disk.counts)
        assert direct.probabilities == from_disk.probabilities


def rotated_bell(theta):
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.rz(theta, 0)
    qc.cx(0, 1)
    qc.ry(-theta, 1)
    qc.measure([0, 1], [0, 1])
    return qc


def as_lists(circuit):
    return [
        (inst.name, inst.qubits, inst.clbits,
         [float(p).hex() for p in inst.operation.params], inst.condition)
        for inst in circuit.data
    ]


class TestShapeKey:
    """Circuits that differ only in 1-qubit angles share one template."""

    def test_two_angles_of_one_shape_share_one_entry(self, ibmqx4_device):
        from repro.transpiler import transpile_for_device

        cache = TranspileCache()
        cache.transpile(rotated_bell(0.3), ibmqx4_device)
        served = cache.transpile(rotated_bell(-1.1), ibmqx4_device)
        assert (len(cache), cache.misses, cache.hits) == (1, 1, 1)
        assert as_lists(served) == as_lists(
            transpile_for_device(rotated_bell(-1.1), ibmqx4_device)
        )

    def test_angle_free_key_drops_only_one_qubit_angles(self):
        assert rotated_bell(0.3).shape_fingerprint() == rotated_bell(2.0).shape_fingerprint()
        assert rotated_bell(0.3).fingerprint() != rotated_bell(2.0).fingerprint()
        assert measured_bell().shape_fingerprint() != measured_bell().fingerprint()

    @pytest.mark.parametrize("variant", ["gate", "qubit", "condition", "two_qubit_angle"])
    def test_structurally_different_circuits_never_share(self, ibmqx4_device, variant):
        from repro.circuits.gates import get_gate

        other = QuantumCircuit(2, 2)
        other.h(0)
        if variant == "gate":
            other.rx(0.3, 0)
        elif variant == "qubit":
            other.rz(0.3, 1)
        else:
            other.rz(0.3, 0)
        if variant == "condition":
            other.append(get_gate("cx"), [0, 1], condition=(0, 1))
        else:
            other.cx(0, 1)
        other.ry(-0.3, 1)
        other.measure([0, 1], [0, 1])
        cache = TranspileCache()
        cache.transpile(rotated_bell(0.3), ibmqx4_device)
        if variant == "two_qubit_angle":
            first = QuantumCircuit(2)
            first.append(get_gate("crz", (0.3,)), [0, 1])
            other = QuantumCircuit(2)
            other.append(get_gate("crz", (0.4,)), [0, 1])
            cache.transpile(first, ibmqx4_device)
        cache.transpile(other, ibmqx4_device)
        assert cache.hits == 0
        assert len(cache) == cache.misses

    def test_fresh_cache_serves_a_new_angle_from_the_persisted_template(
        self, ibmqx4_device, tmp_path
    ):
        from repro.transpiler import transpile_for_device

        TranspileCache(cache_dir=tmp_path).transpile(rotated_bell(0.3), ibmqx4_device)
        fresh = TranspileCache(cache_dir=tmp_path)
        served = fresh.transpile(rotated_bell(2.5), ibmqx4_device)
        assert fresh.misses == 0
        assert fresh.stats()["disk"]["hits"] == 1
        assert fresh.stats()["disk"]["entries"] == 1
        assert as_lists(served) == as_lists(
            transpile_for_device(rotated_bell(2.5), ibmqx4_device)
        )

    def test_prepare_span_reads_a_shape_hit_as_a_hit(self, ibmqx4_device):
        from repro.obs.trace import Span
        from repro.runtime import execute

        def walk(node):
            yield node
            for child in node.get("children", ()):
                yield from walk(child)

        backend = NoisyDeviceBackend(ibmqx4_device, cache=TranspileCache())
        stamps = []
        for theta in (0.3, 0.7):
            job = execute(rotated_bell(theta), backend, shots=16, seed=1,
                          trace_parent=Span("sweep"))
            job.result(timeout=60)
            stamps += [n["attrs"]["cache_hit"] for n in walk(job.trace())
                       if n["name"] == "prepare"]
        assert stamps == [False, True]
