"""Tests for the full transpilation pipeline."""

import pytest

from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.devices.generic import linear_device
from repro.devices.ibmqx4 import ibmqx4
from repro.exceptions import TranspilerError
from repro.simulators.statevector import StatevectorSimulator
from repro.transpiler.layout import Layout
from repro.transpiler.passes import (
    PassManager,
    TranspilerPass,
    device_pass_manager,
    transpile_for_device,
)


def native_only(circuit, device):
    """Assert the circuit uses only native gates on native directed edges."""
    for inst in circuit.data:
        if not inst.operation.is_gate:
            continue
        assert inst.name in device.basis_gates
        if inst.name == "cx":
            assert device.coupling_map.supports(*inst.qubits)


class TestPassManager:
    def test_runs_in_order_with_history(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        manager = PassManager(
            [
                TranspilerPass("a", lambda c: c),
                TranspilerPass("b", lambda c: c),
            ]
        )
        manager.run(qc)
        assert manager.history == ["a", "b"]

    def test_repr(self):
        manager = PassManager([TranspilerPass("x", lambda c: c)])
        assert "x" in repr(manager)


class TestFullPipeline:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: library.bell_pair(),
            lambda: library.ghz_state(4),
            lambda: library.qft(3),
            lambda: library.w_state(3),
        ],
        ids=["bell", "ghz4", "qft3", "w3"],
    )
    def test_ibmqx4_lowering_is_native(self, factory, ibmqx4_device):
        lowered = transpile_for_device(factory(), ibmqx4_device)
        native_only(lowered, ibmqx4_device)

    def test_measured_counts_preserved(self, ibmqx4_device):
        """Ideal simulation of the transpiled circuit must reproduce the
        original measurement distribution (physical bit positions differ,
        but clbits don't move)."""
        qc = library.ghz_state(3)
        qc.measure_all()
        lowered = transpile_for_device(qc, ibmqx4_device)
        sim = StatevectorSimulator()
        original = sim.exact_probabilities(qc)
        transpiled = sim.exact_probabilities(lowered)
        assert set(original) == set(transpiled)
        for key in original:
            assert abs(original[key] - transpiled[key]) < 1e-9

    def test_pinned_layout_respected(self, ibmqx4_device):
        qc = library.bell_pair()
        qc.measure_all()
        layout = Layout([1, 2], 5)
        lowered = transpile_for_device(qc, ibmqx4_device, layout=layout)
        touched = set()
        for inst in lowered.data:
            if inst.operation.is_gate or inst.name == "measure":
                touched.update(inst.qubits)
        assert touched <= {1, 2}

    def test_too_large_circuit_rejected(self, ibmqx4_device):
        with pytest.raises(TranspilerError):
            transpile_for_device(QuantumCircuit(6), ibmqx4_device)

    def test_optimization_reduces_or_keeps_size(self, ibmqx4_device):
        qc = library.qft(3)
        unoptimized = transpile_for_device(qc, ibmqx4_device, optimize=False)
        optimized = transpile_for_device(qc, ibmqx4_device, optimize=True)
        assert optimized.size() <= unoptimized.size()

    def test_routing_on_chain_device(self):
        device = linear_device(4)
        qc = QuantumCircuit(4, 2)
        qc.h(0)
        qc.cx(0, 3)  # forces routing on a chain
        qc.measure(0, 0)
        qc.measure(3, 1)
        lowered = transpile_for_device(qc, device)
        native_only(lowered, device)
        probs = StatevectorSimulator().exact_probabilities(lowered)
        assert set(probs) == {"00", "11"}

    def test_conditional_circuit_transpiles(self, ibmqx4_device):
        prep = QuantumCircuit(1)
        prep.ry(0.8, 0)
        circuit = library.teleportation(state_prep=prep)
        reg = circuit.add_clbits(1, name="bob")
        circuit.measure(2, reg[0])
        lowered = transpile_for_device(circuit, ibmqx4_device)
        native_only(lowered, ibmqx4_device)
        sim = StatevectorSimulator()
        import math

        probs = lowered and sim.exact_probabilities(lowered)
        p_one = sum(p for key, p in probs.items() if key[2] == "1")
        assert abs(p_one - math.sin(0.4) ** 2) < 1e-9

    def test_device_pass_manager_history(self, ibmqx4_device):
        manager = device_pass_manager(ibmqx4_device)
        manager.run(library.bell_pair())
        names = manager.history
        assert names[0] == "decompose"
        assert "direction" in names
