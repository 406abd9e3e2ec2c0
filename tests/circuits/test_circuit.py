"""Tests for the QuantumCircuit builder."""

import math

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.registers import ClassicalRegister, QuantumRegister
from repro.exceptions import CircuitError


class TestConstruction:
    def test_int_args(self):
        qc = QuantumCircuit(3, 2)
        assert (qc.num_qubits, qc.num_clbits) == (3, 2)

    def test_register_args(self):
        qreg = QuantumRegister(2, "a")
        creg = ClassicalRegister(1, "b")
        qc = QuantumCircuit(qreg, creg)
        assert qc.num_qubits == 2
        assert qc.num_clbits == 1

    def test_mixed_args(self):
        qreg = QuantumRegister(2, "a")
        qc = QuantumCircuit(qreg, 1)
        # int arg allocates an anonymous quantum register after 'a'
        assert qc.num_qubits == 3

    def test_negative_counts_rejected(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(-1)

    def test_three_ints_rejected(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(1, 1, 1)

    def test_duplicate_register_name_rejected(self):
        qc = QuantumCircuit(QuantumRegister(1, "dup"))
        with pytest.raises(CircuitError, match="duplicate"):
            qc.add_register(QuantumRegister(2, "dup"))


class TestBuilderMethods:
    def test_every_gate_method_appends(self):
        qc = QuantumCircuit(3)
        qc.i(0).x(0).y(0).z(0).h(0).s(0).sdg(0).t(0).tdg(0).sx(0).sxdg(0)
        qc.rx(0.1, 0).ry(0.2, 0).rz(0.3, 0).p(0.4, 0).u1(0.5, 0)
        qc.u2(0.1, 0.2, 0).u3(0.1, 0.2, 0.3, 0)
        qc.cx(0, 1).cy(0, 1).cz(0, 1).ch(0, 1).swap(0, 1).iswap(0, 1)
        qc.cp(0.1, 0, 1).crx(0.2, 0, 1).cry(0.3, 0, 1).crz(0.4, 0, 1)
        qc.cu3(0.1, 0.2, 0.3, 0, 1).rxx(0.5, 0, 1).rzz(0.6, 0, 1)
        qc.ccx(0, 1, 2).cswap(0, 1, 2)
        assert len(qc) == 33

    def test_gate_on_invalid_qubit_raises(self):
        qc = QuantumCircuit(1)
        with pytest.raises(CircuitError, match="out of range"):
            qc.h(3)

    def test_unitary_gate_append(self):
        qc = QuantumCircuit(1)
        qc.unitary(np.array([[0, 1], [1, 0]]), [0], label="myx")
        assert qc.data[0].name == "myx"

    def test_unitary_arity_mismatch(self):
        qc = QuantumCircuit(2)
        with pytest.raises(CircuitError, match="acts on 1 qubit"):
            qc.unitary(np.eye(2), [0, 1])

    def test_measure_pairs(self):
        qc = QuantumCircuit(2, 2)
        qc.measure([0, 1], [0, 1])
        assert [inst.name for inst in qc] == ["measure", "measure"]

    def test_measure_length_mismatch(self):
        qc = QuantumCircuit(2, 2)
        with pytest.raises(CircuitError, match="equal"):
            qc.measure([0, 1], [0])

    def test_measure_all_allocates_register(self):
        qc = QuantumCircuit(3)
        qc.measure_all()
        assert qc.num_clbits == 3
        assert qc.has_measurements()

    def test_barrier_defaults_to_all_qubits(self):
        qc = QuantumCircuit(3)
        qc.barrier()
        assert qc.data[0].qubits == (0, 1, 2)

    def test_conditional_gate(self):
        qc = QuantumCircuit(1, 1)
        qc.x(0, condition=(0, 1))
        assert qc.data[0].condition == (0, 1)

    def test_add_qubits_extends_space(self):
        qc = QuantumCircuit(2)
        reg = qc.add_qubits(2, name="anc")
        assert qc.num_qubits == 4
        assert qc.qubit_index(reg[0]) == 2

    def test_add_zero_qubits_rejected(self):
        qc = QuantumCircuit(1)
        with pytest.raises(CircuitError):
            qc.add_qubits(0)

    def test_register_bit_resolution(self):
        qreg = QuantumRegister(2, "qq")
        qc = QuantumCircuit(qreg)
        qc.h(qreg[1])
        assert qc.data[0].qubits == (1,)

    def test_foreign_bit_rejected(self):
        other = QuantumRegister(1, "other")
        qc = QuantumCircuit(1)
        with pytest.raises(CircuitError, match="not in this circuit"):
            qc.h(other[0])


class TestOperandPath:
    """The builder's operand checks: in-range ints take the cheap path,
    everything else resolves (or fails) exactly as through qubit_index."""

    @pytest.mark.parametrize("bad", [2, 7, -1, -3])
    def test_out_of_range_qubit_raises(self, bad):
        qc = QuantumCircuit(2, 1)
        with pytest.raises(CircuitError, match=rf"qubit index {bad} out of range "
                           r"\(circuit has 2 qubit\(s\)\)"):
            qc.h(bad)
        with pytest.raises(CircuitError, match=f"qubit index {bad} out of range"):
            qc.cx(0, bad)
        with pytest.raises(CircuitError, match=f"qubit index {bad} out of range"):
            qc.measure(bad, 0)
        assert len(qc) == 0

    @pytest.mark.parametrize("bad", [1, -1])
    def test_out_of_range_clbit_raises(self, bad):
        qc = QuantumCircuit(2, 1)
        with pytest.raises(CircuitError, match=rf"clbit index {bad} out of range "
                           r"\(circuit has 1 clbit\(s\)\)"):
            qc.measure(0, bad)
        with pytest.raises(CircuitError, match=f"clbit index {bad} out of range"):
            qc.x(0, condition=(bad, 1))

    def test_bool_and_numpy_operands_store_plain_ints(self):
        qc = QuantumCircuit(2, 2)
        qc.cx(True, np.int64(0))
        qc.measure([np.int64(1), False], [True, np.int32(0)])
        qc.x(np.int64(0), condition=(np.int64(1), True))
        assert [inst.qubits for inst in qc.data] == [(1, 0), (1,), (0,), (0,)]
        assert [inst.clbits for inst in qc.data[1:3]] == [(1,), (0,)]
        assert qc.data[3].condition == (1, 1)
        for inst in qc.data:
            assert all(type(q) is int for q in inst.qubits + inst.clbits)

    def test_numpy_scalar_measure_stays_a_type_error(self):
        # A bare NumPy scalar is not a specifier measure() accepts alone.
        qc = QuantumCircuit(1, 1)
        with pytest.raises(TypeError):
            qc.measure(np.int64(0), 0)

    def test_same_qubit_twice_raises(self):
        qc = QuantumCircuit(3)
        with pytest.raises(CircuitError, match=r"duplicate qubit operands \(0, 0\)"):
            qc.cx(0, 0)
        with pytest.raises(CircuitError, match="duplicate qubit operands"):
            qc.ccx(0, 1, 0)
        with pytest.raises(CircuitError, match="duplicate qubit operands"):
            qc.cx(True, 1)
        assert len(qc) == 0

    def test_bit_operands_resolve_by_register(self):
        first, second = QuantumRegister(2, "a"), QuantumRegister(3, "b")
        creg = ClassicalRegister(2, "m")
        qc = QuantumCircuit(first, second, creg)
        qc.cx(second[2], first[1])
        qc.measure(second[0], creg[1])
        assert qc.data[0].qubits == (4, 1)
        assert qc.data[1].qubits == (2,) and qc.data[1].clbits == (1,)
        assert qc.qubits == list(first) + list(second)
        assert qc.clbits == list(creg)

    def test_foreign_bits_raise(self):
        qc = QuantumCircuit(QuantumRegister(2, "a"), ClassicalRegister(1, "m"))
        stranger = QuantumRegister(2, "a")  # same name, different register
        with pytest.raises(CircuitError, match="is not in this circuit"):
            qc.h(stranger[0])
        with pytest.raises(CircuitError, match="is not in this circuit"):
            qc.measure(0, ClassicalRegister(1, "m")[0])

    def test_duplicate_register_name_raises(self):
        qc = QuantumCircuit(QuantumRegister(1, "a"), ClassicalRegister(1, "a"))
        with pytest.raises(CircuitError, match="duplicate register name 'a'"):
            qc.add_register(QuantumRegister(2, "a"))
        with pytest.raises(CircuitError, match="duplicate register name 'a'"):
            qc.add_clbits(1, name="a")
        assert (qc.num_qubits, qc.num_clbits) == (1, 1)
        assert [r.name for r in qc.qregs] == ["a"]

    def test_count_qregs_follows_added_registers(self):
        qc = QuantumCircuit(QuantumRegister(1, "anc_x"))
        assert qc.count_qregs("anc") == 1
        qc.add_qubits(1, name="anc1")
        qc.add_qubits(1, name="other")
        qc.add_clbits(1, name="anc2")  # classical registers do not count
        assert qc.count_qregs("anc") == 2
        assert qc.count_qregs("") == 3
        assert qc.copy().count_qregs("anc") == 2


class TestComposeInverse:
    def test_compose_identity_mapping(self):
        inner = QuantumCircuit(2)
        inner.cx(0, 1)
        outer = QuantumCircuit(3)
        outer.compose(inner)
        assert outer.data[0].qubits == (0, 1)

    def test_compose_with_mapping(self):
        inner = QuantumCircuit(2)
        inner.cx(0, 1)
        outer = QuantumCircuit(3)
        outer.compose(inner, qubits=[2, 0])
        assert outer.data[0].qubits == (2, 0)

    def test_compose_too_large_rejected(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(1).compose(QuantumCircuit(2))

    def test_compose_bad_map_size(self):
        inner = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            QuantumCircuit(3).compose(inner, qubits=[0])

    def test_inverse_reverses_and_inverts(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.s(0)
        inv = qc.inverse()
        assert [inst.name for inst in inv] == ["sdg", "h"]

    def test_inverse_of_measurement_rejected(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        with pytest.raises(CircuitError, match="non-unitary"):
            qc.inverse()

    def test_power_zero_is_empty(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        assert len(qc.power(0)) == 0

    def test_power_negative_inverts(self):
        qc = QuantumCircuit(1)
        qc.s(0)
        inv2 = qc.power(-2)
        assert [inst.name for inst in inv2] == ["sdg", "sdg"]

    def test_copy_is_independent(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        other = qc.copy()
        other.x(0)
        assert len(qc) == 1
        assert len(other) == 2


class TestIntrospection:
    def test_count_ops(self):
        qc = QuantumCircuit(2)
        qc.h(0).h(1).cx(0, 1)
        assert qc.count_ops() == {"h": 2, "cx": 1}

    def test_size_excludes_barriers(self):
        qc = QuantumCircuit(2)
        qc.h(0).barrier().cx(0, 1)
        assert qc.size() == 2
        assert qc.size(include_directives=True) == 3

    def test_depth_series_vs_parallel(self):
        parallel = QuantumCircuit(2)
        parallel.h(0).h(1)
        assert parallel.depth() == 1
        series = QuantumCircuit(1)
        series.h(0).h(0)
        assert series.depth() == 2

    def test_depth_counts_conditions(self):
        qc = QuantumCircuit(2, 1)
        qc.measure(0, 0)
        qc.x(1, condition=(0, 1))  # depends on clbit 0 -> depth 2
        assert qc.depth() == 2

    def test_num_two_qubit_gates(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).ccx(0, 1, 2)
        assert qc.num_two_qubit_gates() == 2

    def test_measured_clbits(self):
        qc = QuantumCircuit(2, 3)
        qc.measure(0, 2)
        qc.measure(1, 0)
        assert qc.measured_clbits() == [0, 2]

    def test_labels(self):
        qc = QuantumCircuit(QuantumRegister(2, "a"), ClassicalRegister(1, "c0"))
        assert qc.qubit_label(1) == "a[1]"
        assert qc.clbit_label(0) == "c0[0]"

    def test_repr(self):
        qc = QuantumCircuit(2, 1, name="demo")
        assert "demo" in repr(qc)
