"""Tests for gate matrices, inverses and decompositions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import gates
from repro.exceptions import GateError


ANGLES = st.floats(
    min_value=-2 * math.pi, max_value=2 * math.pi, allow_nan=False
)


def _gate_with_random_params(name, rng=None):
    _, num_params, _ = gates._STANDARD[name]
    params = [0.7 + 0.3 * k for k in range(num_params)]
    return gates.get_gate(name, params)


class TestStandardGateMatrices:
    @pytest.mark.parametrize("name", list(gates.standard_gate_names()))
    def test_every_standard_gate_is_unitary(self, name):
        gate = _gate_with_random_params(name)
        assert gates.is_unitary_matrix(gate.matrix)

    @pytest.mark.parametrize("name", list(gates.standard_gate_names()))
    def test_matrix_dimension_matches_arity(self, name):
        gate = _gate_with_random_params(name)
        assert gate.matrix.shape == (2 ** gate.num_qubits, 2 ** gate.num_qubits)

    def test_hadamard_maps_basis_to_plus_minus(self):
        h = gates.h_matrix()
        plus = h @ np.array([1, 0])
        minus = h @ np.array([0, 1])
        np.testing.assert_allclose(plus, [1 / math.sqrt(2)] * 2, atol=1e-12)
        np.testing.assert_allclose(
            minus, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-12
        )

    def test_cx_truth_table(self):
        cx = gates.cx_matrix()
        # |10> -> |11>, |11> -> |10>, |0x> untouched.
        for source, expected in [(0, 0), (1, 1), (2, 3), (3, 2)]:
            vec = np.zeros(4)
            vec[source] = 1
            out = cx @ vec
            assert abs(out[expected] - 1) < 1e-12

    def test_swap_exchanges_amplitudes(self):
        swap = gates.swap_matrix()
        vec = np.array([0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(swap @ vec, [0, 0, 1, 0], atol=1e-12)

    def test_s_squared_is_z(self):
        np.testing.assert_allclose(
            gates.s_matrix() @ gates.s_matrix(), gates.z_matrix(), atol=1e-12
        )

    def test_t_squared_is_s(self):
        np.testing.assert_allclose(
            gates.t_matrix() @ gates.t_matrix(), gates.s_matrix(), atol=1e-12
        )

    def test_sx_squared_is_x(self):
        np.testing.assert_allclose(
            gates.sx_matrix() @ gates.sx_matrix(), gates.x_matrix(), atol=1e-12
        )

    def test_u3_specialisations(self):
        np.testing.assert_allclose(
            gates.u3_matrix(math.pi / 2, 0.1, 0.2),
            gates.u2_matrix(0.1, 0.2),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            gates.u3_matrix(0.0, 0.0, 0.7), gates.phase_matrix(0.7), atol=1e-12
        )

    def test_rz_equals_phase_up_to_global_phase(self):
        rz = gates.rz_matrix(0.9)
        p = gates.phase_matrix(0.9)
        assert gates.matrices_equal_up_to_phase(rz, p)

    def test_ccx_flips_only_on_both_controls(self):
        ccx = gates.ccx_matrix()
        vec = np.zeros(8)
        vec[0b110] = 1  # controls set, target 0
        out = ccx @ vec
        assert abs(out[0b111] - 1) < 1e-12
        vec = np.zeros(8)
        vec[0b100] = 1  # only one control
        out = ccx @ vec
        assert abs(out[0b100] - 1) < 1e-12

    def test_controlled_matrix_block_structure(self):
        u = gates.h_matrix()
        cu = gates.controlled_matrix(u)
        np.testing.assert_allclose(cu[:2, :2], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(cu[2:, 2:], u, atol=1e-12)

    def test_rzz_diagonal(self):
        theta = 0.5
        mat = gates.rzz_matrix(theta)
        expected = np.diag(
            [
                cmath.exp(-0.5j * theta),
                cmath.exp(0.5j * theta),
                cmath.exp(0.5j * theta),
                cmath.exp(-0.5j * theta),
            ]
        )
        np.testing.assert_allclose(mat, expected, atol=1e-12)


class TestGateRegistry:
    def test_unknown_gate_raises(self):
        with pytest.raises(GateError, match="unknown gate"):
            gates.get_gate("nope")

    def test_wrong_param_count_raises(self):
        with pytest.raises(GateError, match="expects 1 parameter"):
            gates.get_gate("rx")

    def test_gate_equality_uses_params(self):
        assert gates.get_gate("rx", (0.5,)) == gates.get_gate("rx", (0.5,))
        assert gates.get_gate("rx", (0.5,)) != gates.get_gate("rx", (0.6,))

    def test_gate_repr_mentions_name(self):
        assert "rx" in repr(gates.get_gate("rx", (0.5,)))


class TestSharedGates:
    def test_parameterless_gates_are_shared(self):
        assert gates.get_gate("cx") is gates.get_gate("cx")
        assert gates.get_gate("H") is gates.get_gate("h")

    def test_copy_and_inverse_are_distinct(self):
        cx = gates.get_gate("cx")
        assert cx.copy() is not cx and cx.copy() == cx
        assert cx.inverse() is not cx and cx.inverse() == cx
        s = gates.get_gate("s")
        assert s.inverse() is not gates.get_gate("sdg")
        assert s.inverse() == gates.get_gate("sdg")

    def test_parameterised_gates_are_fresh(self):
        assert gates.get_gate("rz", (0.5,)) is not gates.get_gate("rz", (0.5,))

    def test_standard_gates_carry_no_matrix_payload(self):
        # The circuit fingerprint hashes an operation's ``_matrix``; a
        # standard gate is identified by name and parameters alone.
        assert getattr(gates.get_gate("cx"), "_matrix", None) is None
        assert getattr(gates.get_gate("u3", (1, 2, 3)), "_matrix", None) is None

    def test_errors_unchanged(self):
        gates.get_gate("cx")
        with pytest.raises(GateError, match="expects 0 parameter"):
            gates.get_gate("cx", (0.1,))
        with pytest.raises(GateError, match="unknown gate 'NOPE'"):
            gates.get_gate("NOPE")


class TestInverses:
    @pytest.mark.parametrize("name", list(gates.standard_gate_names()))
    def test_inverse_matrix_is_conjugate_transpose(self, name):
        gate = _gate_with_random_params(name)
        inverse = gate.inverse()
        np.testing.assert_allclose(
            inverse.matrix, gate.matrix.conj().T, atol=1e-10
        )

    def test_named_inverses(self):
        assert gates.get_gate("s").inverse().name == "sdg"
        assert gates.get_gate("t").inverse().name == "tdg"
        assert gates.get_gate("h").inverse().name == "h"
        assert gates.get_gate("cx").inverse().name == "cx"

    def test_rotation_inverse_negates_angle(self):
        inv = gates.get_gate("ry", (0.8,)).inverse()
        assert inv.name == "ry"
        assert inv.params == (-0.8,)


class TestUnitaryGate:
    def test_accepts_unitary(self):
        gate = gates.UnitaryGate(gates.h_matrix(), label="myh")
        assert gate.num_qubits == 1
        np.testing.assert_allclose(gate.matrix, gates.h_matrix(), atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(GateError, match="unitary"):
            gates.UnitaryGate(np.array([[1, 1], [0, 1]]))

    def test_inverse_roundtrip(self):
        gate = gates.UnitaryGate(gates.t_matrix())
        product = gate.inverse().matrix @ gate.matrix
        np.testing.assert_allclose(product, np.eye(2), atol=1e-12)

    def test_matrix_copy_is_defensive(self):
        gate = gates.UnitaryGate(gates.x_matrix())
        gate.matrix[0, 0] = 99.0
        np.testing.assert_allclose(gate.matrix, gates.x_matrix(), atol=1e-12)


class TestEulerDecompositions:
    @given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
    @settings(max_examples=80, deadline=None)
    def test_u3_angles_roundtrip(self, theta, phi, lam):
        matrix = gates.u3_matrix(theta, phi, lam)
        t, p, l, phase = gates.u3_angles_from_unitary(matrix)
        rebuilt = cmath.exp(1j * phase) * gates.u3_matrix(t, p, l)
        np.testing.assert_allclose(rebuilt, matrix, atol=1e-8)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_unitary_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        # Haar-ish random unitary via QR of a complex Gaussian matrix.
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(raw)
        unitary = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        t, p, l, phase = gates.u3_angles_from_unitary(unitary)
        rebuilt = cmath.exp(1j * phase) * gates.u3_matrix(t, p, l)
        np.testing.assert_allclose(rebuilt, unitary, atol=1e-8)

    def test_identity_decomposes_to_zero_theta(self):
        t, _p, _l, _phase = gates.euler_zyz_angles(np.eye(2))
        assert abs(t) < 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(GateError):
            gates.euler_zyz_angles(np.ones((2, 3)))

    def test_rejects_non_unitary(self):
        with pytest.raises(GateError):
            gates.euler_zyz_angles(np.array([[2, 0], [0, 1]], dtype=complex))


class TestCliffordDetection:
    @pytest.mark.parametrize("name", ["h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap"])
    def test_core_cliffords_detected(self, name):
        gate = gates.get_gate(name)
        assert gates.is_clifford_gate(gate)

    def test_t_gate_is_not_clifford(self):
        assert not gates.is_clifford_gate(gates.get_gate("t"))

    def test_rz_quarter_turn_is_clifford(self):
        assert gates.is_clifford_gate(gates.get_gate("rz", (math.pi / 2,)))
        assert not gates.is_clifford_gate(gates.get_gate("rz", (0.3,)))


class TestOperationClasses:
    def test_measure_shape(self):
        measure = gates.Measure()
        assert (measure.num_qubits, measure.num_clbits) == (1, 1)
        assert not measure.is_gate

    def test_barrier_arity(self):
        assert gates.Barrier(3).num_qubits == 3

    def test_gate_without_matrix_raises(self):
        bare = gates.Gate("custom", 1)
        with pytest.raises(GateError, match="no matrix"):
            _ = bare.matrix
