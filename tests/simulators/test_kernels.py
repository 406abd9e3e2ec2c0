"""Planned batched kernels: byte-identical to the unplanned kernel.

``batched_apply_matrix`` reads cached basis-slice keys and a cached
per-operator plan instead of re-deriving them on every call.  The
trajectory engine's bit-identity contract rests on it computing every
output float exactly as the plain kernel below (the implementation that
preceded the plans, kept verbatim as the reference) does.  The stacked
``batched_apply_branches`` must in turn give, for every operator of a
channel, the bytes the per-operator kernels give.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits.gates import get_gate
from repro.devices.ibmqx4 import ibmqx4
from repro.exceptions import SimulationError
from repro.noise.channels import lift_operators, thermal_relaxation
from repro.simulators import _kernels

from noisy_circuits import noisy_model


def _reference_basis_slices(states, qubits, dim):
    k = len(qubits)
    slices = []
    for index in range(dim):
        key = [slice(None)] * states.ndim
        for position, axis in enumerate(qubits):
            key[axis] = (index >> (k - 1 - position)) & 1
        slices.append(states[tuple(key)])
    return slices


def reference_apply_matrix(states, matrix, qubits):
    """The batched kernel before plans were cached."""
    k = len(qubits)
    dim = 2 ** k
    if matrix.shape != (dim, dim):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not act on {k} qubit(s)"
        )
    nonzero = matrix != 0
    if np.all(nonzero.sum(axis=1) == 1):
        columns = nonzero.argmax(axis=1)
        coefficients = matrix[np.arange(dim), columns]
        if (columns == np.arange(dim)).all() and (
            coefficients == coefficients[0]
        ).all():
            return coefficients[0] * states
        sources = _reference_basis_slices(states, qubits, dim)
        out = np.empty_like(states)
        targets = _reference_basis_slices(out, qubits, dim)
        for i in range(dim):
            targets[i][...] = coefficients[i] * sources[columns[i]]
        return out
    sources = _reference_basis_slices(states, qubits, dim)
    out = np.empty_like(states)
    targets = _reference_basis_slices(out, qubits, dim)
    for i in range(dim):
        acc = matrix[i, 0] * sources[0]
        for j in range(1, dim):
            acc += matrix[i, j] * sources[j]
        targets[i][...] = acc
    return out


def _thermal_kraus_with_zero_row():
    """A lifted thermal-relaxation operator: its ``|1>`` rows are all zero."""
    channel = thermal_relaxation(t1=50_000.0, t2=40_000.0, gate_time=400.0)
    lowering = next(op for op in channel.operators if op[1, 0] == 0 and op[0, 1] != 0)
    assert not lowering[1].any()
    return lift_operators([lowering], 1, 2)[0]


MATRICES = {
    "scaled-identity": (0.9 + 0.1j) * np.eye(4, dtype=complex),
    "pauli-y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "cx": get_gate("cx").matrix,
    "phase": get_gate("u1", [0.731]).matrix,
    "u3": get_gate("u3", [0.3, 1.1, -0.4]).matrix,
    "u3-pair": np.kron(
        get_gate("u3", [0.3, 1.1, -0.4]).matrix,
        get_gate("u3", [1.7, -0.2, 0.6]).matrix,
    ),
    "thermal-kraus": _thermal_kraus_with_zero_row(),
}

QUBITS = {1: [(0,), (2,), (4,)], 2: [(0, 1), (3, 1), (4, 2)]}


def _random_states(batch, seed):
    rng = np.random.default_rng(seed)
    shape = (2,) * 5 + (batch,)
    states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return states / math.sqrt(np.vdot(states, states).real)


class TestPlannedKernelMatchesReference:
    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_bytes_equal(self, name, batch):
        matrix = MATRICES[name]
        k = int(math.log2(matrix.shape[0]))
        states = _random_states(batch, seed=batch)
        for qubits in QUBITS[k]:
            expected = reference_apply_matrix(states, matrix, qubits)
            for _ in range(2):  # first call plans, second reads the cache
                got = _kernels.batched_apply_matrix(states, matrix, qubits)
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes(), (name, qubits)

    def test_qubits_as_list(self):
        states = _random_states(3, seed=5)
        matrix = MATRICES["u3"]
        expected = reference_apply_matrix(states, matrix, [2])
        got = _kernels.batched_apply_matrix(states, matrix, [2])
        assert got.tobytes() == expected.tobytes()


class TestPlanCache:
    def test_equal_content_shares_a_plan(self):
        matrix = get_gate("u3", [0.2, 0.5, 0.9]).matrix
        plan = _kernels._operator_plan(matrix)
        assert _kernels._operator_plan(matrix.copy()) is plan
        assert _kernels._operator_plan(get_gate("u3", [0.2, 0.5, 0.9]).matrix) is plan

    def test_different_content_gets_its_own_plan(self):
        first = _kernels._operator_plan(get_gate("u1", [0.25]).matrix)
        second = _kernels._operator_plan(get_gate("u1", [0.5]).matrix)
        assert first is not second

    def test_cache_is_bounded(self):
        info = _kernels._plan_for_content.cache_info
        for index in range(info().maxsize + 10):
            _kernels._operator_plan(get_gate("u1", [1e-3 * index]).matrix)
        assert info().currsize == info().maxsize

    def test_plan_kinds(self):
        assert _kernels._operator_plan(MATRICES["scaled-identity"])[0] == "scalar"
        assert _kernels._operator_plan(MATRICES["cx"])[0] == "monomial"
        assert _kernels._operator_plan(MATRICES["phase"])[0] == "monomial"
        assert _kernels._operator_plan(MATRICES["u3"])[0] == "dense"
        assert _kernels._operator_plan(MATRICES["u3-pair"])[0] == "dense"

    def test_shape_mismatch_raises(self):
        states = _random_states(2, seed=0)
        with pytest.raises(SimulationError, match="does not act on 2"):
            _kernels.batched_apply_matrix(states, np.eye(2, dtype=complex), (0, 1))
        with pytest.raises(SimulationError, match="does not act on 1"):
            _kernels.batched_apply_matrix(states, MATRICES["cx"], (0,))


def _channels(model, gates):
    """The distinct Kraus channels ``model`` attaches to ``gates``."""
    channels = {}
    for name, qubits in gates:
        instruction = SimpleNamespace(name=name, qubits=qubits)
        for operators, targets in model.channels_for(instruction):
            key = tuple(op.tobytes() for op in operators)
            channels.setdefault(key, (operators, len(targets)))
    return list(channels.values())


def _device_channels():
    device = ibmqx4()
    gates = [(cal.name, cal.qubits or (0,)) for cal in device.gate_calibrations]
    return _channels(device.noise_model(), gates)


CHANNELS = {
    **{f"ibmqx4-{i}": c for i, c in enumerate(_device_channels())},
    **{
        f"unit-noise-{i}": c
        for i, c in enumerate(
            _channels(noisy_model(), [("h", (0,)), ("x", (0,)), ("cx", (0, 1))])
        )
    },
}


class TestStackedBranchesMatchPerOperator:
    """``batched_apply_branches`` against per-operator apply and norm."""

    @pytest.mark.parametrize("batch", [1, 7, 300])
    @pytest.mark.parametrize("name", sorted(CHANNELS))
    def test_bytes_equal(self, name, batch):
        operators, k = CHANNELS[name]
        states = _random_states(batch, seed=batch)
        states[..., 0] = 0.0  # a column without support: signed zeros
        for qubits in QUBITS[k]:
            # The walker's later branches, and the whole channel, whose
            # operators mix the monomial and dense plans.
            for subset in (operators[1:], operators):
                branches, norms = _kernels.batched_apply_branches(
                    states, subset, qubits
                )
                assert branches.shape == states.shape[:-1] + (len(subset), batch)
                assert norms.shape == (len(subset), batch)
                for j, k_op in enumerate(subset):
                    expected = _kernels.batched_apply_matrix(states, k_op, qubits)
                    got = np.ascontiguousarray(branches[..., j, :])
                    assert got.tobytes() == expected.tobytes(), (name, qubits, j)
                    norm = _kernels.batched_norm_sq(expected)
                    assert norms[j].tobytes() == norm.tobytes(), (name, qubits, j)

    def test_channels_cover_every_plan(self):
        """Scalar, monomial and dense operators, on 1 and 2 targets."""
        covered = {
            (k, _kernels._operator_plan(op)[0])
            for operators, k in CHANNELS.values()
            for op in operators
        }
        assert covered >= {
            (k, kind) for k in (1, 2) for kind in ("scalar", "monomial", "dense")
        }

    def test_shape_mismatch_raises(self):
        states = _random_states(2, seed=0)
        with pytest.raises(SimulationError, match="does not act on 2"):
            _kernels.batched_apply_branches(
                states, [np.eye(2, dtype=complex)], (0, 1)
            )
