"""Planned batched kernels: byte-identical to the unplanned kernel.

``batched_apply_operator`` reads a cached per-operator plan instead of
re-deriving it on every call, and applies it with the stacked kernel.  The
trajectory engine's bit-identity contract rests on it computing every
output float exactly as the plain kernel below (the implementation that
preceded the plans, kept verbatim as the reference) does.  A compiled
Born step's weights and branches must in turn give every column of a
batch the bytes that column gets alone.
"""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuits.gates import get_gate
from repro.devices.ibmqx4 import ibmqx4
from repro.exceptions import SimulationError
from repro.noise.channels import (
    amplitude_damping,
    depolarizing,
    lift_operators,
    thermal_relaxation,
)
from repro.simulators import _kernels, _program

from loop_reference import apply_matrix
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


def _over_targets(states, step):
    """``states`` held over ``step``'s targets, as the walker holds them."""
    return _kernels.relayout(states.reshape(-1, 1, states.shape[-1]), (), step.targets)


def _norms(states):
    return (np.abs(states) ** 2).reshape(-1, states.shape[-1]).sum(axis=0)


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
                got = apply_matrix(states, matrix, qubits)
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes(), (name, qubits)

    def test_qubits_as_list(self):
        states = _random_states(3, seed=5)
        matrix = MATRICES["u3"]
        expected = reference_apply_matrix(states, matrix, [2])
        got = apply_matrix(states, matrix, [2])
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
        """Monomial plans carry each row's source column, dense ones none."""
        for name in ("scaled-identity", "cx", "phase", "pauli-y"):
            columns, coefficients = _kernels._operator_plan(MATRICES[name])
            assert columns is not None and coefficients.shape == columns.shape, name
        for name in ("u3", "u3-pair", "thermal-kraus"):
            columns, coefficients = _kernels._operator_plan(MATRICES[name])
            assert columns is None and coefficients.ndim == 3, name

    def test_shape_mismatch_raises(self):
        states = _random_states(2, seed=0)
        with pytest.raises(SimulationError, match="does not act on 2"):
            apply_matrix(states, np.eye(2, dtype=complex), (0, 1))
        with pytest.raises(SimulationError, match="does not act on 1"):
            apply_matrix(states, MATRICES["cx"], (0,))


def _born_steps(model, gates):
    """The distinct multi-branch Born steps of ``model``'s channels on ``gates``."""
    steps = {}
    for name, qubits in gates:
        instruction = SimpleNamespace(name=name, qubits=qubits)
        channels = tuple(
            (tuple(kraus), tuple(targets))
            for kraus, targets in model.channels_for(instruction)
        )
        for step in _program.born_steps(tuple(qubits), channels):
            key = (step.targets, step.operators.tobytes())
            if step.draws:
                steps.setdefault(key, step)
    return list(steps.values())


def _hadamard_damping():
    """Amplitude damping conjugated by H: Born forms that are not diagonal."""
    hadamard = get_gate("h").matrix
    return [hadamard @ k @ hadamard for k in amplitude_damping(0.3).operators]


def _device_gates():
    device = ibmqx4()
    return device.noise_model(), [
        (cal.name, cal.qubits or (0,)) for cal in device.gate_calibrations
    ]


STEPS = {
    **{f"ibmqx4-{i}": s for i, s in enumerate(_born_steps(*_device_gates()))},
    **{
        f"unit-noise-{i}": s
        for i, s in enumerate(
            _born_steps(noisy_model(), [("h", (0,)), ("x", (3,)), ("cx", (4, 1))])
        )
    },
    "hadamard-damping": _program.BornStep((2,), _hadamard_damping()),
    "hadamard-damping-pair": _program.BornStep(
        (3, 1),
        [np.kron(a, b) for a in _hadamard_damping() for b in _hadamard_damping()],
    ),
}


class TestBornStepKernels:
    """A Born step's weights and branches, column by column.

    Each column of a batch must get the bytes it gets alone (the walker
    evolves one column per history class and the reference walker one
    shot at a time), and the values the operators define.
    """

    @pytest.mark.parametrize("batch", [1, 7, 300])
    @pytest.mark.parametrize("name", sorted(STEPS))
    def test_columns_equal_lone_columns(self, name, batch):
        step = STEPS[name]
        states = _random_states(batch, seed=batch)
        states[..., 0] = 0.0  # a column without support: signed zeros
        source = _over_targets(states, step)
        weights = step.weights(step.features(source))
        branches = np.random.default_rng(batch).integers(0, len(step.operators), batch)
        chosen = weights[branches, np.arange(batch)]
        first = step.first(source, weights[0])
        built = step.build(source, branches, chosen)
        for column in range(batch):
            alone = source[..., column:column + 1]
            lone = step.weights(step.features(alone))
            assert lone.tobytes() == weights[:, column:column + 1].tobytes(), column
            assert (
                step.first(alone, lone[0]).tobytes()
                == np.ascontiguousarray(first[..., column:column + 1]).tobytes()
            ), column
            branch = branches[column:column + 1]
            got = step.build(alone, branch, lone[branch[0], :])
            expected = np.ascontiguousarray(built[..., column:column + 1])
            assert got.tobytes() == expected.tobytes(), column

    @pytest.mark.parametrize("name", sorted(STEPS))
    def test_weights_and_branches_are_the_operators(self, name):
        step = STEPS[name]
        states = _random_states(5, seed=3)
        states /= np.sqrt(_norms(states))  # trajectories are unit
        source = _over_targets(states, step)
        weights = step.weights(step.features(source))
        np.testing.assert_allclose(weights.sum(axis=0), 1.0, atol=1e-12)
        for branch, operator in enumerate(step.operators):
            image = apply_matrix(states, operator, step.targets)
            norms = _norms(image)
            np.testing.assert_allclose(weights[branch], norms, atol=1e-12)
            built = step.build(source, np.full(5, branch), weights[branch])
            expected = _over_targets(image / np.sqrt(norms), step)
            np.testing.assert_allclose(built, expected, atol=1e-10)
        first = step.first(source, weights[0])
        image = apply_matrix(states, step.operators[0], step.targets)
        image = _over_targets(image / np.sqrt(weights[0]), step).reshape(-1, 5)
        overlap = np.abs((first.reshape(-1, 5).conj() * image).sum(axis=0))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-10)  # up to a global phase

    def test_relayout_round_trips(self):
        states = _random_states(3, seed=4)
        flat = states.reshape(-1, 1, 3)
        for qubits in [(0,), (4,), (3, 1), (0, 4), (2, 1, 0)]:
            source = _kernels.relayout(flat, (), qubits)
            assert source.shape == (2 ** (5 - len(qubits)), 2 ** len(qubits), 3)
            index = [slice(None)] * 6
            for position, qubit in enumerate(qubits):  # target 1 at its bit
                index[qubit] = 1
            assert np.array_equal(source[0, -1], states[tuple(index)].reshape(-1, 3)[0])
            again = _kernels.relayout(_kernels.relayout(source, qubits, (3,)), (3,), ())
            assert again.tobytes() == np.ascontiguousarray(flat).tobytes()

    def test_steps_cover_every_form(self):
        """Diagonal and general forms, monomial and dense operators, on one
        and two targets."""
        covered = set()
        for step in STEPS.values():
            form = "general" if step.pairs else "diagonal"
            operators = "dense" if step.columns is None else "monomial"
            covered |= {(len(step.targets), form), (len(step.targets), operators)}
        assert covered >= {
            (k, kind)
            for k in (1, 2)
            for kind in ("diagonal", "general", "monomial", "dense")
        }


class TestFold:
    """How :func:`_program.born_steps` composes a gate's channels."""

    def test_channels_compose_in_order(self):
        first, second = depolarizing(0.1).operators, amplitude_damping(0.3).operators
        (step,) = _program.born_steps((0,), ((first, (0,)), (second, (0,))))
        expected = [b @ a for a in first for b in second]
        assert len(step.operators) == len(expected)
        for got, want in zip(step.operators, expected):
            assert got.tobytes() == want.tobytes()

    def test_dead_operators_are_dropped(self):
        """Thermal relaxation's zero operator leaves; the rest stay complete."""
        operators = thermal_relaxation(
            t1=50_000.0, t2=40_000.0, gate_time=400.0
        ).operators
        dead = [not (k.conj().T @ k).any() for k in operators]
        assert sum(dead) == 1
        (step,) = _program.born_steps((1,), ((operators, (1,)),))
        assert len(step.operators) == len(operators) - 1
        assert all((k.conj().T @ k).any() for k in step.operators)
        completeness = sum(k.conj().T @ k for k in step.operators)
        np.testing.assert_allclose(completeness, np.eye(2), atol=1e-12)

    def test_channel_without_live_operators_raises(self):
        zero = (np.zeros((2, 2), dtype=complex),)
        with pytest.raises(SimulationError, match="no Kraus operators"):
            _program.born_steps((0,), ((zero, (0,)),))

    def test_fold_is_cached_per_gate_and_bounded(self):
        built = []
        fold = _program.cached_fold(lambda qubits, channels: built.append(qubits))
        channels = ((depolarizing(0.1).operators, (0,)),)
        fold((0,), channels)
        fold((0,), channels)
        assert built == [(0,)]
        for qubit in range(1, _program.FOLD_CACHE_SIZE + 1):
            fold((qubit,), channels)
        fold((0,), channels)  # the full table was cleared
        assert len(built) == _program.FOLD_CACHE_SIZE + 2


class TestPackCounts:
    @pytest.mark.parametrize(
        "shots, width", [(0, 3), (5, 0), (1, 1), (64, 4), (300, 9), (200, 70)]
    )
    def test_counts_in_bitstring_order(self, shots, width):
        rng = np.random.default_rng(width)
        clbits = (rng.random((shots, width)) < 0.3).astype(np.uint8)
        expected = Counter("".join(map(str, row)) for row in clbits)
        got = _kernels.pack_counts(clbits)
        assert list(got.items()) == sorted(expected.items())
