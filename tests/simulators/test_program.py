"""The compiled program's terminal measurements and the readout that reads them.

:func:`repro.simulators._program.build_program` marks a measurement
terminal when nothing later depends on it.  The density-matrix engine
reads every terminal measurement once from the final diagonal instead of
branching on each, and the trajectory walker gives each shot one draw for
all of them.  These tests pin the mark, hold the density-matrix readout to
the branch path it replaces (within 1e-12 per key, same keys), hold the
batched readout to the per-shot reference walker bit for bit, and check
that the post-measurement states are still the branch path's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.devices.backend import TrajectoryDeviceBackend
from repro.devices.ibmqx4 import ibmqx4
from repro.noise.channels import bit_flip
from repro.noise.trajectories import TrajectorySimulator
from repro.runtime import get_backend
from repro.simulators import _batched, _program
from repro.simulators.density_matrix import DensityMatrixSimulator

from loop_reference import device_loop_counts, loop_counts, max_draws
from noisy_circuits import DuckTypedNoise, noisy_model, paper_assertion

KINDS = ("classical", "entanglement", "superposition")


def terminal_flags(circuit, noise_model=None):
    """``(clbit, terminal)`` of each measurement step, in program order."""
    program = _program.build_program(circuit, noise_model, lambda q, c: ())
    return [(step[2], step[4]) for step in program if step[0] == _program.MEASURE]


def branch_distribution(simulator, circuit):
    """The distribution of the branch path: every measurement branches."""
    steps = simulator._program(circuit)
    branches = simulator._enumerate(circuit, steps, None)
    return simulator._distribution(circuit, branches, None)


class TestTerminalMark:
    def test_measurements_at_the_end_are_terminal(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(1)  # a later gate on another qubit
        qc.measure(1, 1)
        assert terminal_flags(qc) == [(0, True), (1, True)]

    def test_a_later_instruction_on_the_qubit(self):
        qc = QuantumCircuit(2, 2)
        qc.measure(0, 0)
        qc.cx(0, 1)
        qc.measure(1, 1)
        assert terminal_flags(qc) == [(0, False), (1, True)]

    def test_a_later_condition_on_the_clbit(self):
        qc = QuantumCircuit(2, 2)
        qc.measure(0, 0)
        qc.x(1, condition=(0, 1))
        qc.measure(1, 1)
        assert terminal_flags(qc) == [(0, False), (1, True)]

    def test_a_later_measurement_into_the_clbit(self):
        qc = QuantumCircuit(2, 1)
        qc.measure(0, 0)
        qc.measure(1, 0)
        assert terminal_flags(qc) == [(0, False), (0, True)]

    def test_a_later_noise_channel_on_the_qubit(self):
        """A duck-typed model's channel on the measured qubit acts on it."""

        class Neighbour:
            def channels_for(self, instruction):
                return [(bit_flip(0.1).operators, (0,))]

            def readout_confusion(self, qubit):
                return None

        qc = QuantumCircuit(2, 2)
        qc.measure(0, 0)
        qc.x(1)
        qc.measure(1, 1)
        assert terminal_flags(qc, Neighbour()) == [(0, False), (1, True)]
        assert terminal_flags(qc, noisy_model()) == [(0, True), (1, True)]

    def test_a_conditioned_measurement_is_not_terminal(self):
        qc = QuantumCircuit(2, 2)
        qc.measure(0, 0)
        qc.append(qc.data[0].operation, [1], [1], condition=(0, 1))
        assert terminal_flags(qc) == [(0, False), (1, False)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_paper_measurement_is_terminal_after_lowering(self, kind):
        backend = get_backend("noisy:ibmqx4")
        flags = terminal_flags(backend.prepare(paper_assertion(kind)))
        assert flags and all(terminal for _, terminal in flags)

    def test_the_readout_draw_bound(self):
        """One uniform reads every terminal measurement; a mid-circuit one
        keeps its outcome draw and its flip draw, and the noisy ``x`` takes
        one for its folded Kraus set."""
        qc = QuantumCircuit(2, 3)
        qc.measure(0, 0)
        qc.x(1, condition=(0, 1))
        qc.measure(0, 1)
        qc.measure(1, 2)
        model = noisy_model()
        program = _program.build_program(qc, model, _program.born_steps)
        assert _batched._max_draws(program) == 2 + 1 + 1
        assert max_draws(qc, model) == 2 + 1 + 1


@st.composite
def small_circuits(draw):
    """Discrete gates, small-angle ``ry``, mid-circuit and terminal
    measurements, conditions and resets on up to three qubits.

    The angles are multiples of ``6e-8``, so a measurement's outcome can
    fall just below or just above the branch path's ``1e-14`` floor and a
    joint outcome far below it.  To leading order each such probability
    is a whole multiple of ``9e-16``, so none lands on the floor itself,
    where round-off alone would decide."""
    qubits = draw(st.integers(1, 3))
    clbits = draw(st.integers(1, 3))
    qc = QuantumCircuit(qubits, clbits)
    qubit, clbit = st.integers(0, qubits - 1), st.integers(0, clbits - 1)
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(
            st.sampled_from(["h", "x", "s", "ry", "cx", "measure", "cond", "reset"])
        )
        if kind == "ry":
            qc.ry(6e-8 * draw(st.integers(1, 8)), draw(qubit))
        elif kind == "cx" and qubits > 1:
            control, target = draw(st.permutations(range(qubits)))[:2]
            qc.cx(control, target)
        elif kind == "measure":
            qc.measure(draw(qubit), draw(clbit))
        elif kind == "cond":
            qc.x(draw(qubit), condition=(draw(clbit), draw(st.integers(0, 1))))
        elif kind == "reset":
            qc.reset(draw(qubit))
        elif kind != "cx":
            getattr(qc, kind)(draw(qubit))
    for index in draw(st.lists(st.integers(0, qubits - 1), min_size=1, max_size=3)):
        qc.measure(index, draw(clbit))
    return qc


def assert_same_distribution(got, expected):
    assert sorted(got) == sorted(expected)
    for key, probability in expected.items():
        assert abs(got[key] - probability) <= 1e-12, key


class TestDensityMatrixReadout:
    """The terminal readout equals the branch path within 1e-12 per key."""

    @given(circuit=small_circuits(), noisy=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_circuits(self, circuit, noisy):
        simulator = DensityMatrixSimulator(noisy_model() if noisy else None)
        got = simulator.run(circuit, shots=1).probabilities
        assert_same_distribution(got, branch_distribution(simulator, circuit))

    @pytest.mark.parametrize("angles", [(4e-7, 4e-7), (1e-7, 4e-7), (1e-7, 1e-7)])
    def test_outcomes_around_the_floor(self, angles):
        """An outcome the branch path keeps at ``1.6e-27`` (each measurement
        ``4e-14`` likely) is kept, and one it drops (``2.5e-15``) is dropped."""
        circuit = QuantumCircuit(2, 2)
        for qubit, angle in enumerate(angles):
            circuit.ry(angle, qubit)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        simulator = DensityMatrixSimulator()
        got = simulator.run(circuit, shots=1).probabilities
        assert_same_distribution(got, branch_distribution(simulator, circuit))

    def test_a_confusion_entry_below_the_floor_is_dropped(self):
        class TinyFlip:
            def channels_for(self, instruction):
                return []

            def readout_confusion(self, qubit):
                return np.array([[1.0 - 1e-15, 0.0], [1e-15, 1.0]])

        circuit = QuantumCircuit(2, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        simulator = DensityMatrixSimulator(TinyFlip())
        got = simulator.run(circuit, shots=1).probabilities
        assert sorted(got) == ["00", "10"]
        assert_same_distribution(got, branch_distribution(simulator, circuit))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("model", [noisy_model, DuckTypedNoise])
    def test_paper_circuits_under_the_shared_models(self, kind, model):
        simulator = DensityMatrixSimulator(model())
        circuit = paper_assertion(kind)
        got = simulator.run(circuit, shots=1).probabilities
        assert_same_distribution(got, branch_distribution(simulator, circuit))

    @pytest.mark.parametrize("kind", KINDS)
    def test_paper_circuits_on_noisy_ibmqx4(self, kind):
        backend = get_backend("noisy:ibmqx4")
        circuit = backend.prepare(paper_assertion(kind))
        got = backend.run(paper_assertion(kind), shots=1, seed=0).probabilities
        assert_same_distribution(got, branch_distribution(backend._simulator, circuit))


def dephased(rho, qubits, confusions, clbits, conditions):
    """The post-measurement state of terminal measurements of ``qubits``,
    built from the unmeasured state: each true outcome's projection,
    weighted by the chance it records the conditioned values."""
    n = rho.ndim // 2
    total = np.zeros_like(rho)
    for outcome in np.ndindex(*(2,) * len(qubits)):
        weight = 1.0
        for qubit, clbit, value in zip(qubits, clbits, outcome):
            if clbit in conditions:
                confusion = confusions[qubit]
                weight *= confusion[conditions[clbit]][value]
        index = [slice(None)] * rho.ndim
        for qubit, value in zip(qubits, outcome):
            index[qubit] = value
            index[n + qubit] = value
        projected = np.zeros_like(rho)
        projected[tuple(index)] = rho[tuple(index)]
        total += weight * projected
    return total


class TestPostMeasurementStates:
    """``final_density_matrix`` and ``conditional_density_matrix`` keep the
    branch path on a circuit whose measurements are all terminal."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_against_the_projected_unmeasured_state(self, kind):
        model = noisy_model()
        simulator = DensityMatrixSimulator(model)
        circuit = paper_assertion(kind)
        flags = terminal_flags(circuit, model)
        assert all(terminal for _, terminal in flags)
        unmeasured = circuit.copy()
        unmeasured.data = [inst for inst in circuit.data if inst.name != "measure"]
        measures = [inst for inst in circuit.data if inst.name == "measure"]
        qubits = [inst.qubits[0] for inst in measures]
        clbits = [inst.clbits[0] for inst in measures]
        confusions = {q: model.readout_confusion(q) for q in qubits}
        dim = 2 ** circuit.num_qubits
        shape = (2,) * (2 * circuit.num_qubits)
        rho = simulator.final_density_matrix(unmeasured).data.reshape(shape)

        final = simulator.final_density_matrix(circuit).data
        expected = dephased(rho, qubits, confusions, clbits, {})
        expected = expected.reshape(dim, dim)
        np.testing.assert_allclose(final, expected, rtol=0, atol=1e-12)

        conditions = {clbits[-1]: 0}
        state, mass = simulator.conditional_density_matrix(circuit, conditions)
        expected = dephased(rho, qubits, confusions, clbits, conditions)
        expected = expected.reshape(dim, dim)
        assert mass == pytest.approx(np.trace(expected).real, abs=1e-12)
        np.testing.assert_allclose(
            state.data, expected / np.trace(expected).real, rtol=0, atol=1e-12
        )


class TestTrajectoryReadout:
    """One draw per shot for the terminal readout, bit-identical to the
    per-shot reference walker at every tiling."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_paper_circuits_on_trajectory_ibmqx4(self, kind):
        circuit, shots, seed = paper_assertion(kind), 300, 4242
        reference = None
        for max_batch in (1, 7, 1024):
            backend = TrajectoryDeviceBackend(ibmqx4(), max_batch=max_batch)
            if reference is None:
                reference = device_loop_counts(backend, circuit, shots, seed)
            counts = dict(backend.run(circuit, shots=shots, seed=seed).counts)
            assert counts == reference, max_batch

    @given(circuit=small_circuits(), seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_circuits_under_the_noisy_model(self, circuit, seed):
        model, shots = noisy_model(), 40
        reference = loop_counts(circuit, model, shots, seed)
        for max_batch in (1, 7, 1024):
            simulator = TrajectorySimulator(model, max_batch=max_batch)
            counts = dict(simulator.run(circuit, shots=shots, seed=seed).counts)
            assert counts == reference, max_batch


class TestReadout:
    def test_outcome_bits_put_the_first_measurement_first(self):
        readout = _program.Readout([(2, 0, None), (0, 1, None)])
        assert readout.qubits == (2, 0)
        assert readout.bits.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_confusion_acts_along_its_own_axis(self):
        confusion = np.array([[0.9, 0.2], [0.1, 0.8]])
        readout = _program.Readout([(0, 0, None), (1, 1, confusion)])
        populations = np.array([0.5, 0.0, 0.0, 0.5])[:, np.newaxis]
        weights = readout.recorded(populations)[:, 0]
        np.testing.assert_allclose(weights, [0.45, 0.05, 0.1, 0.4], atol=1e-15)
