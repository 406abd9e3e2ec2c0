"""Tests for the density-matrix engine."""

import math

import numpy as np
import pytest

from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.core.injector import AssertionInjector
from repro.exceptions import SimulationError
from repro.noise.channels import bit_flip, depolarizing
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.noise.trajectories import TrajectorySimulator
from repro.simulators.density_matrix import (
    DensityMatrix,
    DensityMatrixSimulator,
)
from repro.runtime import get_backend
from repro.simulators.statevector import StatevectorSimulator

from noisy_circuits import DuckTypedNoise, noisy_model, paper_assertion


class TestDensityMatrixClass:
    def test_from_statevector_pure(self):
        rho = DensityMatrix.from_statevector(np.array([1, 0], dtype=complex))
        assert rho.purity() == pytest.approx(1.0)
        assert rho.probabilities() == {"0": pytest.approx(1.0)}

    def test_trace_validated(self):
        with pytest.raises(SimulationError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_hermiticity_validated(self):
        bad = np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)
        with pytest.raises(SimulationError, match="Hermitian"):
            DensityMatrix(bad)

    def test_non_square_rejected(self):
        with pytest.raises(SimulationError, match="square"):
            DensityMatrix(np.ones((2, 3)))

    def test_maximally_mixed_purity(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        assert rho.purity() == pytest.approx(0.5)


class TestIdealAgreementWithStatevector:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: library.bell_pair(),
            lambda: library.ghz_state(3),
            lambda: library.qft(3),
            lambda: library.w_state(3),
        ],
        ids=["bell", "ghz", "qft", "w"],
    )
    def test_final_state_matches(self, factory, dm_sim, sv_sim):
        circuit = factory()
        sv = sv_sim.final_statevector(circuit)
        rho = dm_sim.final_density_matrix(circuit)
        expected = DensityMatrix.from_statevector(sv.data)
        np.testing.assert_allclose(rho.data, expected.data, atol=1e-10)

    def test_measured_distribution_matches(self, dm_sim, sv_sim):
        circuit = library.ghz_state(3)
        circuit.measure_all()
        sv_probs = sv_sim.exact_probabilities(circuit)
        dm_probs = DensityMatrixSimulator().run(circuit, shots=1).probabilities
        assert set(sv_probs) == set(dm_probs)
        for key in sv_probs:
            assert abs(sv_probs[key] - dm_probs[key]) < 1e-10

    def test_conditionals_match(self, dm_sim, sv_sim):
        prep = QuantumCircuit(1)
        prep.ry(0.9, 0)
        circuit = library.teleportation(state_prep=prep)
        reg = circuit.add_clbits(1, name="bob")
        circuit.measure(2, reg[0])
        sv_probs = sv_sim.exact_probabilities(circuit)
        dm_probs = dm_sim.run(circuit, shots=1).probabilities
        for key, p in sv_probs.items():
            assert abs(dm_probs.get(key, 0.0) - p) < 1e-10


class TestNoiseApplication:
    def test_bit_flip_after_x(self):
        model = NoiseModel("bf").add_all_qubit_gate_error(["x"], bit_flip(0.25))
        sim = DensityMatrixSimulator(noise_model=model)
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure(0, 0)
        probs = sim.run(qc, shots=1).probabilities
        assert probs["1"] == pytest.approx(0.75)
        assert probs["0"] == pytest.approx(0.25)

    def test_depolarizing_mixes_state(self):
        model = NoiseModel("dep").add_all_qubit_gate_error(["h"], depolarizing(1.0))
        sim = DensityMatrixSimulator(noise_model=model)
        qc = QuantumCircuit(1)
        qc.h(0)
        rho = sim.final_density_matrix(qc)
        np.testing.assert_allclose(rho.data, np.eye(2) / 2, atol=1e-10)

    def test_noise_only_on_matching_gate(self):
        model = NoiseModel("bf").add_all_qubit_gate_error(["x"], bit_flip(1.0))
        sim = DensityMatrixSimulator(noise_model=model)
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.h(0)  # identity overall, h is noise-free in this model
        qc.measure(0, 0)
        probs = sim.run(qc, shots=1).probabilities
        assert probs["0"] == pytest.approx(1.0)

    def test_qubit_specific_gate_error(self):
        model = NoiseModel("specific").add_gate_error("x", (1,), bit_flip(1.0))
        sim = DensityMatrixSimulator(noise_model=model)
        qc = QuantumCircuit(2, 2)
        qc.x(0)  # clean
        qc.x(1)  # flipped back by the noise
        qc.measure([0, 1], [0, 1])
        probs = sim.run(qc, shots=1).probabilities
        assert probs["10"] == pytest.approx(1.0)

    def test_readout_error_flips_recorded_value(self):
        model = NoiseModel("ro").add_readout_error(ReadoutError(0.0, 0.2), qubit=0)
        sim = DensityMatrixSimulator(noise_model=model)
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        probs = sim.run(qc, shots=1).probabilities
        assert probs["1"] == pytest.approx(0.2)

    def test_readout_error_does_not_change_state(self):
        model = NoiseModel("ro").add_readout_error(ReadoutError(0.5, 0.5))
        sim = DensityMatrixSimulator(noise_model=model)
        qc = QuantumCircuit(1, 2)
        qc.measure(0, 0)
        qc.measure(0, 1)
        probs = sim.run(qc, shots=1).probabilities
        # Recorded bits are independent coin flips; the qubit stays |0>.
        assert probs == {
            "00": pytest.approx(0.25),
            "01": pytest.approx(0.25),
            "10": pytest.approx(0.25),
            "11": pytest.approx(0.25),
        }


class TestMeasurementAndConditioning:
    def test_conditional_density_matrix(self, dm_sim):
        qc = QuantumCircuit(2, 1)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure(0, 0)
        rho, mass = dm_sim.conditional_density_matrix(qc, {0: 1})
        assert mass == pytest.approx(0.5)
        assert rho.probabilities() == {"11": pytest.approx(1.0)}

    def test_conditional_on_impossible_outcome(self, dm_sim):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        with pytest.raises(SimulationError, match="no branch"):
            dm_sim.conditional_density_matrix(qc, {0: 1})

    def test_reset_is_deterministic_channel(self, dm_sim):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.reset(0)
        qc.measure(0, 0)
        probs = dm_sim.run(qc, shots=1).probabilities
        assert probs["0"] == pytest.approx(1.0)

    def test_branch_merging_bounds_growth(self):
        # 8 measurements into the same clbit: branch count stays tiny
        # because same-clbit branches merge.
        sim = DensityMatrixSimulator(max_branches=8)
        qc = QuantumCircuit(1, 1)
        for _ in range(8):
            qc.h(0)
            qc.measure(0, 0)
        result = sim.run(qc, shots=1)
        assert abs(sum(result.probabilities.values()) - 1.0) < 1e-9

    def test_final_density_matrix_averages_outcomes(self, dm_sim):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        rho = dm_sim.final_density_matrix(qc)
        np.testing.assert_allclose(rho.data, np.eye(2) / 2, atol=1e-10)


#: ``list(counts.items())`` of the engine that applied every Kraus operator
#: as its own pair of contractions, at 1024 shots on ``noisy:ibmqx4``.
#: Later engines must reproduce them exactly, key order included.
GOLDEN_DEVICE_COUNTS = {
    ("classical", 11): [
        ("0000", 73), ("0001", 840), ("0010", 1), ("0011", 35), ("0100", 7),
        ("0101", 27), ("0110", 1), ("0111", 1), ("1000", 2), ("1001", 26),
        ("1011", 10), ("1100", 1),
    ],
    ("classical", 2020): [
        ("0000", 83), ("0001", 822), ("0010", 3), ("0011", 30), ("0100", 15),
        ("0101", 39), ("0111", 2), ("1000", 2), ("1001", 22), ("1010", 2),
        ("1011", 3), ("1111", 1),
    ],
    ("entanglement", 11): [
        ("0000", 351), ("0001", 27), ("0010", 19), ("0011", 45), ("0100", 45),
        ("0101", 47), ("0110", 24), ("0111", 321), ("1000", 29), ("1001", 7),
        ("1010", 9), ("1011", 31), ("1100", 28), ("1101", 16), ("1110", 2),
        ("1111", 23),
    ],
    ("entanglement", 2020): [
        ("0000", 365), ("0001", 31), ("0010", 31), ("0011", 49), ("0100", 47),
        ("0101", 24), ("0110", 36), ("0111", 304), ("1000", 21), ("1001", 7),
        ("1010", 6), ("1011", 27), ("1100", 24), ("1101", 17), ("1110", 5),
        ("1111", 30),
    ],
    ("superposition", 11): [
        ("0000", 234), ("0001", 243), ("0010", 202), ("0011", 206), ("0100", 27),
        ("0101", 18), ("0110", 16), ("0111", 16), ("1000", 17), ("1001", 12),
        ("1010", 12), ("1011", 14), ("1100", 2), ("1101", 2), ("1110", 1),
        ("1111", 2),
    ],
    ("superposition", 2020): [
        ("0000", 247), ("0001", 209), ("0010", 232), ("0011", 203), ("0100", 24),
        ("0101", 19), ("0110", 18), ("0111", 21), ("1000", 15), ("1001", 7),
        ("1010", 16), ("1011", 9), ("1101", 3), ("1111", 1),
    ],
}

#: The exact outcome distributions behind :data:`GOLDEN_DEVICE_COUNTS`
#: (they do not depend on the sampling seed).
GOLDEN_DEVICE_PROBABILITIES = {
    "classical": {
        "0000": 0.07597100005259783, "0001": 0.8013251522315769,
        "0010": 0.0028731560637483156, "0011": 0.030305408887262256,
        "0100": 0.013245505781630331, "0101": 0.03434720569047561,
        "0110": 0.0005009333196556104, "0111": 0.0012989809563396153,
        "1000": 0.0025633333805205306, "1001": 0.02703746837535093,
        "1010": 0.0007331903509307946, "1011": 0.0077335281774305415,
        "1100": 0.00044691589012154514, "1101": 0.0011589071989712505,
        "1110": 0.0001278313702013368, "1111": 0.00033148227318656817,
    },
    "entanglement": {
        "0000": 0.35159305572395505, "0001": 0.025333148436867788,
        "0010": 0.0274670944797221, "0011": 0.05016732558621793,
        "0100": 0.0421938083171397, "0101": 0.03451236252615035,
        "0110": 0.030034880708529145, "0111": 0.29114502071778275,
        "1000": 0.03263029582942874, "1001": 0.005612441811329321,
        "1010": 0.009148400479348985, "1011": 0.026746884013795814,
        "1100": 0.028998206219728366, "1101": 0.010736893407499778,
        "1110": 0.004980024095768151, "1111": 0.028700157646736505,
    },
    "superposition": {
        "0000": 0.23656678053348867, "0001": 0.2140452348645185,
        "0010": 0.21856421116432348, "0011": 0.19775653963817288,
        "0100": 0.019360980972578566, "0101": 0.017512960620652482,
        "0110": 0.017887623630402645, "0111": 0.016180236356824043,
        "1000": 0.01565928357556042, "1001": 0.014168494085188948,
        "1010": 0.0144888945997006, "1011": 0.013109528060222078,
        "1100": 0.0012815793099391608, "1101": 0.0011592515905571024,
        "1110": 0.001185792916595866, "1111": 0.0010726080812746262,
    },
}

#: Final and clbit-0 == 0 conditional states of :func:`golden_circuit`
#: under ``noisy_model()``; both are real to 1e-17.
GOLDEN_FINAL_STATE = [
    [0.4962657809869979, 0.0, 0.0, 0.30601075781162834],
    [0.0, 0.024375000000000008, 0.0, 0.0],
    [0.0, 0.0, 0.024375000000000008, 0.0],
    [0.30601075781162834, 0.0, 0.0, 0.45498421901300257],
]
GOLDEN_CONDITIONAL_STATE = [
    [0.4756250000000001, 0.0, 0.0, 0.3520846609836099],
    [0.0, 0.024374999999999997, 0.0, 0.0],
    [0.0, 0.0, 0.024374999999999997, 0.0],
    [0.3520846609836099, 0.0, 0.0, 0.4756250000000001],
]
GOLDEN_CONDITIONAL_MASS = 0.7827286211894984


def golden_circuit():
    """A superposition assertion whose ancilla is reset and reused.

    Noisy gates before and after a mid-circuit measurement, a reset and a
    classically conditioned gate: every path of the engine in two qubits.
    """
    program = QuantumCircuit(1, name="plus")
    program.h(0)
    program.rz(0.3, 0)
    injector = AssertionInjector(program)
    injector.assert_superposition(0)
    qc = injector.circuit
    qc.reset(1)
    qc.x(0, condition=(0, 1))
    qc.cx(0, 1)
    return qc


class TestGoldenCounts:
    """Counts, key order included, are pinned across engine rewrites."""

    @pytest.mark.parametrize("kind, seed", sorted(GOLDEN_DEVICE_COUNTS))
    def test_paper_assertions_on_noisy_ibmqx4(self, kind, seed):
        result = get_backend("noisy:ibmqx4").run(
            paper_assertion(kind), shots=1024, seed=seed
        )
        assert list(result.counts.items()) == GOLDEN_DEVICE_COUNTS[kind, seed]
        golden = GOLDEN_DEVICE_PROBABILITIES[kind]
        assert sorted(result.probabilities) == sorted(golden)
        for key, probability in golden.items():
            assert result.probabilities[key] == pytest.approx(probability, abs=1e-12)

    def test_final_density_matrix(self):
        rho = DensityMatrixSimulator(noisy_model()).final_density_matrix(
            golden_circuit()
        )
        np.testing.assert_allclose(rho.data, GOLDEN_FINAL_STATE, rtol=0, atol=1e-12)

    def test_conditional_density_matrix(self):
        rho, mass = DensityMatrixSimulator(noisy_model()).conditional_density_matrix(
            golden_circuit(), {0: 0}
        )
        np.testing.assert_allclose(
            rho.data, GOLDEN_CONDITIONAL_STATE, rtol=0, atol=1e-12
        )
        assert mass == pytest.approx(GOLDEN_CONDITIONAL_MASS, abs=1e-12)


def _branching_circuit():
    """Four gates around a mid-circuit measurement and a conditional."""
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.cx(0, 1)
    qc.measure(0, 0)
    qc.x(1, condition=(0, 1))
    qc.h(1)
    qc.measure(1, 1)
    return qc


class TestNoiseModelEdits:
    """Memoised channels and cached superoperators follow model edits."""

    @staticmethod
    def _model():
        return NoiseModel("edit").add_all_qubit_gate_error(["h"], bit_flip(0.1))

    @staticmethod
    def _edit(model):
        model.add_gate_error("h", (1,), bit_flip(0.3))
        model.add_all_qubit_gate_error(["cx"], depolarizing(0.2))
        return model

    def test_density_matrix_sees_added_errors(self):
        model = self._model()
        sim = DensityMatrixSimulator(noise_model=model)
        before = sim.run(_branching_circuit(), shots=1).probabilities
        after = DensityMatrixSimulator(noise_model=self._edit(model)).run(
            _branching_circuit(), shots=1
        ).probabilities
        again = sim.run(_branching_circuit(), shots=1).probabilities
        fresh = DensityMatrixSimulator(noise_model=self._edit(self._model())).run(
            _branching_circuit(), shots=1
        ).probabilities
        assert after != before
        assert again == after == fresh

    def test_trajectories_see_added_errors(self):
        model = self._model()
        sim = TrajectorySimulator(noise_model=model)
        before = dict(sim.run(_branching_circuit(), shots=512, seed=3).counts)
        self._edit(model)
        after = dict(sim.run(_branching_circuit(), shots=512, seed=3).counts)
        fresh = TrajectorySimulator(noise_model=self._edit(self._model())).run(
            _branching_circuit(), shots=512, seed=3
        )
        assert after != before
        assert after == dict(fresh.counts)

    def test_channels_for_memo_is_cleared(self):
        model = self._model()
        circuit = _branching_circuit()
        h_on_1 = circuit.data[4]
        assert len(model.channels_for(h_on_1)) == 1
        self._edit(model)
        assert len(model.channels_for(h_on_1)) == 2
        model.add_all_qubit_gate_error(["h"], depolarizing(0.1))
        assert len(model.channels_for(h_on_1)) == 3


class TestDuckTypedNoise:
    def test_runs_and_matches_the_noise_model(self):
        duck = DuckTypedNoise()
        expected = DensityMatrixSimulator(noisy_model()).run(
            _branching_circuit(), shots=1
        ).probabilities
        got = DensityMatrixSimulator(duck).run(_branching_circuit(), shots=1)
        assert got.metadata["noise"] == "duck"
        assert got.probabilities == expected

    def test_queried_once_per_instruction_per_run(self):
        duck = DuckTypedNoise()
        sim = DensityMatrixSimulator(duck)
        sim.run(_branching_circuit(), shots=1)
        assert duck.queries == 4
        sim.final_density_matrix(_branching_circuit())
        assert duck.queries == 8

    def test_channels_on_other_qubits_keep_their_order(self):
        """A CX channel on (0, 1) after x(0), then an X channel on qubit 0."""

        class Crosstalk:
            name = "crosstalk"

            def channels_for(self, instruction):
                if instruction.name != "x":
                    return []
                cx = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
                flip = np.array([[0, 1], [1, 0]], dtype=complex)
                return [((cx,), (0, 1)), ((flip,), (0,))]

            def readout_confusion(self, qubit):
                return None

        qc = QuantumCircuit(2, 2)
        qc.x(0)
        qc.measure([0, 1], [0, 1])
        probs = DensityMatrixSimulator(Crosstalk()).run(qc, shots=1).probabilities
        assert probs == {"01": pytest.approx(1.0)}
