"""Tests for the Aaronson-Gottesman stabilizer engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import get_gate
from repro.core.injector import AssertionInjector
from repro.exceptions import StabilizerError
from repro.simulators.stabilizer import StabilizerSimulator, StabilizerState
from repro.simulators.statevector import StatevectorSimulator


class TestStabilizerState:
    def test_initial_stabilizers_are_z(self):
        state = StabilizerState(2)
        assert state.stabilizer_strings() == ["+ZI", "+IZ"]

    def test_x_flips_sign(self):
        state = StabilizerState(1)
        state.apply_x(0)
        assert state.stabilizer_strings() == ["-Z"]

    def test_h_maps_z_to_x(self):
        state = StabilizerState(1)
        state.apply_h(0)
        assert state.stabilizer_strings() == ["+X"]

    def test_bell_stabilizers(self):
        state = StabilizerState(2)
        state.apply_h(0)
        state.apply_cx(0, 1)
        strings = set(state.stabilizer_strings())
        assert strings == {"+XX", "+ZZ"}

    def test_deterministic_measurement(self, rng):
        state = StabilizerState(1)
        state.apply_x(0)
        assert state.measure(0, rng) == 1
        assert state.measure(0, rng) == 1  # repeatable

    def test_random_measurement_collapses(self, rng):
        state = StabilizerState(1)
        state.apply_h(0)
        outcome = state.measure(0, rng)
        # After collapse the outcome is pinned.
        assert state.measure(0, rng) == outcome

    def test_expectation_z(self):
        state = StabilizerState(1)
        assert state.expectation_z(0) == 1
        state.apply_x(0)
        assert state.expectation_z(0) == -1
        state.apply_h(0)
        assert state.expectation_z(0) is None

    def test_minimum_size(self):
        with pytest.raises(StabilizerError):
            StabilizerState(0)


class TestSimulatorSemantics:
    def test_ghz_correlations(self, stab_sim):
        qc = library.ghz_state(4)
        qc.measure_all()
        result = stab_sim.run(qc, shots=400, seed=1)
        assert set(result.counts) == {"0000", "1111"}

    def test_deterministic_circuit(self, stab_sim):
        qc = QuantumCircuit(2, 2)
        qc.x(0)
        qc.cx(0, 1)
        qc.measure([0, 1], [0, 1])
        assert stab_sim.run(qc, shots=50, seed=2).counts == {"11": 50}

    def test_non_clifford_rejected(self, stab_sim):
        qc = QuantumCircuit(1)
        qc.t(0)
        with pytest.raises(StabilizerError, match="non-Clifford"):
            stab_sim.run(qc)

    def test_non_clifford_rotation_rejected(self, stab_sim):
        qc = QuantumCircuit(1)
        qc.rz(0.3, 0)
        with pytest.raises(StabilizerError, match="not a Clifford"):
            stab_sim.run(qc)

    def test_clifford_rotation_accepted(self, stab_sim):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.rz(math.pi, 0)  # Z
        qc.h(0)  # H Z H = X
        qc.measure(0, 0)
        assert stab_sim.run(qc, shots=20, seed=3).counts == {"1": 20}

    def test_s_gate_via_phase_rotation(self, stab_sim):
        # S^2 = Z: H S S H |0> = H Z H |0> = |1>.
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.p(math.pi / 2, 0)
        qc.p(math.pi / 2, 0)
        qc.h(0)
        qc.measure(0, 0)
        assert stab_sim.run(qc, shots=20, seed=4).counts == {"1": 20}

    def test_reset(self, stab_sim):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.reset(0)
        qc.measure(0, 0)
        assert stab_sim.run(qc, shots=30, seed=5).counts == {"0": 30}

    def test_conditional_gate(self, stab_sim):
        qc = QuantumCircuit(2, 2)
        qc.x(0)
        qc.measure(0, 0)
        qc.x(1, condition=(0, 1))
        qc.measure(1, 1)
        assert stab_sim.run(qc, shots=30, seed=6).counts == {"11": 30}

    def test_swap_and_cz_and_cy(self, stab_sim, sv_sim):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cz(0, 1)
        qc.cy(0, 1)
        qc.swap(0, 1)
        qc.measure([0, 1], [0, 1])
        stab = stab_sim.run(qc, shots=6000, seed=7).counts
        exact = sv_sim.exact_probabilities(qc)
        for key, p in exact.items():
            assert abs(stab.get(key, 0) / 6000 - p) < 0.04


class TestCrossValidation:
    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_random_clifford_agrees_with_statevector(self, seed):
        circuit = library.random_circuit(3, 6, seed=seed, clifford_only=True)
        circuit.measure_all()
        exact = StatevectorSimulator().exact_probabilities(circuit)
        sampled = StabilizerSimulator().run(circuit, shots=3000, seed=seed)
        for key, p in exact.items():
            assert abs(sampled.counts.get(key, 0) / 3000 - p) < 0.06
        # No impossible outcomes.
        for key in sampled.counts:
            assert exact.get(key, 0.0) > 1e-12

    def test_large_ghz_runs_fast(self, stab_sim):
        qc = library.ghz_state(128)
        qc.measure_all()
        result = stab_sim.run(qc, shots=20, seed=8)
        assert set(result.counts) <= {"0" * 128, "1" * 128}


# ----------------------------------------------------------------------
# One-pass affine sampling vs the per-shot replay
# ----------------------------------------------------------------------


def _entanglement_assertion(n, mode):
    injector = AssertionInjector(library.ghz_state(n))
    injector.assert_entangled(list(range(n)), mode=mode)
    injector.measure_program()
    return injector.circuit


def _classical_assertion():
    program = QuantumCircuit(3)
    program.x(0)
    program.h(1)  # asserting |0> on a |+> qubit fails half the time
    injector = AssertionInjector(program)
    injector.assert_classical([0, 1, 2], [1, 0, 0])
    injector.measure_program()
    return injector.circuit


def _superposition_assertion():
    program = QuantumCircuit(2)
    program.h(0)
    program.x(1)  # |1> is not |+>: the assertion trips at random
    injector = AssertionInjector(program)
    injector.assert_superposition(0)
    injector.assert_superposition(1)
    injector.measure_program()
    return injector.circuit


def _y_plus():
    prep = QuantumCircuit(1)
    prep.h(0)
    prep.s(0)
    return prep


def _random_dynamic_clifford(seed):
    """A random Clifford circuit with mid-circuit measure, reset and
    classically conditioned Paulis (which the one-pass sampler handles)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 5))
    qc = QuantumCircuit(n, m)
    for _ in range(int(rng.integers(5, 40))):
        kind = int(rng.integers(0, 9))
        q = int(rng.integers(0, n))
        if kind < 3:
            one_qubit = ("h", "s", "sdg", "x", "y", "z", "sx", "sxdg", "id")
            qc.append(get_gate(one_qubit[rng.integers(0, 9)]), [q])
        elif kind < 5 and n > 1:
            a, b = (int(v) for v in rng.choice(n, 2, replace=False))
            qc.append(get_gate(("cx", "cz", "cy", "swap")[rng.integers(0, 4)]), [a, b])
        elif kind == 5:
            qc.measure(q, int(rng.integers(0, m)))
        elif kind == 6:
            qc.reset(q)
        elif kind == 7:
            condition = (int(rng.integers(0, m)), int(rng.integers(0, 2)))
            qc.append(get_gate(("x", "y", "z", "id")[rng.integers(0, 4)]), [q],
                      condition=condition)
        else:
            qc.rz(math.pi / 2 * int(rng.integers(0, 4)), q)
    for q in range(min(n, m)):
        qc.measure(q, q)
    return qc


EQUIVALENCE_CIRCUITS = {
    **{
        f"ghz{n}-{mode}": (lambda n=n, mode=mode: _entanglement_assertion(n, mode))
        for n in (2, 3, 8, 16, 24, 32)
        for mode in ("single", "pairwise")
    },
    "classical-assertion": _classical_assertion,
    "superposition-assertion": _superposition_assertion,
    "teleportation": lambda: library.teleportation(_y_plus()),
    **{
        f"random{seed}": (lambda seed=seed: _random_dynamic_clifford(seed))
        for seed in range(60)
    },
}


class TestAffineSamplingEquivalence:
    """The one-pass sampler reproduces the per-shot replay exactly: same
    keys, counts and key order, and the generator ends in the same state,
    so later draws from it agree too."""

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CIRCUITS))
    def test_matches_per_shot_replay(self, name):
        circuit = EQUIVALENCE_CIRCUITS[name]()
        sim = StabilizerSimulator()
        for seed in (3, 17, 2020):
            for shots in (0, 1, 64, 257):
                fast_rng = np.random.default_rng(seed)
                replay_rng = np.random.default_rng(seed)
                fast = sim._affine_counts(circuit, shots, fast_rng)
                replay = sim._replay_counts(circuit, shots, replay_rng)
                assert list(fast.items()) == list(replay.items()), (seed, shots)
                assert (fast_rng.bit_generator.state
                        == replay_rng.bit_generator.state), (seed, shots)
                run = sim.run(circuit, shots=shots, seed=seed).counts
                assert list(run.items()) == list(replay.items()), (seed, shots)

    def test_execute_matches_direct_run(self):
        # execute() picks its executor from $REPRO_EXECUTOR, so under
        # REPRO_EXECUTOR=process the counts also cross the pickle boundary.
        from repro.runtime import execute

        names = ("ghz8-pairwise", "teleportation", "random7", "random8")
        circuits = [EQUIVALENCE_CIRCUITS[name]() for name in names]
        seeds = [5, 6, 7, 8]
        jobs = execute(circuits, "stabilizer", shots=257, seed=seeds,
                       dedupe=False, max_workers=2)
        sim = StabilizerSimulator()
        for circuit, seed, counts in zip(circuits, seeds, jobs.counts()):
            direct = sim.run(circuit, shots=257, seed=seed).counts
            assert list(counts.items()) == list(direct.items())

    def test_random_circuits_exercise_every_dynamic_feature(self):
        ops = set()
        conditioned = set()
        for name, build in EQUIVALENCE_CIRCUITS.items():
            if name.startswith("random"):
                for inst in build().data:
                    ops.add(inst.name)
                    if inst.condition is not None:
                        conditioned.add(inst.name)
        assert {"measure", "reset", "cx", "h", "s"} <= ops
        assert {"x", "y", "z"} <= conditioned

    def test_conditional_non_pauli_takes_the_replay(self, monkeypatch, sv_sim):
        qc = QuantumCircuit(3, 3)
        qc.h(0)
        qc.measure(0, 0)
        qc.h(1)
        qc.cx(1, 2, condition=(0, 1))
        qc.measure([1, 2], [1, 2])
        sim = StabilizerSimulator()
        replays = []
        replay = sim._replay_counts

        def spy(*args):
            replays.append(args)
            return replay(*args)

        monkeypatch.setattr(sim, "_replay_counts", spy)
        counts = sim.run(qc, shots=4000, seed=9).counts
        assert len(replays) == 1
        exact = sv_sim.run(qc, shots=1, seed=0).probabilities
        assert set(counts) <= {key for key, p in exact.items() if p > 1e-12}
        for key, p in exact.items():
            assert abs(counts.get(key, 0) / 4000 - p) < 0.04
