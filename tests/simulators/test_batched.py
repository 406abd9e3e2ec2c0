"""Batched-shot simulation: the batched/looped determinism contract.

The sampling engines advance all shots of a ``max_batch`` tile together,
one state per distinct stochastic history; the per-shot reference walker
in ``loop_reference.py`` re-walks the circuit per shot.  Both consume
identical per-trajectory Philox substreams keyed by ``(seed, trajectory
index)``, so counts must be **bit-identical** to the reference at every
``max_batch`` tiling for a fixed seed — that invariance is what lets the
runtime treat the tiling as pure throughput.  These tests pin the contract
(hypothesis properties across noisy backends, noise strengths and
tilings), golden counts that engine rewrites must keep, the convergence of
the batched path against the density-matrix engine's exact distribution,
and duck-typed noise models compiled once per run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.core.injector import AssertionInjector
from repro.devices.backend import TrajectoryDeviceBackend
from repro.devices.ibmqx4 import ibmqx4
from repro.exceptions import SimulationError
from repro.noise.channels import amplitude_damping, depolarizing
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.noise.trajectories import TrajectorySimulator
from repro.runtime import execute, get_backend
from repro.simulators import _batched
from repro.simulators.density_matrix import DensityMatrixSimulator
from repro.simulators.statevector import StatevectorSimulator

from loop_reference import (
    device_loop_counts,
    loop_counts,
    spawn_substreams,
    substream_generator,
)
from noisy_circuits import DuckTypedNoise, noisy_model, paper_assertion

SEEDS = st.integers(min_value=0, max_value=2 ** 31 - 1)


def stochastic_circuit():
    """Gates, noise, mid-circuit measurement, conditional and reset."""
    qc = QuantumCircuit(3, 4)
    qc.h(0)
    qc.cx(0, 1)
    qc.x(2)
    qc.measure(0, 0)
    qc.x(1, condition=(0, 1))
    qc.reset(2)
    qc.cx(1, 2)
    qc.measure(1, 1)
    qc.measure(2, 2)
    qc.measure(0, 3)
    return qc


def instrumented_bell():
    injector = AssertionInjector(library.bell_pair())
    injector.assert_entangled([0, 1])
    injector.measure_program()
    return injector.circuit


class TestBatchedEqualsLooped:
    """The acceptance-criterion property: bit-identical at every tiling."""

    @given(seed=SEEDS, shots=st.integers(min_value=1, max_value=64))
    @settings(max_examples=15, deadline=None)
    def test_trajectory_noisy(self, seed, shots):
        circuit = stochastic_circuit()
        model = noisy_model()
        loop = loop_counts(circuit, model, shots, seed)
        for max_batch in (1, 7, shots):
            batched = TrajectorySimulator(model, max_batch=max_batch).run(
                circuit, shots=shots, seed=seed
            )
            assert dict(batched.counts) == loop, max_batch

    @given(seed=SEEDS, shots=st.integers(min_value=1, max_value=64))
    @settings(max_examples=10, deadline=None)
    def test_trajectory_ideal(self, seed, shots):
        circuit = stochastic_circuit()
        loop = loop_counts(circuit, None, shots, seed)
        for max_batch in (1, 7, shots):
            batched = TrajectorySimulator(max_batch=max_batch).run(
                circuit, shots=shots, seed=seed
            )
            assert dict(batched.counts) == loop, max_batch

    @given(seed=SEEDS, shots=st.integers(min_value=1, max_value=64))
    @settings(max_examples=10, deadline=None)
    def test_statevector_fallback(self, seed, shots):
        circuit = stochastic_circuit()
        loop = loop_counts(circuit, None, shots, seed)
        for max_batch in (1, 7, shots):
            batched = StatevectorSimulator(max_branches=1, max_batch=max_batch).run(
                circuit, shots=shots, seed=seed
            )
            assert batched.metadata["method"] == "per-shot"
            assert dict(batched.counts) == loop, max_batch

    @pytest.mark.parametrize("kind, noise_scale, shots, examples", [
        ("bell", 0.25, 32, 8),
        *[(kind, scale, 64, 2)
          for kind in ("classical", "entanglement", "superposition")
          for scale in (1, 30)],
    ])
    def test_device_backend_matches_loop(self, kind, noise_scale, shots, examples):
        """Trajectory device backends too, at every tiling.

        At ``noise_scale=30`` nearly every trajectory is its own history
        class, so the batched walker's class splitting is exercised at
        both extremes.
        """
        circuit = instrumented_bell() if kind == "bell" else paper_assertion(kind)
        device = ibmqx4()

        @given(seed=SEEDS)
        @settings(max_examples=examples, deadline=None)
        def check(seed):
            reference = None
            for max_batch in (1, 7, shots):
                backend = TrajectoryDeviceBackend(
                    device, noise_scale=noise_scale, max_batch=max_batch
                )
                if reference is None:
                    reference = device_loop_counts(backend, circuit, shots, seed)
                counts = dict(backend.run(circuit, shots=shots, seed=seed).counts)
                assert counts == reference, max_batch

        check()

    def test_execute_matches_loop(self):
        """Through ``execute()`` on the default executor, pickled across a
        process pool when ``$REPRO_EXECUTOR=process``."""
        circuit, shots, seed = paper_assertion("entanglement"), 32, 2020
        device = ibmqx4()
        reference = None
        for max_batch in (1, 7, shots):
            backend = TrajectoryDeviceBackend(device, noise_scale=30, max_batch=max_batch)
            if reference is None:
                reference = device_loop_counts(backend, circuit, shots, seed)
            job = execute(circuit, backend, shots=shots, seed=seed, dedupe=False)
            assert dict(job.counts()) == reference, max_batch

    def test_tiling_never_changes_counts_at_scale(self):
        """One non-hypothesis anchor at realistic shot counts."""
        circuit = stochastic_circuit()
        model = noisy_model()
        reference = TrajectorySimulator(model, max_batch=4096).run(
            circuit, shots=1000, seed=2020
        )
        for max_batch in (13, 250, 999):
            tiled = TrajectorySimulator(model, max_batch=max_batch).run(
                circuit, shots=1000, seed=2020
            )
            assert dict(tiled.counts) == dict(reference.counts)


def split_then_noisy_circuit():
    """A conditioned gate only some rows pass, then a run of noisy gates."""
    qc = QuantumCircuit(3, 3)
    qc.h(0)
    qc.cx(0, 1)
    qc.x(2)
    qc.measure(0, 0)
    qc.x(1, condition=(0, 1))
    qc.reset(2)
    for index in range(4):
        qc.h(index % 3)
        qc.x((index + 1) % 3)
        qc.cx(index % 3, (index + 2) % 3)
    qc.measure(1, 1)
    qc.measure(2, 2)
    return qc


def strong_model():
    """Noise strong enough that whole history classes leave branch 0."""
    return (
        NoiseModel("strong-noise")
        .add_all_qubit_gate_error(["h", "x"], depolarizing(0.6))
        .add_all_qubit_gate_error(["cx"], depolarizing(0.3))
        .add_all_qubit_gate_error(["x"], amplitude_damping(0.4))
        .add_readout_error(ReadoutError(0.08, 0.04))
    )


class TestClassWalkerSwitchPoints:
    """The walker's two switch points keep batched == looped counts.

    After the partial conditioned step the rows no longer share one draw
    cursor, and under strong noise a Kraus step leaves more dead class
    columns than live ones, which compacts them.
    """

    def test_batched_equals_loop(self, monkeypatch):
        seed = 2020
        circuit, model, shots = split_then_noisy_circuit(), strong_model(), 128
        loop = loop_counts(circuit, model, shots, seed)
        compact = _batched._compact
        take = _batched._Draws.take
        seen = {"compacted": 0, "per_row": 0}

        def counting_compact(states, klass):
            kept, klass = compact(states, klass)
            seen["compacted"] += kept.shape[-1] < states.shape[-1]
            return kept, klass

        def counting_take(draws, rows):
            values = take(draws, rows)
            seen["per_row"] += draws.cursor is not None
            return values

        monkeypatch.setattr(_batched, "_compact", counting_compact)
        monkeypatch.setattr(_batched._Draws, "take", counting_take)
        for max_batch in (1, 7, shots):
            seen.update(compacted=0, per_row=0)
            batched = TrajectorySimulator(model, max_batch=max_batch).run(
                circuit, shots=shots, seed=seed
            )
            assert dict(batched.counts) == loop, max_batch
            assert seen["compacted"] > 0, max_batch
            # A one-row tile never splits its rows on a condition.
            assert (seen["per_row"] > 0) == (max_batch > 1), max_batch


class TestRefine:
    @pytest.mark.parametrize("seed", range(5))
    def test_counting_refine_numbers_classes_as_unique(self, seed):
        """The bincount ``_refine`` gives the sorted ``np.unique`` numbering."""
        rng = np.random.default_rng(seed)
        batch, classes, num_labels = 500, int(rng.integers(1, 40)), 4
        klass = rng.integers(0, classes, size=batch)
        rows = np.sort(rng.choice(batch, size=int(rng.integers(1, batch)), replace=False))
        labels = rng.integers(0, num_labels, size=rows.shape[0])

        width = num_labels + 1
        key = klass * width
        key[rows] += labels + 1
        unique, expected_klass = np.unique(key, return_inverse=True)
        expected_parents, expected_labels = np.divmod(unique, width)

        got_klass, got_parents, got_labels = _batched._refine(
            klass, rows, labels, num_labels
        )
        assert got_klass.tolist() == expected_klass.tolist()
        assert got_parents.tolist() == expected_parents.tolist()
        assert got_labels.tolist() == (expected_labels - 1).tolist()


#: ``list(counts.items())`` of the per-row batched walker that preceded
#: the history-class walker, at 1024 shots and the default tiling.  The
#: class walker must reproduce them exactly, key order included.
GOLDEN_DEVICE_COUNTS = {
    ("classical", 11): [
        ("0000", 67), ("0001", 833), ("0010", 3), ("0011", 30), ("0100", 7),
        ("0101", 33), ("0110", 1), ("1000", 6), ("1001", 32), ("1010", 3),
        ("1011", 5), ("1100", 1), ("1101", 3),
    ],
    ("classical", 2020): [
        ("0000", 72), ("0001", 814), ("0011", 34), ("0100", 14), ("0101", 33),
        ("0110", 1), ("0111", 1), ("1000", 5), ("1001", 36), ("1011", 10),
        ("1101", 2), ("1111", 2),
    ],
    ("entanglement", 11): [
        ("0000", 344), ("0001", 21), ("0010", 32), ("0011", 45), ("0100", 40),
        ("0101", 49), ("0110", 31), ("0111", 306), ("1000", 31), ("1001", 7),
        ("1010", 7), ("1011", 26), ("1100", 35), ("1101", 12), ("1110", 5),
        ("1111", 33),
    ],
    ("entanglement", 2020): [
        ("0000", 348), ("0001", 23), ("0010", 30), ("0011", 46), ("0100", 41),
        ("0101", 36), ("0110", 33), ("0111", 319), ("1000", 20), ("1001", 1),
        ("1010", 11), ("1011", 24), ("1100", 33), ("1101", 11), ("1110", 7),
        ("1111", 41),
    ],
    ("superposition", 11): [
        ("0000", 231), ("0001", 213), ("0010", 252), ("0011", 207), ("0100", 14),
        ("0101", 19), ("0110", 16), ("0111", 13), ("1000", 12), ("1001", 9),
        ("1010", 17), ("1011", 16), ("1100", 2), ("1110", 1), ("1111", 2),
    ],
    ("superposition", 2020): [
        ("0000", 266), ("0001", 211), ("0010", 217), ("0011", 191), ("0100", 22),
        ("0101", 14), ("0110", 19), ("0111", 18), ("1000", 14), ("1001", 22),
        ("1010", 13), ("1011", 12), ("1100", 1), ("1101", 2), ("1110", 2),
    ],
}

GOLDEN_STOCHASTIC_COUNTS = {
    7: [
        ("0000", 348), ("0001", 18), ("0010", 35), ("0011", 2), ("0100", 30),
        ("0101", 6), ("0110", 30), ("0111", 45), ("1000", 36), ("1001", 364),
        ("1010", 4), ("1011", 30), ("1100", 3), ("1101", 23), ("1110", 14),
        ("1111", 36),
    ],
    2020: [
        ("0000", 412), ("0001", 17), ("0010", 35), ("0011", 5), ("0100", 34),
        ("0110", 21), ("0111", 24), ("1000", 45), ("1001", 339), ("1011", 32),
        ("1101", 24), ("1110", 16), ("1111", 20),
    ],
}


class TestGoldenCounts:
    """Counts, key order included, are pinned across engine rewrites."""

    @pytest.mark.parametrize("kind, seed", sorted(GOLDEN_DEVICE_COUNTS))
    def test_paper_assertions_on_trajectory_ibmqx4(self, kind, seed):
        backend = get_backend("trajectory:ibmqx4")
        counts = backend.run(paper_assertion(kind), shots=1024, seed=seed).counts
        assert list(counts.items()) == GOLDEN_DEVICE_COUNTS[kind, seed]

    @pytest.mark.parametrize("seed", sorted(GOLDEN_STOCHASTIC_COUNTS))
    def test_stochastic_circuit_under_noisy_model(self, seed):
        result = TrajectorySimulator(noisy_model()).run(
            stochastic_circuit(), shots=1024, seed=seed
        )
        assert list(result.counts.items()) == GOLDEN_STOCHASTIC_COUNTS[seed]


class TestBatchedConvergence:
    def test_converges_to_density_matrix_distribution(self):
        """Batched trajectories converge to the exact noisy distribution."""
        circuit = instrumented_bell()
        model = noisy_model()
        exact = DensityMatrixSimulator(noise_model=model).run(circuit, shots=1)
        shots = 8000
        sampled = TrajectorySimulator(model).run(circuit, shots=shots, seed=7)
        assert sampled.counts.shots == shots
        for key, probability in exact.probabilities.items():
            assert abs(sampled.counts.get(key, 0) / shots - probability) < 0.04

    def test_ideal_batched_matches_statevector(self):
        circuit = library.ghz_state(3)
        circuit.measure_all()
        exact = StatevectorSimulator().exact_probabilities(circuit)
        sampled = TrajectorySimulator().run(circuit, shots=6000, seed=3)
        for key, probability in exact.items():
            assert abs(sampled.counts.get(key, 0) / 6000 - probability) < 0.04


class TestDuckTypedNoise:
    """A model that is not a ``NoiseModel`` is compiled once per run too."""

    def test_one_query_per_gate_per_run(self):
        duck = DuckTypedNoise()
        simulator = TrajectorySimulator(duck)
        circuit = stochastic_circuit()
        gates = sum(
            inst.name not in ("measure", "reset", "barrier") for inst in circuit.data
        )
        simulator.run(circuit, shots=64, seed=1)
        assert duck.queries == gates
        simulator.run(circuit, shots=64, seed=2)
        assert duck.queries == 2 * gates

    @pytest.mark.parametrize("max_batch", [1, 7, 1024])
    def test_counts_equal_the_wrapped_model(self, max_batch):
        circuit = stochastic_circuit()
        expected = TrajectorySimulator(noisy_model(), max_batch=max_batch).run(
            circuit, shots=128, seed=2020
        )
        got = TrajectorySimulator(DuckTypedNoise(), max_batch=max_batch).run(
            circuit, shots=128, seed=2020
        )
        assert got.metadata["noise"] == "duck"
        assert list(got.counts.items()) == list(expected.counts.items())


class TestEngineOptions:
    def test_method_keyword_is_gone(self):
        with pytest.raises(TypeError):
            TrajectorySimulator(method="loop")
        with pytest.raises(TypeError):
            StatevectorSimulator(method="loop")

    def test_invalid_max_batch_rejected(self):
        with pytest.raises(SimulationError, match="max_batch"):
            TrajectorySimulator(max_batch=0)

    def test_metadata_names_no_execution_method(self):
        circuit = stochastic_circuit()
        trajectory = TrajectorySimulator(noisy_model()).run(circuit, shots=8, seed=1)
        assert "method" not in trajectory.metadata
        fallback = StatevectorSimulator(max_branches=1).run(circuit, shots=8, seed=1)
        assert fallback.metadata["method"] == "per-shot"
        assert "per_shot_method" not in fallback.metadata


class TestSubstreamContract:
    def test_substreams_depend_only_on_seed_and_index(self):
        first = spawn_substreams(11, 8)
        second = spawn_substreams(11, 8)
        for a, b in zip(first, second):
            assert (
                substream_generator(a).random(4).tolist()
                == substream_generator(b).random(4).tolist()
            )

    def test_prefix_stability_across_shot_counts(self):
        """Trajectory t's substream is the same whether 8 or 64 shots run."""
        short = spawn_substreams(5, 8)
        long = spawn_substreams(5, 64)
        for a, b in zip(short, long):
            assert (
                substream_generator(a).random(2).tolist()
                == substream_generator(b).random(2).tolist()
            )

    def test_zero_shots(self):
        result = TrajectorySimulator(noisy_model()).run(
            stochastic_circuit(), shots=0, seed=1
        )
        assert dict(result.counts) == {}
        assert result.shots == 0

    def test_no_clbits_counts_empty_key(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        result = TrajectorySimulator().run(qc, shots=5, seed=1)
        assert dict(result.counts) == {"": 5}
