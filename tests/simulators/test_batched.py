"""Batched-shot simulation: the batched/looped determinism contract.

The sampling engines advance all shots of a ``max_batch`` tile together,
one state per distinct stochastic history; the per-shot reference walker
in ``loop_reference.py`` re-walks the circuit per shot.  Both draw shot
``t``'s uniforms from the run's one Philox key at counter ``t * S``, so
counts must be **bit-identical** to the reference at every ``max_batch``
tiling for a fixed seed — that invariance is what lets the runtime treat
the tiling as pure throughput.  These tests pin the contract (hypothesis
properties across noisy backends, noise strengths and tilings), the
counter addressing of a tile's uniforms, golden counts that engine
rewrites must keep, the convergence of the batched path against the
density-matrix engine's exact distribution, and duck-typed noise models
compiled once per run.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.statistics import chi2_sf
from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.core.injector import AssertionInjector
from repro.devices.backend import TrajectoryDeviceBackend
from repro.devices.ibmqx4 import ibmqx4
from repro.exceptions import SimulationError
from repro.noise.channels import (
    KrausChannel,
    amplitude_damping,
    depolarizing,
    two_qubit_depolarizing,
)
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.noise.trajectories import TrajectorySimulator
from repro.runtime import execute, get_backend
from repro.simulators import _batched, _program
from repro.simulators.density_matrix import DensityMatrixSimulator
from repro.simulators.statevector import StatevectorSimulator

from loop_reference import device_loop_counts, loop_counts, max_draws, run_key
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
    cursor and the conditioned noisy gate's Born step runs on only some
    rows, and under strong noise a Kraus step leaves more dead class
    columns than live ones, which compacts them.
    """

    def test_batched_equals_loop(self, monkeypatch):
        seed = 2020
        circuit, model, shots = split_then_noisy_circuit(), strong_model(), 128
        loop = loop_counts(circuit, model, shots, seed)
        compact = _batched._compact
        take = _batched._Draws.take
        born = _batched._born_step
        seen = {"compacted": 0, "per_row": 0, "partial_born": 0}

        def counting_compact(states, klass):
            kept, klass = compact(states, klass)
            seen["compacted"] += kept.shape[-1] < states.shape[-1]
            return kept, klass

        def counting_take(draws, rows):
            values = take(draws, rows)
            seen["per_row"] += draws.cursor is not None
            return values

        def counting_born(states, klass, rows, step, uniforms):
            seen["partial_born"] += rows.shape[0] < klass.shape[0]
            return born(states, klass, rows, step, uniforms)

        monkeypatch.setattr(_batched, "_compact", counting_compact)
        monkeypatch.setattr(_batched._Draws, "take", counting_take)
        monkeypatch.setattr(_batched, "_born_step", counting_born)
        for max_batch in (1, 7, shots):
            seen.update(compacted=0, per_row=0, partial_born=0)
            batched = TrajectorySimulator(model, max_batch=max_batch).run(
                circuit, shots=shots, seed=seed
            )
            assert dict(batched.counts) == loop, max_batch
            assert seen["compacted"] > 0, max_batch
            # A one-row tile never splits its rows on a condition; a wider
            # one runs the conditioned noisy x on only some of its rows.
            assert (seen["per_row"] > 0) == (max_batch > 1), max_batch
            assert (seen["partial_born"] > 0) == (max_batch > 1), max_batch


def hadamard_damping(gamma):
    """Amplitude damping conjugated by H: its ``K^dagger K`` are not diagonal."""
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return KrausChannel(
        [hadamard @ k @ hadamard for k in amplitude_damping(gamma).operators],
        name=f"h_damping({gamma:g})",
    )


def small_noisy_circuit():
    qc = QuantumCircuit(3, 3)
    qc.h(0)
    qc.x(1)
    qc.cx(0, 1)
    qc.h(2)
    qc.cx(1, 2)
    qc.x(0)
    qc.measure(0, 0)
    qc.measure(1, 1)
    qc.measure(2, 2)
    return qc


class NeighbourNoise:
    """A duck-typed model that also dephases the qubit after each gate's
    last operand, between the gate's own channels."""

    name = "neighbour"

    def __init__(self):
        self._inner = noisy_model()
        self._neighbour = hadamard_damping(0.3).operators

    def channels_for(self, instruction):
        own = self._inner.channels_for(instruction)
        outside = ((max(instruction.qubits) + 1) % 3,)
        return own[:1] + [(self._neighbour, outside)] + own[1:]

    def readout_confusion(self, qubit):
        return self._inner.readout_confusion(qubit)


def past_cap_model():
    """Three two-qubit depolarizing channels on every CX: 16^3 > MAX_BRANCHES."""
    model = NoiseModel("past-cap")
    model.add_all_qubit_gate_error(["h", "x"], depolarizing(0.2))
    for rate in (0.1, 0.2, 0.3):
        model.add_all_qubit_gate_error(["cx"], two_qubit_depolarizing(rate))
    return model


def hadamard_damping_model():
    return (
        NoiseModel("h-damping")
        .add_all_qubit_gate_error(["h", "x", "cx"], hadamard_damping(0.3))
        .add_readout_error(ReadoutError(0.05, 0.02))
    )


def _folded(model, name, qubits):
    instruction = SimpleNamespace(name=name, qubits=qubits)
    channels = tuple(
        (tuple(kraus), tuple(targets))
        for kraus, targets in model.channels_for(instruction)
    )
    return _program.born_steps(qubits, channels)


class TestFoldedShapes:
    """Folds the paper circuits never reach keep batched == looped counts."""

    def _check(self, circuit, model, shots=96, seeds=(3, 2020)):
        for seed in seeds:
            loop = loop_counts(circuit, model, shots, seed)
            for max_batch in (1, 7, shots):
                batched = TrajectorySimulator(model, max_batch=max_batch).run(
                    circuit, shots=shots, seed=seed
                )
                assert dict(batched.counts) == loop, (seed, max_batch)

    def test_non_diagonal_born_forms(self):
        model = hadamard_damping_model()
        (step,) = _folded(model, "x", (0,))
        assert step.pairs  # off-diagonal features are read
        self._check(small_noisy_circuit(), model)

    def test_non_diagonal_born_forms_converge_to_density_matrix(self):
        circuit, model, shots = small_noisy_circuit(), hadamard_damping_model(), 8000
        exact = DensityMatrixSimulator(noise_model=model).run(circuit, shots=1)
        sampled = TrajectorySimulator(model).run(circuit, shots=shots, seed=5)
        for key, probability in exact.probabilities.items():
            assert abs(sampled.counts.get(key, 0) / shots - probability) < 0.02, key

    def test_channel_outside_the_gate_keeps_its_order(self):
        model = NeighbourNoise()
        steps = _folded(model, "cx", (0, 1))
        # own depolarizing, the neighbour's damping, then the rest of the own
        # channels on the gate's qubits again.
        assert [step.targets for step in steps] == [(0, 1), (2,), (0, 1)]
        self._check(small_noisy_circuit(), model)
        exact = DensityMatrixSimulator(noise_model=model).run(
            small_noisy_circuit(), shots=1
        )
        sampled = TrajectorySimulator(model).run(
            small_noisy_circuit(), shots=8000, seed=9
        )
        for key, probability in exact.probabilities.items():
            assert abs(sampled.counts.get(key, 0) / 8000 - probability) < 0.02, key

    def test_composed_set_past_the_cap_splits(self):
        model = past_cap_model()
        steps = _folded(model, "cx", (0, 1))
        assert [len(step.operators) for step in steps] == [256, 16]
        assert _program.MAX_BRANCHES == 256
        self._check(small_noisy_circuit(), model)

    def test_conditioned_noisy_gate_on_some_rows(self):
        self._check(split_then_noisy_circuit(), strong_model())


class TestRefine:
    @pytest.mark.parametrize("seed", range(5))
    def test_counting_refine_numbers_classes_as_unique(self, seed):
        """The bincount ``_refine`` gives the sorted ``np.unique`` numbering."""
        rng = np.random.default_rng(seed)
        batch, classes = 500, int(rng.integers(1, 40))
        klass = rng.integers(0, classes, size=batch)
        rows = np.sort(rng.choice(batch, size=int(rng.integers(1, batch)), replace=False))

        key = klass * 2
        key[rows] += 1
        unique, expected_klass = np.unique(key, return_inverse=True)

        got_klass, got_parents = _batched._refine(klass, rows)
        assert got_klass.tolist() == expected_klass.tolist()
        assert got_parents.tolist() == (unique // 2).tolist()


#: ``sorted(loop_counts(...).items())`` of the per-shot reference walker on
#: the counter-addressed streams, at 1024 shots, each shot reading its
#: terminal measurements with one draw.  The batched walker (one 1024-shot
#: tile, whose keys come out sorted) must reproduce them exactly, key
#: order included.
GOLDEN_DEVICE_COUNTS = {
    ("classical", 11): [
        ("0000", 84), ("0001", 824), ("0010", 2), ("0011", 33), ("0100", 11),
        ("0101", 36), ("1000", 2), ("1001", 18), ("1011", 10), ("1101", 3),
        ("1111", 1),
    ],
    ("classical", 2020): [
        ("0000", 67), ("0001", 819), ("0010", 3), ("0011", 25), ("0100", 17),
        ("0101", 45), ("0111", 1), ("1000", 3), ("1001", 31), ("1010", 1), ("1011", 9),
        ("1101", 3),
    ],
    ("entanglement", 11): [
        ("0000", 322), ("0001", 23), ("0010", 22), ("0011", 57), ("0100", 36),
        ("0101", 42), ("0110", 34), ("0111", 346), ("1000", 27), ("1001", 7),
        ("1010", 3), ("1011", 33), ("1100", 22), ("1101", 14), ("1110", 5),
        ("1111", 31),
    ],
    ("entanglement", 2020): [
        ("0000", 356), ("0001", 25), ("0010", 30), ("0011", 50), ("0100", 43),
        ("0101", 43), ("0110", 25), ("0111", 306), ("1000", 33), ("1001", 3),
        ("1010", 8), ("1011", 22), ("1100", 25), ("1101", 13), ("1110", 7),
        ("1111", 35),
    ],
    ("superposition", 11): [
        ("0000", 253), ("0001", 222), ("0010", 219), ("0011", 199), ("0100", 27),
        ("0101", 14), ("0110", 13), ("0111", 21), ("1000", 10), ("1001", 19),
        ("1010", 8), ("1011", 15), ("1100", 1), ("1110", 1), ("1111", 2),
    ],
    ("superposition", 2020): [
        ("0000", 244), ("0001", 198), ("0010", 258), ("0011", 207), ("0100", 10),
        ("0101", 19), ("0110", 14), ("0111", 15), ("1000", 12), ("1001", 13),
        ("1010", 15), ("1011", 14), ("1100", 1), ("1110", 2), ("1111", 2),
    ],
}

GOLDEN_STOCHASTIC_COUNTS = {
    7: [
        ("0000", 365), ("0001", 22), ("0010", 31), ("0011", 5), ("0100", 36),
        ("0101", 3), ("0110", 26), ("0111", 31), ("1000", 37), ("1001", 377),
        ("1010", 5), ("1011", 20), ("1100", 4), ("1101", 32), ("1110", 10),
        ("1111", 20),
    ],
    2020: [
        ("0000", 427), ("0001", 17), ("0010", 31), ("0011", 4), ("0100", 33),
        ("0101", 1), ("0110", 21), ("0111", 37), ("1000", 24), ("1001", 339),
        ("1010", 4), ("1011", 26), ("1100", 3), ("1101", 19), ("1110", 11),
        ("1111", 27),
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

    def test_chi_square_against_density_matrix_on_paper_circuits(self):
        """Trajectory counts fit the exact noisy distribution (experiment A5).

        Pearson chi-square per (circuit, seed), outcomes of expected count
        below 5 pooled into one bin; the thresholds were fixed before the
        first run: each p >= 0.001, and p >= 0.01 for the sum of the nine
        statistics on the summed degrees of freedom.
        """
        shots, statistics, dofs = 4096, [], []
        trajectory = get_backend("trajectory:ibmqx4")
        exact = get_backend("noisy:ibmqx4")
        for kind in ("classical", "entanglement", "superposition"):
            circuit = paper_assertion(kind)
            probabilities = exact.run(circuit, shots=1, seed=0).probabilities
            for seed in (11, 2020, 4242):
                counts = trajectory.run(circuit, shots=shots, seed=seed).counts
                assert set(counts) <= {k for k, p in probabilities.items() if p > 0}
                bins = [(counts.get(k, 0), p * shots) for k, p in probabilities.items()]
                kept = [(o, e) for o, e in bins if e >= 5]
                pooled = [(o, e) for o, e in bins if e < 5]
                if pooled:
                    kept.append(tuple(map(sum, zip(*pooled))))
                statistic = sum((o - e) ** 2 / e for o, e in kept)
                p_value = chi2_sf(statistic, len(kept) - 1)
                assert p_value >= 1e-3, (kind, seed, statistic, p_value)
                statistics.append(statistic)
                dofs.append(len(kept) - 1)
        assert chi2_sf(sum(statistics), sum(dofs)) >= 1e-2

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


class MisShapedNoise:
    """A duck-typed model whose CX channel does not act on its targets."""

    name = "mis-shaped"

    def __init__(self, operators, targets):
        self._operators, self._targets = operators, targets

    def channels_for(self, instruction):
        if instruction.name != "cx":
            return []
        return [(self._operators, self._targets(instruction.qubits))]

    def readout_confusion(self, qubit):
        return None


class TestMisShapedChannels:
    """Operators that do not act on their targets raise before any shot."""

    @pytest.mark.parametrize(
        "operators, targets, k",
        [
            # smaller than the targets, an identity-first unitary mixture
            (depolarizing(0.01).operators, lambda qubits: qubits, 2),
            (amplitude_damping(0.2).operators, lambda qubits: qubits, 2),
            # larger than the target
            (two_qubit_depolarizing(0.1).operators, lambda qubits: qubits[:1], 1),
            # a lone operator
            ([np.eye(2, dtype=complex)], lambda qubits: qubits, 2),
        ],
        ids=["mixture-too-small", "damping-too-small", "too-large", "lone"],
    )
    @pytest.mark.parametrize("max_batch", [1, 1024])
    def test_raises(self, operators, targets, k, max_batch):
        model = MisShapedNoise(operators, targets)
        simulator = TrajectorySimulator(model, max_batch=max_batch)
        with pytest.raises(SimulationError, match=f"does not act on {k} qubit"):
            simulator.run(stochastic_circuit(), shots=64, seed=1)


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


class TestCounterAddressing:
    """A tile's uniforms are the shots' own counter-addressed streams."""

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
        start=st.integers(min_value=0, max_value=2 ** 40),
        batch=st.integers(min_value=0, max_value=40),
        draws=st.integers(min_value=0, max_value=81),
    )
    @example(seed=0, start=0, batch=0, draws=5)  # no shots
    @example(seed=1, start=3, batch=4, draws=0)  # no draws
    @example(seed=2, start=500, batch=7, draws=7)  # D % 4 != 0, mid-run
    @settings(max_examples=60, deadline=None)
    def test_row_t_is_shot_t_generator(self, seed, start, batch, draws):
        key = run_key(seed)
        blocks = -(-draws // 4)
        tile = _batched.tile_uniforms(key, start, batch, draws)
        assert tile.shape == (batch, draws)
        for row in range(batch):
            counter = [(start + row) * blocks, 0, 0, 0]
            generator = np.random.Generator(np.random.Philox(key=key, counter=counter))
            assert np.array_equal(tile[row], generator.random(draws)), row

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
        shots=st.integers(min_value=0, max_value=200),
        draws=st.integers(min_value=0, max_value=81),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_mid_run_tile_equals_rows_of_whole_run(self, seed, shots, draws, data):
        """Guards the off-by-one: NumPy increments the counter before each block."""
        start = data.draw(st.integers(min_value=0, max_value=shots))
        batch = data.draw(st.integers(min_value=0, max_value=shots - start))
        key = run_key(seed)
        whole = _batched.tile_uniforms(key, 0, shots, draws)
        tile = _batched.tile_uniforms(key, start, batch, draws)
        assert np.array_equal(tile, whole[start:start + batch])

    def test_run_key_depends_only_on_seed(self):
        assert run_key(11).tolist() == run_key(11).tolist()
        assert run_key(11).tolist() != run_key(12).tolist()

    @pytest.mark.parametrize("model", [None, noisy_model()], ids=["ideal", "noisy"])
    @pytest.mark.parametrize("kind", ["stochastic", "split", "entanglement"])
    def test_reference_draw_bound_equals_the_program_bound(self, model, kind):
        circuit = {
            "stochastic": stochastic_circuit,
            "split": split_then_noisy_circuit,
            "entanglement": lambda: paper_assertion("entanglement"),
        }[kind]()
        program = _program.build_program(circuit, model, _program.born_steps)
        assert max_draws(circuit, model) == _batched._max_draws(program)

    def test_zero_rate_channel_takes_no_uniform(self):
        """ibmqx4's virtual ``u1`` carries ``depolarizing(0.0)``: after its
        dead operators go it is the identity, no step and no draw."""
        backend = get_backend("trajectory:ibmqx4")
        circuit = QuantumCircuit(1, 1)
        circuit.u1(0.3, 0)
        circuit.measure(0, 0)
        (channels,) = [
            backend.noise_model.channels_for(inst) for inst in circuit.data[:1]
        ]
        assert [len(kraus) for kraus, _ in channels] == [4]
        program = _program.build_program(
            circuit, backend.noise_model, _program.born_steps
        )
        assert program[0][3] == ()
        # The terminal measurement and its flip are one joint readout draw.
        assert _batched._max_draws(program) == 1
        assert max_draws(circuit, backend.noise_model) == 1

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
