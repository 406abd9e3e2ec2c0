"""The per-shot reference walker the batched sampling path is checked against.

The engines sample shots along a batch axis
(:mod:`repro.simulators._batched`).  This module re-walks the circuit once
per shot instead, building each shot's counter-addressed Philox stream
with NumPy's own generator and running the same kernels at batch width 1.
A run seeded ``s`` has one Philox key, ``SeedSequence(s)
.generate_state(2, np.uint64)``; shot ``t`` owns the ``S = ceil(D / 4)``
Philox blocks after counter ``t * S``, where ``D`` bounds the uniforms
one shot can consume.  Each noisy gate's channels are compiled by the
engines' own :func:`repro.simulators._program.born_steps`, and a shot
makes one Born-weighted choice per multi-branch step with the step's own
forms at batch width 1.  A measurement nothing later depends on (this
module finds them on its own, :func:`terminal_measurements`) is not walked:
after the last step the shot takes one uniform for the joint recorded
outcome of all of them, from its state's populations composed with the
confusions (:class:`repro.simulators._program.Readout`).  Batched counts
must equal :func:`loop_counts` bit for bit at every ``max_batch`` tiling;
``test_batched.py`` and the trajectory tests hold them to it.
"""

from collections import Counter
from typing import Dict, Optional

import numpy as np

from repro.circuits.gates import Gate
from repro.exceptions import SimulationError
from repro.simulators import _kernels, _program


def loop_counts(
    circuit,
    noise_model,
    shots: int,
    seed: Optional[int],
    initial_state: Optional[np.ndarray] = None,
) -> Dict[str, int]:
    """Sample ``shots`` trajectories one at a time; returns the counts.

    The noise model is queried per shot.
    """
    key = run_key(seed)
    draws = max_draws(circuit, noise_model)
    terminal = terminal_measurements(circuit, noise_model)
    counts: Counter = Counter()
    for shot in range(shots):
        rng = shot_generator(key, shot, draws)
        counts[_loop_shot(circuit, noise_model, rng, initial_state, terminal)] += 1
    return dict(counts)


def device_loop_counts(backend, circuit, shots: int, seed: Optional[int]):
    """:func:`loop_counts` of a trajectory device backend's prepared circuit."""
    return loop_counts(backend.prepare(circuit), backend.noise_model, shots, seed)


def run_key(seed: Optional[int]) -> np.ndarray:
    """The run's Philox key; ``seed=None`` draws fresh OS entropy."""
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def terminal_measurements(circuit, noise_model) -> set:
    """The indices in ``circuit.data`` of the measurements nothing later
    depends on: unconditioned, with no later instruction or noise channel
    on the qubit, no later condition on the clbit and no later measurement
    into it."""
    terminal = set()
    for index, inst in enumerate(circuit.data):
        if inst.name != "measure" or inst.condition is not None:
            continue
        qubit, clbit = inst.qubits[0], inst.clbits[0]
        later = circuit.data[index + 1:]
        if not any(
            qubit in _acted_on(other, noise_model)
            or (other.condition is not None and other.condition[0] == clbit)
            or (other.name == "measure" and other.clbits[0] == clbit)
            for other in later
            if other.name != "barrier"
        ):
            terminal.add(index)
    return terminal


def _acted_on(inst, noise_model) -> set:
    qubits = set(inst.qubits)
    if noise_model is not None and inst.name not in ("measure", "reset"):
        for _, targets in noise_model.channels_for(inst):
            qubits.update(targets)
    return qubits


def max_draws(circuit, noise_model) -> int:
    """Upper bound on the uniforms one shot consumes: one per multi-branch
    Born step, mid-circuit measurement, mid-circuit readout flip and reset,
    whether or not a condition skips it, and one for the terminal readout."""
    terminal = terminal_measurements(circuit, noise_model)
    draws = 1 if terminal else 0
    for index, inst in enumerate(circuit.data):
        if inst.name == "barrier" or index in terminal:
            continue
        if inst.name == "measure":
            draws += 1
            if noise_model is not None:
                draws += noise_model.readout_confusion(inst.qubits[0]) is not None
        elif inst.name == "reset":
            draws += 1
        elif noise_model is not None:
            draws += sum(step.draws for step in _born_steps(inst, noise_model))
    return draws


def _born_steps(inst, noise_model):
    channels = tuple(
        (tuple(kraus), tuple(targets))
        for kraus, targets in noise_model.channels_for(inst)
    )
    return _program.born_steps(tuple(inst.qubits), channels)


def shot_generator(key: np.ndarray, shot: int, draws: int) -> np.random.Generator:
    """The generator of shot ``shot``: its Philox blocks start after counter
    ``shot * ceil(draws / 4)`` (NumPy increments the counter before each
    block), and each uniform takes one 64-bit output."""
    blocks = -(-draws // 4)
    return np.random.Generator(np.random.Philox(key=key, counter=shot * blocks))


def apply_matrix(states, matrix, qubits):
    """Apply ``matrix`` to ``qubits`` of batched ``(2, ..., 2, B)`` states
    with the walker's kernel, held over ``qubits`` as the walker holds it."""
    qubits = tuple(qubits)
    source = _kernels.relayout(states.reshape(-1, 1, states.shape[-1]), (), qubits)
    values = _kernels.batched_apply_operator(source, matrix)
    return _kernels.relayout(values, qubits, ()).reshape(states.shape)


def _loop_shot(circuit, noise_model, rng, initial_state, terminal) -> str:
    state = _kernels.batched_state_tensor(1, circuit.num_qubits, initial_state)
    clbits = [0] * circuit.num_clbits
    for index, inst in enumerate(circuit.data):
        if inst.name == "barrier" or index in terminal:
            continue
        if inst.condition is not None:
            clbit, value = inst.condition
            if clbits[clbit] != value:
                continue
        if inst.name == "measure":
            state = _loop_measure(state, inst, clbits, noise_model, rng)
        elif inst.name == "reset":
            state = _loop_reset(state, inst, rng)
        else:
            op = inst.operation
            if not isinstance(op, Gate):
                raise SimulationError(f"cannot apply non-gate {op.name!r}")
            state = apply_matrix(state, op.matrix, inst.qubits)
            if noise_model is not None:
                for step in _born_steps(inst, noise_model):
                    if step.draws:
                        state = _loop_born(state, step, rng.random())[0]
                    else:
                        state = apply_matrix(state, step.operators[0], step.targets)
    if terminal:
        measurements = [circuit.data[index] for index in sorted(terminal)]
        _loop_readout(state, measurements, clbits, noise_model, rng)
    return "".join(str(b) for b in clbits)


def _loop_readout(state, measurements, clbits, noise_model, rng):
    """One uniform for the joint recorded outcome of the terminal
    ``measurements``, chosen by :func:`_loop_select`."""
    confusion = noise_model.readout_confusion if noise_model is not None else None
    readout = _program.Readout([
        (inst.qubits[0], inst.clbits[0], confusion and confusion(inst.qubits[0]))
        for inst in measurements
    ])
    source = _kernels.relayout(state.reshape(-1, 1, 1), (), readout.qubits)
    weights = readout.recorded(_kernels.batched_target_features(source))[:, 0]
    outcome = _loop_select(weights, rng.random())
    for clbit, bit in zip(readout.clbits, readout.bits[outcome]):
        clbits[clbit] = int(bit)


def _loop_born(state, step, uniform):
    """Early-exiting scalar twin of ``_batched._born_step``: the branch is
    :func:`_loop_select`'s.  Returns ``(state, branch)``."""
    source = _kernels.relayout(state.reshape(-1, 1, 1), (), step.targets)
    weights = step.weights(step.features(source))[:, 0]
    choice = _loop_select(weights, uniform)
    if choice == 0:
        source = step.first(source, weights[:1])
    else:
        source = step.build(source, np.array([choice]), weights[choice:choice + 1])
    return _kernels.relayout(source, step.targets, ()).reshape(state.shape), choice


def _loop_select(weights, uniform):
    """Scalar twin of ``_batched._select``.

    Walks the cumulative weights as Python floats, the same float64
    sequence as ``np.cumsum``: the first branch whose cumulative weight
    exceeds the draw wins, and round-off past the last branch (or a chosen
    branch without support) takes the last branch with support.
    """
    cumulative = 0.0
    choice = None
    for branch, weight in enumerate(weights):
        cumulative += weight
        if uniform < cumulative:
            if weight > _kernels.KRAUS_EPS:
                choice = branch
            break
    if choice is None:
        supported = np.flatnonzero(weights > _kernels.KRAUS_EPS)
        if supported.size == 0:
            raise SimulationError("Kraus sampling found no branch with support")
        choice = int(supported[-1])
    return choice


def _loop_measure(state, inst, clbits, noise_model, rng):
    qubit, clbit = inst.qubits[0], inst.clbits[0]
    state, branch = _loop_born(state, _program.outcome_step(qubit, False), rng.random())
    outcome = 1 - branch
    recorded = outcome
    if noise_model is not None:
        confusion = noise_model.readout_confusion(qubit)
        if confusion is not None:
            flip_prob = confusion[1 - outcome][outcome]
            if rng.random() < flip_prob:
                recorded = 1 - outcome
    clbits[clbit] = recorded
    return state


def _loop_reset(state, inst, rng):
    step = _program.outcome_step(inst.qubits[0], True)
    return _loop_born(state, step, rng.random())[0]
