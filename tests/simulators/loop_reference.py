"""The per-shot reference walker the batched sampling path is checked against.

The engines sample shots along a batch axis
(:mod:`repro.simulators._batched`).  This module re-walks the circuit once
per shot instead, building each shot's counter-addressed Philox stream
with NumPy's own generator and running the same kernels at batch width 1.
A run seeded ``s`` has one Philox key, ``SeedSequence(s)
.generate_state(2, np.uint64)``; shot ``t`` owns the ``S = ceil(D / 4)``
Philox blocks after counter ``t * S``, where ``D`` bounds the uniforms
one shot can consume.  Batched counts must equal :func:`loop_counts` bit
for bit at every ``max_batch`` tiling; ``test_batched.py`` and the
trajectory tests hold them to it.
"""

from collections import Counter
from typing import Dict, Optional

import numpy as np

from repro.circuits.gates import Gate, x_matrix
from repro.exceptions import SimulationError
from repro.simulators import _kernels


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
    counts: Counter = Counter()
    for shot in range(shots):
        rng = shot_generator(key, shot, draws)
        counts[_loop_shot(circuit, noise_model, rng, initial_state)] += 1
    return dict(counts)


def device_loop_counts(backend, circuit, shots: int, seed: Optional[int]):
    """:func:`loop_counts` of a trajectory device backend's prepared circuit."""
    return loop_counts(backend.prepare(circuit), backend.noise_model, shots, seed)


def run_key(seed: Optional[int]) -> np.ndarray:
    """The run's Philox key; ``seed=None`` draws fresh OS entropy."""
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def max_draws(circuit, noise_model) -> int:
    """Upper bound on the uniforms one shot consumes: one per Kraus channel,
    measurement, readout flip and reset, whether or not a condition skips it."""
    draws = 0
    for inst in circuit.data:
        if inst.name == "barrier":
            continue
        if inst.name == "measure":
            draws += 1
            if noise_model is not None:
                draws += noise_model.readout_confusion(inst.qubits[0]) is not None
        elif inst.name == "reset":
            draws += 1
        elif noise_model is not None:
            draws += len(noise_model.channels_for(inst))
    return draws


def shot_generator(key: np.ndarray, shot: int, draws: int) -> np.random.Generator:
    """The generator of shot ``shot``: its Philox blocks start after counter
    ``shot * ceil(draws / 4)`` (NumPy increments the counter before each
    block), and each uniform takes one 64-bit output."""
    blocks = -(-draws // 4)
    return np.random.Generator(np.random.Philox(key=key, counter=shot * blocks))


def _loop_shot(circuit, noise_model, rng, initial_state) -> str:
    state = _kernels.batched_state_tensor(1, circuit.num_qubits, initial_state)
    clbits = [0] * circuit.num_clbits
    for inst in circuit.data:
        if inst.name == "barrier":
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
            state = _kernels.batched_apply_matrix(state, op.matrix, inst.qubits)
            if noise_model is not None:
                for kraus, targets in noise_model.channels_for(inst):
                    state = _loop_sample_kraus(
                        state, tuple(kraus), tuple(targets), rng.random()
                    )
    return "".join(str(b) for b in clbits)


def _loop_sample_kraus(state, operators, targets, uniform):
    """Early-exiting scalar twin of ``_batched._sample_kraus_rows``.

    Applies operators only until the sampled branch is found (usually the
    first, high-weight one), instead of materialising all ``m`` branches
    per shot.  Decision-equivalent to :func:`_kernels.kraus_select`
    bit-for-bit: the cumulative partial sums are the same float64
    sequence, the first branch whose cumulative weight exceeds the draw
    wins, and the round-off / zero-weight fallback (which does need every
    weight) picks the last branch with support.
    """
    cumulative = 0.0
    branches = []
    weights = []
    for k_op in operators:
        branch = _kernels.batched_apply_matrix(state, k_op, targets)
        weight = float(_kernels.batched_norm_sq(branch)[0])
        branches.append(branch)
        weights.append(weight)
        cumulative += weight
        if uniform < cumulative:
            if weight > _kernels.KRAUS_EPS:
                return branch / np.sqrt(weight)
            break  # selected a zero-weight branch: take the fallback
    for k_op in operators[len(branches):]:
        branch = _kernels.batched_apply_matrix(state, k_op, targets)
        branches.append(branch)
        weights.append(float(_kernels.batched_norm_sq(branch)[0]))
    for branch, weight in zip(reversed(branches), reversed(weights)):
        if weight > _kernels.KRAUS_EPS:
            return branch / np.sqrt(weight)
    raise SimulationError("Kraus sampling found no branch with support")


def _loop_measure(state, inst, clbits, noise_model, rng):
    qubit, clbit = inst.qubits[0], inst.clbits[0]
    p_one = _kernels.batched_probability_of_one(state, qubit)[0]
    outcome = 1 if rng.random() < p_one else 0
    state, _ = _kernels.batched_collapse(state, qubit, np.array([outcome], dtype=np.uint8))
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
    qubit = inst.qubits[0]
    p_one = _kernels.batched_probability_of_one(state, qubit)[0]
    outcome = 1 if rng.random() < p_one else 0
    state, _ = _kernels.batched_collapse(state, qubit, np.array([outcome], dtype=np.uint8))
    if outcome == 1:
        state = _kernels.batched_apply_matrix(state, x_matrix(), [qubit])
    return state
