"""Quantum noise channels in Kraus form.

Each constructor returns a :class:`KrausChannel` — an immutable, validated
list of Kraus operators satisfying the completeness relation
``sum_k K_k^dagger K_k = I`` (CPTP).  The density-matrix engine applies them
exactly; the trajectory engine unravels them stochastically.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.exceptions import NoiseError

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class KrausChannel:
    """A CPTP map given by Kraus operators.

    Parameters
    ----------
    operators:
        Sequence of equal-shaped square matrices obeying the completeness
        relation.
    name:
        Human-readable channel name for reporting.
    atol:
        Tolerance for the completeness check.
    """

    def __init__(
        self,
        operators: Sequence[np.ndarray],
        name: str = "kraus",
        atol: float = 1e-8,
    ) -> None:
        ops = [np.asarray(op, dtype=complex) for op in operators]
        if not ops:
            raise NoiseError("channel requires at least one Kraus operator")
        dim = ops[0].shape[0]
        for op in ops:
            if op.ndim != 2 or op.shape != (dim, dim):
                raise NoiseError(
                    f"Kraus operators must be square and equal-shaped; got "
                    f"{[o.shape for o in ops]}"
                )
        num_qubits = int(math.log2(dim))
        if 2 ** num_qubits != dim:
            raise NoiseError(f"Kraus dimension {dim} is not a power of two")
        completeness = sum(op.conj().T @ op for op in ops)
        if not np.allclose(completeness, np.eye(dim), atol=atol):
            raise NoiseError(
                "Kraus operators do not satisfy the completeness relation"
            )
        self.operators: Tuple[np.ndarray, ...] = tuple(op.copy() for op in ops)
        self.name = name
        self.num_qubits = num_qubits

    def __iter__(self):
        return iter(self.operators)

    def __len__(self) -> int:
        return len(self.operators)

    def is_unital(self, atol: float = 1e-8) -> bool:
        """Return True if the channel maps the identity to itself."""
        dim = self.operators[0].shape[0]
        image = sum(op @ op.conj().T for op in self.operators)
        return bool(np.allclose(image, np.eye(dim), atol=atol))

    def compose(self, other: "KrausChannel") -> "KrausChannel":
        """Return ``self`` followed by ``other`` as one channel."""
        if self.num_qubits != other.num_qubits:
            raise NoiseError("cannot compose channels of different arities")
        ops = [b @ a for a in self.operators for b in other.operators]
        return KrausChannel(ops, name=f"{other.name}({self.name})")

    def __repr__(self) -> str:
        return (
            f"KrausChannel({self.name!r}, num_qubits={self.num_qubits}, "
            f"num_operators={len(self.operators)})"
        )


def lift_operators(
    operators: Sequence[np.ndarray], position: int, num_qubits: int
) -> Tuple[np.ndarray, ...]:
    """Embed 1-qubit Kraus operators on one operand of a ``num_qubits`` gate.

    Each operator becomes ``I x ... x K x ... x I`` with ``K`` at
    ``position``; operand 0 is the most significant factor, the order of
    the gate matrices.  Device models use it to attach relaxation to one
    operand of a CX, and the density-matrix engine to fold a per-operand
    channel into the gate's superoperator.
    """
    identity = np.eye(2, dtype=complex)
    lifted = []
    for k_op in operators:
        full = k_op if position == 0 else identity
        for index in range(1, num_qubits):
            full = np.kron(full, k_op if index == position else identity)
        lifted.append(full)
    return tuple(lifted)


def _validated_probability(p: float, upper: float = 1.0) -> float:
    if not 0.0 <= p <= upper + 1e-12:
        raise NoiseError(f"probability {p} outside [0, {upper}]")
    return float(min(p, upper))


def bit_flip(probability: float) -> KrausChannel:
    """Return the bit-flip channel: X with the given probability."""
    p = _validated_probability(probability)
    return KrausChannel(
        [math.sqrt(1 - p) * _PAULI["I"], math.sqrt(p) * _PAULI["X"]],
        name=f"bit_flip({p:g})",
    )


def phase_flip(probability: float) -> KrausChannel:
    """Return the phase-flip channel: Z with the given probability."""
    p = _validated_probability(probability)
    return KrausChannel(
        [math.sqrt(1 - p) * _PAULI["I"], math.sqrt(p) * _PAULI["Z"]],
        name=f"phase_flip({p:g})",
    )


def bit_phase_flip(probability: float) -> KrausChannel:
    """Return the bit-phase-flip channel: Y with the given probability."""
    p = _validated_probability(probability)
    return KrausChannel(
        [math.sqrt(1 - p) * _PAULI["I"], math.sqrt(p) * _PAULI["Y"]],
        name=f"bit_phase_flip({p:g})",
    )


def depolarizing(probability: float) -> KrausChannel:
    """Return the single-qubit depolarizing channel.

    With probability ``p`` the state is replaced by the maximally mixed
    state; equivalently each non-identity Pauli occurs with ``p/4``.
    """
    p = _validated_probability(probability)
    return KrausChannel(
        [
            math.sqrt(1 - 3 * p / 4) * _PAULI["I"],
            math.sqrt(p / 4) * _PAULI["X"],
            math.sqrt(p / 4) * _PAULI["Y"],
            math.sqrt(p / 4) * _PAULI["Z"],
        ],
        name=f"depolarizing({p:g})",
    )


def two_qubit_depolarizing(probability: float) -> KrausChannel:
    """Return the two-qubit depolarizing channel (15 Pauli errors)."""
    p = _validated_probability(probability)
    ops: List[np.ndarray] = []
    labels = [a + b for a in "IXYZ" for b in "IXYZ"]
    for label in labels:
        weight = 1 - 15 * p / 16 if label == "II" else p / 16
        matrix = np.kron(_PAULI[label[0]], _PAULI[label[1]])
        ops.append(math.sqrt(weight) * matrix)
    return KrausChannel(ops, name=f"two_qubit_depolarizing({p:g})")


def pauli_channel(px: float, py: float, pz: float) -> KrausChannel:
    """Return the general single-qubit Pauli channel."""
    for p in (px, py, pz):
        _validated_probability(p)
    total = px + py + pz
    if total > 1.0 + 1e-12:
        raise NoiseError(f"Pauli probabilities sum to {total} > 1")
    return KrausChannel(
        [
            math.sqrt(max(0.0, 1 - total)) * _PAULI["I"],
            math.sqrt(px) * _PAULI["X"],
            math.sqrt(py) * _PAULI["Y"],
            math.sqrt(pz) * _PAULI["Z"],
        ],
        name=f"pauli({px:g},{py:g},{pz:g})",
    )


def amplitude_damping(gamma: float) -> KrausChannel:
    """Return the amplitude-damping channel (energy relaxation, T1)."""
    g = _validated_probability(gamma)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)
    return KrausChannel([k0, k1], name=f"amplitude_damping({g:g})")


def phase_damping(lam: float) -> KrausChannel:
    """Return the phase-damping channel (pure dephasing, T2)."""
    value = _validated_probability(lam)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - value)]], dtype=complex)
    k1 = np.array([[0, 0], [0, math.sqrt(value)]], dtype=complex)
    return KrausChannel([k0, k1], name=f"phase_damping({value:g})")


def thermal_relaxation(
    t1: float,
    t2: float,
    gate_time: float,
    excited_population: float = 0.0,
) -> KrausChannel:
    """Return the thermal-relaxation channel for a gate of given duration.

    Parameters
    ----------
    t1, t2:
        Relaxation and dephasing times (same unit as ``gate_time``);
        requires ``t2 <= 2 * t1``.
    gate_time:
        Duration the qubit idles/evolves under the noise.
    excited_population:
        Equilibrium |1> population (0 for a cold device).

    Notes
    -----
    Implemented as amplitude damping with ``gamma = 1 - exp(-t/T1)`` composed
    with pure dephasing chosen so the total coherence decay matches
    ``exp(-t/T2)``.
    """
    if t1 <= 0 or t2 <= 0:
        raise NoiseError("T1 and T2 must be positive")
    if t2 > 2 * t1 + 1e-12:
        raise NoiseError(f"T2 = {t2} exceeds the physical limit 2*T1 = {2 * t1}")
    if gate_time < 0:
        raise NoiseError("gate_time must be non-negative")
    if not 0.0 <= excited_population <= 1.0:
        raise NoiseError("excited_population must lie in [0, 1]")
    gamma = 1.0 - math.exp(-gate_time / t1)
    # Total off-diagonal decay must be exp(-t/T2); amplitude damping alone
    # contributes sqrt(1-gamma) = exp(-t/(2 T1)).
    # Single exponent avoids underflow when gate_time >> T1, T2.
    residual = min(1.0, math.exp(gate_time * (0.5 / t1 - 1.0 / t2)))
    lam = 1.0 - residual ** 2
    ad = _generalized_amplitude_damping(gamma, excited_population)
    pd = phase_damping(lam)
    channel = ad.compose(pd)
    return KrausChannel(
        channel.operators,
        name=f"thermal(T1={t1:g},T2={t2:g},t={gate_time:g})",
    )


def _generalized_amplitude_damping(gamma: float, p_excited: float) -> KrausChannel:
    """Return generalized amplitude damping toward a thermal population."""
    g = _validated_probability(gamma)
    p_cold = 1.0 - p_excited
    k0 = math.sqrt(p_cold) * np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex)
    k1 = math.sqrt(p_cold) * np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)
    k2 = math.sqrt(p_excited) * np.array(
        [[math.sqrt(1 - g), 0], [0, 1]], dtype=complex
    )
    k3 = math.sqrt(p_excited) * np.array([[0, 0], [math.sqrt(g), 0]], dtype=complex)
    ops = [k for k in (k0, k1, k2, k3) if np.any(np.abs(k) > 1e-15)]
    return KrausChannel(ops, name=f"gad({g:g},{p_excited:g})")
