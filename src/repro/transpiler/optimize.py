"""Peephole optimisation passes.

Two cleanups that matter on NISQ devices (every removed gate is removed
noise): merging runs of adjacent single-qubit gates into one ``u`` gate, and
cancelling back-to-back identical CXs (the entanglement-assertion circuit's
two parity CNOTs cancel exactly when nothing sits between them — the
transpiler must *not* be allowed to do that across the ancilla measurement,
which holds because any operation on either wire in between blocks it).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, get_gate, u3_angles_from_unitary
from repro.circuits.instructions import Instruction
from repro.exceptions import TranspilerError


#: One piece of :func:`single_qubit_runs`: an instruction kept as it is, or
#: ``(qubit, run)`` for a run of 1-qubit gates merged into one.
Piece = Union[Instruction, Tuple[int, List[Instruction]]]


def merge_single_qubit_runs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Merge maximal runs of unconditioned 1-qubit gates per wire.

    Each run is multiplied into one matrix and re-emitted as the cheapest of
    u1/u2/u3 (identity runs are dropped entirely).
    """
    data: List[Instruction] = []
    for piece in single_qubit_runs(circuit.data):
        if isinstance(piece, Instruction):
            data.append(piece)
            continue
        qubit, run = piece
        merged = u_instruction_from_matrix(
            fold_matrices(inst.operation.matrix for inst in run), qubit
        )
        if merged is not None:
            data.append(merged)
    out = circuit.copy()
    out.data = data
    return out


def single_qubit_runs(data: Sequence[Instruction]) -> List[Piece]:
    """Split ``data`` into the pieces :func:`merge_single_qubit_runs` emits.

    The split reads only gate kinds, operands and conditions, never a
    matrix, so circuits that differ only in 1-qubit angles split alike.
    """
    pieces: List[Piece] = []
    pending: Dict[int, List[Instruction]] = {}  # qubit -> its open run

    def flush(qubit: int) -> None:
        run = pending.pop(qubit, None)
        if run is not None:
            pieces.append((qubit, run))

    for inst in data:
        op = inst.operation
        if isinstance(op, Gate) and op.num_qubits == 1 and inst.condition is None:
            pending.setdefault(inst.qubits[0], []).append(inst)
            continue
        for qubit in inst.qubits:
            flush(qubit)
        if inst.condition is not None:
            # Conditioned gates depend on classical state: flush everything
            # that could race with the conditioning bit's writers.
            for qubit in sorted(pending):
                flush(qubit)
        pieces.append(inst)
    for qubit in sorted(pending):
        flush(qubit)
    return pieces


def fold_matrices(matrices: Iterable[np.ndarray]) -> np.ndarray:
    """Return the product of a run's matrices, later gates on the left.

    The fold starts from the identity, so a replayed run reproduces a
    merged one bit for bit (a product with the identity turns a ``-0.0``
    entry into ``+0.0``, which a fold seeded with the first matrix keeps).
    """
    accumulated = np.eye(2, dtype=complex)
    for matrix in matrices:
        accumulated = matrix @ accumulated
    return accumulated


def u_instruction_from_matrix(matrix: np.ndarray, qubit: int) -> Optional[Instruction]:
    """Convert a 2x2 unitary into a u1/u2/u3 instruction (None if identity)."""
    theta, phi, lam, _ = u3_angles_from_unitary(matrix)
    two_pi = 2.0 * math.pi
    theta_mod = theta % two_pi
    phase_mod = (phi + lam) % two_pi
    is_identity = (
        math.isclose(theta_mod, 0.0, abs_tol=1e-10)
        or math.isclose(theta_mod, two_pi, abs_tol=1e-10)
    ) and (
        math.isclose(phase_mod, 0.0, abs_tol=1e-10)
        or math.isclose(phase_mod, two_pi, abs_tol=1e-10)
    )
    if is_identity:
        return None
    if math.isclose(theta_mod, 0.0, abs_tol=1e-10) or math.isclose(
        theta_mod, two_pi, abs_tol=1e-10
    ):
        return Instruction(get_gate("u1", (phase_mod,)), (qubit,))
    if math.isclose(theta_mod, math.pi / 2.0, abs_tol=1e-10):
        return Instruction(get_gate("u2", (phi % two_pi, lam % two_pi)), (qubit,))
    return Instruction(get_gate("u3", (theta, phi, lam)), (qubit,))


def cancel_adjacent_cx(circuit: QuantumCircuit) -> QuantumCircuit:
    """Cancel immediately-adjacent identical CX pairs.

    Two CXs cancel only if they share control and target and no other
    operation touches either wire in between (barriers block cancellation,
    which is how assertion circuits protect their parity CNOTs when the
    ancilla measurement must stay between them).
    """
    data = list(circuit.data)
    changed = True
    while changed:
        changed = False
        result: List[Instruction] = []
        index = 0
        while index < len(data):
            inst = data[index]
            if inst.name == "cx" and inst.condition is None:
                partner = _find_cancelling_partner(data, index)
                if partner is not None:
                    del data[partner]
                    del data[index]
                    changed = True
                    continue
            result.append(inst)
            index += 1
        if changed:
            data = [inst for inst in data]
        else:
            data = result
    out = circuit.copy()
    out.data = data
    return out


def _find_cancelling_partner(data: List[Instruction], index: int) -> Optional[int]:
    """Find a later identical CX with clean wires in between."""
    inst = data[index]
    wires = set(inst.qubits)
    for j in range(index + 1, len(data)):
        other = data[j]
        other_wires = set(other.qubits)
        if other.name == "cx" and other.condition is None and other.qubits == inst.qubits:
            return j
        if other_wires & wires:
            return None
        if other.name == "barrier" and other_wires & wires:
            return None
    return None
