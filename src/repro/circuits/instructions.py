"""Circuit instructions: an operation bound to concrete bit indices.

An :class:`Instruction` is the unit stored in a
:class:`~repro.circuits.QuantumCircuit`'s data list.  Bits are referenced by
flat integer index into the circuit's qubit/clbit space, which keeps the
simulators and transpiler simple; registers only matter at construction and
printing time.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.circuits.gates import Operation
from repro.exceptions import CircuitError


class Instruction:
    """An operation applied to specific qubits/clbits.

    Operands are validated once, here, against the operation alone: each
    index is converted with ``int``, the qubit and clbit counts must match
    the operation's, the qubits must be distinct, and a condition value
    must be 0 or 1.  Whether an index lies inside a circuit is the
    circuit's check, made when :meth:`QuantumCircuit.append
    <repro.circuits.QuantumCircuit.append>` or
    :meth:`~repro.circuits.QuantumCircuit.measure` resolves the operands
    (an instruction does not know its circuit's size).

    Parameters
    ----------
    operation:
        The :class:`~repro.circuits.gates.Operation` to apply.
    qubits:
        Flat qubit indices the operation acts on, in operand order.
    clbits:
        Flat classical-bit indices (measurements only).
    condition:
        Optional ``(clbit_index, value)`` pair: the operation executes only
        when the given classical bit currently holds ``value`` (0 or 1).
    """

    __slots__ = ("operation", "qubits", "clbits", "condition")

    def __init__(
        self,
        operation: Operation,
        qubits: Sequence[int],
        clbits: Sequence[int] = (),
        condition: Optional[Tuple[int, int]] = None,
    ) -> None:
        qubits = tuple(map(int, qubits))
        clbits = tuple(map(int, clbits))
        if len(qubits) != operation.num_qubits:
            raise CircuitError(
                f"operation {operation.name!r} expects {operation.num_qubits} "
                f"qubit(s), got {len(qubits)}"
            )
        if len(clbits) != operation.num_clbits:
            raise CircuitError(
                f"operation {operation.name!r} expects {operation.num_clbits} "
                f"clbit(s), got {len(clbits)}"
            )
        count = len(qubits)
        if count > 1 and (
            qubits[0] == qubits[1] if count == 2 else len(set(qubits)) != count
        ):
            raise CircuitError(
                f"duplicate qubit operands {qubits} for {operation.name!r}"
            )
        if condition is not None:
            clbit, value = condition
            if value not in (0, 1):
                raise CircuitError(f"condition value must be 0 or 1, got {value}")
            condition = (int(clbit), int(value))
        self.operation = operation
        self.qubits = qubits
        self.clbits = clbits
        self.condition = condition

    @property
    def name(self) -> str:
        """Return the operation name."""
        return self.operation.name

    def remap(
        self,
        qubit_map: Sequence[int],
        clbit_map: Sequence[int],
    ) -> "Instruction":
        """Return a copy with bit indices translated through the given maps.

        ``qubit_map[i]`` is the new index of old qubit ``i`` (same for
        clbits).  Used by :meth:`QuantumCircuit.compose` and the transpiler's
        layout pass.
        """
        new_qubits = tuple(qubit_map[q] for q in self.qubits)
        new_clbits = tuple(clbit_map[c] for c in self.clbits)
        new_condition = None
        if self.condition is not None:
            new_condition = (clbit_map[self.condition[0]], self.condition[1])
        return Instruction(self.operation, new_qubits, new_clbits, new_condition)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instruction):
            return NotImplemented
        return (
            self.operation == other.operation
            and self.qubits == other.qubits
            and self.clbits == other.clbits
            and self.condition == other.condition
        )

    def __hash__(self) -> int:
        return hash((self.operation, self.qubits, self.clbits, self.condition))

    def __repr__(self) -> str:
        parts = [f"{self.operation.name}", f"qubits={list(self.qubits)}"]
        if self.clbits:
            parts.append(f"clbits={list(self.clbits)}")
        if self.condition is not None:
            parts.append(f"if c[{self.condition[0]}]=={self.condition[1]}")
        return f"Instruction({', '.join(parts)})"
