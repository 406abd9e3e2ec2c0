"""Transpile templates: lower a circuit shape once, bind its angles per job.

Device lowering reads the parameters of 1-qubit gates in one place only.
Decomposition turns each such gate into exactly one u1/u2/u3 (which of
the three depends on the angle), and the passes after it -- layout,
routing, direction fixing and CX cancellation -- read gate names,
operands, conditions and wire overlap, never a parameter.  Those angles
therefore reach the output only through the matrices that
:func:`~repro.transpiler.optimize.merge_single_qubit_runs` folds, and
through the decomposed gates it leaves standing (conditioned ones, or all
of them when ``optimize=False``).

:class:`ShapeTemplate` runs the pipeline once with every angle gate
(:func:`~repro.circuits.circuit.is_angle_gate`) replaced by a placeholder,
then keeps the merged output with each 1-qubit run that holds no angle
gate already folded.  :meth:`ShapeTemplate.bind` rebuilds the output for
any circuit of the same shape
(:meth:`~repro.circuits.QuantumCircuit.shape_fingerprint`) by recomputing
only the pieces that hold an angle gate, with the same decomposition and
the same identity-seeded fold, so it equals
:func:`~repro.transpiler.passes.transpile_for_device` bit for bit.
"""

from __future__ import annotations

import itertools
from array import array
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit, is_angle_gate
from repro.circuits.gates import Gate
from repro.circuits.instructions import Instruction
from repro.devices.device import DeviceModel
from repro.transpiler.decompose import decompose_instruction
from repro.transpiler.layout import Layout
from repro.transpiler.optimize import (
    fold_matrices,
    single_qubit_runs,
    u_instruction_from_matrix,
)
from repro.transpiler.passes import PassManager, check_fits, device_pass_manager


class _Slot(Gate):
    """Placeholder for the ``index``-th angle gate during a template build.

    It is named like a basis gate, so decomposition passes it through
    unchanged, and it has no matrix: the build never multiplies it.
    """

    def __init__(self, index: int) -> None:
        super().__init__("u3", 1)
        self.index = index


class _Lone(NamedTuple):
    """An angle gate the output holds as decomposed, not merged."""

    slot: int
    qubit: int
    condition: Optional[Tuple[int, int]]


class _Run(NamedTuple):
    """A merged 1-qubit run that holds at least one angle gate."""

    qubit: int
    #: The fold of the run's fixed gates before its first angle gate.
    seed: np.ndarray
    #: The rest of the run in order: slot indices and fixed matrices.
    tail: tuple


def _angle_gates(circuit: QuantumCircuit) -> List[Instruction]:
    return [inst for inst in circuit.data if is_angle_gate(inst)]


def _angle_bytes(gates: Sequence[Instruction]) -> bytes:
    """The angles' exact bits (``-0.0`` and ``0.0`` differ)."""
    return array("d", [p for inst in gates for p in inst.operation.params]).tobytes()


class ShapeTemplate:
    """The device lowering of one circuit shape.

    Parameters are those of
    :func:`~repro.transpiler.passes.transpile_for_device`; ``circuit`` is
    the first circuit of the shape.

    Attributes
    ----------
    circuit:
        The lowering of the circuit the template was built from, returned
        as-is by :meth:`bind` for a circuit with the same angles.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        device: DeviceModel,
        layout: Optional[Layout] = None,
        optimize: bool = True,
    ) -> None:
        check_fits(circuit, device)
        self._basis = frozenset(g.lower() for g in device.basis_gates)
        slots = itertools.count()
        marked = circuit.copy()
        marked.data = [
            Instruction(_Slot(next(slots)), inst.qubits, (), inst.condition)
            if is_angle_gate(inst) else inst
            for inst in circuit.data
        ]
        passes = device_pass_manager(device, layout=layout, optimize=optimize).passes
        lowered = PassManager([p for p in passes if p.name != "merge_1q"]).run(marked)
        pieces = single_qubit_runs(lowered.data) if optimize else lowered.data
        self._pieces = [p for p in map(_template_piece, pieces) if p is not None]
        self._frame = lowered.copy()
        self._frame.data = []
        gates = _angle_gates(circuit)
        self._angles = _angle_bytes(gates)
        self.circuit = self._instantiate(gates, circuit.name)

    def bind(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Return the lowering of ``circuit``, a circuit of this shape."""
        gates = _angle_gates(circuit)
        if _angle_bytes(gates) == self._angles:
            return self.circuit
        return self._instantiate(gates, circuit.name)

    def _instantiate(self, gates: Sequence[Instruction], name: str) -> QuantumCircuit:
        ops = [decompose_instruction(inst, self._basis)[0].operation for inst in gates]
        data: List[Instruction] = []
        for piece in self._pieces:
            if isinstance(piece, _Run):
                matrix = piece.seed
                for entry in piece.tail:
                    if not isinstance(entry, np.ndarray):
                        entry = ops[entry].matrix
                    matrix = entry @ matrix
                piece = u_instruction_from_matrix(matrix, piece.qubit)
                if piece is None:
                    continue
            elif isinstance(piece, _Lone):
                piece = Instruction(ops[piece.slot], (piece.qubit,), (), piece.condition)
            data.append(piece)
        out = self._frame.copy(name=name)
        out.data = data
        return out


def _template_piece(piece):
    """Turn one merge piece of the placeholder lowering into a template
    piece: an output instruction, ``None`` for a dropped fixed run, a
    :class:`_Lone` or a :class:`_Run`."""
    if isinstance(piece, Instruction):
        op = piece.operation
        if isinstance(op, _Slot):
            return _Lone(op.index, piece.qubits[0], piece.condition)
        return piece
    qubit, run = piece
    slots = [i for i, inst in enumerate(run) if isinstance(inst.operation, _Slot)]
    if not slots:
        matrix = fold_matrices(inst.operation.matrix for inst in run)
        return u_instruction_from_matrix(matrix, qubit)
    first = slots[0]
    seed = fold_matrices(inst.operation.matrix for inst in run[:first])
    tail = tuple(
        inst.operation.index if isinstance(inst.operation, _Slot)
        else inst.operation.matrix
        for inst in run[first:]
    )
    return _Run(qubit, seed, tail)
