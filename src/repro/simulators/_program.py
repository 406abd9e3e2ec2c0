"""The compiled noisy program both noisy engines walk.

:func:`build_program` lowers a prepared circuit and its noise model once
per run to a flat step list.  Every step carries what its engine needs,
so neither the density-matrix engine nor the batched trajectory walker
re-derives structure per branch or per shot:

* ``(GATE, matrix, qubits, channels, condition)`` — the gate's matrix,
  its operand tuple and the ``(kraus_operators, targets)`` channels the
  noise model attaches to it, applied in order after the gate;
* ``(MEASURE, qubit, clbit, confusion, condition)`` — ``confusion`` is the
  readout matrix (``confusion[r][m] = P(recorded r | true m)``) or
  ``None``;
* ``(RESET, qubit, condition)``.

``condition`` is the instruction's ``(clbit, value)`` pair or ``None``.
The noise model is queried exactly once per instruction, so a duck-typed
model sees one ``channels_for`` call per gate per run.
"""

from __future__ import annotations

from typing import List

from repro.circuits.gates import Gate
from repro.exceptions import SimulationError

GATE = "gate"
MEASURE = "measure"
RESET = "reset"


def build_program(circuit, noise_model) -> List[tuple]:
    """Compile ``circuit.data`` under ``noise_model`` to a flat step list.

    Barriers are dropped.  Raises on non-gate unitaries at compile time,
    whether or not a run would reach them.
    """
    steps: List[tuple] = []
    for inst in circuit.data:
        if inst.name == "barrier":
            continue
        condition = inst.condition
        if inst.name == "measure":
            qubit, clbit = inst.qubits[0], inst.clbits[0]
            confusion = (
                noise_model.readout_confusion(qubit)
                if noise_model is not None
                else None
            )
            steps.append((MEASURE, qubit, clbit, confusion, condition))
        elif inst.name == "reset":
            steps.append((RESET, inst.qubits[0], condition))
        else:
            op = inst.operation
            if not isinstance(op, Gate):
                raise SimulationError(f"cannot apply non-gate {op.name!r}")
            channels = ()
            if noise_model is not None:
                channels = tuple(
                    (tuple(kraus), tuple(targets))
                    for kraus, targets in noise_model.channels_for(inst)
                )
            steps.append((GATE, op.matrix, tuple(inst.qubits), channels, condition))
    return steps
