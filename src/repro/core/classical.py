"""Classical-value assertions (paper §3.1, Fig. 2).

One ancilla per asserted qubit: the ancilla is initialised to the asserted
value (|0> directly, |1> via an X gate), a CNOT from the qubit under test
XORs the qubit's value into it, and the ancilla is measured.  Measuring |1>
flags an assertion error.

Key property proven in the paper (and verified numerically in
``tests/core/test_classical.py``): if the qubit under test is erroneously in
a superposition ``a|0> + b|1>``, the ancilla measurement *projects* it —
passing shots leave the qubit exactly in the asserted classical state (the
circuit "auto-corrects"), and the error probability is ``|b|^2`` (asserting
|0>), so repeated runs estimate the corrupted amplitudes.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.circuits.circuit import QuantumCircuit
from repro.core.types import (
    AssertionKind,
    AssertionRecord,
    allocate_ancillas,
    check_qubits,
)
from repro.exceptions import AssertionCircuitError


def append_classical_assertion(
    circuit: QuantumCircuit,
    qubits: Union[int, Sequence[int]],
    values: Union[int, Sequence[int]] = 0,
    label: str = "",
) -> AssertionRecord:
    """Append a classical-value assertion to ``circuit`` (in place).

    Parameters
    ----------
    circuit:
        The program being instrumented; gains one ancilla qubit and one
        classical bit per asserted qubit.
    qubits:
        Qubit(s) under test.
    values:
        Asserted classical value(s); a scalar broadcasts over all qubits.
    label:
        Optional report label.

    Returns
    -------
    AssertionRecord
        Bookkeeping for filtering/estimation.  ``expected`` is all-zeros:
        measuring 1 on any ancilla clbit means the assertion failed.

    Notes
    -----
    The multi-qubit form asserts each qubit independently (one ancilla
    each); it does **not** assert joint correlation — use the entanglement
    assertion for that.
    """
    qubit_list = [qubits] if isinstance(qubits, int) else [int(q) for q in qubits]
    if not qubit_list:
        raise AssertionCircuitError("must assert at least one qubit")
    if len(set(qubit_list)) != len(qubit_list):
        raise AssertionCircuitError(f"duplicate qubits under test: {qubit_list}")
    if isinstance(values, int):
        value_list = [values] * len(qubit_list)
    else:
        value_list = [int(v) for v in values]
    if len(value_list) != len(qubit_list):
        raise AssertionCircuitError(
            f"{len(value_list)} values for {len(qubit_list)} qubits"
        )
    for value in value_list:
        if value not in (0, 1):
            raise AssertionCircuitError(f"asserted value must be 0 or 1, got {value}")
    check_qubits(circuit, qubit_list)

    count = len(qubit_list)
    ancilla_indices, clbit_indices = allocate_ancillas(circuit, "assert_cl", count)

    for qubit, value, ancilla, clbit in zip(
        qubit_list, value_list, ancilla_indices, clbit_indices
    ):
        if value == 1:
            # Ancilla initialised to |1>: after the CNOT it reads 1 XOR psi,
            # so measuring 1 still means "assertion error" (paper §3.1).
            circuit.x(ancilla)
        circuit.cx(qubit, ancilla)
        circuit.measure(ancilla, clbit)

    return AssertionRecord(
        kind=AssertionKind.CLASSICAL,
        qubits=tuple(qubit_list),
        ancillas=ancilla_indices,
        clbits=clbit_indices,
        expected=(0,) * count,
        label=label or f"classical=={''.join(str(v) for v in value_list)}",
    )
