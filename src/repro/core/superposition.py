"""Equal-superposition assertions (paper §3.3, Fig. 5) and the rotated-basis
generalisation.

The Fig. 5 gadget is CX(q -> anc), H on both, CX(q -> anc), measure the
ancilla.  Its algebra (re-derived numerically in the tests):

* q = |+>  ->  ancilla deterministically 0, q untouched;
* q = |->  ->  ancilla deterministically 1, q untouched;
* otherwise (real amplitudes a, b) -> P(ancilla=0) = (2 + 4ab)/4 and
  P(ancilla=1) = (2 - 4ab)/4, and **either way** the tested qubit is forced
  into an equal-magnitude superposition ``k|0> + k|1>``, |k| = 1/sqrt(2).
  A classical input (a or b = 0) therefore gives exactly 50 % assertion
  errors — the Fig. 7 experiment.

:func:`append_state_assertion` generalises the classical assertion to an
arbitrary known 1-qubit target state |phi> = U|0> by conjugating the CNOT
with U on the qubit under test (U = H recovers a |+> assertion, identity
recovers the classical assertion).  The paper sketches this direction via
its |+>/|-> pair; we implement the full rotation as the natural extension.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.core.types import AssertionKind, AssertionRecord, allocate_ancillas
from repro.exceptions import AssertionCircuitError


def append_superposition_assertion(
    circuit: QuantumCircuit,
    qubit: int,
    sign: str = "+",
    label: str = "",
) -> AssertionRecord:
    """Append the Fig. 5 equal-superposition assertion (in place).

    Parameters
    ----------
    circuit:
        The program being instrumented; gains one ancilla and one clbit.
    qubit:
        The qubit under test.
    sign:
        ``"+"`` asserts |+> (ancilla expected 0); ``"-"`` asserts |->
        (ancilla expected 1 — the same circuit distinguishes the two, so no
        extra gate is needed; the record's ``expected`` captures it).

    Returns
    -------
    AssertionRecord
    """
    if sign not in {"+", "-"}:
        raise AssertionCircuitError(f"sign must be '+' or '-', got {sign!r}")
    circuit.qubit_index(qubit)
    (ancilla,), (clbit,) = allocate_ancillas(circuit, "assert_sup")

    circuit.cx(qubit, ancilla)
    circuit.h(qubit)
    circuit.h(ancilla)
    circuit.cx(qubit, ancilla)
    circuit.measure(ancilla, clbit)

    return AssertionRecord(
        kind=AssertionKind.SUPERPOSITION,
        qubits=(qubit,),
        ancillas=(ancilla,),
        clbits=(clbit,),
        expected=(0,) if sign == "+" else (1,),
        label=label or f"superposition|{sign}>",
    )


def append_state_assertion(
    circuit: QuantumCircuit,
    qubit: int,
    theta: float,
    phi: float = 0.0,
    label: str = "",
) -> AssertionRecord:
    """Assert ``qubit`` equals ``cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>``.

    Rotated-basis generalisation of the classical assertion: apply the
    inverse preparation ``U^dagger`` (mapping the target state to |0>), run
    the Fig. 2 CNOT-ancilla check, then re-apply ``U``.  If the assertion
    holds, the qubit under test is returned to the target state exactly; a
    passing measurement on a wrong input *projects* the qubit onto the
    target state, mirroring the paper's auto-correction property.

    The error probability is ``1 - |<phi|psi>|^2``.

    Returns
    -------
    AssertionRecord
        ``kind`` is :attr:`AssertionKind.STATE`.
    """
    circuit.qubit_index(qubit)
    (ancilla,), (clbit,) = allocate_ancillas(circuit, "assert_st")

    # U = u3(theta, phi, 0) maps |0> to the target state; conjugate with it.
    circuit.u3(-theta, 0.0, -phi, qubit)  # U^dagger
    circuit.cx(qubit, ancilla)
    circuit.u3(theta, phi, 0.0, qubit)    # U
    circuit.measure(ancilla, clbit)

    return AssertionRecord(
        kind=AssertionKind.STATE,
        qubits=(qubit,),
        ancillas=(ancilla,),
        clbits=(clbit,),
        expected=(0,),
        label=label or f"state(theta={theta:.3f},phi={phi:.3f})",
    )


def superposition_error_probability(a: float, b: float) -> float:
    """Return the exact Fig. 5 assertion-error probability for real a, b.

    ``P(error) = (2 - 4ab) / 4`` with ``a^2 + b^2 = 1`` (paper §3.3).
    """
    norm = a * a + b * b
    if not math.isclose(norm, 1.0, abs_tol=1e-9):
        raise AssertionCircuitError(f"amplitudes not normalised: a^2+b^2 = {norm}")
    return (2.0 - 4.0 * a * b) / 4.0
