"""Extensions beyond the paper's three assertion circuits.

The paper's parity assertion checks the **Z-type** stabilizers of a
GHZ-family state; it is blind to *phase* errors (a Z flip maps
``|0..0> + |1..1>`` to ``|0..0> - |1..1>``, which has identical Z-parity).
Two natural extensions close that gap, both built from the same
ancilla-CNOT toolbox the paper introduces:

* :func:`append_phase_parity_assertion` — the X-basis counterpart of
  Figs. 3-4: conjugate the parity CNOTs with Hadamards on the qubits under
  test, so the ancilla accumulates the X-parity.  For a GHZ state the
  X-parity of *all* qubits is deterministically even (the ``X..X``
  stabilizer), so the ancilla disentangles for **any** qubit count — the
  even-CNOT-count rule of Fig. 4 is specific to the Z-type check, where the
  two GHZ branches have different parities.  Combined with the paper's
  pairwise Z-parity checks this pins the complete GHZ stabilizer group:
  :func:`append_ghz_assertion`.

* :func:`append_equality_assertion` — a swap-test ancilla asserting two
  qubits hold the *same* (unknown) state; P(error) = (1 - |<a|b>|^2)/2.
  Unlike the paper's assertions this one is probabilistic even on a
  correct program only when the states differ; equal states never trip it.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.core.types import (
    AssertionKind,
    AssertionRecord,
    allocate_ancillas,
    check_qubits,
)
from repro.exceptions import AssertionCircuitError


def append_phase_parity_assertion(
    circuit: QuantumCircuit,
    qubits: Sequence[int],
    expected_parity: int = 0,
    label: str = "",
) -> AssertionRecord:
    """Append an X-basis parity assertion over ``qubits`` (in place).

    Checks the ``X..X`` stabilizer of a GHZ-family state: Hadamards rotate
    each tested qubit into the X basis, the parity CNOTs run, and the
    Hadamards rotate back.  A phase flip anywhere in ``|0..0> + |1..1>``
    (turning it into the minus state) makes the ancilla read 1
    deterministically — the error class the paper's Z-parity circuit cannot
    see.

    Parameters
    ----------
    circuit:
        The program being instrumented; gains one ancilla and one clbit.
    qubits:
        Distinct qubits under test (any count >= 2; no even-count rule
        here — see the module docstring).
    expected_parity:
        0 asserts ``|0..0> + |1..1>``; 1 asserts ``|0..0> - |1..1>``
        (implemented with an ancilla X so measuring 1 still means error).

    Returns
    -------
    AssertionRecord
    """
    qubit_list = [int(q) for q in qubits]
    if len(qubit_list) < 2:
        raise AssertionCircuitError("phase-parity assertion needs >= 2 qubits")
    if len(set(qubit_list)) != len(qubit_list):
        raise AssertionCircuitError(f"duplicate qubits under test: {qubit_list}")
    if expected_parity not in (0, 1):
        raise AssertionCircuitError(
            f"expected parity must be 0 or 1, got {expected_parity}"
        )
    check_qubits(circuit, qubit_list)

    (ancilla,), (clbit,) = allocate_ancillas(circuit, "assert_xp")

    if expected_parity == 1:
        circuit.x(ancilla)
    for qubit in qubit_list:
        circuit.h(qubit)
    for qubit in qubit_list:
        circuit.cx(qubit, ancilla)
    for qubit in qubit_list:
        circuit.h(qubit)
    circuit.measure(ancilla, clbit)

    return AssertionRecord(
        kind=AssertionKind.ENTANGLEMENT,
        qubits=tuple(qubit_list),
        ancillas=(ancilla,),
        clbits=(clbit,),
        expected=(0,),
        label=label or f"xparity=={expected_parity}",
    )


def append_ghz_assertion(
    circuit: QuantumCircuit,
    qubits: Sequence[int],
    label: str = "",
) -> List[AssertionRecord]:
    """Assert the **complete** GHZ stabilizer group of ``qubits``.

    Combines the paper's pairwise Z-parity checks (``Z_i Z_{i+1}``, n-1
    ancillas) with one X-parity check (``X..X``, 1 ancilla).  A state passes
    all n checks deterministically iff it *is* the GHZ state
    ``(|0..0> + |1..1>)/sqrt(2)`` — bit flips trip a Z-pair, phase flips
    trip the X check.

    Returns
    -------
    list of AssertionRecord (n records for n tested qubits).
    """
    from repro.core.entanglement import append_entanglement_assertion

    qubit_list = [int(q) for q in qubits]
    records = append_entanglement_assertion(
        circuit, qubit_list, mode="pairwise", label=label
    )
    records.append(
        append_phase_parity_assertion(
            circuit, qubit_list, label=label or f"xparity{tuple(qubit_list)}"
        )
    )
    return records


def append_equality_assertion(
    circuit: QuantumCircuit,
    qubit_a: int,
    qubit_b: int,
    label: str = "",
) -> AssertionRecord:
    """Append a swap-test assertion that two qubits hold equal states.

    Circuit: H on the ancilla, CSWAP(ancilla; a, b), H, measure.  The
    ancilla reads 1 with probability ``(1 - |<a|b>|^2)/2``: equal states
    never trip it; orthogonal states trip it half the time (repeat runs to
    amplify confidence, as with the paper's superposition statistics).

    Unlike the CNOT-based assertions the swap test compares two *unknown*
    states — useful for checking that a state-preparation routine is
    deterministic, or that an ancilla-assisted copy (of a known basis
    state) succeeded.

    Returns
    -------
    AssertionRecord
        ``kind`` is :attr:`AssertionKind.STATE`.
    """
    a = circuit.qubit_index(qubit_a)
    b = circuit.qubit_index(qubit_b)
    if a == b:
        raise AssertionCircuitError("equality assertion needs two distinct qubits")

    (ancilla,), (clbit,) = allocate_ancillas(circuit, "assert_eq")

    circuit.h(ancilla)
    circuit.cswap(ancilla, a, b)
    circuit.h(ancilla)
    circuit.measure(ancilla, clbit)

    return AssertionRecord(
        kind=AssertionKind.STATE,
        qubits=(a, b),
        ancillas=(ancilla,),
        clbits=(clbit,),
        expected=(0,),
        label=label or f"equal({a},{b})",
    )
