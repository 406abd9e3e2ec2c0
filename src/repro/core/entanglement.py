"""Entanglement assertions (paper §3.2, Figs. 3-4).

The primitive is a **parity computation** into one ancilla: CNOTs from the
qubits under test XOR their values into the ancilla, which is then measured.
For a GHZ-type state ``a|0..0> + b|1..1>`` the parity over any *even-sized*
multiset of the tested qubits is 0 on both branches, so the ancilla
disentangles and deterministically reads the expected value; any odd-parity
component in the tested state shows up as an assertion error, and the
passing shots are projected back onto the even-parity (entangled) subspace.

The even-count requirement is the Fig. 4 subtlety: with an odd number of
CNOTs the ancilla stays entangled with the tested qubits, silently
corrupting the rest of the program.  :func:`append_parity_assertion`
enforces it; the ablation benchmark (experiment A1 in the README's
*Reproducing the paper* index) demonstrates what goes wrong without it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.core.types import (
    AssertionKind,
    AssertionRecord,
    allocate_ancillas,
    check_qubits,
)
from repro.exceptions import AssertionCircuitError


def append_parity_assertion(
    circuit: QuantumCircuit,
    sources: Sequence[int],
    expected_parity: int = 0,
    label: str = "",
    enforce_even: bool = True,
) -> AssertionRecord:
    """Append a single-ancilla parity assertion over ``sources``.

    Parameters
    ----------
    circuit:
        The program being instrumented; gains one ancilla and one clbit.
    sources:
        Qubits contributing a CNOT into the ancilla, **in order, repeats
        allowed** (a repeated qubit contributes twice and cancels — this is
        how Fig. 4 reaches an even gate count on three qubits).
    expected_parity:
        0 asserts the even-parity family (``a|0..0> + b|1..1>``); 1 asserts
        the odd-parity family (``a|01> + b|10>``).  Implemented per the
        paper by initialising the ancilla to |1> with an X gate, so a
        measured 1 always means "assertion error".
    enforce_even:
        Reject an odd number of CNOTs (the correctness requirement).  The
        A1 ablation sets this to ``False`` deliberately.

    Returns
    -------
    AssertionRecord
    """
    source_list = [int(q) for q in sources]
    if len(source_list) < 2:
        raise AssertionCircuitError("parity assertion needs at least two CNOTs")
    if enforce_even and len(source_list) % 2 != 0:
        raise AssertionCircuitError(
            f"parity assertion needs an even number of CNOTs, got "
            f"{len(source_list)} (see paper Fig. 4; repeat a qubit to pad, "
            "or pass enforce_even=False to study the failure mode)"
        )
    check_qubits(circuit, source_list)
    if expected_parity not in (0, 1):
        raise AssertionCircuitError(
            f"expected parity must be 0 or 1, got {expected_parity}"
        )

    (ancilla,), (clbit,) = allocate_ancillas(circuit, "assert_ent")

    if expected_parity == 1:
        circuit.x(ancilla)
    for qubit in source_list:
        circuit.cx(qubit, ancilla)
    circuit.measure(ancilla, clbit)

    return AssertionRecord(
        kind=AssertionKind.ENTANGLEMENT,
        qubits=tuple(dict.fromkeys(source_list)),
        ancillas=(ancilla,),
        clbits=(clbit,),
        expected=(0,),
        label=label or f"parity=={expected_parity}",
    )


def append_entanglement_assertion(
    circuit: QuantumCircuit,
    qubits: Sequence[int],
    expected_parity: int = 0,
    mode: str = "pairwise",
    label: str = "",
) -> List[AssertionRecord]:
    """Assert that ``qubits`` are entangled in a GHZ-type state.

    Parameters
    ----------
    circuit:
        The program being instrumented.
    qubits:
        Two or more distinct qubits under test.
    expected_parity:
        0 for ``a|0..0> + b|1..1>``; for two qubits, 1 for
        ``a|01> + b|10>`` (odd-parity GHZ families only make sense pairwise,
        so ``expected_parity=1`` requires exactly two qubits).
    mode:
        ``"pairwise"`` (default) checks every adjacent pair with its own
        ancilla — ``len(qubits) - 1`` parity assertions, which together pin
        the full GHZ stabilizer group's Z-sector.  ``"single"`` uses one
        ancilla in the Fig. 4 style: one CNOT per qubit, padded with a
        repeat of the last qubit when the count is odd (weaker — a single
        even-subset parity — but 1-ancilla cheap).

    Returns
    -------
    list of AssertionRecord
        One record per allocated ancilla.
    """
    qubit_list = [int(q) for q in qubits]
    if len(qubit_list) < 2:
        raise AssertionCircuitError("entanglement assertion needs >= 2 qubits")
    if len(set(qubit_list)) != len(qubit_list):
        raise AssertionCircuitError(f"duplicate qubits under test: {qubit_list}")
    if expected_parity not in (0, 1):
        raise AssertionCircuitError(
            f"expected parity must be 0 or 1, got {expected_parity}"
        )
    if expected_parity == 1 and len(qubit_list) != 2:
        raise AssertionCircuitError(
            "odd-parity entanglement assertion is defined for exactly 2 qubits"
        )
    if mode == "pairwise":
        records = []
        for left, right in zip(qubit_list, qubit_list[1:]):
            records.append(
                append_parity_assertion(
                    circuit,
                    [left, right],
                    expected_parity=expected_parity,
                    label=label or f"entangled({left},{right})",
                )
            )
        return records
    if mode == "single":
        sources = list(qubit_list)
        if len(sources) % 2 != 0:
            sources.append(sources[-1])  # Fig. 4: pad to an even CNOT count.
        record = append_parity_assertion(
            circuit,
            sources,
            expected_parity=expected_parity,
            label=label or f"entangled{tuple(qubit_list)}",
        )
        return [record]
    raise AssertionCircuitError(f"unknown entanglement-assertion mode {mode!r}")
