"""Statistical-assertion baseline (Huang & Martonosi, ISCA'19).

The prior-art approach the paper improves on: *truncate* the program at the
assertion point, measure the qubits under test directly across many shots,
and run a statistical hypothesis test on the resulting histogram.  Its two
structural costs — each assertion point needs its own batch of executions,
and the program cannot continue past the measurement — are exactly what the
dynamic assertion circuits remove.  The comparison benchmark (experiment
A3 in the README's *Reproducing the paper* index) quantifies both costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.analysis.statistics import (
    chi_square_contingency,
    chi_square_goodness_of_fit,
)
from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import AssertionCircuitError
from repro.results.counts import Counts


@dataclass(frozen=True)
class StatisticalAssertionOutcome:
    """Result of one statistical assertion.

    Attributes
    ----------
    passed:
        Whether the hypothesis test accepted the asserted property.
    p_value:
        Test p-value (small = evidence *against* the asserted property for
        goodness-of-fit; small = evidence *for* correlation in the
        entanglement test — see each function's docstring).
    statistic:
        The chi-square statistic.
    counts:
        The measured histogram the decision was based on.
    executions:
        Shots consumed (each statistical assertion costs a dedicated batch).
    halted_program:
        Always ``True``: the measurement truncates the program — recorded
        explicitly so overhead comparisons can count restarts.
    """

    passed: bool
    p_value: float
    statistic: float
    counts: Counts
    executions: int
    halted_program: bool = True


def _truncated_measurement_circuit(
    program: QuantumCircuit, qubits: Sequence[int], basis: str = "z"
) -> QuantumCircuit:
    """Copy the program and measure ``qubits`` (in ``basis``) at its end."""
    circuit = program.copy(name=f"{program.name}_stat_assert")
    reg = circuit.add_clbits(len(qubits), name=f"stat{len(circuit.cregs)}")
    for offset, qubit in enumerate(qubits):
        if basis == "x":
            circuit.h(qubit)
        elif basis == "y":
            circuit.sdg(qubit)
            circuit.h(qubit)
        elif basis != "z":
            raise AssertionCircuitError(f"unknown measurement basis {basis!r}")
        circuit.measure(qubit, reg[offset])
    return circuit


def _stat_bits(counts: Counts, num_qubits: int) -> Counts:
    """Marginalise a histogram to its trailing statistical-assertion bits."""
    width = counts.num_bits
    return counts.marginal(list(range(width - num_qubits, width)))


def statistical_classical_assertion(
    backend,
    program: QuantumCircuit,
    qubit: int,
    value: int,
    shots: int = 1024,
    alpha: float = 0.05,
    seed: Optional[int] = None,
) -> StatisticalAssertionOutcome:
    """Test that ``qubit`` holds the classical ``value`` at program end.

    Measures the qubit directly over ``shots`` executions and runs a
    goodness-of-fit test against the point distribution.  ``passed`` is
    ``True`` when the test cannot reject the asserted value at level
    ``alpha``.
    """
    if value not in (0, 1):
        raise AssertionCircuitError(f"asserted value must be 0 or 1, got {value}")
    circuit = _truncated_measurement_circuit(program, [qubit])
    result = backend.run(circuit, shots=shots, seed=seed)
    counts = _stat_bits(result.counts, 1)
    expected = {"0": 1.0, "1": 0.0} if value == 0 else {"0": 0.0, "1": 1.0}
    statistic, p_value = chi_square_goodness_of_fit(counts, expected)
    return StatisticalAssertionOutcome(
        passed=p_value > alpha,
        p_value=p_value,
        statistic=statistic,
        counts=counts,
        executions=shots,
    )


def statistical_superposition_assertion(
    backend,
    program: QuantumCircuit,
    qubit: int,
    shots: int = 1024,
    alpha: float = 0.05,
    seed: Optional[int] = None,
) -> StatisticalAssertionOutcome:
    """Test that ``qubit`` is in the uniform superposition.

    Z-basis measurement of |+> gives the uniform distribution, so the test
    is goodness-of-fit against 50/50.  Note the structural weakness the
    paper exploits: |-> (and any equal-magnitude superposition with the
    wrong *phase*) also passes, because Z-basis statistics cannot see the
    phase.  The dynamic Fig. 5 circuit distinguishes |+> from |->
    deterministically.  (Huang & Martonosi address this with multi-basis
    tomography at further execution cost; see
    :mod:`repro.analysis.tomography`.)
    """
    circuit = _truncated_measurement_circuit(program, [qubit])
    result = backend.run(circuit, shots=shots, seed=seed)
    counts = _stat_bits(result.counts, 1)
    statistic, p_value = chi_square_goodness_of_fit(
        counts, {"0": 0.5, "1": 0.5}
    )
    return StatisticalAssertionOutcome(
        passed=p_value > alpha,
        p_value=p_value,
        statistic=statistic,
        counts=counts,
        executions=shots,
    )


def statistical_entanglement_assertion(
    backend,
    program: QuantumCircuit,
    qubits: Tuple[int, int],
    shots: int = 1024,
    alpha: float = 0.05,
    seed: Optional[int] = None,
) -> StatisticalAssertionOutcome:
    """Test that two qubits are correlated (entanglement evidence).

    Chi-square contingency test on the 2x2 outcome table; ``passed`` is
    ``True`` when independence **is rejected** at level ``alpha`` (the
    qubits show the correlation an entangled state implies).  As Huang &
    Martonosi note, classical correlation also passes — correlation is a
    necessary, not sufficient, signature.
    """
    pair = (int(qubits[0]), int(qubits[1]))
    circuit = _truncated_measurement_circuit(program, list(pair))
    result = backend.run(circuit, shots=shots, seed=seed)
    counts = _stat_bits(result.counts, 2)
    statistic, p_value = chi_square_contingency(counts, 0, 1)
    return StatisticalAssertionOutcome(
        passed=p_value < alpha,
        p_value=p_value,
        statistic=statistic,
        counts=counts,
        executions=shots,
    )
