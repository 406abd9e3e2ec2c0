"""Assertion record types.

Every appended assertion yields an :class:`AssertionRecord` describing where
its ancilla lives and what classical bit carries its outcome.  The filtering
and estimation modules consume these records; they are the bookkeeping that
lets one circuit carry many assertions without the caller tracking bit
indices by hand.  :func:`allocate_ancillas` adds the registers a record
points at.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

from repro.exceptions import AssertionCircuitError

if TYPE_CHECKING:
    from repro.circuits.circuit import QuantumCircuit


class AssertionKind(enum.Enum):
    """The three assertion families of the paper, plus the generalisation."""

    CLASSICAL = "classical"
    ENTANGLEMENT = "entanglement"
    SUPERPOSITION = "superposition"
    STATE = "state"  # rotated-basis generalisation of CLASSICAL

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class AssertionRecord:
    """Bookkeeping for one appended assertion.

    Attributes
    ----------
    kind:
        Which assertion family this is.
    qubits:
        The qubits under test (flat indices in the instrumented circuit).
    ancillas:
        Ancilla qubit indices the assertion allocated (one for most
        assertions; pairwise entanglement assertions allocate several).
    clbits:
        Classical bits carrying the ancilla measurement outcomes, aligned
        with ``ancillas``.
    expected:
        Expected measured value per clbit when the assertion *holds*.  Per
        the paper's convention the ancilla is prepared so this is normally
        0 ("a measurement of the ancilla qubit being |1> means an assertion
        error"); the |-> superposition assertion uses 1.
    label:
        Human-readable name used in reports.
    """

    kind: AssertionKind
    qubits: Tuple[int, ...]
    ancillas: Tuple[int, ...]
    clbits: Tuple[int, ...]
    expected: Tuple[int, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.qubits:
            raise AssertionCircuitError("assertion must test at least one qubit")
        if len(self.ancillas) != len(self.clbits):
            raise AssertionCircuitError(
                f"{len(self.ancillas)} ancillas but {len(self.clbits)} clbits"
            )
        if len(self.expected) != len(self.clbits):
            raise AssertionCircuitError(
                f"{len(self.expected)} expected values but {len(self.clbits)} clbits"
            )
        if any(value not in (0, 1) for value in self.expected):
            raise AssertionCircuitError(
                f"expected values must be 0/1, got {self.expected}"
            )
        if not set(self.qubits).isdisjoint(self.ancillas):
            raise AssertionCircuitError(
                "ancilla qubits must be distinct from the qubits under test"
            )

    def passes(self, bitstring: str) -> bool:
        """Return True if this assertion holds in one measured shot.

        ``bitstring`` is the full classical-register readout (clbit 0
        leftmost).
        """
        return all(
            bitstring[clbit] == str(expected)
            for clbit, expected in zip(self.clbits, self.expected)
        )

    @property
    def num_ancillas(self) -> int:
        """Return the ancilla-qubit overhead of this assertion."""
        return len(self.ancillas)

    def describe(self) -> str:
        """Return a one-line human-readable description."""
        name = self.label or self.kind.value
        return (
            f"{name}: qubits={list(self.qubits)} ancillas={list(self.ancillas)} "
            f"clbits={list(self.clbits)} expected={list(self.expected)}"
        )


def allocate_ancillas(
    circuit: "QuantumCircuit", prefix: str, count: int = 1
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Add ``count`` ancilla qubits and ``count`` clbits for one assertion.

    The ancillas form the register ``<prefix><k>`` and the clbits the
    register ``<prefix><k>_m``, where ``k`` is the number of quantum
    registers whose name already starts with ``prefix`` (user registers
    included).  Both are appended at the end of the circuit's flat index
    space, so their indices are known by position.

    Returns
    -------
    (ancillas, clbits)
        The new qubit and clbit indices, in register order.
    """
    tag = f"{prefix}{circuit.count_qregs(prefix)}"
    first_qubit = circuit.num_qubits
    first_clbit = circuit.num_clbits
    circuit.add_qubits(count, name=tag)
    circuit.add_clbits(count, name=f"{tag}_m")
    return (
        tuple(range(first_qubit, first_qubit + count)),
        tuple(range(first_clbit, first_clbit + count)),
    )


def check_qubits(circuit: "QuantumCircuit", qubits: Sequence[int]) -> None:
    """Raise :class:`~repro.exceptions.CircuitError` unless every int in
    ``qubits`` is a qubit of ``circuit``.

    In-range lists cost one ``min`` and one ``max``; otherwise the first
    bad index raises the error :meth:`QuantumCircuit.qubit_index` gives.
    """
    if qubits and (min(qubits) < 0 or max(qubits) >= circuit.num_qubits):
        for qubit in qubits:
            circuit.qubit_index(qubit)
