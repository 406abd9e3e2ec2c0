"""The :class:`AssertionInjector`: instrument a program with assertions.

The injector owns a copy of the user's circuit and a growing list of
:class:`~repro.core.types.AssertionRecord` objects.  Because the assertion
gadgets allocate their own ancilla registers, program qubit/clbit indices
are never disturbed — assertions can be layered mid-program, and the final
computation's measurements added afterwards, exactly the "keep the program
running" usage the paper argues for.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.circuits.circuit import QuantumCircuit
from repro.core.classical import append_classical_assertion
from repro.core.entanglement import (
    append_entanglement_assertion,
    append_parity_assertion,
)
from repro.core.superposition import (
    append_state_assertion,
    append_superposition_assertion,
)
from repro.core.types import AssertionRecord
from repro.exceptions import AssertionCircuitError


class AssertionInjector:
    """Accumulates dynamic assertions on a copy of a program.

    Parameters
    ----------
    program:
        The circuit to instrument; it is copied, never mutated.

    Examples
    --------
    >>> from repro.circuits import library
    >>> injector = AssertionInjector(library.bell_pair())
    >>> _ = injector.assert_entangled([0, 1])
    >>> injector.circuit.num_qubits   # program qubits + 1 ancilla
    3
    """

    def __init__(self, program: QuantumCircuit) -> None:
        self.program = program
        self.circuit = program.copy(name=f"{program.name}+assertions")
        self.records: List[AssertionRecord] = []
        self._program_qubits = program.num_qubits
        self._program_clbits = program.num_clbits

    # ------------------------------------------------------------------
    # Assertion entry points
    # ------------------------------------------------------------------

    def assert_classical(
        self,
        qubits: Union[int, Sequence[int]],
        values: Union[int, Sequence[int]] = 0,
        label: str = "",
    ) -> AssertionRecord:
        """Assert qubit(s) hold classical value(s) (paper §3.1)."""
        record = append_classical_assertion(self.circuit, qubits, values, label)
        self.records.append(record)
        return record

    def assert_entangled(
        self,
        qubits: Sequence[int],
        expected_parity: int = 0,
        mode: str = "pairwise",
        label: str = "",
    ) -> List[AssertionRecord]:
        """Assert qubits form a GHZ-type entangled state (paper §3.2)."""
        records = append_entanglement_assertion(
            self.circuit, qubits, expected_parity, mode, label
        )
        self.records.extend(records)
        return records

    def assert_parity(
        self,
        sources: Sequence[int],
        expected_parity: int = 0,
        label: str = "",
        enforce_even: bool = True,
    ) -> AssertionRecord:
        """Assert the parity of an even multiset of qubits (Figs. 3-4)."""
        record = append_parity_assertion(
            self.circuit, sources, expected_parity, label, enforce_even
        )
        self.records.append(record)
        return record

    def assert_superposition(
        self, qubit: int, sign: str = "+", label: str = ""
    ) -> AssertionRecord:
        """Assert a qubit is in the |+> (or |->) state (paper §3.3)."""
        record = append_superposition_assertion(self.circuit, qubit, sign, label)
        self.records.append(record)
        return record

    def assert_uniform(self, qubits: Sequence[int]) -> List[AssertionRecord]:
        """Assert every listed qubit is in |+> (post-Hadamard layer check)."""
        return [self.assert_superposition(int(q)) for q in qubits]

    def assert_state(
        self, qubit: int, theta: float, phi: float = 0.0, label: str = ""
    ) -> AssertionRecord:
        """Assert a qubit equals an arbitrary known pure state (extension)."""
        record = append_state_assertion(self.circuit, qubit, theta, phi, label)
        self.records.append(record)
        return record

    def assert_phase_parity(
        self, qubits: Sequence[int], expected_parity: int = 0, label: str = ""
    ) -> AssertionRecord:
        """Assert the X-basis (phase) parity of qubits (extension)."""
        from repro.core.extensions import append_phase_parity_assertion

        record = append_phase_parity_assertion(
            self.circuit, qubits, expected_parity, label
        )
        self.records.append(record)
        return record

    def assert_ghz(
        self, qubits: Sequence[int], label: str = ""
    ) -> List[AssertionRecord]:
        """Assert the complete GHZ stabilizer group (extension)."""
        from repro.core.extensions import append_ghz_assertion

        records = append_ghz_assertion(self.circuit, qubits, label)
        self.records.extend(records)
        return records

    def assert_equal(
        self, qubit_a: int, qubit_b: int, label: str = ""
    ) -> AssertionRecord:
        """Assert two qubits hold the same state via a swap test (extension)."""
        from repro.core.extensions import append_equality_assertion

        record = append_equality_assertion(self.circuit, qubit_a, qubit_b, label)
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Program continuation
    # ------------------------------------------------------------------

    def apply(self, continuation: QuantumCircuit) -> "AssertionInjector":
        """Append more program (acting on the *original* program bits).

        This is how a program interleaves computation and assertions:
        build a prefix, assert, then ``apply`` the next stage.
        """
        if continuation.num_qubits > self._program_qubits:
            raise AssertionCircuitError(
                f"continuation uses {continuation.num_qubits} qubits but the "
                f"program has {self._program_qubits}"
            )
        if continuation.num_clbits > self._program_clbits:
            raise AssertionCircuitError(
                f"continuation uses {continuation.num_clbits} clbits but the "
                f"program has {self._program_clbits}"
            )
        self.circuit.compose(
            continuation,
            qubits=list(range(continuation.num_qubits)),
            clbits=list(range(continuation.num_clbits)) or None,
        )
        return self

    def measure_program(self, qubits: Optional[Sequence[int]] = None) -> List[int]:
        """Measure program qubits into fresh clbits; returns clbit indices.

        Call after all assertions so the final readout register sits at the
        end — the assertion bits and result bits stay cleanly separated.
        """
        targets = (
            list(range(self._program_qubits))
            if qubits is None
            else [int(q) for q in qubits]
        )
        for qubit in targets:
            if not 0 <= qubit < self._program_qubits:
                raise AssertionCircuitError(
                    f"qubit {qubit} is not a program qubit "
                    f"(program has {self._program_qubits})"
                )
        first = self.circuit.num_clbits
        self.circuit.add_clbits(len(targets), name=f"result{len(self.circuit.cregs)}")
        clbits = list(range(first, self.circuit.num_clbits))
        for qubit, clbit in zip(targets, clbits):
            self.circuit.measure(qubit, clbit)
        return clbits

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def assertion_clbits(self) -> List[int]:
        """Return all classical bits owned by assertions."""
        out: List[int] = []
        for record in self.records:
            out.extend(record.clbits)
        return sorted(out)

    @property
    def num_ancillas(self) -> int:
        """Return the total ancilla-qubit overhead."""
        return sum(record.num_ancillas for record in self.records)

    def overhead(self) -> dict:
        """Return the instrumentation cost vs the bare program."""
        bare = self.program
        inst = self.circuit
        return {
            "extra_qubits": inst.num_qubits - bare.num_qubits,
            "extra_clbits": inst.num_clbits - bare.num_clbits,
            "extra_gates": inst.size() - bare.size(),
            "extra_cx": inst.num_two_qubit_gates() - bare.num_two_qubit_gates(),
            "depth_ratio": (inst.depth() / bare.depth()) if bare.depth() else float("inf"),
            "num_assertions": len(self.records),
        }

    def __repr__(self) -> str:
        return (
            f"AssertionInjector(program={self.program.name!r}, "
            f"assertions={len(self.records)}, ancillas={self.num_ancillas})"
        )
