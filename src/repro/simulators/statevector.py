"""Exact pure-state (statevector) simulation.

The engine supports the full instruction set: gates, mid-circuit measurement,
reset, barriers and classically conditioned gates.  Measurement is handled by
**branch enumeration**: instead of sampling per shot, the simulator tracks
every classical-outcome branch ``(probability, classical bits, statevector)``
exactly, then samples the final shot histogram from the exact branch
distribution.  This is both faster than per-shot reruns and gives the
experiments exact probabilities (the paper's QUIRK verifications in Figs. 6-7
rely on exact post-selected states).

For circuits with many measurements the branch count can grow as ``2^m``; the
engine falls back to per-shot Monte-Carlo simulation above ``max_branches``
branches.  The fallback runs through the shared batch-axis machinery
(:mod:`repro.simulators._batched`): all shots of a ``max_batch`` tile evolve
together, each drawing from its own counter range of the run's one
Philox key, so the counts are bit-identical for a fixed seed at every
tiling.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.circuits.instructions import Instruction
from repro.exceptions import SimulationError
from repro.results.counts import Counts, counts_from_probabilities
from repro.results.result import Result
from repro.simulators import _batched, _kernels


class Statevector:
    """A normalised pure state on ``num_qubits`` qubits.

    Thin convenience wrapper used by tests and analysis code; the simulator
    itself works on raw tensors for speed.
    """

    def __init__(self, data: np.ndarray, num_qubits: Optional[int] = None) -> None:
        data = np.asarray(data, dtype=complex).reshape(-1)
        dim = data.shape[0]
        inferred = int(np.log2(dim)) if dim else 0
        if 2 ** inferred != dim:
            raise SimulationError(f"statevector length {dim} is not a power of two")
        if num_qubits is not None and num_qubits != inferred:
            raise SimulationError(
                f"statevector length {dim} does not match {num_qubits} qubits"
            )
        norm = np.linalg.norm(data)
        if abs(norm - 1.0) > 1e-8:
            raise SimulationError(f"statevector is not normalised (|psi| = {norm})")
        self.data = data
        self.num_qubits = inferred

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a product state from a label over ``01+-rl`` characters.

        ``r``/``l`` denote the +i / -i eigenstates of Y.
        """
        single = {
            "0": np.array([1, 0], dtype=complex),
            "1": np.array([0, 1], dtype=complex),
            "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
            "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
            "r": np.array([1, 1j], dtype=complex) / np.sqrt(2),
            "l": np.array([1, -1j], dtype=complex) / np.sqrt(2),
        }
        state = np.array([1.0 + 0.0j])
        for char in label:
            if char not in single:
                raise SimulationError(f"unknown state label character {char!r}")
            state = np.kron(state, single[char])
        return cls(state)

    def probabilities(self) -> Dict[str, float]:
        """Return basis-state probabilities keyed by bitstring."""
        probs = np.abs(self.data) ** 2
        return {
            _kernels.basis_label(i, self.num_qubits): float(p)
            for i, p in enumerate(probs)
            if p > 1e-14
        }

    def equiv(self, other: "Statevector", atol: float = 1e-8) -> bool:
        """Return ``True`` if equal to ``other`` up to global phase."""
        inner = np.vdot(self.data, other.data)
        return bool(abs(abs(inner) - 1.0) < atol)

    def __repr__(self) -> str:
        terms = []
        for i, amp in enumerate(self.data):
            if abs(amp) > 1e-12:
                terms.append(f"({amp:.4g})|{_kernels.basis_label(i, self.num_qubits)}>")
        return " + ".join(terms) if terms else "0"


class _Branch:
    """One classical-outcome branch during simulation."""

    __slots__ = ("probability", "clbits", "state")

    def __init__(
        self, probability: float, clbits: List[int], state: np.ndarray
    ) -> None:
        self.probability = probability
        self.clbits = clbits
        self.state = state


class StatevectorSimulator:
    """Exact statevector engine.

    Parameters
    ----------
    max_branches:
        Branch-enumeration cap; circuits whose measurement tree exceeds this
        fall back to per-shot sampling.
    max_batch:
        Shot-tiling bound of the per-shot fallback (see
        :mod:`repro.simulators._batched`); fallback counts are
        bit-identical across tilings for a fixed seed.
    """

    name = "statevector"

    def __init__(
        self,
        max_branches: int = 4096,
        max_batch: int = _batched.DEFAULT_MAX_BATCH,
    ) -> None:
        if max_branches < 1:
            raise SimulationError("max_branches must be positive")
        self.max_branches = max_branches
        self.max_batch = _batched.validate_max_batch(max_batch)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        seed: Optional[int] = None,
        initial_state: Optional[np.ndarray] = None,
    ) -> Result:
        """Execute ``circuit`` and return a :class:`Result`.

        The result's ``probabilities`` field holds the exact classical
        distribution whenever branch enumeration succeeded; ``counts`` holds
        a multinomial sample of ``shots`` from it.  With no measurements the
        result carries the final statevector.
        """
        rng = np.random.default_rng(seed)
        branches = self._try_enumerate(circuit, initial_state)
        if branches is not None:
            probabilities = self._branch_distribution(circuit, branches)
            counts = (
                counts_from_probabilities(probabilities, shots, rng)
                if probabilities
                else Counts()
            )
            statevector = None
            if len(branches) == 1:
                statevector = _kernels.flatten(branches[0].state).copy()
            return Result(
                counts=counts,
                shots=shots,
                statevector=statevector,
                probabilities=probabilities or None,
                metadata={"engine": self.name, "method": "branch", "seed": seed},
            )
        counts_dict = _batched.sample_shots(
            circuit, None, shots, seed, initial_state, max_batch=self.max_batch
        )
        return Result(
            counts=Counts(counts_dict),
            shots=shots,
            metadata={
                "engine": self.name,
                "method": "per-shot",
                "max_batch": self.max_batch,
                "seed": seed,
            },
        )

    def final_statevector(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray] = None,
    ) -> Statevector:
        """Return the final state of a measurement-free circuit.

        Raises
        ------
        SimulationError
            If the circuit contains measurement, reset or conditionals.
        """
        state = _kernels.state_tensor(circuit.num_qubits, initial_state)
        for inst in circuit.data:
            if inst.name == "barrier":
                continue
            if inst.name in {"measure", "reset"} or inst.condition is not None:
                raise SimulationError(
                    "final_statevector requires a purely unitary circuit; "
                    f"found {inst.name!r} (use run() or branches() instead)"
                )
            state = self._apply_gate(state, inst)
        return Statevector(_kernels.flatten(state))

    def branches(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray] = None,
    ) -> List[Tuple[float, str, Statevector]]:
        """Return all measurement branches as ``(prob, clbit string, state)``.

        This is the exact-analysis workhorse: the Fig. 6 / Fig. 7
        reproductions inspect the post-measurement state of the qubit under
        test conditioned on the assertion ancilla's outcome.
        """
        enumerated = self._try_enumerate(circuit, initial_state)
        if enumerated is None:
            raise SimulationError(
                f"circuit exceeds the branch cap ({self.max_branches}); "
                "raise max_branches to enumerate it"
            )
        out: List[Tuple[float, str, Statevector]] = []
        for branch in enumerated:
            key = "".join(str(b) for b in branch.clbits)
            out.append(
                (
                    branch.probability,
                    key,
                    Statevector(_kernels.flatten(branch.state)),
                )
            )
        out.sort(key=lambda item: item[1])
        return out

    def exact_probabilities(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray] = None,
    ) -> Dict[str, float]:
        """Return the exact distribution over measured classical bits."""
        enumerated = self._try_enumerate(circuit, initial_state)
        if enumerated is None:
            raise SimulationError(
                f"circuit exceeds the branch cap ({self.max_branches})"
            )
        return self._branch_distribution(circuit, enumerated)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _apply_gate(self, state: np.ndarray, inst: Instruction) -> np.ndarray:
        op = inst.operation
        if not isinstance(op, Gate):
            raise SimulationError(f"cannot apply non-gate {op.name!r} unitarily")
        return _kernels.apply_matrix(state, op.matrix, inst.qubits)

    def _try_enumerate(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray],
    ) -> Optional[List[_Branch]]:
        """Enumerate measurement branches, or None if the cap is exceeded."""
        state = _kernels.state_tensor(circuit.num_qubits, initial_state)
        branches = [_Branch(1.0, [0] * circuit.num_clbits, state)]
        for inst in circuit.data:
            if inst.name == "barrier":
                continue
            new_branches: List[_Branch] = []
            for branch in branches:
                if inst.condition is not None:
                    clbit, value = inst.condition
                    if branch.clbits[clbit] != value:
                        new_branches.append(branch)
                        continue
                if inst.name == "measure":
                    new_branches.extend(self._measure_branch(branch, inst))
                elif inst.name == "reset":
                    new_branches.extend(self._reset_branch(branch, inst))
                else:
                    branch.state = self._apply_gate(branch.state, inst)
                    new_branches.append(branch)
            branches = new_branches
            if len(branches) > self.max_branches:
                return None
        return branches

    def _measure_branch(
        self, branch: _Branch, inst: Instruction
    ) -> Iterable[_Branch]:
        qubit = inst.qubits[0]
        clbit = inst.clbits[0]
        for outcome in (0, 1):
            collapsed, prob = _kernels.collapse(branch.state, qubit, outcome)
            if prob <= 1e-14:
                continue
            clbits = list(branch.clbits)
            clbits[clbit] = outcome
            yield _Branch(branch.probability * prob, clbits, collapsed)

    def _reset_branch(self, branch: _Branch, inst: Instruction) -> Iterable[_Branch]:
        qubit = inst.qubits[0]
        for outcome in (0, 1):
            collapsed, prob = _kernels.collapse(branch.state, qubit, outcome)
            if prob <= 1e-14:
                continue
            if outcome == 1:
                from repro.circuits.gates import x_matrix

                collapsed = _kernels.apply_matrix(collapsed, x_matrix(), [qubit])
            yield _Branch(branch.probability * prob, list(branch.clbits), collapsed)

    def _branch_distribution(
        self, circuit: QuantumCircuit, branches: List[_Branch]
    ) -> Dict[str, float]:
        """Aggregate branch probabilities by classical bitstring."""
        if circuit.num_clbits == 0 or not circuit.has_measurements():
            return {}
        out: Dict[str, float] = {}
        for branch in branches:
            key = "".join(str(b) for b in branch.clbits)
            out[key] = out.get(key, 0.0) + branch.probability
        return out

