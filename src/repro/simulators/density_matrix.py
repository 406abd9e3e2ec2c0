"""Exact mixed-state (density-matrix) simulation with noise channels.

This engine is the substitute for the paper's IBM Q hardware runs.  Each
run compiles the circuit and its :class:`~repro.noise.model.NoiseModel`
once (:mod:`repro.simulators._program`), so the model is queried once per
instruction per run.  A gate and the Kraus channels the model attaches to
it become one superoperator ``S = C_r ... C_1 (U (x) conj(U))`` on the
gate's row and column axes, where ``C = sum_j K_j (x) conj(K_j)`` and a
1-qubit channel on one operand of a wider gate is first lifted to the
gate's arity.  ``C`` does not depend on the gate angle and is cached, so a
gate costs one tensor contraction whatever its noise.  Readout error is a
classical confusion process at measurement time.

:meth:`DensityMatrixSimulator.run` reads the terminal measurements (the
ones nothing later depends on, marked by
:func:`~repro.simulators._program.build_program`) once, at the end: the
diagonal of each branch's ``rho`` marginalised onto the measured qubits,
each clbit's confusion applied along its axis.  It drops what branching
drops, one measurement at a time in program order: a true outcome whose
probability given the values recorded before it is at or below ``1e-14``,
and a confusion entry at or below ``1e-14``
(:meth:`~repro.simulators._program.Readout.recorded`).  So it keeps the
branch path's outcomes whenever no measurement that stays a step follows
a terminal one; otherwise the two condition an outcome on different
records and may disagree on one whose probability is near ``1e-14``.  A
measurement that something later depends on branches as in the
statevector engine, and same-clbit branches merge.  :meth:`final_density_matrix` and
:meth:`conditional_density_matrix` need the post-measurement states, so
they branch on every measurement.  Either way the classical-outcome
distribution is **exact** — shot histograms are multinomial samples from
it, exactly like repeated runs on a (modelled) device.

The density matrix is stored as a rank-``2n`` tensor with row axes
``0..n-1`` and column axes ``n..2n-1``; axis ``k`` / ``n+k`` is qubit ``k``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import x_matrix
from repro.exceptions import SimulationError
from repro.results.counts import Counts, counts_from_probabilities
from repro.results.result import Result
from repro.simulators import _kernels, _program


class DensityMatrix:
    """A density operator on ``num_qubits`` qubits."""

    def __init__(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=complex)
        dim = data.shape[0]
        if data.ndim != 2 or data.shape != (dim, dim):
            raise SimulationError(f"density matrix must be square, got {data.shape}")
        num_qubits = int(np.log2(dim)) if dim else 0
        if 2 ** num_qubits != dim:
            raise SimulationError(f"dimension {dim} is not a power of two")
        trace = complex(np.trace(data))
        if abs(trace - 1.0) > 1e-6:
            raise SimulationError(f"density matrix trace is {trace}, expected 1")
        if not np.allclose(data, data.conj().T, atol=1e-8):
            raise SimulationError("density matrix is not Hermitian")
        self.data = data.copy()
        self.num_qubits = num_qubits

    @classmethod
    def from_statevector(cls, statevector: np.ndarray) -> "DensityMatrix":
        """Return the pure-state density matrix |psi><psi|."""
        vec = np.asarray(statevector, dtype=complex).reshape(-1)
        return cls(np.outer(vec, vec.conj()))

    def purity(self) -> float:
        """Return Tr(rho^2); 1 for pure states."""
        return float(np.real(np.trace(self.data @ self.data)))

    def probabilities(self) -> Dict[str, float]:
        """Return computational-basis probabilities keyed by bitstring."""
        diag = np.real(np.diag(self.data))
        return {
            _kernels.basis_label(i, self.num_qubits): float(p)
            for i, p in enumerate(diag)
            if p > 1e-14
        }

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self.num_qubits}, purity={self.purity():.6f})"


class _Branch:
    """One classical-outcome branch: (probability, clbits, rho tensor)."""

    __slots__ = ("probability", "clbits", "rho")

    def __init__(self, probability: float, clbits: List[int], rho: np.ndarray) -> None:
        self.probability = probability
        self.clbits = clbits
        self.rho = rho


def _rho_tensor(num_qubits: int, initial: Optional[np.ndarray]) -> np.ndarray:
    dim = 2 ** num_qubits
    if initial is None:
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
    else:
        initial = np.asarray(initial, dtype=complex)
        if initial.ndim == 1:
            rho = np.outer(initial, initial.conj())
        else:
            rho = DensityMatrix(initial).data
    return rho.reshape((2,) * (2 * num_qubits))


_X_SUPEROPERATOR = np.kron(x_matrix(), x_matrix().conj())


def _superoperator(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Return ``sum_j K_j (x) conj(K_j)``, the channel on ``(rows, cols)``."""
    total = None
    for k_op in kraus:
        term = np.kron(k_op, k_op.conj())
        total = term if total is None else total + term
    if total is None:
        raise SimulationError("channel has no Kraus operators")
    return total


@_program.cached_fold
def _channel_segments(qubits: Tuple[int, ...], channels: tuple) -> list:
    """Fold a gate's :func:`~repro.simulators._program.channel_segments`
    into superoperators ``[(targets, C), ...]``: a gate-qubit segment's
    channels multiply onto the identity in order; another holds one."""
    segments = []
    for targets, group in _program.channel_segments(qubits, channels):
        if targets != qubits:
            segments.append((targets, _superoperator(group[0])))
            continue
        total = np.eye(4 ** len(qubits), dtype=complex)
        for operators in group:
            total = _superoperator(operators) @ total
        segments.append((qubits, total))
    return segments


def _gate_superoperators(matrix, qubits, segments) -> list:
    """Return the ``(qubits, S)`` contractions of one noisy gate.

    ``S = C_r ... C_1 (U (x) conj(U))`` acts on the gate's row and column
    axes at once: one contraction per gate instead of two per Kraus
    operator.
    """
    first, *rest = segments
    return [(qubits, first[1] @ np.kron(matrix, matrix.conj())), *rest]


def _apply_superoperator(
    rho: np.ndarray, superop: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a ``4^k x 4^k`` superoperator to the rows and columns of ``qubits``."""
    n = rho.ndim // 2
    axes = list(qubits) + [n + q for q in qubits]
    return _kernels.apply_matrix(rho, superop, axes)


def _project(rho: np.ndarray, qubit: int, outcome: int) -> Tuple[np.ndarray, float]:
    """Project onto ``outcome`` and renormalise; returns (rho', prob)."""
    n = rho.ndim // 2
    projected = rho.copy()
    index_row = [slice(None)] * rho.ndim
    index_row[qubit] = 1 - outcome
    projected[tuple(index_row)] = 0.0
    index_col = [slice(None)] * rho.ndim
    index_col[n + qubit] = 1 - outcome
    projected[tuple(index_col)] = 0.0
    prob = _trace(projected)
    if prob <= 0.0:
        return projected, 0.0
    return projected / prob, prob


def _trace(rho: np.ndarray) -> float:
    n = rho.ndim // 2
    dim = 2 ** n
    return float(np.real(np.trace(rho.reshape(dim, dim))))


class DensityMatrixSimulator:
    """Exact density-matrix engine with optional noise.

    Parameters
    ----------
    noise_model:
        Optional :class:`~repro.noise.model.NoiseModel`.  The engine only
        relies on its ``channels_for(instruction)`` and
        ``readout_confusion(qubit)`` methods, so a duck-typed model works
        too.  Each run asks it once per instruction, when the circuit is
        compiled, and applies the answer to every measurement branch.
    max_branches:
        Cap on the measurement branches a walk holds, each with its own
        ``rho`` (true-outcome x recorded-value pairs, merged by record).
        :meth:`run` reads the terminal measurements without a branch per
        outcome, so only the other measurements count toward it there;
        :meth:`final_density_matrix` and
        :meth:`conditional_density_matrix` branch on every measurement.
    """

    name = "density_matrix"

    def __init__(self, noise_model=None, max_branches: int = 4096) -> None:
        self.noise_model = noise_model
        if max_branches < 1:
            raise SimulationError("max_branches must be positive")
        self.max_branches = max_branches

    # ------------------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        seed: Optional[int] = None,
        initial_state: Optional[np.ndarray] = None,
    ) -> Result:
        """Execute ``circuit``; exact probabilities + multinomial counts."""
        rng = np.random.default_rng(seed)
        steps, readout = _program.split_terminal(self._program(circuit))
        branches = self._enumerate(circuit, steps, initial_state)
        probabilities = self._distribution(circuit, branches, readout)
        counts = (
            counts_from_probabilities(probabilities, shots, rng)
            if probabilities
            else Counts()
        )
        return Result(
            counts=counts,
            shots=shots,
            probabilities=probabilities or None,
            metadata={
                "engine": self.name,
                "noise": getattr(self.noise_model, "name", None),
                "seed": seed,
            },
        )

    def final_density_matrix(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray] = None,
    ) -> DensityMatrix:
        """Return the final state, averaging over measurement outcomes."""
        branches = self._enumerate(circuit, self._program(circuit), initial_state)
        n = circuit.num_qubits
        dim = 2 ** n
        total = np.zeros((dim, dim), dtype=complex)
        for branch in branches:
            total += branch.probability * branch.rho.reshape(dim, dim)
        return DensityMatrix(total)

    def conditional_density_matrix(
        self,
        circuit: QuantumCircuit,
        conditions: Dict[int, int],
        initial_state: Optional[np.ndarray] = None,
    ) -> Tuple[DensityMatrix, float]:
        """Return the state conditioned on clbit values (post-selection).

        Returns ``(state, probability_of_conditions)``.
        """
        branches = self._enumerate(circuit, self._program(circuit), initial_state)
        n = circuit.num_qubits
        dim = 2 ** n
        total = np.zeros((dim, dim), dtype=complex)
        mass = 0.0
        for branch in branches:
            if all(branch.clbits[pos] == val for pos, val in conditions.items()):
                total += branch.probability * branch.rho.reshape(dim, dim)
                mass += branch.probability
        if mass <= 1e-14:
            raise SimulationError(f"no branch satisfies conditions {conditions}")
        return DensityMatrix(total / mass), mass

    # ------------------------------------------------------------------

    def _program(self, circuit: QuantumCircuit) -> List[tuple]:
        return _program.build_program(circuit, self.noise_model, _channel_segments)

    def _enumerate(
        self,
        circuit: QuantumCircuit,
        steps: List[tuple],
        initial_state: Optional[np.ndarray],
    ) -> List[_Branch]:
        """Walk ``steps``, branching on each measurement they hold."""
        rho = _rho_tensor(circuit.num_qubits, initial_state)
        branches = [_Branch(1.0, [0] * circuit.num_clbits, rho)]
        for step in steps:
            kind, condition = step[0], step[-1]
            if kind == _program.GATE:
                _, matrix, qubits, segments, _ = step
                superops = _gate_superoperators(matrix, qubits, segments)
            new_branches: List[_Branch] = []
            for branch in branches:
                if condition is not None:
                    clbit, value = condition
                    if branch.clbits[clbit] != value:
                        new_branches.append(branch)
                        continue
                if kind == _program.MEASURE:
                    _, qubit, clbit, confusion, _, _ = step
                    new_branches.extend(self._measure(branch, qubit, clbit, confusion))
                elif kind == _program.RESET:
                    new_branches.append(self._reset(branch, step[1]))
                else:
                    for targets, superop in superops:
                        branch.rho = _apply_superoperator(branch.rho, superop, targets)
                    new_branches.append(branch)
            branches = _merge_equal_clbits(new_branches)
            if len(branches) > self.max_branches:
                raise SimulationError(
                    f"measurement branches exceed the cap ({self.max_branches})"
                )
        return branches

    def _measure(
        self, branch: _Branch, qubit: int, clbit: int, confusion
    ) -> Iterable[_Branch]:
        for outcome in (0, 1):
            projected, prob = _project(branch.rho, qubit, outcome)
            if prob <= 1e-14:
                continue
            if confusion is None:
                record_probs = {outcome: 1.0}
            else:
                # confusion[r][m] = P(recorded r | true m)
                record_probs = {
                    recorded: float(confusion[recorded][outcome])
                    for recorded in (0, 1)
                    if confusion[recorded][outcome] > 1e-14
                }
            for recorded, record_prob in record_probs.items():
                clbits = list(branch.clbits)
                clbits[clbit] = recorded
                yield _Branch(branch.probability * prob * record_prob, clbits, projected)

    def _reset(self, branch: _Branch, qubit: int) -> _Branch:
        """Reset is the deterministic channel |0><0| + |0><1| rho ..."""
        zero, p0 = _project(branch.rho, qubit, 0)
        one, p1 = _project(branch.rho, qubit, 1)
        total = None
        if p0 > 1e-14:
            total = p0 * zero
        if p1 > 1e-14:
            flipped = _apply_superoperator(one, _X_SUPEROPERATOR, [qubit])
            total = p1 * flipped if total is None else total + p1 * flipped
        branch.rho = total if total is not None else branch.rho
        return branch

    def _distribution(
        self,
        circuit: QuantumCircuit,
        branches: List[_Branch],
        readout: Optional[_program.Readout],
    ) -> Dict[str, float]:
        if circuit.num_clbits == 0 or not circuit.has_measurements():
            return {}
        out: Dict[str, float] = {}
        if readout is None:
            for branch in branches:
                key = "".join(str(b) for b in branch.clbits)
                out[key] = out.get(key, 0.0) + branch.probability
            return out
        dim = 2 ** circuit.num_qubits
        rows = np.empty((len(readout.bits), circuit.num_clbits), dtype=np.uint8)
        for branch in branches:
            diagonal = np.diagonal(branch.rho.reshape(dim, dim)).real
            populations = _kernels.relayout(
                diagonal.reshape(-1, 1, 1), (), readout.qubits
            ).sum(axis=0)
            weights = readout.recorded(populations, floor=1e-14)[:, 0]
            kept = np.flatnonzero(weights > 0.0)
            rows[:] = branch.clbits
            rows[:, readout.clbits] = readout.bits
            labels = rows[kept] + ord("0")
            for label, weight in zip(labels, weights[kept]):
                key = label.tobytes().decode()
                out[key] = out.get(key, 0.0) + branch.probability * float(weight)
        return out


def _merge_equal_clbits(branches: List[_Branch]) -> List[_Branch]:
    """Merge branches with identical classical bits into one mixed state.

    Unlike pure states, density matrices of same-clbit branches can be merged
    exactly (convex combination), which keeps the branch count bounded by the
    number of distinct classical strings rather than the measurement tree.
    """
    by_clbits: Dict[Tuple[int, ...], _Branch] = {}
    for branch in branches:
        key = tuple(branch.clbits)
        existing = by_clbits.get(key)
        if existing is None:
            by_clbits[key] = branch
        else:
            total = existing.probability + branch.probability
            existing.rho = (
                existing.probability * existing.rho + branch.probability * branch.rho
            ) / total
            existing.probability = total
    return list(by_clbits.values())
