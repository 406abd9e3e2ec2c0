"""Clifford (stabilizer) simulation via the Aaronson-Gottesman tableau.

All three of the paper's assertion circuits — classical-value (CNOT),
entanglement (CNOT parity) and equal-superposition (CNOT/H sandwich) — are
Clifford circuits, as are the GHZ/Bell workloads they guard.  The tableau
representation therefore lets the scaling benchmarks (experiment A2 in
the README's *Reproducing the paper* index) run the full assertion
pipeline on hundreds of qubits in milliseconds, far beyond the
statevector engine's reach.

The implementation follows Aaronson & Gottesman, "Improved simulation of
stabilizer circuits" (PRA 70, 052328, 2004): a binary tableau of 2n+1 rows
(destabilizers, stabilizers, scratch) over columns ``x | z | r``.  Row
operations are whole-array NumPy updates; no Python loop walks the rows.

Shots are sampled with the reference-frame observation behind Stim
(Gidney, "Stim: a fast stabilizer circuit simulator", Quantum 5, 497,
2021): which measurements are random depends only on the tableau's X/Z
part, never on its signs.  So one symbolic pass tracks every sign as an
affine GF(2) form over the circuit's random measurement bits, and all
shots are then drawn at once.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import is_clifford_gate
from repro.exceptions import StabilizerError
from repro.results.counts import Counts
from repro.results.result import Result


def _phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """Aaronson-Gottesman ``g``: the power of i picked up on one qubit when
    Pauli ``(x1, z1)`` multiplies Pauli ``(x2, z2)``."""
    return (
        x1 * z1 * (z2 - x2)
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)
    )


#: ``g mod 4`` indexed by ``x1 | z1 << 1 | x2 << 2 | z2 << 3``.
_PHASE_TABLE = np.array(
    [
        _phase_exponent(i & 1, i >> 1 & 1, i >> 2 & 1, i >> 3 & 1) % 4
        for i in range(16)
    ],
    dtype=np.uint8,
)


def _phase_bits(x_i, z_i, x_h, z_h) -> np.ndarray:
    """Return the extra sign bit of row h times row i (broadcasting).

    The new sign of row h is ``r_h ^ r_i ^ ((sum(g) mod 4) >> 1)``; this
    returns the last term, which depends on the X/Z bits alone.
    """
    exponents = _PHASE_TABLE[x_i | (z_i << 1) | (x_h << 2) | (z_h << 3)]
    return ((exponents.sum(axis=-1) >> 1) & 1).astype(np.uint8)


#: ASCII codes of the Pauli letters, indexed by ``x + 2 * z``.
_PAULI_LETTERS = np.frombuffer(b"IXZY", dtype=np.uint8)


class StabilizerState:
    """A stabilizer state on ``num_qubits`` qubits.

    Attributes
    ----------
    x, z:
        ``(2n+1, n)`` binary matrices: row i's Pauli has an X (Z) factor on
        qubit j iff ``x[i, j]`` (``z[i, j]``).  Rows 0..n-1 are destabilizers,
        rows n..2n-1 stabilizers, row 2n is scratch space.
    signs:
        ``(2n+1, 1 + num_bits)`` affine sign forms: row i's sign is
        ``signs[i, 0] ^ XOR_j(signs[i, j] & b_j)`` over the random
        measurement bits ``b_1..b_k`` opened by :meth:`measure_affine`.
        A state that only samples concretely (:meth:`measure`) has
        ``num_bits == 0``.
    r:
        ``(2n+1,)`` view of the constant column ``signs[:, 0]`` (1 means
        the row's Pauli carries a - sign).  Gates only ever touch this
        column.
    """

    def __init__(self, num_qubits: int, num_bits: int = 0) -> None:
        if num_qubits < 1:
            raise StabilizerError("need at least one qubit")
        self.num_qubits = num_qubits
        size = 2 * num_qubits + 1
        self.x = np.zeros((size, num_qubits), dtype=np.uint8)
        self.z = np.zeros((size, num_qubits), dtype=np.uint8)
        self.signs = np.zeros((size, 1 + num_bits), dtype=np.uint8)
        self.r = self.signs[:, 0]
        self.num_random = 0
        diagonal = np.arange(num_qubits)
        self.x[diagonal, diagonal] = 1               # destabilizer X_i
        self.z[num_qubits + diagonal, diagonal] = 1  # stabilizer Z_i

    # ------------------------------------------------------------------
    # Gate actions
    # ------------------------------------------------------------------

    def apply_h(self, q: int) -> None:
        """Apply a Hadamard gate: swap X and Z columns, update phases."""
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def apply_s(self, q: int) -> None:
        """Apply the phase gate S."""
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def apply_sdg(self, q: int) -> None:
        """Apply S-dagger (S three times in the Clifford group mod phase)."""
        self.apply_s(q)
        self.apply_z(q)

    def apply_x(self, q: int) -> None:
        """Apply Pauli-X: flips the sign of rows with a Z on q."""
        self.r ^= self.z[:, q]

    def apply_z(self, q: int) -> None:
        """Apply Pauli-Z: flips the sign of rows with an X on q."""
        self.r ^= self.x[:, q]

    def apply_y(self, q: int) -> None:
        """Apply Pauli-Y = iXZ."""
        self.r ^= self.x[:, q] ^ self.z[:, q]

    def apply_sx(self, q: int) -> None:
        """Apply sqrt(X) = H S H (up to global phase)."""
        self.apply_h(q)
        self.apply_s(q)
        self.apply_h(q)

    def apply_sxdg(self, q: int) -> None:
        """Apply the inverse sqrt(X)."""
        self.apply_h(q)
        self.apply_sdg(q)
        self.apply_h(q)

    def apply_cx(self, control: int, target: int) -> None:
        """Apply CNOT per the Aaronson-Gottesman update rule."""
        self.r ^= (
            self.x[:, control]
            & self.z[:, target]
            & (self.x[:, target] ^ self.z[:, control] ^ 1)
        )
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    def apply_cz(self, control: int, target: int) -> None:
        """Apply controlled-Z via H-conjugated CNOT."""
        self.apply_h(target)
        self.apply_cx(control, target)
        self.apply_h(target)

    def apply_cy(self, control: int, target: int) -> None:
        """Apply controlled-Y via S-conjugated CNOT."""
        self.apply_sdg(target)
        self.apply_cx(control, target)
        self.apply_s(target)

    def apply_swap(self, a: int, b: int) -> None:
        """Apply SWAP as three CNOTs."""
        self.apply_cx(a, b)
        self.apply_cx(b, a)
        self.apply_cx(a, b)

    def flip_signs(self, rows: np.ndarray, form: np.ndarray) -> None:
        """XOR the affine ``form`` into the signs of the masked ``rows``.

        A Pauli applied when ``form`` evaluates to 1: ``rows`` is
        ``z[:, q]`` for X, ``x[:, q]`` for Z and their XOR for Y.
        """
        self.signs[rows.astype(bool)] ^= form

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def measure(self, q: int, rng: np.random.Generator) -> int:
        """Measure qubit ``q`` in the computational basis, collapsing it.

        A random outcome is drawn from ``rng`` (one ``integers(0, 2)``
        draw); a deterministic one consumes no entropy.
        """
        p = self._collapse(q)
        if p is None:
            return int(self._deterministic_sign(q)[0])
        outcome = int(rng.integers(0, 2))
        self.r[p] = outcome
        return outcome

    def measure_affine(self, q: int) -> np.ndarray:
        """Measure qubit ``q`` symbolically and return the outcome's form.

        A random outcome opens the next bit column instead of drawing it;
        the returned ``(1 + num_bits,)`` form evaluates to the outcome
        once the bits are sampled.
        """
        p = self._collapse(q)
        if p is None:
            return self._deterministic_sign(q)
        self.num_random += 1
        self.signs[p, self.num_random] = 1
        return self.signs[p].copy()

    def expectation_z(self, q: int) -> Optional[int]:
        """Return +-1 if <Z_q> is deterministic, else None."""
        n = self.num_qubits
        if np.any(self.x[n : 2 * n, q]):
            return None
        return -1 if self._deterministic_sign(q)[0] else 1

    def _collapse(self, q: int) -> Optional[int]:
        """Collapse a random ``Z_q`` measurement; return its pivot row.

        Returns ``None`` (tableau untouched) when the outcome is
        deterministic.  Otherwise every other row with an X on ``q`` is
        multiplied by the pivot stabilizer p in one whole-array step (all
        of them use the same, unchanged row p), row p moves to its
        destabilizer slot and becomes ``+Z_q`` with a zero sign form for
        the caller to fill in.
        """
        n = self.num_qubits
        stab_rows = self.x[n : 2 * n, q].nonzero()[0]
        if not stab_rows.size:
            return None
        p = int(stab_rows[0]) + n
        rows = self.x[: 2 * n, q].nonzero()[0]
        rows = rows[rows != p]
        if rows.size:
            self.signs[rows] ^= self.signs[p]
            self.r[rows] ^= _phase_bits(
                self.x[p], self.z[p], self.x[rows], self.z[rows]
            )
            self.x[rows] ^= self.x[p]
            self.z[rows] ^= self.z[p]
        self.x[p - n] = self.x[p]
        self.z[p - n] = self.z[p]
        self.signs[p - n] = self.signs[p]
        self.x[p] = 0
        self.z[p] = 0
        self.z[p, q] = 1
        self.signs[p] = 0
        return p

    def _deterministic_sign(self, q: int) -> np.ndarray:
        """Return the sign form of ``Z_q`` when it is in the stabilizer group.

        ``Z_q`` is the product of the stabilizers whose destabilizers
        anticommute with it.  The Aaronson-Gottesman scratch row multiplies
        them in row order; each step's phase depends on the running
        product, which is a prefix XOR of the contributing rows.  The
        product is left in the scratch row.
        """
        n = self.num_qubits
        scratch = 2 * n
        rows = self.x[:n, q].nonzero()[0] + n
        xs, zs = self.x[rows], self.z[rows]
        running_x = np.bitwise_xor.accumulate(xs, axis=0)
        running_z = np.bitwise_xor.accumulate(zs, axis=0)
        # The product before step j is the inclusive prefix minus row j.
        steps = _phase_bits(xs, zs, running_x ^ xs, running_z ^ zs)
        sign = np.bitwise_xor.reduce(self.signs[rows], axis=0)
        sign[0] ^= np.bitwise_xor.reduce(steps)
        self.x[scratch] = running_x[-1] if rows.size else 0
        self.z[scratch] = running_z[-1] if rows.size else 0
        self.signs[scratch] = sign
        return sign

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stabilizer_strings(self) -> List[str]:
        """Return the stabilizer generators as signed Pauli strings."""
        n = self.num_qubits
        stabilizers = slice(n, 2 * n)
        letters = _PAULI_LETTERS[self.x[stabilizers] + 2 * self.z[stabilizers]]
        signs = np.where(self.r[stabilizers], ord("-"), ord("+")).astype(np.uint8)
        return [
            row.tobytes().decode("ascii")
            for row in np.column_stack([signs, letters])
        ]


_ONE_QUBIT_APPLIERS = {
    "id": lambda state, q: None,
    "x": StabilizerState.apply_x,
    "y": StabilizerState.apply_y,
    "z": StabilizerState.apply_z,
    "h": StabilizerState.apply_h,
    "s": StabilizerState.apply_s,
    "sdg": StabilizerState.apply_sdg,
    "sx": StabilizerState.apply_sx,
    "sxdg": StabilizerState.apply_sxdg,
}

_TWO_QUBIT_APPLIERS = {
    "cx": StabilizerState.apply_cx,
    "cy": StabilizerState.apply_cy,
    "cz": StabilizerState.apply_cz,
    "swap": StabilizerState.apply_swap,
}

_PHASE_ROTATIONS = {"rz", "p", "u1"}

#: Gates whose classically conditioned form only flips signs: the rows a
#: Pauli anticommutes with, as a function of ``(state, qubit)``.
_PAULI_ROWS = {
    "id": lambda state, q: np.zeros_like(state.r),
    "x": lambda state, q: state.z[:, q],
    "y": lambda state, q: state.x[:, q] ^ state.z[:, q],
    "z": lambda state, q: state.x[:, q],
}


class StabilizerSimulator:
    """Shot-based Clifford simulator.

    Counts are true Monte-Carlo samples.  :meth:`run` makes **one**
    tableau pass per job, in which every sign is an affine GF(2) form
    over the job's k random measurement bits: gates update only the
    constant term, a random measurement opens a new bit, a deterministic
    one reads its form off the stabilizer rows, and resets and classically
    conditioned Pauli gates XOR forms into signs.  All shots are then
    drawn with one ``rng.integers(0, 2, size=(shots, k))`` and evaluated
    with one GF(2) matrix product.  That vector draw equals the ``shots *
    k`` scalar draws a per-shot replay makes in the same order, so counts
    (keys, values and key order) are bit-identical to replaying the
    circuit shot by shot, and the generator ends in the same state.

    Falls back to that per-shot replay when the X/Z evolution itself
    depends on outcomes: a classically conditioned gate other than a
    Pauli (``id``/``x``/``y``/``z``), or a conditional measure or reset.
    """

    name = "stabilizer"

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        seed: Optional[int] = None,
    ) -> Result:
        """Execute a Clifford circuit and return sampled counts.

        Raises
        ------
        StabilizerError
            If the circuit contains a non-Clifford gate.
        """
        self._validate(circuit)
        rng = np.random.default_rng(seed)
        return Result(
            counts=self._counts(circuit, shots, rng),
            shots=shots,
            metadata={"engine": self.name, "seed": seed},
        )

    def final_state(
        self,
        circuit: QuantumCircuit,
        seed: Optional[int] = None,
    ) -> StabilizerState:
        """Run once and return the final tableau (measurements sampled)."""
        self._validate(circuit)
        rng = np.random.default_rng(seed)
        state = StabilizerState(circuit.num_qubits)
        self._execute_shot(circuit, state, rng, [0] * circuit.num_clbits)
        return state

    # ------------------------------------------------------------------

    def _validate(self, circuit: QuantumCircuit) -> None:
        for inst in circuit.data:
            if inst.name in {"measure", "reset", "barrier"}:
                continue
            if inst.name in _PHASE_ROTATIONS:
                if is_clifford_gate(inst.operation):
                    continue
                raise StabilizerError(
                    f"rotation {inst.name}({inst.operation.params[0]:.4f}) is "
                    "not a Clifford gate"
                )
            if (
                inst.name not in _ONE_QUBIT_APPLIERS
                and inst.name not in _TWO_QUBIT_APPLIERS
            ):
                raise StabilizerError(f"non-Clifford gate {inst.name!r}")

    def _counts(
        self, circuit: QuantumCircuit, shots: int, rng: np.random.Generator
    ) -> Counts:
        """Sample ``shots`` outcomes, one pass if the X/Z part allows it."""
        if shots <= 0:
            return Counts()
        if any(
            inst.condition is not None
            and inst.name != "barrier"
            and inst.name not in _PAULI_ROWS
            for inst in circuit.data
        ):
            return self._replay_counts(circuit, shots, rng)
        return self._affine_counts(circuit, shots, rng)

    def _affine_counts(
        self, circuit: QuantumCircuit, shots: int, rng: np.random.Generator
    ) -> Counts:
        """One symbolic tableau pass, then every shot in one batched draw."""
        num_bits = sum(inst.name in {"measure", "reset"} for inst in circuit.data)
        state = StabilizerState(circuit.num_qubits, num_bits)
        clbits = np.zeros((circuit.num_clbits, 1 + num_bits), dtype=np.uint8)
        for inst in circuit.data:
            if inst.name == "barrier":
                continue
            if inst.condition is not None:
                clbit, value = inst.condition
                fires = clbits[clbit].copy()
                fires[0] ^= 1 - value
                rows = _PAULI_ROWS[inst.name](state, inst.qubits[0])
                state.flip_signs(rows, fires)
            elif inst.name == "measure":
                clbits[inst.clbits[0]] = state.measure_affine(inst.qubits[0])
            elif inst.name == "reset":
                q = inst.qubits[0]
                state.flip_signs(state.z[:, q], state.measure_affine(q))
            else:
                _apply_gate(state, inst)
        k = state.num_random
        bits = rng.integers(0, 2, size=(shots, k)).astype(np.uint8)
        # uint8 products wrap mod 256, which keeps their parity.
        outcomes = (bits @ clbits[:, 1 : 1 + k].T) ^ clbits[:, 0]
        return Counts(_first_seen_counts(outcomes & 1))

    def _replay_counts(
        self, circuit: QuantumCircuit, shots: int, rng: np.random.Generator
    ) -> Counts:
        """Replay the whole circuit once per shot (the reference sampler)."""
        counts: Dict[str, int] = {}
        for _ in range(shots):
            clbits = [0] * circuit.num_clbits
            state = StabilizerState(circuit.num_qubits)
            self._execute_shot(circuit, state, rng, clbits)
            key = "".join(str(b) for b in clbits)
            counts[key] = counts.get(key, 0) + 1
        return Counts(counts)

    def _execute_shot(
        self,
        circuit: QuantumCircuit,
        state: StabilizerState,
        rng: np.random.Generator,
        clbits: List[int],
    ) -> None:
        for inst in circuit.data:
            if inst.name == "barrier":
                continue
            if inst.condition is not None:
                clbit, value = inst.condition
                if clbits[clbit] != value:
                    continue
            if inst.name == "measure":
                clbits[inst.clbits[0]] = state.measure(inst.qubits[0], rng)
            elif inst.name == "reset":
                if state.measure(inst.qubits[0], rng) == 1:
                    state.apply_x(inst.qubits[0])
            else:
                _apply_gate(state, inst)


def _apply_gate(state: StabilizerState, inst) -> None:
    """Apply one unconditional Clifford gate instruction."""
    if inst.name in _ONE_QUBIT_APPLIERS:
        _ONE_QUBIT_APPLIERS[inst.name](state, inst.qubits[0])
    elif inst.name in _PHASE_ROTATIONS:
        _apply_phase_rotation(state, inst)
    elif inst.name in _TWO_QUBIT_APPLIERS:
        _TWO_QUBIT_APPLIERS[inst.name](state, inst.qubits[0], inst.qubits[1])
    else:  # pragma: no cover - _validate guards this
        raise StabilizerError(f"non-Clifford gate {inst.name!r}")


def _apply_phase_rotation(state: StabilizerState, inst) -> None:
    """Apply rz/p/u1 with an angle that is a multiple of pi/2."""
    angle = inst.operation.params[0] % (2.0 * math.pi)
    quarter_turns = round(angle / (math.pi / 2.0)) % 4
    q = inst.qubits[0]
    if quarter_turns == 1:
        state.apply_s(q)
    elif quarter_turns == 2:
        state.apply_z(q)
    elif quarter_turns == 3:
        state.apply_sdg(q)


def _first_seen_counts(outcomes: np.ndarray) -> Dict[str, int]:
    """Histogram a ``(shots, num_clbits)`` 0/1 matrix into bitstring counts.

    Keys come in order of first appearance, as a shot-by-shot tally
    inserts them; clbit 0 is the leftmost character.
    """
    shots, width = outcomes.shape
    if shots == 0:
        return {}
    if width == 0:
        return {"": int(shots)}
    packed = np.packbits(outcomes, axis=1)
    _, first, counts = np.unique(
        packed, axis=0, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    keys = outcomes[first[order]] + np.uint8(ord("0"))
    return {
        row.tobytes().decode("ascii"): int(count)
        for row, count in zip(keys, counts[order])
    }
