"""The :class:`QuantumCircuit` builder.

A circuit owns a flat list of qubits and classical bits (optionally grouped
into named registers) and an ordered list of
:class:`~repro.circuits.instructions.Instruction` objects.  Builder methods
exist for every standard gate, plus ``measure``, ``reset``, ``barrier``,
conditional execution (:meth:`QuantumCircuit.c_if` style via the ``condition``
keyword), composition, inversion and ancilla allocation — everything the
runtime-assertion injector (:mod:`repro.core`) needs.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.gates import (
    Barrier,
    Gate,
    Measure,
    Operation,
    Reset,
    UnitaryGate,
    get_gate,
)
from repro.circuits.instructions import Instruction
from repro.circuits.registers import ClassicalRegister, Clbit, QuantumRegister, Qubit
from repro.exceptions import CircuitError

QubitSpecifier = Union[int, Qubit]
ClbitSpecifier = Union[int, Clbit]

#: Every measurement shares one :class:`Measure`: operations are never
#: mutated in place.
_MEASURE = Measure()


def is_angle_gate(inst: Instruction) -> bool:
    """Return ``True`` for a 1-qubit gate that takes parameters.

    These are the instructions whose parameters
    :meth:`QuantumCircuit.shape_fingerprint` leaves out.
    """
    op = inst.operation
    return op.is_gate and op.num_qubits == 1 and bool(op.params)


class _TrackedInstructionList(list):
    """An instruction list that invalidates its circuit's fingerprint memo.

    ``QuantumCircuit.data`` is a public list mutated freely across the
    codebase (builder methods, transpiler passes, experiments), so the
    memoised :meth:`QuantumCircuit.fingerprint` can only be safe if every
    list mutation — ``append``, slice assignment, ``pop``, ... — notifies
    the owning circuit.  Reads cost nothing; each mutator clears the memo
    after delegating to :class:`list`.
    """

    def __init__(self, circuit: "QuantumCircuit", iterable=()) -> None:
        super().__init__(iterable)
        self._circuit = circuit

    def _touch(self) -> None:
        circuit = getattr(self, "_circuit", None)
        if circuit is not None:
            circuit._invalidate_fingerprint()

    def append(self, value) -> None:
        super().append(value)
        self._touch()

    def extend(self, iterable) -> None:
        super().extend(iterable)
        self._touch()

    def insert(self, index, value) -> None:
        super().insert(index, value)
        self._touch()

    def remove(self, value) -> None:
        super().remove(value)
        self._touch()

    def pop(self, index=-1):
        value = super().pop(index)
        self._touch()
        return value

    def clear(self) -> None:
        super().clear()
        self._touch()

    def sort(self, **kwargs) -> None:
        super().sort(**kwargs)
        self._touch()

    def reverse(self) -> None:
        super().reverse()
        self._touch()

    def __setitem__(self, index, value) -> None:
        super().__setitem__(index, value)
        self._touch()

    def __delitem__(self, index) -> None:
        super().__delitem__(index)
        self._touch()

    def __iadd__(self, other):
        result = super().__iadd__(other)
        self._touch()
        return result

    def __imul__(self, factor):
        result = super().__imul__(factor)
        self._touch()
        return result


class QuantumCircuit:
    """A mutable quantum circuit.

    Parameters
    ----------
    *regs:
        Any mix of ``int`` (anonymous qubit then clbit counts, in order) and
        :class:`QuantumRegister` / :class:`ClassicalRegister` instances.
    name:
        Optional circuit name used by the drawer and QASM export.

    Examples
    --------
    >>> qc = QuantumCircuit(2, 2)
    >>> qc.h(0)           # doctest: +ELLIPSIS
    <repro.circuits.circuit.QuantumCircuit object at ...>
    >>> _ = qc.cx(0, 1)
    >>> _ = qc.measure([0, 1], [0, 1])
    >>> qc.num_qubits, qc.num_clbits, len(qc)
    (2, 2, 4)
    """

    def __init__(
        self,
        *regs: Union[int, QuantumRegister, ClassicalRegister],
        name: str = "circuit",
    ) -> None:
        self.name = name
        self.qregs: List[QuantumRegister] = []
        self.cregs: List[ClassicalRegister] = []
        self._num_qubits = 0
        self._num_clbits = 0
        #: Register name -> (register, flat index of its first bit): checks
        #: duplicate names and resolves a Bit without hashing every bit.
        self._qreg_offsets: Dict[str, Tuple[QuantumRegister, int]] = {}
        self._creg_offsets: Dict[str, Tuple[ClassicalRegister, int]] = {}
        #: Name prefix -> number of qregs whose name starts with it, filled
        #: on the first :meth:`count_qregs` call for that prefix.
        self._qreg_prefix_counts: Dict[str, int] = {}
        self._fingerprint_cache: Optional[str] = None
        #: Bumped by every mutation; fingerprint() only installs its memo
        #: when the generation it hashed is still current, so a mutation
        #: racing an in-flight hash can never pin a stale digest.
        self._fingerprint_generation = 0
        self.data = []
        int_args = [r for r in regs if isinstance(r, int)]
        if len(int_args) > 2:
            raise CircuitError(
                "at most two integer arguments (num_qubits, num_clbits) allowed"
            )
        for reg in regs:
            if isinstance(reg, QuantumRegister):
                self.add_register(reg)
            elif isinstance(reg, ClassicalRegister):
                self.add_register(reg)
            elif isinstance(reg, int):
                pass  # handled below, in order
            else:
                raise CircuitError(f"unexpected circuit argument {reg!r}")
        if int_args:
            if int_args[0] > 0:
                self.add_register(QuantumRegister(int_args[0], name="q"))
            elif int_args[0] < 0:
                raise CircuitError("number of qubits must be non-negative")
        if len(int_args) == 2:
            if int_args[1] > 0:
                self.add_register(ClassicalRegister(int_args[1], name="c"))
            elif int_args[1] < 0:
                raise CircuitError("number of clbits must be non-negative")

    # ------------------------------------------------------------------
    # Instruction storage
    # ------------------------------------------------------------------

    @property
    def data(self) -> List[Instruction]:
        """The ordered instruction list.

        Mutating it (through list methods or by assigning a new list)
        invalidates the memoised :meth:`fingerprint`.  Mutating an
        *existing* :class:`Instruction` or its operation in place bypasses
        that tracking — instructions are treated as immutable everywhere in
        this codebase; replace them instead.
        """
        return self._data

    @data.setter
    def data(self, value: Iterable[Instruction]) -> None:
        self._data = _TrackedInstructionList(self, value)
        self._invalidate_fingerprint()

    def _invalidate_fingerprint(self) -> None:
        """Drop the fingerprint memo and mark the current content stale."""
        self._fingerprint_cache = None
        self._fingerprint_generation += 1

    # ------------------------------------------------------------------
    # Registers and bits
    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Return the total number of qubits."""
        return self._num_qubits

    @property
    def num_clbits(self) -> int:
        """Return the total number of classical bits."""
        return self._num_clbits

    @property
    def qubits(self) -> List[Qubit]:
        """Return all qubits in flat index order."""
        return [bit for reg in self.qregs for bit in reg]

    @property
    def clbits(self) -> List[Clbit]:
        """Return all classical bits in flat index order."""
        return [bit for reg in self.cregs for bit in reg]

    def add_register(
        self, register: Union[QuantumRegister, ClassicalRegister]
    ) -> Union[QuantumRegister, ClassicalRegister]:
        """Append a register, extending the flat bit index space.

        Registers are added only through this method: ``qregs`` and
        ``cregs`` are read, never appended to directly.
        """
        self._invalidate_fingerprint()  # bit counts participate in the hash
        name = register.name
        if isinstance(register, QuantumRegister):
            if name in self._qreg_offsets:
                raise CircuitError(f"duplicate register name {name!r}")
            self.qregs.append(register)
            self._qreg_offsets[name] = (register, self._num_qubits)
            self._num_qubits += register.size
            counts = self._qreg_prefix_counts
            for prefix in counts:
                if name.startswith(prefix):
                    counts[prefix] += 1
        elif isinstance(register, ClassicalRegister):
            if name in self._creg_offsets:
                raise CircuitError(f"duplicate register name {name!r}")
            self.cregs.append(register)
            self._creg_offsets[name] = (register, self._num_clbits)
            self._num_clbits += register.size
        else:
            raise CircuitError(f"not a register: {register!r}")
        return register

    def add_qubits(self, count: int, name: str = "") -> QuantumRegister:
        """Allocate ``count`` fresh qubits and return their register.

        This is how the assertion injector allocates ancilla qubits without
        disturbing existing bit indices.
        """
        if count < 1:
            raise CircuitError(f"must add at least one qubit, got {count}")
        reg = QuantumRegister(count, name=name) if name else QuantumRegister(count)
        return self.add_register(reg)

    def add_clbits(self, count: int, name: str = "") -> ClassicalRegister:
        """Allocate ``count`` fresh classical bits and return their register."""
        if count < 1:
            raise CircuitError(f"must add at least one clbit, got {count}")
        reg = ClassicalRegister(count, name=name) if name else ClassicalRegister(count)
        return self.add_register(reg)

    def count_qregs(self, prefix: str) -> int:
        """Return how many quantum registers have a name starting with ``prefix``.

        The assertion builders number their ancilla registers with it.  The
        first call for a prefix scans the registers; :meth:`add_register`
        keeps that count current, so later calls cost O(1).
        """
        count = self._qreg_prefix_counts.get(prefix)
        if count is None:
            count = sum(1 for name in self._qreg_offsets if name.startswith(prefix))
            self._qreg_prefix_counts[prefix] = count
        return count

    @staticmethod
    def _bit_offset(bit, offsets) -> int:
        entry = offsets.get(bit.register.name)
        if entry is None or entry[0] is not bit.register:
            raise CircuitError(f"{bit!r} is not in this circuit")
        return entry[1] + bit.index

    def qubit_index(self, qubit: QubitSpecifier) -> int:
        """Resolve a qubit specifier to its flat index."""
        if isinstance(qubit, Qubit):
            return self._bit_offset(qubit, self._qreg_offsets)
        index = int(qubit)
        if not 0 <= index < self._num_qubits:
            raise CircuitError(
                f"qubit index {index} out of range (circuit has "
                f"{self._num_qubits} qubit(s))"
            )
        return index

    def clbit_index(self, clbit: ClbitSpecifier) -> int:
        """Resolve a classical-bit specifier to its flat index."""
        if isinstance(clbit, Clbit):
            return self._bit_offset(clbit, self._creg_offsets)
        index = int(clbit)
        if not 0 <= index < self._num_clbits:
            raise CircuitError(
                f"clbit index {index} out of range (circuit has "
                f"{self._num_clbits} clbit(s))"
            )
        return index

    def _qubit_operands(self, qubits: Iterable[QubitSpecifier]) -> Tuple[int, ...]:
        """Resolve qubit operands to flat indices.

        An in-range ``int`` costs one check; anything else (a
        :class:`Qubit`, a NumPy integer, a ``bool``, an out-of-range index)
        goes through :meth:`qubit_index`, which resolves it or raises.
        """
        qubits = tuple(qubits)
        size = self._num_qubits
        for q in qubits:
            if type(q) is not int or not 0 <= q < size:
                return tuple(map(self.qubit_index, qubits))
        return qubits

    def _clbit_operands(self, clbits: Iterable[ClbitSpecifier]) -> Tuple[int, ...]:
        """Resolve classical-bit operands like :meth:`_qubit_operands`."""
        clbits = tuple(clbits)
        size = self._num_clbits
        for c in clbits:
            if type(c) is not int or not 0 <= c < size:
                return tuple(map(self.clbit_index, clbits))
        return clbits

    # ------------------------------------------------------------------
    # Generic append
    # ------------------------------------------------------------------

    def append(
        self,
        operation: Operation,
        qubits: Sequence[QubitSpecifier],
        clbits: Sequence[ClbitSpecifier] = (),
        condition: Optional[Tuple[ClbitSpecifier, int]] = None,
    ) -> "QuantumCircuit":
        """Append ``operation`` on the given bits; returns ``self``."""
        q_idx = self._qubit_operands(qubits)
        c_idx = self._clbit_operands(clbits)
        cond = None
        if condition is not None:
            cond = (self.clbit_index(condition[0]), int(condition[1]))
        # The circuit invalidates its own fingerprint: one call fewer than
        # the tracked list's append on the builder's hot path.
        list.append(self._data, Instruction(operation, q_idx, c_idx, cond))
        self._invalidate_fingerprint()
        return self

    def _gate(
        self,
        name: str,
        qubits: Sequence[QubitSpecifier],
        params: Sequence[float] = (),
        condition: Optional[Tuple[ClbitSpecifier, int]] = None,
    ) -> "QuantumCircuit":
        return self.append(get_gate(name, params), qubits, (), condition)

    # ------------------------------------------------------------------
    # Standard-gate builder methods
    # ------------------------------------------------------------------

    def i(self, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Apply the identity gate."""
        return self._gate("id", [qubit])

    def x(self, qubit: QubitSpecifier, condition=None) -> "QuantumCircuit":
        """Apply Pauli-X."""
        return self._gate("x", [qubit], condition=condition)

    def y(self, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Apply Pauli-Y."""
        return self._gate("y", [qubit])

    def z(self, qubit: QubitSpecifier, condition=None) -> "QuantumCircuit":
        """Apply Pauli-Z."""
        return self._gate("z", [qubit], condition=condition)

    def h(self, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Apply the Hadamard gate."""
        return self._gate("h", [qubit])

    def s(self, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Apply the S (phase) gate."""
        return self._gate("s", [qubit])

    def sdg(self, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Apply the S-dagger gate."""
        return self._gate("sdg", [qubit])

    def t(self, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Apply the T gate."""
        return self._gate("t", [qubit])

    def tdg(self, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Apply the T-dagger gate."""
        return self._gate("tdg", [qubit])

    def sx(self, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Apply the sqrt(X) gate."""
        return self._gate("sx", [qubit])

    def sxdg(self, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Apply the inverse sqrt(X) gate."""
        return self._gate("sxdg", [qubit])

    def rx(self, theta: float, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Rotate about X by ``theta``."""
        return self._gate("rx", [qubit], (theta,))

    def ry(self, theta: float, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Rotate about Y by ``theta``."""
        return self._gate("ry", [qubit], (theta,))

    def rz(self, theta: float, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Rotate about Z by ``theta``."""
        return self._gate("rz", [qubit], (theta,))

    def p(self, lam: float, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Apply the phase gate ``diag(1, e^{i lam})``."""
        return self._gate("p", [qubit], (lam,))

    def u1(self, lam: float, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Apply ``u1`` (alias of the phase gate)."""
        return self._gate("u1", [qubit], (lam,))

    def u2(self, phi: float, lam: float, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Apply ``u2(phi, lam) = u3(pi/2, phi, lam)``."""
        return self._gate("u2", [qubit], (phi, lam))

    def u3(
        self, theta: float, phi: float, lam: float, qubit: QubitSpecifier
    ) -> "QuantumCircuit":
        """Apply the generic single-qubit gate ``u3``."""
        return self._gate("u3", [qubit], (theta, phi, lam))

    def cx(
        self,
        control: QubitSpecifier,
        target: QubitSpecifier,
        condition=None,
    ) -> "QuantumCircuit":
        """Apply CNOT with the given control and target."""
        return self._gate("cx", [control, target], condition=condition)

    def cy(self, control: QubitSpecifier, target: QubitSpecifier) -> "QuantumCircuit":
        """Apply controlled-Y."""
        return self._gate("cy", [control, target])

    def cz(self, control: QubitSpecifier, target: QubitSpecifier) -> "QuantumCircuit":
        """Apply controlled-Z."""
        return self._gate("cz", [control, target])

    def ch(self, control: QubitSpecifier, target: QubitSpecifier) -> "QuantumCircuit":
        """Apply controlled-Hadamard."""
        return self._gate("ch", [control, target])

    def swap(self, a: QubitSpecifier, b: QubitSpecifier) -> "QuantumCircuit":
        """Swap two qubits."""
        return self._gate("swap", [a, b])

    def iswap(self, a: QubitSpecifier, b: QubitSpecifier) -> "QuantumCircuit":
        """Apply the iSWAP gate."""
        return self._gate("iswap", [a, b])

    def cp(
        self, lam: float, control: QubitSpecifier, target: QubitSpecifier
    ) -> "QuantumCircuit":
        """Apply controlled-phase by ``lam``."""
        return self._gate("cp", [control, target], (lam,))

    def crx(
        self, theta: float, control: QubitSpecifier, target: QubitSpecifier
    ) -> "QuantumCircuit":
        """Apply controlled-RX."""
        return self._gate("crx", [control, target], (theta,))

    def cry(
        self, theta: float, control: QubitSpecifier, target: QubitSpecifier
    ) -> "QuantumCircuit":
        """Apply controlled-RY."""
        return self._gate("cry", [control, target], (theta,))

    def crz(
        self, theta: float, control: QubitSpecifier, target: QubitSpecifier
    ) -> "QuantumCircuit":
        """Apply controlled-RZ."""
        return self._gate("crz", [control, target], (theta,))

    def cu3(
        self,
        theta: float,
        phi: float,
        lam: float,
        control: QubitSpecifier,
        target: QubitSpecifier,
    ) -> "QuantumCircuit":
        """Apply controlled-``u3``."""
        return self._gate("cu3", [control, target], (theta, phi, lam))

    def rxx(self, theta: float, a: QubitSpecifier, b: QubitSpecifier) -> "QuantumCircuit":
        """Apply the XX rotation."""
        return self._gate("rxx", [a, b], (theta,))

    def rzz(self, theta: float, a: QubitSpecifier, b: QubitSpecifier) -> "QuantumCircuit":
        """Apply the ZZ rotation."""
        return self._gate("rzz", [a, b], (theta,))

    def ccx(
        self,
        control1: QubitSpecifier,
        control2: QubitSpecifier,
        target: QubitSpecifier,
    ) -> "QuantumCircuit":
        """Apply the Toffoli gate."""
        return self._gate("ccx", [control1, control2, target])

    def cswap(
        self,
        control: QubitSpecifier,
        a: QubitSpecifier,
        b: QubitSpecifier,
    ) -> "QuantumCircuit":
        """Apply the Fredkin (controlled-SWAP) gate."""
        return self._gate("cswap", [control, a, b])

    def unitary(
        self,
        matrix: np.ndarray,
        qubits: Sequence[QubitSpecifier],
        label: str = "unitary",
    ) -> "QuantumCircuit":
        """Apply an arbitrary unitary matrix to ``qubits``."""
        gate = UnitaryGate(matrix, label=label)
        qubit_list = self._qubit_operands(qubits)
        if gate.num_qubits != len(qubit_list):
            raise CircuitError(
                f"matrix acts on {gate.num_qubits} qubit(s) but "
                f"{len(qubit_list)} were given"
            )
        return self.append(gate, qubit_list)

    # ------------------------------------------------------------------
    # Non-unitary operations
    # ------------------------------------------------------------------

    def measure(
        self,
        qubits: Union[QubitSpecifier, Sequence[QubitSpecifier]],
        clbits: Union[ClbitSpecifier, Sequence[ClbitSpecifier]],
    ) -> "QuantumCircuit":
        """Measure ``qubits`` into ``clbits`` pairwise."""
        q_idx = self._qubit_operands(
            (qubits,) if isinstance(qubits, (int, Qubit)) else qubits
        )
        c_idx = self._clbit_operands(
            (clbits,) if isinstance(clbits, (int, Clbit)) else clbits
        )
        if len(q_idx) != len(c_idx):
            raise CircuitError(
                f"measure needs equal qubit/clbit counts, got "
                f"{len(q_idx)} and {len(c_idx)}"
            )
        data = self._data
        for q, c in zip(q_idx, c_idx):
            list.append(data, Instruction(_MEASURE, (q,), (c,)))
        self._invalidate_fingerprint()
        return self

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit, allocating a fresh classical register."""
        reg = ClassicalRegister(self.num_qubits, name=f"meas{len(self.cregs)}")
        self.add_register(reg)
        base = self.num_clbits - self.num_qubits
        for q in range(self.num_qubits):
            self.append(_MEASURE, [q], [base + q])
        return self

    def reset(self, qubit: QubitSpecifier) -> "QuantumCircuit":
        """Reset a qubit to |0>."""
        return self.append(Reset(), [qubit])

    def barrier(self, *qubits: QubitSpecifier) -> "QuantumCircuit":
        """Insert a barrier on the given qubits (all qubits if omitted)."""
        q_idx = (
            self._qubit_operands(qubits)
            if qubits
            else list(range(self.num_qubits))
        )
        if not q_idx:
            raise CircuitError("cannot place a barrier on an empty circuit")
        return self.append(Barrier(len(q_idx)), q_idx)

    # ------------------------------------------------------------------
    # Circuit-level operations
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Return a copy sharing registers but with an independent data list."""
        other = QuantumCircuit(name=name or self.name)
        for reg in self.qregs:
            other.add_register(reg)
        for reg in self.cregs:
            other.add_register(reg)
        other.data = list(self.data)
        return other

    def compose(
        self,
        other: "QuantumCircuit",
        qubits: Optional[Sequence[QubitSpecifier]] = None,
        clbits: Optional[Sequence[ClbitSpecifier]] = None,
    ) -> "QuantumCircuit":
        """Append ``other``'s instructions onto this circuit in place.

        Parameters
        ----------
        other:
            Circuit to append.  Must fit within this circuit's bits.
        qubits / clbits:
            Where ``other``'s bit ``i`` lands in this circuit; defaults to the
            identity mapping.

        Returns
        -------
        QuantumCircuit
            ``self``, for chaining.
        """
        if qubits is None:
            if other.num_qubits > self.num_qubits:
                raise CircuitError(
                    f"cannot compose a {other.num_qubits}-qubit circuit onto "
                    f"a {self.num_qubits}-qubit circuit"
                )
            qubit_map = list(range(other.num_qubits))
        else:
            qubit_map = self._qubit_operands(qubits)
            if len(qubit_map) != other.num_qubits:
                raise CircuitError(
                    f"qubit map has {len(qubit_map)} entries for a "
                    f"{other.num_qubits}-qubit circuit"
                )
        if clbits is None:
            if other.num_clbits > self.num_clbits:
                raise CircuitError(
                    f"cannot compose a circuit with {other.num_clbits} clbits "
                    f"onto one with {self.num_clbits}"
                )
            clbit_map = list(range(other.num_clbits))
        else:
            clbit_map = self._clbit_operands(clbits)
            if len(clbit_map) != other.num_clbits:
                raise CircuitError(
                    f"clbit map has {len(clbit_map)} entries for a circuit "
                    f"with {other.num_clbits} clbits"
                )
        for inst in other.data:
            self.data.append(inst.remap(qubit_map, clbit_map))
        return self

    def inverse(self) -> "QuantumCircuit":
        """Return the inverse circuit (gates reversed and inverted).

        Raises
        ------
        CircuitError
            If the circuit contains non-unitary operations.
        """
        inv = QuantumCircuit(name=f"{self.name}_dg")
        for reg in self.qregs:
            inv.add_register(reg)
        for reg in self.cregs:
            inv.add_register(reg)
        for inst in reversed(self.data):
            op = inst.operation
            if isinstance(op, Barrier):
                inv.data.append(inst)
                continue
            if not isinstance(op, Gate):
                raise CircuitError(
                    f"cannot invert non-unitary operation {op.name!r}"
                )
            inv.data.append(
                Instruction(op.inverse(), inst.qubits, (), inst.condition)
            )
        return inv

    def power(self, exponent: int) -> "QuantumCircuit":
        """Return the circuit repeated ``exponent`` times (inverted if < 0)."""
        if exponent == 0:
            empty = self.copy()
            empty.data = []
            return empty
        base = self if exponent > 0 else self.inverse()
        out = base.copy()
        for _ in range(abs(exponent) - 1):
            out.compose(base if exponent > 0 else base)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.data)

    def count_ops(self) -> Dict[str, int]:
        """Return a histogram of operation names."""
        counts: Dict[str, int] = {}
        for inst in self.data:
            counts[inst.name] = counts.get(inst.name, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def size(self, include_directives: bool = False) -> int:
        """Return the number of operations (barriers excluded by default)."""
        if include_directives:
            return len(self.data)
        return sum(1 for inst in self.data if inst.name != "barrier")

    def depth(self) -> int:
        """Return the circuit depth (longest path through bit time-slots)."""
        level: Dict[Tuple[str, int], int] = {}
        max_depth = 0
        for inst in self.data:
            if inst.name == "barrier":
                bits = [("q", q) for q in inst.qubits]
                sync = max((level.get(b, 0) for b in bits), default=0)
                for b in bits:
                    level[b] = sync
                continue
            bits = [("q", q) for q in inst.qubits]
            bits += [("c", c) for c in inst.clbits]
            if inst.condition is not None:
                bits.append(("c", inst.condition[0]))
            depth_here = max((level.get(b, 0) for b in bits), default=0) + 1
            for b in bits:
                level[b] = depth_here
            max_depth = max(max_depth, depth_here)
        return max_depth

    def num_two_qubit_gates(self) -> int:
        """Return the number of multi-qubit gates (the NISQ cost driver)."""
        return sum(
            1
            for inst in self.data
            if inst.operation.is_gate and inst.operation.num_qubits >= 2
        )

    def fingerprint(self) -> str:
        """Return a canonical content hash of the circuit.

        Two circuits share a fingerprint iff they apply the same operations
        (name, parameters, unitary payload, condition) to the same flat bit
        indices over the same bit counts.  Register names, the circuit name
        and object identity do **not** participate, so a rebuilt sweep
        variant hashes identically to the original.  The runtime layer
        (:mod:`repro.runtime`) keys its transpile cache, distribution cache
        and job batching on this value.

        The digest is memoised: one ``execute()`` call hashes each circuit
        once even though planning, distribution keying and transpile keying
        all consult the fingerprint.  The memo is safe against the mutable
        builder API because every mutation path — instruction-list mutation
        (:class:`_TrackedInstructionList`), ``data`` reassignment, register
        addition — invalidates it and bumps a generation counter that
        in-flight hashes check before installing their memo (a mutation
        racing a pool worker's hash can corrupt at most that one in-flight
        lookup, exactly the pre-memo behaviour — never the memo).  A stale
        hash would silently poison the runtime caches, so in-place mutation
        of an existing :class:`Instruction` (unsupported everywhere in this
        codebase) is the one path deliberately left uncovered.
        """
        memo = self._fingerprint_cache
        if memo is not None:
            return memo
        generation = self._fingerprint_generation
        digest = self._content_digest(angles=True)
        if self._fingerprint_generation == generation:
            self._fingerprint_cache = digest
        return digest

    def shape_fingerprint(self) -> str:
        """Return a content hash that leaves out the angles of 1-qubit gates.

        It hashes what :meth:`fingerprint` hashes, except that an
        instruction for which :func:`is_angle_gate` holds contributes its
        gate name, parameter count, operands and condition but not its
        parameter values.  Circuits that differ only in those angles (an
        angle sweep) share it.  The transpile cache keys on it: device
        lowering reads those angles only through the 1-qubit matrices it
        merges.  Parameters of multi-qubit gates stay in the hash.  The
        digest is never equal to a :meth:`fingerprint`, and it is not
        memoised.
        """
        return self._content_digest(angles=False)

    def _content_digest(self, angles: bool) -> str:
        hasher = hashlib.sha256()
        version = "v1" if angles else "shape1"
        hasher.update(f"{version}|{self.num_qubits}|{self.num_clbits}".encode())
        for inst in self.data:
            op = inst.operation
            if angles or not is_angle_gate(inst):
                params = ",".join(repr(float(p)) for p in op.params)
            else:
                params = "~" * len(op.params)
            hasher.update(
                f"|{op.name}/{op.num_qubits}({params})"
                f"q{inst.qubits}c{inst.clbits}?{inst.condition}".encode()
            )
            matrix = getattr(op, "_matrix", None)
            if matrix is not None:
                hasher.update(np.ascontiguousarray(matrix, dtype=complex).tobytes())
        return hasher.hexdigest()

    def has_measurements(self) -> bool:
        """Return ``True`` if the circuit contains any measurement."""
        return any(inst.name == "measure" for inst in self.data)

    def measured_clbits(self) -> List[int]:
        """Return the sorted classical-bit indices written by measurements."""
        return sorted({inst.clbits[0] for inst in self.data if inst.name == "measure"})

    def clbit_label(self, index: int) -> str:
        """Return a ``reg[i]`` display label for a flat clbit index."""
        base = 0
        for reg in self.cregs:
            if index < base + reg.size:
                return f"{reg.name}[{index - base}]"
            base += reg.size
        return f"c[{index}]"

    def qubit_label(self, index: int) -> str:
        """Return a ``reg[i]`` display label for a flat qubit index."""
        base = 0
        for reg in self.qregs:
            if index < base + reg.size:
                return f"{reg.name}[{index - base}]"
            base += reg.size
        return f"q[{index}]"

    def __repr__(self) -> str:
        return (
            f"<QuantumCircuit {self.name!r}: {self.num_qubits} qubits, "
            f"{self.num_clbits} clbits, {len(self.data)} ops>"
        )

    def draw(self) -> str:
        """Return an ASCII drawing of the circuit."""
        from repro.circuits.visualization import draw_circuit

        return draw_circuit(self)
