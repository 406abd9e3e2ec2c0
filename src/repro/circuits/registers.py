"""Quantum and classical registers.

Registers are named, ordered collections of bits.  A
:class:`~repro.circuits.QuantumCircuit` owns a flat list of qubits/clbits;
registers provide readable grouping on top of that flat index space, which the
assertion injector uses to keep ancilla bits clearly separated from program
bits (e.g. register names like ``assert_ent_0``).
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Union

from repro.exceptions import RegisterError

_register_counter = itertools.count()


class Bit:
    """A single bit belonging to a register.

    Parameters
    ----------
    register:
        The owning register.
    index:
        Position of this bit inside the register.
    """

    __slots__ = ("register", "index")

    def __init__(self, register: "Register", index: int) -> None:
        self.register = register
        self.index = index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bit):
            return NotImplemented
        return self.register is other.register and self.index == other.index

    def __hash__(self) -> int:
        return hash((id(self.register), self.index))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.register.name}[{self.index}])"


class Qubit(Bit):
    """A quantum bit inside a :class:`QuantumRegister`."""


class Clbit(Bit):
    """A classical bit inside a :class:`ClassicalRegister`."""


class Register:
    """Base class for bit registers.

    Parameters
    ----------
    size:
        Number of bits.
    name:
        Optional name; a unique one is generated when omitted.
    """

    bit_type = Bit
    prefix = "reg"

    def __init__(self, size: int, name: str = "") -> None:
        if size < 1:
            raise RegisterError(f"register size must be >= 1, got {size}")
        if name and not name.replace("_", "").isalnum():
            raise RegisterError(f"invalid register name {name!r}")
        self.size = int(size)
        self.name = name or f"{self.prefix}{next(_register_counter)}"
        self._bits: Optional[List[Bit]] = None

    def _bit_list(self) -> List[Bit]:
        # Built on first use: an ancilla register is mostly addressed by
        # flat index and never needs its Bit objects.
        bits = self._bits
        if bits is None:
            bits = self._bits = [self.bit_type(self, i) for i in range(self.size)]
        return bits

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, key: Union[int, slice]) -> Union[Bit, List[Bit]]:
        if isinstance(key, slice):
            return list(self._bit_list()[key])
        if not -self.size <= key < self.size:
            raise RegisterError(
                f"bit index {key} out of range for register "
                f"{self.name!r} of size {self.size}"
            )
        return self._bit_list()[key]

    def __iter__(self) -> Iterator[Bit]:
        return iter(self._bit_list())

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.size}, {self.name!r})"


class QuantumRegister(Register):
    """A register of qubits."""

    bit_type = Qubit
    prefix = "q"


class ClassicalRegister(Register):
    """A register of classical bits."""

    bit_type = Clbit
    prefix = "c"
