"""Quantum-circuit intermediate representation.

This package provides the circuit substrate on which the runtime-assertion
library (:mod:`repro.core`) is built: gate definitions with exact unitary
matrices, quantum/classical registers, a :class:`~repro.circuits.QuantumCircuit`
builder, a standard algorithm library, OpenQASM 2.0 import/export and a text
drawer.
"""

from repro.circuits.gates import (
    Barrier,
    Gate,
    Measure,
    Operation,
    Reset,
    UnitaryGate,
    controlled_matrix,
    euler_zyz_angles,
    get_gate,
    is_clifford_gate,
    is_unitary_matrix,
    standard_gate_names,
    u3_angles_from_unitary,
)
from repro.circuits.registers import Bit, Clbit, ClassicalRegister, QuantumRegister, Qubit
from repro.circuits.instructions import Instruction
from repro.circuits.circuit import QuantumCircuit
from repro.circuits import library

__all__ = [
    "Barrier",
    "Bit",
    "ClassicalRegister",
    "Clbit",
    "Gate",
    "Instruction",
    "Measure",
    "Operation",
    "QuantumCircuit",
    "QuantumRegister",
    "Qubit",
    "Reset",
    "UnitaryGate",
    "controlled_matrix",
    "euler_zyz_angles",
    "get_gate",
    "is_clifford_gate",
    "is_unitary_matrix",
    "library",
    "standard_gate_names",
    "u3_angles_from_unitary",
]
