"""Decompose circuits into a native basis gate set.

Every standard gate is rewritten into {u1, u2, u3, cx} (the ibmqx4 basis) or
any basis containing those gates' names.  Single-qubit gates funnel through
the ZYZ/u3 decomposition; two-qubit gates use textbook CX constructions;
Toffoli uses the standard 6-CX network.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Set

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, UnitaryGate, get_gate, u3_angles_from_unitary
from repro.circuits.instructions import Instruction
from repro.exceptions import TranspilerError

#: Gates the decomposer can always express.
_CORE_BASIS = {"u1", "u2", "u3", "cx"}


def decompose_to_basis(
    circuit: QuantumCircuit, basis_gates: Sequence[str]
) -> QuantumCircuit:
    """Return an equivalent circuit using only ``basis_gates``.

    ``measure``, ``reset`` and ``barrier`` pass through unchanged.

    Raises
    ------
    TranspilerError
        If the basis does not contain {u1, u2, u3, cx} (or the circuit uses
        a multi-qubit gate with no known CX construction).
    """
    basis: Set[str] = {g.lower() for g in basis_gates}
    if not _CORE_BASIS <= basis:
        missing = _CORE_BASIS - basis
        raise TranspilerError(
            f"decomposer requires the core basis {_CORE_BASIS}; missing {missing}"
        )
    out = circuit.copy()
    out.data = []
    for inst in circuit.data:
        out.data.extend(decompose_instruction(inst, basis))
    return out


def decompose_instruction(inst: Instruction, basis: Set[str]) -> List[Instruction]:
    """Return what :func:`decompose_to_basis` turns ``inst`` into.

    ``basis`` is the lower-cased basis name set.  ``measure``, ``reset``,
    ``barrier`` and basis gates (other than explicit unitaries) come back
    unchanged; a 1-qubit gate otherwise becomes exactly one u1/u2/u3.
    """
    if inst.name in {"measure", "reset", "barrier"}:
        return [inst]
    if inst.name in basis and not isinstance(inst.operation, UnitaryGate):
        return [inst]
    return _decompose_instruction(inst, basis)


def _decompose_instruction(inst: Instruction, basis: Set[str]) -> List[Instruction]:
    op = inst.operation
    if not isinstance(op, Gate):
        raise TranspilerError(f"cannot decompose non-gate {op.name!r}")
    if op.num_qubits == 1:
        return _one_qubit(inst)
    if op.num_qubits == 2:
        return _two_qubit(inst, basis)
    if op.num_qubits == 3:
        return _three_qubit(inst, basis)
    raise TranspilerError(
        f"no decomposition for {op.num_qubits}-qubit gate {op.name!r}"
    )


def _u(name_params, qubit: int, condition=None) -> Instruction:
    name, params = name_params
    return Instruction(get_gate(name, params), (qubit,), (), condition)


def _cx(control: int, target: int, condition=None) -> Instruction:
    return Instruction(get_gate("cx"), (control, target), (), condition)


def _one_qubit(inst: Instruction) -> List[Instruction]:
    """Rewrite a 1-qubit gate as a single u1/u2/u3."""
    op = inst.operation
    qubit = inst.qubits[0]
    theta, phi, lam, _ = u3_angles_from_unitary(op.matrix)
    return [
        _u(_canonical_u(theta, phi, lam), qubit, inst.condition)
    ]


def _canonical_u(theta: float, phi: float, lam: float):
    """Pick the cheapest of u1/u2/u3 for the given Euler angles."""
    two_pi = 2.0 * math.pi
    theta_mod = theta % two_pi
    if math.isclose(theta_mod, 0.0, abs_tol=1e-10) or math.isclose(
        theta_mod, two_pi, abs_tol=1e-10
    ):
        return ("u1", ((phi + lam) % two_pi,))
    if math.isclose(theta_mod, math.pi / 2.0, abs_tol=1e-10):
        return ("u2", (phi % two_pi, lam % two_pi))
    return ("u3", (theta, phi, lam))


def _two_qubit(inst: Instruction, basis: Set[str]) -> List[Instruction]:
    op = inst.operation
    a, b = inst.qubits
    cond = inst.condition
    name = op.name
    if name == "cx":
        return [inst]
    if name == "cz":
        return [
            _u(("u2", (0.0, math.pi)), b, cond),  # H
            _cx(a, b, cond),
            _u(("u2", (0.0, math.pi)), b, cond),  # H
        ]
    if name == "cy":
        return [
            _u(("u1", (-math.pi / 2.0,)), b, cond),  # Sdg
            _cx(a, b, cond),
            _u(("u1", (math.pi / 2.0,)), b, cond),  # S
        ]
    if name == "ch":
        # CH = (I (x) Ry(pi/4)) CX (I (x) Ry(-pi/4)) up to phase on |1x>:
        # use the exact construction S,H,T / CX / Tdg,H,Sdg on the target.
        return [
            _u(("u1", (math.pi / 2.0,)), b, cond),                  # S
            _u(("u2", (0.0, math.pi)), b, cond),                    # H
            _u(("u1", (math.pi / 4.0,)), b, cond),                  # T
            _cx(a, b, cond),
            _u(("u1", (-math.pi / 4.0,)), b, cond),                 # Tdg
            _u(("u2", (0.0, math.pi)), b, cond),                    # H
            _u(("u1", (-math.pi / 2.0,)), b, cond),                 # Sdg
        ]
    if name == "swap":
        return [_cx(a, b, cond), _cx(b, a, cond), _cx(a, b, cond)]
    if name == "iswap":
        # iSWAP = (S (x) S) . (H (x) I) . CX(a,b) . CX(b,a) . (I (x) H)
        return [
            _u(("u1", (math.pi / 2.0,)), a, cond),  # S
            _u(("u1", (math.pi / 2.0,)), b, cond),  # S
            _u(("u2", (0.0, math.pi)), a, cond),    # H
            _cx(a, b, cond),
            _cx(b, a, cond),
            _u(("u2", (0.0, math.pi)), b, cond),    # H
        ]
    if name == "cp":
        (lam,) = op.params
        return [
            _u(("u1", (lam / 2.0,)), a, cond),
            _cx(a, b, cond),
            _u(("u1", (-lam / 2.0,)), b, cond),
            _cx(a, b, cond),
            _u(("u1", (lam / 2.0,)), b, cond),
        ]
    if name == "crz":
        (theta,) = op.params
        return [
            _u(("u1", (theta / 2.0,)), b, cond),
            _cx(a, b, cond),
            _u(("u1", (-theta / 2.0,)), b, cond),
            _cx(a, b, cond),
        ]
    if name == "crx":
        (theta,) = op.params
        # CRX = H_b . CRZ(theta) . H_b
        return [
            _u(("u2", (0.0, math.pi)), b, cond),
            *_two_qubit(
                Instruction(get_gate("crz", (theta,)), (a, b), (), cond), basis
            ),
            _u(("u2", (0.0, math.pi)), b, cond),
        ]
    if name == "cry":
        (theta,) = op.params
        return [
            _u(("u3", (theta / 2.0, 0.0, 0.0)), b, cond),   # Ry(theta/2)
            _cx(a, b, cond),
            _u(("u3", (-theta / 2.0, 0.0, 0.0)), b, cond),  # Ry(-theta/2)
            _cx(a, b, cond),
        ]
    if name == "cu3":
        theta, phi, lam = op.params
        return [
            _u(("u1", ((lam + phi) / 2.0,)), a, cond),
            _u(("u1", ((lam - phi) / 2.0,)), b, cond),
            _cx(a, b, cond),
            _u(("u3", (-theta / 2.0, 0.0, -(phi + lam) / 2.0)), b, cond),
            _cx(a, b, cond),
            _u(("u3", (theta / 2.0, phi, 0.0)), b, cond),
        ]
    if name == "rzz":
        (theta,) = op.params
        return [
            _cx(a, b, cond),
            _u(("u1", (theta,)), b, cond),
            _cx(a, b, cond),
        ]
    if name == "rxx":
        (theta,) = op.params
        # RXX = (H (x) H) RZZ(theta) (H (x) H)
        h_a = _u(("u2", (0.0, math.pi)), a, cond)
        h_b = _u(("u2", (0.0, math.pi)), b, cond)
        return [
            h_a,
            h_b,
            _cx(a, b, cond),
            _u(("u1", (theta,)), b, cond),
            _cx(a, b, cond),
            _u(("u2", (0.0, math.pi)), a, cond),
            _u(("u2", (0.0, math.pi)), b, cond),
        ]
    if isinstance(op, UnitaryGate):
        raise TranspilerError(
            "generic 2-qubit unitary synthesis is not implemented; express "
            f"{op.name!r} with standard gates"
        )
    raise TranspilerError(f"no decomposition rule for 2-qubit gate {name!r}")


def _three_qubit(inst: Instruction, basis: Set[str]) -> List[Instruction]:
    op = inst.operation
    cond = inst.condition
    if op.name == "ccx":
        c1, c2, t = inst.qubits
        h = ("u2", (0.0, math.pi))
        t_gate = ("u1", (math.pi / 4.0,))
        tdg = ("u1", (-math.pi / 4.0,))
        return [
            _u(h, t, cond),
            _cx(c2, t, cond),
            _u(tdg, t, cond),
            _cx(c1, t, cond),
            _u(t_gate, t, cond),
            _cx(c2, t, cond),
            _u(tdg, t, cond),
            _cx(c1, t, cond),
            _u(t_gate, c2, cond),
            _u(t_gate, t, cond),
            _u(h, t, cond),
            _cx(c1, c2, cond),
            _u(t_gate, c1, cond),
            _u(tdg, c2, cond),
            _cx(c1, c2, cond),
        ]
    if op.name == "cswap":
        c, a, b = inst.qubits
        # CSWAP = CX(b,a) . CCX(c,a,b) . CX(b,a)
        ccx = Instruction(get_gate("ccx"), (c, a, b), (), cond)
        return [_cx(b, a, cond), *_three_qubit(ccx, basis), _cx(b, a, cond)]
    raise TranspilerError(f"no decomposition rule for 3-qubit gate {op.name!r}")
