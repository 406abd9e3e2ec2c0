"""Gate definitions and exact unitary matrices.

The matrix conventions follow the de-facto standard used by mainstream SDKs:

* ``u3(theta, phi, lam)`` is the generic single-qubit rotation
  ``[[cos(t/2), -e^{i lam} sin(t/2)], [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]]``.
* Multi-qubit gate matrices are written in the basis ``|q_first ... q_last>``
  where the *first* operand is the most-significant bit.  For example
  ``CX(control, target)`` is ``diag(I, X)`` in the ``|control, target>`` basis.

All matrices are returned as fresh ``numpy`` arrays so callers may mutate them
safely.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GateError

SQRT2_INV = 1.0 / math.sqrt(2.0)

#: Tolerance used for unitarity and equality checks on gate matrices.
MATRIX_ATOL = 1e-10


# ---------------------------------------------------------------------------
# Matrix constructors
# ---------------------------------------------------------------------------

def identity_matrix() -> np.ndarray:
    """Return the single-qubit identity matrix."""
    return np.eye(2, dtype=complex)


def x_matrix() -> np.ndarray:
    """Return the Pauli-X (NOT) matrix."""
    return np.array([[0, 1], [1, 0]], dtype=complex)


def y_matrix() -> np.ndarray:
    """Return the Pauli-Y matrix."""
    return np.array([[0, -1j], [1j, 0]], dtype=complex)


def z_matrix() -> np.ndarray:
    """Return the Pauli-Z matrix."""
    return np.array([[1, 0], [0, -1]], dtype=complex)


def h_matrix() -> np.ndarray:
    """Return the Hadamard matrix."""
    return np.array([[SQRT2_INV, SQRT2_INV], [SQRT2_INV, -SQRT2_INV]], dtype=complex)


def s_matrix() -> np.ndarray:
    """Return the phase gate S = sqrt(Z)."""
    return np.array([[1, 0], [0, 1j]], dtype=complex)


def sdg_matrix() -> np.ndarray:
    """Return the inverse phase gate S†."""
    return np.array([[1, 0], [0, -1j]], dtype=complex)


def t_matrix() -> np.ndarray:
    """Return the T gate (pi/8 gate)."""
    return np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)


def tdg_matrix() -> np.ndarray:
    """Return the inverse T gate."""
    return np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)


def sx_matrix() -> np.ndarray:
    """Return the sqrt(X) gate."""
    return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def sxdg_matrix() -> np.ndarray:
    """Return the inverse sqrt(X) gate."""
    return 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex)


def rx_matrix(theta: float) -> np.ndarray:
    """Return the rotation about the X axis by ``theta``."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    """Return the rotation about the Y axis by ``theta``."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    """Return the rotation about the Z axis by ``theta``."""
    e_minus = cmath.exp(-0.5j * theta)
    e_plus = cmath.exp(0.5j * theta)
    return np.array([[e_minus, 0], [0, e_plus]], dtype=complex)


def phase_matrix(lam: float) -> np.ndarray:
    """Return the phase gate ``diag(1, e^{i lam})`` (aka ``u1``)."""
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def u2_matrix(phi: float, lam: float) -> np.ndarray:
    """Return the ``u2`` gate: ``u3(pi/2, phi, lam)``."""
    return u3_matrix(math.pi / 2.0, phi, lam)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Return the generic single-qubit gate ``u3(theta, phi, lam)``."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def cx_matrix() -> np.ndarray:
    """Return the CNOT matrix in the ``|control, target>`` basis."""
    return controlled_matrix(x_matrix())


def cy_matrix() -> np.ndarray:
    """Return the controlled-Y matrix."""
    return controlled_matrix(y_matrix())


def cz_matrix() -> np.ndarray:
    """Return the controlled-Z matrix."""
    return controlled_matrix(z_matrix())


def ch_matrix() -> np.ndarray:
    """Return the controlled-Hadamard matrix."""
    return controlled_matrix(h_matrix())


def swap_matrix() -> np.ndarray:
    """Return the SWAP matrix."""
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def iswap_matrix() -> np.ndarray:
    """Return the iSWAP matrix."""
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def cp_matrix(lam: float) -> np.ndarray:
    """Return the controlled-phase matrix ``diag(1, 1, 1, e^{i lam})``."""
    return controlled_matrix(phase_matrix(lam))


def crx_matrix(theta: float) -> np.ndarray:
    """Return the controlled-RX matrix."""
    return controlled_matrix(rx_matrix(theta))


def cry_matrix(theta: float) -> np.ndarray:
    """Return the controlled-RY matrix."""
    return controlled_matrix(ry_matrix(theta))


def crz_matrix(theta: float) -> np.ndarray:
    """Return the controlled-RZ matrix."""
    return controlled_matrix(rz_matrix(theta))


def cu3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Return the controlled-``u3`` matrix."""
    return controlled_matrix(u3_matrix(theta, phi, lam))


def rzz_matrix(theta: float) -> np.ndarray:
    """Return the two-qubit ZZ-rotation ``exp(-i theta/2 Z (x) Z)``."""
    e_minus = cmath.exp(-0.5j * theta)
    e_plus = cmath.exp(0.5j * theta)
    return np.diag([e_minus, e_plus, e_plus, e_minus]).astype(complex)


def rxx_matrix(theta: float) -> np.ndarray:
    """Return the two-qubit XX-rotation ``exp(-i theta/2 X (x) X)``."""
    c = math.cos(theta / 2.0)
    s = -1j * math.sin(theta / 2.0)
    mat = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        mat[i, i] = c
        mat[i, 3 - i] = s
    return mat


def ccx_matrix() -> np.ndarray:
    """Return the Toffoli (CCX) matrix in the ``|c1, c2, t>`` basis."""
    return controlled_matrix(cx_matrix())


def cswap_matrix() -> np.ndarray:
    """Return the Fredkin (CSWAP) matrix in the ``|c, t1, t2>`` basis."""
    return controlled_matrix(swap_matrix())


def controlled_matrix(unitary: np.ndarray) -> np.ndarray:
    """Return the controlled version of ``unitary``.

    The control is prepended as the most-significant qubit:
    ``diag(I, unitary)``.
    """
    dim = unitary.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = unitary
    return out


# ---------------------------------------------------------------------------
# Matrix predicates and decompositions
# ---------------------------------------------------------------------------

def is_unitary_matrix(matrix: np.ndarray, atol: float = MATRIX_ATOL) -> bool:
    """Return ``True`` if ``matrix`` is square, a power-of-two dim, unitary."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    dim = matrix.shape[0]
    if dim == 0 or dim & (dim - 1):
        return False
    if dim == 2:
        # ``np.allclose``'s test, |x - y| <= atol + 1e-5 |y|, on the entries
        # of M M^dagger against I, in Python scalars: the transpiler checks
        # every merged 1-qubit run, and NumPy's call overhead dominates there.
        (a, b), (c, d) = matrix.tolist()
        diagonal_atol = atol + 1e-5
        return (
            abs(a * a.conjugate() + b * b.conjugate() - 1) <= diagonal_atol
            and abs(c * c.conjugate() + d * d.conjugate() - 1) <= diagonal_atol
            and abs(a * c.conjugate() + b * d.conjugate()) <= atol
            and abs(c * a.conjugate() + d * b.conjugate()) <= atol
        )
    return np.allclose(matrix @ matrix.conj().T, np.eye(dim), atol=atol)


def matrices_equal_up_to_phase(
    a: np.ndarray, b: np.ndarray, atol: float = 1e-8
) -> bool:
    """Return ``True`` if ``a == e^{i phi} b`` for some global phase ``phi``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    # Find the largest entry of b to fix the phase robustly.
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = a[idx] / b[idx]
    if not math.isclose(abs(phase), 1.0, abs_tol=1e-6):
        return False
    return bool(np.allclose(a, phase * b, atol=atol))


def euler_zyz_angles(unitary: np.ndarray) -> Tuple[float, float, float, float]:
    """Decompose a 1-qubit unitary as ``e^{i g} Rz(phi) Ry(theta) Rz(lam)``.

    Returns ``(theta, phi, lam, global_phase)``.
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (2, 2):
        raise GateError(f"expected a 2x2 matrix, got shape {unitary.shape}")
    if not is_unitary_matrix(unitary, atol=1e-8):
        raise GateError("matrix is not unitary")
    # Remove the global phase: det(U) = e^{2ig} for U in U(2).
    det = np.linalg.det(unitary)
    global_phase = 0.5 * cmath.phase(det)
    su2 = unitary * cmath.exp(-1j * global_phase)
    # su2 = [[cos(t/2) e^{-i(phi+lam)/2}, -sin(t/2) e^{-i(phi-lam)/2}],
    #        [sin(t/2) e^{ i(phi-lam)/2},  cos(t/2) e^{ i(phi+lam)/2}]]
    theta = 2.0 * math.atan2(abs(su2[1, 0]), abs(su2[0, 0]))
    if abs(su2[0, 0]) > MATRIX_ATOL and abs(su2[1, 0]) > MATRIX_ATOL:
        phi_plus_lam = 2.0 * cmath.phase(su2[1, 1])
        phi_minus_lam = 2.0 * cmath.phase(su2[1, 0])
        phi = 0.5 * (phi_plus_lam + phi_minus_lam)
        lam = 0.5 * (phi_plus_lam - phi_minus_lam)
    elif abs(su2[1, 0]) <= MATRIX_ATOL:
        # Diagonal: only phi + lam matters; put all of it in phi.
        phi = 2.0 * cmath.phase(su2[1, 1])
        lam = 0.0
    else:
        # Anti-diagonal: only phi - lam matters; put all of it in phi.
        phi = 2.0 * cmath.phase(su2[1, 0])
        lam = 0.0
    return theta, phi, lam, global_phase


def u3_angles_from_unitary(unitary: np.ndarray) -> Tuple[float, float, float, float]:
    """Decompose a 1-qubit unitary as ``e^{i g} u3(theta, phi, lam)``.

    Returns ``(theta, phi, lam, global_phase)``.  Because
    ``u3(t, p, l) = e^{i(p+l)/2} Rz(p) Ry(t) Rz(l)``, this is a thin wrapper
    around :func:`euler_zyz_angles` with the phase adjusted.
    """
    theta, phi, lam, zyz_phase = euler_zyz_angles(unitary)
    return theta, phi, lam, zyz_phase - 0.5 * (phi + lam)


# ---------------------------------------------------------------------------
# Operation / Gate classes
# ---------------------------------------------------------------------------

class Operation:
    """Base class for anything that can be applied to circuit bits.

    Parameters
    ----------
    name:
        Canonical lower-case operation name (e.g. ``"cx"``).
    num_qubits:
        Number of qubit operands.
    num_clbits:
        Number of classical-bit operands (only measurement uses this).
    params:
        Real-valued parameters, e.g. rotation angles.
    """

    def __init__(
        self,
        name: str,
        num_qubits: int,
        num_clbits: int = 0,
        params: Sequence[float] = (),
    ) -> None:
        self.name = name
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.params = tuple(map(float, params))

    @property
    def is_gate(self) -> bool:
        """Return ``True`` for unitary operations."""
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operation):
            return NotImplemented
        return (
            self.name == other.name
            and self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and len(self.params) == len(other.params)
            and all(
                math.isclose(a, b, abs_tol=1e-12)
                for a, b in zip(self.params, other.params)
            )
        )

    def __hash__(self) -> int:
        return hash((self.name, self.num_qubits, self.num_clbits, self.params))

    def __repr__(self) -> str:
        if self.params:
            args = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{type(self).__name__}({self.name!r}, params=({args}))"
        return f"{type(self).__name__}({self.name!r})"


class Gate(Operation):
    """A unitary operation with a concrete matrix.

    Standard gates are created through :func:`get_gate` or the
    :class:`~repro.circuits.QuantumCircuit` builder methods; arbitrary
    unitaries through :class:`UnitaryGate`.  A gate is never mutated in
    place: :func:`get_gate` hands every caller the same instance of a
    parameterless standard gate.
    """

    def __init__(
        self,
        name: str,
        num_qubits: int,
        params: Sequence[float] = (),
        matrix_fn: Optional[Callable[..., np.ndarray]] = None,
    ) -> None:
        super().__init__(name, num_qubits, 0, params)
        self._matrix_fn = matrix_fn

    @property
    def is_gate(self) -> bool:
        return True

    @property
    def matrix(self) -> np.ndarray:
        """Return the unitary matrix of this gate."""
        if self._matrix_fn is None:
            raise GateError(f"gate {self.name!r} has no matrix")
        return self._matrix_fn(*self.params)

    def inverse(self) -> "Gate":
        """Return the inverse gate, preserving a standard name if possible."""
        return _invert_gate(self)

    def copy(self) -> "Gate":
        """Return a shallow copy of this gate."""
        return Gate(self.name, self.num_qubits, self.params, self._matrix_fn)


class UnitaryGate(Gate):
    """A gate defined by an explicit unitary matrix.

    Parameters
    ----------
    matrix:
        A ``2^k x 2^k`` unitary matrix.
    label:
        Optional display name; defaults to ``"unitary"``.
    """

    def __init__(self, matrix: np.ndarray, label: str = "unitary") -> None:
        matrix = np.asarray(matrix, dtype=complex)
        if not is_unitary_matrix(matrix, atol=1e-8):
            raise GateError("UnitaryGate requires a unitary matrix")
        num_qubits = int(round(math.log2(matrix.shape[0])))
        super().__init__(label, num_qubits, (), None)
        self._matrix = matrix.copy()

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix.copy()

    def inverse(self) -> "UnitaryGate":
        return UnitaryGate(self._matrix.conj().T, label=f"{self.name}_dg")

    def copy(self) -> "UnitaryGate":
        return UnitaryGate(self._matrix, label=self.name)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UnitaryGate):
            return self.name == other.name and np.allclose(
                self._matrix, other._matrix, atol=MATRIX_ATOL
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name, self.num_qubits))


class Measure(Operation):
    """Projective measurement of one qubit into one classical bit."""

    def __init__(self) -> None:
        super().__init__("measure", 1, 1)


class Reset(Operation):
    """Reset a qubit to |0> (measure and conditionally flip)."""

    def __init__(self) -> None:
        super().__init__("reset", 1, 0)


class Barrier(Operation):
    """A no-op fence that blocks transpiler reordering across it."""

    def __init__(self, num_qubits: int) -> None:
        super().__init__("barrier", num_qubits, 0)


# ---------------------------------------------------------------------------
# Standard gate registry
# ---------------------------------------------------------------------------

#: name -> (num_qubits, num_params, matrix function)
_STANDARD: Dict[str, Tuple[int, int, Callable[..., np.ndarray]]] = {
    "id": (1, 0, identity_matrix),
    "x": (1, 0, x_matrix),
    "y": (1, 0, y_matrix),
    "z": (1, 0, z_matrix),
    "h": (1, 0, h_matrix),
    "s": (1, 0, s_matrix),
    "sdg": (1, 0, sdg_matrix),
    "t": (1, 0, t_matrix),
    "tdg": (1, 0, tdg_matrix),
    "sx": (1, 0, sx_matrix),
    "sxdg": (1, 0, sxdg_matrix),
    "rx": (1, 1, rx_matrix),
    "ry": (1, 1, ry_matrix),
    "rz": (1, 1, rz_matrix),
    "p": (1, 1, phase_matrix),
    "u1": (1, 1, phase_matrix),
    "u2": (1, 2, u2_matrix),
    "u3": (1, 3, u3_matrix),
    "cx": (2, 0, cx_matrix),
    "cy": (2, 0, cy_matrix),
    "cz": (2, 0, cz_matrix),
    "ch": (2, 0, ch_matrix),
    "swap": (2, 0, swap_matrix),
    "iswap": (2, 0, iswap_matrix),
    "cp": (2, 1, cp_matrix),
    "crx": (2, 1, crx_matrix),
    "cry": (2, 1, cry_matrix),
    "crz": (2, 1, crz_matrix),
    "cu3": (2, 3, cu3_matrix),
    "rxx": (2, 1, rxx_matrix),
    "rzz": (2, 1, rzz_matrix),
    "ccx": (3, 0, ccx_matrix),
    "cswap": (3, 0, cswap_matrix),
}

#: Gates whose conjugation action maps Paulis to Paulis (up to sign).
CLIFFORD_GATE_NAMES = frozenset(
    {"id", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg", "cx", "cy", "cz", "swap"}
)

#: (name, negate-all-params) pairs for parameterised self-inverse-by-negation
#: gates, plus explicit name swaps for fixed gates.
_INVERSE_NAME = {
    "id": "id",
    "x": "x",
    "y": "y",
    "z": "z",
    "h": "h",
    "s": "sdg",
    "sdg": "s",
    "t": "tdg",
    "tdg": "t",
    "sx": "sxdg",
    "sxdg": "sx",
    "cx": "cx",
    "cy": "cy",
    "cz": "cz",
    "ch": "ch",
    "swap": "swap",
    "ccx": "ccx",
    "cswap": "cswap",
}

_NEGATE_PARAM_GATES = frozenset(
    {"rx", "ry", "rz", "p", "u1", "cp", "crx", "cry", "crz", "rxx", "rzz"}
)


def standard_gate_names() -> Iterable[str]:
    """Return the names of all registered standard gates."""
    return sorted(_STANDARD)


#: name -> the one shared instance of a parameterless standard gate, each
#: created on its first :func:`get_gate` call.
_SHARED_GATES: Dict[str, Gate] = {}


def get_gate(name: str, params: Sequence[float] = ()) -> Gate:
    """Look up a standard gate by ``name`` with the given ``params``.

    A parameterless gate (``"cx"``, ``"h"``, ...) is one shared instance,
    created on first use; gates are immutable, so sharing is safe, and
    :meth:`Gate.copy` or :meth:`Gate.inverse` give a distinct object.

    Raises
    ------
    GateError
        If the name is unknown or the parameter count is wrong.
    """
    key = name.lower()
    if len(params) == 0:
        shared = _SHARED_GATES.get(key)
        if shared is not None:
            return shared
    if key not in _STANDARD:
        raise GateError(f"unknown gate {name!r}")
    num_qubits, num_params, matrix_fn = _STANDARD[key]
    if len(params) != num_params:
        raise GateError(
            f"gate {name!r} expects {num_params} parameter(s), got {len(params)}"
        )
    gate = Gate(key, num_qubits, params, matrix_fn)
    if not num_params:
        _SHARED_GATES[key] = gate
    return gate


def is_clifford_gate(operation: Operation) -> bool:
    """Return ``True`` if ``operation`` is a Clifford-group gate.

    Parameterised rotations are recognised as Clifford only when the angle is
    an exact multiple of ``pi/2`` — the stabilizer simulator rejects anything
    else.
    """
    if operation.name in CLIFFORD_GATE_NAMES:
        return True
    if operation.name in {"rz", "p", "u1"} and operation.params:
        angle = operation.params[0] % (2.0 * math.pi)
        return any(
            math.isclose(angle, k * math.pi / 2.0, abs_tol=1e-12) for k in range(5)
        )
    return False


def _invert_gate(gate: Gate) -> Gate:
    """Return the inverse of a gate, preferring a named standard gate."""
    if gate.name in _INVERSE_NAME:
        return get_gate(_INVERSE_NAME[gate.name], gate.params).copy()
    if gate.name in _NEGATE_PARAM_GATES:
        return get_gate(gate.name, tuple(-p for p in gate.params))
    if gate.name == "u2":
        phi, lam = gate.params
        return get_gate("u3", (-math.pi / 2.0, -lam, -phi))
    if gate.name in {"u3", "cu3"}:
        theta, phi, lam = gate.params
        return get_gate(gate.name, (-theta, -lam, -phi))
    if gate.name == "iswap":
        return UnitaryGate(iswap_matrix().conj().T, label="iswap_dg")
    # Fallback: invert the concrete matrix.
    return UnitaryGate(gate.matrix.conj().T, label=f"{gate.name}_dg")
