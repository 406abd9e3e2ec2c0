"""Numerical kernels of the statevector, density-matrix and trajectory engines.

States are stored as rank-``n`` tensors of shape ``(2,) * n`` where tensor
axis ``k`` is qubit ``k``.  Flattening in C order therefore makes qubit 0 the
most-significant bit of the statevector index, matching the bitstring
convention in the README's *Bit-order conventions*.
"""

from __future__ import annotations

import functools
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError


def state_tensor(num_qubits: int, initial: np.ndarray = None) -> np.ndarray:
    """Return the |0...0> state tensor (or reshape a given flat vector)."""
    dim = 2 ** num_qubits
    if initial is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(initial, dtype=complex).reshape(dim).copy()
        norm = np.linalg.norm(state)
        if abs(norm - 1.0) > 1e-8:
            raise SimulationError(f"initial state is not normalised (|psi| = {norm})")
    return state.reshape((2,) * num_qubits)


def apply_matrix(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` matrix to the given tensor axes of ``state``.

    Works for any rank-``n`` tensor whose axes are qubits (statevectors) —
    the density-matrix engine passes a gate's superoperator with its row
    and column axes together.
    """
    k = len(qubits)
    if matrix.shape != (2 ** k, 2 ** k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not act on {k} qubit(s)"
        )
    reshaped = matrix.reshape((2,) * (2 * k))
    state = np.tensordot(reshaped, state, axes=(tuple(range(k, 2 * k)), tuple(qubits)))
    # tensordot puts the new qubit axes first; move them back home.
    return np.moveaxis(state, tuple(range(k)), tuple(qubits))


def collapse(state: np.ndarray, qubit: int, outcome: int) -> Tuple[np.ndarray, float]:
    """Project ``qubit`` onto ``outcome`` and renormalise.

    Returns ``(collapsed_state, probability_of_outcome)``.  The returned
    state is a fresh array; probability 0 returns a zero tensor.
    """
    if outcome not in (0, 1):
        raise SimulationError(f"measurement outcome must be 0 or 1, got {outcome}")
    projected = state.copy()
    index = [slice(None)] * state.ndim
    index[qubit] = 1 - outcome
    projected[tuple(index)] = 0.0
    norm_sq = float(np.real(np.vdot(projected, projected)))
    if norm_sq <= 0.0:
        return projected, 0.0
    return projected / np.sqrt(norm_sq), norm_sq


def flatten(state: np.ndarray) -> np.ndarray:
    """Return the flat statevector (C order: qubit 0 most significant)."""
    return state.reshape(-1)


def basis_label(index: int, num_qubits: int) -> str:
    """Return the bitstring label of basis-state ``index`` (qubit 0 first)."""
    return format(index, f"0{num_qubits}b")


# ----------------------------------------------------------------------
# Batched (shot-axis) kernels
# ----------------------------------------------------------------------
#
# Batched states are rank-``n+1`` tensors of shape ``(2, ..., 2, B)``:
# tensor axis ``k`` is qubit ``k`` and the **last** axis indexes the
# trajectory.  Batch-last keeps every qubit-basis slice contiguous over
# the batch, so the elementwise kernels stream long runs instead of
# strided singles.  Every kernel below is *column-wise deterministic*:
# each column's output amplitudes and sums are computed from that column's
# own amplitudes only, by elementwise ufuncs in a fixed order, never a
# batch-shaped BLAS call or a library reduction.  (NumPy's ``sum`` and
# ``einsum`` may pick their summation order by memory layout; on a
# contiguous width-1 batch they add in a different order than on a wider
# one.  :func:`_column_sums` adds by halving instead.)  The floats a
# column sees are therefore identical whether it runs in a batch of 1, 7
# or 4096, and whichever other columns sit beside it.  That invariance is
# what lets the batched walker evolve one column per history class and
# still match a per-shot walk bit-for-bit (see
# :mod:`repro.simulators._batched`).
#
# One kernel, :func:`batched_apply_stack`, applies every operator: gates
# with one plan for all columns, Kraus branches with one per column.  A
# gate's monomial or dense plan is cached by content (a gate rebuilt with
# the same angle hits the same plan) and holds the matrix's own scalars.

#: Born weights at or below this are treated as unsupported Kraus branches.
KRAUS_EPS = 1e-15


def batched_state_tensor(
    batch: int, num_qubits: int, initial: np.ndarray = None
) -> np.ndarray:
    """Return ``batch`` copies of the |0...0> (or given) state tensor."""
    base = flatten(state_tensor(num_qubits, initial))
    return np.repeat(base[:, np.newaxis], batch, axis=1).reshape(
        (2,) * num_qubits + (batch,)
    )


def _operator_plan(matrix: np.ndarray) -> tuple:
    """Return the cached :func:`batched_apply_stack` plan of a square operator."""
    return _plan_for_content(matrix.dtype.str, matrix.shape, matrix.tobytes())


@functools.lru_cache(maxsize=256)
def _plan_for_content(dtype: str, shape: Tuple[int, int], data: bytes) -> tuple:
    """Plan the operator with the given content: ``(columns, coefficients)``.

    A monomial operator (one nonzero per row: Pauli factors, CX/CZ/SWAP,
    phase rotations, scaled identities) gets each row's source and
    coefficient, any other its dense coefficients; every state of a batch
    shares them.  The structure test is exact, so matrices with equal
    content share one plan, which keeps the matrix's own scalars.
    """
    matrix = np.frombuffer(data, dtype=dtype).reshape(shape)
    nonzero = matrix != 0
    if np.all(nonzero.sum(axis=1) == 1):
        columns = nonzero.argmax(axis=1)
        coefficients = matrix[np.arange(shape[0]), columns]
        return columns[:, np.newaxis], coefficients[:, np.newaxis]
    return None, matrix[..., np.newaxis]


def batched_apply_operator(source: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply a ``2^k x 2^k`` matrix to every column of a :func:`relayout`
    array held over ``k`` targets.

    Each output amplitude is one product (monomial operators) or a
    fixed-order ``2^k``-term sum of that column's own amplitudes, so
    results are bitwise identical regardless of the batch width.
    """
    dim = source.shape[1]
    if matrix.shape != (dim, dim):
        k = dim.bit_length() - 1
        raise SimulationError(f"matrix shape {matrix.shape} does not act on {k} qubit(s)")
    columns, coefficients = _operator_plan(matrix)
    return batched_apply_stack(source, coefficients, columns)


def _column_sums(terms: np.ndarray) -> np.ndarray:
    """Sum a ``(2^m, ...)`` array over its first axis by halving, elementwise."""
    while terms.shape[0] > 1:
        half = terms.shape[0] // 2
        terms = terms[:half] + terms[half:]
    return terms[0]


@functools.lru_cache(maxsize=1024)
def _permutation(layout: tuple, qubits: tuple, num_qubits: int) -> tuple:
    old = [a for a in range(num_qubits) if a not in layout] + [*layout, num_qubits]
    new = [a for a in range(num_qubits) if a not in qubits] + [*qubits, num_qubits]
    return tuple(old.index(axis) for axis in new)


def relayout(
    source: np.ndarray, layout: Sequence[int], qubits: Sequence[int]
) -> np.ndarray:
    """Re-view a batched state array over target ``layout`` as one over ``qubits``.

    The walker holds states as ``(rest, 2^k, B)`` arrays: the other qubits
    in order, then the targets' basis index (its first qubit the most
    significant bit), then the batch; ``()`` is the plain ``(2^n, 1, B)``
    layout.  One copy, none when the targets agree.
    """
    layout, qubits = tuple(layout), tuple(qubits)
    if layout == qubits:
        return source
    num_qubits = (source.shape[0] * source.shape[1]).bit_length() - 1
    tensor = source.reshape((2,) * num_qubits + source.shape[-1:])
    tensor = tensor.transpose(_permutation(layout, qubits, num_qubits))
    return tensor.reshape(-1, 2 ** len(qubits), source.shape[-1])


def batched_target_features(
    source: np.ndarray, pairs: Sequence[Tuple[int, int]] = ()
) -> np.ndarray:
    """Quadratic features of the targets' reduced state, ``(F, B)``.

    ``source`` is a :func:`relayout` array.  Rows ``0..2^k-1`` are the
    targets' basis populations; each ``(r, c)`` in ``pairs`` adds the real
    and then the imaginary part of ``sum conj(a_r) a_c`` over the other
    qubits (all real parts first).  A Born weight ``<psi|M|psi>`` is a
    fixed linear form of these rows.
    """
    real, imag = source.real, source.imag
    terms = [real * real + imag * imag]
    if len(pairs):
        rows, cols = np.asarray(pairs).T
        terms.append(real[:, rows] * real[:, cols] + imag[:, rows] * imag[:, cols])
        terms.append(real[:, rows] * imag[:, cols] - imag[:, rows] * real[:, cols])
    return _column_sums(np.concatenate(terms, axis=1) if len(pairs) else terms[0])


def batched_apply_stack(
    source: np.ndarray, coefficients: np.ndarray, columns: np.ndarray = None
) -> np.ndarray:
    """Apply its own operator to each column of a :func:`relayout` array.

    Dense operators come as ``coefficients[r, c, b]``: output row ``r`` of
    column ``b`` is the ordered sum over ``c`` of ``coefficients[r, c, b] *
    source[:, c, b]``.  Monomial ones come as ``coefficients[r, b]`` with
    source row ``columns[r, b]``: one product per amplitude.
    """
    if columns is not None:
        return coefficients * source[:, columns, np.arange(source.shape[-1])]
    values = coefficients[:, 0] * source[:, np.newaxis, 0]
    for column in range(1, source.shape[1]):
        values += coefficients[:, column] * source[:, np.newaxis, column]
    return values


def pack_counts(clbits: np.ndarray) -> Dict[str, int]:
    """Histogram a ``(B, num_clbits)`` 0/1 matrix into bitstring counts.

    Rows are bit-packed so the unique pass runs on a handful of bytes per
    trajectory instead of Python strings — the vectorised replacement for
    the engines' old per-shot ``counts[key] = counts.get(key, 0) + 1``.
    """
    shots, width = clbits.shape
    if shots == 0:
        return {}
    if width == 0:
        return {"": int(shots)}
    packed = np.packbits(clbits.astype(np.uint8, copy=False), axis=1)
    unique, counts = np.unique(packed, axis=0, return_counts=True)
    rows = np.unpackbits(unique, axis=1, count=width)
    return {
        "".join("1" if bit else "0" for bit in row): int(count)
        for row, count in zip(rows, counts)
    }
