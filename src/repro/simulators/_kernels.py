"""Shared numerical kernels for the statevector and density-matrix engines.

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


def probability_of_one(state: np.ndarray, qubit: int) -> float:
    """Return P(measuring |1>) on ``qubit`` for a statevector tensor."""
    sliced = np.take(state, 1, axis=qubit)
    return float(np.real(np.vdot(sliced, sliced)))


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
# each column's output amplitudes and norms are computed by a fixed-order
# sum over that column's own amplitudes only (elementwise ufuncs and
# fixed-length axis-0 reductions, never a batch-shaped BLAS call), so the
# floats a column sees are identical whether it runs in a batch of 1, 7
# or 4096, and whichever other columns sit beside it.  That invariance is
# what lets the batched walker evolve one column per history class and
# still match a per-shot walk bit-for-bit (see
# :mod:`repro.simulators._batched`).
#
# Plans are cached so no call re-derives structure: the basis-slice index
# tuples per ``(qubits, ndim)``, and each operator's scalar, monomial or
# dense plan in a bounded cache keyed by its content (a gate rebuilt with
# the same angle, or a Kraus operator of a channel applied again, hits the
# same plan), and likewise each channel's stacked coefficients.  A plan
# holds the operator's own scalars, so the floats are those the uncached
# kernel computed.

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


@functools.lru_cache(maxsize=512)
def _slice_keys(qubits: Tuple[int, ...], ndim: int) -> Tuple[tuple, ...]:
    """Return the index tuples selecting each basis index of ``qubits``."""
    k = len(qubits)
    keys = []
    for index in range(2 ** k):
        key: list = [slice(None)] * ndim
        for position, axis in enumerate(qubits):
            key[axis] = (index >> (k - 1 - position)) & 1
        keys.append(tuple(key))
    return tuple(keys)


_SCALAR = "scalar"
_MONOMIAL = "monomial"
_DENSE = "dense"


def _operator_plan(matrix: np.ndarray) -> tuple:
    """Return the cached ``(kind, data)`` plan of a square operator."""
    return _plan_for_content(matrix.dtype.str, matrix.shape, matrix.tobytes())


@functools.lru_cache(maxsize=256)
def _plan_for_content(dtype: str, shape: Tuple[int, int], data: bytes) -> tuple:
    """Plan the operator with the given content (see :func:`_operator_plan`).

    The structure test is exact (no tolerance), so matrices with equal
    content share one plan.  The plan keeps the matrix's own scalars, so a
    kernel reading it multiplies by exactly the floats it would have read
    from the matrix.
    """
    matrix = np.frombuffer(data, dtype=dtype).reshape(shape)
    dim = shape[0]
    nonzero = matrix != 0
    if np.all(nonzero.sum(axis=1) == 1):
        # Monomial matrix (one nonzero per row): Pauli factors, CX/CZ/SWAP,
        # phase rotations and the scaled-identity Kraus branch that
        # dominates every weak channel.  One multiply per basis slice.
        columns = nonzero.argmax(axis=1)
        coefficients = matrix[np.arange(dim), columns]
        if (columns == np.arange(dim)).all() and (
            coefficients == coefficients[0]
        ).all():
            # Scalar multiple of the identity: one contiguous pass.
            return _SCALAR, coefficients[0]
        return _MONOMIAL, tuple(zip(coefficients, (int(c) for c in columns)))
    return _DENSE, tuple(tuple(row) for row in matrix)


def batched_apply_matrix(
    states: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` matrix to qubit axes of every batched state.

    The contraction is written as elementwise scalar-multiply-adds over
    basis-index views (no reshape copies, no BLAS): each output amplitude
    is a fixed-order ``2^k``-term sum of that trajectory's own amplitudes,
    so results are bitwise identical regardless of the batch width
    (trajectory-wise determinism; see the section note).
    """
    k = len(qubits)
    dim = 2 ** k
    if matrix.shape != (dim, dim):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not act on {k} qubit(s)"
        )
    kind, data = _operator_plan(matrix)
    if kind == _SCALAR:
        return data * states
    keys = _slice_keys(tuple(qubits), states.ndim)
    out = np.empty_like(states)
    if kind == _MONOMIAL:
        for key, (coefficient, column) in zip(keys, data):
            np.multiply(coefficient, states[keys[column]], out=out[key])
        return out
    sources = [states[key] for key in keys]
    for key, row in zip(keys, data):
        acc = out[key]
        np.multiply(row[0], sources[0], out=acc)
        for j in range(1, dim):
            acc += row[j] * sources[j]
    return out


@functools.lru_cache(maxsize=256)
def _plan_branches(contents: Tuple[tuple, ...]) -> tuple:
    """Group a channel's operators for :func:`batched_apply_branches`.

    ``contents`` holds each operator's ``(dtype, shape, bytes)``.  Returns
    ``(dim, groups)``; a group is ``(kind, positions, data)``, where
    ``positions`` are the operators' indices in the channel.  Scalar and
    monomial operators form one ``_MONOMIAL`` group whose data is the
    ``(dim, J)`` source columns and ``(dim, J, 1)`` coefficients of each
    output row; dense operators form one ``_DENSE`` group whose data is
    the ``(dim, dim, J, 1)`` coefficients indexed ``[column, row]``.
    Every coefficient is the operator plan's own scalar.
    """
    dim = contents[0][1][0]
    monomial, dense = [], []
    for position, content in enumerate(contents):
        kind, data = _plan_for_content(*content)
        if kind == _DENSE:
            dense.append((position, data))
            continue
        if kind == _SCALAR:
            data = tuple((data, column) for column in range(dim))
        monomial.append((position, data))
    groups = []
    if monomial:
        positions, plans = zip(*monomial)
        columns = np.array([[plan[row][1] for plan in plans] for row in range(dim)])
        coefficients = np.array(
            [[plan[row][0] for plan in plans] for row in range(dim)]
        )
        groups.append(
            (_MONOMIAL, np.array(positions), (columns, coefficients[..., np.newaxis]))
        )
    if dense:
        positions, plans = zip(*dense)
        coefficients = np.array(
            [
                [[plan[row][column] for plan in plans] for row in range(dim)]
                for column in range(dim)
            ]
        )
        groups.append((_DENSE, np.array(positions), coefficients[..., np.newaxis]))
    return dim, tuple(groups)


def batched_apply_branches(
    states: np.ndarray, operators: Sequence[np.ndarray], qubits: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply each of a channel's operators to every batched state at once.

    Returns ``(branches, norms)``: ``branches`` has shape ``(2, ..., 2, J,
    B)`` with ``branches[..., j, :]`` the result of operator ``j``, and
    ``norms`` is their ``(J, B)`` squared norms.  The operators' target
    amplitudes are stacked so one pass serves the whole channel: a gather
    and a multiply for the monomial operators, ``2^k`` multiply-adds for
    the dense ones.  Each amplitude is the product, or the same ordered
    sum of products, that :func:`batched_apply_matrix` computes for that
    operator, and the norms are one :func:`batched_norm_sq` over the ``J *
    B`` columns, so every float equals the per-operator kernels'.
    """
    dim, groups = _plan_branches(
        tuple((op.dtype.str, op.shape, op.tobytes()) for op in operators)
    )
    qubits = tuple(qubits)
    if dim != 2 ** len(qubits):
        raise SimulationError(
            f"matrix shape {(dim, dim)} does not act on {len(qubits)} qubit(s)"
        )
    num_qubits = states.ndim - 1
    batch = states.shape[-1]
    rest = tuple(axis for axis in range(num_qubits) if axis not in qubits)
    # Target amplitudes as a (rest, dim, B) array: basis index i of the
    # targets reads qubits[0] as its most significant bit.
    source = states.transpose(rest + qubits + (num_qubits,)).reshape(
        -1, dim, batch
    )
    out = np.empty(states.shape[:-1] + (len(operators), batch), dtype=states.dtype)
    # The same layout over ``out``: a view to scatter each group into.
    view = out.transpose(rest + qubits + (num_qubits, num_qubits + 1))
    for kind, positions, data in groups:
        if kind == _MONOMIAL:
            columns, coefficients = data
            values = np.multiply(coefficients, source[:, columns, :])
        else:
            values = np.multiply(data[0], source[:, 0, np.newaxis, np.newaxis, :])
            for column in range(1, dim):
                values += data[column] * source[:, column, np.newaxis, np.newaxis, :]
        index = slice(None) if len(groups) == 1 else positions
        view[..., index, :] = values.reshape(view.shape[:-2] + values.shape[-2:])
    flat = out.reshape(states.shape[:-1] + (-1,))
    return out, batched_norm_sq(flat).reshape(len(operators), batch)


def batched_norm_sq(states: np.ndarray) -> np.ndarray:
    """Return each batched state's squared norm as a ``(B,)`` float array.

    ``sum(re^2) + sum(im^2)`` with each sum an ``einsum`` contraction over
    the amplitude axis: einsum accumulates the contracted index
    sequentially per output element, so the summation order a trajectory
    sees depends only on ``2^n`` — never on the batch width or memory
    layout — keeping norms bitwise batch-invariant.  (A plain
    ``.sum(axis=0)`` would not be: its pairwise blocking switches strategy
    with the array's shape.)
    """
    flat = states.reshape(-1, states.shape[-1])
    real, imag = flat.real, flat.imag
    return np.einsum("ib,ib->b", real, real) + np.einsum("ib,ib->b", imag, imag)


def batched_probability_of_one(states: np.ndarray, qubit: int) -> np.ndarray:
    """Return per-trajectory P(measuring |1>) on ``qubit`` as ``(B,)``."""
    return batched_norm_sq(np.take(states, 1, axis=qubit))


def batched_collapse(
    states: np.ndarray, qubit: int, outcomes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Project ``qubit`` onto per-trajectory ``outcomes`` and renormalise.

    ``outcomes`` is a ``(B,)`` array of 0/1.  Returns ``(collapsed,
    probabilities)`` where trajectory ``b`` was projected onto
    ``outcomes[b]``; zero-probability trajectories come back as zero
    tensors (never NaN).
    """
    batch = states.shape[-1]
    keep = np.zeros((2, batch))
    keep[outcomes, np.arange(batch)] = 1.0
    shape = [1] * states.ndim
    shape[qubit] = 2
    shape[-1] = batch
    projected = states * keep.reshape(shape)
    norm_sq = batched_norm_sq(projected)
    scale = np.ones_like(norm_sq)
    safe = norm_sq > 0.0
    scale[safe] = 1.0 / np.sqrt(norm_sq[safe])
    projected *= scale
    return projected, norm_sq


def kraus_select(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Pick one Kraus branch per trajectory from Born ``weights``.

    ``weights`` is ``(m, B)`` (branch-major), ``uniforms`` is ``(B,)``.
    Trajectory ``b`` selects the first branch ``j`` whose cumulative
    weight exceeds ``uniforms[b]``; float round-off (or a selected branch
    without support) falls back to the last branch with support.  A
    trajectory's branch choice therefore depends only on its own weights
    and draw, whatever the batch holds beside it.
    """
    m = weights.shape[0]
    cumulative = np.cumsum(weights, axis=0)
    choice = (cumulative <= uniforms).sum(axis=0)
    capped = np.minimum(choice, m - 1)
    columns = np.arange(weights.shape[1])
    bad = (choice >= m) | (weights[capped, columns] <= KRAUS_EPS)
    if np.any(bad):
        support = weights > KRAUS_EPS
        if not support.any(axis=0)[bad].all():
            raise SimulationError("Kraus sampling found no branch with support")
        last_supported = (m - 1) - np.argmax(support[::-1], axis=0)
        capped = np.where(bad, last_supported, capped)
    return capped


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
