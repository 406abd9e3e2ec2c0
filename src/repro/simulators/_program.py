"""The compiled noisy program both noisy engines walk.

:func:`build_program` lowers a prepared circuit and its noise model once
per run to a flat step list.  Every step carries what its engine needs,
so neither the density-matrix engine nor the batched trajectory walker
re-derives structure per branch or per shot:

* ``(GATE, matrix, qubits, folded, condition)`` — the gate's matrix, its
  operand tuple and the ``(kraus_operators, targets)`` channels the noise
  model attaches to it, as the engine's ``fold`` compiled them;
* ``(MEASURE, qubit, clbit, confusion, terminal, condition)`` —
  ``confusion`` is the readout matrix (``confusion[r][m] = P(recorded r |
  true m)``) or ``None``; ``terminal`` marks a measurement nothing later
  depends on (see below);
* ``(RESET, qubit, condition)``.

``condition`` is the instruction's ``(clbit, value)`` pair or ``None``.
The noise model is queried exactly once per instruction, so a duck-typed
model sees one ``channels_for`` call per gate per run.

A measurement is **terminal** when it is unconditioned, no later step acts
on its qubit (a gate's noise channels included), no later condition reads
its clbit and no later measurement writes that clbit.  Terminal
measurements commute with everything after them, so an engine may take
them all out of the walk (:func:`split_terminal`) and read their joint
outcome once at the end with a :class:`Readout`: the density-matrix
engine from the diagonal of each branch, the trajectory walker with one
uniform per shot.  Measurements the rest of the circuit depends on stay
steps of their own.  The paper's assertions post-select on their ancilla
outcomes after the run, so every measurement in them is terminal.

Both engines fold a gate's channels by one rule, :func:`channel_segments`,
cached per gate (:func:`cached_fold`): the density-matrix engine into
superoperators, the trajectory walker into :class:`BornStep` Kraus sets,
one stochastic choice per segment instead of one per channel.
"""

from __future__ import annotations

import functools
import threading
from typing import List, Optional, Tuple

import numpy as np

from repro.circuits.gates import Gate
from repro.exceptions import SimulationError
from repro.noise.channels import lift_operators
from repro.simulators import _kernels

GATE = "gate"
MEASURE = "measure"
RESET = "reset"

#: Entries each :func:`cached_fold` table holds before it is cleared.
FOLD_CACHE_SIZE = 256

#: Most composed operators one :class:`BornStep` holds; past it a segment
#: continues in the next step.  An ibmqx4 CX composes 16 x 3 x 3 = 144.
MAX_BRANCHES = 256


def build_program(circuit, noise_model, fold) -> List[tuple]:
    """Compile ``circuit.data`` under ``noise_model`` to a flat step list.

    ``fold(qubits, channels)`` compiles each gate's channels.  Barriers
    are dropped.  Raises on non-gate unitaries at compile time, whether or
    not a run would reach them.  Terminal measurements are marked in one
    backward pass over the steps.
    """
    steps: List[tuple] = []
    touched: List[tuple] = []  # the qubits each step acts on
    for inst in circuit.data:
        if inst.name == "barrier":
            continue
        condition = inst.condition
        if inst.name == "measure":
            qubit, clbit = inst.qubits[0], inst.clbits[0]
            confusion = (
                noise_model.readout_confusion(qubit)
                if noise_model is not None
                else None
            )
            steps.append((MEASURE, qubit, clbit, confusion, False, condition))
            touched.append((qubit,))
        elif inst.name == "reset":
            steps.append((RESET, inst.qubits[0], condition))
            touched.append((inst.qubits[0],))
        else:
            op = inst.operation
            if not isinstance(op, Gate):
                raise SimulationError(f"cannot apply non-gate {op.name!r}")
            qubits, channels = tuple(inst.qubits), ()
            if noise_model is not None:
                channels = tuple(
                    (tuple(kraus), tuple(targets))
                    for kraus, targets in noise_model.channels_for(inst)
                )
            steps.append((GATE, op.matrix, qubits, fold(qubits, channels), condition))
            touched.append(qubits + sum((targets for _, targets in channels), ()))
    _mark_terminal(steps, touched)
    return steps


def _mark_terminal(steps: List[tuple], touched: List[tuple]) -> None:
    """Set the ``terminal`` flag of the measurements nothing later depends on."""
    acted, read, written = set(), set(), set()
    for index in range(len(steps) - 1, -1, -1):
        step = steps[index]
        condition = step[-1]
        if step[0] == MEASURE:
            _, qubit, clbit, confusion, _, _ = step
            if (
                condition is None
                and qubit not in acted
                and clbit not in read
                and clbit not in written
            ):
                steps[index] = (MEASURE, qubit, clbit, confusion, True, None)
            written.add(clbit)
        if condition is not None:
            read.add(condition[0])
        acted.update(touched[index])


def split_terminal(steps: List[tuple]) -> Tuple[List[tuple], Optional["Readout"]]:
    """The steps without the terminal measurements, and their :class:`Readout`
    (``None`` when there are none)."""
    terminal = [step for step in steps if step[0] == MEASURE and step[4]]
    if not terminal:
        return steps, None
    walked = [step for step in steps if not (step[0] == MEASURE and step[4])]
    return walked, Readout([step[1:4] for step in terminal])


class Readout:
    """The terminal measurements of a program, read as one joint outcome.

    ``measurements`` are their ``(qubit, clbit, confusion)`` triples in
    program order.  Outcome index ``i`` over :attr:`qubits` has the first
    measurement as its most significant bit; :attr:`bits` holds each
    index's recorded clbit values, one column per measurement.  The
    qubits are distinct, since a measured qubit that is measured again is
    acted on later.
    """

    def __init__(self, measurements) -> None:
        self.qubits = tuple(qubit for qubit, _, _ in measurements)
        self.clbits = np.array([clbit for _, clbit, _ in measurements], dtype=np.intp)
        self.confusions = [
            None if confusion is None
            else tuple(float(x) for x in np.asarray(confusion, dtype=float).ravel())
            for _, _, confusion in measurements
        ]
        count = len(self.qubits)
        shifts = np.arange(count - 1, -1, -1)
        self.bits = ((np.arange(2 ** count)[:, np.newaxis] >> shifts) & 1).astype(
            np.uint8
        )

    def recorded(self, populations: np.ndarray, floor: float = 0.0) -> np.ndarray:
        """Map ``(2^k, ...)`` true-outcome populations of :attr:`qubits` to
        the weights of each recorded outcome.

        Each measurement's confusion acts as a classical 2x2 along its
        axis, ``P(r) = c[r][0] P(0) + c[r][1] P(1)``, elementwise in a fixed
        order, so a column's weights depend on that column alone.

        A positive ``floor`` drops, one measurement at a time in program
        order, what a walk that branches on each measurement drops: a true
        outcome whose probability given the values recorded before it is
        at or below ``floor``, and a confusion entry at or below ``floor``.
        """
        count = len(self.qubits)
        weights = populations
        for axis, confusion in enumerate(self.confusions):
            split = weights.reshape((2 ** axis, 2, 2 ** (count - axis - 1), -1))
            if floor:
                marginal = split.sum(axis=2, keepdims=True)
                total = marginal.sum(axis=1, keepdims=True)
                split = np.where(marginal > floor * total, split, 0.0)
                weights = split.reshape(populations.shape)
            if confusion is None:
                continue
            if floor:
                confusion = tuple(c if c > floor else 0.0 for c in confusion)
            c00, c01, c10, c11 = confusion
            zero, one = split[:, 0], split[:, 1]
            weights = np.stack(
                [c00 * zero + c01 * one, c10 * zero + c11 * one], axis=1
            ).reshape(populations.shape)
        return weights


def channel_segments(qubits: tuple, channels: tuple) -> list:
    """Group a gate's channels into ``[(targets, [operators, ...]), ...]``.

    The first segment acts on the gate's own qubits.  A channel on the
    gate's qubits, or a 1-qubit channel on one operand (lifted to the
    gate's arity), joins the current gate-qubit segment; a channel on
    other qubits, which only a duck-typed model returns, gets a segment of
    its own, so the channels keep their order.
    """
    segments = [(qubits, [])]
    for kraus, targets in channels:
        if targets == qubits:
            operators = kraus
        elif len(targets) == 1 and targets[0] in qubits:
            operators = lift_operators(kraus, qubits.index(targets[0]), len(qubits))
        else:
            segments.append((targets, [kraus]))
            continue
        if segments[-1][0] != qubits:
            segments.append((qubits, []))
        segments[-1][1].append(operators)
    return segments


def cached_fold(build):
    """Memoise a ``build(qubits, channels)`` fold per gate.

    The fold does not depend on the gate angle, so it is keyed by the
    qubits and the identity of the channels' operator tuples.  The entry
    holds those tuples, so their ids stay unique while it lives; a
    :class:`~repro.noise.model.NoiseModel` edited by ``add_*`` resolves to
    a new channel list and misses.  The table is cleared when full, which
    bounds it for models that build fresh operators on every call.
    """
    table: dict = {}
    lock = threading.Lock()

    @functools.wraps(build)
    def fold(qubits, channels):
        key = (qubits, tuple((id(kraus), targets) for kraus, targets in channels))
        with lock:
            cached = table.get(key)
        if cached is None:
            cached = (channels, build(qubits, channels))
            with lock:
                if len(table) >= FOLD_CACHE_SIZE:
                    table.clear()
                table[key] = cached
        return cached[1]

    return fold


def _live(operators) -> list:
    """The operators whose ``K^dagger K`` is not exactly zero."""
    return [k for k in operators if (k.conj().T @ k).any()]


def _check_shapes(channels) -> None:
    """Raise unless every operator is ``2^k x 2^k`` on its ``k`` targets."""
    for kraus, targets in channels:
        dim = 2 ** len(targets)
        for operator in kraus:
            if np.shape(operator) != (dim, dim):
                raise SimulationError(
                    f"matrix shape {np.shape(operator)} does not act on "
                    f"{len(targets)} qubit(s)"
                )


def _global_phase(operators) -> bool:
    """Whether ``operators`` is one multiple of the identity."""
    first, *rest = operators
    return not rest and not (first - first[0, 0] * np.eye(len(first))).any()


@cached_fold
def born_steps(qubits: tuple, channels: tuple) -> tuple:
    """Compile a gate's channels to the trajectory walker's Born steps.

    A segment's channels compose in order (``B_b A_a`` in ``(a, b)``
    order, so branch 0 is every channel's first operator), dead operators
    dropped, splitting past :data:`MAX_BRANCHES`.  A lone multiple of the
    identity, such as a zero-rate depolarizing channel, is a global phase:
    no step at all.
    """
    _check_shapes(channels)
    steps = []
    for targets, group in channel_segments(qubits, channels):
        composed = []
        for kraus in map(_live, group):
            if not kraus:
                raise SimulationError("channel has no Kraus operators")
            if composed and len(composed[-1]) * len(kraus) <= MAX_BRANCHES:
                composed[-1] = _live([b @ a for a in composed[-1] for b in kraus])
            else:
                composed.append(kraus)
        steps.extend(
            BornStep(targets, operators)
            for operators in composed
            if not _global_phase(operators)
        )
    return tuple(steps)


@functools.lru_cache(maxsize=256)
def outcome_step(qubit: int, reset: bool) -> "BornStep":
    """A measurement, or a reset, of ``qubit`` as a two-branch Born step.

    Branch 0 is outcome 1 (``|1><1|``, or ``|0><1|`` for a reset), so a
    row reads 1 when its uniform falls below ``P(1)``; branch 1 is
    ``|0><0|``.
    """
    one = np.zeros((2, 2), dtype=complex)
    one[int(not reset), 1] = 1.0
    return BornStep((qubit,), [one, np.diag([1.0, 0.0]).astype(complex)])


class BornStep:
    """One folded Kraus set on ``targets``, sampled with one uniform.

    Branch ``j``'s weight ``<psi|K_j^dagger K_j|psi>`` is row ``j`` of
    ``forms`` applied to the targets' :meth:`features`: their populations
    when every ``K_j^dagger K_j`` is diagonal (every device model and every
    unitary mixture), plus the off-diagonal parts otherwise.  A single
    operator (``draws`` false) is a plain gate step and takes no uniform.
    """

    def __init__(self, targets: tuple, operators) -> None:
        stack = np.array(operators)
        dim = stack.shape[1]
        off = ~np.eye(dim, dtype=bool)
        forms = np.conj(np.swapaxes(stack, 1, 2)) @ stack
        self.targets, self.operators, self.draws = targets, stack, len(stack) > 1
        self.pairs, self.forms = (), np.diagonal(forms, axis1=1, axis2=2).real
        if forms[:, off].any():
            rows, cols = np.triu_indices(dim, 1)
            self.pairs, upper = list(zip(rows, cols)), forms[:, rows, cols]
            self.forms = np.concatenate([self.forms, 2 * upper.real, -2 * upper.imag], 1)
        self.first_diagonal = None if stack[0][off].any() else np.diagonal(stack[0])
        nonzero = stack != 0
        # Indexed [branch, column, row], so ``coefficients[branches].T`` is
        # :func:`_kernels.batched_apply_stack`'s ``[row, column, b]``.
        self.columns, self.coefficients = None, np.swapaxes(stack, 1, 2)
        if (nonzero.sum(axis=2) <= 1).all():  # monomial, zero rows allowed
            self.columns = nonzero.argmax(axis=2)
            self.coefficients = np.take_along_axis(
                stack, self.columns[..., np.newaxis], axis=2
            )[..., 0]

    def features(self, source: np.ndarray) -> np.ndarray:
        """The ``(F, B)`` features of a :func:`_kernels.relayout` array."""
        return _kernels.batched_target_features(source, self.pairs)

    def weights(self, features: np.ndarray, count: int = None) -> np.ndarray:
        """The ``(J, B)`` weights of the first ``count`` branches (default all):
        the same ordered sums whatever is asked for, clipped at zero."""
        forms = self.forms[:count]
        total = forms[:, :1] * features[0]
        for index in range(1, forms.shape[1]):
            total += forms[:, index:index + 1] * features[index]
        return np.maximum(total, 0.0, out=total)

    def first(self, source: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Every column on branch 0, renormalised by its branch-0 ``weights``."""
        if self.first_diagonal is None:
            zeros = np.zeros(source.shape[-1], dtype=np.intp)
            return self.build(source, zeros, weights)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.first_diagonal[:, np.newaxis] / np.sqrt(weights) * source

    def build(self, source: np.ndarray, branches, weights) -> np.ndarray:
        """Column ``b`` on branch ``branches[b]``, renormalised by ``weights[b]``."""
        shape = (-1,) + (1,) * (self.coefficients.ndim - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            coefficients = self.coefficients[branches] / np.sqrt(weights).reshape(shape)
        columns = None if self.columns is None else self.columns[branches].T
        return _kernels.batched_apply_stack(source, coefficients.T, columns)
