"""Batch-axis trajectory execution shared by the sampling engines.

This module is how the
:class:`~repro.noise.trajectories.TrajectorySimulator` and the statevector
engine's post-``max_branches`` fallback sample shots: instead of
re-walking the circuit once per shot in Python, all shots of a
``max_batch`` tile advance together through the batched kernels in
:mod:`repro.simulators._kernels`.

History classes
---------------
Two trajectories that have made the same Kraus, measurement and reset
choices so far hold bit-identical states, so the walker stores one state
column per **history class** (a batch-last ``(2, ..., 2, C)`` tensor) plus
a ``(B,)`` row-to-class map, and its cost follows the number of distinct
histories ``C`` rather than the number of shots ``B``.  The walker runs
the compiled program of :mod:`repro.simulators._program`: gates act on the
class columns, and every stochastic step (a noisy gate's channels folded
into one Kraus set per segment, a mid-circuit measurement, a reset) is
one Born-weighted step, :func:`_born_step`: the rows that keep branch 0
keep their class, and only the ``(class, branch)`` columns the other rows
choose are built, each from its parent column with the arithmetic the
row would have done alone.  Readout flips touch only the rows' classical
bits.  A classically conditioned step first splits the classes on the
condition bit and acts on the passing classes only.  The terminal
measurements are taken out of the walk
(:func:`~repro.simulators._program.split_terminal`); after the last step
each row draws its recorded bits for all of them at once, from its
class's joint populations of the measured qubits composed with the
confusions (:class:`~repro.simulators._program.Readout`).  Weak device
noise keeps ``C`` small: on the paper's ibmqx4 assertion circuits a
1024-shot tile holds tens to a few hundred classes.

Why this is exact: every batched kernel is **column-wise deterministic** —
a column's output floats depend only on that column's input, never on the
batch width or on the other columns (see the kernels module).  Evolving a
class column once therefore gives, bit for bit, the state each of its rows
would have had alone, and the per-row decisions compare the same floats.

Determinism contract (batch-width invariant by construction)
------------------------------------------------------------
Every trajectory draws from its **own counter-addressed Philox stream**.
A run seeded ``s`` has one Philox4x64-10 key,
``SeedSequence(s).generate_state(2, np.uint64)``.  With ``D`` the
program's bound on the uniforms one shot consumes (:func:`_max_draws`) and
``S = ceil(D / 4)``, shot ``t`` owns the Philox blocks after counter
``t * S`` (NumPy increments the counter before each block), one uniform
per 64-bit output.  It consumes one uniform per stochastic decision it
actually executes (Kraus branch choice, mid-circuit measurement outcome
and readout flip, reset), in program order: one per Born step with more
than one branch, however many channels fold into it.  Last it takes one
uniform for the terminal readout, however many measurements that reads.
A tile starting at shot ``start`` takes its uniforms from one call of
NumPy's own generator started at counter ``start * S``
(:func:`tile_uniforms`), and the walker advances one cursor shared by all
rows until a conditioned step splits them, then one per row.  Counts are
therefore bit-identical for a fixed seed at **every** ``max_batch``
tiling — which is what lets the runtime's chunk-seed plan, dedup and cost
model treat ``max_batch`` as a pure throughput knob.  The
test suite keeps a per-shot walker that builds each shot's generator at
its own counter and runs the same kernels at batch width 1
(``tests/simulators/loop_reference.py``); batched counts must equal its
counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.simulators import _kernels, _program

#: Default shot-tiling bound: big enough to amortise kernel dispatch,
#: small enough that ``B * 2^n`` stays cache- and memory-friendly for the
#: paper's circuit sizes.
DEFAULT_MAX_BATCH = 1024


def validate_max_batch(max_batch: int) -> int:
    if int(max_batch) < 1:
        raise SimulationError(f"max_batch must be positive, got {max_batch}")
    return int(max_batch)


def _max_draws(steps: List[tuple]) -> int:
    """Upper bound on the uniforms any one trajectory consumes: one per
    multi-branch Born step, reset and mid-circuit measurement, one more per
    mid-circuit readout flip, and one for the terminal readout."""
    draws, terminal = 0, 0
    for step in steps:
        if step[0] == _program.GATE:
            draws += sum(kraus.draws for kraus in step[3])
        elif step[0] == _program.MEASURE and step[4]:
            terminal = 1
        elif step[0] == _program.MEASURE:
            draws += 1 + (1 if step[3] is not None else 0)
        else:
            draws += 1
    return draws + terminal


# ----------------------------------------------------------------------
# Batched execution
# ----------------------------------------------------------------------


def _distinct(keys):
    """``np.unique(keys, return_inverse=True)`` for non-negative ints, by counting.

    Returns the sorted distinct keys and each key's index among them.  A
    ``bincount`` marks the keys present and its running sum numbers them,
    so the cost is linear in the key range instead of a sort.
    """
    present = np.bincount(keys) > 0
    return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]


def _refine(klass, rows):
    """Split the history classes on a condition that only ``rows`` pass.

    Returns the new ``(B,)`` row-to-class map and each new class's parent
    column, numbered in ``(parent, passed)`` order.
    """
    key = klass * 2
    key[rows] += 1
    unique, klass = _distinct(key)
    return klass, unique // 2


def _compact(states, klass):
    """Drop the class columns no row points to, once they outnumber the rest.

    A Kraus step leaves a column behind when all of its rows move to new
    ones; until then later steps keep evolving it, so the walk costs at
    most twice its live columns.  The kept columns stay in order.
    """
    live = np.bincount(klass, minlength=states.shape[-1]) > 0
    if 2 * np.count_nonzero(live) >= live.shape[0]:
        return states, klass
    return states[..., live], (np.cumsum(live) - 1)[klass]


def _apply(source, klass, rows, matrix):
    """Apply an operator to the class columns of ``rows``.

    The walker has split the classes on the step's condition, so a class
    either holds only passing rows or none.
    """
    if rows.shape[0] == klass.shape[0]:
        return _kernels.batched_apply_operator(source, matrix)
    active = np.bincount(klass[rows], minlength=source.shape[-1]) > 0
    source[..., active] = _kernels.batched_apply_operator(source[..., active], matrix)
    return source


def _select(weights, at, uniforms):
    """Each row's branch: the first whose cumulative weight exceeds its uniform.

    Row ``i`` reads weight column ``at[i]``.  Round-off past the last
    branch, or a chosen branch without support, falls back to the last
    branch with support.
    """
    count = weights.shape[0]
    cumulative = np.take(np.cumsum(weights, axis=0).T, at, axis=0)
    choice = (cumulative <= uniforms[:, np.newaxis]).sum(axis=1)
    capped = np.minimum(choice, count - 1)
    bad = (choice >= count) | (weights[capped, at] <= _kernels.KRAUS_EPS)
    if bad.any():
        support = weights[:, at] > _kernels.KRAUS_EPS
        if not support.any(axis=0)[bad].all():
            raise SimulationError("Kraus sampling found no branch with support")
        last_supported = (count - 1) - np.argmax(support[::-1], axis=0)
        capped = np.where(bad, last_supported, capped)
    return capped


def _born_step(source, klass, rows, step, uniforms):
    """One Born-weighted step over history classes: a folded Kraus set, a
    measurement or a reset (a :class:`~repro.simulators._program.BornStep`).

    ``source`` is held over the step's targets (see
    :func:`~repro.simulators._kernels.relayout`).  Returns ``(source,
    klass, branch)`` with each row's branch.  Branch 0's weight is computed
    for every class, and a row whose uniform falls below it takes branch
    0; under weak noise that settles almost every row, so every column is
    renormalised onto branch 0 in one pass and those rows keep their
    class.  Only the pending rows' classes get every
    weight, the rows choose with :func:`_select`, and only the ``(class,
    branch)`` columns chosen are built, in one stacked pass, appended after
    the others.  Every float is the one a lone row would compute (see the
    kernels module), so the result is bit-identical to walking each row.
    """
    width = source.shape[-1]
    features = step.features(source)
    first_weight = step.weights(features, 1)[0]
    full = rows.shape[0] == klass.shape[0]
    row_class = klass if full else klass[rows]
    # A branch 0 without support sends every row of its class on.
    threshold = np.where(first_weight > _kernels.KRAUS_EPS, first_weight, -1.0)
    pending = np.flatnonzero(uniforms >= threshold[row_class])
    branch = np.zeros(rows.shape[0], dtype=np.intp)
    first = step.first(source, first_weight)
    if not full:
        idle = np.bincount(row_class, minlength=width) == 0
        first[..., idle] = source[..., idle]
    if pending.size == 0:
        return first, klass, branch
    columns, at = _distinct(row_class[pending])
    weights = step.weights(features[:, columns])
    choice = _select(weights, at, uniforms[pending])
    branch[pending] = choice
    moved = np.flatnonzero(choice)
    if moved.size == 0:
        return first, klass, branch
    # Chosen branch j of pending column p is key p * J + j; new columns
    # are numbered in (class, branch) order.
    count = len(step.operators)
    keys, new_class = _distinct(at[moved] * count + choice[moved])
    column, chosen = np.divmod(keys, count)
    fresh = step.build(source[..., columns[column]], chosen, weights[chosen, column])
    klass = klass.copy()
    klass[rows[pending[moved]]] = width + new_class
    source, klass = _compact(np.concatenate([first, fresh], axis=-1), klass)
    return source, klass, branch


class _Draws:
    """A tile's uniforms and each row's cursor into its own stream.

    The uniforms are stored draw-major, so while every step has run on all
    rows they share one cursor and a step reads one contiguous row.  The
    first conditioned step that only some rows pass switches to per-row
    cursors.
    """

    def __init__(self, uniforms):
        self.uniforms = np.ascontiguousarray(uniforms.T)  # (draws, batch)
        self.shared = 0
        self.cursor = None

    def take(self, rows):
        """Return the next uniform of each of ``rows`` and advance them."""
        if self.cursor is None:
            if rows.shape[0] == self.uniforms.shape[1]:
                self.shared += 1
                return self.uniforms[self.shared - 1]
            self.cursor = np.full(self.uniforms.shape[1], self.shared, dtype=np.intp)
        values = self.uniforms[self.cursor[rows], rows]
        self.cursor[rows] += 1
        return values


def tile_uniforms(key: np.ndarray, start: int, batch: int, draws: int) -> np.ndarray:
    """The ``(batch, draws)`` uniforms of shots ``start..start+batch-1``.

    Row ``i`` is what ``Generator(Philox(key=key, counter=(start + i) * S))``
    draws first, with ``S = ceil(draws / 4)`` blocks per shot: the shots'
    blocks are consecutive, so one generator started at the tile's first
    block draws them all, and each row keeps its first ``draws`` outputs.
    """
    blocks = -(-draws // 4)
    generator = np.random.Generator(np.random.Philox(key=key, counter=start * blocks))
    return generator.random(batch * 4 * blocks).reshape(batch, 4 * blocks)[:, :draws]


def run_batched(
    steps: List[tuple],
    num_qubits: int,
    num_clbits: int,
    key: np.ndarray,
    shots: int,
    initial_state: Optional[np.ndarray],
    max_batch: int = DEFAULT_MAX_BATCH,
) -> Dict[str, int]:
    """Simulate trajectories ``0..shots-1`` of Philox ``key`` in ``max_batch`` tiles."""
    counts: Dict[str, int] = {}
    draws = _max_draws(steps)
    steps, readout = _program.split_terminal(steps)
    for start in range(0, shots, max_batch):
        batch = min(max_batch, shots - start)
        take = _Draws(tile_uniforms(key, start, batch, draws)).take
        initial = _kernels.batched_state_tensor(1, num_qubits, initial_state)
        # The class columns, held over the qubits the last step acted on.
        source, layout = initial.reshape(-1, 1, 1), ()
        klass = np.zeros(batch, dtype=np.intp)
        clbits = np.zeros((batch, num_clbits), dtype=np.uint8)
        all_rows = np.arange(batch)
        for step in steps:
            kind, condition = step[0], step[-1]
            rows = all_rows
            if condition is not None:
                clbit, value = condition
                rows = np.nonzero(clbits[:, clbit] == value)[0]
                if rows.shape[0] == 0:
                    continue
                if rows.shape[0] < batch:
                    # Split the classes on the condition; the step then
                    # acts on the passing classes alone.
                    klass, parents = _refine(klass, rows)
                    source = source[..., parents]
            if kind == _program.GATE:
                _, matrix, qubits, born, _ = step
                source, layout = _kernels.relayout(source, layout, qubits), qubits
                source = _apply(source, klass, rows, matrix)
                for kraus in born:
                    source = _kernels.relayout(source, layout, kraus.targets)
                    layout = kraus.targets
                    if kraus.draws:
                        source, klass, _ = _born_step(
                            source, klass, rows, kraus, take(rows)
                        )
                    else:
                        source = _apply(source, klass, rows, kraus.operators[0])
                continue
            outcome = _program.outcome_step(step[1], kind == _program.RESET)
            source = _kernels.relayout(source, layout, outcome.targets)
            layout = outcome.targets
            source, klass, branch = _born_step(source, klass, rows, outcome, take(rows))
            if kind == _program.MEASURE:
                _, _, clbit, confusion, _, _ = step
                outcomes = (branch == 0).astype(np.uint8)
                recorded = outcomes
                if confusion is not None:
                    flip_prob = np.where(
                        outcomes == 1, confusion[0][1], confusion[1][0]
                    )
                    flips = (take(rows) < flip_prob).astype(np.uint8)
                    recorded = outcomes ^ flips
                clbits[rows, clbit] = recorded
        if readout is not None:
            # One draw per row from its class's joint recorded outcomes.
            source = _kernels.relayout(source, layout, readout.qubits)
            weights = readout.recorded(_kernels.batched_target_features(source))
            outcome = _select(weights, klass, take(all_rows))
            clbits[:, readout.clbits] = readout.bits[outcome]
        for bits, value in _kernels.pack_counts(clbits).items():
            counts[bits] = counts.get(bits, 0) + value
    return counts


# ----------------------------------------------------------------------
# Engine entry point
# ----------------------------------------------------------------------


def sample_shots(
    circuit,
    noise_model,
    shots: int,
    seed: Optional[int],
    initial_state: Optional[np.ndarray],
    max_batch: int = DEFAULT_MAX_BATCH,
) -> Dict[str, int]:
    """Sample ``shots`` trajectories of ``circuit`` and return their counts.

    The one entry point both sampling engines call.  The noise model is
    compiled once per run (:func:`repro.simulators._program.build_program`),
    so any model, duck-typed or not, is asked for each gate's channels
    once.
    """
    max_batch = validate_max_batch(max_batch)
    return run_batched(
        _program.build_program(circuit, noise_model, _program.born_steps),
        circuit.num_qubits,
        circuit.num_clbits,
        np.random.SeedSequence(seed).generate_state(2, np.uint64),
        shots,
        initial_state,
        max_batch,
    )
