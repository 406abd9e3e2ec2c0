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
class columns, and each gate step carries its noise channels.  A
stochastic step computes its branch weights per class and lets every row
decide with its own uniform.  A Kraus step renormalises every column onto
branch 0 in place, computes the later branches in one stacked pass only
for the classes of rows that may leave it, and gives the rows that do
new columns keyed by ``(class, choice)``; under weak noise it costs what
the rare branch costs.  A measurement or reset refines the classes by
``(class, outcome)`` with a counting pass, no sort.  Every new class
column is built from its parent column with the same arithmetic the row
would have seen.  Readout flips touch only the rows' classical bits.  A
classically conditioned step splits classes on the condition bit first
and acts on the matching classes only.  Weak device noise keeps ``C`` small: on the
paper's ibmqx4 assertion circuits a 1024-shot tile holds tens to a few
hundred classes.

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
actually executes (Kraus branch choice, measurement outcome, readout
flip, reset), in program order.  A tile starting at shot ``start`` takes
its uniforms from one call of NumPy's own generator started at counter
``start * S`` (:func:`tile_uniforms`), and the walker advances one cursor
shared by all rows until a conditioned step splits them, then one per
row.  Counts are therefore bit-identical for a fixed seed at **every**
``max_batch`` tiling — which is what lets the runtime's chunk-seed plan,
dedup and cost model treat ``max_batch`` as a pure throughput knob.  The
test suite keeps a per-shot walker that builds each shot's generator at
its own counter and runs the same kernels at batch width 1
(``tests/simulators/loop_reference.py``); batched counts must equal its
counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.circuits.gates import x_matrix
from repro.exceptions import SimulationError
from repro.simulators import _kernels, _program

#: Default shot-tiling bound: big enough to amortise kernel dispatch,
#: small enough that ``B * 2^n`` (plus one Kraus branch copy per operator)
#: stays cache- and memory-friendly for the paper's circuit sizes.
DEFAULT_MAX_BATCH = 1024


def validate_max_batch(max_batch: int) -> int:
    if int(max_batch) < 1:
        raise SimulationError(f"max_batch must be positive, got {max_batch}")
    return int(max_batch)


def _max_draws(steps: List[tuple]) -> int:
    """Upper bound on the uniforms any one trajectory consumes."""
    draws = 0
    for step in steps:
        if step[0] == _program.GATE:
            draws += len(step[3])
        elif step[0] == _program.MEASURE:
            draws += 1 + (1 if step[3] is not None else 0)
        else:
            draws += 1
    return draws


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


def _refine(klass, rows, labels, num_labels):
    """Split history classes by a per-row label.

    ``rows`` carry ``labels`` in ``0..num_labels-1``; every other row keeps
    its class under the label ``-1``.  Returns ``(klass, parents, labels)``:
    the new ``(B,)`` row-to-class map, and each new class's parent column
    and label, numbered in ``(parent, label)`` order.
    """
    width = num_labels + 1
    key = klass * width
    key[rows] += labels + 1
    unique, klass = _distinct(key)
    parents, labels = np.divmod(unique, width)
    return klass, parents, labels - 1


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


def _split(states, parents, labels, build):
    """Return the refined class columns.

    An unlabelled class (``-1``) copies its parent column; the labelled ones
    come from ``build(parents, labels)`` restricted to them.
    """
    active = labels >= 0
    if active.all():
        return build(parents, labels)
    out = states[..., parents]
    out[..., active] = build(parents[active], labels[active])
    return out


def _apply_gate(states, klass, rows, matrix, qubits):
    """Apply a gate to the classes of ``rows``; returns ``(states, klass)``.

    A conditioned gate that only some rows pass first splits the classes
    on the condition, then acts on the passing classes alone.
    """
    if rows.shape[0] == klass.shape[0]:
        return _kernels.batched_apply_matrix(states, matrix, qubits), klass
    klass, parents, labels = _refine(klass, rows, np.zeros_like(rows), 1)

    def build(parents, _):
        return _kernels.batched_apply_matrix(states[..., parents], matrix, qubits)

    return _split(states, parents, labels, build), klass


def _sample_kraus_rows(states, klass, rows, operators, targets, uniforms):
    """Per-trajectory Kraus unravelling of one channel over history classes.

    The first branch ``K_0 psi`` and its Born weight are computed for every
    class column.  A row whose uniform falls below that weight takes
    branch 0, which is what :func:`_kernels.kraus_select` decides for it:
    the cumulative weights never decrease, so no later branch can come
    first.  Under weak noise that settles almost every row, so every
    column is renormalised onto branch 0 in place and those rows keep
    their class.  The later branches are computed in one stacked pass
    (:func:`_kernels.batched_apply_branches`) only for the classes of the
    rows still pending, and those rows decide with
    :func:`_kernels.kraus_select` on their class's full weight column.
    Columns are independent (see the kernels module), so every branch and
    weight a row sees is the float it would have seen with all branches
    computed for all classes.

    A row that leaves branch 0 moves to a new column keyed by ``(class,
    choice)``, appended after the others; columns left without rows are
    dropped by :func:`_compact`.  Every column is its parent's branch
    divided by the square root of that branch's weight: the arithmetic the
    row would have done alone, so the result is bit-identical to evolving
    every row separately.  Returns the new ``(states, klass)``.
    """
    first = _kernels.batched_apply_matrix(states, operators[0], targets)
    first_weight = _kernels.batched_norm_sq(first)
    row_class = klass[rows]
    row_weight = first_weight[row_class]
    pending = np.flatnonzero(
        (uniforms >= row_weight) | (row_weight <= _kernels.KRAUS_EPS)
    )
    # A column whose branch 0 has no weight keeps no row on it.
    with np.errstate(divide="ignore", invalid="ignore"):
        first /= np.sqrt(first_weight)
    if rows.shape[0] != klass.shape[0]:
        idle = np.bincount(row_class, minlength=first.shape[-1]) == 0
        first[..., idle] = states[..., idle]
    if pending.size == 0:
        return first, klass
    columns, at = _distinct(row_class[pending])
    branches, norms = _kernels.batched_apply_branches(
        states[..., columns], operators[1:], targets
    )
    weights = np.concatenate([first_weight[np.newaxis, columns], norms])
    choice = _kernels.kraus_select(weights[:, at], uniforms[pending])
    moved = np.flatnonzero(choice)
    if moved.size == 0:
        return first, klass
    # Later branch j of pending column p sits at j * P + p of the flattened
    # branches; new columns are numbered in (class, choice) order.
    later, count = len(operators) - 1, columns.shape[0]
    keys, new_class = _distinct(at[moved] * later + choice[moved] - 1)
    column, branch = np.divmod(keys, later)
    picked = branch * count + column
    flat = branches.reshape(branches.shape[:-2] + (-1,))
    fresh = flat[..., picked] / np.sqrt(norms.reshape(-1)[picked])
    klass = klass.copy()
    klass[rows[pending[moved]]] = first.shape[-1] + new_class
    return _compact(np.concatenate([first, fresh], axis=-1), klass)


def _sample_outcomes(states, klass, rows, qubit, uniforms, reset):
    """Measure (or reset) ``qubit`` per row; returns ``(states, klass, outcomes)``.

    ``P(1)`` is computed per class column, each row compares its own
    uniform against its class's probability, and the classes are refined
    by ``(class, outcome)`` before the collapse.  A reset then flips the
    classes that collapsed to ``|1>``.
    """
    p_one = _kernels.batched_probability_of_one(states, qubit)
    outcomes = (uniforms < p_one[klass[rows]]).astype(np.uint8)
    klass, parents, labels = _refine(klass, rows, outcomes, 2)

    def build(parents, labels):
        collapsed, _ = _kernels.batched_collapse(states[..., parents], qubit, labels)
        if reset:
            ones = np.nonzero(labels == 1)[0]
            if ones.size:
                collapsed[..., ones] = _kernels.batched_apply_matrix(
                    collapsed[..., ones], x_matrix(), [qubit]
                )
        return collapsed

    return _split(states, parents, labels, build), klass, outcomes


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
    for start in range(0, shots, max_batch):
        batch = min(max_batch, shots - start)
        take = _Draws(tile_uniforms(key, start, batch, draws)).take
        states = _kernels.batched_state_tensor(1, num_qubits, initial_state)
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
            if kind == _program.GATE:
                _, matrix, qubits, channels, _ = step
                states, klass = _apply_gate(states, klass, rows, matrix, qubits)
                for operators, targets in channels:
                    states, klass = _sample_kraus_rows(
                        states, klass, rows, operators, targets, take(rows)
                    )
            elif kind == _program.MEASURE:
                _, qubit, clbit, confusion, _ = step
                states, klass, outcomes = _sample_outcomes(
                    states, klass, rows, qubit, take(rows), reset=False
                )
                recorded = outcomes
                if confusion is not None:
                    flip_prob = np.where(
                        outcomes == 1, confusion[0][1], confusion[1][0]
                    )
                    flips = (take(rows) < flip_prob).astype(np.uint8)
                    recorded = outcomes ^ flips
                clbits[rows, clbit] = recorded
            elif kind == _program.RESET:
                _, qubit, _ = step
                states, klass, _ = _sample_outcomes(
                    states, klass, rows, qubit, take(rows), reset=True
                )
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
        _program.build_program(circuit, noise_model),
        circuit.num_qubits,
        circuit.num_clbits,
        np.random.SeedSequence(seed).generate_state(2, np.uint64),
        shots,
        initial_state,
        max_batch,
    )
