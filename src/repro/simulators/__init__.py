"""Simulation engines.

Four engines with one convention (qubit 0 is the most significant
statevector bit; see the README's *Bit-order conventions*):

* :class:`~repro.simulators.statevector.StatevectorSimulator` — exact pure
  states, branch-enumerated measurement (the "QUIRK" substrate).
* :class:`~repro.simulators.density_matrix.DensityMatrixSimulator` — exact
  mixed states with Kraus channels (the "IBM Q" substrate).
* :class:`~repro.simulators.stabilizer.StabilizerSimulator` — CHP tableau,
  Clifford-only, scales to hundreds of qubits.
* :func:`~repro.simulators.unitary.circuit_unitary` — builds the whole
  circuit unitary for algebraic verification.

These classes are the low-level engines.  For running circuits — and
especially batches of them — prefer the :mod:`repro.runtime` layer:
``repro.runtime.execute(circuits, backend, shots, seed)`` resolves backends
by name (``repro.runtime.get_backend``), fans jobs out over a thread pool,
deduplicates identical circuits, and caches device transpilation, while
reproducing exactly the counts a direct engine ``run()`` would return for
the same seed.
"""

from repro.simulators.statevector import StatevectorSimulator, Statevector
from repro.simulators.density_matrix import DensityMatrixSimulator, DensityMatrix
from repro.simulators.stabilizer import StabilizerSimulator
from repro.simulators.unitary import circuit_unitary
from repro.simulators.postselection import (
    postselect_statevector,
    postselected_statevector_after,
)

__all__ = [
    "DensityMatrix",
    "DensityMatrixSimulator",
    "StabilizerSimulator",
    "Statevector",
    "StatevectorSimulator",
    "circuit_unitary",
    "postselect_statevector",
    "postselected_statevector_after",
]
