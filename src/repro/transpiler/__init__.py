"""Circuit lowering for device execution.

The pipeline mirrors what the paper relied on Qiskit for: decompose to the
device basis ({u1, u2, u3, cx} on ibmqx4), choose a layout that respects the
coupling map (the constraint that forced q2 as the Table 1 ancilla), insert
SWAPs for distant interactions, fix CX direction on directed edges, and
clean up with peephole optimisation.

Lowering is deterministic for a given (circuit, device, layout), and it
reads the angles of 1-qubit gates only through the runs it merges, so the
runtime layer memoises it per circuit shape:
:class:`repro.runtime.cache.TranspileCache` keys a
:class:`~repro.transpiler.template.ShapeTemplate` by
``QuantumCircuit.shape_fingerprint()`` and the device backends call
through it — sweeps re-running a circuit at new angles pay the full
lowering once.
"""

from repro.transpiler.decompose import decompose_to_basis
from repro.transpiler.layout import Layout, select_layout, apply_layout
from repro.transpiler.routing import route_circuit
from repro.transpiler.direction import fix_cx_directions
from repro.transpiler.optimize import merge_single_qubit_runs, cancel_adjacent_cx
from repro.transpiler.passes import PassManager, TranspilerPass, transpile_for_device

__all__ = [
    "Layout",
    "PassManager",
    "TranspilerPass",
    "apply_layout",
    "cancel_adjacent_cx",
    "decompose_to_basis",
    "fix_cx_directions",
    "merge_single_qubit_runs",
    "route_circuit",
    "select_layout",
    "transpile_for_device",
]
