"""repro — reproduction of Liu, Byrd & Zhou, "Quantum Circuits for Dynamic
Runtime Assertions in Quantum Computation" (ASPLOS 2020).

The package bundles the paper's contribution (:mod:`repro.core`, dynamic
ancilla-based assertions) together with every substrate the paper's
evaluation depends on: a circuit IR (:mod:`repro.circuits`), exact and
stabilizer simulators (:mod:`repro.simulators`), noise models
(:mod:`repro.noise`), an ibmqx4 device model + transpiler
(:mod:`repro.devices`, :mod:`repro.transpiler`), analysis utilities
(:mod:`repro.analysis`) and the experiment harness regenerating each table
and figure (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import QuantumCircuit, AssertionInjector, StatevectorBackend
>>> from repro.core import postselect_passing
>>> bell = QuantumCircuit(2)
>>> _ = bell.h(0)
>>> _ = bell.cx(0, 1)
>>> injector = AssertionInjector(bell)
>>> _ = injector.assert_entangled([0, 1])
>>> _ = injector.measure_program()
>>> result = StatevectorBackend().run(injector.circuit, shots=1000, seed=7)
>>> filtered = postselect_passing(result.counts, injector.records)
>>> sorted(filtered)   # only the Bell outcomes survive
['00', '11']
"""

from repro.circuits import (
    ClassicalRegister,
    QuantumCircuit,
    QuantumRegister,
    library,
)
from repro.core import (
    AssertionInjector,
    AssertionKind,
    AssertionRecord,
    evaluate_assertions,
    postselect_passing,
)
from repro.devices import (
    NoisyDeviceBackend,
    StabilizerBackend,
    StatevectorBackend,
    ibmqx4,
)
from repro.results import Counts, Result
from repro.runtime import execute, get_backend
from repro.simulators import (
    DensityMatrixSimulator,
    StabilizerSimulator,
    Statevector,
    StatevectorSimulator,
)

__version__ = "1.0.0"

__all__ = [
    "AssertionInjector",
    "AssertionKind",
    "AssertionRecord",
    "ClassicalRegister",
    "Counts",
    "DensityMatrixSimulator",
    "NoisyDeviceBackend",
    "QuantumCircuit",
    "QuantumRegister",
    "Result",
    "StabilizerBackend",
    "StabilizerSimulator",
    "Statevector",
    "StatevectorBackend",
    "StatevectorSimulator",
    "evaluate_assertions",
    "execute",
    "get_backend",
    "ibmqx4",
    "library",
    "postselect_passing",
    "__version__",
]
