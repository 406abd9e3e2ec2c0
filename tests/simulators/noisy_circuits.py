"""Circuits and noise models shared by the noisy-engine tests.

The golden-count tests of the density-matrix and trajectory engines pin
their outputs on these exact circuits, so they live in one place.
"""

from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.core.injector import AssertionInjector
from repro.noise.channels import amplitude_damping, depolarizing
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError


def noisy_model():
    return (
        NoiseModel("unit-noise")
        .add_all_qubit_gate_error(["h", "x"], depolarizing(0.1))
        .add_all_qubit_gate_error(["cx"], depolarizing(0.05))
        .add_all_qubit_gate_error(["x"], amplitude_damping(0.2))
        .add_readout_error(ReadoutError(0.08, 0.04))
    )


def paper_assertion(kind, theta=0.1234):
    """The paper's three assertion circuits, each after one ``rz(theta)``."""
    if kind == "classical":
        program = QuantumCircuit(2, name="classical")
        program.x(1)
        program.rz(theta, 0)
        injector = AssertionInjector(program)
        injector.assert_classical([0, 1], [0, 1])
    elif kind == "entanglement":
        program = library.ghz_state(3)
        program.rz(theta, 0)
        injector = AssertionInjector(program)
        injector.assert_entangled([0, 1, 2], mode="single")
    else:
        program = QuantumCircuit(2, name="superposition")
        program.h(0)
        program.h(1)
        program.rz(theta, 0)
        injector = AssertionInjector(program)
        injector.assert_uniform([0, 1])
    injector.measure_program()
    return injector.circuit


class DuckTypedNoise:
    """A noise interface that is *not* a NoiseModel (stateful in principle).

    ``queries`` counts the ``channels_for`` calls, so tests can check how
    often an engine asks.
    """

    name = "duck"

    def __init__(self):
        self._inner = noisy_model()
        self.queries = 0

    def channels_for(self, instruction):
        self.queries += 1
        return self._inner.channels_for(instruction)

    def readout_confusion(self, qubit):
        return self._inner.readout_confusion(qubit)
