"""The per-shape transpile cache equals the full pipeline bit for bit.

Every case lowers circuits that share one shape (they differ only in the
angles of 1-qubit gates) through one :class:`TranspileCache`, and compares
each result with the uncached ``transpile_for_device`` output instruction
by instruction, every parameter written by ``float.hex``.  A changed ulp
is a failure.
"""

import copy
import math
import random

import pytest

from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import get_gate
from repro.core.injector import AssertionInjector
from repro.devices.ibmqx4 import ibmqx4
from repro.runtime import get_backend
from repro.runtime.cache import TranspileCache
from repro.transpiler import transpile_for_device
from repro.transpiler.layout import Layout

SPECS = ("noisy:ibmqx4", "trajectory:ibmqx4")
KINDS = ("classical", "entanglement", "superposition")

#: Angles at the u1/u2/u3 choice boundaries, signed zero included.
BOUNDARY_ANGLES = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
                   2 * math.pi, 1e-11, math.pi / 2 + 1e-11)


def paper_circuit(kind, theta):
    """The paper's assertion circuit of ``kind`` after one ``rz(theta)``
    (the circuits ``tests/devices/test_transpiled_goldens.py`` pins)."""
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


def random_angles(seed, count=12):
    rng = random.Random(seed)
    return [rng.uniform(-2 * math.pi, 2 * math.pi) for _ in range(count)]


def as_lists(circuit):
    return (
        circuit.num_qubits,
        circuit.num_clbits,
        [
            (
                inst.name,
                inst.qubits,
                inst.clbits,
                [float(param).hex() for param in inst.operation.params],
                inst.condition,
            )
            for inst in circuit.data
        ],
    )


def assert_sweep(build, angles, device, layout=None, optimize=True):
    """Lower ``build(theta)`` for each angle through one cache; return it."""
    cache = TranspileCache()
    for theta in angles:
        reference = transpile_for_device(
            build(theta), device, layout=layout, optimize=optimize
        )
        served = cache.transpile(build(theta), device, layout, optimize)
        assert as_lists(served) == as_lists(reference), theta
    return cache


@pytest.fixture(scope="module")
def device():
    return ibmqx4()


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("kind", KINDS)
def test_paper_circuits_over_random_and_boundary_angles(spec, kind):
    backend = copy.copy(get_backend(spec))
    backend.cache = TranspileCache()
    seed = 1000 * SPECS.index(spec) + KINDS.index(kind)
    for theta in random_angles(seed) + list(BOUNDARY_ANGLES):
        reference = transpile_for_device(
            paper_circuit(kind, theta), backend.device, layout=backend.layout
        )
        assert as_lists(backend.prepare(paper_circuit(kind, theta))) == as_lists(
            reference
        ), theta
    assert backend.cache.misses == 1


def rotations(theta):
    """Every 1-qubit angle gate kind, each in its own merged run."""
    qc = QuantumCircuit(3, 3)
    qc.rx(theta, 0)
    qc.ry(theta, 1)
    qc.rz(theta, 2)
    qc.cx(0, 1)
    qc.u3(theta, -theta, 2 * theta, 0)
    qc.u2(theta, math.pi, 1)
    qc.append(get_gate("p", (theta,)), [2])
    qc.cx(1, 2)
    qc.h(0)
    qc.rz(theta, 0)
    qc.rx(-theta, 0)
    qc.measure([0, 1, 2], [0, 1, 2])
    return qc


def test_every_angle_gate_kind_at_the_boundaries(device):
    cache = assert_sweep(rotations, random_angles(7) + list(BOUNDARY_ANGLES), device)
    assert cache.misses == 1


def cancelling(theta, other=None):
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.rz(theta, 1)
    qc.rz(-theta if other is None else other, 1)
    qc.barrier(1)
    qc.cx(0, 1)
    qc.measure([0, 1], [0, 1])
    return qc


def test_run_that_merges_to_the_identity_is_dropped(device):
    angles = random_angles(11, 6) + [0.0, math.pi]
    cache = TranspileCache()
    # Build the template from a run that does not cancel.
    cache.transpile(cancelling(0.3, 0.4), device)
    for theta in angles:
        reference = transpile_for_device(cancelling(theta), device)
        served = cache.transpile(cancelling(theta), device)
        assert as_lists(served) == as_lists(reference), theta
        kept = transpile_for_device(cancelling(0.3, 0.4), device)
        assert len(served.data) == len(kept.data) - 1
    assert cache.misses == 1


def conditioned(theta):
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.measure(0, 0)
    qc.ry(theta, 1)
    qc.append(get_gate("rx", (theta,)), [1], condition=(0, 1))
    qc.append(get_gate("rz", (-theta,)), [0], condition=(0, 0))
    qc.rz(theta, 1)
    qc.measure(1, 1)
    return qc


def test_conditioned_angle_gates(device):
    cache = assert_sweep(conditioned, random_angles(13) + list(BOUNDARY_ANGLES), device)
    assert cache.misses == 1


@pytest.mark.parametrize("name", ["cp", "crz"])
def test_two_qubit_angles_stay_in_the_key(device, name):
    def build(theta):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.rz(theta, 1)
        qc.append(get_gate(name, (theta,)), [0, 1])
        qc.measure([0, 1], [0, 1])
        return qc

    angles = random_angles(17, 5) + [0.0, math.pi / 2]
    cache = assert_sweep(build, angles, device)
    assert cache.misses == len(angles)


def test_pinned_layout(device):
    layout = Layout([3, 2, 4, 0], 5)
    cache = assert_sweep(
        lambda theta: paper_circuit("entanglement", theta),
        random_angles(19) + list(BOUNDARY_ANGLES),
        device,
        layout=layout,
    )
    assert cache.misses == 1


@pytest.mark.parametrize("kind", KINDS)
def test_optimize_off(device, kind):
    cache = assert_sweep(
        lambda theta: paper_circuit(kind, theta),
        random_angles(23) + list(BOUNDARY_ANGLES),
        device,
        optimize=False,
    )
    assert cache.misses == 1


def test_rotations_with_optimize_off(device):
    assert_sweep(rotations, random_angles(29) + list(BOUNDARY_ANGLES), device,
                 optimize=False)
