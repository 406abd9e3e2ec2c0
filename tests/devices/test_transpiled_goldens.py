"""Transpiled paper circuits are pinned instruction by instruction.

``transpiled_paper_circuits.json`` holds, for each of the paper's three
assertion circuits after one ``rz(theta)``, each angle in ``ANGLES`` and
both ibmqx4 device-model specs, the prepared circuit as a list of
``[name, qubits, clbits, params, condition]`` with every parameter written
by ``float.hex``.  A transpiler change that moves a u3 angle by one ulp
fails here and must be declared.  Regenerate the file with
``python tests/devices/test_transpiled_goldens.py`` (run with ``src`` on
``PYTHONPATH``) only for a change that means to move them.
"""

import json
from pathlib import Path

import pytest

from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.core.injector import AssertionInjector
from repro.runtime import get_backend

GOLDEN_PATH = Path(__file__).with_name("transpiled_paper_circuits.json")

SPECS = ("noisy:ibmqx4", "trajectory:ibmqx4")
KINDS = ("classical", "entanglement", "superposition")
ANGLES = (0.0, 0.01, 0.0625, 0.1234, 0.2, 0.7853981633974483, 1.0, -2.5,
          3.141592653589793)


def paper_circuit(kind, theta):
    """The paper's assertion circuit of ``kind`` after one ``rz(theta)``."""
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


def case_id(spec, kind, theta):
    return f"{spec}|{kind}|{float(theta).hex()}"


def transpiled(spec, kind, theta):
    """The prepared circuit as JSON-ready instruction lists."""
    circuit = get_backend(spec).prepare(paper_circuit(kind, theta))
    return [
        [
            inst.name,
            list(inst.qubits),
            list(inst.clbits),
            [float(param).hex() for param in inst.operation.params],
            None if inst.condition is None else list(inst.condition),
        ]
        for inst in circuit.data
    ]


CASES = [(spec, kind, theta) for spec in SPECS for kind in KINDS for theta in ANGLES]


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_every_case(goldens):
    assert set(goldens) == {case_id(*case) for case in CASES}


@pytest.mark.parametrize("spec, kind, theta", CASES)
def test_transpiled_circuit_matches_golden(goldens, spec, kind, theta):
    assert transpiled(spec, kind, theta) == goldens[case_id(spec, kind, theta)]


if __name__ == "__main__":
    # One instruction per line keeps a moved parameter readable in a diff.
    blocks = [
        f"{json.dumps(case_id(*case))}: [\n"
        + ",\n".join(f"  {json.dumps(inst)}" for inst in transpiled(*case))
        + "\n ]"
        for case in CASES
    ]
    GOLDEN_PATH.write_text("{\n " + ",\n ".join(blocks) + "\n}\n")
