"""Instrumented circuits are pinned: fingerprint, registers and records.

``instrumented_circuits.json`` holds, for every circuit below, its
``fingerprint()``, its quantum and classical register names and sizes,
and each :class:`~repro.core.types.AssertionRecord` the builders returned
(kind, qubits, ancillas, clbits, expected, label).  The cases cover
GHZ(2..32) under both entanglement modes, the three noisy-assertions
circuits, the paper's Table 1/2 and Fig. 6/7 circuits, the extension
builders, and user registers whose names collide with assertion tags.  A
builder change that moves one instruction, one register name or one
ancilla index fails here.  Regenerate the file with
``python tests/core/test_instrumented_goldens.py`` (run with ``src`` on
``PYTHONPATH``) only for a change that means to move them.
"""

import json
from pathlib import Path

import pytest

from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.registers import QuantumRegister
from repro.core.classical import append_classical_assertion
from repro.core.injector import AssertionInjector
from repro.core.superposition import append_superposition_assertion
from repro.experiments.fig6 import FIG6_INPUTS, _assertion_circuit_for_input
from repro.experiments.fig7 import FIG7_INPUTS, _prepare
from repro.experiments.table1 import build_table1_circuit
from repro.experiments.table2 import build_table2_circuit

GOLDEN_PATH = Path(__file__).with_name("instrumented_circuits.json")

NOISY_ANGLES = (0.0, 0.1234, 1.0)


def ghz(n, mode):
    injector = AssertionInjector(library.ghz_state(n))
    injector.assert_entangled(list(range(n)), mode=mode)
    injector.measure_program()
    return injector.circuit, injector.records


def noisy(kind, theta):
    """One of the noisy-assertions workload's circuits at angle ``theta``."""
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
    return injector.circuit, injector.records


def table(build):
    circuit, injector = build()
    return circuit, injector.records


def fig6(theta, phi):
    circuit = QuantumCircuit(1, name="fig6")
    if theta or phi:
        circuit.u3(theta, phi, 0.0, 0)
    record = append_classical_assertion(circuit, 0, 0, label="fig6")
    assert circuit.fingerprint() == _assertion_circuit_for_input(theta, phi).fingerprint()
    return circuit, [record]


def fig7(a, b):
    circuit = _prepare(a, b)
    record = append_superposition_assertion(circuit, 0, sign="+", label="fig7")
    return circuit, [record]


def mixed():
    """Every builder on one program, so tags number across kinds."""
    injector = AssertionInjector(library.ghz_state(5))
    injector.assert_classical([0, 1], [1, 0])
    injector.assert_entangled([0, 1, 2], mode="single")
    injector.assert_parity([0, 1, 1, 2], expected_parity=1, label="odd")
    injector.assert_parity([3, 4, 3], enforce_even=False)
    injector.assert_entangled([3, 4], expected_parity=1)
    injector.assert_superposition(2, sign="-")
    injector.assert_uniform([3, 4])
    injector.assert_state(1, 0.3, 0.7)
    injector.assert_phase_parity([0, 1, 2], expected_parity=1)
    injector.assert_ghz([0, 1, 2, 3])
    injector.assert_equal(0, 4)
    injector.assert_classical(4, 1)
    injector.measure_program([4, 0])
    return injector.circuit, injector.records


def user_register(name):
    """A program whose own register name starts like an assertion tag."""
    program = QuantumCircuit(QuantumRegister(3, name="q"), QuantumRegister(1, name=name))
    program.h(0)
    program.cx(0, 1)
    injector = AssertionInjector(program)
    injector.assert_entangled([0, 1], mode="single")
    injector.assert_classical(3, 0)
    injector.assert_superposition(2)
    injector.measure_program()
    return injector.circuit, injector.records


CASES = {}
for _n in range(2, 33):
    for _mode in ("single", "pairwise"):
        CASES[f"ghz|{_mode}|{_n}"] = (lambda n=_n, mode=_mode: ghz(n, mode))
for _kind in ("classical", "entanglement", "superposition"):
    for _theta in NOISY_ANGLES:
        CASES[f"noisy|{_kind}|{float(_theta).hex()}"] = (
            lambda kind=_kind, theta=_theta: noisy(kind, theta))
CASES["table1"] = lambda: table(build_table1_circuit)
CASES["table2"] = lambda: table(build_table2_circuit)
for _label, (_theta, _phi) in FIG6_INPUTS.items():
    CASES[f"fig6|{_label}"] = (lambda theta=_theta, phi=_phi: fig6(theta, phi))
for _label, (_a, _b) in FIG7_INPUTS.items():
    CASES[f"fig7|{_label}"] = (lambda a=_a, b=_b: fig7(a, b))
CASES["mixed"] = mixed
for _name in ("assert_ent0", "assert_ent_user", "assert_cl7", "assert_sup"):
    CASES[f"user|{_name}"] = (lambda name=_name: user_register(name))


def describe(circuit, records):
    """The JSON-ready golden entry of one instrumented circuit."""
    return {
        "fingerprint": circuit.fingerprint(),
        "qregs": [[reg.name, reg.size] for reg in circuit.qregs],
        "cregs": [[reg.name, reg.size] for reg in circuit.cregs],
        "records": [
            [record.kind.value, list(record.qubits), list(record.ancillas),
             list(record.clbits), list(record.expected), record.label]
            for record in records
        ],
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(goldens):
    assert sorted(goldens) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_instrumented_circuit_matches_golden(goldens, case):
    assert describe(*CASES[case]()) == goldens[case]


if __name__ == "__main__":
    entries = (f"{json.dumps(case)}: {json.dumps(describe(*CASES[case]()))}"
               for case in sorted(CASES))
    GOLDEN_PATH.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN_PATH}")
