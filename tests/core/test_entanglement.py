"""Tests for the entanglement (parity) assertion (paper §3.2, Figs. 3-4).

Numerically re-derives the section's claims: on a GHZ-family input the
ancilla disentangles and reads the expected value deterministically; on a
general two-qubit state the error probability equals the odd-parity weight
|c|^2 + |d|^2 and passing shots are projected back into the even-parity
(entangled) subspace; an odd CNOT count leaves the ancilla entangled.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.states import entanglement_entropy, state_fidelity
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import bell_pair, ghz_state
from repro.core.entanglement import (
    append_entanglement_assertion,
    append_parity_assertion,
)
from repro.circuits.registers import QuantumRegister
from repro.exceptions import AssertionCircuitError, CircuitError
from repro.simulators.postselection import postselected_statevector_after
from repro.simulators.statevector import StatevectorSimulator

SIM = StatevectorSimulator()


class TestBellFamily:
    def test_phi_plus_passes_even_parity(self):
        qc = bell_pair("phi+")
        append_entanglement_assertion(qc, [0, 1], expected_parity=0)
        assert SIM.exact_probabilities(qc) == {"0": pytest.approx(1.0)}

    def test_phi_minus_passes_even_parity(self):
        qc = bell_pair("phi-")
        append_entanglement_assertion(qc, [0, 1], expected_parity=0)
        assert SIM.exact_probabilities(qc) == {"0": pytest.approx(1.0)}

    def test_psi_plus_fails_even_parity(self):
        qc = bell_pair("psi+")
        append_entanglement_assertion(qc, [0, 1], expected_parity=0)
        assert SIM.exact_probabilities(qc) == {"1": pytest.approx(1.0)}

    def test_psi_plus_passes_odd_parity(self):
        qc = bell_pair("psi+")
        append_entanglement_assertion(qc, [0, 1], expected_parity=1)
        assert SIM.exact_probabilities(qc) == {"0": pytest.approx(1.0)}

    def test_phi_plus_fails_odd_parity(self):
        qc = bell_pair("phi+")
        append_entanglement_assertion(qc, [0, 1], expected_parity=1)
        assert SIM.exact_probabilities(qc) == {"1": pytest.approx(1.0)}


class TestAncillaDisentangles:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ancilla_unentangled_before_measurement(self, n):
        """The Fig. 3/4 guarantee: for a GHZ input the ancilla factors out."""
        qc = ghz_state(n)
        records = append_entanglement_assertion(qc, list(range(n)), mode="single")
        ancilla = records[0].ancillas[0]
        pre_measure = qc.copy()
        pre_measure.data = [i for i in pre_measure.data if i.name != "measure"]
        state = SIM.final_statevector(pre_measure)
        assert entanglement_entropy(state, [ancilla]) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_program_state_untouched_after_assertion(self, n):
        """|psi3> = |psi> (x) |0>: the GHZ state survives the check."""
        qc = ghz_state(n)
        append_entanglement_assertion(qc, list(range(n)), mode="single")
        state, prob = postselected_statevector_after(
            qc, {0: 0}
        )
        assert prob == pytest.approx(1.0)
        ghz = np.zeros(2 ** (n + 1), dtype=complex)
        ghz[0] = 1 / math.sqrt(2)                  # |0...0>|anc=0>
        ghz[(2 ** (n + 1)) - 2] = 1 / math.sqrt(2)  # |1...1>|anc=0>
        assert state_fidelity(state.data, ghz) == pytest.approx(1.0, abs=1e-9)


class TestGeneralInputs:
    @given(
        weights=st.tuples(
            st.floats(min_value=0.05, max_value=1.0),
            st.floats(min_value=0.05, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_error_rate_is_odd_parity_weight(self, weights):
        """P(error) = |c|^2 + |d|^2 for a|00> + b|11> + c|10> + d|01>."""
        amps = np.array(
            [weights[0], weights[3], weights[2], weights[1]], dtype=complex
        )  # order |00>, |01>, |10>, |11>
        amps = amps / np.linalg.norm(amps)
        qc = QuantumCircuit(2)
        append_parity_assertion(qc, [0, 1])
        probs = SIM.exact_probabilities(qc, initial_state=_initial_3q(amps))
        odd_weight = abs(amps[1]) ** 2 + abs(amps[2]) ** 2
        assert probs.get("1", 0.0) == pytest.approx(odd_weight, abs=1e-9)

    def test_pass_projects_to_even_subspace(self):
        amps = np.array([0.6, 0.5, 0.4, math.sqrt(1 - 0.77)], dtype=complex)
        amps = amps / np.linalg.norm(amps)
        qc = QuantumCircuit(2)
        append_parity_assertion(qc, [0, 1])
        state, _prob = postselected_statevector_after(
            qc, {0: 0}, initial_state=_initial_3q(amps)
        )
        probs = state.probabilities()
        assert set(probs) <= {"000", "110"}  # even parity, ancilla 0

    def test_fail_projects_to_odd_subspace(self):
        amps = np.array([0.6, 0.5, 0.4, math.sqrt(1 - 0.77)], dtype=complex)
        amps = amps / np.linalg.norm(amps)
        qc = QuantumCircuit(2)
        append_parity_assertion(qc, [0, 1])
        state, _prob = postselected_statevector_after(
            qc, {0: 1}, initial_state=_initial_3q(amps)
        )
        probs = state.probabilities()
        assert set(probs) <= {"011", "101"}  # odd parity, ancilla 1


def _initial_3q(two_qubit_amps):
    """Lift 2-qubit amplitudes to the 3-qubit (with ancilla |0>) register."""
    init = np.zeros(8, dtype=complex)
    for idx, amp in enumerate(two_qubit_amps):
        init[idx << 1] = amp  # ancilla (last qubit) = 0
    return init


class TestEvenOddCNOTCount:
    def test_odd_count_rejected_by_default(self):
        qc = ghz_state(3)
        with pytest.raises(AssertionCircuitError, match="even number"):
            append_parity_assertion(qc, [0, 1, 2])

    def test_odd_count_allowed_when_explicit(self):
        qc = ghz_state(3)
        record = append_parity_assertion(qc, [0, 1, 2], enforce_even=False)
        assert record.ancillas == (3,)

    def test_odd_count_leaves_ancilla_entangled(self):
        """The Fig. 4 warning, verified: odd CNOTs entangle the ancilla."""
        qc = ghz_state(3)
        append_parity_assertion(qc, [0, 1, 2], enforce_even=False)
        pre = qc.copy()
        pre.data = [i for i in pre.data if i.name != "measure"]
        state = SIM.final_statevector(pre)
        assert entanglement_entropy(state, [3]) == pytest.approx(1.0, abs=1e-9)

    def test_even_padding_via_repeat(self):
        """Fig. 4's fix: repeat a qubit to reach an even count."""
        qc = ghz_state(3)
        append_parity_assertion(qc, [0, 1, 2, 2])
        assert SIM.exact_probabilities(qc) == {"0": pytest.approx(1.0)}


class TestModes:
    def test_pairwise_allocates_n_minus_1_ancillas(self):
        qc = ghz_state(4)
        records = append_entanglement_assertion(qc, [0, 1, 2, 3], mode="pairwise")
        assert len(records) == 3
        assert qc.num_qubits == 7

    def test_single_allocates_one_ancilla(self):
        qc = ghz_state(4)
        records = append_entanglement_assertion(qc, [0, 1, 2, 3], mode="single")
        assert len(records) == 1
        assert qc.num_qubits == 5

    def test_pairwise_catches_middle_flip(self):
        """A flipped middle qubit breaks adjacent-pair parity."""
        qc = ghz_state(3)
        qc.x(1)  # bug
        append_entanglement_assertion(qc, [0, 1, 2], mode="pairwise")
        probs = SIM.exact_probabilities(qc)
        # Both pair assertions must fail ('11') on every shot.
        assert probs == {"11": pytest.approx(1.0)}

    def test_unknown_mode(self):
        with pytest.raises(AssertionCircuitError, match="unknown"):
            append_entanglement_assertion(ghz_state(2), [0, 1], mode="weird")


class TestAncillaTags:
    """Ancilla register names count every qreg with the tag's prefix,
    user registers included."""

    def test_user_register_shifts_the_tag(self):
        circuit = QuantumCircuit(QuantumRegister(2, "q"),
                                 QuantumRegister(1, "assert_ent0"))
        record = append_parity_assertion(circuit, [0, 1])
        assert [r.name for r in circuit.qregs] == ["q", "assert_ent0", "assert_ent1"]
        assert [r.name for r in circuit.cregs] == ["assert_ent1_m"]
        assert record.ancillas == (3,) and record.clbits == (0,)

    def test_colliding_user_register_still_raises(self):
        circuit = QuantumCircuit(QuantumRegister(2, "q"),
                                 QuantumRegister(1, "assert_ent1"))
        with pytest.raises(CircuitError, match="duplicate register name 'assert_ent1'"):
            append_parity_assertion(circuit, [0, 1])

    def test_tags_number_per_prefix(self):
        circuit = ghz_state(3)
        append_entanglement_assertion(circuit, [0, 1, 2], mode="pairwise")
        circuit.add_qubits(1, name="assert_entangler")
        append_parity_assertion(circuit, [0, 2])
        names = [r.name for r in circuit.qregs]
        assert names == ["q", "assert_ent0", "assert_ent1", "assert_entangler",
                         "assert_ent3"]

    @pytest.mark.parametrize("bad", [3, -1])
    def test_out_of_range_sources_raise_like_qubit_index(self, bad):
        circuit = QuantumCircuit(3)
        with pytest.raises(CircuitError, match=f"qubit index {bad} out of range"):
            append_parity_assertion(circuit, [0, bad])
        assert circuit.num_qubits == 3 and not circuit.qregs[1:]


class TestValidation:
    def test_two_qubit_minimum(self):
        with pytest.raises(AssertionCircuitError):
            append_entanglement_assertion(QuantumCircuit(2), [0])

    def test_duplicates_rejected(self):
        with pytest.raises(AssertionCircuitError, match="duplicate"):
            append_entanglement_assertion(QuantumCircuit(2), [0, 0])

    def test_odd_parity_needs_two_qubits(self):
        with pytest.raises(AssertionCircuitError, match="exactly 2"):
            append_entanglement_assertion(
                QuantumCircuit(3), [0, 1, 2], expected_parity=1
            )

    def test_parity_value_validated(self):
        with pytest.raises(AssertionCircuitError):
            append_parity_assertion(QuantumCircuit(2), [0, 1], expected_parity=2)

    def test_minimum_sources(self):
        with pytest.raises(AssertionCircuitError, match="at least two"):
            append_parity_assertion(QuantumCircuit(2), [0])
