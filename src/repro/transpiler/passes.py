"""Pass manager and the standard device pipeline.

:func:`transpile_for_device` runs the full lowering used by
:class:`~repro.devices.backend.NoisyDeviceBackend`:

1. decompose to the device basis,
2. select a layout (interaction-greedy, error-aware),
3. apply it and route with SWAPs,
4. re-decompose (routing introduces SWAPs) and fix CX directions,
5. peephole-optimise (merge 1q runs, cancel CX pairs).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.devices.device import DeviceModel
from repro.exceptions import TranspilerError
from repro.transpiler.decompose import decompose_to_basis
from repro.transpiler.direction import fix_cx_directions
from repro.transpiler.layout import Layout, apply_layout, select_layout
from repro.transpiler.optimize import cancel_adjacent_cx, merge_single_qubit_runs
from repro.transpiler.routing import route_circuit


class TranspilerPass:
    """A named circuit-to-circuit transformation."""

    def __init__(
        self, name: str, transform: Callable[[QuantumCircuit], QuantumCircuit]
    ) -> None:
        self.name = name
        self._transform = transform

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Apply the pass."""
        return self._transform(circuit)

    def __repr__(self) -> str:
        return f"TranspilerPass({self.name!r})"


class PassManager:
    """Runs a sequence of passes, recording which ran.

    Attributes
    ----------
    history:
        After :meth:`run`, the names of the passes applied, in order.
    """

    def __init__(self, passes: Sequence[TranspilerPass]) -> None:
        self.passes: List[TranspilerPass] = list(passes)
        self.history: List[str] = []

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Apply all passes in order."""
        self.history = []
        current = circuit
        for pass_ in self.passes:
            current = pass_.run(current)
            self.history.append(pass_.name)
        return current

    def __repr__(self) -> str:
        return f"PassManager({[p.name for p in self.passes]})"


def device_pass_manager(
    device: DeviceModel,
    layout: Optional[Layout] = None,
    optimize: bool = True,
) -> PassManager:
    """Build the standard pipeline for ``device``.

    Parameters
    ----------
    layout:
        Fix the virtual->physical placement instead of selecting one (the
        Table 1/2 reproductions pin the paper's published qubit choices).
    optimize:
        Disable to inspect the raw lowering.
    """
    chosen: dict = {"layout": layout}

    def select_and_apply(circuit: QuantumCircuit) -> QuantumCircuit:
        selected = chosen["layout"] or select_layout(circuit, device)
        chosen["layout"] = selected
        return apply_layout(circuit, selected)

    def route(circuit: QuantumCircuit) -> QuantumCircuit:
        routed, final_layout = route_circuit(
            circuit, device.coupling_map, chosen["layout"]
        )
        chosen["layout"] = final_layout
        return routed

    passes = [
        TranspilerPass("decompose", lambda c: decompose_to_basis(c, device.basis_gates)),
        TranspilerPass("layout", select_and_apply),
        TranspilerPass("route", route),
        TranspilerPass(
            "redecompose", lambda c: decompose_to_basis(c, device.basis_gates)
        ),
        TranspilerPass("direction", lambda c: fix_cx_directions(c, device.coupling_map)),
    ]
    if optimize:
        passes.append(TranspilerPass("cancel_cx", cancel_adjacent_cx))
        passes.append(TranspilerPass("merge_1q", merge_single_qubit_runs))
    return PassManager(passes)


def transpile_for_device(
    circuit: QuantumCircuit,
    device: DeviceModel,
    layout: Optional[Layout] = None,
    optimize: bool = True,
) -> QuantumCircuit:
    """Lower ``circuit`` to ``device``'s basis, connectivity and directions."""
    check_fits(circuit, device)
    manager = device_pass_manager(device, layout=layout, optimize=optimize)
    return manager.run(circuit)


def check_fits(circuit: QuantumCircuit, device: DeviceModel) -> None:
    """Raise :class:`TranspilerError` if ``circuit`` is wider than ``device``."""
    if circuit.num_qubits > device.num_qubits:
        raise TranspilerError(
            f"circuit needs {circuit.num_qubits} qubits but {device.name} "
            f"has {device.num_qubits}"
        )
