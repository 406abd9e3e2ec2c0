"""The :class:`DeviceModel`: topology + basis gates + calibration.

A device model is a declarative description; :meth:`DeviceModel.noise_model`
compiles its calibration into a :class:`~repro.noise.model.NoiseModel` of
depolarizing + thermal-relaxation channels and readout confusion matrices,
which the noisy backends feed to the simulation engines.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.devices.calibration import GateCalibration, QubitCalibration
from repro.devices.topology import CouplingMap
from repro.exceptions import DeviceError
from repro.noise.channels import (
    KrausChannel,
    depolarizing,
    lift_operators,
    thermal_relaxation,
    two_qubit_depolarizing,
)
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError


class DeviceModel:
    """A quantum device: size, connectivity, native gates, calibration.

    Parameters
    ----------
    name:
        Device name (e.g. ``"ibmqx4"``).
    coupling_map:
        Directed native-CX connectivity.
    basis_gates:
        Lower-case native gate names (single-qubit ones plus ``"cx"``).
    qubit_calibrations:
        One :class:`QubitCalibration` per physical qubit.
    gate_calibrations:
        Error/duration records; 1-qubit records may use an empty qubit tuple
        to serve as the device-wide default.
    """

    def __init__(
        self,
        name: str,
        coupling_map: CouplingMap,
        basis_gates: Sequence[str],
        qubit_calibrations: Sequence[QubitCalibration],
        gate_calibrations: Sequence[GateCalibration] = (),
    ) -> None:
        self.name = name
        self.coupling_map = coupling_map
        self.basis_gates = tuple(g.lower() for g in basis_gates)
        if len(qubit_calibrations) != coupling_map.num_qubits:
            raise DeviceError(
                f"{len(qubit_calibrations)} qubit calibrations for a "
                f"{coupling_map.num_qubits}-qubit coupling map"
            )
        self.qubit_calibrations = tuple(qubit_calibrations)
        self.gate_calibrations = tuple(gate_calibrations)
        self._calibration_index: Dict[Tuple[str, Tuple[int, ...]], GateCalibration] = {
            (cal.name, cal.qubits): cal for cal in gate_calibrations
        }

    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Return the device size."""
        return self.coupling_map.num_qubits

    def gate_calibration(
        self, name: str, qubits: Sequence[int]
    ) -> Optional[GateCalibration]:
        """Return the calibration for a gate instance (or its default)."""
        key = (name.lower(), tuple(int(q) for q in qubits))
        if key in self._calibration_index:
            return self._calibration_index[key]
        return self._calibration_index.get((name.lower(), ()))

    def noise_model(self, scale: float = 1.0) -> NoiseModel:
        """Compile the calibration into a :class:`NoiseModel`.

        Parameters
        ----------
        scale:
            Multiplier on every error rate and readout flip probability —
            the knob used by the noise-sweep ablation (experiment A4
            in the README's *Reproducing the paper* index).
            ``scale=0`` yields an ideal model.
        """
        if scale < 0:
            raise DeviceError("noise scale must be non-negative")
        model = NoiseModel(name=f"{self.name}(x{scale:g})")
        if scale == 0:
            return model
        for cal in self.gate_calibrations:
            rate = min(1.0, cal.error_rate * scale)
            if cal.name == "cx" or len(cal.qubits) == 2:
                channel = two_qubit_depolarizing(rate)
            else:
                channel = depolarizing(rate)
            if cal.qubits:
                model.add_gate_error(cal.name, cal.qubits, channel)
                self._attach_relaxation(model, cal, scale)
            else:
                model.add_all_qubit_gate_error([cal.name], channel)
        for qubit, qcal in enumerate(self.qubit_calibrations):
            model.add_readout_error(
                ReadoutError(
                    min(1.0, qcal.readout_p0_given_1 * scale),
                    min(1.0, qcal.readout_p1_given_0 * scale),
                ),
                qubit=qubit,
            )
        return model

    def _attach_relaxation(
        self, model: NoiseModel, cal: GateCalibration, scale: float
    ) -> None:
        """Attach per-qubit thermal relaxation for the gate's duration."""
        if cal.duration_ns <= 0:
            return
        for qubit in cal.qubits:
            qcal = self.qubit_calibrations[qubit]
            channel = thermal_relaxation(
                qcal.t1 / max(scale, 1e-9),
                qcal.t2 / max(scale, 1e-9),
                cal.duration_ns,
            )
            lifted = lift_operators(
                channel.operators, cal.qubits.index(qubit), len(cal.qubits)
            )
            model.add_gate_error(
                cal.name,
                cal.qubits,
                KrausChannel(lifted, name=f"{channel.name}@q{qubit}"),
            )

    def average_cx_error(self) -> float:
        """Return the mean calibrated CX error rate (reporting helper)."""
        rates = [c.error_rate for c in self.gate_calibrations if c.name == "cx"]
        if not rates:
            return 0.0
        return sum(rates) / len(rates)

    def __repr__(self) -> str:
        return (
            f"DeviceModel({self.name!r}, num_qubits={self.num_qubits}, "
            f"basis_gates={list(self.basis_gates)})"
        )

