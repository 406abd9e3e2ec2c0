"""Noise modelling: Kraus channels, device noise models, trajectory sampling."""

from repro.noise.channels import (
    KrausChannel,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    lift_operators,
    pauli_channel,
    phase_damping,
    phase_flip,
    thermal_relaxation,
    two_qubit_depolarizing,
)
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.noise.trajectories import TrajectorySimulator

__all__ = [
    "KrausChannel",
    "NoiseModel",
    "ReadoutError",
    "TrajectorySimulator",
    "amplitude_damping",
    "bit_flip",
    "bit_phase_flip",
    "depolarizing",
    "lift_operators",
    "pauli_channel",
    "phase_damping",
    "phase_flip",
    "thermal_relaxation",
    "two_qubit_depolarizing",
]
