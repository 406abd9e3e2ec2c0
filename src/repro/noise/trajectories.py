"""Monte-Carlo quantum-trajectory simulation.

Unravels each noisy gate's channels, folded into one Kraus set per
segment, stochastically on a statevector: one Kraus operator is sampled
with probability ``<psi| K^dagger K |psi>`` and applied (renormalised).
Memory scales like a statevector instead of a density matrix, trading
exactness for sampling noise — the cross-validation benchmark (experiment
A5 in the README's *Reproducing the paper* index,
``benchmarks/bench_simulators.py``) checks it converges to the
density-matrix engine's exact distribution.

Shots execute through :mod:`repro.simulators._batched`: all trajectories
of a ``max_batch`` tile advance together, with one state per distinct
stochastic history rather than per shot, so weak device noise costs far
less than one statevector walk per shot.  A run has one Philox key
derived from its seed, and trajectory ``t`` draws from its own run of
Philox counters (the blocks after ``t * ceil(D / 4)``, ``D`` the most
uniforms one trajectory can take: one per multi-branch Born step,
mid-circuit measurement, mid-circuit readout flip and reset, and one for
the joint readout of the terminal measurements), so counts are
bit-identical for a fixed seed at every ``max_batch`` tiling.  The noise
model is compiled once per run: any model with ``channels_for`` /
``readout_confusion``, duck-typed or a
:class:`repro.noise.model.NoiseModel`, is asked for each gate's channels
once per run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.results.counts import Counts
from repro.results.result import Result
from repro.simulators import _batched


class TrajectorySimulator:
    """Shot-based noisy statevector engine.

    Parameters
    ----------
    noise_model:
        The same duck-typed interface the density-matrix engine uses
        (``channels_for`` / ``readout_confusion``); ``None`` degenerates to
        ideal per-shot statevector simulation.
    max_batch:
        Shot-tiling bound (memory knob; never affects counts).
    """

    name = "trajectory"

    def __init__(
        self,
        noise_model=None,
        max_batch: int = _batched.DEFAULT_MAX_BATCH,
    ) -> None:
        self.noise_model = noise_model
        self.max_batch = _batched.validate_max_batch(max_batch)

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        seed: Optional[int] = None,
        initial_state: Optional[np.ndarray] = None,
    ) -> Result:
        """Sample ``shots`` noisy trajectories and return their counts."""
        counts = _batched.sample_shots(
            circuit,
            self.noise_model,
            shots,
            seed,
            initial_state,
            max_batch=self.max_batch,
        )
        return Result(
            counts=Counts(counts),
            shots=shots,
            metadata={
                "engine": self.name,
                "noise": getattr(self.noise_model, "name", None),
                "seed": seed,
                "max_batch": self.max_batch,
            },
        )
