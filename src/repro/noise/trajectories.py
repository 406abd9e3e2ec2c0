"""Monte-Carlo quantum-trajectory simulation.

Unravels each Kraus channel stochastically on a statevector: after every
noisy gate, one Kraus operator is sampled with probability
``<psi| K^dagger K |psi>`` and applied (renormalised).  Memory scales like a
statevector instead of a density matrix, trading exactness for sampling
noise — the cross-validation benchmark (experiment A5 in the README's
*Reproducing the paper* index, ``benchmarks/bench_simulators.py``) checks
it converges to the density-matrix engine's exact distribution.

Shots execute through :mod:`repro.simulators._batched`.  By default
(``method="batched"``) all trajectories of a ``max_batch`` tile advance
together, with one state per distinct stochastic history rather than per
shot, so weak device noise costs far less than one statevector walk per
shot; the historical per-shot walker is retained as ``method="loop"``.
Each trajectory draws from its own counter-based Philox substream keyed
by ``(seed, trajectory index)``: the batched path generates a tile's
substreams in one vectorised pass (:mod:`repro.simulators._philox`), the
loop path with NumPy's own generator, and the two agree double for
double.  Both paths share column-wise deterministic kernels, so batched
and looped counts are **bit-identical** for a fixed seed at every
``max_batch`` tiling.  Duck-typed noise models (anything that is not a
:class:`repro.noise.model.NoiseModel`) are queried per shot and therefore
always take the loop path.
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
    method:
        ``"batched"`` evolves whole shot tiles along a NumPy batch axis,
        ``"loop"`` re-walks the circuit per shot, and ``"auto"`` (default)
        batches whenever the noise model supports it.  Counts are
        bit-identical across methods for a fixed seed.
    max_batch:
        Shot-tiling bound for the batched path (memory knob; never affects
        counts).
    """

    name = "trajectory"

    def __init__(
        self,
        noise_model=None,
        method: str = "auto",
        max_batch: int = _batched.DEFAULT_MAX_BATCH,
    ) -> None:
        self.noise_model = noise_model
        _batched.resolve_method(method, None)  # validate the name eagerly
        self.method = method
        self.max_batch = _batched.validate_max_batch(max_batch)

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        seed: Optional[int] = None,
        initial_state: Optional[np.ndarray] = None,
    ) -> Result:
        """Sample ``shots`` noisy trajectories and return their counts."""
        counts, resolved = _batched.sample_shots(
            circuit,
            self.noise_model,
            shots,
            seed,
            initial_state,
            method=self.method,
            max_batch=self.max_batch,
        )
        return Result(
            counts=Counts(counts),
            shots=shots,
            metadata={
                "engine": self.name,
                "noise": getattr(self.noise_model, "name", None),
                "seed": seed,
                "method": resolved,
                "max_batch": self.max_batch,
            },
        )
