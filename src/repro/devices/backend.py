"""Execution backends: the ``run(circuit, shots) -> Result`` abstraction.

Backends bundle an engine with (optionally) a device model and the
transpiler, so experiments can be written once and pointed at an ideal
simulator or a noisy device model interchangeably — the same way the paper's
experiments moved between QUIRK and IBM Q.

For batch workloads, prefer going through :mod:`repro.runtime`:
``repro.runtime.execute`` fans circuits and shot chunks out over a thread
pool, deduplicates identical jobs, and resolves backends by name via
``repro.runtime.get_backend`` (e.g. ``"noisy:ibmqx4"``).  Device-model
backends transparently memoise their transpile step through the runtime's
shape-keyed :class:`~repro.runtime.cache.TranspileCache`.
"""

from __future__ import annotations

from typing import Optional

from repro.circuits.circuit import QuantumCircuit
from repro.devices.device import DeviceModel
from repro.exceptions import DeviceError
from repro.results.result import Result
from repro.simulators.density_matrix import DensityMatrixSimulator
from repro.simulators.stabilizer import StabilizerSimulator
from repro.simulators.statevector import StatevectorSimulator


class Backend:
    """Abstract backend interface."""

    name = "abstract"

    #: ``True`` when :meth:`run` results carry the exact outcome
    #: distribution in ``result.probabilities`` (lets the runtime's
    #: batching layer re-sample counts instead of re-simulating).
    returns_probabilities = False

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        seed: Optional[int] = None,
    ) -> Result:
        """Execute ``circuit`` for ``shots`` shots."""
        raise NotImplementedError

    def content_fingerprint(self) -> Optional[str]:
        """Return a content hash of everything the output distribution
        depends on, or ``None`` when the backend cannot describe itself.

        The runtime's cross-call
        :class:`~repro.runtime.distcache.DistributionCache` keys entries on
        this value, so two instances must share a fingerprint iff they
        would produce identical distributions for every circuit.  The
        conservative default (``None``) opts a backend out of cross-call
        caching entirely — correct for arbitrary user subclasses, which may
        hide mutable state.
        """
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class StatevectorBackend(Backend):
    """Ideal pure-state backend (the "QUIRK" role).

    ``max_batch`` tiles the post-``max_branches`` per-shot fallback (see
    :class:`~repro.simulators.statevector.StatevectorSimulator`); it is a
    pure throughput knob — fallback counts are bit-identical across
    tilings for a fixed seed — so it stays out of the content fingerprint.
    """

    name = "statevector"
    returns_probabilities = True

    def __init__(
        self,
        max_branches: int = 4096,
        max_batch: Optional[int] = None,
    ) -> None:
        from repro.simulators import _batched

        self.max_branches = max_branches
        self.max_batch = (
            _batched.DEFAULT_MAX_BATCH if max_batch is None else max_batch
        )
        self._simulator = StatevectorSimulator(
            max_branches=max_branches, max_batch=self.max_batch
        )

    def run(self, circuit, shots=1024, seed=None):
        return self._simulator.run(circuit, shots=shots, seed=seed)

    def content_fingerprint(self):
        # max_branches decides when the engine falls back to per-shot mode
        # (no exact distribution), so it participates.
        return f"statevector|branches={self.max_branches}"


class DensityMatrixBackend(Backend):
    """Ideal mixed-state backend (exact distributions)."""

    name = "density_matrix"
    returns_probabilities = True

    def __init__(self, max_branches: int = 4096) -> None:
        self.max_branches = max_branches
        self._simulator = DensityMatrixSimulator(max_branches=max_branches)

    def run(self, circuit, shots=1024, seed=None):
        return self._simulator.run(circuit, shots=shots, seed=seed)

    def content_fingerprint(self):
        return f"density_matrix|branches={self.max_branches}"


class StabilizerBackend(Backend):
    """Clifford-only backend for large-qubit-count runs.

    The engine makes one tableau pass per job and samples every shot in
    one batched draw.
    """

    name = "stabilizer"

    def __init__(self) -> None:
        self._simulator = StabilizerSimulator()

    def run(self, circuit, shots=1024, seed=None):
        return self._simulator.run(circuit, shots=shots, seed=seed)

    def content_fingerprint(self):
        # Stateless engine; the fingerprint exists for completeness (the
        # distribution cache never stores per-shot backends anyway).
        return "stabilizer"


class DeviceBackend(Backend):
    """Shared base for backends that lower circuits to a device model.

    Subclasses provide the engine via :meth:`_make_simulator`; qubit-count
    validation, (cached) transpilation and result metadata stamping are
    handled here once.

    Parameters
    ----------
    device:
        The :class:`DeviceModel` to emulate.
    noise_scale:
        Multiplier on all calibrated error rates (1.0 = nominal; 0 = ideal).
    transpile:
        Set ``False`` if circuits are already in device-native form with
        physical qubit indices.
    layout:
        Pin the virtual->physical placement instead of selecting one (the
        Table 1/2 reproductions pin the paper's published qubit choices).
    cache:
        Transpile cache policy: ``None`` (default) shares the process-wide
        :data:`repro.runtime.cache.DEFAULT_CACHE` (which persists across
        processes when ``$REPRO_CACHE_DIR`` is set); a
        :class:`~repro.runtime.cache.TranspileCache` instance uses that
        cache; ``False`` disables caching entirely.
    """

    _family = "device"

    def __init__(
        self,
        device: DeviceModel,
        noise_scale: float = 1.0,
        transpile: bool = True,
        layout=None,
        cache=None,
    ) -> None:
        self.device = device
        self.noise_scale = noise_scale
        self.transpile = transpile
        self.layout = layout
        self.cache = cache
        self.name = f"{self._family}({device.name})"
        self._noise_model = device.noise_model(scale=noise_scale)
        self._simulator = self._make_simulator()

    def _make_simulator(self):
        raise NotImplementedError

    @property
    def noise_model(self):
        """Return the compiled noise model (shared with the engine)."""
        return self._noise_model

    def prepare(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Return the circuit as it would execute (transpiled if enabled).

        Transpilation goes through the runtime's shape-keyed cache, so
        sweeps that re-run a circuit (any shots, seed, noise scale or
        1-qubit angles) run the full lowering once per ``(circuit shape,
        device, layout)`` and re-bind only the angles after that.
        """
        if circuit.num_qubits > self.device.num_qubits:
            raise DeviceError(
                f"circuit needs {circuit.num_qubits} qubits but "
                f"{self.device.name} has {self.device.num_qubits}"
            )
        if not self.transpile:
            return circuit
        if self.cache is False:
            from repro.transpiler import transpile_for_device

            return transpile_for_device(circuit, self.device, layout=self.layout)
        from repro.runtime.cache import transpile_cached

        return transpile_cached(
            circuit,
            self.device,
            layout=self.layout,
            cache=self.cache,
        )

    def run(self, circuit, shots=1024, seed=None):
        executed = self.prepare(circuit)
        result = self._simulator.run(executed, shots=shots, seed=seed)
        result.metadata["device"] = self.device.name
        result.metadata["noise_scale"] = self.noise_scale
        result.metadata["transpiled_ops"] = executed.count_ops()
        return result

    def content_fingerprint(self):
        """Device calibration, noise scale, transpile flag and layout all
        shape the output distribution, so all participate in the hash."""
        from repro.runtime.cache import device_fingerprint

        layout_key = (
            None if self.layout is None else tuple(self.layout.virtual_to_physical)
        )
        return (
            f"{self._family}|{device_fingerprint(self.device)}"
            f"|scale={self.noise_scale!r}|transpile={self.transpile}"
            f"|layout={layout_key}"
        )


class NoisyDeviceBackend(DeviceBackend):
    """Transpile to a device and execute on the density-matrix engine.

    This backend plays the role of the IBM Q machine in the paper's §4:
    circuits are lowered to the device's basis gates and coupling
    constraints, then evolved under the calibrated noise model, and the
    returned counts are multinomial samples of the exact noisy distribution.
    """

    _family = "noisy"
    returns_probabilities = True

    def _make_simulator(self):
        return DensityMatrixSimulator(noise_model=self._noise_model)


class TrajectoryDeviceBackend(DeviceBackend):
    """Monte-Carlo noisy backend (scales past the density-matrix engine).

    Extra parameters (on top of :class:`DeviceBackend`):

    max_batch:
        Forwarded to :class:`~repro.noise.trajectories.TrajectorySimulator`:
        the shot-tiling bound.  Counts are bit-identical across tilings for
        a fixed seed, so it is a pure throughput knob.
    """

    _family = "trajectory"

    def __init__(
        self,
        device: DeviceModel,
        noise_scale: float = 1.0,
        transpile: bool = True,
        layout=None,
        cache=None,
        max_batch: Optional[int] = None,
    ) -> None:
        from repro.simulators import _batched

        self.max_batch = (
            _batched.DEFAULT_MAX_BATCH if max_batch is None else max_batch
        )
        super().__init__(
            device,
            noise_scale=noise_scale,
            transpile=transpile,
            layout=layout,
            cache=cache,
        )

    def _make_simulator(self):
        from repro.noise.trajectories import TrajectorySimulator

        return TrajectorySimulator(
            noise_model=self._noise_model, max_batch=self.max_batch
        )
