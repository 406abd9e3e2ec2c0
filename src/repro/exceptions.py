"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
downstream users can catch a single base class.  Subsystems raise the more
specific subclasses defined here.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class CircuitError(ReproError):
    """Raised for invalid circuit construction or manipulation."""


class RegisterError(CircuitError):
    """Raised for invalid register definitions or out-of-range bit access."""


class GateError(CircuitError):
    """Raised for unknown gates, bad parameters, or invalid gate matrices."""


class QasmError(CircuitError):
    """Raised when OpenQASM text cannot be parsed or emitted."""


class SimulationError(ReproError):
    """Raised when a simulator cannot execute a circuit."""


class StabilizerError(SimulationError):
    """Raised when a non-Clifford operation reaches the stabilizer engine."""


class NoiseError(ReproError):
    """Raised for invalid noise channels or noise-model construction."""


class DeviceError(ReproError):
    """Raised for invalid device models or backend configuration."""


class TranspilerError(ReproError):
    """Raised when a circuit cannot be lowered to a device's constraints."""


class AnalysisError(ReproError):
    """Raised for invalid analysis inputs (non-states, bad dimensions...)."""


class AssertionCircuitError(ReproError):
    """Raised for invalid runtime-assertion construction or evaluation."""


class ExperimentError(ReproError):
    """Raised when an experiment harness is misconfigured."""


class JobError(ReproError):
    """Raised when a runtime job fails, is cancelled, or is misused."""


class QueueTimeout(JobError):
    """Raised when a scheduled batch is still *queued* past a deadline.

    Distinct from an execution timeout: the batch never reached the
    execution stack, so the caller can make an informed retry/abandon
    decision from the attached queue telemetry.

    Attributes
    ----------
    client:
        The submitting client's name.
    waited:
        Seconds the batch has been sitting in the queue.
    queue_position:
        Zero-based position within the client's queue (0 = dispatched
        next), or ``None`` when the batch already left the queue.
    queued_batches:
        Total batches queued across all clients at raise time.
    """

    def __init__(
        self,
        message: str,
        client: str = "",
        waited: float = 0.0,
        queue_position=None,
        queued_batches: int = 0,
    ) -> None:
        super().__init__(message)
        self.client = client
        self.waited = waited
        self.queue_position = queue_position
        self.queued_batches = queued_batches


class FaultInjected(ReproError):
    """Raised by a :class:`repro.faults.FaultPlan` site firing.

    Deliberately *not* a :class:`JobError`: resilience code treats it like
    any other unexpected execution failure, while tests can still assert
    the precise provenance of an injected fault.

    Attributes
    ----------
    site:
        The fault site that fired (e.g. ``"chunk.simulate"``).
    """

    def __init__(self, message: str, site: str = "") -> None:
        super().__init__(message)
        self.site = site


class CircuitOpen(JobError):
    """Raised when the scheduler's circuit breaker rejects a submission.

    The backend spec has crossed its failure-rate threshold and the
    breaker is open (or half-open with its probe slots taken): the
    submission never enters the queue, so a sick engine cannot consume
    fair-share capacity.  Retry after ``retry_after`` seconds.

    Attributes
    ----------
    backend:
        The backend spec the breaker guards.
    retry_after:
        Seconds until the breaker next admits a probe.
    """

    def __init__(self, message: str, backend: str = "",
                 retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.backend = backend
        self.retry_after = retry_after


class ServiceError(ReproError):
    """Base class for errors raised by the :mod:`repro.service` layer."""


class ServiceOverloaded(ServiceError):
    """Raised when the service sheds load instead of queueing a submission.

    Either the scheduler queue depth crossed the configured watermark or
    the service is draining for shutdown.  Transports map this to 503
    with a ``Retry-After`` header; it is *not* a client-quota rejection.

    Attributes
    ----------
    retry_after:
        Suggested seconds to wait before resubmitting.
    queue_depth:
        Batches queued across all clients at raise time.
    limit:
        The queue-depth watermark (0 when shedding for another reason).
    reason:
        ``"queue_depth"`` or ``"draining"``.
    """

    def __init__(self, message: str, retry_after: float = 1.0,
                 queue_depth: int = 0, limit: int = 0,
                 reason: str = "queue_depth") -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.queue_depth = queue_depth
        self.limit = limit
        self.reason = reason


class RegistrationConflict(ServiceError):
    """Raised when a client registration contradicts an existing one.

    Two different tokens may not register the same client name with
    conflicting ``weight``/``quota`` — the scheduler would see one client
    with ambiguous policy.  Re-registering with the *same* token is the
    explicit way to update a client's policy.

    Attributes
    ----------
    client:
        The conflicting client name.
    field:
        Which policy field disagreed (``"weight"`` or ``"quota"``).
    """

    def __init__(self, message: str, client: str = "", field: str = "") -> None:
        super().__init__(message)
        self.client = client
        self.field = field


class UnknownJob(ServiceError):
    """Raised when a job id resolves to nothing the service knows about.

    Distinct from a generic :class:`ServiceError` so transports can map it
    precisely (the HTTP front-end answers 404, not 400).

    Attributes
    ----------
    job_id:
        The id that failed to resolve.
    """

    def __init__(self, message: str, job_id: str = "") -> None:
        super().__init__(message)
        self.job_id = job_id


class JobExpired(UnknownJob):
    """Raised for a settled job id the service has let go of.

    A service keeps a settled handle in memory only until its journal
    holds the settlement; a journal-less service keeps just its most
    recent settled handles.  An older id with no journal to answer for it
    has expired: it did exist, unlike an :class:`UnknownJob`, which this
    subclasses so code that handles unknown ids keeps working.
    """


class ScopeDenied(ServiceError):
    """Raised when an authenticated token lacks the scope an API requires.

    Distinct from :class:`~repro.service.auth.AuthenticationError`: the
    token is valid and maps to a client, but its granted scopes (e.g.
    ``("read",)``) do not cover the operation (e.g. ``"submit"``).

    Attributes
    ----------
    client:
        The authenticated client's name.
    scope:
        The scope the operation required.
    granted:
        The scopes the token actually carries.
    """

    def __init__(self, message: str, client: str = "", scope: str = "",
                 granted=()) -> None:
        super().__init__(message)
        self.client = client
        self.scope = scope
        self.granted = tuple(granted)


class ProviderError(DeviceError):
    """Raised for unknown backend specs in the runtime provider registry."""
