"""Multi-tenant async service layer over the runtime scheduler.

:class:`~repro.service.service.RuntimeService` wraps the fair-share
:class:`~repro.runtime.scheduler.Scheduler` into a long-running service:
``async submit()`` returns an awaitable :class:`ServiceJob` handle with a
stable id, completion streams through ``async for`` over
``as_completed()``, and admission is gated by hashed-token
authentication with expiry and scopes (:mod:`repro.service.auth`),
per-client concurrency quotas and shots/sec token buckets
(:mod:`repro.service.quota`).  ``stats()`` is a view over the service's
and its scheduler's :mod:`repro.obs.metrics` instruments — the same
numbers ``GET /v1/metrics`` exposes.

The service is restart-durable: every submission and settlement is
write-ahead-journaled to an append-only record log
(:mod:`repro.service.journal`), so a restarted service still answers
``status()``/``result()``/``counts()`` for pre-restart ``svc-N`` ids and
re-runs unsettled work via :meth:`RuntimeService.recover`.  The journal
is also where a settled job lives while the service runs: once its
settlement is journaled the in-memory handle goes, so memory is bounded
by the work in flight, not by history.  Settled jobs
charge per-tenant cost ledgers (:mod:`repro.service.accounting`) that
can feed back into fair-share weights.

The service decides *when* and *whether* work runs — never *what* it
computes: seeded submissions return counts bit-identical to calling
:func:`repro.runtime.execute.execute` directly.

The whole surface is reachable over the network too:
:mod:`repro.service.http` serves it as a stdlib-asyncio HTTP/1.1 API
(``POST /v1/jobs`` with circuits as OpenQASM, id-based status/result/
counts, Server-Sent completion events) and
:class:`~repro.service.client.ServiceClient` is the matching
``http.client`` consumer that re-raises the same typed exceptions.
"""

from repro.exceptions import (
    CircuitOpen,
    JobExpired,
    QueueTimeout,
    RegistrationConflict,
    ScopeDenied,
    ServiceError,
    ServiceOverloaded,
    UnknownJob,
)
from repro.service.accounting import CostLedger
from repro.service.auth import (
    DEFAULT_SCOPES,
    SCOPES,
    AuthenticationError,
    ClientIdentity,
    TokenAuthenticator,
)
from repro.service.client import ServiceClient
from repro.service.http import BackgroundServer, ServiceServer, serve
from repro.service.journal import JobJournal
from repro.service.quota import (
    OVER_QUOTA_POLICIES,
    UNLIMITED,
    ClientQuota,
    QuotaExceeded,
    RateLimited,
    TokenBucket,
)
from repro.service.service import RecoveredJob, RuntimeService, ServiceJob

__all__ = [
    "AuthenticationError",
    "BackgroundServer",
    "CircuitOpen",
    "ClientIdentity",
    "ClientQuota",
    "CostLedger",
    "DEFAULT_SCOPES",
    "JobExpired",
    "JobJournal",
    "OVER_QUOTA_POLICIES",
    "QueueTimeout",
    "QuotaExceeded",
    "RateLimited",
    "RecoveredJob",
    "RegistrationConflict",
    "RuntimeService",
    "SCOPES",
    "ScopeDenied",
    "ServiceClient",
    "ServiceError",
    "ServiceJob",
    "ServiceOverloaded",
    "ServiceServer",
    "TokenAuthenticator",
    "TokenBucket",
    "UNLIMITED",
    "UnknownJob",
    "serve",
]
