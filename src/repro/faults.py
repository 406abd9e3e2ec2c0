"""Deterministic, seedable fault injection for chaos testing.

The resilience machinery this repo grew in PR 10 — chunk retries, pool
rebuilds, circuit breakers, load shedding — is only trustworthy if it can
be *exercised*, and exercised reproducibly.  :class:`FaultPlan` is that
lever: a per-site table of fault rules whose fire/no-fire decisions are a
pure function of ``(plan seed, site, decision key)``, so a chaos storm
replayed with the same plan seed kills the same workers and fails the
same chunks, bit for bit.

Sites are plain strings; the ones the codebase consults are listed in
:data:`SITES`:

``chunk.simulate``
    A chunk raises :class:`~repro.exceptions.FaultInjected` instead of
    simulating (exercises per-chunk retry).
``pool.worker_crash``
    A process-pool worker hard-exits (``os._exit``) mid-chunk, breaking
    the shared pool (exercises pool rebuild + resubmission).  Only
    honoured under process executors — in a thread or serial executor
    the "worker" is the caller's interpreter.
``journal.write``
    A journal log append raises (exercises submit rollback and
    settlement-error paths).
``http.accept``
    An accepted HTTP connection is dropped before reading the request
    (exercises client reconnect/retry).

Decisions happen in the *parent* process wherever possible (the plan
holds a lock and is deliberately not shipped across pickle boundaries):
the runtime computes each chunk's fault verdict before submitting and
ships only the verdict into the worker.

Activation is either explicit (pass a plan to ``execute(fault_plan=...)``
or use the :func:`injected` context manager) or ambient via
``$REPRO_FAULT_PLAN`` — a JSON object (or a path to a JSON file) like::

    {"seed": 7, "sites": {"chunk.simulate": 0.05,
                          "pool.worker_crash": {"rate": 1.0, "times": 1}}}

A bare number is shorthand for ``{"rate": ...}``.  ``times`` caps how
often a site fires, ``after`` skips the first N decisions.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import FaultInjected

__all__ = [
    "SITES",
    "FaultRule",
    "FaultPlan",
    "ENV_VAR",
    "active_plan",
    "activate",
    "deactivate",
    "injected",
    "should_fail",
    "inject",
]

#: Fault sites consulted somewhere in the codebase.  Plans may name other
#: sites (they simply never fire anything); this list is documentation
#: plus a typo guard for the helpers below.
SITES = (
    "chunk.simulate",
    "pool.worker_crash",
    "journal.write",
    "http.accept",
)

ENV_VAR = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class FaultRule:
    """One site's firing policy.

    Attributes
    ----------
    rate:
        Probability in ``[0, 1]`` that a decision fires (1.0 = always).
    times:
        Cap on total fires for this site (``None`` = unlimited).
    after:
        Number of initial decisions to skip before the rule is live.
    """

    rate: float = 1.0
    times: Optional[int] = None
    after: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate!r}")
        if self.times is not None and self.times < 0:
            raise ValueError(f"times must be >= 0, got {self.times!r}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after!r}")

    @classmethod
    def coerce(cls, value) -> "FaultRule":
        if isinstance(value, FaultRule):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return cls(rate=float(value))
        if isinstance(value, dict):
            unknown = set(value) - {"rate", "times", "after"}
            if unknown:
                raise ValueError(
                    f"unknown FaultRule fields: {sorted(unknown)}"
                )
            return cls(**value)
        raise TypeError(
            f"fault rule must be a number, dict or FaultRule, got {value!r}"
        )


def _uniform(seed: int, site: str, key) -> float:
    """A deterministic uniform in [0, 1) from (seed, site, key).

    sha256, not ``hash()``: the latter is salted per-interpreter
    (PYTHONHASHSEED), which would make chaos runs unreproducible.
    """
    token = f"{seed}|{site}|{key!r}".encode("utf-8")
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


class FaultPlan:
    """A seeded table of per-site fault rules with deterministic decisions.

    ``should_fire(site, key=...)`` is the whole API: with an explicit
    ``key`` the verdict is a pure function of ``(seed, site, key)`` —
    the runtime keys chunk faults by ``(job seed, chunk index, attempt)``
    so a replayed storm injects identically.  Without a key, a per-site
    decision counter is used (still deterministic within one process for
    a fixed decision order).

    Thread-safe; deliberately not picklable across process boundaries
    (decisions belong in the parent — workers receive verdicts).
    """

    def __init__(self, seed: int = 0,
                 sites: Optional[Dict[str, object]] = None) -> None:
        self.seed = int(seed)
        self.sites: Dict[str, FaultRule] = {
            site: FaultRule.coerce(rule)
            for site, rule in (sites or {}).items()
        }
        self._lock = threading.Lock()
        self._decisions: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}

    # -- decisions -------------------------------------------------------

    def should_fire(self, site: str, key=None) -> bool:
        """Return True when ``site`` fires for this decision.

        Every call counts as one decision (for ``after`` and the
        per-site tallies) whether or not it fires; fires additionally
        consume the ``times`` budget.
        """
        rule = self.sites.get(site)
        with self._lock:
            index = self._decisions.get(site, 0)
            self._decisions[site] = index + 1
            if rule is None:
                return False
            if index < rule.after:
                return False
            if rule.times is not None and self._fired.get(site, 0) >= rule.times:
                return False
            decision_key = key if key is not None else index
            if _uniform(self.seed, site, decision_key) >= rule.rate:
                return False
            self._fired[site] = self._fired.get(site, 0) + 1
            return True

    def stats(self) -> dict:
        """Return per-site ``{decisions, fired}`` tallies."""
        with self._lock:
            return {
                site: {
                    "decisions": self._decisions.get(site, 0),
                    "fired": self._fired.get(site, 0),
                }
                for site in set(self._decisions) | set(self.sites)
            }

    # -- (de)serialization ----------------------------------------------

    @classmethod
    def from_spec(cls, spec) -> "FaultPlan":
        """Build a plan from a dict / JSON string / JSON-file path."""
        if isinstance(spec, FaultPlan):
            return spec
        if isinstance(spec, str):
            text = spec.strip()
            if not text.startswith("{"):
                with open(text, "r", encoding="utf-8") as handle:
                    text = handle.read()
            spec = json.loads(text)
        if not isinstance(spec, dict):
            raise TypeError(
                f"fault plan spec must be a dict or JSON object, got {spec!r}"
            )
        unknown = set(spec) - {"seed", "sites"}
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        return cls(seed=spec.get("seed", 0), sites=spec.get("sites"))

    def to_spec(self) -> dict:
        sites: Dict[str, dict] = {}
        for site, rule in self.sites.items():
            entry = {"rate": rule.rate}
            if rule.times is not None:
                entry["times"] = rule.times
            if rule.after:
                entry["after"] = rule.after
            sites[site] = entry
        return {"seed": self.seed, "sites": sites}

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, sites={sorted(self.sites)})"


# -- ambient plan --------------------------------------------------------
#
# One process-wide plan: either explicitly activated or parsed once from
# $REPRO_FAULT_PLAN.  The env-parsed plan is cached per env value so its
# decision counters persist across consultations within the process.

_lock = threading.Lock()
_explicit: Optional[FaultPlan] = None
_env_cache: Optional[tuple] = None  # (env value, FaultPlan)


def activate(plan) -> FaultPlan:
    """Install ``plan`` as the process-wide ambient fault plan."""
    global _explicit
    plan = FaultPlan.from_spec(plan)
    with _lock:
        _explicit = plan
    return plan


def deactivate() -> None:
    """Clear any explicitly-activated ambient plan."""
    global _explicit
    with _lock:
        _explicit = None


def active_plan() -> Optional[FaultPlan]:
    """The ambient plan: explicitly activated, else ``$REPRO_FAULT_PLAN``."""
    global _env_cache
    with _lock:
        if _explicit is not None:
            return _explicit
        value = os.environ.get(ENV_VAR)
        if not value:
            _env_cache = None
            return None
        if _env_cache is not None and _env_cache[0] == value:
            return _env_cache[1]
        plan = FaultPlan.from_spec(value)
        _env_cache = (value, plan)
        return plan


class injected:
    """Context manager scoping an ambient plan: ``with injected(plan): ...``"""

    def __init__(self, plan) -> None:
        self.plan = FaultPlan.from_spec(plan)
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        global _explicit
        with _lock:
            self._previous = _explicit
            _explicit = self.plan
        return self.plan

    def __exit__(self, *exc_info) -> None:
        global _explicit
        with _lock:
            _explicit = self._previous


def should_fail(site: str, key=None) -> bool:
    """Ambient-plan decision for ``site`` (False when no plan is active)."""
    plan = active_plan()
    return plan is not None and plan.should_fire(site, key=key)


def inject(site: str, key=None) -> None:
    """Raise :class:`FaultInjected` when the ambient plan fires ``site``."""
    if should_fail(site, key=key):
        raise FaultInjected(f"injected fault at {site}", site=site)
