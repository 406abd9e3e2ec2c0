"""Per-tenant cost accounting: measured spend feeding fair-share weights.

The scheduler's weighted round-robin treats a tenant's configured weight
as ground truth, but weights are set at registration time — before
anyone knows what the tenant's workload actually costs.  This module
closes the loop in the spirit of profile-guided optimization: every
settled job charges its tenant's ledger with the shots it ran and (when
the :class:`~repro.runtime.profile.CostModel` has measured the workload)
the estimated seconds those shots cost, and
:meth:`CostLedger.effective_weight` turns relative spend into a weight
adjustment the service can feed back into
:meth:`~repro.runtime.scheduler.Scheduler.client`.

Ledgers persist in a :class:`~repro.runtime.recordlog.RecordLog` at
``<cache_dir>/service/accounting.log``, next to the job journal: each
charge appends the tenant's updated totals as one frame, replay keeps the
last frame per tenant, and a checkpoint shrinks the file back to one
frame per tenant.  A restarted service resumes accounting where it left
off.

The feedback policy is deliberately conservative:

* with fewer than two tenants that have any spend there is nothing to
  balance — the configured weight stands;
* spend is compared as a ratio to the *mean* spend, so the adjustment is
  scale-free (doubling everyone's traffic changes nothing);
* the result is clamped to ``[1, 4 × base]`` — accounting nudges shares,
  it never starves a tenant to zero or lets a light tenant monopolise.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

from repro.runtime.recordlog import RecordLog

#: The ledgers' log file, relative to the shared cache dir.
LEDGER_LOG = os.path.join("service", "accounting.log")

#: effective_weight never exceeds ``base * WEIGHT_CLAMP`` (nor drops below 1).
WEIGHT_CLAMP = 4


class CostLedger:
    """Per-tenant spend totals (shots, estimated seconds, jobs).

    Parameters
    ----------
    cache_dir:
        Parent cache directory (ledgers live in
        ``<cache_dir>/service/accounting.log``); ``None`` keeps the ledger
        memory-only.

    Thread-safe: charges arrive from executor settlement threads while
    snapshots are read from anywhere.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._ledgers: Dict[str, dict] = {}
        self._log = (
            RecordLog(os.path.join(cache_dir, LEDGER_LOG))
            if cache_dir else None
        )
        if self._log is None:
            return
        for client, value in self._log.replay().items():
            if isinstance(client, str) and isinstance(value, dict):
                self._ledgers[client] = {
                    "shots": int(value.get("shots", 0)),
                    "cost_s": float(value.get("cost_s", 0.0)),
                    "jobs": int(value.get("jobs", 0)),
                    "updated_at": value.get("updated_at"),
                }

    @property
    def durable(self) -> bool:
        """Whether ledgers reach disk (``False`` = memory-only)."""
        return self._log is not None

    def charge(
        self, client: str, shots: int, cost_s: Optional[float] = None
    ) -> dict:
        """Add one settled job's spend to ``client``'s ledger.

        ``cost_s`` is the cost model's estimate for the job in seconds,
        or ``None`` when the workload has never been measured — the shots
        still count, so accounting works before profiles warm up.
        Returns a copy of the updated ledger.  The append happens under
        the ledger lock, so the log's last frame per tenant is its latest
        total; an append that fails raises :class:`OSError`.
        """
        with self._lock:
            ledger = self._ledgers.setdefault(
                client, {"shots": 0, "cost_s": 0.0, "jobs": 0,
                         "updated_at": None}
            )
            ledger["shots"] += max(0, int(shots))
            if cost_s is not None and cost_s > 0:
                ledger["cost_s"] += float(cost_s)
            ledger["jobs"] += 1
            ledger["updated_at"] = time.time()
            snapshot = dict(ledger)
            if self._log is not None:
                self._log.append(client, snapshot)
        return snapshot

    def spend(self, client: str) -> Optional[dict]:
        """Return a copy of ``client``'s ledger, or ``None``."""
        with self._lock:
            ledger = self._ledgers.get(client)
            return dict(ledger) if ledger is not None else None

    def snapshot(self) -> Dict[str, dict]:
        """Return copies of every tenant's ledger, keyed by name."""
        with self._lock:
            return {name: dict(ledger) for name, ledger in self._ledgers.items()}

    def effective_weight(self, client: str, base: int) -> int:
        """Derive a fair-share weight for ``client`` from relative spend.

        Heavy spenders (relative to the mean across tenants with any
        spend) get their configured ``base`` weight scaled *down*, light
        spenders scaled *up*, clamped to ``[1, base * WEIGHT_CLAMP]``.
        Seconds (measured cost) are preferred over raw shots as the spend
        metric as soon as any tenant has a measured cost.
        """
        base = max(1, int(base))
        with self._lock:
            ledgers = {name: dict(l) for name, l in self._ledgers.items()}
        use_cost = any(l["cost_s"] > 0 for l in ledgers.values())
        metric = "cost_s" if use_cost else "shots"
        spends = {n: l[metric] for n, l in ledgers.items() if l[metric] > 0}
        if len(spends) < 2:
            return base
        own = spends.get(client, 0.0)
        mean = sum(spends.values()) / len(spends)
        if own <= 0 or mean <= 0:
            return base * WEIGHT_CLAMP
        ratio = own / mean
        return max(1, min(base * WEIGHT_CLAMP, round(base / ratio)))
