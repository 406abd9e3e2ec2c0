"""Write-ahead job journal: the service's restart-durable memory.

:class:`RuntimeService` forgets everything when its process dies — every
``svc-N`` handle, every result a tenant has not yet collected.  The
journal closes that gap: each submission is recorded *before* it reaches
the scheduler, and each settlement (result counts or a typed failure) is
recorded when the service observes it, both appended as frames to one
:class:`~repro.service.recordlog.RecordLog` at
``<cache_dir>/service/journal.log``.

A restarted service loads the journal and can then

* answer ``status()``/``result()``/``counts()`` for settled pre-restart
  jobs — counts come back bit-identical because they are the journaled
  counts themselves, and
* re-submit journaled-but-unsettled jobs (write-ahead means a crash
  between journal write and scheduler accept errs toward re-running, and
  re-running is safe: counts are a pure function of circuit, backend,
  shots and seed).

Durability is the log's: one ``os.write`` per record and no fsync, so a
record survives the death of the process but not a power loss.  Replay
is last-write-wins per job id and digest-checked, and *corruption is a
miss*: a frame torn by a crash mid-write, or one whose bytes rotted,
drops out instead of poisoning recovery.  A lost settlement frame leaves
the job's submission frame, so the job comes back unsettled and re-runs.
A settlement replaces its submission's frame at the next checkpoint, so
the file holds about one settled record per job.

Not every submission is durable.  Circuits, backends and options must
survive a pickle round-trip to be re-submittable; when they do not, the
journal keeps a degraded record (fingerprints and settlement counts, but
``recoverable=False``) so the job's *results* still survive a restart
even though the job itself could not be re-run.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

from repro import faults
from repro.exceptions import ServiceError
from repro.service.recordlog import RecordLog, encode

#: The journal's log file, relative to the shared cache dir.
JOURNAL_LOG = os.path.join("service", "journal.log")

#: Terminal statuses a settlement may record.
SETTLED_STATUSES = ("done", "failed", "dropped", "cancelled")


def _fingerprint(circuit) -> Optional[str]:
    try:
        return circuit.fingerprint()
    except Exception:
        return None


class JobJournal:
    """Persistent record of every submission and settlement.

    Parameters
    ----------
    cache_dir:
        Parent cache directory (the journal lives in
        ``<cache_dir>/service/journal.log``).  ``None`` keeps the journal
        memory-only — useful in tests, pointless for durability.

    The journal is thread-safe: submissions arrive on the event loop,
    settlements from executor threads, recovery queries from anywhere.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        self._records: Dict[int, dict] = {}
        self._log = (
            RecordLog(os.path.join(cache_dir, JOURNAL_LOG))
            if cache_dir else None
        )
        highest = 0
        if self._log is not None:
            for key, value in self._log.replay().items():
                if not (isinstance(key, int) and isinstance(value, dict)
                        and value.get("id") == key):
                    continue  # malformed record: treat like a corrupt frame
                self._records[key] = value
                highest = max(highest, key)
        self._next = highest + 1

    @property
    def durable(self) -> bool:
        """Whether records reach disk (``False`` = memory-only journal)."""
        return self._log is not None

    # ------------------------------------------------------------------
    # id allocation
    # ------------------------------------------------------------------

    def next_id(self) -> int:
        """Allocate the next journal id (monotonic across restarts)."""
        with self._lock:
            allocated = self._next
            self._next += 1
            return allocated

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def record_submission(
        self,
        job_id: int,
        client: str,
        circuits,
        backend,
        shots: int,
        seed,
        priority: int = 0,
        weight: int = 1,
        options: Optional[dict] = None,
    ) -> dict:
        """Write-ahead-record a submission; returns the stored record.

        ``circuits`` is the listified batch, ``backend`` either the spec
        string the tenant submitted or the backend instance.  Payloads
        that do not pickle are journaled in degraded form
        (``recoverable=False``): the job cannot be re-run after a crash,
        but its settlement counts are still made durable.
        """
        circuits = list(circuits)
        options = dict(options or {})
        record = {
            "id": int(job_id),
            "job_id": f"svc-{int(job_id)}",
            "client": str(client),
            "weight": int(weight),
            "fingerprints": [_fingerprint(c) for c in circuits],
            "circuits": circuits,
            "backend": backend,
            "shots": shots,
            "seed": seed,
            "priority": int(priority),
            "options": options,
            "size": len(circuits),
            "submitted_at": time.time(),
            "settled": False,
            "status": "submitted",
            "recoverable": True,
        }
        frame = None
        if self._log is not None:
            try:
                frame = encode(record["id"], record)
            except Exception:
                record.update(circuits=None, backend=repr(backend),
                              options={}, recoverable=False)
                frame = encode(record["id"], record)
        self._commit(record, frame)
        return record

    def record_settlement(
        self,
        job_id: int,
        status: str,
        counts: Optional[List[dict]] = None,
        shots: Optional[List[int]] = None,
        error: Optional[BaseException] = None,
        trace: Optional[dict] = None,
    ) -> dict:
        """Record a job's terminal outcome; returns the updated record.

        ``counts`` is one plain ``{bitstring: occurrences}`` dict per
        circuit (only for ``status="done"``); ``error`` is journaled as
        ``{"type", "message"}`` so a restarted service can re-raise a
        meaningful failure.  ``trace`` is the submission's finished span
        tree (JSON-safe dicts) — journaling it lets a restarted service
        answer ``/v1/jobs/{id}/trace`` for pre-restart ids.
        """
        if status not in SETTLED_STATUSES:
            raise ServiceError(
                f"unknown settlement status {status!r}; valid: "
                f"{', '.join(SETTLED_STATUSES)}"
            )
        with self._lock:
            record = self._records.get(int(job_id))
        if record is None:
            raise ServiceError(f"cannot settle unknown journal id {job_id!r}")
        record = dict(record)
        record["settled"] = True
        record["status"] = status
        record["settled_at"] = time.time()
        record["counts"] = (
            [dict(c) for c in counts] if counts is not None else None
        )
        record["shots_out"] = list(shots) if shots is not None else None
        record["error"] = (
            {"type": type(error).__name__, "message": str(error)}
            if error is not None
            else None
        )
        if trace is not None:
            record["trace"] = trace
        # Settled records no longer need their (potentially large)
        # re-submission payload.
        record["circuits"] = None
        record["options"] = {}
        if not isinstance(record["backend"], str):
            record["backend"] = repr(record["backend"])
        frame = encode(record["id"], record) if self._log is not None else None
        self._commit(record, frame)
        return record

    def _commit(self, record: dict, frame: Optional[bytes]) -> None:
        """Mirror ``record`` and append its ``frame`` (``None`` when
        memory-only) in one critical section, so the log's order is the
        mirror's.  An append that fails raises :class:`OSError`."""
        with self._lock:
            self._records[record["id"]] = record
            self._next = max(self._next, record["id"] + 1)
            # Chaos hook: an injected journal.write fault models a wedged
            # disk at the worst moment — after the in-memory mirror
            # updated, before the durable write.  The service rolls a
            # submission back on it and counts a settlement's.
            faults.inject("journal.write")
            if frame is not None:
                self._log.write(record["id"], frame)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def record(self, job_id: int) -> Optional[dict]:
        """Return a copy of the record for ``job_id`` (or ``None``)."""
        with self._lock:
            record = self._records.get(int(job_id))
            return dict(record) if record is not None else None

    def records(self) -> List[dict]:
        """Return copies of every record, ordered by id."""
        with self._lock:
            return [dict(self._records[i]) for i in sorted(self._records)]

    def unsettled(self) -> List[dict]:
        """Return copies of journaled-but-unsettled records, by id."""
        return [r for r in self.records() if not r["settled"]]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
