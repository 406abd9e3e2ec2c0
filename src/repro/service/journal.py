"""Write-ahead job journal: the service's restart-durable memory.

:class:`RuntimeService` forgets everything when its process dies — every
``svc-N`` handle, every result a tenant has not yet collected.  The
journal closes that gap: each submission is recorded *before* it reaches
the scheduler, and each settlement (result counts or a typed failure) is
recorded when the service observes it, both appended as frames to one
:class:`~repro.runtime.recordlog.RecordLog` at
``<cache_dir>/service/journal.log``.

The journal is where a settled job lives.  A durable journal keeps only
its *unsettled* records in memory; a settled record is read back from
the log on demand (:meth:`RecordLog.read`: one ``os.pread``), so memory
grows with the work in flight, not with history.  A service — restarted,
or one that has simply let go of a settled handle — can then

* answer ``status()``/``result()``/``counts()``/``trace()`` for settled
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
from repro.runtime.recordlog import RecordLog, encode

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
        memory-only — every record in a mirror, useful in tests,
        pointless for durability.

    The journal is thread-safe: submissions arrive on the event loop,
    settlements from executor threads, recovery queries from anywhere.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self._lock = threading.Lock()
        #: id -> record: every record when memory-only, only the unsettled
        #: ones when durable (settled ones are read back from the log).
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
                    # Malformed record: treat like a corrupt frame.
                    self._log.discard(key)
                    continue
                if not value["settled"]:
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
        metadata: Optional[List[dict]] = None,
    ) -> dict:
        """Record a job's terminal outcome; returns the updated record.

        ``counts`` is one plain ``{bitstring: occurrences}`` dict per
        circuit (only for ``status="done"``), ``metadata`` the matching
        result metadata; ``error`` is journaled as ``{"type",
        "message"}`` so a restarted service can re-raise a meaningful
        failure.  ``trace`` is the submission's finished span tree
        (JSON-safe dicts) — journaling it lets the service answer
        ``/v1/jobs/{id}/trace`` once the live handle is gone.  Metadata
        that does not pickle is dropped rather than failing the record.
        """
        if status not in SETTLED_STATUSES:
            raise ServiceError(
                f"unknown settlement status {status!r}; valid: "
                f"{', '.join(SETTLED_STATUSES)}"
            )
        record = self.record(job_id)
        if record is None:
            raise ServiceError(f"cannot settle unknown journal id {job_id!r}")
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
        if metadata is not None:
            record["metadata"] = [dict(m) for m in metadata]
        # Settled records no longer need their (potentially large)
        # re-submission payload.
        record["circuits"] = None
        record["options"] = {}
        if not isinstance(record["backend"], str):
            record["backend"] = repr(record["backend"])
        frame = None
        if self._log is not None:
            try:
                frame = encode(record["id"], record)
            except Exception:
                record.pop("metadata", None)
                frame = encode(record["id"], record)
        self._commit(record, frame)
        return record

    def _commit(self, record: dict, frame: Optional[bytes]) -> None:
        """Append ``record``'s ``frame`` (``None`` when memory-only), then
        mirror it, in one critical section, so the log's order is the
        mirror's and the mirror never claims what the log does not hold.
        A durable journal stops mirroring a record once it is settled.
        An append that fails raises :class:`OSError`."""
        job_id = record["id"]
        with self._lock:
            self._next = max(self._next, job_id + 1)
            # Chaos hook: an injected journal.write fault models a wedged
            # disk.  The service rolls a submission back on it and counts
            # a settlement's; either way the record keeps its last
            # durable state.
            faults.inject("journal.write")
            if frame is not None:
                self._log.write(job_id, frame)
            if record["settled"] and self._log is not None:
                self._records.pop(job_id, None)
            else:
                self._records[job_id] = record

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def record(self, job_id: int) -> Optional[dict]:
        """Return a copy of the record for ``job_id`` (or ``None``).

        A durable journal reads a settled record back from the log; a
        frame that fails verification is a miss.
        """
        job_id = int(job_id)
        with self._lock:
            record = self._records.get(job_id)
            if record is not None or self._log is None:
                return dict(record) if record is not None else None
        return self._log.read(job_id)

    def ids(self) -> List[int]:
        """Return every journaled id, ascending."""
        if self._log is not None:
            return sorted(self._log.keys())
        with self._lock:
            return sorted(self._records)

    def records(self) -> List[dict]:
        """Return copies of every record, ordered by id (a durable journal
        reads each settled one back from the log)."""
        records = (self.record(job_id) for job_id in self.ids())
        return [record for record in records if record is not None]

    def unsettled(self) -> List[dict]:
        """Return copies of journaled-but-unsettled records, by id.

        Reads only the in-memory mirror: O(in-flight) for a durable
        journal, which mirrors nothing else.
        """
        with self._lock:
            return [dict(self._records[i]) for i in sorted(self._records)
                    if not self._records[i]["settled"]]

    def __len__(self) -> int:
        """Records in the journal (the log's index when durable)."""
        if self._log is not None:
            return len(self._log)
        with self._lock:
            return len(self._records)
