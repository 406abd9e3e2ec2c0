"""Append-only record log: the on-disk format of the journal and ledgers.

:class:`~repro.service.journal.JobJournal` and
:class:`~repro.service.accounting.CostLedger` make their state durable by
appending every change to one file, the classic log-structured write
path.  A record costs one pickle and one ``os.write`` on an ``O_APPEND``
descriptor; nothing is ever rewritten in place.  The log keeps an index
of each key's live frame, so an owner need not keep every value in
memory: :meth:`RecordLog.read` fetches one record back with a single
``os.pread``.

Frame layout
------------
Each record is one frame: :data:`MAGIC`, the body length (8 bytes,
little-endian), a 128-bit BLAKE2b digest of the body, then the body — the
pickled ``(key, value)`` pair.

Replay
------
:meth:`RecordLog.replay` reads the file front to back, last write per
key wins, so the owner's mirror loads exactly as it was written.  Replay verifies every
frame and never raises on bad bytes: a frame whose digest (or unpickle)
fails is skipped and counted in :attr:`RecordLog.corrupt`, and scanning
resumes at the next :data:`MAGIC`.  A frame cut short at the end of the
file — the write a dying process never finished — is a torn tail: replay
stops there, and later appends go after it (the next replay skips the torn
bytes as one corrupt frame, and the next checkpoint drops them).

Read
----
:meth:`RecordLog.read` verifies the one frame it fetches as replay
does; a frame that fails is a miss (``None``, counted in
:attr:`RecordLog.corrupt`), never a crash.

Checkpoint
----------
When the file grows past twice its size at the last checkpoint (at least
:data:`CHECKPOINT_FLOOR` bytes), the live frames — the last one per key —
are copied to a temporary file that is ``os.replace``'d over the log, and
the descriptor moves to the new file, all under the log lock.  The copy
streams runs of adjacent live frames file to file (``os.copy_file_range``
where the platform has it, else bounded ``os.pread``/``os.write``
chunks), so a checkpoint's memory does not grow with the log.  Owners
overwrite keys rather than add them (a settlement replaces its
submission; a ledger has one key per tenant), so the file stays within a
constant factor of the live state.

Crash model
-----------
Nothing is fsync'd.  A record whose ``os.write`` returned survives the
death of the process (it is in the kernel's page cache), not a power
loss or a kernel crash.  An append that fails raises :class:`OSError` to
the owner; nothing is swallowed.  One process writes a log at a time: a
checkpoint replaces the file, so a second writer's later appends would
land in the unlinked copy.  Readers in other processes are safe — they see
either the old file or the new one.

Logs hold pickles, so they are trusted local state, like the cache
directory they live in.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import struct
import threading
import weakref
from pathlib import Path
from typing import Any, Dict, Hashable, Optional, Tuple

logger = logging.getLogger(__name__)

#: First bytes of every frame; bump the version byte for a new format.
MAGIC = b"RLOG\x01\r\n\x1a"

#: ``magic, body length, body digest`` in front of each body.
HEADER = struct.Struct("<8sQ16s")

#: A log smaller than this is never checkpointed.
CHECKPOINT_FLOOR = 1 << 20

#: Largest buffer a checkpoint copies through user space at once.
COPY_CHUNK = 1 << 20


def _digest(body) -> bytes:
    return hashlib.blake2b(body, digest_size=16).digest()


def _decode(frame: bytes) -> Optional[Tuple[Hashable, Any]]:
    """Return the ``(key, value)`` of one whole frame, or ``None`` if it
    fails verification."""
    if len(frame) < HEADER.size or not frame.startswith(MAGIC):
        return None
    _magic, length, digest = HEADER.unpack_from(frame)
    body = memoryview(frame)[HEADER.size:]
    if len(body) != length or _digest(body) != digest:
        return None
    try:
        return pickle.loads(body)
    except Exception:
        return None  # a verified body this interpreter cannot load


def _copy(src: int, dst: int, offset: int, length: int) -> None:
    """Append ``length`` bytes of ``src`` at ``offset`` to ``dst``."""
    while length:
        copied = 0
        if hasattr(os, "copy_file_range"):
            try:
                copied = os.copy_file_range(src, dst, length, offset)
            except OSError:
                pass  # unsupported here (filesystem, kernel): copy by hand
        if not copied:
            chunk = os.pread(src, min(length, COPY_CHUNK), offset)
            if not chunk:
                raise OSError(f"log ended {length} bytes short of its index")
            copied = os.write(dst, chunk)
        offset += copied
        length -= copied


def encode(key: Hashable, value: Any) -> bytes:
    """Return the frame for one ``(key, value)`` record.

    Raises whatever :func:`pickle.dumps` raises for an unpicklable value,
    so a caller can pickle once and fall back on failure.
    """
    body = pickle.dumps((key, value), pickle.HIGHEST_PROTOCOL)
    return HEADER.pack(MAGIC, len(body), _digest(body)) + body


class RecordLog:
    """One append-only log file of keyed records.

    Construct, call :meth:`replay` once to read the records back, then
    :meth:`write` (or :meth:`append`) new ones and :meth:`read` any live
    one back.  Thread-safe: reads and writes are serialized by the log's
    own lock.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: One read-write ``O_APPEND`` descriptor: appends go to the end,
        #: :meth:`read` uses ``os.pread``.
        self._fd: Optional[int] = None
        #: Closes ``_fd`` at a checkpoint, or when the log is collected.
        self._close_fd = None
        #: Key -> ``(offset, length)`` of its live frame in the file.
        self._index: Optional[Dict[Hashable, Tuple[int, int]]] = None
        self._size = 0
        self._checkpoint_size = 0
        #: Frames replay skipped because they failed verification.
        self.corrupt = 0

    @property
    def size(self) -> int:
        """Bytes in the log file, as this writer knows it."""
        return self._size

    @property
    def checkpoint_size(self) -> int:
        """Bytes in the log right after the last checkpoint (or replay)."""
        return self._checkpoint_size

    def __len__(self) -> int:
        """Keys with a live frame in the log."""
        with self._lock:
            return len(self._index or ())

    def keys(self) -> list:
        """The keys with a live frame, in no particular order."""
        with self._lock:
            return list(self._index or ())

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` from the index; the next checkpoint drops its frame."""
        with self._lock:
            if self._index is not None:
                self._index.pop(key, None)

    def replay(self) -> Dict[Hashable, Any]:
        """Read the log; return the last value written for each key."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        records: Dict[Hashable, Any] = {}
        index: Dict[Hashable, Tuple[int, int]] = {}
        corrupt = 0
        pos, end = 0, len(data)
        while pos < end:
            stop = pos + HEADER.size
            torn = stop > end
            if not torn and data.startswith(MAGIC, pos):
                length = HEADER.unpack_from(data, pos)[1]
                torn = stop + length > end
                record = None if torn else _decode(data[pos:stop + length])
                if record is not None:
                    key, value = record
                    records[key] = value
                    index[key] = (pos, stop + length - pos)
                    pos = stop + length
                    continue
            resume = data.find(MAGIC, pos + 1)
            if resume < 0 and torn:
                break  # torn tail: the last write never finished
            corrupt += 1
            pos = end if resume < 0 else resume
        with self._lock:
            self._index = index
            self._size = self._checkpoint_size = end
            self.corrupt = corrupt
        return records

    def append(self, key: Hashable, value: Any) -> None:
        """Encode and write one record."""
        self.write(key, encode(key, value))

    def read(self, key: Hashable) -> Any:
        """Return the live value for ``key``, or ``None`` on a miss.

        One ``os.pread`` of the indexed frame, verified like replay: a
        frame whose bytes fail is a miss, counted in :attr:`corrupt`.
        """
        with self._lock:
            if self._index is None:
                raise RuntimeError("replay() the log before reading from it")
            entry = self._index.get(key)
            if entry is None:
                return None
            if self._fd is None:
                self._fd = self._open()
            frame = os.pread(self._fd, entry[1], entry[0])
        record = _decode(frame)
        if record is None or record[0] != key:
            with self._lock:
                self.corrupt += 1
            return None
        return record[1]

    def write(self, key: Hashable, frame: bytes) -> None:
        """Append a frame from :func:`encode`; raises :class:`OSError`.

        Callers that need their own ordering (the journal updates its
        mirror and writes under one lock) encode outside their lock and
        call this inside it.
        """
        with self._lock:
            if self._index is None:
                raise RuntimeError("replay() the log before writing to it")
            if self._fd is None:
                self._fd = self._open()
            written = 0
            try:
                while written < len(frame):
                    written += os.write(self._fd, frame[written:])
            finally:
                self._size += written  # a torn frame still occupies bytes
            self._index[key] = (self._size - len(frame), len(frame))
            if self._size > max(2 * self._checkpoint_size, CHECKPOINT_FLOOR):
                self._checkpoint()

    def _open(self) -> int:
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        self._close_fd = weakref.finalize(self, os.close, fd)
        return fd

    def _checkpoint(self) -> None:
        """Rewrite the file as its live frames only (caller holds the lock).

        A failure leaves the old file in place and is logged, not raised:
        the append that triggered it already succeeded.  The next try
        comes when the file has doubled again.
        """
        live = sorted(self._index.items(), key=lambda item: item[1][0])
        temp = self.path.with_name(self.path.name + ".checkpoint")
        index: Dict[Hashable, Tuple[int, int]] = {}
        offset = 0
        try:
            out = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                # Copy each run of adjacent live frames in one go.
                run_start = run_end = 0
                for key, (start, length) in live:
                    if start != run_end:
                        _copy(self._fd, out, run_start, run_end - run_start)
                        run_start = start
                    run_end = start + length
                    index[key] = (offset, length)
                    offset += length
                _copy(self._fd, out, run_start, run_end - run_start)
            finally:
                os.close(out)
            os.replace(temp, self.path)
        except OSError as exc:
            logger.warning("checkpoint of %s failed (%s: %s); keeping the "
                           "full log", self.path, type(exc).__name__, exc)
            self._checkpoint_size = self._size
            try:
                os.unlink(temp)
            except OSError:
                pass
            return
        self._index = index
        self._size = self._checkpoint_size = offset
        self._close_fd()
        self._fd = None  # the next write opens the new file
