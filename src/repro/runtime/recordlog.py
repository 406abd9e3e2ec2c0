"""Append-only record log: the one on-disk format of the package.

Every persistent piece of state is a :class:`RecordLog`: the disk tier of
each :class:`~repro.runtime.store.CacheStore` (transpile, distribution
and service-auth entries), the service's
:class:`~repro.service.journal.JobJournal` and its
:class:`~repro.service.accounting.CostLedger`.  A record costs one pickle
and one ``os.write`` on an ``O_APPEND`` descriptor; nothing is ever
rewritten in place.  The log keeps an index of each key's live frame, so
an owner need not keep every value in memory: :meth:`RecordLog.read`
fetches one record back with a single ``os.pread``.

Frame layout
------------
Each record is one frame: :data:`MAGIC`, the body length (8 bytes,
little-endian), a 128-bit BLAKE2b digest of the body, then the body — the
pickled ``(key, value)`` pair.  A value of ``None`` is a tombstone:
:meth:`RecordLog.remove` appends one, so a removal survives replay.

Index
-----
The index maps each live key to its frame's ``(offset, length)`` in
recency order: :meth:`~RecordLog.write` and a :meth:`~RecordLog.read` hit
move a key to the recent end.  A log built with ``maxsize`` drops the
least recent key once it holds more (counted in
:attr:`RecordLog.evictions`); the next checkpoint drops its frame.  The
index is built lazily, by the first operation that needs it, so
constructing a log does no I/O beyond creating its directory.

Replay
------
Building the index reads the file front to back, last write per key wins,
in bounded chunks.  It verifies every frame and never raises on bad
bytes: a frame whose digest (or unpickle) fails is skipped and counted in
:attr:`RecordLog.corrupt`, and scanning resumes at the next
:data:`MAGIC`.  A frame cut short at the end of the file — the write a
dying process never finished — is a torn tail: the scan stops there, and
later appends go after it (the next scan skips the torn bytes as one
corrupt frame, and the next checkpoint drops them).  :meth:`replay` does
the same scan and also returns every live value, for owners that mirror
the whole log.  :meth:`~RecordLog.read` verifies the one frame it fetches
the same way: a frame that fails is a miss (``None``, counted in
:attr:`~RecordLog.corrupt`, and dropped from the index), never a crash.

Checkpoint
----------
When the file grows past twice its size at the last checkpoint (at least
:data:`CHECKPOINT_FLOOR` bytes), the live frames — the indexed one per
key, in recency order — are copied to a temporary file that is
``os.replace``'d over the log.  The copy streams runs of adjacent live
frames file to file (``os.copy_file_range`` where the platform has it,
else bounded ``os.pread``/``os.write`` chunks), so a checkpoint's memory
does not grow with the log.  :meth:`~RecordLog.clear` is a checkpoint
with no live keys.

Several writers
---------------
Processes (CLI runs, pool workers, a service) may share one log:

* an append is one ``O_APPEND`` write, taken under ``flock(LOCK_SH)`` on
  the sidecar ``<log>.lock`` file after a check that the file at the path
  is still the one the descriptor has open;
* a checkpoint takes ``LOCK_EX``, so no append can land in the file it
  replaces, and first scans the frames other processes appended;
* a lookup miss first scans any frames appended since the last scan, so
  one process sees another's entries while both run;
* a log object that finds itself in a forked child reopens its
  descriptors before it locks anything, since the parent's share a file
  offset and a lock.

Where the platform has no ``flock``, one process may write a log at a
time.

Crash model
-----------
Nothing is fsync'd.  A record whose ``os.write`` returned survives the
death of the process (it is in the kernel's page cache), not a power
loss or a kernel crash.  An append that fails raises :class:`OSError` to
the owner; nothing is swallowed.  Readers in other processes are safe
across a checkpoint — an open descriptor keeps reading the old file.

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
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Hashable, Optional, Tuple

try:
    from fcntl import LOCK_EX, LOCK_SH, LOCK_UN, flock
except ImportError:  # no flock here: one writing process per log
    LOCK_EX = LOCK_SH = LOCK_UN = 0
    flock = None

logger = logging.getLogger(__name__)

#: First bytes of every frame; bump the version byte for a new format.
MAGIC = b"RLOG\x01\r\n\x1a"

#: ``magic, body length, body digest`` in front of each body.
HEADER = struct.Struct("<8sQ16s")

#: A log smaller than this is never checkpointed.
CHECKPOINT_FLOOR = 1 << 20

#: Largest buffer a checkpoint copies, or a scan reads, at once.
COPY_CHUNK = 1 << 20

#: Suffix of the sidecar file that writers ``flock``.
LOCK_SUFFIX = ".lock"


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


class _Reader:
    """Random access to ``[0, end)`` of a descriptor through one window of
    at most :data:`COPY_CHUNK` bytes (more only for a larger frame)."""

    def __init__(self, fd: int, end: int) -> None:
        self.fd, self.end = fd, end
        self.start, self.data = 0, b""

    def get(self, pos: int, length: int) -> bytes:
        if pos < self.start or pos + length > self.start + len(self.data):
            self.start = pos
            self.data = os.pread(
                self.fd, max(length, min(COPY_CHUNK, self.end - pos)), pos)
        offset = pos - self.start
        return self.data[offset:offset + length]

    def find(self, needle: bytes, pos: int) -> int:
        """Offset of the first ``needle`` at or after ``pos``, or -1."""
        while pos < self.end:
            chunk = self.get(pos, min(COPY_CHUNK, self.end - pos))
            hit = chunk.find(needle)
            if hit >= 0:
                return pos + hit
            if pos + len(chunk) >= self.end or len(chunk) < len(needle):
                return -1
            pos += len(chunk) - len(needle) + 1
        return -1


def encode(key: Hashable, value: Any) -> bytes:
    """Return the frame for one ``(key, value)`` record.

    Raises whatever :func:`pickle.dumps` raises for an unpicklable value,
    so a caller can pickle once and fall back on failure.
    """
    body = pickle.dumps((key, value), pickle.HIGHEST_PROTOCOL)
    return HEADER.pack(MAGIC, len(body), _digest(body)) + body


class RecordLog:
    """One append-only log file of keyed records.

    :meth:`write` (or :meth:`append`) records, :meth:`read` any live one
    back, :meth:`remove` one or :meth:`clear` them all; :meth:`replay`
    returns every live value at once.  ``maxsize`` bounds the live keys
    (``None``: unbounded).  Thread-safe: operations are serialized by the
    log's own lock, and processes by the module's writer rule.
    """

    def __init__(self, path, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.maxsize = maxsize
        self._lock = threading.Lock()
        #: The process that opened the descriptors below.
        self._pid: Optional[int] = None
        #: One read-write ``O_APPEND`` descriptor: appends go to the end,
        #: :meth:`read` uses ``os.pread``.
        self._fd: Optional[int] = None
        self._fd_inode: Optional[int] = None
        self._lock_fd: Optional[int] = None
        #: Close each descriptor when it is reopened, or the log collected.
        self._close_fd = self._close_lock_fd = None
        #: Key -> ``(offset, length)`` of its live frame, least recent first.
        self._index: "OrderedDict[Hashable, Tuple[int, int]]" = OrderedDict()
        #: The file the index describes, and how far it has been scanned.
        self._index_inode: Optional[int] = None
        self._scanned = 0
        self._size = 0
        self._checkpoint_size = 0
        #: Frames skipped because they failed verification.
        self.corrupt = 0
        #: Keys dropped from the index past ``maxsize``.
        self.evictions = 0

    @property
    def size(self) -> int:
        """Bytes in the log file, as this process knows it."""
        return self._size

    @property
    def checkpoint_size(self) -> int:
        """Bytes in the log right after the last checkpoint (or replay)."""
        return self._checkpoint_size

    def __len__(self) -> int:
        """Keys with a live frame in the log."""
        with self._lock:
            self._sync()
            return len(self._index)

    def keys(self) -> list:
        """The keys with a live frame, least recently used first."""
        with self._lock:
            self._sync()
            return list(self._index)

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` from the index; the next checkpoint drops its frame."""
        with self._lock:
            self._sync()
            self._index.pop(key, None)

    def replay(self) -> Dict[Hashable, Any]:
        """Read the log from the start; return each live key's value."""
        records: Dict[Hashable, Any] = {}
        with self._lock:
            self._index_inode = None  # rescan from the first byte
            self._sync(records=records)
            return {key: records[key] for key in self._index
                    if key in records}

    def append(self, key: Hashable, value: Any) -> None:
        """Encode and write one record."""
        self.write(key, encode(key, value))

    def read(self, key: Hashable) -> Any:
        """Return the live value for ``key``, or ``None`` on a miss.

        One ``os.pread`` of the indexed frame, verified like replay: a
        frame whose bytes fail is a miss, counted in :attr:`corrupt` and
        dropped from the index.  A key the index lacks is looked for
        among the frames appended since the last scan first.
        """
        with self._lock:
            entry = None if self._fd is None else self._index.get(key)
            if entry is None:
                self._sync()
                entry = self._index.get(key)
                if entry is None:
                    return None
            self._index.move_to_end(key)
            frame = os.pread(self._fd, entry[1], entry[0])
        record = _decode(frame)
        if record is None or record[0] != key:
            with self._lock:
                self.corrupt += 1
                if self._index.get(key) == entry:
                    del self._index[key]
            return None
        return record[1]

    def write(self, key: Hashable, frame: bytes) -> None:
        """Append a frame from :func:`encode`; raises :class:`OSError`.

        Callers that need their own ordering (the journal updates its
        mirror and writes under one lock) encode outside their lock and
        call this inside it.
        """
        with self._lock:
            self._append(key, frame, live=True)

    def remove(self, key: Hashable) -> bool:
        """Append a tombstone for ``key``; ``True`` if it was live."""
        with self._lock:
            self._sync()
            if key not in self._index:
                return False
            self._append(key, encode(key, None), live=False)
            return True

    def clear(self) -> None:
        """Drop every record: a checkpoint that keeps no key."""
        with self._lock:
            self._checkpoint(keep=False)

    # -- internals (the caller holds ``_lock``) -------------------------

    def _append(self, key: Hashable, frame: bytes, live: bool) -> None:
        self._flock(LOCK_SH)
        try:
            self._sync(create=True)
            written = os.write(self._fd, frame)
            end = os.lseek(self._fd, 0, os.SEEK_CUR)
            self._size = max(self._size, end)
            if written != len(frame):
                raise OSError(f"short write to {self.path}: {written} of "
                              f"{len(frame)} bytes")
            start = end - written
            if start == self._scanned:
                self._scanned = end  # no other writer got in between
            self._index_frame(key, live, start, written)
        finally:
            self._flock(LOCK_UN)
        if self._size > max(2 * self._checkpoint_size, CHECKPOINT_FLOOR):
            self._checkpoint()

    def _index_frame(self, key: Hashable, live: bool, offset: int,
                     length: int) -> None:
        if not live:
            self._index.pop(key, None)
            return
        self._index[key] = (offset, length)
        self._index.move_to_end(key)
        if self.maxsize is not None:
            while len(self._index) > self.maxsize:
                self._index.popitem(last=False)
                self.evictions += 1

    def _flock(self, mode: int) -> None:
        """Take (or, with ``LOCK_UN``, drop) ``mode`` on the sidecar lock
        file."""
        if flock is None:
            return
        if mode != LOCK_UN:
            if self._pid != os.getpid():
                self._reopen()
            if self._lock_fd is None:
                self._lock_fd, self._close_lock_fd = self._open(
                    str(self.path) + LOCK_SUFFIX, os.O_RDWR | os.O_CREAT)
        flock(self._lock_fd, mode)

    def _open(self, path, flags: int):
        """Return a new descriptor and the finalizer that closes it."""
        fd = os.open(path, flags, 0o644)
        return fd, weakref.finalize(self, os.close, fd)

    def _reopen(self) -> None:
        """Drop the descriptors (in a forked child, this process's copies):
        the next use opens fresh ones.  The index stays valid."""
        for close in (self._close_fd, self._close_lock_fd):
            if close is not None:
                close()
        self._fd = self._fd_inode = self._lock_fd = None
        self._close_fd = self._close_lock_fd = None
        self._pid = os.getpid()

    def _sync(self, create: bool = False,
              records: Optional[Dict[Hashable, Any]] = None) -> bool:
        """Catch the index up with the file at ``path``; ``True`` if it was
        rebuilt.

        The descriptor follows the path: a file a checkpoint replaced is
        reopened and indexed from its first byte, else only the frames
        appended since the last scan are read.  Without ``create`` a
        missing file is an empty log and no file is made.
        """
        if self._pid != os.getpid():
            self._reopen()
        while True:
            try:
                stat = os.stat(self.path)
            except FileNotFoundError:
                if not create:
                    if self._fd is None:  # nothing to read the index from
                        self._index.clear()
                    return False
                stat = None
            if stat is not None and stat.st_ino == self._fd_inode:
                break
            if self._close_fd is not None:
                self._close_fd()
            self._fd, self._close_fd = self._open(
                self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT)
            self._fd_inode = os.fstat(self._fd).st_ino
        rebuilt = self._fd_inode != self._index_inode
        if rebuilt:
            self._index = OrderedDict()
            self._index_inode = self._fd_inode
            self._scanned = self._size = 0
            self._checkpoint_size = stat.st_size
            self.corrupt = 0
        if stat.st_size > self._scanned:
            self._scan(stat.st_size, records)
        return rebuilt

    def _scan(self, end: int, records: Optional[Dict[Hashable, Any]]) -> None:
        """Index the frames in ``[_scanned, end)``."""
        reader = _Reader(self._fd, end)
        pos = self._scanned
        while pos < end:
            stop = pos + HEADER.size
            torn = stop > end
            header = b"" if torn else reader.get(pos, HEADER.size)
            if len(header) == HEADER.size and header.startswith(MAGIC):
                length = HEADER.unpack(header)[1]
                torn = stop + length > end
                record = None if torn else _decode(
                    reader.get(pos, HEADER.size + length))
                if record is not None:
                    key, value = record
                    self._index_frame(key, value is not None, pos,
                                      HEADER.size + length)
                    if records is not None:
                        records[key] = value
                    pos = stop + length
                    continue
            resume = reader.find(MAGIC, pos + 1)
            if resume < 0 and torn:
                break  # torn tail: the last write never finished
            self.corrupt += 1
            pos = end if resume < 0 else resume
        self._scanned = pos
        self._size = max(self._size, end)

    def _checkpoint(self, keep: bool = True) -> None:
        """Rewrite the file as its live frames only (``keep=False``: none).

        A failure leaves the old file in place and is logged, not raised:
        the append that triggered it already succeeded.  The next try
        comes when the file has doubled again.
        """
        self._flock(LOCK_EX)
        try:
            if self._sync(create=True) and keep:
                return  # another process's checkpoint just rewrote it
            if not keep:
                self._index.clear()
            self._rewrite()
        finally:
            self._flock(LOCK_UN)

    def _rewrite(self) -> None:
        temp = self.path.with_name(self.path.name + ".checkpoint")
        index: "OrderedDict[Hashable, Tuple[int, int]]" = OrderedDict()
        offset = 0
        try:
            out = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                # Copy each run of adjacent live frames in one go.
                run_start = run_end = 0
                for key, (start, length) in self._index.items():
                    if start != run_end:
                        _copy(self._fd, out, run_start, run_end - run_start)
                        run_start = start
                    run_end = start + length
                    index[key] = (offset, length)
                    offset += length
                _copy(self._fd, out, run_start, run_end - run_start)
                inode = os.fstat(out).st_ino
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
        self._index_inode = inode
        self._scanned = self._size = self._checkpoint_size = offset
        self._sync(create=True)  # move the descriptor to the new file
