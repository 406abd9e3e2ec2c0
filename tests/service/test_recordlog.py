"""Tests for :mod:`repro.runtime.recordlog`, the append-only log under the
job journal and the cost ledgers.

The log's contract: replay is last-write-wins per key; a torn tail or a
corrupt frame is a miss, never a crash, and spares every other frame; a
checkpoint bounds the file without losing a record, even while appends
race it; and an append that fails is loud — the service rolls a
submission back on it and counts a settlement's.
"""

import asyncio
import errno
import os
import sys
import threading

import pytest

from repro.circuits import library
from repro.devices.backend import Backend
from repro.results.counts import Counts
from repro.results.result import Result
from repro.runtime import recordlog
from repro.runtime.recordlog import RecordLog, encode
from repro.service import JobJournal, RuntimeService


def measured_bell():
    circuit = library.bell_pair()
    circuit.measure_all()
    return circuit


class GatedBackend(Backend):
    """Holds every run() until its gate opens."""

    name = "gated"

    def __init__(self, gate):
        self.gate = gate

    def run(self, circuit, shots=1024, seed=None):
        assert self.gate.wait(30), "gate never released"
        return Result(counts=Counts({"00": shots}), shots=shots)


def written_log(path, records):
    log = RecordLog(path)
    log.replay()
    for key, value in records:
        log.append(key, value)
    return log


def replayed(path):
    log = RecordLog(path)
    return log.replay(), log


@pytest.fixture(params=["one-window", "many-windows"])
def scan_window(request, monkeypatch):
    """Replay reads the file through a window of ``COPY_CHUNK`` bytes; a
    window smaller than a frame makes frames and resyncs straddle it."""
    if request.param == "many-windows":
        monkeypatch.setattr(recordlog, "COPY_CHUNK", 16)


class TestReplay:
    def test_last_write_wins_and_order_is_kept(self, tmp_path):
        path = tmp_path / "log"
        written_log(path, [("a", 1), ("b", 2), ("a", 3)])
        records, log = replayed(path)
        assert records == {"a": 3, "b": 2}
        assert log.corrupt == 0

    def test_missing_file_is_an_empty_log(self, tmp_path):
        records, log = replayed(tmp_path / "absent" / "log")
        assert records == {}
        assert log.size == 0

    def test_first_write_loads_the_index_lazily(self, tmp_path):
        path = tmp_path / "log"
        written_log(path, [("a", 1)])
        log = RecordLog(path)  # no replay(): the first write loads the index
        log.append("b", 2)
        assert sorted(log.keys()) == ["a", "b"]
        assert replayed(path)[0] == {"a": 1, "b": 2}

    def test_construction_creates_only_the_directory(self, tmp_path):
        RecordLog(tmp_path / "dir" / "log")
        assert list((tmp_path / "dir").iterdir()) == []

    def test_truncation_at_every_offset_replays_a_prefix(self, tmp_path,
                                                         scan_window):
        path = tmp_path / "log"
        records = [(i, {"value": i, "pad": "x" * (i % 3)}) for i in range(6)]
        written_log(path, records)
        data = path.read_bytes()
        ends = []
        for key, value in records:
            ends.append((ends[-1] if ends else 0) + len(encode(key, value)))
        assert ends[-1] == len(data)
        torn = tmp_path / "torn"
        for cut in range(len(data) + 1):
            torn.write_bytes(data[:cut])
            got, log = replayed(torn)
            whole = sum(end <= cut for end in ends)
            assert got == dict(records[:whole]), cut
            assert log.corrupt == 0, cut

    def test_flipped_byte_drops_only_its_frame(self, tmp_path, scan_window):
        path = tmp_path / "log"
        records = [(i, {"value": i}) for i in range(5)]
        written_log(path, records)
        data = path.read_bytes()
        size = len(encode(*records[2]))
        start = 2 * size  # equal-sized frames
        bad = tmp_path / "bad"
        for pos in range(start, start + size):
            flipped = bytearray(data)
            flipped[pos] ^= 0xFF
            bad.write_bytes(bytes(flipped))
            got, log = replayed(bad)
            assert got == {k: v for k, v in records if k != 2}, pos
            assert log.corrupt == 1, pos

    def test_appends_after_a_torn_tail_replay(self, tmp_path):
        path = tmp_path / "log"
        written_log(path, [("a", 1), ("b", 2)])
        path.write_bytes(path.read_bytes()[:-5])  # the write never finished
        log = written_log(path, [("c", 3)])
        assert log.corrupt == 0  # a torn tail is not a corrupt frame
        records, log = replayed(path)
        assert records == {"a": 1, "c": 3}
        assert log.corrupt == 1  # ... until a later frame follows it


class TestCheckpoint:
    def test_checkpoint_keeps_only_live_frames(self, tmp_path, monkeypatch):
        monkeypatch.setattr(recordlog, "CHECKPOINT_FLOOR", 1024)
        path = tmp_path / "log"
        log = written_log(path, [(i % 4, "v" * 50 + str(i)) for i in range(200)])
        assert log.size == path.stat().st_size
        assert log.size <= 2 * log.checkpoint_size + recordlog.CHECKPOINT_FLOOR
        records, _ = replayed(path)
        assert records == {k: "v" * 50 + str(196 + k) for k in range(4)}
        assert not path.with_name("log.checkpoint").exists()

    def test_journal_stays_bounded_over_a_run_of_jobs(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(recordlog, "CHECKPOINT_FLOOR", 8192)

        async def life():
            service = RuntimeService(cache_dir=str(tmp_path),
                                     executor="thread")
            for seed in range(40):
                job = await service.submit(measured_bell(), "statevector",
                                           shots=32, seed=seed)
                await job.wait()
            for _ in range(500):  # settlements land off-loop
                if not service.journal.unsettled():
                    break
                await asyncio.sleep(0.01)
            await service.close()
            return service

        service = asyncio.run(life())
        log = service.journal._log
        assert log.checkpoint_size > 0  # at least one checkpoint ran
        assert log.size == log.path.stat().st_size
        assert log.size <= 2 * log.checkpoint_size + recordlog.CHECKPOINT_FLOOR
        reloaded = JobJournal(cache_dir=str(tmp_path))
        assert len(reloaded) == 40
        assert all(r["settled"] and r["circuits"] is None
                   for r in reloaded.records())

    def test_checkpoint_racing_appends_loses_nothing(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(recordlog, "CHECKPOINT_FLOOR", 2048)
        path = tmp_path / "log"
        log = written_log(path, [])
        threads, writes = 4, 300

        def writer(t):
            for i in range(writes):
                # Every key is written twice, so checkpoints have garbage
                # to drop while other threads keep appending.
                log.append((t, i), "first")
                log.append((t, i), f"last-{t}-{i}")

        pool = [threading.Thread(target=writer, args=(t,))
                for t in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        records, replay = replayed(path)
        assert records == {(t, i): f"last-{t}-{i}"
                           for t in range(threads) for i in range(writes)}
        assert replay.corrupt == 0
        assert log.checkpoint_size > 0
        assert path.stat().st_size < 2 * threads * writes * len(
            encode((0, 0), "last-0-0"))


class _DiskFull:
    """Stands in for :mod:`os` inside the log module: ``write`` fails."""

    def __getattr__(self, name):
        return getattr(os, name)

    @staticmethod
    def write(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestLoudErrors:
    def test_failed_append_rolls_submit_back(self, tmp_path, monkeypatch):
        async def life():
            service = RuntimeService(cache_dir=str(tmp_path),
                                     executor="thread")
            monkeypatch.setattr(recordlog, "os", _DiskFull())
            with pytest.raises(OSError):
                await service.submit(measured_bell(), "statevector",
                                     shots=16, seed=1)
            stats = service.scheduler.stats()
            submitted = service.metrics.counter(
                "repro_service_submitted_jobs_total").value
            monkeypatch.undo()
            await service.close()
            return stats, submitted

        stats, submitted = asyncio.run(life())
        assert submitted == 0
        assert stats["queued_batches"] == 0
        assert stats["dispatched_batches"] == 0

    def test_failed_settlement_append_is_counted(self, tmp_path, monkeypatch):
        gate = threading.Event()

        async def life():
            service = RuntimeService(cache_dir=str(tmp_path),
                                     executor="thread")
            job = await service.submit(measured_bell(), GatedBackend(gate),
                                       shots=16, seed=1)
            monkeypatch.setattr(recordlog, "os", _DiskFull())
            gate.set()
            await job.wait()
            journal_errors = service.metrics.counter(
                "repro_service_settlement_errors_total", {"stage": "journal"})
            ledger_errors = service.metrics.counter(
                "repro_service_settlement_errors_total", {"stage": "ledger"})
            for _ in range(500):  # settlement runs off-loop
                if journal_errors.value and ledger_errors.value:
                    break
                await asyncio.sleep(0.01)
            monkeypatch.undo()
            await service.close()
            return journal_errors.value, ledger_errors.value

        journal_errors, ledger_errors = asyncio.run(life())
        assert journal_errors == 1
        assert ledger_errors == 1
        # The settlement never reached disk: the job comes back unsettled
        # and a restarted service would re-run it.
        assert JobJournal(cache_dir=str(tmp_path)).record(1)["settled"] is False


class TestRead:
    def test_read_returns_the_live_value_or_none(self, tmp_path):
        log = written_log(tmp_path / "log", [("a", 1), ("b", 2), ("a", 3)])
        assert log.read("a") == 3
        assert log.read("b") == 2
        assert log.read("missing") is None
        assert len(log) == 2
        assert sorted(log.keys()) == ["a", "b"]

    def test_read_before_replay_loads_the_index(self, tmp_path):
        written_log(tmp_path / "log", [("a", 1), ("b", 2)])
        log = RecordLog(tmp_path / "log")
        assert log.read("a") == 1
        assert len(log) == 2

    def test_read_on_a_replayed_log_reads_the_file(self, tmp_path):
        path = tmp_path / "log"
        written_log(path, [(i, {"value": i}) for i in range(5)])
        _, log = replayed(path)
        assert [log.read(i) for i in range(5)] == [{"value": i}
                                                   for i in range(5)]

    def test_corrupt_frame_is_a_counted_miss(self, tmp_path):
        path = tmp_path / "log"
        log = written_log(path, [(i, {"value": i}) for i in range(3)])
        size = len(encode(1, {"value": 1}))
        data = bytearray(path.read_bytes())
        data[size + size // 2] ^= 0xFF  # inside key 1's body
        path.write_bytes(bytes(data))
        assert log.read(1) is None
        assert log.corrupt == 1
        assert log.read(0) == {"value": 0}
        assert log.read(2) == {"value": 2}

    def test_reads_follow_a_checkpoint(self, tmp_path, monkeypatch):
        monkeypatch.setattr(recordlog, "CHECKPOINT_FLOOR", 1024)
        log = written_log(tmp_path / "log",
                          [(i % 5, "v" * 40 + str(i)) for i in range(100)])
        assert log.checkpoint_size > 0
        assert {k: log.read(k) for k in range(5)} == {
            k: "v" * 40 + str(95 + k) for k in range(5)}


class TestStreamedCheckpoint:
    @pytest.mark.parametrize("kernel_copy", [True, False])
    def test_checkpoint_memory_does_not_grow_with_the_log(
        self, tmp_path, monkeypatch, kernel_copy
    ):
        import tracemalloc

        monkeypatch.setattr(recordlog, "CHECKPOINT_FLOOR", 1 << 30)  # by hand
        if not kernel_copy:
            # The portable path: bounded pread/write chunks.
            monkeypatch.delattr(os, "copy_file_range", raising=False)
            monkeypatch.setattr(recordlog, "COPY_CHUNK", 4096)
        path = tmp_path / "log"
        log = written_log(path, [])
        value = "x" * 8192
        for round_ in range(2):  # every key twice: half the log is garbage
            for key in range(256):
                log.append(key, value + str(round_))
        size = log.size
        assert size > 4 * 1024 * 1024 and log.checkpoint_size == 0
        tracemalloc.start()
        try:
            with log._lock:
                log._checkpoint()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.size < size and log.checkpoint_size == log.size
        assert peak < 256 * 1024 + 2 * recordlog.COPY_CHUNK
        records, replay = replayed(path)
        assert records == {key: value + "1" for key in range(256)}
        assert replay.corrupt == 0
        assert log.read(7) == value + "1"
