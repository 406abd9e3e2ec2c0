"""Tests for the shared executor registry and the serial executor."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.exceptions import JobError
from repro.runtime.pool import (
    EXECUTOR_KINDS,
    SerialExecutor,
    default_executor_kind,
    default_max_workers,
    get_executor,
    pool_stats,
    shutdown_executors,
)


class TestSerialExecutor:
    def test_runs_inline_and_returns_done_future(self):
        calls = []
        future = SerialExecutor().submit(lambda x: calls.append(x) or x * 2, 21)
        assert calls == [21]  # ran before submit returned
        assert future.done()
        assert future.result() == 42

    def test_exception_captured_not_raised(self):
        def boom():
            raise RuntimeError("inline failure")

        future = SerialExecutor().submit(boom)
        assert future.done()
        with pytest.raises(RuntimeError, match="inline failure"):
            future.result()

    def test_submission_order_is_execution_order(self):
        order = []
        pool = SerialExecutor()
        for i in range(5):
            pool.submit(order.append, i)
        assert order == list(range(5))


class TestExecutorRegistry:
    def test_same_configuration_reuses_one_pool(self):
        first = get_executor("thread", 2)
        before = pool_stats()
        second = get_executor("thread", 2)
        after = pool_stats()
        assert second is first
        assert after["created"] == before["created"]
        assert after["reused"] == before["reused"] + 1

    def test_distinct_widths_get_distinct_pools(self):
        assert get_executor("thread", 2) is not get_executor("thread", 3)

    def test_serial_is_a_singleton(self):
        assert get_executor("serial") is get_executor("serial", 8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="unknown executor kind"):
            get_executor("greenlet")

    def test_invalid_width_rejected(self):
        with pytest.raises(JobError, match="max_workers"):
            get_executor("thread", 0)

    def test_shutdown_clears_and_rebuilds_lazily(self):
        pool = get_executor("thread", 2)
        shutdown_executors()
        assert pool_stats()["active"] == 0
        rebuilt = get_executor("thread", 2)
        assert rebuilt is not pool
        rebuilt.submit(lambda: None).result()  # fresh pool actually works

    def test_stats_shape(self):
        get_executor("serial")
        stats = pool_stats()
        assert set(stats) == {"active", "created", "reused", "rebuilds", "pools"}
        assert ("serial", None) in stats["pools"]


class TestDefaultKind:
    def test_fallback_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert default_executor_kind() == "thread"

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_env_var_selects_kind(self, monkeypatch, kind):
        monkeypatch.setenv("REPRO_EXECUTOR", kind)
        assert default_executor_kind() == kind

    def test_env_var_is_normalised(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "  Process ")
        assert default_executor_kind() == "process"

    def test_invalid_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "quantum")
        with pytest.raises(JobError, match="REPRO_EXECUTOR"):
            default_executor_kind()

    def test_default_width_positive(self):
        assert default_max_workers() >= 1


class TestStartMethod:
    def test_process_pool_forks(self):
        pool = get_executor("process", 2)
        assert pool._mp_context.get_start_method() == "fork"

    def test_unguarded_script_runs_process_jobs(self, tmp_path):
        """A script without an ``if __name__ == "__main__"`` guard: under
        ``forkserver`` or ``spawn`` each worker would re-run it and every
        process-pool job would fail."""
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent("""
            from repro.circuits import library
            from repro.runtime import execute

            circuit = library.bell_pair()
            circuit.measure_all()
            job = execute(circuit, "stabilizer", shots=64, seed=1,
                          executor="process", max_workers=2)
            print(job.result().counts.shots)
        """))
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=120, stdin=subprocess.DEVNULL,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "64"
