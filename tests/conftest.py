"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os
import sys

import numpy as np
import pytest

from repro.devices.backend import StatevectorBackend
from repro.devices.ibmqx4 import ibmqx4
from repro.simulators.density_matrix import DensityMatrixSimulator
from repro.simulators.stabilizer import StabilizerSimulator
from repro.simulators.statevector import StatevectorSimulator


#: Seconds one test (setup, call and teardown) may run before the
#: watchdog dumps every thread's stack and ends the run.  The slowest
#: test, the retention suite's bounded-memory run, took 12-54 s on a
#: shared 2-core host; this is over 2.5x that, so only a hang trips it.
WATCHDOG_S = 150.0

_WATCHDOG_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # A duplicate of the terminal's stderr: while a test runs, fd 2 is
    # pytest's capture file, which a process that exits never prints.
    config.stash[_WATCHDOG_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_WATCHDOG_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(
        WATCHDOG_S, exit=True, file=item.config.stash[_WATCHDOG_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def sv_sim() -> StatevectorSimulator:
    """A fresh statevector simulator."""
    return StatevectorSimulator()


@pytest.fixture
def dm_sim() -> DensityMatrixSimulator:
    """A fresh (noise-free) density-matrix simulator."""
    return DensityMatrixSimulator()


@pytest.fixture
def stab_sim() -> StabilizerSimulator:
    """A fresh stabilizer simulator."""
    return StabilizerSimulator()


@pytest.fixture
def sv_backend() -> StatevectorBackend:
    """An ideal statevector backend."""
    return StatevectorBackend()


@pytest.fixture(scope="session")
def ibmqx4_device():
    """The ibmqx4 device model (session-scoped; it is immutable)."""
    return ibmqx4()


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded RNG for deterministic tests."""
    return np.random.default_rng(1234)
