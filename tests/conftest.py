"""Shared fixtures: tiny kernels, a monitor over fresh host storage.

The session also fails if a test leaves ``multiprocessing`` children
running, such as the workers of a process fleet's pool that no one
closed or collected.
"""

from __future__ import annotations

import gc
import multiprocessing
import time

import pytest

from repro.artifacts import get_kernel
from repro.host import HostStorage
from repro.kernel import TINY, KernelVariant
from repro.monitor import Firecracker
from repro.simtime import CostModel


@pytest.fixture(scope="session")
def tiny_nokaslr():
    return get_kernel(TINY, KernelVariant.NOKASLR, scale=1, seed=3)


@pytest.fixture(scope="session")
def tiny_kaslr():
    return get_kernel(TINY, KernelVariant.KASLR, scale=1, seed=3)


@pytest.fixture(scope="session")
def tiny_fgkaslr():
    return get_kernel(TINY, KernelVariant.FGKASLR, scale=1, seed=3)


@pytest.fixture()
def storage():
    return HostStorage()


@pytest.fixture()
def fc(storage):
    """A Firecracker monitor with deterministic (jitter-free) costs."""
    return Firecracker(storage, CostModel(scale=1))


#: seconds the session waits for worker processes that are shutting down
CHILD_EXIT_GRACE_S = 10.0


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if live ``multiprocessing`` children outlast the
    tests: collect what the tests dropped (a collected fleet manager
    shuts its kept pool down), give exiting children a bounded wait,
    then count the rest."""
    gc.collect()
    deadline = time.monotonic() + CHILD_EXIT_GRACE_S
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    alive = multiprocessing.active_children()
    if alive:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.line("")
            reporter.write_sep(
                "=", f"leaked multiprocessing children: {sorted(c.pid for c in alive)}",
                red=True,
            )
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
