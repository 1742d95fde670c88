"""Shared pytest wiring.

The acceptance tests register one line apiece in ACCEPTANCE_LINES; the
terminal-summary hook prints the block after the run so the pass/fail
roster is visible even though pytest captures per-test stdout.
"""

import os

import numpy as np
import pytest

from kernelcontrast import fileio

ACCEPTANCE_LINES: list = []


def softplus(z):
    """log(1 + e^z) without overflow, for the tests' loss oracles: the
    library applies it only inside the weighted logistic loss.

    Computed as max(z, 0) + log1p(e^-|z|), the split the library's loss
    takes, with the same vectorized exp and log1p. `np.logaddexp(0, z)`
    splits the same way but calls the C library per element, whose
    rounding differs from NumPy's vectorized loops in the last bit on
    some machines, so an oracle built on it would not hold the library's
    bits there."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture
def force_csv_workers(monkeypatch):
    """``force(cpus)`` makes every matrix big enough for ``cpus`` CSV
    workers, by lowering the module's size constant and faking the usable
    CPU set, and returns the list of pids the writer then forks."""

    def force(cpus):
        monkeypatch.setattr(fileio, "_VALUES_PER_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks, fork = [], os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    return force
