"""Shared pytest wiring.

The acceptance tests register one line apiece in ACCEPTANCE_LINES; the
terminal-summary hook prints the block after the run so the pass/fail
roster is visible even though pytest captures per-test stdout.
"""

import os

import pytest

from kernelcontrast import fileio

ACCEPTANCE_LINES: list = []


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
