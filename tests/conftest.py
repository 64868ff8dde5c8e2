"""Shared fixtures."""

import os

import pytest

import quatsplit.cli as cli_module
from quatsplit import workers


@pytest.fixture
def sweep_workers(monkeypatch):
    """Run every verify sweep of the test in two forked workers, whatever its size and the CPU count.

    After the test, at least one worker was forked and every one was reaped.
    """
    forks = 0
    fork = os.fork

    def counted_fork():
        nonlocal forks
        forks += 1
        return fork()

    monkeypatch.setattr(cli_module, "WORKER_MIN_PAIRS", 0)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    yield
    assert forks > 0, "no sweep worker was forked"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
