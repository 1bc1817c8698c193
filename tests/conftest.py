"""Session-wide test set-up: one classification table per session, and
the `split` fixture of the tests that fork."""

import copy
import functools
import os

import pytest

from k3lat import walls


@pytest.fixture(scope="session", autouse=True)
def one_classification_table():
    """Build `walls.classification_table()` once and hand every caller a
    fresh copy of it: the paper suite's check and the golden comparison in
    `test_walls` then share one set of wall searches. Calls with
    arguments, such as the CLI's `cap=`, are not cached."""
    build = walls.classification_table
    table = functools.cache(build)

    def shared(*args, **kwargs):
        if args or kwargs:
            return build(*args, **kwargs)
        return copy.deepcopy(table())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walls, "classification_table", shared)
        yield


@pytest.fixture
def split(monkeypatch):
    """Forks counted, `workers` usable CPUs (2 unless set, whatever the
    machine has); no child may outlive the test."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    def set_workers(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    monkeypatch.setattr(os, "fork", counted_fork)
    set_workers(2)
    yield forks, set_workers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
