"""Session-wide test set-up: one classification table per session, the
`split` fixture of the tests that fork, the `memo_hits` fixture of the
tests of the memoized Fincke-Pohst walk, and the `time_limit` fixture of
the tests of inputs that once never finished."""

import contextlib
import copy
import functools
import math
import os
import signal

import pytest

from k3lat import enumeration, walls


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
    """(forks, set_workers): the forks counted, and set_workers(n), which
    makes n CPUs usable (2 unless set, whatever the machine has); no child
    may outlive the test."""
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


@pytest.fixture
def memo_hits(monkeypatch):
    """A list that gains one entry for each subtree a norm-only walk
    replays from its memo: True where it replays a nonempty subtree
    reversed, False otherwise.

    A level's key ends in its class coordinates, which the walk has just
    left in the rows' partial sums at the level j: the lookup is mirrored
    when they are not the key's, and the replay is reversed when that
    differs from the orientation bit of the stored span."""
    hits = []
    build = enumeration._memo_levels

    class Counted(dict):
        def __init__(self, rows, j):
            super().__init__()
            self.rows, self.j = rows, j
            self.classes = math.prod(m for _, m, _ in rows)

        def get(self, key):
            span = super().get(key)
            if span is not None:
                coords = 0
                for _, m, s in self.rows:
                    coords = coords * m + s[self.j] % m
                mirrored = key % self.classes != coords
                hits.append(span > 1 and mirrored != span & 1)
            return span

    monkeypatch.setattr(enumeration, "_memo_levels", lambda G: [
        None if level is None else (level[0], Counted(level[0], j))
        for j, level in enumerate(build(G))])
    return hits


@pytest.fixture
def time_limit():
    """time_limit(seconds): a context in which code still running after
    that many seconds (of wall-clock time) raises TimeoutError."""
    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
