"""Session-wide test set-up: one classification table per session, the
`split` fixture of the tests that fork, the `memo_hits` and `walk_log`
fixtures of the tests of the memoized Fincke-Pohst walk, and the
`time_limit` fixture of the tests of inputs that once never finished."""

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
    replays from its memo: True where its lookup was mirrored, False where
    it was direct.

    A level's key ends in its class coordinates, which the walk has just
    left in the rows' partial sums at the level j: the lookup is mirrored
    when they are not the key's."""
    hits = []
    build = enumeration._memo_levels

    class Counted(dict):
        def __init__(self, rows, j):
            super().__init__()
            self.rows, self.j = rows, j
            self.classes = math.prod(m for _, m, _ in rows)

        def get(self, key):
            leaves = super().get(key)
            if leaves is not None:
                coords = 0
                for _, m, s in self.rows:
                    coords = coords * m + s[self.j] % m
                hits.append(key % self.classes != coords)
            return leaves

    monkeypatch.setattr(enumeration, "_memo_levels", lambda G: [
        None if level is None else (level[0], Counted(level[0], j))
        for j, level in enumerate(build(G))])
    return hits


@pytest.fixture
def walk_log(monkeypatch):
    """A list that gains one entry [roots, memo] for each walk of the
    tree: the integer square roots it takes, one for the root's range and
    one per node, and the node at which it builds its memo, or None.

    A node builds the memo before it takes its own root, so the node's
    number is the count of roots the walk has taken until then."""
    log = []
    isqrt, walk = math.isqrt, enumeration._walk
    build = enumeration._memo_levels

    def counted_isqrt(a):
        log[-1][0] += 1
        return isqrt(a)

    def logged_walk(*args):
        log.append([0, None])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(math, "isqrt", counted_isqrt)
            return walk(*args)

    def logged_build(G):
        log[-1][1] = log[-1][0]
        return build(G)

    monkeypatch.setattr(enumeration, "_walk", logged_walk)
    monkeypatch.setattr(enumeration, "_memo_levels", logged_build)
    return log


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
