"""`parallel.run(first, second)` on trivial jobs: the pair it returns, when
it forks, and each way it falls back to running second in the caller,
after first. Every test runs under the `split` fixture, which counts the
forks and checks that no child outlives the test."""

import marshal
import os
import time
import types

import pytest

from k3lat import parallel


def logged(log, value):
    """A job that appends (value, the pid it runs in) to log and returns
    value; a child's appends stay in the child."""
    def job():
        log.append((value, os.getpid()))
        return value
    return job


def test_second_runs_in_one_child_and_the_pair_keeps_its_order(split):
    assert parallel.run(lambda: ["first"], lambda: ("second", 2)) == (
        ["first"], ("second", 2))
    here, child = parallel.run(os.getpid, os.getpid)
    assert here == os.getpid() != child
    assert len(split[0]) == 2


@pytest.mark.parametrize("serial", ["one-cpu", "no-fork"])
def test_one_cpu_or_no_fork_runs_both_here(split, monkeypatch, serial):
    forks, set_workers = split
    if serial == "one-cpu":
        set_workers(1)
    else:
        monkeypatch.delattr(os, "fork")
    log = []
    assert parallel.run(logged(log, 1), logged(log, 2)) == (1, 2)
    assert log == [(1, os.getpid()), (2, os.getpid())] and forks == []


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_refused_pipe_or_fork_runs_second_once_here(split, monkeypatch,
                                                      call):
    def refuse():
        raise OSError("no more processes")

    monkeypatch.setattr(os, call, refuse)
    log = []
    assert parallel.run(logged(log, 1), logged(log, 2)) == (1, 2)
    assert log == [(1, os.getpid()), (2, os.getpid())] and split[0] == []


def test_a_child_that_exits_3_leaves_second_to_the_caller(split,
                                                         monkeypatch):
    # the child sends its whole result, its own pid, and then exits 3
    exit_ = os._exit
    monkeypatch.setattr(os, "_exit", lambda code: exit_(3))
    assert parallel.run(os.getpid, os.getpid) == (os.getpid(), os.getpid())
    assert len(split[0]) == 1


def test_an_unmarshalable_result_is_computed_again_here(split):
    log = []

    def second():
        log.append(os.getpid())
        return object()

    _, result = parallel.run(lambda: 1, second)
    assert type(result) is object and log == [os.getpid()]
    assert len(split[0]) == 1


def test_short_data_is_computed_again_here(split, monkeypatch):
    monkeypatch.setattr(parallel, "marshal", types.SimpleNamespace(
        dumps=lambda value: marshal.dumps(value)[:-1], loads=marshal.loads))
    log = []
    assert parallel.run(logged(log, 1), logged(log, (2, "two"))) == (
        1, (2, "two"))
    assert log == [(1, os.getpid()), ((2, "two"), os.getpid())]
    assert len(split[0]) == 1


def test_an_error_in_second_is_raised_after_first(split):
    log = []

    def second():
        raise ValueError("second")

    with pytest.raises(ValueError, match="second"):
        parallel.run(logged(log, 1), second)
    assert log == [(1, os.getpid())] and len(split[0]) == 1


def test_first_raising_kills_and_reaps_the_child(split, time_limit):
    def first():
        raise RuntimeError("first")

    # a child left to finish would hold the caller for a minute
    with time_limit(10), pytest.raises(RuntimeError, match="first"):
        parallel.run(first, lambda: time.sleep(60))
    assert len(split[0]) == 1
