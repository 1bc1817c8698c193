"""Session-wide test set-up: one classification table per session."""

import copy
import functools

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
