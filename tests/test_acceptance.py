"""The paper suite of `k3lat.acceptance`, one test per check."""

import pytest

from k3lat import acceptance


@pytest.mark.parametrize("check", acceptance.suite("paper"),
                         ids=lambda check: check[0])
def test_paper_suite(check):
    name, run = check
    ok, detail = run()
    assert ok, f"{name}: {detail}"


def test_fast_suite_omits_only_the_kissing_census():
    paper = [name for name, _ in acceptance.suite("paper")]
    fast = [name for name, _ in acceptance.suite("fast")]
    assert fast == [name for name in paper if name != "leech-kissing-196560"]
