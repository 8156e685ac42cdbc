"""The collection hook of `conftest.py` that keeps test ids short."""

import types

import pytest

import conftest


def _item(nodeid: str):
    return types.SimpleNamespace(nodeid=nodeid, runtest=lambda: None)


def test_a_test_id_longer_than_the_limit_fails():
    short = _item("tests/test_x.py::test_" + "a" * 60)
    long = _item("tests/test_x.py::test_" + "a" * 80)
    listed = _item(sorted(conftest.LONG_ID_TESTS)[0] + "[" + "b" * 90 + "]")
    conftest.pytest_collection_modifyitems([short, long, listed])
    short.runtest()
    listed.runtest()
    with pytest.raises(pytest.fail.Exception, match="longer than 100 characters"):
        long.runtest()

