"""Shared test configuration: a fresh solution cache per module, and the
``slow`` marker for the exhaustive differential sweeps (run them with
``--runslow``)."""

import pytest

from charp_qkz import hypergeo


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", help="also run tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: exhaustive sweep, run only with --runslow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow sweep: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True, scope="module")
def _fresh_solution_cache():
    """Each module starts and ends with an empty solution cache, so the test
    process does not hold every solution set it has built."""
    hypergeo._solution_cache.clear()
    yield
    hypergeo._solution_cache.clear()
