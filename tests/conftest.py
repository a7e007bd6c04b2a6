"""Shared fixtures.  The main polynomial table and the self-test suites
are expensive enough that each is computed once per session and reused
wherever needed."""

import pytest
from hypothesis import HealthCheck, settings

from classinv.classpoly import compute_ramanujan
from classinv.selftest import run_all

from golden_data import MAIN_TABLE

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def main_table_results():
    """PolynomialResult for every n in the main table, at default digits."""
    return {n: compute_ramanujan(n) for n in sorted(MAIN_TABLE)}


@pytest.fixture(scope="session")
def selftest_results():
    """Every self-test suite's result by name, from one ``run_all()``."""
    return {r.name: r for r in run_all()}
