"""Shared fixtures.  The main polynomial table and the self-test suites
are expensive enough that each is computed once per session and reused
wherever needed."""

import sys

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


def _stop_helper():
    """Stop the helper process, if ``classinv.helper`` is loaded at all:
    before its first shared call no helper can run, and the module is
    not imported just to find none."""
    helper = sys.modules.get("classinv.helper")
    if helper is not None:
        helper._stop_helper()


@pytest.fixture(autouse=True)
def fresh_helper(request):
    """Stop the helper process before and after every test that uses
    monkeypatch.  The helper runs classpoly's functions as they were when
    it was forked: a test that patches one then forks a new helper that
    runs the patch too, and leaves no helper with its patches behind."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    _stop_helper()
    yield
    _stop_helper()
