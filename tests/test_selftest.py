"""The cross-validation suites themselves.

``run_all`` runs once for the session (the ``selftest_results`` fixture
in conftest, shared with the acceptance gates), in the one
configuration that ``classinv selftest`` prints, and each test asserts
on one suite's result.
"""


def test_lift_congruences(selftest_results):
    assert selftest_results["lift-congruences"].passed


def test_word_reconstruction_smoke(selftest_results):
    # all of SL2(Z/8) and SL2(Z/9): 384 + 648 matrices, each also lifted
    result = selftest_results["word-reconstruction"]
    assert result.passed
    assert result.detail == "1032 matrices, 0 failures"


def test_eta_functional_equations_smoke(selftest_results):
    assert selftest_results["eta-functional-equations"].passed


def test_rep_numeric_smoke(selftest_results):
    assert selftest_results["rep-numeric-consistency"].passed


def test_sigma_series_exact(selftest_results):
    result = selftest_results["sigma-series-exact"]
    assert result.passed
    assert result.detail == "all identities hold"


def test_sigma_numeric_smoke(selftest_results):
    assert selftest_results["sigma-numeric-consistency"].passed


def test_monomial_oracle(selftest_results):
    result = selftest_results["monomial-oracle"]
    assert result.passed
    assert result.detail == "S, T, 24 sigma_d and 24 GL2(Z/72) matrices"


def test_mirror_rule_suite(selftest_results):
    result = selftest_results["mirror-rule"]
    assert result.passed
    assert result.detail == ("118 pairs for 38 n, perm (0, 2, 1, 4, 3, 5), "
                             "c (0, 69, 69, 69, 69, 66)")


def test_run_all_reports_every_suite(selftest_results):
    assert list(selftest_results) == [
        "word-reconstruction",
        "lift-congruences",
        "eta-functional-equations",
        "rep-numeric-consistency",
        "sigma-series-exact",
        "sigma-numeric-consistency",
        "monomial-oracle",
        "mirror-rule",
    ]
    assert all(r.passed for r in selftest_results.values())
