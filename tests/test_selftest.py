"""The cross-validation suites themselves.

Full-strength runs happen in the acceptance tests; here each check is
exercised at reduced size to keep the module suite quick, plus the two
cheap exact checks at full strength.
"""

from classinv.selftest import (
    check_eta_functional_equations,
    check_lift_congruences,
    check_mirror_rule,
    check_monomial_oracle,
    check_rep_numeric,
    check_sigma_numeric,
    check_sigma_series_exact,
    check_word_reconstruction,
    run_all,
)


def test_lift_congruences():
    result = check_lift_congruences()
    assert result.passed


def test_word_reconstruction_smoke():
    result = check_word_reconstruction(samples=60)
    assert result.passed
    assert "0 failures" in result.detail


def test_eta_functional_equations_smoke():
    result = check_eta_functional_equations(points=4, dps=80)
    assert result.passed


def test_rep_numeric_smoke():
    result = check_rep_numeric(points=3, dps=80)
    assert result.passed


def test_sigma_series_exact_reduced_bound():
    result = check_sigma_series_exact(bound=80)
    assert result.passed
    assert result.detail == "all identities hold"


def test_sigma_numeric_smoke():
    result = check_sigma_numeric(points=3, dps=80, bound=100)
    assert result.passed


def test_monomial_oracle_reduced_sample():
    result = check_monomial_oracle(samples=4)
    assert result.passed
    assert result.detail == "S, T, 24 sigma_d and 4 GL2(Z/72) matrices"


def test_mirror_rule_suite():
    result = check_mirror_rule()
    assert result.passed
    assert result.detail.startswith("118 pairs for 38 n")


def test_run_all_reports_every_suite():
    results = run_all(points=2, dps=60)
    names = [r.name for r in results]
    assert names == [
        "word-reconstruction",
        "lift-congruences",
        "eta-functional-equations",
        "rep-numeric-consistency",
        "sigma-series-exact",
        "sigma-numeric-consistency",
        "monomial-oracle",
        "mirror-rule",
    ]
    assert all(r.passed for r in results)
