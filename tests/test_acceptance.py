"""Acceptance gates for the whole pipeline, one test per criterion.

Run with -s to see one PASS/FAIL line per criterion.  The worked
example (criterion 5) is split into its five standalone stages, each
reported on its own line.
"""

import json
import math
import time
from fractions import Fraction

import mpmath

from classinv import cli
from classinv.classpoly import IntPolynomial
from classinv.cyclotomic import SQRT3, CycNum
from classinv.etarep import (
    RepMatrix,
    dual_action,
    form_action,
    full_action,
    invariance_check,
    unit_vector,
    word_action,
)
from classinv.numeval import ramanujan_value
from classinv.orders import (
    STANDARD_GENERATORS,
    generator_matrix,
    unit_group,
    verify_generators,
)
from classinv.quadforms import class_number
from classinv.sl2words import Mat2, decompose, lift_word, split_det

from golden_data import (
    HILBERT_107_TEXT,
    MAIN_TABLE,
    NOT_SQUAREFREE,
    SMALL_TABLE_TEXT,
    TEXT_611,
    UNIT_ELEMENT,
    UNIT_MATRIX_ENTRIES,
    UNIT_MOD9_DET,
    UNIT_MOD9_UNIMODULAR,
    UNIT_MOD9_WORD,
    UNIT_MOD72_DET,
    UNIT_MOD72_ENTRIES,
    UNIT_REP_ENTRIES,
)
from rep_helpers import dense_action, is_monomial


def _gate(label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"{label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{label} failed{suffix}"


def test_criterion_1_small_table(capsys):
    ramanujan_value(11, 120)  # warm the cached roots of unity
    worst = 0.0
    ok = True
    for n, expected in sorted(SMALL_TABLE_TEXT.items()):
        start = time.perf_counter()
        code = cli.main(["pn", "--n", str(n)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        worst = max(worst, elapsed)
        ok = ok and code == 0 and out == expected + "\n" and elapsed < 1.0
    with capsys.disabled():
        _gate("criterion 1 (five smallest n, exact text)", ok,
              f"slowest {worst:.2f}s")


def test_criterion_2_main_table(capsys):
    start = time.perf_counter()
    code = cli.main(["pn-range", "--from", "107", "--to", "1000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    printed = {}
    for line in lines:
        head, _, poly = line.partition(": ")
        printed[int(head[2:])] = poly
    expected = {
        n: str(IntPolynomial.from_descending(coeffs))
        for n, coeffs in MAIN_TABLE.items()
    }
    ok = code == 0 and printed == expected
    # pin one row against frozen text rather than the shared renderer
    ok = ok and printed[611] == TEXT_611
    for n in NOT_SQUAREFREE:
        ok = ok and f"warning: {n} is not squarefree" in captured.err
    ok = ok and len(printed) == 38 and elapsed < 120.0
    with capsys.disabled():
        _gate("criterion 2 (38-row table, exact text)", ok,
              f"{len(printed)} rows in {elapsed:.1f}s")


def test_criterion_3_hilbert_cross_check(capsys):
    code = cli.main(["hilbert", "--disc", "-107"])
    out = capsys.readouterr().out
    ok = code == 0 and out == HILBERT_107_TEXT + "\n"
    code = cli.main(["hilbert", "--disc", "-107", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    ok = ok and payload["class_number"] == 3
    with capsys.disabled():
        _gate("criterion 3 (Hilbert polynomial for disc -107)", ok)


def test_criterion_4_symbolic_invariance(capsys):
    code = cli.main(["check-invariance"])
    out = capsys.readouterr().out
    ok = code == 0
    for n in cli.INVARIANCE_CLASSES:
        ok = ok and f"check-invariance n={n}: PASS" in out
        results = invariance_check(n)
        ok = ok and all(r.invariant for r in results)
        # the checked units generate both stabilizer unit groups
        for modulus in (8, 9):
            group = unit_group((n + 1) // 4, modulus)
            generators = [r.generator for r in results if r.modulus == modulus]
            ok = ok and verify_generators(generators, group)
    # the paper's generators of every class: three mod 8, two mod 9
    ok = ok and all(len(invariance_check(n)) == 5 for n in cli.INVARIANCE_CLASSES)
    with capsys.disabled():
        _gate("criterion 4 (exact stabilizer invariance, all 12 classes mod 288)", ok)


def test_criterion_5_generator_matrix():
    matrix = generator_matrix(UNIT_ELEMENT, 3, 9)
    _gate("criterion 5 (unit multiplication matrix)",
          matrix == Mat2(*UNIT_MATRIX_ENTRIES, 9))


def test_criterion_5_determinant_split():
    combined = Mat2(*UNIT_MOD72_ENTRIES, 72)
    unimodular, det = split_det(combined.to_mod(9))
    ok = (
        combined.det == UNIT_MOD72_DET
        and unimodular == Mat2(*UNIT_MOD9_UNIMODULAR, 9)
        and det == UNIT_MOD9_DET
    )
    _gate("criterion 5 (mod-9 determinant split)", ok)


def test_criterion_5_word_decomposition():
    word = decompose(Mat2(*UNIT_MOD9_UNIMODULAR, 9), 9)
    _gate("criterion 5 (word T^3 S T^7 S T^3)", word == UNIT_MOD9_WORD)


def test_criterion_5_representation_matrix():
    rep, det = full_action(Mat2(*UNIT_MOD72_ENTRIES, 72))
    expected = RepMatrix.from_entries({
        key: CycNum.from_zeta_terms(
            (power, Fraction(coef)) for power, coef in terms
        )
        for key, terms in UNIT_REP_ENTRIES.items()
    })
    ok = det == UNIT_MOD72_DET and rep == expected
    ok = ok and word_action(lift_word(UNIT_MOD9_WORD, 9)) == expected
    _gate("criterion 5 (substitution matrix, entry for entry)", ok)


def test_criterion_5_twisted_dual_action():
    rep, det = full_action(Mat2(*UNIT_MOD72_ENTRIES, 72))
    moved = dual_action(rep, det, unit_vector(2))
    negated = moved == unit_vector(2, CycNum.from_rational(-1))
    fixed_target = unit_vector(2, SQRT3)
    fixed = dual_action(rep, det, fixed_target) == fixed_target
    _gate("criterion 5 (twisted action negates the quotient vector)",
          negated and fixed)


def test_criterion_6_property_suites(main_table_results, selftest_results):
    words = selftest_results["word-reconstruction"]
    eta_eqs = selftest_results["eta-functional-equations"]
    rep_num = selftest_results["rep-numeric-consistency"]
    monomial = all(
        is_monomial(dense_action(record.form)[0])
        and math.gcd(form_action(record.form)[1], 72) == 1
        for result in main_table_results.values()
        for record in result.conjugates
    )
    shape = all(
        result.polynomial.degree == class_number(-n)
        and abs(result.polynomial.constant_term) == 1
        for n, result in main_table_results.items()
    )
    ok = all((words.passed, eta_eqs.passed, rep_num.passed, monomial, shape))
    detail = (f"{words.detail}; eta {eta_eqs.detail}; rep {rep_num.detail}; "
              f"monomial={monomial}; degree/constant={shape}")
    _gate("criterion 6 (property suites)", ok, detail)


def test_criterion_7_unit_group_structure():
    ok = True
    for c_param in (3, 9, 15):
        group9 = unit_group(c_param, 9)
        group8 = unit_group(c_param, 8)
        ok = ok and group9.order == 36 and group9.invariant_factors == (6, 6)
        ok = ok and group8.order == 48 and group8.invariant_factors == (12, 2, 2)
    rows = 0
    for (n, modulus), gens in STANDARD_GENERATORS.items():
        group = unit_group((n + 1) // 4, modulus)
        ok = ok and verify_generators(gens, group)
        rows += 1
    _gate("criterion 7 (unit-group structure)", ok,
          f"{rows} generator rows verified")
