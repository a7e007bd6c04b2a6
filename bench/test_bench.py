"""Tests for the benchmark's own code: span arithmetic, gates, wrappers.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import dataclasses
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import classinv.classpoly as classpoly  # noqa: E402
from classinv.classpoly import IntPolynomial  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_class_polynomial,
    check_table,
    check_unit_polynomial,
    coefficient_digest,
    load_expected,
)

# root 0..10 with two children; the first child has one grandchild of
# the same layer and one of another layer.
TREE = [
    ["classpoly.compute_ramanujan", 0.0, 10.0, None, "p"],
    ["etarep.form_action", 1.0, 6.0, 0, "p"],
    ["etarep.word_action", 2.0, 4.0, 1, "p"],
    ["sl2words.decompose", 4.5, 5.0, 1, "p"],
    ["numeval.r_value", 7.0, 9.0, 0, "p"],
    ["classpoly.compute_ramanujan", 20.0, 21.0, None, "q"],
]


def test_self_times_subtract_direct_children():
    assert spans.self_times(TREE) == [3.0, 2.5, 2.0, 0.5, 2.0, 1.0]


def test_function_and_layer_metrics_on_a_hand_built_tree():
    metrics = spans.function_metrics(TREE)
    # form_action contains word_action: the layer is busy 5 s, not 7 s.
    assert metrics["etarep.s"] == 5.0
    assert metrics["etarep.self_s"] == 4.5
    assert metrics["etarep.calls"] == 2
    assert metrics["etarep.word_action.self_s"] == 2.0
    assert metrics["sl2words.s"] == metrics["sl2words.self_s"] == 0.5
    assert metrics["classpoly.s"] == 11.0
    assert metrics["classpoly.self_s"] == 4.0
    assert metrics["numeval.r_value.s"] == 2.0
    assert metrics["orders.s"] == 0.0 and metrics["orders.calls"] == 0


def test_self_times_of_a_polynomial_add_up_to_its_root_span():
    assert spans.poly_self_totals(TREE) == {"p": 10.0, "q": 1.0}


def test_unbalanced_flags_a_polynomial_whose_self_times_miss_its_wall_time():
    tracer = spans.Tracer()
    tracer.spans.extend(TREE)
    assert tracer.unbalanced({"p": 10.0005, "q": 1.5}, 0.0) == [
        "q: self times add to 1.000000 s, traced wall 1.500000 s"]
    assert tracer.unbalanced({"p": 10.0005, "q": 1.5}, 0.6) == []


def test_reference_seconds_remove_kernel_time_and_scale_by_speed():
    probe = speed.SpeedProbe()
    # the host runs the kernel at half the reference speed around [1, 2)
    slow = 2 * speed.REFERENCE_KERNEL_S
    probe.samples = [(0.9, slow), (1.5, slow), (2.1, slow), (5.0, 1.0)]
    assert probe.net_seconds(1.0, 2.0) == 1.0 - slow
    assert probe.reference_seconds(1.0, 2.0) == pytest.approx((1.0 - slow) / 2)
    with pytest.raises(ValueError):
        probe.reference_seconds(3.0, 3.1)


def test_speed_probe_samples_and_then_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _altered(result, power=1):
    coeffs = list(result.polynomial.coefficients)
    coeffs[power] += 1
    return dataclasses.replace(result, polynomial=IntPolynomial(tuple(coeffs)))


def test_table_gate_rejects_one_altered_coefficient():
    row = load_expected("table", ROOT / "tests" / "golden_data.py", None)[107]
    result = classpoly.compute_ramanujan(107)
    assert check_table(107, result, row) == []
    assert check_table(107, _altered(result), row)


def test_unit_polynomial_gate_rejects_one_altered_coefficient():
    result = classpoly.compute_ramanujan(131)
    reference = {"class_number": 5,
                 "sha256": coefficient_digest(result.polynomial.coefficients)}
    assert check_unit_polynomial(131, result, reference) == []
    errors = check_unit_polynomial(131, _altered(result, 2), reference)
    assert any("digest" in e for e in errors)
    assert any("|P(t_n)|" in e for e in errors)


def test_class_polynomial_gate_rejects_one_altered_coefficient():
    result = classpoly.compute_hilbert(-107)
    reference = {"class_number": 3,
                 "sha256": coefficient_digest(result.polynomial.coefficients)}
    assert check_class_polynomial(107, result, reference) == []
    assert check_class_polynomial(107, _altered(result, 0), reference)


def test_stored_reference_covers_every_large_and_hilbert_input():
    for name in ("large", "hilbert"):
        expected = load_expected(name, None, Path(__file__).parent / "reference.json")
        assert set(expected) == set(WORKLOADS[name].inputs)


def _installed():
    return [vars(owner)[attr] for owner, attr, _ in spans.SPANNED + spans.COUNTED]


def test_tracer_records_spans_and_removes_its_wrappers():
    before = _installed()
    plain = classpoly.compute_ramanujan(107).polynomial
    with spans.Tracer() as tracer:
        tracer.poly = "table:107"
        traced = classpoly.compute_ramanujan(107).polynomial
        assert all(a is not b for a, b in zip(_installed(), before))
    assert all(a is b for a, b in zip(_installed(), before))
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"classpoly.compute_ramanujan", "etarep.form_action",
            "numeval.eta", "sl2words.decompose"} <= names
    assert {span[4] for span in tracer.spans} == {"table:107"}
    assert tracer.counts["cyclotomic.mul.calls"] > 0


def test_tracer_removes_its_wrappers_when_the_traced_code_raises():
    before = _installed()
    with pytest.raises(ValueError):
        with spans.Tracer():
            classpoly.compute_ramanujan(12)
    assert all(a is b for a, b in zip(_installed(), before))
