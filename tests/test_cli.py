"""The command-line interface: output formats, precision plumbing, errors."""

import json
import os
import subprocess
import sys
import time

import pytest

from classinv import cli, selftest
from classinv.etarep import is_valid_n
from classinv.selftest import CheckResult

from golden_data import (
    HILBERT_107_TEXT,
    MAIN_TABLE,
    SMALL_TABLE,
    SMALL_TABLE_TEXT,
)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pn_text(capsys):
    code, out, err = run_cli(capsys, "pn", "--n", "107")
    assert code == 0
    assert out == SMALL_TABLE_TEXT[107] + "\n"
    assert err == ""


def test_pn_json(capsys):
    code, out, err = run_cli(capsys, "pn", "--n", "107", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 107
    assert payload["discriminant"] == -107
    assert payload["class_number"] == 3
    ascending = list(reversed(SMALL_TABLE[107]))
    assert payload["coefficients"] == [str(c) for c in ascending]
    assert payload["precision_digits"] == 120
    assert float(payload["max_residual"]) < 1e-40
    # the emitted document is in canonical form: sorted keys, 2-space indent
    canonical = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert out == canonical


def test_pn_rejects_bad_residue(capsys):
    code, out, err = run_cli(capsys, "pn", "--n", "12")
    assert code == 1
    assert out == ""
    assert "n must be" in err and "11 mod 24" in err


def test_pn_warns_on_square_factor(capsys):
    code, out, err = run_cli(capsys, "pn", "--n", "275")
    assert code == 0
    assert "warning: 275 is not squarefree" in err
    assert out.strip() == "x^4 - x^3 + 6x^2 - 11x + 1"


def test_pn_range_text(capsys):
    code, out, err = run_cli(capsys, "pn-range", "--from", "100", "--to", "200")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=107: x^3 - 2x^2 + 4x - 1"
    assert [line.split(":")[0] for line in lines] == [
        "n=107", "n=131", "n=155", "n=179",
    ]


def test_pn_range_json(capsys):
    code, out, err = run_cli(capsys, "pn-range", "--from", "11", "--to", "59",
                             "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [entry["n"] for entry in payload] == [11, 35, 59]
    assert payload[0]["coefficients"] == ["-1", "1"]


def test_pn_range_json_warns_on_square_factor(capsys):
    code, out, err = run_cli(capsys, "pn-range", "--from", "251", "--to", "299",
                             "--format", "json")
    assert code == 0
    assert err == "warning: 275 is not squarefree\n"
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert [entry["n"] for entry in payload] == [251, 275, 299]
    assert [entry["coefficients"] for entry in payload] == [
        [str(c) for c in reversed(MAIN_TABLE[n])] for n in (251, 275, 299)
    ]


def test_pn_range_rejects_reversed_interval(capsys):
    code, out, err = run_cli(capsys, "pn-range", "--from", "200", "--to", "100")
    assert code == 1
    assert "range start exceeds range end" in err


def test_pn_range_rejects_non_positive_start(capsys):
    # -13 = 11 mod 24: rejected up front, with no squarefree warning
    code, out, err = run_cli(capsys, "pn-range", "--from", "-13", "--to", "11")
    assert code == 1
    assert out == ""
    assert err == "error: range start must be positive, got -13\n"


def test_hilbert_text(capsys):
    code, out, err = run_cli(capsys, "hilbert", "--disc", "-107")
    assert code == 0
    assert out == HILBERT_107_TEXT + "\n"


def test_hilbert_json(capsys):
    code, out, err = run_cli(capsys, "hilbert", "--disc", "-11",
                             "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["discriminant"] == -11
    assert payload["coefficients"] == ["32768", "1"]


def test_hilbert_rejects_bad_discriminant(capsys):
    code, out, err = run_cli(capsys, "hilbert", "--disc", "-10")
    assert code == 1
    assert "not a negative discriminant" in err


def test_check_invariance(capsys):
    code, out, err = run_cli(capsys, "check-invariance")
    assert code == 0
    assert out.startswith(
        "check-invariance n=11: PASS\n"
        "check-invariance n=35: PASS\n"
        "check-invariance n=59: PASS\n"
    )
    # one n in each of the 12 classes of n = 11 (mod 24) modulo 288
    assert out == "".join(
        f"check-invariance n={n}: PASS\n" for n in range(11, 288, 24)
    )


def test_prec_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("CLASSINV_PREC", "90")
    code, out, err = run_cli(capsys, "pn", "--n", "11", "--format", "json")
    assert code == 0
    assert json.loads(out)["precision_digits"] == 90
    code, out, err = run_cli(capsys, "pn", "--n", "11", "--format", "json",
                             "--prec", "75")
    assert code == 0
    assert json.loads(out)["precision_digits"] == 75


def test_invalid_environment_precision(capsys, monkeypatch):
    monkeypatch.setenv("CLASSINV_PREC", "many")
    code, out, err = run_cli(capsys, "pn", "--n", "11")
    assert code == 1
    assert "invalid CLASSINV_PREC value" in err


def test_non_positive_precision_rejected(capsys, monkeypatch):
    for prec in ("0", "-5"):
        code, out, err = run_cli(capsys, "pn", "--n", "107", "--prec", prec)
        assert code == 1
        assert out == ""
        assert err == f"error: invalid --prec value: {prec} (must be at least 1 digit)\n"
    code, out, err = run_cli(capsys, "hilbert", "--disc", "-107", "--prec", "0")
    assert code == 1 and "invalid --prec value: 0" in err
    monkeypatch.setenv("CLASSINV_PREC", "0")
    code, out, err = run_cli(capsys, "pn-range", "--from", "11", "--to", "59")
    assert code == 1
    assert out == ""
    assert err == "error: invalid CLASSINV_PREC value: '0' (must be at least 1 digit)\n"


def test_selftest_reporting(capsys, monkeypatch):
    # the CLI layer formats whatever the check suite returns; the real
    # suites run, in this same configuration, in test_selftest.py
    fake = [
        CheckResult("alpha", True, "10 points"),
        CheckResult("beta", True),
    ]
    monkeypatch.setattr(selftest, "run_all", lambda: fake)
    code, out, err = run_cli(capsys, "selftest")
    assert code == 0
    assert out == "alpha: PASS (10 points)\nbeta: PASS\n"
    fake.append(CheckResult("gamma", False, "worst 0.5"))
    code, out, err = run_cli(capsys, "selftest")
    assert code == 1
    assert out.endswith("gamma: FAIL (worst 0.5)\n")


def test_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        cli.main([])


@pytest.mark.parametrize("command, usage", [
    ("pn", "usage: classinv pn [-h] --n N [--prec PREC] [--format {text,json}]\n"),
    ("pn-range", "usage: classinv pn-range [-h] --from START --to STOP [--prec PREC]\n"
                 "                         [--format {text,json}]\n"),
    ("hilbert", "usage: classinv hilbert [-h] --disc DISC [--prec PREC] "
                "[--format {text,json}]\n"),
], ids=["pn", "pn-range", "hilbert"])
def test_polynomial_commands_require_their_own_options(capsys, monkeypatch,
                                                        command, usage):
    # each command's own options come before the shared --prec and --format
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith(usage)


def run_python(*args, timeout=None):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=timeout)


def test_module_entry_point():
    done = run_python("-m", "classinv", "pn", "--n", "107")
    assert done.returncode == 0
    assert done.stdout == SMALL_TABLE_TEXT[107] + "\n"


def test_cli_import_leaves_the_suites_unloaded():
    done = run_python("-c", "import sys, classinv.cli; print("
                      "'classinv.selftest' in sys.modules, 'classinv.qseries' in sys.modules)")
    assert done.returncode == 0
    assert done.stdout == "False False\n"


@pytest.mark.parametrize("args", [("pn", "--n", "1000000000000000000019"),
                                  ("hilbert", "--disc", "-1000000000000000000019")],
                         ids=["pn", "hilbert"])
def test_a_discriminant_too_large_to_enumerate_is_refused(args):
    # enumerating |D| = 10^21 + 19 would try about 7 10^19 divisors; the
    # refusal comes first, for pn before its squarefree check of n
    done = run_python("-m", "classinv", *args, timeout=30)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == ("error: discriminant -1000000000000000000019 is too large "
                           "to enumerate: |D| is above 4 MAX_J_IM_TAU^2 = 4000000000000\n")


def test_pn_refuses_a_huge_n_before_its_squarefree_check():
    # n = 10^27 + 19 = 11 mod 24 passes the residue check; its squarefree
    # check alone, about 10^9 trial divisions, would run for hours
    n = 10 ** 27 + 19
    assert is_valid_n(n)
    start = time.monotonic()
    done = run_python("-m", "classinv", "pn", "--n", str(n), timeout=30)
    assert time.monotonic() - start < 30
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (f"error: discriminant {-n} is too large to enumerate: "
                           "|D| is above 4 MAX_J_IM_TAU^2 = 4000000000000\n")
