import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from carlson_bounds.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main

PKG_ENV = {**os.environ}
PKG_ENV.pop("CARLSON_PRECISION", None)


def run_cli(*args, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "carlson_bounds", *args],
        capture_output=True,
        env=env or PKG_ENV,
    )
    return proc


def run_main(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# classify


def test_classify_increasing(capsys):
    code, out = run_main(capsys, "classify", "--a", "0.5", "--b", "0.1667")
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["symbolic_class"] == "StrictlyIncreasing"
    assert data["numeric_class"] == "StrictlyIncreasing"
    assert data["necessary_increasing"] is True


def test_classify_trivial_decreasing(capsys):
    code, out = run_main(capsys, "classify", "--a", "0", "--b", "0")
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["symbolic_class"] == "StrictlyDecreasing"
    assert data["extrema"] is None  # fully degenerate quadratic at (0,0)


def test_classify_unique_max_with_extrema(capsys):
    code, out = run_main(capsys, "classify", "--a", "0.5", "--b", "0.14")
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["symbolic_class"] == "UniqueMax"
    assert data["extrema"]["x1"] == pytest.approx(0.3827, abs=1e-4)
    assert data["extrema"]["max_coeff"] is not None


def test_classify_near_two_over_pi_agrees(capsys):
    # a+b rounds onto the double nearest 2/pi, yet the exact a+b lies
    # 3.9e-17 above 2/pi: g(0) > 0 = g(1-), a unique max.  Both classes read
    # the same exact signs, so a float64 comparison with 2/pi cannot flip it
    code, out = run_main(capsys, "classify", "--a", "0.5", "--b", "0.13661977236758138")
    data = json.loads(out)
    assert data["symbolic_class"] == "UniqueMax"
    assert data["numeric_class"] == "UniqueMax"
    assert code == EXIT_OK


def test_classify_conflict_exits_2(capsys, monkeypatch):
    # a determinate symbolic class that contradicts the numeric one is
    # reported through the exit code
    from carlson_bounds import classifier

    monkeypatch.setattr(classifier, "classify_numeric", lambda p, tol: classifier.RegionClass.UNIQUE_MIN)
    code, out = run_main(capsys, "classify", "--a", "0.5", "--b", "0.14")
    data = json.loads(out)
    assert data["symbolic_class"] == "UniqueMax"
    assert data["numeric_class"] == "UniqueMin"
    assert code == EXIT_VERIFY


def test_classify_missing_argument_exits_64():
    proc = run_cli("classify", "--a", "0.5")
    assert proc.returncode == EXIT_USAGE
    assert b"usage" in proc.stderr.lower()


# ---------------------------------------------------------------------------
# bounds / approx / extrema


def test_bounds_contains_reference(capsys):
    code, out = run_main(capsys, "bounds", "--x", "0.5")
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["lower"] < math.pi / 3 < data["upper"]
    assert data["lower_family"]


def test_bounds_family_selection(capsys):
    code, out = run_main(capsys, "bounds", "--x", "0.5", "--families", "carlson")
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["lower_family"] == "carlson" and data["upper_family"] == "carlson"


def test_bounds_multiple_families(capsys):
    code, out = run_main(capsys, "bounds", "--x", "0.5", "--families", "carlson;thm2(0.2)")
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["lower_family"] in ("carlson", "thm2(0.2)")
    assert data["lower"] < math.acos(0.5) < data["upper"]


def test_bounds_one_sided_family_at_negative_x(capsys):
    code, out = run_main(capsys, "bounds", "--x", "-0.5", "--families", "thm2_maxcoef(0.5,0.14)")
    assert code == EXIT_OK
    assert '"upper": null' in out
    data = json.loads(out)
    assert data["lower"] < 2 * math.pi / 3
    assert data["lower_family"] == "thm2_maxcoef(0.5,0.14)" and data["upper_family"] is None


def test_bounds_bad_family_exits_64(capsys):
    assert main(["bounds", "--x", "0.5", "--families", "bogus(1)"]) == EXIT_USAGE
    capsys.readouterr()


def test_bounds_family_without_its_parameter_exits_64(capsys):
    assert main(["bounds", "--x", "0.5", "--families", "thm2"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_bounds_degenerate_coefficient_family_exits_64(capsys):
    assert main(["bounds", "--x", "0.5", "--families", "thm2_maxcoef(0,0)"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "outside its validity region" in captured.err


@pytest.mark.parametrize(
    "text", ["thm2(inf)", "thm2(nan)", "thm2_reversed(-inf)", "thm2(2000)", "thm2_reversed(-2000)"]
)
def test_bounds_non_finite_or_huge_b_exits_64(capsys, text):
    assert main(["bounds", "--x", "0.5", "--families", text]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "b must be finite" in captured.err


def test_approx_at_known_point(capsys):
    code, out = run_main(capsys, "approx", "--x", "0.5")
    data = json.loads(out)
    assert code == EXIT_OK
    assert abs(data["value"] - math.pi / 3) <= data["radius"]


def test_extrema_report(capsys):
    code, out = run_main(capsys, "extrema", "--a", "0.5", "--b", "0.14")
    data = json.loads(out)
    assert code == EXIT_OK
    assert data["disc_closed"] == pytest.approx(0.0064, abs=1e-15)
    assert data["min_coeff"] is None


def test_extrema_degenerate_exits_64(capsys):
    assert main(["extrema", "--a", "0", "--b", "0"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("text", ["-1e-5", "-3.935735335036498e-17", "-.5", "-0.1", "-2E-300"])
def test_bounds_and_approx_take_negative_numbers_in_every_form(text, capsys):
    # argparse's own negative-number pattern has no exponent and would take
    # "-1e-5" for an option: "expected one argument", exit 64
    for command in ("bounds", "approx"):
        code, out = run_main(capsys, command, "--x", text)
        assert code == EXIT_OK, (command, text)
        assert json.loads(out)["x"] == float(text)


def test_classify_takes_a_negative_exponent_parameter(capsys):
    # the pair of ROADMAP item 4, whose g(0) is about -4.0e-33; the class it
    # prints is not asserted here, as making that sign exact will change it
    code, out = run_main(capsys, "classify", "--a", "0.6366197723675814",
                         "--b", "-3.935735335036498e-17")
    assert code == EXIT_OK
    data = json.loads(out)
    assert (data["a"], data["b"]) == (0.6366197723675814, -3.935735335036498e-17)
    code, out = run_main(capsys, "classify", "--a", "-1e-3", "--b", "-2E-2", "--tol", "1e-6")
    assert code == EXIT_OK
    assert (json.loads(out)["a"], json.loads(out)["b"]) == (-1e-3, -2e-2)


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which RFC 8259 lacks."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "a, b",
    [("1.0199534000186689e+141", "3.4077169313384956e+61"), ("1e200", "1e200"), ("5.3023e-319", "5.3023e-319")],
)
def test_extrema_and_classify_print_only_json_beyond_float64(a, b, capsys):
    # the extrema of these (a, b) overflow float64: extrema refuses them
    # with exit 64, and classify reports "extrema": null
    assert main(["extrema", "--a", a, "--b", b]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "float64 range" in captured.err
    code, out = run_main(capsys, "classify", "--a", a, "--b", b)
    assert code == EXIT_OK
    data = _strict_json(out)
    assert data["extrema"] is None
    code, out = run_main(capsys, "extrema", "--a", "0.5", "--b", "0.14")
    assert code == EXIT_OK and _strict_json(out)["x1"] is not None


# ---------------------------------------------------------------------------
# table


def test_table_csv_header_and_rows(capsys):
    code, out = run_main(capsys, "table", "--grid", "9", "--families", "carlson", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "x,lower,upper,reference,width,lower_family,upper_family"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.1, rel=1e-12)  # 1/(grid+1)


def test_table_json_length_and_positive_widths(capsys):
    code, out = run_main(capsys, "table", "--grid", "5", "--format", "json")
    data = json.loads(out)
    assert code == EXIT_OK
    assert len(data) == 5
    assert all(row["width"] > 0 for row in data)


def test_table_widths_all_positive_dense(capsys):
    code, out = run_main(capsys, "table", "--grid", "100", "--format", "json")
    data = json.loads(out)
    assert code == EXIT_OK
    assert len(data) == 100
    assert all(row["width"] > 0 for row in data)


def test_table_grid_too_small_exits_64(capsys):
    assert main(["table", "--grid", "1"]) == EXIT_USAGE
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_is_deterministic():
    first = run_cli("verify", "--seed", "7")
    second = run_cli("verify", "--seed", "7")
    assert first.returncode == EXIT_OK
    assert first.stdout == second.stdout
    lines = first.stdout.decode().strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["suite_passed"] is True
    assert summary["checks"] == len(lines) - 1
    for line in lines[:-1]:
        rep = json.loads(line)
        assert set(rep) == {"check_id", "samples", "worst_margin", "passed", "witnesses"}


# the suite's stdout, pinned byte for byte: a change to these files changes
# the verify contract and must be argued in CHANGES.md
@pytest.mark.parametrize(
    "args, golden",
    [
        (("--seed", "0"), "verify_seed0.json"),
        (("--seed", "7"), "verify_seed7.json"),
        (("--seed", "7", "--format", "csv"), "verify_seed7.csv"),
        (("--seed", "7", "--precision", "17"), "verify_seed7_precision17.json"),
        (("--seed", "7", "--precision", "120"), "verify_seed7_precision120.json"),
        (("--seed", "7", "--precision", "200"), "verify_seed7_precision200.json"),
    ],
)
def test_verify_stdout_matches_golden_file(args, golden):
    proc = run_cli("verify", *args)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == (Path(__file__).parent / "data" / golden).read_bytes()


def test_verify_csv_format(capsys):
    code, out = run_main(capsys, "verify", "--format", "csv")
    lines = out.strip().splitlines()
    assert code == EXIT_OK
    assert lines[0] == "check_id,samples,worst_margin,passed,witnesses"


@pytest.mark.parametrize("digits", ["5", "16", "201"])
def test_verify_precision_out_of_range_exits_64(capsys, digits):
    code, out = run_main(capsys, "verify", "--precision", digits)
    assert code == EXIT_USAGE
    assert out == ""


def test_verify_precision_at_lower_limit_passes(capsys):
    code, out = run_main(capsys, "verify", "--precision", "17")
    assert code == EXIT_OK
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["suite_passed"] is True
    assert summary["precision"] == 17


def test_precision_env_malformed_names_the_variable():
    env = {**PKG_ENV, "CARLSON_PRECISION": "abc"}
    proc = run_cli("table", "--grid", "2", env=env)
    assert proc.returncode == EXIT_USAGE
    assert b"CARLSON_PRECISION" in proc.stderr
    assert b"'abc'" in proc.stderr


def test_precision_env_override_rejected_when_out_of_range():
    # the table command consumes the oracle default, so a bad override
    # surfaces as a usage error there
    env = {**PKG_ENV, "CARLSON_PRECISION": "10"}
    proc = run_cli("table", "--grid", "3", env=env)
    assert proc.returncode == EXIT_USAGE
    assert b"CARLSON_PRECISION" in proc.stderr
    assert b"precision must be in [17, 200]" in proc.stderr


def test_precision_env_override_accepted():
    env = {**PKG_ENV, "CARLSON_PRECISION": "30"}
    proc = run_cli("bounds", "--x", "0.25", env=env)
    assert proc.returncode == EXIT_OK


def test_unknown_command_exits_64():
    proc = run_cli("frobnicate")
    assert proc.returncode == EXIT_USAGE


def test_exit_codes_are_limited_to_contract():
    assert {EXIT_OK, EXIT_VERIFY, EXIT_USAGE} == {0, 2, 64}
