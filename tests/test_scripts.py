import ast
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    env.pop("CARLSON_PRECISION", None)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_region_map_small_grid():
    proc = run_script("region_map.py", "--n", "11")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["a", "b", "symbolic", "numeric", "agree"]
    body = rows[1:]
    assert len(body) == 121
    for a, b, symbolic, numeric, agree in body:
        assert agree == str(symbolic == numeric)
        # the closed forms leave some cells Indeterminate; every class they
        # do give must be the numeric one
        if symbolic != "Indeterminate":
            assert agree == "True", (a, b, symbolic, numeric)


def test_region_map_rejects_grid_below_two():
    proc = run_script("region_map.py", "--n", "1")
    assert proc.returncode == 2
    assert "--n must be at least 2" in proc.stderr


def test_region_map_reads_a_negative_bound_with_an_exponent():
    # "--lo -1e-3" is a number, as "--lo=-1e-3" is, not a missing argument
    spaced = run_script("region_map.py", "--n", "2", "--lo", "-1e-3")
    joined = run_script("region_map.py", "--n", "2", "--lo=-1e-3")
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout
    assert spaced.stdout.splitlines()[1].startswith("-0.001,-0.001,")


def test_width_profile_envelope_is_the_tightest():
    proc = run_script("width_profile.py", "--points", "50")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == [
        "x",
        "width[carlson]",
        "width[thm2(0.16666666666666666)]",
        "width[thm2_reversed(0.13661977236758138)]",
        "width[thm3]",
        "width[envelope]",
        "lower_family",
        "upper_family",
    ]
    body = rows[1:]
    assert len(body) == 50
    for row in body:
        family_widths = [float(w) for w in row[1:5]]
        envelope = float(row[5])
        # the envelope intersects the families' intervals
        assert 0.0 < envelope <= min(family_widths), row


def test_zero_guess_fit_reproduces_the_committed_coefficients():
    # the fit of the zero of g' is derived from theta alone, so it prints
    # classifier._GUESS_Q bit for bit; its worst error over 2000 theta is
    # under the 4.1e-11 that _zero_guess states
    from carlson_bounds import classifier

    proc = run_script("zero_guess_fit.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1] == "_GUESS_Q = (", lines
    coeffs = ast.literal_eval("(" + "".join(lines[2:-1]))
    assert [c.hex() for c in coeffs] == [c.hex() for c in classifier._GUESS_Q]
    label, worst, *rest = lines[-1].split()
    assert label == "worst" and rest == ["over", "2000", "theta"], lines[-1]
    assert float(worst) < 4.1e-11, worst
