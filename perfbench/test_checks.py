"""Self-tests of the benchmark: each check passes the program's real output
and rejects a corrupted copy of it.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402
from mpmath import mp  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from carlson_bounds import bounds  # noqa: E402
from carlson_bounds.family import Params  # noqa: E402
from workloads import WORKLOADS, import_package, tangent_sum  # noqa: E402


def _neighbours(x: float) -> tuple[float, float]:
    """The doubles just below and just above arccos x."""
    with mp.workdps(checks.REF_DIGITS):
        ref = checks.ref_arccos(x)
        near = float(ref)
        below = near if mp.mpf(near) < ref else math.nextafter(near, -math.inf)
        above = near if mp.mpf(near) > ref else math.nextafter(near, math.inf)
    return below, above


LADDER = [0.3, -0.7, 1.0 - 5 * 2.0**-53, -1.0 + 3 * 2.0**-53, 5e-324, 0.0]


@pytest.mark.parametrize("x", LADDER)
def test_envelope_interval_one_ulp_past_arccos_is_rejected(x):
    out = bounds.best_envelope(x)
    item = ("best", x, None)
    assert checks.check_envelope(item, out) is None
    below, above = _neighbours(x)
    assert checks.check_envelope(item, dataclasses.replace(out, lower=above))
    assert checks.check_envelope(item, dataclasses.replace(out, upper=below))
    wide = SimpleNamespace(lower=out.lower, upper=out.upper, width=math.nextafter(out.width, 1.0))
    assert checks.check_envelope(item, wide)


@pytest.mark.parametrize("x", LADDER)
def test_approx_radius_one_ulp_short_is_rejected(x):
    value, radius = bounds.approx_arccos(x)
    item = ("approx", x, None)
    assert checks.check_envelope(item, (value, radius)) is None
    with mp.workdps(checks.REF_DIGITS):
        err = abs(mp.mpf(value) - checks.ref_arccos(x))
        short = float(err)
        if mp.mpf(short) >= err:
            short = math.nextafter(short, 0.0)
    assert checks.check_envelope(item, (value, short))


def test_x_equal_one_must_give_zero_interval():
    assert checks.check_envelope(("best", 1.0, None), bounds.best_envelope(1.0)) is None
    assert checks.check_envelope(("approx", 1.0, None), bounds.approx_arccos(1.0)) is None
    bad = bounds.BoundInterval(0.0, 5e-324, "exact", "exact")
    assert checks.check_envelope(("best", 1.0, None), bad)
    assert checks.check_envelope(("approx", 1.0, None), (0.0, 5e-324))


def test_one_sided_set_checks_the_side_it_has():
    fams = (bounds.thm2_maxcoef(0.5, 0.14),)
    out = bounds.best_envelope(0.4, fams)
    assert out.lower is None
    assert checks.check_envelope(("best", 0.4, "C"), out) is None
    below, _ = _neighbours(0.4)
    assert checks.check_envelope(("best", 0.4, "C"), dataclasses.replace(out, upper=below))


def test_table_rows_corrupted_by_one_ulp_are_rejected():
    grid = (0.1, 0.5, 1.0 - 2.0**-40)
    item = (grid, 30)
    rows = bounds.bound_table(grid, None, 30)
    assert checks.check_table(item, rows) is None
    below, above = _neighbours(0.5)

    def corrupt(**change):
        bad = [dict(r) for r in rows]
        bad[1].update(change)
        return bad

    assert checks.check_table(item, corrupt(lower=above))
    assert checks.check_table(item, corrupt(upper=below))
    assert checks.check_table(item, corrupt(width=math.nextafter(rows[1]["width"], 1.0)))
    ref = rows[1]["reference"]
    off = math.nextafter(math.nextafter(ref, 4.0), 4.0)
    assert checks.check_table(item, corrupt(reference=off))
    assert checks.check_table(item, rows[:2])


d = 0.39
S_STAR = tangent_sum(d)
CLASSES = [
    ((0.0, 0.0), "StrictlyDecreasing"),
    ((0.6, 0.3), "StrictlyIncreasing"),
    ((0.5, 0.14), "UniqueMax"),
    ((0.51, 0.12), "UniqueMin"),
    ((0.51375, 0.12375), "MaxThenMin"),
    (((S_STAR + 1e-10 + d) / 2, (S_STAR + 1e-10 - d) / 2), "StrictlyIncreasing"),
    (((S_STAR - 1e-10 + d) / 2, (S_STAR - 1e-10 - d) / 2), "MaxThenMin"),
]
SWAP = {
    "StrictlyDecreasing": "StrictlyIncreasing",
    "StrictlyIncreasing": "StrictlyDecreasing",
    "UniqueMax": "UniqueMin",
    "UniqueMin": "UniqueMax",
    "MaxThenMin": "StrictlyIncreasing",
}


@pytest.mark.parametrize("ab,want", CLASSES)
def test_swapped_region_class_is_rejected(ab, want):
    a, b = ab
    assert checks.expected_class(a, b) == want
    item = (a, b, "test")
    symbolic, numeric, extrema = WORKLOADS["classify"].op(import_package(), item)
    assert numeric == want
    assert checks.check_classify(item, (symbolic, numeric, extrema)) is None
    assert checks.check_classify(item, (SWAP[want], SWAP[want], extrema))
    assert checks.check_classify(item, (SWAP[want], numeric, extrema))
    assert checks.check_classify(item, ("Indeterminate", numeric, extrema)) is None
    if extrema is None:  # a = b = 0 has no envelope quadratic
        return
    skewed = dataclasses.replace(extrema, disc_quadratic=extrema.disc_quadratic * (1 + 1e-9) + 1e-9)
    assert checks.check_classify(item, (symbolic, numeric, skewed))


class _Replay:
    """A workload whose operation hands back prepared outputs in turn."""

    name = "verify"

    def __init__(self, outputs):
        self.outputs = iter(outputs)

    def op(self, ctx, item):
        return next(self.outputs)

    def stdout_bytes(self, out):
        return len(out[1])


@pytest.fixture(scope="module")
def verify_output():
    return WORKLOADS["verify"].op(import_package(), 7)


def test_verify_check_reads_the_summary(verify_output):
    assert checks.check_verify(7, verify_output) is None
    rc, text = verify_output
    assert checks.check_verify(8, verify_output)  # summary names another seed
    assert checks.check_verify(7, (2, text))
    lines = text.splitlines(keepends=True)
    assert checks.check_verify(7, (rc, "".join(lines[1:])))
    failing = json.loads(lines[0])
    failing["passed"] = False
    assert checks.check_verify(7, (rc, json.dumps(failing) + "\n" + "".join(lines[1:])))


@pytest.mark.parametrize("where", [0, 1000, -3])
def test_one_changed_stdout_byte_fails_the_repeat(verify_output, where):
    rc, text = verify_output
    pos = where % len(text)
    changed = text[:pos] + ("X" if text[pos] != "X" else "Y") + text[pos + 1 :]
    loop = run.Loop(_Replay([(rc, text), (rc, changed)]), None, [[7]])
    loop.run(1e-9)
    loop.run(1e-9)
    bad_ops, reasons = run.check_outputs(loop)
    assert bad_ops == 2 and reasons


def test_untraced_run_installs_nothing_and_uninstall_restores():
    pkg = import_package()
    from tracer import Tracer

    originals = {n: getattr(pkg.family, n) for n in ("acos_mp", "hp_context", "arccos_stable")}
    pair_mp = vars(pkg.bounds.BoundFamily)["pair_mp"]
    assert not hasattr(pkg.verifier.acos_mp, "__wrapped__")
    tracer = Tracer(pkg)
    tracer.install()
    try:
        assert pkg.family.acos_mp.__wrapped__ is originals["acos_mp"]
        assert pkg.verifier.acos_mp.__wrapped__ is originals["acos_mp"]
        assert vars(pkg.bounds.BoundFamily)["pair_mp"].__wrapped__ is pair_mp
        pkg.bounds.BoundFamily("carlson").pair_mp(mp.mpf("0.5"))
        pkg.classifier.classify_numeric(Params(0.52, 0.13))
    finally:
        tracer.uninstall()
    assert {n: getattr(pkg.family, n) for n in originals} == originals
    assert vars(pkg.bounds.BoundFamily)["pair_mp"] is pair_mp
    got = tracer.layer_metrics()
    assert got["bounds.pair_mp.calls"] == 1
    assert got["classifier.classify_numeric.calls"] == 1
    assert got["family.g_prime_eval.calls"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
