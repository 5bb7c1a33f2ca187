import json
import math
import random

import pytest
from mpmath import mpf

from carlson_bounds.bounds import B_STAR, ONE_SIXTH, BoundFamily, carlson, thm2, thm2_reversed, thm3
from carlson_bounds import verifier
from carlson_bounds.classifier import RegionClass, extrema_points
from carlson_bounds.family import EvalPoint, Params, f_eval
from carlson_bounds.oracle import hp_context
from carlson_bounds.verifier import (
    VerificationReport,
    _containment_points,
    check_class,
    check_containment,
    check_double_inequality,
    check_identities,
    check_sharpness,
    check_sign_chain,
    default_suite,
    scan_pattern,
    suite_passed,
)

# the five class checks of default_suite
SUITE_CLASSES = [
    (Params(0.0, 0.0), RegionClass.STRICTLY_DECREASING, 1024),
    (Params(0.6, 0.3), RegionClass.STRICTLY_INCREASING, 1024),
    (Params(0.5, 0.14), RegionClass.UNIQUE_MAX, 2048),
    (Params(0.51, 0.12), RegionClass.UNIQUE_MIN, 2048),
    (Params(0.51375, 0.12375), RegionClass.MAX_THEN_MIN, 4096),
]


# ---------------------------------------------------------------------------
# containment checks


def test_carlson_containment_passes():
    rep = check_double_inequality(carlson(), 2000, 10, seed=3)
    assert rep.passed
    assert rep.worst_margin > 0
    assert rep.witnesses == []
    assert rep.samples == 2020


def test_thm3_containment_passes():
    assert check_double_inequality(thm3(), 2000, 10, seed=3).passed


def test_invalid_b_produces_violation_witnesses():
    rep = check_double_inequality(thm2(0.16), 2000, 10, seed=3)
    assert not rep.passed
    assert rep.witnesses
    x, detail = rep.witnesses[0]
    assert 0 < x < 1
    assert "upper" in detail


def test_containment_sample_size_validation():
    with pytest.raises(ValueError):
        check_double_inequality(carlson(), 999, 10)


def test_suite_containment_pass_matches_single_checks():
    fams = (carlson(), thm2(ONE_SIXTH), thm2(0.2), thm2(0.5), thm2_reversed(B_STAR), thm3())
    suite = default_suite(seed=3)[: len(fams)]
    singles = [check_double_inequality(fam, 2000, 10, seed=3) for fam in fams]
    assert [r.to_dict() for r in suite] == [r.to_dict() for r in singles]


def test_containment_pass_keeps_witnesses_per_family():
    # thm2(0.1) is past its sharp threshold 1/6 and fails near x = 1; its
    # witnesses stay in its own report, in point order
    fams = (carlson(), thm2(0.1), thm3())
    reports = check_containment(fams, 1000, 10, seed=5)
    assert [r.to_dict() for r in reports] == [
        check_double_inequality(fam, 1000, 10, seed=5).to_dict() for fam in fams
    ]
    good_c, bad, good_t = reports
    assert good_c.passed and good_c.witnesses == []
    assert good_t.passed and good_t.witnesses == []
    assert not bad.passed and bad.witnesses
    order = {float(x): i for i, x in enumerate(_containment_points(1000, 10, 5))}
    seen = [order[x] for x, _ in bad.witnesses]
    assert seen == sorted(seen)
    with pytest.raises(ValueError):
        check_containment((carlson(), BoundFamily("bogus")), 1000, 10)
    with pytest.raises(ValueError):
        check_containment(fams, 999, 10)


# ---------------------------------------------------------------------------
# class checks


def test_class_check_trivial_decreasing():
    rep = check_class(Params(0, 0), RegionClass.STRICTLY_DECREASING, 512)
    assert rep.passed


def test_class_check_unique_max_with_witness():
    rep = check_class(Params(0.5, 0.14), RegionClass.UNIQUE_MAX, 2048)
    assert rep.passed
    x, what = rep.witnesses[0]
    assert "argmax" in what
    # f's maximum sits where g crosses zero, near x = 0.08 for these params
    assert 0.05 < x < 0.12


def test_class_check_max_then_min_needs_true_region():
    # the closed-form condition holds at (0.52, 0.135)'s neighbor (0.52, 0.13)
    # yet min g > 0 there; at (0.52, 0.135) the condition itself fails.
    # either way no max-then-min pattern exists and the check must say so.
    rep = check_class(Params(0.52, 0.135), RegionClass.MAX_THEN_MIN, 4096)
    assert not rep.passed
    rep = check_class(Params(0.52, 0.13), RegionClass.MAX_THEN_MIN, 4096)
    assert not rep.passed
    # a point genuinely inside the max-then-min strip passes
    rep = check_class(Params(0.51375, 0.12375), RegionClass.MAX_THEN_MIN, 4096)
    assert rep.passed


@pytest.mark.parametrize("p, expected, n", SUITE_CLASSES)
def test_scan_values_are_the_family_formula(p, expected, n):
    _, xs, fs = scan_pattern(p, n)
    assert isinstance(xs, tuple) and isinstance(fs, tuple)
    assert xs == tuple(i / (n + 1.0) for i in range(1, n + 1))
    # positive finite floats: == is bitwise identity
    assert fs == tuple(f_eval(p, EvalPoint(x)) for x in xs)


@pytest.mark.parametrize("p, expected, n", SUITE_CLASSES)
def test_class_worst_margin_matches_high_precision_step(p, expected, n):
    rep = check_class(p, expected, n)
    assert rep.passed
    _, xs, fs = scan_pattern(p, n)
    steps = [abs(f2 - f1) / max(f1, f2) for f1, f2 in zip(fs, fs[1:])]
    i = steps.index(rep.worst_margin)
    f1, f2 = (f_eval(p, EvalPoint(x, digits=50)) for x in xs[i : i + 2])
    with hp_context(50):
        exact = abs(f2 - f1) / max(f1, f2)
        assert abs(rep.worst_margin - exact) / exact < mpf("1e-3")
    assert math.isfinite(rep.worst_margin) and rep.worst_margin > 0


def test_scan_survives_float64_overflow_and_underflow():
    # (1-x)**-200 overflows near x = 1 and (1-x)**300 underflows there; those
    # steps have no float64 relative size and are decided at high precision
    pattern, _, fs = scan_pattern(Params(200.0, 0.0), 1024)
    assert pattern == (1,) and math.inf in fs
    pattern, _, fs = scan_pattern(Params(-300.0, 0.0), 1024)
    assert pattern == (-1,) and 0.0 in fs


def test_class_check_validation():
    with pytest.raises(ValueError):
        check_class(Params(0, 0), RegionClass.STRICTLY_DECREASING, 128)
    with pytest.raises(ValueError):
        check_class(Params(0, 0), RegionClass.INDETERMINATE, 512)


# ---------------------------------------------------------------------------
# sign chain


def test_sign_chain_passes():
    rep = check_sign_chain(1000)
    assert rep.passed
    assert rep.worst_margin > 0
    assert rep.samples == 1000


def test_sign_chain_validation():
    with pytest.raises(ValueError):
        check_sign_chain(100)


# ---------------------------------------------------------------------------
# sharpness


def test_sharpness_upper_threshold():
    rep = check_sharpness("b_upper_1_6", 1e-3)
    assert rep.passed
    x, _ = rep.witnesses[0]
    assert x >= 1 - 1e-2  # violation appears near x = 1


def test_sharpness_lower_threshold():
    rep = check_sharpness("b_lower_2pi", 1e-3)
    assert rep.passed
    x, _ = rep.witnesses[0]
    assert x <= 1e-2  # violation appears near x = 0


def test_sharpness_thm3_constants():
    rep = check_sharpness("thm3_constants", 1e-6)
    assert rep.passed
    assert rep.worst_margin > 0


def test_sharpness_validation():
    with pytest.raises(ValueError):
        check_sharpness("nope", 1e-3)
    with pytest.raises(ValueError):
        check_sharpness("b_upper_1_6", 0.5)


# ---------------------------------------------------------------------------
# identities


def test_identities_pass():
    rep = check_identities(2000, seed=5)
    assert rep.passed
    assert rep.worst_margin > 0
    assert rep.witnesses == []


def _identities_reference(n, seed, digits=40):
    """check_identities as one loop per comparison, each over its own points."""
    rng = random.Random(seed)
    margins = []
    witnesses = []
    disc_worst = math.inf
    count = 0
    while count < n:
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-1.0, 1.0)
        if abs(a - b) < 1e-6:
            continue
        count += 1
        rep = extrema_points(Params(a, b))
        allowance = 1e-10 * max(1.0, abs(rep.disc_closed))
        margin = allowance - abs(rep.disc_closed - rep.disc_quadratic)
        disc_worst = min(disc_worst, margin)
        if margin <= 0.0:
            gap = abs(rep.disc_closed - rep.disc_quadratic)
            witnesses.append(([a, b], f"discriminant forms differ by {gap!r}"))
    margins.append(disc_worst)
    grid_d = [i / 200 for i in range(1, 200)]
    with hp_context(digits):
        eq_pts = [mpf(i) / 1000 for i in range(1, 1000)]
        for side, fa, fb, relation in verifier._comparisons():
            i = 0 if side == "lower" else 1
            if relation in ("equal", "first_tighter"):
                worst = math.inf
                for xm in eq_pts if relation == "equal" else eq_pts[::5]:
                    va, vb = fa.pair_mp(xm)[i], fb.pair_mp(xm)[i]
                    if relation == "equal":
                        margin = 1e-12 - float(abs(va - vb) / va)
                        text = f"{side}:{fa.id} vs {fb.id} not coincident"
                    else:
                        margin = float((va - vb) / va)
                        text = f"{side}:{fa.id} fails to dominate {fb.id}"
                    worst = min(worst, margin)
                    if margin <= 0.0:
                        witnesses.append((float(xm), text))
                        break
                margins.append(worst)
                continue
            a_pt = b_pt = None
            for x in grid_d:
                xm = mpf(x)
                va, vb = fa.pair_mp(xm)[i], fb.pair_mp(xm)[i]
                tighter_a = va > vb if side == "lower" else va < vb
                sep = float(abs(va - vb) / va)
                if sep < 1e-14:
                    continue
                if tighter_a and a_pt is None:
                    a_pt = (x, sep)
                if not tighter_a and b_pt is None:
                    b_pt = (x, sep)
                if a_pt and b_pt:
                    break
            if a_pt is None or b_pt is None:
                witnesses.append(([0.0, 0.0], f"{side}:{fa.id} vs {fb.id}: no two-way witnesses found"))
                margins.append(-1.0)
            else:
                margins.append(min(a_pt[1], b_pt[1]))
    return VerificationReport("identities", n + 999 + len(grid_d), min(margins), not witnesses, witnesses)


def test_identities_match_one_loop_per_comparison(monkeypatch):
    assert check_identities(1000, seed=4).to_dict() == _identities_reference(1000, 4).to_dict()
    c, t2, tr, t3 = carlson(), thm2(ONE_SIXTH), thm2_reversed(B_STAR), thm3()
    # failing relations (coincidence, dominance either way, a coincident
    # pair called two-way), some at the first point and some further on,
    # mixed with passing ones and families outside the four
    relations = [
        ("lower", t2, thm2(ONE_SIXTH + 1e-10), "equal"),
        ("lower", t2, c, "first_tighter"),
        ("lower", c, t2, "equal"),
        ("lower", c, t3, "equal"),
        ("upper", t3, c, "first_tighter"),
        ("lower", c, tr, "first_tighter"),
        ("lower", c, t2, "first_tighter"),
        ("upper", c, t2, "two_way"),
        ("upper", t2, t3, "two_way"),
        ("upper", thm2(0.2), c, "two_way"),
        ("lower", tr, thm2(0.2), "equal"),
    ]
    monkeypatch.setattr(verifier, "_comparisons", lambda: relations)
    got = check_identities(1000, seed=4)
    assert not got.passed
    assert len(got.witnesses) >= 4
    assert got.to_dict() == _identities_reference(1000, 4).to_dict()


# ---------------------------------------------------------------------------
# reports and determinism


def test_report_serialization_schema():
    rep = check_double_inequality(carlson(), 1000, 5, seed=1)
    data = json.loads(rep.to_json())
    assert list(data) == ["check_id", "samples", "worst_margin", "passed", "witnesses"]
    assert data["check_id"] == "containment:carlson"
    assert isinstance(data["worst_margin"], float)


def test_checks_are_deterministic_per_seed():
    a = check_double_inequality(thm2(0.2), 1000, 8, seed=7).to_dict()
    b = check_double_inequality(thm2(0.2), 1000, 8, seed=7).to_dict()
    assert a == b
    c = check_identities(1000, seed=9).to_dict()
    d = check_identities(1000, seed=9).to_dict()
    assert c == d


class _NoWork:
    """Stands in for every module and helper the checks compute with."""

    def __getattr__(self, name):
        raise AssertionError(f"work started before the digits were checked ({name})")

    def __call__(self, *args, **kwargs):
        raise AssertionError("work started before the digits were checked")


_CHECKS = {
    "double_inequality": lambda d: check_double_inequality(carlson(), 1000, 10, digits=d),
    "containment": lambda d: check_containment([carlson(), thm3()], 1000, 10, digits=d),
    "scan_pattern": lambda d: scan_pattern(Params(0.5, 0.14), 256, d),
    "class": lambda d: check_class(Params(0.5, 0.14), RegionClass.UNIQUE_MAX, 2048, d),
    "sign_chain": lambda d: check_sign_chain(1000, d),
    "sharpness": lambda d: check_sharpness("b_upper_1_6", 1e-3, d),
    "identities": lambda d: check_identities(1000, digits=d),
}


@pytest.mark.parametrize("digits", [-1, 5, 16, 201])
@pytest.mark.parametrize("check", list(_CHECKS))
def test_checks_reject_digits_outside_the_oracle_range(check, digits, monkeypatch):
    # at 5 digits a containment check reports false violations of a valid
    # inequality, so each check raises before it computes anything
    # (default_suite has its own test below)
    call = _CHECKS[check]
    for name in ("family", "bnd", "hp_context", "random"):
        monkeypatch.setattr(verifier, name, _NoWork())
    with pytest.raises(ValueError, match="precision must be in"):
        call(digits)


def test_default_suite_rejects_out_of_range_digits():
    for digits in (5, 16, 201):
        with pytest.raises(ValueError, match="precision must be in"):
            default_suite(digits=digits)


def test_default_suite_green():
    reports = default_suite(seed=0)
    assert suite_passed(reports)
    ids = [r.check_id for r in reports]
    assert "containment:carlson" in ids
    assert "sign_chain" in ids
    assert "sharpness:b_upper_1_6" in ids
    assert "identities" in ids
    assert len(ids) == len(set(ids))
    for r in reports:
        if r.check_id.startswith("sharpness:") and "thm3" not in r.check_id:
            assert r.witnesses  # the witness is the success criterion here
        else:
            assert not [w for w in r.witnesses if "violat" in str(w[1]) and not r.passed]
