import json
import math
import random
from types import SimpleNamespace

import pytest
from mpmath import mp, mpf, workdps

from carlson_bounds.bounds import (
    B_STAR,
    DEFAULT_FAMILIES,
    ONE_SIXTH,
    BoundFamily,
    carlson,
    kernel_error,
    margin_error,
    pairs_mp,
    thm2,
    thm2_maxcoef,
    thm2_reversed,
    thm3,
)
from carlson_bounds import bounds, verifier
from carlson_bounds.classifier import RegionClass, extrema_points
from carlson_bounds.family import EvalPoint, Params, f_eval
from carlson_bounds.oracle import arccos_stable, hp_context
from carlson_bounds.verifier import (
    STRICT_MARGIN,
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

# the containment families of default_suite
SUITE_FAMILIES = (carlson(), thm2(ONE_SIXTH), thm2(0.2), thm2(0.5), thm2_reversed(B_STAR), thm3())

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


# each check with a count, and the nearest whole number outside its range
_COUNTED = {
    "containment": (lambda n: check_containment([carlson()], n, 10), 999),
    "double_inequality": (lambda n: check_double_inequality(carlson(), n, 10), 999),
    "class": (lambda n: check_class(Params(0, 0), RegionClass.STRICTLY_DECREASING, n), 255),
    "scan_pattern": (lambda n: scan_pattern(Params(0, 0), n), 1),
    "sign_chain": (lambda n: check_sign_chain(n), 999),
    "identities": (lambda n: check_identities(n), 999),
    "endpoint_depth": (lambda d: check_containment([carlson()], 1000, d), 13),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1500.5, "1500", None, -1, True, False, "outside"])
@pytest.mark.parametrize("check", list(_COUNTED))
def test_counts_must_be_whole_numbers_in_range(check, bad):
    # NaN once ran zero discriminant samples and passed; a fractional count
    # raised TypeError; True ran as an endpoint depth of 1
    call, outside = _COUNTED[check]
    with pytest.raises(ValueError, match="must be a whole number"):
        call(outside if bad == "outside" else bad)


def test_whole_float_counts_are_their_integers():
    assert check_identities(1000.0, seed=4).to_dict() == check_identities(1000, seed=4).to_dict()
    got = check_containment([carlson()], 1000.0, 4.0, seed=4)[0]
    assert got.to_dict() == check_containment([carlson()], 1000, 4, seed=4)[0].to_dict()
    assert got.samples == 1008


def test_suite_containment_pass_matches_single_checks():
    fams = (carlson(), thm2(ONE_SIXTH), thm2(0.2), thm2(0.5), thm2_reversed(B_STAR), thm3())
    suite = default_suite(seed=3)[: len(fams)]
    singles = [check_double_inequality(fam, 2000, 10, seed=3) for fam in fams]
    assert [r.to_dict() for r in suite] == [r.to_dict() for r in singles]


def _full_containment(fams, n, endpoint_depth, seed, digits=40):
    """check_containment's reports as dicts, from a plain loop over every point at digits."""
    pts = _containment_points(n, endpoint_depth, seed)
    worst = [math.inf] * len(fams)
    witnesses = [[] for _ in fams]
    with hp_context(digits):
        strict = mpf(STRICT_MARGIN)
        for x in pts:
            xm = mpf(x)
            ref = mp.acos(xm)
            for i, (lo, up) in enumerate(pairs_mp(fams, xm)):
                for side, diff in (
                    ("lower", None if lo is None else ref - lo),
                    ("upper", None if up is None else up - ref),
                ):
                    if diff is None:
                        continue
                    margin = diff / ref
                    worst[i] = min(worst[i], float(margin))
                    if margin <= strict:
                        witnesses[i].append((x, f"{side} bound violated, margin {float(margin)!r}"))
    return [
        VerificationReport(f"containment:{fam.id}", len(pts), w, not wit, wit).to_dict()
        for fam, w, wit in zip(fams, worst, witnesses)
    ]


def _screened(fams, n, endpoint_depth, seed, digits=40):
    return [r.to_dict() for r in check_containment(fams, n, endpoint_depth, seed, digits)]


@pytest.mark.parametrize("digits", [17, 40, 200])
def test_screened_containment_matches_a_full_pass(digits):
    # the float64 screen takes a handful of points to digits; the reports are
    # those of every point taken there
    for seed in range(10):
        assert _screened(SUITE_FAMILIES, 2000, 10, seed, digits) == _full_containment(
            SUITE_FAMILIES, 2000, 10, seed, digits
        ), seed


def test_screen_keeps_every_witness_of_violating_families():
    # thm2(0.1) and thm2(0.16) are past 1/6 and fail near x = 1,
    # thm2_reversed(B_STAR + 1e-3) past 2/pi - 1/2 and fails near x = 0
    fams = (thm2(0.1), thm2(0.16), thm2_reversed(B_STAR + 1e-3))
    reports = _screened(fams, 2000, 10, 3)
    assert reports == _full_containment(fams, 2000, 10, 3)
    order = {x: i for i, x in enumerate(_containment_points(2000, 10, 3))}
    for rep in reports:
        assert rep["witnesses"]
        seen = [order[x] for x, _ in rep["witnesses"]]
        assert seen == sorted(seen)


def test_families_outside_the_derived_bound_take_every_point():
    # (1+x)**1022.9 leaves thm2(1022.9)'s lower subnormal near 1, and the
    # coefficient families have no derived bound: margin_error is inf and
    # the screen keeps every point
    fams = (thm2(1022.9), thm2_maxcoef(0.5, 0.14))
    pts = _containment_points(1000, 10, 4)
    for fam in fams:
        assert margin_error(fam) == math.inf
        assert verifier._candidates((fam,), pts) == pts
    assert _screened(fams, 1000, 10, 4) == _full_containment(fams, 1000, 10, 4)


@pytest.mark.parametrize(
    "fam, patch",
    [
        # thm3's worst margin is its lower one at the ladder point 1 - 1e-10;
        # a subnormal lower bound would put that margin near 1
        (thm3(), lambda lo, up: (5e-324, up)),
        # thm2_reversed(B_STAR)'s is its upper one at the ladder point 1e-10
        (thm2_reversed(B_STAR), lambda lo, up: (lo, math.nan)),
    ],
)
def test_screen_keeps_points_whose_float64_margin_is_not_normal(fam, patch, monkeypatch):
    want = _full_containment((fam,), 1000, 10, 5)
    ladders = set(_containment_points(1000, 10, 5)[1000:])
    real = BoundFamily.pair_f64

    def pair_f64(self, x):
        pair = real(self, x)
        return patch(*pair) if x in ladders else pair

    monkeypatch.setattr(BoundFamily, "pair_f64", pair_f64)
    assert _screened((fam,), 1000, 10, 5) == want


def test_derived_error_bounds_cover_60_digit_errors():
    # the derivation's families: the suite's, the violating ones above and
    # the edges of its |b| range; at the sample edges, the endpoint ladders,
    # the ulp ladder at 1 and uniform x
    fams = (
        *SUITE_FAMILIES,
        thm2(0.1),
        thm2(0.16),
        thm2_reversed(B_STAR + 1e-3),
        thm2(16.0),
        thm2(-16.0),
        thm2_reversed(16.0),
        thm2_reversed(-16.0),
    )
    rng = random.Random(17)
    xs = (
        [1e-12, 1.0 - 1e-12]
        + [10.0**-k for k in range(1, 13)]
        + [1.0 - 10.0**-k for k in range(1, 13)]
        + [1.0 - k * 2.0**-53 for k in range(1, 200)]
        + [rng.random() for _ in range(500)]
    )
    refs = [arccos_stable(x) for x in xs]
    misses = []
    with workdps(60):
        exact = [mp.acos(mpf(x)) for x in xs]
        for fam in fams:
            bound, kernel = margin_error(fam), kernel_error(fam)
            assert bound < math.inf
            for x, ref, margins in zip(xs, exact, verifier._margins64(fam, xs, refs)):
                for f64, want, k, m64, sign in zip(fam.pair_f64(x), fam.pair_mp(mpf(x)), kernel, margins, (-1, 1)):
                    if abs(f64 - want) > k * want:
                        misses.append((fam.id, x, "kernel"))
                    if abs(m64 - sign * (want - ref) / ref) > bound * (1 + abs(m64)):
                        misses.append((fam.id, x, "margin"))
    assert not misses, (len(misses), misses[:5])
    for fam in (thm2(16.5), thm2_reversed(-17.0), thm2(1022.9), thm2_maxcoef(0.5, 0.14)):
        assert margin_error(fam) == math.inf
    # the envelope's outward nudge covers the default families' derived
    # kernel bounds, and the one rounding of the nudge itself
    for fam in DEFAULT_FAMILIES:
        assert max(kernel_error(fam)) + 2.0**-53 <= bounds._OUT


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


def test_sign_chain_names_the_first_point_of_a_failing_margin(monkeypatch):
    # h read as negative from x = 1/2 on: h > 0 fails there first
    from carlson_bounds import family

    real = family.chain_eval

    def bad_h(which, pt):
        v = real(which, pt)
        return -v if which == "h" and pt.digits is None and pt.x >= 0.5 else v

    monkeypatch.setattr(family, "chain_eval", bad_h)
    rep = check_sign_chain(1000)
    assert not rep.passed and rep.worst_margin < 0
    xs = [(1.0 - 1e-8) * i / 999 for i in range(1000)]
    first = min(x for x in xs if x >= 0.5)
    assert rep.witnesses[0][0] == first
    assert rep.witnesses[0][1].startswith("h>0 margin -")


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


def test_sharpness_thm3_constants_witness_a_rising_f(monkeypatch):
    # F read as rising on the float64 grid fails the monotone decrease,
    # while both endpoint constants still match
    from carlson_bounds import family

    real = family.big_f_eval
    monkeypatch.setattr(family, "big_f_eval", lambda pt: real(pt) + (20 * pt.x if pt.digits is None else 0))
    rep = check_sharpness("thm3_constants", 1e-6)
    assert not rep.passed and rep.worst_margin < 0
    assert rep.witnesses[-1] == (0.0, "monotone decrease failed")
    assert len(rep.witnesses) == 3


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


class _ScriptedRandom:
    """random.Random stand-in whose uniform draws come from a list, then from Random(0)."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.rest = random.Random(0)

    def uniform(self, lo, hi):
        return self.draws.pop(0) if self.draws else self.rest.uniform(lo, hi)


def test_identities_skip_a_near_b_and_witness_differing_discriminants(monkeypatch):
    # (0.3, 0.3 + 1e-7) has a = b to 1e-6 and is drawn, not counted; the
    # next 1000 pairs are, and the discriminant forms differ at the second
    # of them, (0.4, -0.2), as a patched quadratic form makes them
    seen = []
    real = verifier._disc_quadratic

    def patched(p):
        seen.append((p.a, p.b))
        return real(p) + (1.0 if (p.a, p.b) == (0.4, -0.2) else 0.0)

    monkeypatch.setattr(verifier, "_disc_quadratic", patched)
    scripted = _ScriptedRandom([0.3, 0.3 + 1e-7, 0.1, 0.7, 0.4, -0.2])
    monkeypatch.setattr(verifier, "random", SimpleNamespace(Random=lambda seed: scripted))
    rep = check_identities(1000, seed=0)
    assert len(seen) == 1000 and seen[:2] == [(0.1, 0.7), (0.4, -0.2)]
    assert not rep.passed and rep.worst_margin < 0
    assert rep.witnesses == [([0.4, -0.2], "discriminant forms differ by 1.0")]


@pytest.mark.parametrize("digits", [17, 40, 200])
def test_identities_pass_as_one_loop_per_comparison_at_each_precision(digits):
    # the families' mpmath kernels are rebuilt at each working precision
    got = check_identities(1000, seed=4, digits=digits)
    assert got.passed
    assert got.to_dict() == _identities_reference(1000, 4, digits).to_dict()


def test_identities_match_one_loop_per_comparison(monkeypatch):
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


def test_suite_does_not_depend_on_the_callers_precision():
    # every check works at its own digits: the endpoint ladders are
    # doubles, not mpf values rounded at whatever precision the caller set
    want = [r.to_json() for r in default_suite(seed=7)]
    for dps in (30, 100):
        with workdps(dps):
            assert [r.to_json() for r in default_suite(seed=7)] == want, dps


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
