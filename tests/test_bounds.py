import csv
import io
import json
import math
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps

from carlson_bounds.bounds import (
    B_STAR,
    DEFAULT_FAMILIES,
    ONE_SIXTH,
    TABLE_COLUMNS,
    approx_arccos,
    best_envelope,
    bound_table,
    carlson,
    family_bounds,
    parse_family,
    table_to_csv,
    table_to_json,
    thm2,
    thm2_maxcoef,
    thm2_mincoef,
    thm2_reversed,
    thm3,
)
from carlson_bounds.oracle import acos_mp, arccos_stable


# ---------------------------------------------------------------------------
# family expressions and validity


def test_carlson_limit_values_straddle_half_pi():
    # limits at x -> 0: 6/(2*sqrt(2)+1) and cbrt(4)
    iv = family_bounds(carlson(), 1e-13)
    assert iv.lower == pytest.approx(6.0 / (2.0 * math.sqrt(2.0) + 1.0), rel=1e-9)
    assert iv.lower == pytest.approx(1.5672240, abs=1e-6)
    assert iv.upper == pytest.approx(4.0 ** (1 / 3), rel=1e-9)
    assert iv.lower < math.pi / 2 < iv.upper


def test_thm2_at_one_sixth_matches_expanded_form():
    # pi*sqrt(1-x)/(2*(1+x)**(1/6)) < arccos x < cbrt(4)*sqrt(1-x)/(1+x)**(1/6)
    fam = thm2(ONE_SIXTH)
    for x in (0.1, 0.5, 0.9):
        lo, up = fam.pair_f64(x)
        want_lo = math.pi * math.sqrt(1 - x) / (2.0 * (1 + x) ** (1 / 6))
        want_up = 4 ** (1 / 3) * math.sqrt(1 - x) / (1 + x) ** (1 / 6)
        assert lo == pytest.approx(want_lo, rel=1e-14)
        assert up == pytest.approx(want_up, rel=1e-14)


def test_thm2_reversed_at_b_star_matches_expanded_form():
    # 4**(1/pi)*sqrt(1-x)/(1+x)**((4-pi)/(2*pi)) < arccos x < pi*sqrt(1-x)/(2*(1+x)**((4-pi)/(2*pi)))
    fam = thm2_reversed(B_STAR)
    assert B_STAR == pytest.approx((4 - math.pi) / (2 * math.pi), rel=1e-15)
    assert math.pow(2.0, B_STAR + 0.5) == pytest.approx(4 ** (1 / math.pi), rel=1e-15)
    for x in (0.2, 0.7):
        lo, up = fam.pair_f64(x)
        e = (4 - math.pi) / (2 * math.pi)
        assert lo == pytest.approx(4 ** (1 / math.pi) * math.sqrt(1 - x) / (1 + x) ** e, rel=1e-14)
        assert up == pytest.approx(math.pi * math.sqrt(1 - x) / (2 * (1 + x) ** e), rel=1e-14)


def test_validity_predicates():
    assert carlson().is_valid and thm3().is_valid
    assert thm2(ONE_SIXTH).is_valid and thm2(0.5).is_valid
    assert not thm2(0.16).is_valid
    assert thm2_reversed(B_STAR).is_valid and thm2_reversed(0.0).is_valid
    assert not thm2_reversed(0.14).is_valid
    assert thm2_maxcoef(0.5, 0.14).is_valid
    assert not thm2_maxcoef(0.6, 0.14).is_valid  # outside the unique-max region
    assert thm2_mincoef(0.51, 0.12).is_valid
    assert not thm2_mincoef(0.5, 0.14).is_valid


def test_family_bounds_rejects_invalid_family_and_domain():
    with pytest.raises(ValueError):
        family_bounds(thm2(0.1), 0.5)
    with pytest.raises(ValueError):
        family_bounds(carlson(), 0.0)
    with pytest.raises(ValueError):
        family_bounds(carlson(), 1.0)


def test_one_sided_families():
    iv = family_bounds(thm2_maxcoef(0.5, 0.14), 0.5)
    assert iv.lower is None and iv.upper is not None
    assert iv.upper_family == "thm2_maxcoef(0.5,0.14)"
    iv = family_bounds(thm2_mincoef(0.51, 0.12), 0.5)
    assert iv.upper is None and iv.lower is not None
    assert iv.width is None


def test_parse_family_round_trip():
    for fam in (carlson(), thm3(), thm2(0.2), thm2_reversed(0.1), thm2_maxcoef(0.5, 0.14)):
        assert parse_family(fam.id) == fam
    with pytest.raises(ValueError):
        parse_family("thm9(0.3)")


def test_family_pickles_after_use():
    # families carry cached per-family kernels once used; they must still
    # travel to worker processes
    fams = (carlson(), thm2(0.2), thm2_reversed(0.1), thm3(), thm2_maxcoef(0.5, 0.14))
    for fam in fams:
        fam.pair_f64(0.5)
        copy = pickle.loads(pickle.dumps(fam))
        assert copy == fam
        assert copy.pair_f64(0.5) == fam.pair_f64(0.5)


# ---------------------------------------------------------------------------
# envelope combiner


def test_envelope_at_one_is_exact_zero():
    iv = best_envelope(1.0)
    assert iv.lower == 0.0 and iv.upper == 0.0


def test_envelope_contains_known_values():
    iv = best_envelope(0.5, (carlson(), thm2(ONE_SIXTH), thm3()))
    assert iv.lower < math.pi / 3 < iv.upper
    iv = best_envelope(-0.5)
    assert iv.lower < 2 * math.pi / 3 < iv.upper
    iv = best_envelope(0.0)
    assert iv.lower <= math.pi / 2 <= iv.upper


def test_envelope_rejects_bad_input():
    with pytest.raises(ValueError):
        best_envelope(0.5, ())
    with pytest.raises(ValueError):
        best_envelope(0.5, (thm2(0.1),))
    with pytest.raises(ValueError):
        best_envelope(-1.0)
    with pytest.raises(ValueError):
        best_envelope(1.5)


def test_envelope_never_wider_than_any_member():
    rng = random.Random(2)
    for _ in range(2000):
        x = rng.uniform(1e-6, 1 - 1e-6)
        env = best_envelope(x)
        for fam in DEFAULT_FAMILIES:
            iv = family_bounds(fam, x)
            assert env.width <= iv.width * (1 + 1e-12)
            assert env.lower >= iv.lower * (1 - 1e-12)
            assert env.upper <= iv.upper * (1 + 1e-12)


def test_envelope_reflection_consistency_two_ulp():
    rng = random.Random(4)
    for _ in range(5000):
        x = rng.uniform(1e-9, 1 - 1e-9)
        pos = best_envelope(x)
        neg = best_envelope(-x)
        for got, want in (
            (neg.lower, math.pi - pos.upper),
            (neg.upper, math.pi - pos.lower),
        ):
            assert abs(got - want) <= 2 * math.ulp(max(abs(got), abs(want)))
        assert neg.lower_family == pos.upper_family
        assert neg.upper_family == pos.lower_family


def test_envelope_reflection_of_one_sided_families():
    # reflecting x < 0 swaps the sides, so a one-sided set certifies only
    # the other side there, and only one side is there to reflect
    pi_down, pi_up = math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0)
    for fam, side in ((thm2_maxcoef(0.5, 0.14), "upper"), (thm2_mincoef(0.51, 0.12), "lower")):
        pos = best_envelope(0.5, (fam,))
        neg = best_envelope(-0.5, (fam,))
        if side == "upper":
            assert neg.lower == pi_down - pos.upper and neg.upper is None
            assert (neg.lower_family, neg.upper_family) == (fam.id, None)
            with workdps(50):
                assert mpf(neg.lower) < 2 * mp.pi / 3
        else:
            assert neg.upper == pi_up - pos.lower and neg.lower is None
            assert (neg.lower_family, neg.upper_family) == (None, fam.id)
            with workdps(50):
                assert mpf(neg.upper) > 2 * mp.pi / 3
        with pytest.raises(ValueError):
            approx_arccos(-0.5, (fam,))


def test_containment_bulk_with_endpoint_clusters():
    # strict containment for every default family at 40 digits:
    # 100k uniform interior points plus 1000 log-uniform points within
    # 1e-10 of each endpoint (not deeper than 1e-12: several bounds are
    # asymptotically sharp and their true margins decay quadratically)
    rng = random.Random(31)
    xs = [rng.uniform(1e-12, 1 - 1e-12) for _ in range(100_000)]
    deep = []
    for _ in range(1000):
        t = 10.0 ** rng.uniform(-12, -10)
        deep.append(t)
        deep.append(1.0 - t)
    worst = math.inf
    with workdps(50):
        for x in xs + deep:
            xm = mpf(x)
            ref = acos_mp(xm)
            for fam in DEFAULT_FAMILIES:
                lo, up = fam.pair_mp(xm)
                worst = min(worst, float((ref - lo) / ref), float((up - ref) / ref))
    assert worst > 1e-30  # strict with the testable margin


def test_width_decay_toward_one():
    # widths at x = 1 - 10**-k, k = 2..10, strictly decreasing (40 digits)
    for fam in (carlson(), thm2(ONE_SIXTH)):
        widths = []
        with workdps(50):
            for k in range(2, 11):
                lo, up = fam.pair_mp(1 - mpf(10) ** -k)
                widths.append(float(up - lo))
        assert all(w2 < w1 for w1, w2 in zip(widths, widths[1:]))
        assert widths[-1] > 0


def test_coefficient_bound_domination():
    # thm2_maxcoef upper dominates arccos under its validity condition,
    # thm2_mincoef lower stays below arccos under its own
    rng = random.Random(6)
    up_fam = thm2_maxcoef(0.5, 0.14)
    lo_fam = thm2_mincoef(0.51, 0.12)
    with workdps(50):
        for _ in range(2000):
            xm = mpf(rng.uniform(1e-9, 1 - 1e-9))
            ref = acos_mp(xm)
            _, up = up_fam.pair_mp(xm)
            lo, _ = lo_fam.pair_mp(xm)
            assert up > ref
            assert lo < ref


# ---------------------------------------------------------------------------
# approximation


def test_approx_trivials():
    assert approx_arccos(1.0) == (0.0, 0.0)
    v, r = approx_arccos(0.5)
    assert abs(v - math.pi / 3) <= r


def test_approx_radius_below_single_family_width():
    v, r = approx_arccos(0.9)
    iv = family_bounds(carlson(), 0.9)
    assert r < iv.width


def test_approx_randomized_containment():
    rng = random.Random(8)
    with workdps(50):
        for _ in range(20_000):
            x = 1.0 - 2.0 * rng.random()
            v, r = approx_arccos(x)
            assert abs(mpf(v) - acos_mp(mpf(x))) <= r


@given(x=st.floats(min_value=-1, max_value=1, exclude_min=True, allow_nan=False))
def test_approx_contains_float64_reference(x):
    v, r = approx_arccos(x)
    assert abs(v - arccos_stable(x)) <= r + 8 * math.ulp(math.pi)


# ---------------------------------------------------------------------------
# table


def test_bound_table_rows_and_serializations():
    rows = bound_table([0.25, 0.5, 0.75])
    assert len(rows) == 3
    for row in rows:
        assert list(row) == list(TABLE_COLUMNS)
        assert row["lower"] < row["reference"] < row["upper"]
        assert row["width"] > 0
    text = table_to_csv(rows)
    assert text.splitlines()[0] == "x,lower,upper,reference,width,lower_family,upper_family"
    parsed = list(csv.reader(io.StringIO(text)))
    assert len(parsed) == 4
    assert float(parsed[1][0]) == 0.25
    data = json.loads(table_to_json(rows))
    assert len(data) == 3
    assert set(data[0]) == set(TABLE_COLUMNS)
    # round-trip: doubles survive exactly
    assert data[1]["lower"] == rows[1]["lower"]


def test_bound_table_rejects_bad_grids():
    with pytest.raises(ValueError):
        bound_table([0.5, 0.25])
    with pytest.raises(ValueError):
        bound_table([0.0, 0.5])


def test_bound_table_width_shrinks_near_one():
    rows = bound_table([1.0 - 1e-6])
    assert rows[0]["width"] < 1e-2


def test_bound_table_single_point_single_family():
    rows = bound_table([0.5], enabled=(carlson(),))
    assert len(rows) == 1
    assert rows[0]["lower"] < rows[0]["reference"] < rows[0]["upper"]
    assert rows[0]["lower_family"] == "carlson"


def test_envelope_deep_endpoints_still_contain():
    # within one double ulp of the endpoints the nudged interval must still
    # contain the true value
    with workdps(50):
        for x in (math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), 1e-300, -1e-300):
            env = best_envelope(x)
            ref = acos_mp(mpf(x))
            assert env.lower <= ref <= env.upper
            value, radius = approx_arccos(x)
            assert abs(mpf(value) - ref) <= radius
