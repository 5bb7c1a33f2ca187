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
from mpmath.libmp import round_ceiling, round_floor, to_float

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
from carlson_bounds import bounds, classifier, family
from carlson_bounds.family import Params
from carlson_bounds.oracle import HPValue, acos_mp, arccos_hp, arccos_stable


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
    # a = b = 0 has no extrema to place, and is in neither class
    assert not thm2_maxcoef(0.0, 0.0).is_valid
    assert not thm2_mincoef(0.0, 0.0).is_valid


@pytest.mark.parametrize(
    "a, b",
    [(1e300, 1.0), (-1e300, 0.5), (1e200, 1000.0), (1e-150, 1e-150 * (1 - 2**-52)), (5.3023e-319, 5.3023e-319)],
)
def test_coefficient_validity_is_false_where_extrema_leave_float64(a, b):
    # extrema_points refuses these (a, b), but the class gate turns them
    # away first: is_valid stays a bool
    with pytest.raises(ValueError, match="float64 range"):
        classifier.extrema_points(Params(a, b))
    assert thm2_maxcoef(a, b).is_valid is False
    assert thm2_mincoef(a, b).is_valid is False


def test_coefficient_class_gate_keeps_finite_discriminants():
    # UniqueMax and UniqueMin lie in the window with a <= 1/2 < a+b or
    # a+b <= 2/pi < 1/2 < a, a bounded set: every (a, b) the class gate
    # keeps has finite discriminants, so is_valid never meets the refusal
    rng = random.Random(8259)
    kept = 0
    for _ in range(4000):
        if rng.random() < 0.5:  # around both classes
            d, s = rng.uniform(0.3, 0.45), rng.uniform(0.55, 0.7)
        else:
            d, s = (rng.choice([-1, 1]) * 10 ** rng.uniform(-300, 300) for _ in range(2))
        p = Params((s + d) / 2, (s - d) / 2)
        if classifier.classify_symbolic(p) in (classifier.RegionClass.UNIQUE_MAX, classifier.RegionClass.UNIQUE_MIN):
            kept += 1
            rep = classifier.extrema_points(p)
            assert math.isfinite(rep.disc_closed) and math.isfinite(rep.disc_quadratic), p
            assert isinstance(thm2_maxcoef(p.a, p.b).is_valid, bool)
    assert kept > 50


def test_coefficient_validity_near_two_over_pi():
    # a+b within 2 ulps of 2/pi: a float64 comparison of a+b with 2/pi
    # cannot tell UniqueMax from UniqueMin here, so is_valid must read the
    # exact sign of g(0) = a+b - 2/pi; the 50-digit regions need no solve
    # (g(0) and g(1-) = 2a-1 of opposite signs force min g < 0 in the window)
    rng = random.Random(2)
    wrong = []
    for _ in range(1000):
        a = rng.uniform(0.45, 0.55)
        with workdps(50):
            b = float(2 / mp.pi - a)
            am = mpf(a)
        for k in range(-2, 3):
            bk = b
            for _ in range(abs(k)):
                bk = math.nextafter(bk, math.copysign(math.inf, k))
            with workdps(50):
                s, d = am + bk, am - bk
                window = mpf(1) / 3 < d < 4 / mp.pi**2
                g0_pos = s > 2 / mp.pi
            if thm2_maxcoef(a, bk).is_valid and not (window and g0_pos and a <= 0.5):
                wrong.append(("thm2_maxcoef", a, bk))
            if thm2_mincoef(a, bk).is_valid and not (window and not g0_pos and a > 0.5):
                wrong.append(("thm2_mincoef", a, bk))
    assert not wrong, (len(wrong), wrong[:5])


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


def test_bad_family_parameters_raise_value_error():
    # non-finite a or b, or |b| >= 1023, where 2**(b+1/2) or (1+x)**b would
    # overflow or vanish in float64
    for bad in (math.inf, -math.inf, math.nan, 1023.0, -1023.0, 2000.0, -2000.0):
        for make in (thm2, thm2_reversed, lambda b: thm2_maxcoef(0.5, b)):
            with pytest.raises(ValueError):
                make(bad)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            thm2_mincoef(bad, 0.12)
    for text in ("thm2(inf)", "thm2_reversed(-inf)", "thm2(nan)", "thm2(2000)", "thm2_reversed(-2000)"):
        with pytest.raises(ValueError):
            parse_family(text)
    # just inside the limit every bound is finite and positive
    for fam in (thm2(1022.9), thm2_reversed(-1022.9)):
        for x in (0.0, 5e-324, 0.5, 1.0 - 2.0**-53):
            assert all(0.0 < v < math.inf for v in fam.pair_f64(x)), (fam.id, x)


def test_parse_family_round_trip():
    fams = (
        carlson(),
        thm3(),
        thm2(0.2),
        thm2_reversed(0.1),
        thm2_maxcoef(0.5, 0.14),
        thm2_mincoef(0.51, 0.12),
    )
    assert sorted(fam.kind for fam in fams) == sorted(bounds.FAMILY_KINDS)
    for fam in fams:
        assert parse_family(fam.id) == fam
    for text in (
        "thm9(0.3)",
        "carlson()",
        "thm2",
        "thm2(0.2,0.3)",
        "thm2_maxcoef(0.5)",
        "thm2()",
        "thm2( )",
        "thm2(abc)",
        "thm2_maxcoef(0.5,)",
    ):
        with pytest.raises(ValueError, match="unrecognized bound family"):
            parse_family(text)


def test_family_parameters_are_floats_and_never_bools():
    # an int parameter is kept as its float, so equal families share one id,
    # which parse_family reads back; a bool is refused, as parse_family does
    for fam, twin in (
        (thm2(1), thm2(1.0)),
        (thm2_reversed(0), thm2_reversed(0.0)),
        (thm2_maxcoef(1, 0), thm2_maxcoef(1.0, 0.0)),
        (thm2_mincoef(1, 0), thm2_mincoef(1.0, 0.0)),
    ):
        assert fam == twin and hash(fam) == hash(twin) and fam.id == twin.id
        assert parse_family(fam.id) == fam
    for make in (thm2, thm2_reversed, lambda v: thm2_maxcoef(v, 0.1), lambda v: thm2_mincoef(0.5, v)):
        for bad in (True, False):
            with pytest.raises(ValueError):
                make(bad)
    # a float parameter keeps every bit
    rng = random.Random(23)
    for b in [rng.uniform(-1022.0, 1022.0) for _ in range(100)] + [5e-324, -0.0, ONE_SIXTH]:
        assert thm2(b).b.hex() == b.hex()
        assert thm2_mincoef(b, -b).a.hex() == b.hex()


def test_bad_family_construction_raises_value_error():
    # the kind table decides, at construction, for every caller
    with pytest.raises(ValueError, match="invalid family kind 'bogus'"):
        bounds.BoundFamily("bogus")
    with pytest.raises(ValueError, match=r"thm2 takes \(b\), got a = None, b = None"):
        bounds.BoundFamily("thm2")
    with pytest.raises(ValueError, match=r"thm2_mincoef takes \(a, b\)"):
        bounds.BoundFamily("thm2_mincoef", b=0.12)
    with pytest.raises(ValueError, match=r"carlson takes \(\), got a = None, b = 0.2"):
        bounds.BoundFamily("carlson", b=0.2)
    with pytest.raises(ValueError, match=r"thm2 takes \(b\)"):
        bounds.BoundFamily("thm2", b=0.2, a=0.5)
    with pytest.raises(ValueError):
        best_envelope(0.5, [bounds.BoundFamily("bogus")])


def test_family_pickles_after_use():
    # families carry cached per-family kernels once used; they must still
    # travel to worker processes
    fams = (carlson(), thm2(0.2), thm2_reversed(0.1), thm3(), thm2_maxcoef(0.5, 0.14))
    for fam in fams:
        fam.pair_f64(0.5)
        copy = pickle.loads(pickle.dumps(fam))
        assert copy == fam
        assert copy.pair_f64(0.5) == fam.pair_f64(0.5)


def test_family_hash_is_the_field_hash_and_does_not_travel():
    # the hash is the frozen dataclass's hash of the fields: equal families
    # hash equal, and a pickle rebuilds from the fields, so it takes the hash
    # of the process that loads it (str hashes differ between processes)
    for fam in (carlson(), thm2(0.2), thm2_reversed(0.1), thm2_maxcoef(0.5, 0.14)):
        twin = bounds.BoundFamily(fam.kind, b=fam.b, a=fam.a)
        assert hash(fam) == hash(twin) == hash((fam.kind, fam.b, fam.a))
        assert {fam: 1}[twin] == 1
        data = pickle.dumps(fam)
        assert b"_hash" not in data
        assert hash(pickle.loads(data)) == hash(fam)


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


def _pair_mp_from_scratch(fam, x):
    """pair_mp with every constant recomputed at the working precision."""
    one = mpf(1)
    if fam.kind in ("carlson", "thm3"):
        base = mp.sqrt(1 - x) / (2 * mp.sqrt(2) + mp.sqrt(1 + x))
        if fam.kind == "carlson":
            return 6 * base, mp.cbrt(4) * mp.sqrt(1 - x) / (1 + x) ** (one / 6)
        return 6 * base, (one / 2 + mp.sqrt(2)) * mp.pi * base
    if fam.kind in ("thm2", "thm2_reversed"):
        b = mpf(fam.b)
        w = mp.sqrt(1 - x) / (1 + x) ** b
        lo, up = mp.pi / 2 * w, 2 ** (b + one / 2) * w
        return (lo, up) if fam.kind == "thm2" else (up, lo)
    p = Params(fam.a, fam.b)
    upper_only = fam.kind == "thm2_maxcoef"
    disc = family._envelope_disc(family._MP, p)
    root = family._envelope_roots(family._MP, p, disc)[0 if upper_only else 1]
    coef = family._envelope(family._MP, p, root)
    w = (1 - x) ** mpf(p.a) / (1 + x) ** mpf(p.b)
    return (None, coef * w) if upper_only else (coef * w, None)


def test_pair_mp_constants_follow_the_working_precision():
    # the per-family constants are kept between calls; switching precision
    # back and forth on the same instances must give, bit for bit, what the
    # expressions give from scratch at each precision
    fams = (
        carlson(),
        thm3(),
        thm2(1 / 6),
        thm2(0.2),
        thm2_reversed(B_STAR),
        thm2_maxcoef(0.5, 0.14),
        thm2_mincoef(0.51, 0.12),
    )

    def bits(v):
        return None if v is None else (v.man, v.exp)

    for digits in (17, 40, 200, 40, 17):
        with workdps(digits):
            for x in (mpf("0.3"), mpf(10) ** -7, 1 - mpf(10) ** -9, mpf(0.8125)):
                for fam in fams:
                    got = [bits(v) for v in fam.pair_mp(x)]
                    want = [bits(v) for v in _pair_mp_from_scratch(fam, x)]
                    assert got == want, (fam.id, digits, x)


def _pair_f64_power_form(fam, x):
    """pair_f64 written out with float ** for every power of 1+x."""
    onem, onep = 1.0 - x, 1.0 + x
    s1m = math.sqrt(onem)
    base = s1m / (2.0 * math.sqrt(2.0) + math.sqrt(onep))
    if fam.kind == "carlson":
        return 6 * base, bounds.CBRT4 * s1m / onep ** (1.0 / 6)
    if fam.kind == "thm3":
        return 6 * base, bounds.BEST_UPPER_THM3 * base
    if fam.kind in ("thm2", "thm2_reversed"):
        w = s1m / onep**fam.b
        lo, up = math.pi / 2 * w, 2 ** (fam.b + 0.5) * w
        return (lo, up) if fam.kind == "thm2" else (up, lo)
    upper_only = fam.kind == "thm2_maxcoef"
    w = onem**fam.a / onep**fam.b
    coef = fam._coefficient(family._F64, upper_only)
    return (None, coef * w) if upper_only else (coef * w, None)


def test_pairs_mp_gives_the_bits_of_the_power_form():
    # pairs_mp takes the shared terms once per point for every family; each
    # value must be the bits of the power form from scratch, also for the b
    # that mpf_pow sends down its integer (1, 3) or square-root (0.5, 2.5)
    # path, and pair_f64 (libm pow) the bits of float **
    fams = (
        carlson(),
        thm3(),
        thm2(1 / 6),
        thm2(0.2),
        thm2(0.5),
        thm2(1.0),
        thm2(2.5),
        thm2(3.0),
        thm2_reversed(B_STAR),
        thm2_reversed(-7.25),
        thm2_maxcoef(0.5, 0.14),
        thm2_mincoef(0.51, 0.12),
    )
    # among them points where exp(b*log(1+x)) and the integer or square-root
    # path round differently for b in (0.5, 2.5, 3) at one of the precisions
    xs = [1 - k * 2.0**-53 for k in (1, 2, 3, 7, 100, 179, 4097)]
    xs += [2.0**-k for k in (1, 2, 5, 21, 26, 30, 44, 53, 54, 59, 65, 68, 200, 1000)]
    xs += [0.0, 0.3, 0.8125]

    def bits(v):
        return None if v is None else (v.man, v.exp)

    for digits in (17, 40, 200):
        with workdps(digits):
            for x in xs:
                xm = mpf(x)
                got = [[bits(v) for v in pair] for pair in bounds.pairs_mp(fams, xm)]
                want = [[bits(v) for v in _pair_mp_from_scratch(fam, xm)] for fam in fams]
                assert got == want, (digits, x)
    for x in xs:
        for fam in fams:
            assert fam.pair_f64(x) == _pair_f64_power_form(fam, x), (fam.id, x)


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


def test_coefficient_pair_mp_linear_case_matches_pair_f64():
    # a = b makes the envelope-derivative quadratic linear, with the one
    # root a+b that extrema_points takes; pair_mp must take it too
    fam = thm2_maxcoef(0.3, 0.3)
    lo64, up64 = fam.pair_f64(0.5)
    with workdps(50):
        lo, up = fam.pair_mp(mpf("0.5"))
    assert lo is None and lo64 is None
    assert float(up) == pytest.approx(up64, rel=1e-15)
    for fam in (thm2_mincoef(0.3, 0.3), thm2_maxcoef(-0.3, -0.3), thm2_maxcoef(0.6, 0.6)):
        with pytest.raises(ValueError), workdps(50):
            fam.pair_mp(mpf("0.5"))


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


def test_bound_table_refuses_one_sided_families():
    # thm2_maxcoef bounds arccos from above only, thm2_mincoef from below only
    for fams in ((thm2_maxcoef(0.5, 0.14),), (thm2_mincoef(0.51, 0.12),)):
        with pytest.raises(ValueError, match="no two-sided interval"):
            bound_table([0.25, 0.5], enabled=fams)


# ulp ladders at 0 and at 1, and the CLI's --grid 1000 points i/1001
_REFERENCE_GRID = sorted(
    [k * 2.0**-1074 for k in range(1, 21)]
    + [1.0 - k * 2.0**-53 for k in range(1, 21)]
    + [i / 1001 for i in range(1, 1001)]
)


@pytest.mark.parametrize("digits", [17, 29, 30, 31, 40, 100, 200])
def test_bound_table_reference_is_the_oracle_at_digits(digits):
    rows = bound_table(_REFERENCE_GRID, None, digits)
    for x, row in zip(_REFERENCE_GRID, rows):
        assert row["reference"] == float(arccos_hp(x, digits).value), (x, digits)


def test_bound_table_reference_above_30_digits_needs_one_oracle_call(monkeypatch):
    seen = []

    def counting(x, digits):
        seen.append(digits)
        return arccos_hp(x, digits)

    monkeypatch.setattr(bounds, "arccos_hp", counting)
    bound_table([i / 25 for i in range(1, 25)], None, 120)
    assert seen == [30] * 24


def test_bound_table_reference_falls_back_off_a_midpoint(monkeypatch):
    # a 30-digit value on the midpoint between two doubles cannot fix the
    # double, so the oracle is asked again at the requested digits
    x, digits = 0.5, 60
    below = 1.0471975511965976
    above = math.nextafter(below, 2.0)
    with workdps(60):
        midpoint = (mpf(below) + mpf(above)) / 2
    seen = []

    def fake(x_arg, digits_arg):
        seen.append((x_arg, digits_arg))
        return HPValue(digits_arg, midpoint if digits_arg == 30 else mpf(above))

    monkeypatch.setattr(bounds, "arccos_hp", fake)
    rows = bound_table([x], None, digits)
    assert seen == [(x, 30), (x, digits)]
    assert rows[0]["reference"] == above


def test_bound_table_validates_enabled_once(monkeypatch):
    calls = []
    real = bounds._validated

    def counting(fams):
        calls.append(fams)
        return real(fams)

    monkeypatch.setattr(bounds, "_validated", counting)
    # a one-shot iterator serves every row
    rows = bound_table([0.25, 0.5, 0.75], enabled=iter((carlson(), thm3())))
    assert len(calls) == 1
    assert rows == bound_table([0.25, 0.5, 0.75], enabled=(carlson(), thm3()))


def test_bound_table_rejects_bad_families_and_digits_before_any_row(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(bounds, "_envelope", no_rows)
    monkeypatch.setattr(bounds, "arccos_hp", no_rows)
    with pytest.raises(ValueError, match="enabled family set is empty"):
        bound_table([0.25, 0.5], enabled=())
    with pytest.raises(ValueError, match=r"family thm2\(0\.1\) is outside its validity region"):
        bound_table([0.25, 0.5], enabled=(carlson(), thm2(0.1)))
    with pytest.raises(ValueError, match=r"precision must be in \[17, 200\] digits, got 500"):
        bound_table([0.25, 0.5], None, 500)


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


# ---------------------------------------------------------------------------
# float64 rounding of the kernels


# the default families and the caller-supplied sets A-D of perfbench's
# envelope workload
_KERNEL_FAMILIES = DEFAULT_FAMILIES + (
    thm2(0.2),
    thm2(0.5),
    thm2_reversed(0.1),
    thm2_maxcoef(0.5, 0.14),
    thm2_mincoef(0.51, 0.12),
)


def test_float64_kernels_within_4_eps_of_60_digits():
    # ulp ladder at 1, powers of two down to the subnormals, subnormals and
    # uniform x: the square-root/power kernels stay within about 2 eps
    rng = random.Random(12)
    xs = (
        [1.0 - k * 2.0**-53 for k in range(1, 10_001)]
        + [2.0**-k for k in range(1, 1075)]
        + [k * 2.0**-1074 for k in range(1, 100)]
        + [rng.random() for _ in range(2000)]
    )
    eps = math.ulp(1.0)
    worst = (0.0, None, None)
    with workdps(60):
        for x in xs:
            for fam, want in zip(_KERNEL_FAMILIES, bounds.pairs_mp(_KERNEL_FAMILIES, mpf(x))):
                for got, ref in zip(fam.pair_f64(x), want):
                    if got is not None:
                        worst = max(worst, (float(abs(got - ref) / ref) / eps, fam.id, x))
    assert worst[0] <= 4.0, worst


def _half_angle_arccos(x: float):
    """arccos x = 2*asin(sqrt((1-x)/2)) at the working precision, exact in form near 1."""
    return 2 * mp.asin(mp.sqrt((1 - mpf(x)) / 2))


def test_thm2_100_contains_arccos_one_ulp_below_one():
    # the upper bound is exact as x -> 1; a rounding error that grows with b
    # once put it 21.5 eps under arccos here
    x, fam = 1.0 - 2.0**-53, thm2(100.0)
    with workdps(60):
        ref = _half_angle_arccos(x)
        for iv in (family_bounds(fam, x), best_envelope(x, [fam])):
            assert iv.lower < ref < iv.upper, iv
        value, radius = approx_arccos(x, [fam])
        assert abs(value - ref) <= radius


def test_large_b_families_contain_arccos_near_the_endpoints():
    # thm2 b on a 5% geometric grid over [1/6, 1000), thm2_reversed b over
    # [-1000, B_STAR], at x = 1 - k*2**-53, 2**-k and subnormals; past
    # k = 60, 1 + 2**-k rounds to 1 and a few k stand for the rest
    grid = [ONE_SIXTH * 1.05**k for k in range(200) if ONE_SIXTH * 1.05**k < 1000.0]
    fams = [thm2(b) for b in grid]
    fams += [thm2_reversed(b) for b in (B_STAR, 0.0, *(-b for b in grid), -1000.0)]
    near_one = [1.0 - k * 2.0**-53 for k in range(1, 200)]
    powers = [2.0**-k for k in (*range(1, 61), 100, 300, 600, 1000, 1022, 1060, 1074)]
    xs = near_one + powers + [k * 2.0**-1074 for k in range(1, 20)]
    misses = []
    with workdps(60):
        refs = {x: _half_angle_arccos(x) for x in xs}
        # arccos x is irrational here, so it lies strictly between these doubles
        brackets = {
            x: (to_float(r._mpf_, rnd=round_floor), to_float(r._mpf_, rnd=round_ceiling))
            for x, r in refs.items()
        }
        for fam in fams:
            for x in xs:
                below, above = brackets[x]
                iv = best_envelope(x, [fam])
                if not (iv.lower <= below and iv.upper >= above):
                    misses.append((fam.id, x, iv))
            for x in near_one:
                value, radius = approx_arccos(x, [fam])
                if abs(value - refs[x]) > radius:
                    misses.append((fam.id, x, "approx"))
    assert not misses, (len(misses), misses[:5])
