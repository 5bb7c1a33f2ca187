import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps

from carlson_bounds import family
from carlson_bounds.bounds import thm2_maxcoef
from carlson_bounds.classifier import (
    FOUR_OVER_PI_SQ,
    ONE_THIRD,
    TWO_OVER_PI,
    RegionClass,
    classify_numeric,
    classify_symbolic,
    critical_point_g,
    exact_increasing_threshold,
    extrema_points,
    in_max_then_min_region,
    increasing_threshold,
    necessary_increasing,
)
from carlson_bounds.family import EvalPoint, Params, g_eval, g_prime_eval
from carlson_bounds.verifier import _CLASS_PATTERNS, scan_pattern

DEC = RegionClass.STRICTLY_DECREASING
INC = RegionClass.STRICTLY_INCREASING
MAX = RegionClass.UNIQUE_MAX
MIN = RegionClass.UNIQUE_MIN
MTM = RegionClass.MAX_THEN_MIN
IND = RegionClass.INDETERMINATE


# ---------------------------------------------------------------------------
# symbolic classifier


def test_symbolic_trivial_decreasing():
    assert classify_symbolic(Params(0, 0)) is DEC


def test_symbolic_increasing_clean_points():
    # solidly inside the a >= 1/2, a-b <= 1/3 set
    assert classify_symbolic(Params(0.5, 0.1667)) is INC
    assert classify_symbolic(Params(0.5, 0.2)) is INC
    assert classify_symbolic(Params(0.6, 0.3)) is INC
    # first set: a+b >= 2/pi and a-b >= 4/pi**2
    assert classify_symbolic(Params(0.8, 0.3)) is INC
    # third set: window with a+b above the threshold
    assert classify_symbolic(Params(0.55, 0.2)) is INC


def test_symbolic_unique_max():
    assert classify_symbolic(Params(0.5, 0.14)) is MAX


def test_symbolic_unique_min():
    assert classify_symbolic(Params(0.51, 0.12)) is MIN


def test_symbolic_max_then_min_true_point():
    assert classify_symbolic(Params(0.51375, 0.12375)) is MTM


def test_symbolic_indeterminate_in_gap():
    # a > 1/2 with a+b < 2/pi and a-b >= 4/pi**2: no condition applies
    assert classify_symbolic(Params(0.55, 0.0)) is IND


# ---------------------------------------------------------------------------
# numeric classifier


def test_numeric_matches_on_examples():
    assert classify_numeric(Params(0, 0)) is DEC
    assert classify_numeric(Params(0.5, 0.1667)) is INC
    assert classify_numeric(Params(0.5, 0.14)) is MAX
    assert classify_numeric(Params(0.51, 0.12)) is MIN
    assert classify_numeric(Params(0.51375, 0.12375)) is MTM


def test_numeric_resolves_symbolic_gap():
    # (0.55, 0.0): g increasing from a+b-2/pi < 0 to 2a-1 > 0 -> unique min
    assert classify_numeric(Params(0.55, 0.0)) is MIN


@pytest.mark.parametrize("d", [0.34, 0.36, 0.38, 0.40])
def test_numeric_min_g_fallback_at_exact_boundary(d, monkeypatch):
    # a+b within 1e-11 of s*(d) puts min g within about 1e-11 of zero, below
    # the float64 tolerance: the sign must come from the 40-digit enclosure
    # of min g at the float64 zero of g', the only high-precision region
    from carlson_bounds import classifier

    regions = []
    real = classifier.hp_context

    def counting(digits):
        regions.append(digits)
        return real(digits)

    monkeypatch.setattr(classifier, "hp_context", counting)
    s_star = exact_increasing_threshold(d)
    for ds, want in ((1e-11, INC), (-1e-11, MTM)):
        s = s_star + ds
        p = Params((s + d) / 2, (s - d) / 2)
        regions.clear()
        assert classify_numeric(p) is want
        assert regions == [40]
        assert classify_symbolic(p) is want


@pytest.mark.parametrize("d", [0.34, 0.36, 0.38, 0.40])
def test_numeric_min_g_fallback_work_is_bounded(d, monkeypatch):
    # the 40-digit sign of min g costs one g' evaluation at the float64
    # zero of g' (a few Newton steps where it polishes), not 120 halvings
    from carlson_bounds import family

    calls = []
    for name in ("g_prime_eval", "chain_eval"):
        real = getattr(family, name)

        def counting(*args, _real=real):
            calls.append(args[-1].digits)
            return _real(*args)

        monkeypatch.setattr(family, name, counting)
    s_star = exact_increasing_threshold(d)
    for ds in (1e-11, -1e-11):
        s = s_star + ds
        calls.clear()
        classify_numeric(Params((s + d) / 2, (s - d) / 2))
        assert 0 < calls.count(40) <= 8, calls


def _tangent_theta(d):
    """theta = arccos t of the zero t of g' for a-b = d, at the working precision.

    Bisects r'(cos theta) = 1/theta**2 - cos(theta)/(theta*sin(theta)) = d,
    which rises from 1/3 to 4/pi**2 as theta goes from 0 to pi/2; a
    parametrisation the package does not use.
    """
    lo, hi = mpf("1e-6"), mp.pi / 2
    for _ in range(90):
        mid = (lo + hi) / 2
        if 1 / mid**2 - mp.cos(mid) / (mid * mp.sin(mid)) < d:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _window_class(a, b):
    """Class of (a, b) with a-b inside the window, from 50-digit signs."""
    with workdps(50):
        am, bm = mpf(a), mpf(b)
        s, d = am + bm, am - bm
        th = _tangent_theta(d)
        if s + d * mp.cos(th) - mp.sin(th) / th > 0:
            return INC
        g0, g1 = s > 2 / mp.pi, 2 * am > 1
    return {(False, False): DEC, (True, False): MAX, (False, True): MIN, (True, True): MTM}[(g0, g1)]


def test_numeric_near_exact_boundary_matches_independent_solve():
    rng = random.Random(2024)
    for _ in range(200):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        off = math.copysign(10 ** rng.uniform(-13, -10), rng.random() - 0.5)
        s = exact_increasing_threshold(d) + off
        a, b = (s + d) / 2, (s - d) / 2
        assert classify_numeric(Params(a, b)) is _window_class(a, b), (a, b, off)


def _s_star50(d):
    """s*(d) from the 50-digit theta solve."""
    with workdps(50):
        th = _tangent_theta(mpf(d))
        return mp.sin(th) / th - d * mp.cos(th)


def _pair_at(d, s_star, off):
    """Doubles (a, b) with a-b near d and a+b the double nearest s_star + off."""
    with workdps(50):
        s = float(s_star + mpf(off))
    return (s + d) / 2, (s - d) / 2


def test_both_classifiers_right_within_3e_17_of_exact_boundary():
    # float64 s*(d) errs by up to about 4e-16, so a bare float comparison
    # of a+b with it is a coin toss this close; inside its error band the
    # symbolic classifier must read the 40-digit sign of min g instead
    rng = random.Random(317)
    wrong = []
    for i in range(1000):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        a, b = _pair_at(d, _s_star50(d), "3e-17" if i % 2 else "-3e-17")
        want = _window_class(a, b)
        for classify in (classify_numeric, classify_symbolic):
            got = classify(Params(a, b))
            if got is not IND and got is not want:
                wrong.append((classify.__name__, a, b, got, want))
    assert not wrong, (len(wrong), wrong[:5])


def test_both_classifiers_match_independent_solve_near_one_third():
    # a-b within 1e-5 of 1/3 puts the zero of g' within 2.3e-4 of x = 1,
    # where float64 g' is the series of k(theta); within 1e-12 of s*(d) both
    # classifiers must give the class of the 50-digit solve
    rng = random.Random(1313)
    for _ in range(200):
        d = ONE_THIRD + 10 ** rng.uniform(-13, -5)
        off = math.copysign(10 ** rng.uniform(-16, -12), rng.random() - 0.5)
        a, b = _pair_at(d, _s_star50(d), off)
        want = _window_class(a, b)
        for classify in (classify_numeric, classify_symbolic):
            assert classify(Params(a, b)) is want, (classify.__name__, a, b, off)


def _count_hp_calls(monkeypatch):
    """Digits of every family.g_prime_eval / chain_eval call, as they happen."""
    from carlson_bounds import family

    calls = {"g_prime_eval": [], "chain_eval": []}
    for name, seen in calls.items():
        real = getattr(family, name)

        def counting(*args, _real=real, _seen=seen):
            _seen.append(args[-1].digits)
            return _real(*args)

        monkeypatch.setattr(family, name, counting)
    return calls


def test_min_g_enclosure_holds_near_the_tangent_point():
    # g(x) - g'(x)**2 * 45/4 <= min g <= g(x) for any x: g'' >= 2/45
    rng = random.Random(45)
    for _ in range(100):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        a = rng.uniform(0.3, 0.7)
        p = Params(a, a - d)
        with workdps(50):
            dm = mpf(p.a) - mpf(p.b)
            th = _tangent_theta(dm)
            min_g = mpf(p.a) + mpf(p.b) - (mp.sin(th) / th - dm * mp.cos(th))
            x = mp.cos(th) + mpf(rng.uniform(-1e-6, 1e-6))
            g = g_eval(p, EvalPoint(x, 50))
            gp = g_prime_eval(p, EvalPoint(x, 50))
            assert g - gp**2 * 45 / 4 <= min_g <= g, (a, d)


@pytest.mark.parametrize("off", [1e-11, -1e-11, 1e-13, -1e-13])
def test_min_g_enclosure_decides_without_the_polish(off, monkeypatch):
    calls = _count_hp_calls(monkeypatch)
    rng = random.Random(11)
    for _ in range(20):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        a, b = _pair_at(d, _s_star50(d), off)
        for seen in calls.values():
            seen.clear()
        assert classify_numeric(Params(a, b)) is _window_class(a, b), (a, b)
        assert calls["g_prime_eval"].count(40) == 1, (a, b, calls)
        assert calls["chain_eval"].count(40) == 0, (a, b, calls)


def test_min_g_polish_runs_where_the_enclosure_straddles_zero(monkeypatch):
    # at a+b = s*(d) to the double, min g is about 1e-17, which the
    # enclosure at the float64 zero of g' decides alone.  At a point 1e-6
    # off that zero the enclosure is 1e-14 to 1e-13 wide and straddles zero,
    # so the Newton polish must run and give the class the enclosure gave.
    from carlson_bounds import classifier

    rng = random.Random(0)
    points = []
    for _ in range(20):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        a, b = _pair_at(d, _s_star50(d), 0)
        points.append((Params(a, b), classify_numeric(Params(a, b))))
    real = classifier._g_prime_zero64
    monkeypatch.setattr(classifier, "_g_prime_zero64", lambda p: real(p) - 1e-6)
    calls = _count_hp_calls(monkeypatch)
    for p, want in points:
        calls["chain_eval"].clear()
        assert classify_numeric(p) is want is _window_class(p.a, p.b), p
        assert calls["chain_eval"].count(40) > 0, p


@pytest.mark.parametrize("off", [1e-11, -1e-11])
def test_min_g_polish_runs_when_the_zero_is_above_the_float64_bracket(off, monkeypatch):
    # a-b within 4.4e-14 of 1/3 puts the zero of g' above 1 - 1e-12, where
    # float64 has no zero to offer: the 40-digit polish locates it
    from carlson_bounds import classifier

    d = ONE_THIRD + 4e-14
    assert classifier._g_prime_zero64(Params(0.5, 0.5 - d)) is None
    calls = _count_hp_calls(monkeypatch)
    a, b = _pair_at(d, _s_star50(d), off)
    assert classify_numeric(Params(a, b)) is _window_class(a, b)
    assert calls["chain_eval"].count(40) > 0


def test_exact_threshold_matches_tangent_solve():
    rng = random.Random(60)
    for _ in range(60):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        with workdps(60):
            th = _tangent_theta(mpf(d))
            s_star = mp.sin(th) / th - d * mp.cos(th)
            assert abs(exact_increasing_threshold(d) - s_star) <= 4e-16, d


def test_numeric_tol_validation():
    with pytest.raises(ValueError):
        classify_numeric(Params(0, 0), tol=0.0)
    with pytest.raises(ValueError):
        classify_numeric(Params(0, 0), tol=1e-2)


def test_max_then_min_condition_over_covers():
    # the published max-then-min condition holds at (0.52, 0.13), yet a+b
    # lies in the strip between the exact boundary s*(d) and the published
    # threshold, so min g stays positive and f is strictly increasing; the
    # symbolic classifier tests the exact boundary and the scan confirms it
    p = Params(0.52, 0.13)
    s, d = p.a + p.b, p.a - p.b
    assert in_max_then_min_region(p)
    assert exact_increasing_threshold(d) < s < increasing_threshold(d)
    assert classify_symbolic(p) is INC
    assert classify_numeric(p) is INC
    pattern, _, _ = scan_pattern(p, 4096)
    assert pattern == (1,)
    # the interior minimum of g is strictly positive
    x0 = critical_point_g(p, 1e-9)
    assert x0 is not None
    assert float(g_eval(p, EvalPoint(x0, digits=40))) > 0


def _ulps(x, k):
    """x moved k ulps, towards +inf when k > 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def test_symbolic_numeric_disagreements_only_in_documented_strip():
    # the symbolic classifier tests the exact increasing boundary, so no
    # determinate symbolic class may contradict the numeric one; both read
    # the same exact signs, so neither may a float64 comparison of a+b or
    # a-b with 2/pi, 1/3 or 4/pi**2, or of a with 1/2, decide one
    rng = random.Random(99)
    points = [(rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)) for _ in range(400)]
    with workdps(50):
        # b the double nearest 2/pi - a, so a+b is within an ulp of 2/pi
        points += [(a, float(2 / mp.pi - a)) for a in (rng.uniform(0.2, 0.45) for _ in range(1000))]
        # a-b within 3 ulps of 1/3 and of 4/pi**2
        for d in (mpf(1) / 3, 4 / mp.pi**2):
            for a in (rng.uniform(0.3, 0.7) for _ in range(100)):
                points += [(a, _ulps(float(a - d), k)) for k in range(-3, 4)]
    # a within 3 ulps of 1/2
    for b in (rng.uniform(0.05, 0.2) for _ in range(100)):
        points += [(_ulps(0.5, k), b) for k in range(-3, 4)]
    mismatches = []
    for a, b in points:
        p = Params(a, b)
        sym = classify_symbolic(p)
        if sym is IND:
            continue
        num = classify_numeric(p)
        if num is not sym:
            mismatches.append((p, sym, num))
    assert not mismatches, mismatches


# ---------------------------------------------------------------------------
# critical point of g'


def test_critical_point_boundary_param_absent():
    # a - b = 1/3 up to double rounding: no interior sign change resolvable
    assert critical_point_g(Params(0.5, 1 / 6), 1e-6) is None


def test_critical_point_constant_sign_absent():
    assert critical_point_g(Params(0.9, 0.1), 1e-6) is None  # a-b > 4/pi**2
    assert critical_point_g(Params(0.1, 0.0), 1e-6) is None  # a-b < 1/3
    # g' > 0 throughout on a 300-point grid for the first case
    p = Params(0.9, 0.1)
    assert all(g_prime_eval(p, EvalPoint(i / 300)) > 0 for i in range(1, 300))


def test_critical_point_root_and_residual():
    p = Params(0.5, 0.14)
    x0 = critical_point_g(p, 1e-9)
    assert x0 is not None and 0 < x0 < 1
    assert abs(float(g_prime_eval(p, EvalPoint(x0, digits=40)))) < 1e-8
    # a tol finer than the float64 spacing at the zero ends at that spacing
    fine = critical_point_g(p, 1e-16)
    assert abs(fine - x0) < 1e-9
    assert abs(float(g_prime_eval(p, EvalPoint(fine, digits=40)))) < 1e-12


def test_g_second_falls_to_its_infimum():
    # the root finder's stopping rule and the min-g soundness argument take
    # inf g'' on [0,1) to be its limit 2/45 at x = 1
    from carlson_bounds.classifier import _G2_INF
    from carlson_bounds.family import chain_eval

    xs = [i / 100 for i in range(100)] + [1 - 10.0**-k for k in range(3, 10)]
    vals = [chain_eval("g_second", EvalPoint(x, digits=40)) for x in xs]
    assert all(u > v for u, v in zip(vals, vals[1:]))
    assert 0 < vals[-1] - _G2_INF < 1e-8


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-13, 1e-16])
def test_critical_point_within_tol_of_zero(tol):
    # d from 1e-6 above 1/3, where the zero sits within 3e-5 of x = 1, to
    # 1e-6 below 4/pi**2; float64 g' resolves the zero to about 1e-13, the
    # finest tol met without the 40-digit polish
    ds = [ONE_THIRD + 10.0**-k for k in range(2, 7)]
    ds += [ONE_THIRD + (FOUR_OVER_PI_SQ - ONE_THIRD) * i / 12 for i in range(1, 12)]
    ds.append(FOUR_OVER_PI_SQ - 1e-6)
    for d in ds:
        p = Params(0.5, 0.5 - d)
        x0 = critical_point_g(p, tol)
        assert x0 is not None, d
        with workdps(50):
            zero = mp.cos(_tangent_theta(mpf(p.a) - mpf(p.b)))
            assert abs(x0 - zero) <= tol, (d, x0)


def test_critical_point_sign_change_across_bracket():
    rng = random.Random(3)
    tol = 1e-9
    found = 0
    while found < 20:
        d = rng.uniform(ONE_THIRD + 0.002, FOUR_OVER_PI_SQ - 0.002)
        a = rng.uniform(-0.5, 1.0)
        p = Params(a, a - d)
        x0 = critical_point_g(p, tol)
        if x0 is None:
            continue
        found += 1
        assert g_prime_eval(p, EvalPoint(max(x0 - tol, 0.0))) < 0
        assert g_prime_eval(p, EvalPoint(x0 + tol)) > 0


def test_critical_point_tol_validation():
    with pytest.raises(ValueError):
        critical_point_g(Params(0.5, 0.14), 1e-3)


# ---------------------------------------------------------------------------
# extrema report


def test_extrema_at_reference_point():
    rep = extrema_points(Params(0.5, 0.14))
    assert abs(rep.disc_closed - 0.0064) < 1e-15
    assert abs(rep.disc_quadratic - 0.0064) < 1e-15
    # closed-form roots recomputed independently in high precision
    with workdps(50):
        a, b = mpf(0.5), mpf(0.14)
        s, d = a + b, a - b
        disc = 16 * a * b * (b - a) + s**2
        x1 = (s * (1 - 2 * d) - mp.sqrt(disc)) / (2 * d**2)
        x2 = (s * (1 - 2 * d) + mp.sqrt(disc)) / (2 * d**2)
        assert rep.x1 == pytest.approx(float(x1), abs=1e-12)
        assert rep.x2 == pytest.approx(float(x2), abs=1e-12)
    assert rep.x1 == pytest.approx(0.382716049382716, abs=1e-9)
    # x2 sits at 1.0 (the quadratic vanishes at x = 1 for these parameters),
    # outside the open interval, so no minimum coefficient exists
    assert rep.x2 == pytest.approx(1.0, abs=1e-12)
    assert rep.min_coeff is None
    assert rep.max_coeff == pytest.approx(1.5820259095341458, rel=1e-12)


def test_extrema_roots_ordered():
    rng = random.Random(17)
    for _ in range(200):
        p = Params(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(p.a - p.b) < 1e-9:
            continue
        rep = extrema_points(p)
        if rep.x1 is not None and rep.x2 is not None:
            assert rep.x1 <= rep.x2


def test_extrema_no_real_roots():
    # 16ab(b-a) + (a+b)**2 < 0, e.g. (a, b) = (-0.4, 0.4): disc = 32*(-0.4)**3 < 0
    rep = extrema_points(Params(-0.4, 0.4))
    assert rep.disc_closed < 0
    assert rep.x1 is None and rep.x2 is None and rep.max_coeff is None


def test_extrema_antisymmetric_params_identity():
    # (a, -a): disc = 16*a*(-a)*(-2a) + 0 = 32 a**3
    for a in (0.4, -0.4, 0.11):
        rep = extrema_points(Params(a, -a))
        assert rep.disc_closed == pytest.approx(32 * a**3, rel=1e-12)
        assert (rep.disc_closed > 0) == (rep.disc_quadratic > 0)


def test_extrema_degenerate_linear():
    rep = extrema_points(Params(0.3, 0.3))
    assert rep.x1 == pytest.approx(0.6, rel=1e-15)  # root a+b, an envelope max
    assert rep.x2 is None
    rep = extrema_points(Params(-0.3, -0.3))
    assert rep.x2 == pytest.approx(-0.6, rel=1e-15)
    assert rep.x1 is None and rep.min_coeff is None
    with pytest.raises(ValueError):
        extrema_points(Params(0.0, 0.0))


def test_extrema_at_a_equal_b_are_the_certified_root_and_coefficient():
    # on a = b the envelope maximum sits at a+b; extrema_points must report
    # the x1 and max_coeff that thm2_maxcoef(a, a) certifies with, bit for bit
    rng = random.Random(12)
    for _ in range(20_000):
        a = rng.uniform(0.01, 0.49)
        rep = extrema_points(Params(a, a))
        assert rep.x1 == a + a, a
        assert rep.max_coeff == thm2_maxcoef(a, a)._coefficient(family._F64, True), a


def test_discriminant_identity_bulk():
    rng = random.Random(5)
    n = 0
    while n < 10_000:
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if abs(a - b) < 1e-6:
            continue
        n += 1
        rep = extrema_points(Params(a, b))
        assert abs(rep.disc_closed - rep.disc_quadratic) <= 1e-10 * max(1.0, abs(rep.disc_closed))


# ---------------------------------------------------------------------------
# necessary condition


def test_necessary_increasing_examples():
    assert necessary_increasing(Params(0.5, 1 / 6)) is True
    assert necessary_increasing(Params(0.4, 0.9)) is False
    assert necessary_increasing(Params(0.5, 0.13)) is False


def test_necessary_condition_on_numeric_increasing():
    rng = random.Random(11)
    checked = 0
    tries = 0
    while checked < 1000 and tries < 20_000:
        tries += 1
        p = Params(rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2))
        if classify_numeric(p) is INC:
            checked += 1
            assert necessary_increasing(p)
    assert checked == 1000


# ---------------------------------------------------------------------------
# behavioral ground truth: scans agree with the numeric class


def _true_mtm_params(k):
    """Parameters inside the true max-then-min strip (min g < 0 < endpoints)."""
    d = 0.366 + 0.026 * k / 19
    # locate the true separatrix s*(d) = -phi(x0(d)) via the g' root
    lo, hi = 1e-9, 1 - 1e-9
    probe = Params(d, 0.0)
    if g_prime_eval(probe, EvalPoint(hi)) <= 0:
        x0 = hi
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g_prime_eval(probe, EvalPoint(mid)) < 0:
                lo = mid
            else:
                hi = mid
        x0 = 0.5 * (lo + hi)
    s_star = -((d - 0.5) * x0 - 0.5 * math.sqrt(x0**2 + 4 * d * (1 - x0**2)))
    s = 0.5 * (TWO_OVER_PI + s_star)
    assume_ok = s_star > TWO_OVER_PI and (s + d) / 2 > 0.5
    return Params((s + d) / 2, (s - d) / 2) if assume_ok else None


@pytest.mark.parametrize(
    "cls,maker",
    [
        # a+b <= 2/pi and a <= 1/2 throughout
        (DEC, lambda k: Params(-0.1 + 0.015 * k, 0.1 + 0.015 * k)),
        # a >= 1/2 and a-b <= 1/3 throughout
        (INC, lambda k: Params(0.55 + 0.02 * k, 0.35 + 0.02 * k)),
        # window d = 0.34 with 2/pi - b < a <= 1/2 (thin in a)
        (MAX, lambda k: Params(0.489 + 0.0005 * k, 0.489 + 0.0005 * k - 0.34)),
        # window d = 0.385 with 1/2 < a <= 2/pi - b
        (MIN, lambda k: Params(0.5005 + 0.0005 * k, 0.5005 + 0.0005 * k - 0.385)),
        (MTM, _true_mtm_params),
    ],
)
def test_behavioral_ground_truth(cls, maker):
    count = 0
    for k in range(20):
        p = maker(k)
        if p is None:
            continue
        assert classify_numeric(p) is cls, (p, cls)
        pattern, _, _ = scan_pattern(p, 2048)
        assert pattern == _CLASS_PATTERNS[cls], (p, cls, pattern)
        count += 1
    assert count >= 15


# ---------------------------------------------------------------------------
# consistency property


def test_numeric_class_matches_scan_wide_plane():
    # coarse scans cannot resolve an extremum crowded within a grid cell of
    # an endpoint (parameters within ~1e-3 of a region boundary); rescanning
    # finer must always reconcile with the sign-based class
    rng = random.Random(20260809)
    for _ in range(1000):
        p = Params(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        num = classify_numeric(p, 1e-9)
        if num is IND:
            continue
        pattern, _, _ = scan_pattern(p, 1024)
        if pattern != _CLASS_PATTERNS[num]:
            pattern, _, _ = scan_pattern(p, 65536)
            assert pattern == _CLASS_PATTERNS[num], (p, num, pattern)


@settings(max_examples=150)
@given(
    a=st.floats(min_value=-0.2, max_value=1.2),
    b=st.floats(min_value=-0.2, max_value=1.2),
)
def test_symbolic_numeric_consistency_outside_gap(a, b):
    p = Params(a, b)
    s, d = a + b, a - b
    margins = [abs(s - TWO_OVER_PI), abs(a - 0.5), abs(d - ONE_THIRD), abs(d - FOUR_OVER_PI_SQ)]
    if ONE_THIRD < d < FOUR_OVER_PI_SQ:
        margins.append(abs(s - exact_increasing_threshold(d)))
    assume(min(margins) > 1e-4)
    sym = classify_symbolic(p)
    assume(sym is not IND)
    assert classify_numeric(p, 1e-9) is sym
