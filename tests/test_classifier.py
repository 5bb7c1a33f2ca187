import copy
import dataclasses
import itertools
import math
import pickle
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
from carlson_bounds.oracle import hp_context
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


def _count_regions(monkeypatch):
    """Digits of every high-precision region the classifier enters, as it enters them."""
    from carlson_bounds import classifier

    regions = []
    real = classifier.hp_context

    def counting(digits):
        regions.append(digits)
        return real(digits)

    monkeypatch.setattr(classifier, "hp_context", counting)
    return regions


@pytest.mark.parametrize("d", [0.34, 0.36, 0.38, 0.40])
def test_numeric_min_g_fallback_at_exact_boundary(d, monkeypatch):
    # a+b within 5e-15 of s*(d) puts min g within about 5e-15 of zero, inside
    # the float64 sign band: the sign must come from the 40-digit enclosure
    # of min g at the float64 zero of g', the only high-precision region
    regions = _count_regions(monkeypatch)
    s_star = exact_increasing_threshold(d)
    for ds, want in ((5e-15, INC), (-5e-15, MTM)):
        s = s_star + ds
        p = Params((s + d) / 2, (s - d) / 2)
        regions.clear()
        assert classify_numeric(p) is want
        assert regions == [40]
        assert classify_symbolic(p) is want


@pytest.mark.parametrize("d", [0.34, 0.36, 0.38, 0.40])
def test_numeric_min_g_fallback_work_is_bounded(d, monkeypatch):
    # the 40-digit sign of min g costs one arccos at the float64 zero of g'
    # (a few Newton steps where it polishes), not 120 halvings
    acos = _count_acos_mp(monkeypatch)
    s_star = exact_increasing_threshold(d)
    for ds in (5e-15, -5e-15):
        s = s_star + ds
        acos.clear()
        classify_numeric(Params((s + d) / 2, (s - d) / 2))
        assert 0 < len(acos) <= 8, acos


def _tangent_theta(d, halvings=90):
    """theta = arccos t of the zero t of g' for a-b = d, at the working precision.

    Bisects r'(cos theta) = 1/theta**2 - cos(theta)/(theta*sin(theta)) = d,
    which rises from 1/3 to 4/pi**2 as theta goes from 0 to pi/2; a
    parametrisation the package does not use.  theta reaches down to 1e-12,
    so d may lie as close as about 2e-26 above 1/3.  90 halvings fix theta
    to 1.3e-27.
    """
    lo, hi = mpf("1e-12"), mp.pi / 2
    for _ in range(halvings):
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


def _count_acos_mp(monkeypatch):
    """Working precision of every family.acos_mp call, the digit-count arccos."""
    seen = []
    real = family.acos_mp

    def counting(x):
        seen.append(mp.prec)
        return real(x)

    monkeypatch.setattr(family, "acos_mp", counting)
    return seen


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


@pytest.mark.parametrize("off", [5e-15, -5e-15, 1e-15, -1e-15])
def test_min_g_enclosure_decides_without_the_polish(off, monkeypatch):
    calls = _count_hp_calls(monkeypatch)
    acos = _count_acos_mp(monkeypatch)
    rng = random.Random(11)
    for _ in range(20):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        a, b = _pair_at(d, _s_star50(d), off)
        for seen in (*calls.values(), acos):
            seen.clear()
        assert classify_numeric(Params(a, b)) is _window_class(a, b), (a, b)
        # g at the float64 zero of g' at 40 digits decides a negative min g
        # alone; a positive one takes g' there too, each on its own arccos
        reads_g_prime = 1 if off > 0 else 0
        assert len(acos) == 1 + reads_g_prime, (a, b, acos)
        assert calls["g_prime_eval"].count(40) == reads_g_prime, (a, b, calls)
        assert calls["chain_eval"].count(40) == 0, (a, b, calls)


def test_min_g_polish_runs_where_the_enclosure_straddles_zero(monkeypatch):
    # at a+b = s*(d) to the double, min g is about 1e-17, which the
    # enclosure at the float64 zero of g' decides alone.  At a point 1e-7
    # off that zero float64 g is still inside the sign band, and the
    # enclosure is 2e-16 to 2e-15 wide and straddles zero, so the Newton
    # polish must run and give the class the enclosure gave.
    from carlson_bounds import classifier

    rng = random.Random(0)
    points = []
    for _ in range(20):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        a, b = _pair_at(d, _s_star50(d), 0)
        points.append((Params(a, b), classify_numeric(Params(a, b))))
    real = classifier._g_prime_zero64
    monkeypatch.setattr(classifier, "_g_prime_zero64", lambda p: real(p) - 1e-7)
    calls = _count_hp_calls(monkeypatch)
    for p, want in points:
        calls["chain_eval"].clear()
        assert classify_numeric(p) is want is _window_class(p.a, p.b), p
        assert calls["chain_eval"].count(40) > 0, p


@pytest.mark.parametrize("gap", [2e-16, 5e-16, 1e-15, 3e-15, 1e-14, 4e-14])
def test_float64_zero_of_g_prime_is_found_up_to_the_last_double(gap, monkeypatch):
    # a-b = 1/3 + gap puts the zero of g' from 1 - 9e-13 up to 1 - 4.4e-15,
    # 40 doubles below 1; float64 Newton over every double below 1 finds it
    # within 1.1e-12, and a min g within 5e-15 of zero is decided by the
    # 40-digit enclosure there, with no 40-digit polish
    from carlson_bounds import classifier

    d = ONE_THIRD + gap
    x64 = classifier._g_prime_zero64(Params(0.5, 0.5 - d))
    assert x64 is not None
    with workdps(50):
        assert abs(mpf(x64) - mp.cos(_tangent_theta(mpf(d)))) <= 1.1e-12, x64
    calls = _count_hp_calls(monkeypatch)
    for off in (5e-15, -5e-15):
        a, b = _pair_at(d, _s_star50(d), off)
        calls["chain_eval"].clear()
        assert classify_numeric(Params(a, b)) is _window_class(a, b), (a, b)
        assert calls["chain_eval"].count(40) == 0, (a, b, calls)


def test_zero_of_g_prime_above_every_double_reads_g_at_the_last_one(monkeypatch):
    # 0 < a-b - 1/3 < 4.9e-18 puts the zero of g' in [1 - 2**-53, 1), above
    # every double: there is no float64 zero, g(1 - 2**-53) is within
    # 5.4e-34 of min g, and both classifiers give the 50-digit class with no
    # 40-digit polish
    from carlson_bounds import classifier

    pairs = []
    with workdps(50):
        third = mpf(1) / 3
        for gap in ("1e-18", "2e-18", "4e-18"):
            pairs.append((ONE_THIRD, float(ONE_THIRD - third - mpf(gap))))
            for b in (-0.33, -0.335, -1 / 3):
                pairs.append((float(b + third + mpf(gap)), b))
        for a, b in pairs:
            assert 0 < mpf(a) - mpf(b) - third < mpf("4.9e-18"), (a, b)
    calls = _count_hp_calls(monkeypatch)
    for a, b in pairs:
        want = _window_class(a, b)
        assert classifier._g_prime_zero64(Params(a, b)) is None, (a, b)
        for classify in (classify_numeric, classify_symbolic):
            calls["chain_eval"].clear()
            assert classify(Params(a, b)) is want, (classify.__name__, a, b)
            assert calls["chain_eval"].count(40) == 0, (classify.__name__, a, b, calls)


def test_zero_guess_is_within_its_bound():
    # the polynomial guess of the zero of g' is off by at most 4.1e-11 over
    # the window, which keeps the float64 enclosure of min g there under
    # 3e-22 wide; at and past the window's edges it is clamped into [0, _TOP]
    from carlson_bounds import classifier

    worst = 0.0
    with workdps(50):
        for i in range(1, 2001):
            th = mp.pi / 2 * i / 2001
            d = float(1 / th**2 - mp.cos(th) / (th * mp.sin(th)))
            worst = max(worst, abs(classifier._zero_guess(d) - mp.cos(_tangent_theta(mpf(d)))))
    assert worst < 4.1e-11, worst
    assert classifier._zero_guess(ONE_THIRD) == classifier._zero_guess(0.3) == classifier._TOP
    assert 0.0 <= classifier._zero_guess(FOUR_OVER_PI_SQ) < 1e-16
    assert classifier._zero_guess(0.5) == 0.0


@pytest.mark.parametrize("scale", [1e-3, 0.3])
def test_zero_of_g_prime_bisects_where_newton_leaves_the_bracket(scale, monkeypatch):
    # a g'' read too small makes each Newton step overshoot the bracket of
    # the zero; the step is then replaced by the bracket's midpoint, and the
    # search still ends within 1e-13 of the zero, at any start
    from carlson_bounds import classifier

    real = family.chain_eval
    monkeypatch.setattr(family, "chain_eval", lambda which, pt: real(which, pt) * scale)
    for d in (ONE_THIRD + 1e-3, 0.37, FOUR_OVER_PI_SQ - 1e-3):
        p = Params(0.5, 0.5 - d)
        with workdps(50):
            zero = mp.cos(_tangent_theta(mpf(p.a) - mpf(p.b)))
        for start in (0.0, 0.5, classifier._TOP):
            x = classifier._g_prime_root(p, 0.0, classifier._TOP, classifier._ZERO64_RES, None, start)
            assert abs(x - zero) < 2e-13, (d, start, x)


@pytest.mark.parametrize("off", [1e-3, -1e-3, 2e-7, -2e-7, 1e-11, -1e-11, 1e-13, -1e-13, 2e-15, -2e-15])
def test_min_g_decided_at_the_guess_seeks_no_zero_of_g_prime(off, monkeypatch):
    # the enclosure of min g at the guessed zero is under 3e-22 wide, so a
    # min g outside the 1e-14 sign band is decided there with no zero of g'
    # sought, no g'' read and no zero kept; inside the band the zero is
    # sought, and both classifiers give the 50-digit class
    from carlson_bounds import classifier

    sought = []
    real = classifier._g_prime_zero64
    monkeypatch.setattr(classifier, "_g_prime_zero64", lambda p: sought.append(p) or real(p))
    calls = _count_hp_calls(monkeypatch)
    rng = random.Random(23)
    for _ in range(20):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        a, b = _pair_at(d, _s_star50(d), off)
        want = _window_class(a, b)
        p = Params(a, b)
        sought.clear()
        calls["chain_eval"].clear()
        assert classify_numeric(p) is classify_symbolic(p) is want, (a, b)
        decided = abs(off) > 1e-14
        assert (len(sought) == 0) is decided, (a, b, off)
        assert ("_zero64" in p.__dict__) is not decided, (a, b, off)
        if decided:
            assert calls["chain_eval"] == [], (a, b, off, calls)


def test_zero_search_from_the_guess_takes_one_step(monkeypatch):
    # from a guess within 4.1e-11 of the zero, one Newton step reaches the
    # float64 zero of g': at most three g' reads (the sign at 1 - 2**-53,
    # the guess and the step) and one g'' read per search
    from carlson_bounds import classifier

    calls = _count_hp_calls(monkeypatch)
    rng = random.Random(27)
    for _ in range(2000):
        d = rng.uniform(ONE_THIRD + 1e-9, FOUR_OVER_PI_SQ - 1e-9)
        p = Params(0.5, 0.5 - d)
        for seen in calls.values():
            seen.clear()
        assert classifier._g_prime_zero64(p) is not None, d
        assert calls["g_prime_eval"] in ([None] * 2, [None] * 3), (d, calls)
        assert calls["chain_eval"] in ([], [None]), (d, calls)


def test_second_classifier_reads_no_sign_again(monkeypatch):
    # the four edge signs and the sign of min g depend on (a, b) alone and
    # are kept on the Params object: after classify_numeric, neither
    # classifier, nor critical_point_g's sign test, reads one again
    from carlson_bounds import classifier

    count = [0]
    real = classifier._sign_exact

    def counting(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(classifier, "_sign_exact", counting)
    rng = random.Random(31)
    pairs = [(rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)) for _ in range(200)]
    for _ in range(50):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        pairs.append(_pair_at(d, _s_star50(d), rng.choice(["1e-12", "-1e-12", "2e-15", "-2e-15"])))
    for a, b in pairs:
        p = Params(a, b)
        count[0] = 0
        first = classify_numeric(p)
        assert count[0] >= 4, (a, b, count)
        count[0] = 0
        assert classify_numeric(p) is first, (a, b)
        classify_symbolic(p)
        if not classifier.in_window(p) or "_zero64" in p.__dict__:
            critical_point_g(p, 1e-9)
        assert count[0] == 0, (a, b, count)


@pytest.mark.parametrize("off", [1e-11, -1e-11, 1e-13, -1e-13])
def test_numeric_reads_signs_outside_the_band_in_float64_whatever_tol(off, monkeypatch):
    # min g of 1e-13 or more in size is far above its float64 error (under
    # 1.4e-15), so at every tol the class comes from float64 alone
    regions = _count_regions(monkeypatch)
    rng = random.Random(22)
    for _ in range(10):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        a, b = _pair_at(d, _s_star50(d), off)
        want = _window_class(a, b)
        for tol in (1e-3, 1e-9, 1e-14):
            regions.clear()
            assert classify_numeric(Params(a, b), tol) is want, (a, b, tol)
            assert regions == [], (a, b, tol, regions)


def test_numeric_class_does_not_depend_on_tol():
    # tol is validated and chooses nothing, even where a sign is within a few
    # ulps of zero: a+b at 2/pi, a-b at 4/pi**2 and 1/3, a at 1/2, and the
    # pairs just off a+b = 2/pi whose g(0) is about 1e-32 in size
    rng = random.Random(2222)
    points = []
    with workdps(50):
        for a in (rng.uniform(0.2, 0.45) for _ in range(10)):
            points += [(a, _ulps(float(2 / mp.pi - a), k)) for k in range(-3, 4)]
        for d in (4 / mp.pi**2, mpf(1) / 3):
            for a in (rng.uniform(0.3, 0.7) for _ in range(10)):
                points += [(a, _ulps(float(a - d), k)) for k in range(-3, 4)]
    for b in (rng.uniform(0.05, 0.2) for _ in range(10)):
        points += [(_ulps(0.5, k), b) for k in range(-3, 4)]
    for k in (0, 1):
        points += [(_ulps(0.6366197723675814, k), -3.935735335036498e-17),
                   (-3.935735335036497e-17, _ulps(0.6366197723675814, k))]
    for a, b in points:
        classes = {classify_numeric(Params(a, b), tol) for tol in (1e-3, 1e-9, 1e-16, 1e-300)}
        assert len(classes) == 1, (a, b, classes)


def test_exact_threshold_matches_tangent_solve():
    rng = random.Random(60)
    ds = [rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6) for _ in range(60)]
    # d within 1e-13 of 1/3, where the zero of g' lies within 2.3e-12 of 1
    ds += [ONE_THIRD + 10 ** rng.uniform(-16.5, -13) for _ in range(30)]
    ds += [_ulps(ONE_THIRD, k) for k in range(1, 11)]
    for d in ds:
        with workdps(60):
            th = _tangent_theta(mpf(d))
            s_star = mp.sin(th) / th - d * mp.cos(th)
            assert abs(exact_increasing_threshold(d) - s_star) <= 4e-16, d


def test_exact_threshold_is_the_nearest_double():
    # g is read at 40 digits where it is stationary, so s*(d) comes back
    # rounded once, also where the zero of g' lies within 1e-12 of 1
    rng = random.Random(61)
    ds = [rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6) for _ in range(40)]
    ds += [ONE_THIRD + 10 ** rng.uniform(-16.5, -13) for _ in range(10)]
    for d in ds:
        assert exact_increasing_threshold(d) == float(_s_star50(d)), d


def test_exact_threshold_refuses_a_minus_b_outside_the_window():
    for d in (ONE_THIRD, FOUR_OVER_PI_SQ, 0.3, 0.5):
        with pytest.raises(ValueError, match="exact threshold needs"):
            exact_increasing_threshold(d)


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


def test_max_then_min_region_is_empty_outside_the_window():
    # the rest of the published condition holds at the first two pairs, with
    # a-b just past 4/pi**2 and below 1/3; below a-b = 1/4 it cannot be read
    for a, b in ((0.535, 0.115), (0.51, 0.21), (0.6, 0.5)):
        p = Params(a, b)
        assert not in_max_then_min_region(p), p
        if a - b > 0.25:
            assert TWO_OVER_PI < a + b < increasing_threshold(a - b) and a > 0.5, p


def _ulps(x, k):
    """x moved k ulps, towards +inf when k > 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def test_symbolic_numeric_disagreements_only_in_documented_strip():
    # both classifiers take one decision from the same exact signs, so the
    # symbolic class is the numeric one, except that a unique max or min
    # outside the window, which no published condition covers, is
    # Indeterminate; no float64 comparison of a+b or a-b with 2/pi, 1/3 or
    # 4/pi**2, or of a with 1/2, may move either
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
        sym, num = classify_symbolic(p), classify_numeric(p)
        with workdps(50):
            d = mpf(a) - mpf(b)
            outside = not mpf(1) / 3 < d < 4 / mp.pi**2
        want = IND if num in (MAX, MIN) and outside else num
        if sym is not want:
            mismatches.append((p, sym, num))
    assert not mismatches, mismatches


def test_second_classifier_of_one_params_seeks_no_zero_of_g_prime(monkeypatch):
    # the float64 zero of g' and the sign of min g are kept on the Params
    # object, so whichever classifier comes second evaluates no float64 g'
    # and gives the class a fresh object gets
    rng = random.Random(19)
    calls = _count_hp_calls(monkeypatch)
    for _ in range(20):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        s = exact_increasing_threshold(d) + rng.choice([1e-11, -1e-11, 1e-3, -1e-3])
        a, b = (s + d) / 2, (s - d) / 2
        for first, second in ((classify_numeric, classify_symbolic),
                              (classify_symbolic, classify_numeric)):
            want = second(Params(a, b))
            p = Params(a, b)
            first(p)
            calls["g_prime_eval"].clear()
            assert second(p) is want, (a, b)
            assert calls["g_prime_eval"].count(None) == 0, (a, b, second.__name__)


@pytest.mark.parametrize(
    "a, b",
    [
        (0.52, 0.13),  # in the window, decided in float64
        (0.51375, 0.12375),  # MaxThenMin
        (0.5, 0.5 - (ONE_THIRD + 4e-14)),  # zero of g' above the float64 bracket: None is kept
        (0.55, 0.0),  # outside the window: no zero is sought
    ],
)
def test_classified_params_stay_equal_to_a_fresh_one(a, b):
    # the kept zero of g' is no field: equality, hash, repr and asdict read
    # (a, b) alone, and pickles and copies classify alike
    p = Params(a, b)
    classes = (classify_numeric(p), classify_symbolic(p), classify_numeric(p, 1e-4))
    fresh = Params(a, b)
    assert p == fresh and hash(p) == hash(fresh)
    assert repr(p) == repr(fresh)
    assert dataclasses.asdict(p) == dataclasses.asdict(fresh) == {"a": a, "b": b}
    for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
        assert (classify_numeric(q), classify_symbolic(q), classify_numeric(q, 1e-4)) == classes
    assert (classify_numeric(fresh), classify_symbolic(fresh), classify_numeric(fresh, 1e-4)) == classes


# ---------------------------------------------------------------------------
# exact edge signs and the 40-digit zero band

# ROADMAP item 4's pairs: a+b or a-b of two doubles within 1e-32 of 2/pi or 4/pi**2
_EDGE_PAIRS = [
    (0.6366197723675814, -3.935735335036498e-17),  # g(0) = -4.0e-33: UniqueMin
    (-3.935735335036497e-17, 0.6366197723675814),  # g(0) = +2.1e-33: UniqueMax
    (0.40528473456935116, 7.13763107490156e-17),  # g'(0) = -8.5e-33, zero of g' at 7.0e-32
]


def _class400(a, b):
    """Class of (a, b) from its edge signs at 400 bits, and min g there when they leave it open."""
    with mp.workprec(400):
        am, bm = mpf(a), mpf(b)
        s, d = am + bm, am - bm
        g0, g1 = s - 2 / mp.pi, 2 * am - 1
        if g0 <= 0 and g1 <= 0:  # the convex g is <= 0 throughout
            return DEC
        if d >= 4 / mp.pi**2:  # g' > 0: g rises from g(0)
            return INC if g0 >= 0 else MIN
        if d <= mpf(1) / 3:  # g' < 0: g falls to g(1-)
            return INC if g1 >= 0 else MAX
        th = _tangent_theta(d, 400)
        if s + d * mp.cos(th) - mp.sin(th) / th > 0:
            return INC
        return {(True, False): MAX, (False, True): MIN, (True, True): MTM}[(g0 > 0, g1 > 0)]


def test_pairs_within_1e_32_of_an_edge_take_the_400_bit_class():
    # no edge value of doubles is nonzero and under 5.1e-34 in size, so the
    # 40-digit zero band (1e-45) reads each of these signs right; a band of
    # 1e-30 read g(0) = -4.0e-33 and +2.1e-33 as 0 and gave StrictlyIncreasing
    # and StrictlyDecreasing.  The neighbours, up to 3 ulps off in a and in
    # b, cross each edge: one ulp of b moves g(0) by 6.2e-33 or g'(0) by 1.2e-32
    wrong = []
    for a0, b0 in _EDGE_PAIRS:
        for i, j in itertools.product(range(-3, 4), repeat=2):
            a, b = _ulps(a0, i), _ulps(b0, j)
            want = _class400(a, b)
            with mp.workprec(400):
                outside = not mpf(1) / 3 < mpf(a) - mpf(b) < 4 / mp.pi**2
            sym_want = IND if want in (MAX, MIN) and outside else want
            got = (classify_numeric(Params(a, b)), classify_symbolic(Params(a, b)))
            if got != (want, sym_want):
                wrong.append((a, b, got, want))
    assert not wrong, (len(wrong), wrong[:5])


def test_zero_of_g_prime_next_to_4_over_pi_sq_is_the_nearest_double():
    # at item 4's third pair g'(0) = -8.5e-33, so the zero of g' lies at
    # 7.0e-32; a tol of 1e-300 gets the double nearest it, and its
    # neighbours get theirs, or None where a-b is at or past 4/pi**2
    a0, b0 = _EDGE_PAIRS[2]
    for i, j in itertools.product(range(-3, 4), repeat=2):
        p = Params(_ulps(a0, i), _ulps(b0, j))
        with workdps(70):
            d = mpf(p.a) - mpf(p.b)
            want = float(mp.cos(_tangent_theta(d, 200))) if d < 4 / mp.pi**2 else None
        assert critical_point_g(p, 1e-300) == want, (p, want)
    assert critical_point_g(Params(a0, b0), 1e-300) == 7.044078317820067e-32


def _edge_floor(c):
    """dist(c, u*Z) with u = 2**(floor(log2(delta/2)) - 52), delta = c's distance to the nearest double."""
    delta = abs(c - mpf(float(c)))
    u = mpf(2) ** (int(mp.floor(mp.log(delta / 2, 2))) - 52)
    return delta, abs(c - mp.nint(c / u) * u)


def test_zero_band_lies_under_the_edge_floor():
    # the floor derived in _sign_exact, recomputed: a+b or a-b of doubles
    # within delta/2 of c lies on the grid u*Z, so it is at least
    # dist(c, u*Z) from c.  Splits of c into a double a, near c or c minus
    # a power-of-two share of it, and the doubles nearest c - a keep that
    # distance.  The 40-digit zero band lies under the least floor and
    # 1,000 times above the error of every 40-digit read the classifier makes
    from carlson_bounds import classifier

    floors = []
    with mp.workprec(400):
        for c, want in ((2 / mp.pi, 9.37e-34), (4 / mp.pi**2, 7.50e-34), (mpf(1) / 3, 5.14e-34)):
            delta, floor = _edge_floor(c)
            assert floor < delta / 2 and abs(floor / want - 1) < 1e-3, (c, floor)
            floors.append(floor)
            near = [_ulps(float(c), k) for k in range(-4, 5)]
            near += [float(c * (1 - mpf(2) ** -k)) for k in range(1, 60)]
            for a in near:
                rest = float(c - a)
                for b in (_ulps(rest, -1), rest, _ulps(rest, 1)):
                    assert abs(mpf(a) + mpf(b) - c) >= floor, (c, a, b)
    assert classifier._HP_BAND < min(floors) < 5.2e-34

    # the 40-digit reads: the four edge values, g' at the last double below
    # 1, and g and g' at the float64 zero of g', against 120 digits
    rng = random.Random(45)
    params = [Params(_ulps(a, k), b) for a, b in _EDGE_PAIRS for k in (-1, 0, 1)]
    for _ in range(10):
        d = rng.uniform(ONE_THIRD + 1e-6, FOUR_OVER_PI_SQ - 1e-6)
        params.append(Params(*_pair_at(d, _s_star50(d), 0)))
    params += [Params(ONE_THIRD, -(10.0**-k)) for k in (18, 17, 16)]
    errors = []
    for p in params:
        for f, args in ((family._g, (0,)), (family._g_at_1, ()), (family._g_prime, (0,)),
                        (family._g_prime_at_1, ())):
            with hp_context(40):
                v40 = f(family._MP, p, *args)
            with hp_context(120):
                errors.append(abs(v40 - f(family._MP, p, *args)))
        xs = [classifier._TOP]
        if classifier.in_window(p) and classifier._g_prime_zero64(p) is not None:
            xs.append(classifier._g_prime_zero64(p))
        for x in xs:
            for ev in (g_eval, g_prime_eval):
                errors.append(abs(ev(p, EvalPoint(x, 40)) - ev(p, EvalPoint(x, 120))))
    assert 1000 * max(errors) < classifier._HP_BAND, max(errors)


def test_g_prime_at_the_last_double_is_read_with_doubled_precision(monkeypatch):
    # a-b within 1e-14 of 1/3 puts float64 g'(1 - 2**-53) inside the sign
    # band, so it is re-read at 40 digits, through g_prime_eval, which takes
    # twice the bits 1 - x lacks: against 120 digits it is off by under
    # 1e-60, where the closed form at 50 digits alone is 6.7e-36 off
    from carlson_bounds import classifier

    seen = []
    real = family.g_prime_eval

    def recording(p, pt):
        v = real(p, pt)
        seen.append((pt, v))
        return v

    monkeypatch.setattr(family, "g_prime_eval", recording)
    for gap in (-1e-15, -1e-17, 1e-17, 1e-15):
        p = Params(0.5, 0.5 - ONE_THIRD - gap)
        seen.clear()
        classifier._g_prime_zero64(p)
        reads = [v for pt, v in seen if pt == EvalPoint(classifier._TOP, 40)]
        assert len(reads) == 1, (p, seen)
        assert abs(reads[0] - real(p, EvalPoint(classifier._TOP, 120))) < 1e-60, p


def test_min_g_above_every_double_is_read_through_its_enclosure(monkeypatch):
    # where the zero of g' lies above every double, the 40-digit min g is
    # an end of its enclosure at the last double, g - g'**2 * 45/4 <= min g
    # <= g, which is under 2.7e-34 wide; one that straddles the band gives
    # 0, Indeterminate
    from carlson_bounds import classifier

    with workdps(50):
        third = mpf(1) / 3
        pairs = [(ONE_THIRD, float(ONE_THIRD - third - mpf(gap))) for gap in ("1e-18", "4e-18")]
        pairs += [(float(b + third + mpf("2e-18")), b) for b in (-0.33, -0.335)]
    for a, b in pairs:
        p = Params(a, b)
        assert classifier._g_prime_zero64(p) is None, p
        with hp_context(40):
            got = classifier._g_min(family._MP, p)
        with mp.workprec(400):
            d = mpf(a) - mpf(b)
            th = _tangent_theta(d, 400)
            min_g = mpf(a) + mpf(b) + d * mp.cos(th) - mp.sin(th) / th
            assert got * min_g > 0 and abs(got - min_g) < 2.7e-34, (p, got, min_g)
        with monkeypatch.context() as m, hp_context(40):
            m.setattr(classifier, "_HP_BAND", 2 * abs(min_g))
            assert classifier._g_min(family._MP, p) == 0, p


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
    # the double nearest the zero, also for a tol below 2**-54, where
    # 1 - tol rounds to 1
    with workdps(50):
        assert fine == float(mp.cos(_tangent_theta(mpf(p.a) - mpf(p.b))))
    for tol in (5e-17, 1e-300):
        assert critical_point_g(p, tol) == fine, tol


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


@pytest.mark.parametrize("tol", [5e-17, 1e-20, 1e-300])
def test_critical_point_below_the_spacing_is_the_nearest_double(tol):
    # from a zero 1.5e-18 above x = 0 to one 3e-5 below x = 1, the 40-digit
    # polish of the kept float64 zero rounds to the double nearest the zero;
    # 200 halvings at 70 digits fix the zero to 1e-60, below half its spacing
    ds = [FOUR_OVER_PI_SQ - 10.0**-k for k in (15, 12, 9, 6)]
    ds += [ONE_THIRD + (FOUR_OVER_PI_SQ - ONE_THIRD) * i / 12 for i in range(1, 12)]
    ds += [ONE_THIRD + 10.0**-k for k in range(2, 7)]
    params = [Params(0.5, 0.5 - d) for d in ds]
    params.append(Params(0.40728366059981536, 0.0019989260304642703))  # a-b is 4/pi**2 - 1.8e-19
    for p in params:
        with workdps(70):
            zero = mp.cos(_tangent_theta(mpf(p.a) - mpf(p.b), 200))
            want = float(zero) if zero > tol else None  # within tol of 0: None
            assert critical_point_g(p, tol) == want, (p, tol)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_critical_point_reads_its_edge_signs_under_the_band(tol, monkeypatch):
    # g'(1-) = a-b-1/3 is about 1e-8, far above its float64 error, and
    # g(1-) = 2a-1 = 0 does not bear on g': no sign needs 40 digits.  The
    # zero lies 2.25e-7 below x = 1, so a tol of 1e-6 finds none
    regions = _count_regions(monkeypatch)
    p = Params(0.5, 0.5 - (ONE_THIRD + 1e-8))
    x0 = critical_point_g(p, tol)
    assert regions == []
    with workdps(50):
        zero = mp.cos(_tangent_theta(mpf(p.a) - mpf(p.b)))
        if 1 - zero < tol:
            assert x0 is None
        else:
            assert abs(x0 - zero) <= tol, x0


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


@pytest.mark.parametrize(
    "a, b",
    [
        (1.0199534000186689e141, 3.4077169313384956e61),  # discriminants -inf and NaN
        (1e200, 1e200),  # a = b: disc_quadratic is 0 * inf
        (1e-150, 1e-150 * (1 - 2**-52)),  # (a - b)**2 is 0 under a positive discriminant
        (5.3023e-319, 5.3023e-319),  # the envelope at x1 = a + b divides by a subnormal
        (5.575959605369805e-238, 85377874756137.6),  # the envelope's exp overflows
    ],
)
def test_extrema_beyond_float64_raise(a, b):
    # JSON has no inf or NaN: a report float64 cannot hold is refused
    with pytest.raises(ValueError, match="float64 range"):
        extrema_points(Params(a, b))


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
