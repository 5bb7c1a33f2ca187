import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps
from mpmath.libmp import from_rational, round_nearest, to_float

from carlson_bounds import family
from carlson_bounds.family import (
    CHAIN_SELECTORS,
    EvalPoint,
    Params,
    big_f_eval,
    chain_eval,
    envelope_eval,
    f_eval,
    f_limit_at_1,
    g_eval,
    g_limit_at_1,
    g_min_lower_bound,
    g_prime_eval,
    g_prime_limit_at_1,
)
from carlson_bounds.oracle import acos_mp

HP = 40


def hp_pt(x, digits=HP):
    return EvalPoint(x, digits=digits)


# ---------------------------------------------------------------------------
# f


def test_f_reduces_to_arccos_at_zero_params():
    assert math.isclose(f_eval(Params(0, 0), EvalPoint(0.5)), math.pi / 3, rel_tol=1e-14)


def test_f_limit_at_zero_is_half_pi():
    v = f_eval(Params(0.5, 1 / 6), hp_pt("1e-9"))
    with workdps(50):
        assert abs(v - mp.pi / 2) < 1e-7


def test_f_between_its_limits_when_increasing():
    v = f_eval(Params(0.5, 1 / 6), EvalPoint(0.9))
    assert math.pi / 2 < v < 2 ** (2 / 3)


def test_f_limit_at_1():
    assert f_limit_at_1(Params(0.5, 1 / 6)) == pytest.approx(4 ** (1 / 3), rel=1e-15)
    assert f_limit_at_1(Params(0.4, 0.0)) == 0.0
    assert f_limit_at_1(Params(0.6, 0.0)) == math.inf


def test_f_domain():
    with pytest.raises(ValueError):
        f_eval(Params(0, 0), EvalPoint(0.0))
    with pytest.raises(ValueError):
        f_eval(Params(0, 0), EvalPoint(1.0))


def test_params_must_be_finite():
    with pytest.raises(ValueError):
        Params(math.inf, 0.0)


# ---------------------------------------------------------------------------
# g and g'


def test_g_closed_form_at_zero():
    p = Params(0.5, 1 / 6)
    assert g_eval(p, EvalPoint(0.0)) == 0.5 + 1 / 6 - 2.0 / math.pi
    assert g_eval(Params(0, 0), EvalPoint(0.0)) == -2.0 / math.pi
    assert g_eval(p, EvalPoint(0.0)) == pytest.approx(0.0300, abs=1e-4)


def test_g_negative_sample():
    # high-precision sign check at an interior point
    v = g_eval(Params(0.5, 0.14), hp_pt(0.5))
    assert v < 0


def test_g_limit_at_1():
    assert g_limit_at_1(Params(0.5, 123.0)) == 0.0
    assert g_limit_at_1(Params(0, 0)) == -1.0
    assert g_limit_at_1(Params(0.6, 0.2)) == pytest.approx(0.2, rel=1e-15)


def test_g_endpoint_limits_high_precision():
    for p in (Params(0.5, 0.14), Params(0.8, 0.3), Params(-0.1, 0.4)):
        near0 = float(g_eval(p, hp_pt("1e-10")))
        assert abs(near0 - (p.a + p.b - 2.0 / math.pi)) < 1e-8
        with workdps(50):
            near1 = float(g_eval(p, hp_pt(1 - mpf("1e-10"))))
        assert abs(near1 - (2.0 * p.a - 1.0)) < 1e-4


def test_g_prime_closed_form_at_zero():
    a = 4.0 / math.pi**2
    assert g_prime_eval(Params(a, 0.0), EvalPoint(0.0)) == 0.0
    v = g_prime_eval(Params(0.5, 1 / 6), EvalPoint(0.0))
    assert v == pytest.approx(1 / 3 - 4 / math.pi**2, rel=1e-14)
    assert v == pytest.approx(-0.0720, abs=1e-4)


def test_g_prime_near_one_approaches_limit():
    # limit a - b - 1/3 = 0 for (1/2, 1/6); value at 1 - 1e-8 within 1e-3
    v = g_prime_eval(Params(0.5, 1 / 6), hp_pt(1.0 - 1e-8))
    assert abs(float(v)) < 1e-3


def test_g_prime_limit_at_1():
    assert g_prime_limit_at_1(Params(1 / 3, 0.0)) == pytest.approx(0.0, abs=1e-16)
    assert g_prime_limit_at_1(Params(0.5, 1 / 6)) == pytest.approx(0.0, abs=1e-15)
    assert g_prime_limit_at_1(Params(0.5, 0.14)) == pytest.approx(0.36 - 1 / 3, rel=1e-12)


def test_g_prime_float64_accurate_near_one():
    # the closed form's two terms of size 1/(1-x) cancel here; float64 g'
    # takes k(theta)'s series instead
    v = g_prime_eval(Params(0.5, 1 / 6), EvalPoint(1.0 - 1e-8))
    assert v == pytest.approx(-2.0e-8 / 45.0, rel=1e-2)


# ---------------------------------------------------------------------------
# proof chain


def test_chain_trivials():
    assert chain_eval("q", EvalPoint(0.0)) == -math.pi / 2
    h0 = chain_eval("h", EvalPoint(0.0))
    assert h0 == pytest.approx(math.pi**2 / 4 - 2.0, rel=1e-14)
    assert h0 > 0
    assert chain_eval("g_second", EvalPoint(0.0)) > 0


def test_chain_big_g_vanishes_at_one():
    v = chain_eval("big_g", hp_pt(1.0 - 1e-10))
    assert abs(float(v)) < 1e-4
    assert float(v) < 0  # G < 0 on (0,1)


def test_chain_rejects_unknown_selector():
    with pytest.raises(ValueError):
        chain_eval("nope", EvalPoint(0.5))
    assert set(CHAIN_SELECTORS) == {"h", "q", "g_second", "big_g"}


def test_sign_chain_on_grid():
    n = 1000
    xs = [(1.0 - 1e-6) * i / (n - 1) for i in range(n)]
    qv = [float(chain_eval("q", EvalPoint(x))) for x in xs]
    hv = [float(chain_eval("h", EvalPoint(x))) for x in xs]
    gv = [float(chain_eval("g_second", EvalPoint(x))) for x in xs]
    assert all(q < 0 for q in qv)
    assert all(h > 0 for h in hv)
    assert all(g > 0 for g in gv)
    assert all(q2 > q1 for q1, q2 in zip(qv, qv[1:]))  # q increasing
    assert all(h2 < h1 for h1, h2 in zip(hv, hv[1:]))  # h decreasing


def test_g_prime_increasing_for_random_params():
    rng = random.Random(7)
    xs = [i / 200 for i in range(200)]
    for _ in range(50):
        p = Params(rng.uniform(-1, 1), rng.uniform(-1, 1))
        vals = [float(g_prime_eval(p, EvalPoint(x))) for x in xs]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# envelope


def test_envelope_limit_at_zero():
    p = Params(0.5, 1 / 6)
    v = float(envelope_eval(p, hp_pt("1e-10")))
    assert abs(v - 1.0 / (p.a + p.b)) < 1e-8
    assert abs(v - 1.5) < 1e-8


def test_envelope_limit_at_one_for_a_half():
    for b in (0.14, 0.3):
        with workdps(50):
            v = float(envelope_eval(Params(0.5, b), hp_pt(1 - mpf("1e-12"))))
        assert v == pytest.approx(2 ** (b + 0.5), rel=1e-9)


def test_envelope_pole():
    # a+b+(a-b)x = 0 at x = 0.5 for (a, b) = (0.5, -1.5)
    with pytest.raises(ValueError):
        envelope_eval(Params(0.5, -1.5), EvalPoint(0.5))


def test_envelope_argmax_matches_quadratic_root():
    # dense grid argmax with parabolic refinement against the closed form
    from carlson_bounds.classifier import extrema_points

    p = Params(0.5, 0.14)
    n = 100_000
    vals = [envelope_eval(p, EvalPoint(i / (n + 1))) for i in range(1, n + 1)]
    k = max(range(n), key=vals.__getitem__)
    x_k = (k + 1) / (n + 1)
    h = 1.0 / (n + 1)
    d1 = (vals[k + 1] - vals[k - 1]) / 2.0
    d2 = vals[k + 1] - 2.0 * vals[k] + vals[k - 1]
    x_star = x_k - h * d1 / d2
    assert abs(x_star - extrema_points(p).x1) < 1e-6


# ---------------------------------------------------------------------------
# minimum bound for g


def test_g_min_lower_bound_arithmetic():
    v = g_min_lower_bound(Params(0.5, 1 / 8))
    want = 0.625 - 2.0 * (3 / 8) ** 1.5 / math.sqrt(0.5)
    assert v == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("p", [Params(0.5, 1 / 8), Params(0.5, 0.14)])
def test_g_min_lower_bound_below_grid_minimum(p):
    bound = g_min_lower_bound(p)
    grid_min = min(float(g_eval(p, EvalPoint(i / 10_001))) for i in range(1, 10_001))
    assert bound <= grid_min


def test_g_min_lower_bound_near_singular_edge():
    d = 0.25 + 1e-9
    v = g_min_lower_bound(Params(d, 0.0))
    assert math.isfinite(v)
    assert v < -1000  # large-magnitude negative, no overflow
    with pytest.raises(ValueError):
        g_min_lower_bound(Params(0.25, 0.0))


# ---------------------------------------------------------------------------
# F


def test_big_f_limits():
    with workdps(60):
        sup = float(big_f_eval(hp_pt("1e-10")))
        want = float((mpf(1) / 2 + mp.sqrt(2)) * mp.pi)
        assert abs(sup - want) < 1e-8
        inf = float(big_f_eval(hp_pt(1 - mpf("1e-12"), digits=50)))
        assert abs(inf - 6.0) < 1e-4


def test_big_f_midrange_between_constants():
    v = big_f_eval(EvalPoint(0.5))
    assert 6.0 < v < (0.5 + math.sqrt(2)) * math.pi


# ---------------------------------------------------------------------------
# derivative consistency (central finite differences at 40 digits)


def _fd(fn, x, delta=mpf("1e-10")):
    return (fn(x + delta) - fn(x - delta)) / (2 * delta)


def test_derivative_factorizations():
    rng = random.Random(42)
    with workdps(50):
        for _ in range(1000):
            a = rng.uniform(-1, 1)
            b = rng.uniform(-1, 1)
            x = mpf(rng.uniform(0.05, 0.95))
            p = Params(a, b)

            # f' = (1+x)**(b-1) * (1-x)**(-a-1) * arccos x * g
            analytic = (
                (1 + x) ** (b - 1) * (1 - x) ** (-a - 1) * acos_mp(x) * g_eval(p, hp_pt(x))
            )
            fd = _fd(lambda t: f_eval(p, hp_pt(t)), x)
            assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), abs(fd), mpf("1e-12"))

            # g' matches finite differences of g
            analytic = g_prime_eval(p, hp_pt(x))
            fd = _fd(lambda t: g_eval(p, hp_pt(t)), x)
            assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), abs(fd), mpf("1e-12"))

    with workdps(50):
        for _ in range(1000):
            x = mpf(rng.uniform(0.05, 0.95))
            # F' = (1+sqrt(2(x+1))) * sqrt(1-x**2) / ((1+x)(x-1)**2) * G(x)
            kernel = chain_eval("big_g", hp_pt(x))
            pref = (1 + mp.sqrt(2 * (x + 1))) * mp.sqrt((1 - x) * (1 + x)) / ((1 + x) * (x - 1) ** 2)
            analytic = pref * kernel
            fd = _fd(lambda t: big_f_eval(hp_pt(t)), x)
            assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), abs(fd), mpf("1e-12"))


# ---------------------------------------------------------------------------
# precision plumbing


_P = Params(0.7, 0.2)

# every evaluator
_EVALUATORS = {
    "f": lambda pt: f_eval(_P, pt),
    "g": lambda pt: g_eval(_P, pt),
    "g_prime": lambda pt: g_prime_eval(_P, pt),
    "h": lambda pt: chain_eval("h", pt),
    "q": lambda pt: chain_eval("q", pt),
    "g_second": lambda pt: chain_eval("g_second", pt),
    "big_g": lambda pt: chain_eval("big_g", pt),
    "envelope": lambda pt: envelope_eval(_P, pt),
    "big_f": lambda pt: big_f_eval(pt),
}


def _f64_bound(name, ref):
    """Float64 error bound against 50 digits: absolute for g', relative for
    the chain, and 1e-12*max(1, |v|) for the others."""
    if name == "g_prime":
        return 4e-15
    if name in CHAIN_SELECTORS:
        return 1e-12 * abs(ref)
    return 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("name", list(_EVALUATORS))
def test_float64_requests_promote_near_endpoints(name, monkeypatch):
    # no float64 request is promoted: with hp_context unavailable every one
    # stays in float64, at the endpoints as inside, and is within its bound
    # of 50 digits; each formula is written once for both backends, so a
    # wrong backend mapping would show here as well
    fn = _EVALUATORS[name]
    rng = random.Random(11)
    xs = [5e-324, 1e-9, 1.0 - 1e-9, 1.0 - 2.0**-53]
    xs += [rng.uniform(0.0, 1.0) for _ in range(200)]
    xs += [1.0 - 10.0 ** rng.uniform(-16.0, 0.0) for _ in range(100)]
    refs = [float(fn(hp_pt(x, 50))) for x in xs]

    def no_region(_digits):
        raise AssertionError("float64 request entered a high-precision region")

    monkeypatch.setattr(family, "hp_context", no_region)
    for x, ref in zip(xs, refs):
        v64 = fn(EvalPoint(x))
        assert isinstance(v64, float)
        assert abs(v64 - ref) <= _f64_bound(name, ref), (x, v64, ref)


def _chain_points():
    """x = 1 - k*2**-53, 1 - x log-spread down to 1e-16, small and uniform x,
    and an ulp ladder across cos(theta0), where the kernels change form."""
    rng = random.Random(53)
    xs = [1.0 - k * 2.0**-53 for k in range(1, 65)]
    xs += [1.0 - math.floor(10.0 ** rng.uniform(2.0, 8.0)) * 2.0**-53 for _ in range(200)]
    xs += [1.0 - 10.0 ** rng.uniform(-16.0, 0.0) for _ in range(400)]
    xs += [0.0, 5e-324, 1e-300, 1e-9] + [rng.uniform(0.0, 1.0) for _ in range(100)]
    x0 = math.cos(family._THETA0)
    xs += [x0 + k * math.ulp(x0) for k in range(-40, 41)]
    return xs


# chain expression, its evaluator, whether its bound against 50 digits is
# relative, and that bound
_CHAIN_F64 = {
    "g_prime": (family._g_prime, lambda pt: g_prime_eval(_P, pt), False, 4e-15),
    "h": (family._h, lambda pt: chain_eval("h", pt), True, 1e-12),
    "q": (family._q, lambda pt: chain_eval("q", pt), True, 1e-12),
    "g_second": (family._g_second, lambda pt: chain_eval("g_second", pt), True, 1e-12),
    "big_g": (family._big_g, lambda pt: chain_eval("big_g", pt), True, 1e-12),
}


@pytest.mark.parametrize("name", list(_CHAIN_F64))
def test_float64_chain_matches_50_digits(name):
    # the float64 kernels are series in theta (below theta0 for g', h and
    # q, everywhere for G) and the closed forms elsewhere; a float64 request
    # is the expression itself, within 4e-15 absolute for g' and 1e-12
    # relative for h, q, g'' and G of 50 digits (the closed forms alone
    # lose every digit at 1 - 2**-53)
    expr, fn, relative, bound = _CHAIN_F64[name]
    for x in _chain_points():
        v64 = expr(family._F64, _P, x)
        ref = float(fn(hp_pt(x, 50)))
        err = abs(v64 - ref) / (abs(ref) if relative else 1.0)
        assert err <= bound, (x, v64, ref)
        assert fn(EvalPoint(x)) == v64, x


def test_chain_series_coefficients_match_50_digits():
    exact = {"K": family._K_EXACT, "Q": family._Q_EXACT, "G": family._G_EXACT}
    assert exact["K"][:2] == [(1, 3), (1, 45)]
    assert exact["Q"][0] == (-4, 45)
    assert exact["G"][0] == (-1, 720)
    # each float64 entry is its exact value rounded once
    for table, name in ((family._K, "K"), (family._Q, "Q"), (family._G, "G")):
        assert len(table) == len(exact[name])
        for j, (c, (p, q)) in enumerate(zip(table, exact[name])):
            assert c == to_float(from_rational(p, q, 53, round_nearest)), (name, j)
    # k(theta) = sum 2**(2n) |B_2n| / (2n)! theta**(2n-2), with mpmath's exact
    # Bernoulli numbers
    for n, (p, q) in enumerate(exact["K"], start=1):
        bp, bq = mp.bernfrac(2 * n)
        assert Fraction(p, q) == Fraction(2 ** (2 * n) * abs(bp), bq * math.factorial(2 * n)), n
    # q / theta**5 from the power series of 3 sin(2t)/2 / (2 + cos(2t)) - t,
    # divided in mpf at 50 digits
    with workdps(50):
        size = 2 * len(exact["Q"]) + 5
        num = [0 if i % 2 == 0 else mpf(3) / 2 * (-4) ** (i // 2) * 2 / mp.factorial(i) for i in range(size)]
        den = [(-4) ** (i // 2) / mp.factorial(i) if i % 2 == 0 else 0 for i in range(size)]
        den[0] += 2
        ser = []
        for i in range(size):
            ser.append((num[i] - mp.fsum(ser[j] * den[i - j] for j in range(i))) / den[0])
        ser[1] -= 1
        assert max(abs(c) for c in ser[:5]) < mpf("1e-45")
        for j, (p, q) in enumerate(exact["Q"]):
            assert abs(mpf(p) / q - ser[5 + 2 * j]) < mpf("1e-45") * abs(ser[5 + 2 * j]), j
    # G against its closed form t - (4 sin(t/2) + sin(t)) / (1 + 2 cos(t/2)) at
    # 60 digits: the terms fall by 1/(4pi/3)**2 < 1/16 in theta**2, so twice
    # the last term times theta**2/16 bounds the omitted ones
    with workdps(60):
        for theta in (mpf(1) / 4, mpf(1) / 2, mpf(3) / 4, mpf(1)):
            t = theta * theta
            closed = theta - (4 * mp.sin(theta / 2) + mp.sin(theta)) / (1 + 2 * mp.cos(theta / 2))
            series = theta**5 * mp.fsum(mpf(p) / q * t**j for j, (p, q) in enumerate(exact["G"]))
            last = abs(mpf(exact["G"][-1][0]) / exact["G"][-1][1])
            tail = 2 * last * theta**5 * t ** len(exact["G"]) / 16
            assert abs(closed - series) <= tail + mpf("1e-55"), theta


@pytest.mark.parametrize("digits", [-20, 0, 16, 201, 10**6])
def test_digits_outside_the_oracle_range_raise(digits, monkeypatch):
    # rejected before a working precision is set: no high-precision region
    # (and so no long computation at 10**6 digits) starts
    def no_region(_digits):
        raise AssertionError("high-precision region entered")

    monkeypatch.setattr(family, "hp_context", no_region)
    for fn in _EVALUATORS.values():
        with pytest.raises(ValueError, match="precision must be in"):
            fn(EvalPoint(0.5, digits=digits))


def test_points_below_the_double_range_are_evaluated_where_they_lie():
    # they are not moved onto x = 0: a negative one is outside [0, 1)
    p = Params(0.5, 0.2)
    for fn in (lambda pt: g_eval(p, pt), lambda pt: g_prime_eval(p, pt)):
        with pytest.raises(ValueError):
            fn(EvalPoint("-1e-400", 40))
        assert abs(fn(EvalPoint("1e-400", 40)) - fn(EvalPoint(0.0, 40))) < mpf("1e-45")


def test_string_points_survive_at_high_precision():
    with workdps(60):
        v = g_eval(Params(0.5, 0.2), EvalPoint("0.999999999999999999", digits=50))
        # 1 - x = 1e-18 still resolved: value near the limit 2a-1 = 0
        assert abs(v) < 1e-10


@given(
    a=st.floats(min_value=-1, max_value=1, allow_nan=False),
    b=st.floats(min_value=-1, max_value=1, allow_nan=False),
    x=st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_f_positive_everywhere(a, b, x):
    assert f_eval(Params(a, b), EvalPoint(x)) > 0.0
