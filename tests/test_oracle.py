import math
import random
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps
from mpmath.libmp import dps_to_prec, from_float, mpf_abs, mpf_div, mpf_sub, round_nearest, to_float

from carlson_bounds.bounds import bound_table
from carlson_bounds.family import EvalPoint, Params, chain_eval, f_eval, g_prime_eval
from carlson_bounds.oracle import (
    CONSTANT_NAMES,
    GUARD_DIGITS,
    HPValue,
    arccos_hp,
    arccos_stable,
    const_hp,
    default_digits,
)


def ulp_distance(value: float, reference: HPValue) -> float:
    """|value - reference| measured in ulps of the double nearest the reference."""
    ref_d = float(reference.value)
    unit = math.ulp(abs(ref_d)) if ref_d != 0.0 else math.ulp(0.0)
    # the reference's working precision, passed to libmp explicitly
    prec = dps_to_prec(reference.digits + GUARD_DIGITS)
    diff = mpf_sub(from_float(value), reference.value._mpf_, prec, round_nearest)
    ratio = mpf_div(mpf_abs(diff, prec, round_nearest), from_float(unit), prec, round_nearest)
    return to_float(ratio, rnd=round_nearest)


def rel_err(value: mpf, reference: mpf) -> float:
    return float(abs(value - reference) / abs(reference))


def test_arccos_zero_is_half_pi_to_50_digits():
    v = arccos_hp(0, 50)
    with workdps(70):
        assert rel_err(v.value, mp.pi / 2) < 1e-49


def test_arccos_endpoints():
    assert float(arccos_hp(1, 50).value) == 0.0
    with workdps(70):
        assert rel_err(arccos_hp(-1, 50).value, mp.pi) < 1e-49


def test_arccos_near_one_matches_independent_series():
    # oracle: arccos(1-t) = sqrt(2t) * (1 + t/12 + 3t^2/160 + 5t^3/896 + ...)
    # binary-exact point t = 2**-67 ~ 6.8e-21 so oracle and series see the
    # same real number regardless of working precision
    with workdps(70):
        t = mpf(2) ** -67
        x = 1 - t
        series = mp.sqrt(2 * t) * (1 + t / 12 + 3 * t**2 / 160 + 5 * t**3 / 896)
        v = arccos_hp(x, 50)
        assert rel_err(v.value, series) < 1e-45
    # decimal point 1 - 1e-20: leading order sqrt(2)*1e-10
    v = arccos_hp("0.99999999999999999999", 50)
    with workdps(70):
        assert rel_err(v.value, mp.sqrt(2) * mpf(10) ** -10) < 1e-20


def test_arccos_hp_domain_and_precision_errors():
    with pytest.raises(ValueError):
        arccos_hp(1.0000001, 40)
    with pytest.raises(ValueError):
        arccos_hp(-2, 40)
    with pytest.raises(ValueError):
        arccos_hp(0.5, 16)
    with pytest.raises(ValueError):
        arccos_hp(0.5, 500)


@pytest.mark.parametrize(
    "x", [math.nan, math.inf, -math.inf, "nan", "inf", "-inf", mpf("nan"), mpf("-inf")]
)
def test_arccos_hp_rejects_nan_and_infinities(x):
    with pytest.raises(ValueError, match=r"arccos domain is \[-1, 1\]"):
        arccos_hp(x, 40)


def test_arccos_hp_works_at_its_own_precision():
    # the result depends on digits alone, not on mpmath's global precision,
    # and the call leaves that precision as it found it
    x_mp = mpf(0.3)
    want = {d: arccos_hp("0.3", d).value for d in (20, 60)}
    for dps in (5, 300):
        with workdps(dps):
            for d in (20, 60):
                assert arccos_hp("0.3", d).value == want[d]
                assert arccos_hp(0.3, d).value == arccos_hp(x_mp, d).value
            assert mp.dps == dps


def test_default_digits_env_values(monkeypatch):
    monkeypatch.delenv("CARLSON_PRECISION", raising=False)
    assert default_digits() == 40
    monkeypatch.setenv("CARLSON_PRECISION", "30")
    assert default_digits() == 30
    monkeypatch.setenv("CARLSON_PRECISION", "abc")
    with pytest.raises(ValueError, match="CARLSON_PRECISION must be an integer, got 'abc'"):
        default_digits()
    monkeypatch.setenv("CARLSON_PRECISION", "10")
    with pytest.raises(ValueError, match=r"precision must be in \[17, 200\]"):
        default_digits()


def test_digit_counts_must_be_whole_numbers():
    # a fractional or non-numeric count is refused, not used as a working
    # precision of 50.7 digits; an integral float is the integer count
    for digits in (40.5, 40.7, "40", math.nan, math.inf, mpf(40)):
        with pytest.raises(ValueError, match="whole number of digits"):
            arccos_hp(0.5, digits)
        with pytest.raises(ValueError, match="whole number of digits"):
            f_eval(Params(0.5, 0.2), EvalPoint(0.5, digits))
        with pytest.raises(ValueError, match="whole number of digits"):
            bound_table([0.5], digits=digits)
    v = arccos_hp(0.5, 40.0)
    assert v.digits == 40 and type(v.digits) is int
    assert v.value == arccos_hp(0.5, 40).value


def test_hpvalue_carries_digits():
    v = arccos_hp(0.25, 33)
    assert isinstance(v, HPValue)
    assert v.digits == 33
    assert 0 < float(v) < math.pi


@given(
    x=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    digits=st.integers(min_value=17, max_value=60),
)
def test_reflection_identity(x, digits):
    a = arccos_hp(x, digits)
    b = arccos_hp(-x, digits)
    with workdps(digits + GUARD_DIGITS):
        assert rel_err(a.value + b.value, mp.pi) < 10.0 ** (2 - digits)


def test_strictly_decreasing_on_grid():
    xs = [-1 + 2 * i / 400 for i in range(401)]
    vals = [arccos_hp(x, 30).value for x in xs]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))


def test_constants_against_literals():
    assert mp.nstr(const_hp("TWO_OVER_PI", 20).value, 21).startswith("0.6366197723675813430")
    assert mp.nstr(const_hp("CBRT4", 20).value, 20).startswith("1.587401051968199474")
    with workdps(40):
        # (1/2 + sqrt(2))*pi, recomputed independently
        want = (mpf(1) / 2 + mp.sqrt(2)) * mp.pi
        assert rel_err(const_hp("BEST_UPPER_THM3", 20).value, want) < 1e-19
        assert mp.nstr(const_hp("BEST_UPPER_THM3", 20).value, 15).startswith("6.0136792649532")
        assert rel_err(const_hp("PI", 30).value, mp.pi) < 1e-29
        assert rel_err(const_hp("FOUR_OVER_PI_SQ", 30).value, 4 / mp.pi**2) < 1e-29
        assert rel_err(const_hp("ONE_THIRD", 30).value, mpf(1) / 3) < 1e-29
        assert rel_err(const_hp("TWO_SQRT2", 30).value, 2 * mp.sqrt(2)) < 1e-29
    # CBRT4 equals 2**(1/6 + 1/2): the b = 1/6 upper constant
    with workdps(40):
        assert rel_err(const_hp("CBRT4", 30).value, mpf(2) ** (mpf(1) / 6 + mpf(1) / 2)) < 1e-29


def test_constants_cover_all_names_and_reject_unknown():
    for name in CONSTANT_NAMES:
        assert float(const_hp(name, 20)) > 0
    with pytest.raises(ValueError):
        const_hp("EULER", 20)


def test_arccos_stable_trivials():
    assert arccos_stable(0.0) == 1.5707963267948966
    assert arccos_stable(-1.0) == math.pi
    assert arccos_stable(1.0) == 0.0
    with pytest.raises(ValueError):
        arccos_stable(1.5)
    with pytest.raises(ValueError):
        arccos_stable(math.nan)


def test_arccos_stable_example_point():
    assert ulp_distance(arccos_stable(0.99999999), arccos_hp(0.99999999, 30)) <= 4.0


def test_concurrent_mixed_precision_callers():
    # callers at different precisions must not corrupt each other's results
    # (arccos_hp hands its own precision to mpmath and takes no lock); workers
    # only call the package and the errors are measured after the join, since
    # a workdps in a worker would change mpmath's global precision, and with
    # it the error arithmetic, under the other threads
    from concurrent.futures import ThreadPoolExecutor

    xs = [(i + 1) / 17 for i in range(16)]
    refs = [arccos_hp(x, 150).value for x in xs]

    def worker(digits):
        return digits, [arccos_hp(x, digits).value for _ in range(30) for x in xs]

    with ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(worker, (17, 21, 33, 40, 52, 64, 80, 100), timeout=120))
    with workdps(160):
        for digits, values in results:
            worst = max(float(abs(v - ref) / ref) for v, ref in zip(values, refs * 30))
            assert worst < 10.0 ** (1 - digits), (digits, worst)


def test_oracle_and_table_ignore_precision_set_by_another_thread():
    # another thread sets mpmath's global precision in a loop while this one
    # calls arccos_hp, bound_table and float64 family evaluators within 1e-8
    # of each end; every value must be bit-identical to the values computed
    # with no other thread running
    xs = [(i + 1) / 41 for i in range(40)]
    ends = [k * 1e-10 for k in range(1, 21)] + [1.0 - k * 1e-10 for k in range(1, 21)]
    p = Params(0.7, 0.2)
    evaluators = (
        lambda pt: f_eval(p, pt),
        lambda pt: g_prime_eval(p, pt),
        lambda pt: chain_eval("q", pt),
        lambda pt: chain_eval("big_g", pt),
    )

    def compute():
        hp = [arccos_hp(x, d).value for d in (40, 100) for x in xs]
        f64 = [fn(EvalPoint(x)) for fn in evaluators for x in ends]
        return hp, [bound_table(xs, None, d) for d in (40, 100)], f64

    want = compute()
    stop = threading.Event()

    def meddle():
        saved = mp.prec
        try:
            while not stop.is_set():
                for dps in (5, 15, 300):
                    mp.dps = dps
        finally:
            mp.prec = saved

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    meddler = threading.Thread(target=meddle, daemon=True)
    meddler.start()
    try:
        got = [compute() for _ in range(80)]
    finally:
        stop.set()
        meddler.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not meddler.is_alive()
    assert sum(g != want for g in got) == 0


def test_ulp_distance_matches_global_precision_arithmetic():
    # the explicit-precision libmp form gives the bits of the operator form
    rng = random.Random(7)
    for _ in range(300):
        x = rng.uniform(-1.0, 1.0)
        ref = arccos_hp(x, rng.choice((17, 30, 64)))
        for value in (arccos_stable(x), float(ref), math.nextafter(float(ref), 0.0), 0.0):
            unit = math.ulp(float(ref.value))
            with workdps(ref.digits + GUARD_DIGITS):
                want = float(abs(mpf(value) - ref.value) / mpf(unit))
            assert ulp_distance(value, ref) == want


def test_arccos_stable_ulp_agreement_bulk():
    rng = random.Random(12345)
    xs = [rng.uniform(-1.0, 1.0) for _ in range(100_000)]
    # 1000 points within 1e-12 of each endpoint
    xs += [1.0 - 1e-12 * rng.random() for _ in range(1000)]
    xs += [-1.0 + 1e-12 * rng.random() for _ in range(1000)]
    worst = 0.0
    for x in xs:
        worst = max(worst, ulp_distance(arccos_stable(x), arccos_hp(x, 30)))
    assert worst <= 4.0
