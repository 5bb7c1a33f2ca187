"""Monotonicity/extremum classification of the family f(a,b) on (0,1).

g' is strictly increasing from a-b-4/pi**2 (at 0+) to a-b-1/3 (at 1-), so
g is monotone or has a unique interior minimum, and the signs of five
quantities decide how many times g (hence f') crosses zero: g(0) =
a+b-2/pi, g(1-) = 2a-1, g'(0), g'(1-) and, in the window
1/3 < a-b < 4/pi**2 where g' changes sign, min g.  One sign reader,
_sign_exact, takes each sign as one function of a family backend, reads
it in float64 and re-reads it at 40 digits within _SIGN_BAND of zero, the
one band, derived in its docstring.  classify_symbolic applies the
closed-form region conditions to those signs in their published order;
classify_numeric reconstructs the class from them.  Every zero of g' comes from
_g_prime_root, one safeguarded Newton iteration whose slope g'' is the
parameter-free proof-chain function.  The float64 zero x64 of g' is
sought on every double below 1, once per Params object, and kept on it,
so the two classifiers of one object share it.  At 40 digits the sign of
min g needs no polished zero: g'' >= 2/45 on [0, 1), so

    g(x64) - g'(x64)**2 * 45/4 <= min g <= g(x64),

and g and g' at x64, each at 40 digits, decide every |min g| above about
3e-26.  Only a narrower min g polishes the zero at 40 digits.

The published strictly-increasing condition inside the window is
a+b >= 2(a-b)**1.5/sqrt(4(a-b)-1).  That threshold only bounds the exact
boundary s*(a-b) = exact_increasing_threshold(a-b) from above: on a strip
just below it min g = a+b - s*(a-b) is still positive and f is strictly
increasing (for example (a, b) = (0.52, 0.13)), so the published
max-then-min condition, read on its own, is too wide.  classify_symbolic
therefore reads the sign of min g, which tests the exact boundary; the
max-then-min branch is then only reached below it, where the published
condition is exact.  increasing_threshold (written once, in family, and
imported here), in_max_then_min_region and family.g_min_lower_bound keep
the published, merely sufficient, forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from mpmath import mpf

from . import family
from .family import _F64, _MP, EvalPoint, Params, increasing_threshold
from .oracle import hp_context

TWO_OVER_PI = 2.0 / math.pi
FOUR_OVER_PI_SQ = 4.0 / math.pi**2
ONE_THIRD = 1.0 / 3.0

# the zero band of _sign_exact's 40-digit re-read, not a test of an exact zero:
# right for 2a-1 at a = 0.5, but ROADMAP item 4's g(0) = -4.0e-33 reads as 0
_HP_ZERO = mpf(1e-30)


class RegionClass(Enum):
    STRICTLY_DECREASING = "StrictlyDecreasing"
    STRICTLY_INCREASING = "StrictlyIncreasing"
    UNIQUE_MAX = "UniqueMax"
    UNIQUE_MIN = "UniqueMin"
    MAX_THEN_MIN = "MaxThenMin"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class ExtremaReport:
    """Discriminant forms, envelope extremum locations and coefficient bounds.

    disc_closed is 16ab(b-a) + (a+b)**2; disc_quadratic is the discriminant
    of the envelope-derivative quadratic
    (a-b)**2 x**2 + (a+b)(2a-2b-1) x + (a+b)**2 - a + b
    computed from its coefficients.  The two agree identically in exact
    arithmetic.  x1 <= x2 are the quadratic's roots when they exist;
    max_coeff/min_coeff are the envelope values there when the root lies in
    (0,1).
    """

    disc_closed: float
    disc_quadratic: float
    x1: float | None
    x2: float | None
    max_coeff: float | None
    min_coeff: float | None


def exact_increasing_threshold(d: float) -> float:
    """Least a+b with min g >= 0 when a-b = d lies in the window (1/3, 4/pi**2).

    With s = a+b, g = s + d*x - r(x) where r(x) = sqrt(1-x**2)/arccos x.
    r' falls from 4/pi**2 to 1/3 on (0,1), so g is convex and min g sits at
    the zero t of g' = d - r'(t), which depends on d alone; min g = s - s*(d).
    The exact boundary is the parametric curve, for t in (0,1),

        d     = r'(t) = 1/arccos(t)**2 - t/(sqrt(1-t**2)*arccos t)
        s*(d) = r(t) - t*r'(t) = sqrt(1-t**2)/arccos t - t*d,

    running from 2/pi at d = 4/pi**2 to 2/3 at d = 1/3 and lying below
    increasing_threshold(d).  t comes from the Newton iteration on g' for
    the pair (d/2, -d/2), whose a+b is exactly 0, so g there equals -s*(d).
    g, stationary at t, is read there at 40 digits, off by under 1e-25, so
    the result is s*(d) rounded to the nearest double (barring a near tie).
    """
    if not ONE_THIRD < d < FOUR_OVER_PI_SQ:
        raise ValueError(f"exact threshold needs 1/3 < a - b < 4/pi**2, got a - b = {d}")
    p = Params(0.5 * d, -0.5 * d)
    return -float(family.g_eval(p, EvalPoint(_g_prime_zero64(p), 40)))


def in_window(p: Params) -> bool:
    """1/3 < a-b < 4/pi**2: g' changes sign, g has a unique interior minimum."""
    return ONE_THIRD < p.a - p.b < FOUR_OVER_PI_SQ


def in_max_then_min_region(p: Params) -> bool:
    """Window plus 2/pi < a+b < increasing_threshold(a-b) and a > 1/2.

    The published condition; it also holds on a strip where f is strictly
    increasing (see the module docstring).
    """
    if not in_window(p):
        return False
    s = p.a + p.b
    return TWO_OVER_PI < s < increasing_threshold(p.a - p.b) and p.a > 0.5


# float64 error band of every classifier sign (see _sign_exact)
_SIGN_BAND = 1e-14


def classify_symbolic(p: Params) -> RegionClass:
    """First matching closed-form region condition, in published order.

    Every condition is the sign of g(0), g(1-), g'(0), g'(1-) or, inside
    the window, min g = a+b - s*(a-b), read by the same _edge_signs and
    _min_g_sign as classify_numeric; min g tests the exact boundary s*(d)
    in place of the published threshold.  Outside the window a unique max
    or min, which no published condition covers there, is Indeterminate.
    """
    s0, s1, lo, hi = _edge_signs(p)
    if s0 <= 0 and s1 <= 0:
        return RegionClass.STRICTLY_DECREASING
    if (s0 >= 0 and lo >= 0) or (s1 >= 0 and hi <= 0):
        return RegionClass.STRICTLY_INCREASING
    if lo >= 0 or hi <= 0:
        return RegionClass.INDETERMINATE
    return _window_class(_min_g_sign(p), s0, s1)


def _sign_exact(f, p: Params, *args) -> int:
    """Sign of f(m, p, *args): in float64 outside _SIGN_BAND, else at 40 digits (0 if still ~0).

    A float64 value has the wrong sign only when it is smaller than its own
    error, which the band covers, with u = 2**-53:

    - The edge values round a+b or a-b correctly, by under u|a+/-b|; the
      constants 2.0/math.pi, 4.0/math.pi**2 and 1.0/3 are within 4e-17 of
      their exact values; the final difference is exact (Sterbenz)
      wherever it is small, and 2a-1 rounds once, keeping its sign.  A
      value below 1e-14 in size errs by under 1.2e-16.
    - min g is g at the float64 zero x64 of g', on p itself.  Float64
      g = a+b + (a-b)*x - r(x) has r = sqrt((1-x)(1+x)) / arccos x below 1.
      The square root errs by 2.5u relative; arccos_stable =
      2 atan2(sqrt(1-x), sqrt(1+x)) by 3u from its arguments (atan's
      condition number is at most 1) plus 2u for atan2, taken to be correct
      to an ulp; the quotient by one more u: 8.5u in r.  Where |min g| is
      below 1e-14, a+b is within that of s*(d) < 2/3; (a-b)*x, below 0.41,
      rounds twice, a+b and their sum once each, and the difference is
      exact: under 12u = 1.4e-15 in all.  g(x64) exceeds min g by under
      1e-25 (x64 is within about 1.1e-12 of the zero, _g_prime_zero64's
      width plus _ZERO64_RES, and g'' <= 0.12).
    - g' at an interior x, up to the top 1 - 2**-53 of the float64
      bracket in _g_prime_zero64, errs by under 4e-15 (pinned by
      test_float64_chain_matches_50_digits at 1 - k * 2**-53).

    The band is over seven times the edge and min g bounds and 2.5 times
    the g' one, so a wider band changes no sign, only the work.
    """
    value = f(_F64, p, *args)
    if abs(value) >= _SIGN_BAND:
        return -1 if value < 0.0 else 1
    with hp_context(40):
        v = f(_MP, p, *args)
        if v > _HP_ZERO:
            return 1
        if v < -_HP_ZERO:
            return -1
    return 0


def _edge_signs(p: Params) -> tuple[int, int, int, int]:
    """Signs of g(0), g(1-), g'(0) and g'(1-); the last two are (-1, 1) in the window."""
    return (_sign_exact(family._g, p, 0), _sign_exact(family._g_at_1, p),
            _sign_exact(family._g_prime, p, 0), _sign_exact(family._g_prime_at_1, p))


def _min_g_sign(p: Params) -> int:
    """Sign of min g for p in the window, from _g_min at the float64 zero of g'."""
    x64 = _g_prime_zero64(p)
    return _sign_exact(_g_min, p, x64)


def _window_class(sm: int, s0: int, s1: int) -> RegionClass:
    """Class in the window from the signs of min g, g(0) and g(1-)."""
    if sm == 0:
        return RegionClass.INDETERMINATE
    if sm > 0:
        return RegionClass.STRICTLY_INCREASING
    if s0 <= 0 and s1 <= 0:
        return RegionClass.STRICTLY_DECREASING
    if s1 <= 0:
        return RegionClass.UNIQUE_MAX
    if s0 <= 0:
        return RegionClass.UNIQUE_MIN
    return RegionClass.MAX_THEN_MIN


# g'' falls from 0.12 at x = 0 to its limit 2/45 at 1-, its infimum on
# [0,1); by the mean value theorem a zero x* of g' lies within
# |g'(x)| / _G2_INF of any x
_G2_INF = 2.0 / 45.0

# top of the float64 bracket of the zero of g': the last double below 1
_TOP = math.nextafter(1.0, 0.0)

# the float64 zero of g' is off by up to about 1e-13 beyond the width it is
# sought to (float64 g' errs by under 4e-15 absolute, 1.3e-15 measured at
# theta0, and g'' >= 2/45); finer tolerances are met by polishing it at 40
# digits
_ZERO64_RES = 1e-13


def _g_prime_root(p: Params, lo, hi, width, digits: int | None = None, x=None):
    """Zero of g' in [lo, hi], given g'(lo) < 0 < g'(hi), by safeguarded Newton.

    The slope is g'', the parameter-free chain function.  Each evaluation of
    g' at x moves lo or hi onto x, so [lo, hi] keeps bracketing the zero; a
    Newton step that would leave the bracket is replaced by its midpoint.
    Starts at x (the midpoint by default) and, in float64 when digits is
    None and at that many digits otherwise, returns x once |g'(x)| proves
    it within width of the zero, the Newton iterate of a step no longer
    than width, or the midpoint of a bracket no wider than width.  In
    float64 it also stops when lo and hi are neighbours, for a width below
    the spacing there.  g' is increasing and concave, so after the first
    step the iterates rise to the zero from below.
    """
    if x is None:
        x = (lo + hi) / 2
    while True:
        pt = EvalPoint(x, digits)
        slope = family.g_prime_eval(p, pt)
        if abs(slope) <= _G2_INF * width:
            return x
        if slope < 0:
            lo = x
        else:
            hi = x
        nx = x - slope / family.chain_eval("g_second", pt)
        if abs(nx - x) <= width:
            return nx
        if not lo < nx < hi:
            nx = (lo + hi) / 2
            if hi - lo <= width or not lo < nx < hi:
                return nx
        x = nx


def _g_prime_zero64(p: Params):
    """Float64 zero of g' in (0, _TOP) for p in the window; None when g'(_TOP) <= 0.

    None puts the zero above every double.  The zero depends on (a, b)
    alone, so it is sought once per Params object and kept on it, written
    past the frozen dataclass as cached_property does: both classifiers of
    one object share it, and equality, hash, repr and asdict, which read
    the fields, do not see it.
    """
    if "_zero64" not in p.__dict__:
        top = _sign_exact(lambda m, p: family._g_prime(m, p, m.num(_TOP)), p)
        p.__dict__["_zero64"] = None if top <= 0 else _g_prime_root(p, 0.0, _TOP, 1e-12)
    return p.__dict__["_zero64"]


def _g_min(m, p: Params, x64):
    """min g over [0, 1), or at 40 digits a value of its sign.

    x64 is _g_prime_zero64(p).  m = _F64 takes g there, which resolves min
    g to about g'' * 1e-24.  m = _MP takes g and g' there at 40 digits, on
    p itself (the rounded a - b of a tangent pair (d/2, -d/2) is off by up
    to half an ulp, enough to flip the sign of a min g below about 3e-17),
    and encloses min g:

        g(x64) - g'(x64)**2 / (2 inf g'') <= min g <= g(x64).

    The upper bound holds at any point of [0, 1).  The lower one holds
    because g'' >= inf g'' = 2/45 on [0, 1), so g lies above the parabola
    g(x64) + g'(x64) (x - x64) + (x - x64)**2 / 45, whose least value it
    is.  g(x64) below -1e-30, the zero of _sign_exact, is returned as is
    (g' is then not read), and so is a lower bound above 1e-30; each has
    the sign of min g and decides it.  The float64 iteration stops at |g'|
    <= 4.4e-14 or within 1e-12 of the zero, and float64 g' errs by under
    4e-15, so |g'(x64)| is under about 5e-14, the enclosure at most about
    3e-26 wide, and every |min g| above that is decided.

    Otherwise the zero is polished at 40 digits by Newton from x64 to a
    width of 1e-20, and g there is returned.  That is within 1e-40 of min
    g: g is stationary at the zero x*, the polished x~ is within 4e-20 of
    it (at most the width when |g'(x~)| or the bracket proves it, at most
    |s| * (1 + sup g''/inf g'') after a Newton step s), so g(x~) - min g
    <= sup g'' * (x~ - x*)**2 / 2, far below the 1e-30 that _sign_exact
    reads as zero.

    When x64 is None, x* lies in [_TOP, 1) and either backend returns
    g(_TOP): g' rises through [_TOP, x*] from g'(_TOP) <= 0 and a - b >
    1/3, so g(_TOP) - min g <= |g'(_TOP)| * 2**-53 < (k(theta_TOP) - 1/3) *
    2**-53, about 4.9e-18 * 1.1e-16 = 5.4e-34, under _sign_exact's 1e-30.
    """
    pt = EvalPoint(_TOP if x64 is None else x64, None if m is _F64 else 40)
    upper = family.g_eval(p, pt)
    if m is _F64 or x64 is None or upper < -_HP_ZERO:
        return upper
    lower = upper - family.g_prime_eval(p, pt) ** 2 * 45 / 4  # 2 inf g'' = 4/45
    if lower > _HP_ZERO:
        return lower
    x0 = _g_prime_root(p, mpf(0), mpf(_TOP), mpf("1e-20"), 40, x64)
    return family.g_eval(p, EvalPoint(x0, 40))


def classify_numeric(p: Params, tol: float = 1e-9) -> RegionClass:
    """Class from computed signs of g(0), g(1-), the g' limits and min g.

    _sign_exact re-reads each sign within _SIGN_BAND of zero at 40 digits;
    for min g that is the enclosure of _g_min, g and g' at 40 digits at the
    float64 zero of g' (g at 1 - 2**-53 if that zero is above every
    double), polished by Newton only when the enclosure straddles zero.
    A minimum of g still indistinguishable from
    zero at 40 digits yields Indeterminate.  tol must lie in (0, 1e-3] and
    chooses nothing: a float64 sign outside the band is exact, so the class
    never depended on it.
    """
    if not 0.0 < tol <= 1e-3:
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")
    s0, s1, lo, hi = _edge_signs(p)
    if lo >= 0:
        # g' > 0 on (0,1): g strictly increasing from a+b-2/pi to 2a-1
        if s0 >= 0:
            return RegionClass.STRICTLY_INCREASING
        if s1 <= 0:
            return RegionClass.STRICTLY_DECREASING
        return RegionClass.UNIQUE_MIN
    if hi <= 0:
        # g' < 0 on (0,1): g strictly decreasing
        if s0 <= 0:
            return RegionClass.STRICTLY_DECREASING
        if s1 >= 0:
            return RegionClass.STRICTLY_INCREASING
        return RegionClass.UNIQUE_MAX
    return _window_class(_min_g_sign(p), s0, s1)


def critical_point_g(p: Params, tol: float) -> float | None:
    """Unique zero of g' in (0,1) to absolute tolerance tol, else None.

    None is returned when g' has constant sign (a-b outside (1/3, 4/pi**2),
    read by _sign_exact at any tol) and when the zero sits within tol of an
    endpoint, where no interior sign change is resolvable at the requested
    tolerance.  A tol below _ZERO64_RES = 1e-13, finer than float64 g'
    resolves its zero, has the zero polished at 40 digits, so a tol finer
    than the float64 spacing there yields the double nearest the zero.
    """
    if not 0.0 < tol <= 1e-6:
        raise ValueError(f"tol must be in (0, 1e-6], got {tol}")
    if _sign_exact(family._g_prime, p, 0) >= 0 or _sign_exact(family._g_prime_at_1, p) <= 0:
        return None
    if family.g_prime_eval(p, EvalPoint(tol)) >= 0.0:
        return None
    if family.g_prime_eval(p, EvalPoint(1.0 - tol)) <= 0:
        return None
    x = _g_prime_root(p, tol, 1.0 - tol, max(tol, _ZERO64_RES))
    if tol < _ZERO64_RES:
        with hp_context(40):
            x = float(_g_prime_root(p, mpf(tol), mpf(1.0 - tol), mpf("1e-30"), 40, x))
    return x


def _disc_quadratic(p: Params) -> float:
    """Discriminant of the envelope-derivative quadratic, from its coefficients."""
    s, d = p.a + p.b, p.a - p.b
    qa = d * d
    qb = s * (2.0 * d - 1.0)
    qc = s * s - d
    return qb * qb - 4.0 * qa * qc


def extrema_points(p: Params) -> ExtremaReport:
    """Both discriminant forms, the envelope extremum roots and coefficients.

    The roots are family._envelope_extrema's, so for a == b the one root
    of the linear equation is a+b; a == b == 0 is fully degenerate and
    raises, and so does a report float64 cannot hold (JSON has no inf or
    NaN to print it with): an overflowing discriminant, root or coefficient,
    or a - b too small to square.
    """
    if p.a == p.b == 0.0:
        raise ValueError("degenerate parameters: a = b and a + b = 0")
    x2 = max_coeff = min_coeff = None
    try:
        x1, x2 = family._envelope_extrema(_F64, p)
        if x1 is not None and 0.0 < x1 < 1.0:
            max_coeff = float(family.envelope_eval(p, EvalPoint(x1)))
        if x2 is not None and 0.0 < x2 < 1.0:
            min_coeff = float(family.envelope_eval(p, EvalPoint(x2)))
    except (OverflowError, ZeroDivisionError):  # exp overflows, or (a - b)**2 is 0
        x1 = math.inf  # refused below
    values = (family._envelope_disc(_F64, p), _disc_quadratic(p), x1, x2, max_coeff, min_coeff)
    if not all(v is None or math.isfinite(v) for v in values):
        raise ValueError(f"envelope extrema of (a, b) = ({p.a}, {p.b}) leave the float64 range")
    return ExtremaReport(*values)


def necessary_increasing(p: Params) -> bool:
    """Necessary condition for f to be strictly increasing: b >= 2/pi - a and a >= 1/2."""
    return p.b >= TWO_OVER_PI - p.a and p.a >= 0.5
