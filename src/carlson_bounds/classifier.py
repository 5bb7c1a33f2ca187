"""Monotonicity/extremum classification of the family f(a,b) on (0,1).

Two classifiers are provided.  classify_symbolic applies the closed-form
region conditions in their published order.  classify_numeric reconstructs
the class from computed signs: g' is strictly increasing from
a-b-4/pi**2 (at 0+) to a-b-1/3 (at 1-), so g is monotone or has a unique
interior minimum, and the signs of g(0), g(1-) and that minimum decide how
many times g (hence f') crosses zero.  Each sign is one expression of a
family backend, computed in float64 and re-run at 40 digits when it is
too close to zero; every zero of g' (min g, critical_point_g and
exact_increasing_threshold) comes from the one bisection _g_prime_root.

The published strictly-increasing condition inside the window
1/3 < a-b < 4/pi**2 is a+b >= 2(a-b)**1.5/sqrt(4(a-b)-1).  That threshold
only bounds the exact boundary from above: on a strip just below it min g
is still positive and f is strictly increasing (for example
(a, b) = (0.52, 0.13)), so the published max-then-min condition, read on
its own, is too wide.  classify_symbolic therefore tests the window
against the exact boundary exact_increasing_threshold(a-b) instead; the
max-then-min branch is then only reached below that boundary, where the
published condition is exact.  increasing_threshold, in_max_then_min_region
and family.g_min_lower_bound keep the published, merely sufficient, forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from mpmath import mpf

from . import family
from .family import _F64, _MP, EvalPoint, Params
from .oracle import hp_context

TWO_OVER_PI = 2.0 / math.pi
FOUR_OVER_PI_SQ = 4.0 / math.pi**2
ONE_THIRD = 1.0 / 3.0

# a double whose 50-digit re-evaluation is still below this is an exact zero
# of the condition expression (e.g. 2a-1 at a = 0.5)
_HP_ZERO = mpf("1e-30")


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


def increasing_threshold(d: float) -> float:
    """Threshold 2*d**1.5/sqrt(4d-1) on a+b; above it min g >= 0. Needs d > 1/4."""
    if 4.0 * d - 1.0 <= 0.0:
        raise ValueError(f"threshold needs a - b > 1/4, got a - b = {d}")
    return 2.0 * d**1.5 / math.sqrt(4.0 * d - 1.0)


def exact_increasing_threshold(d: float) -> float:
    """Least a+b with min g >= 0 when a-b = d lies in the window (1/3, 4/pi**2).

    With s = a+b, g = s + d*x - r(x) where r(x) = sqrt(1-x**2)/arccos x.
    r' falls from 4/pi**2 to 1/3 on (0,1), so g is convex and min g sits at
    the zero t of g' = d - r'(t), which depends on d alone; min g = s - s*(d).
    The exact boundary is the parametric curve, for t in (0,1),

        d     = r'(t) = 1/arccos(t)**2 - t/(sqrt(1-t**2)*arccos t)
        s*(d) = r(t) - t*r'(t) = sqrt(1-t**2)/arccos t - t*d,

    running from 2/pi at d = 4/pi**2 to 2/3 at d = 1/3 and lying below
    increasing_threshold(d).  t comes from one bisection of g' for the pair
    (d/2, -d/2), whose a+b is exactly 0, so g there equals -s*(d).
    """
    if not ONE_THIRD < d < FOUR_OVER_PI_SQ:
        raise ValueError(f"exact threshold needs 1/3 < a - b < 4/pi**2, got a - b = {d}")
    return -float(_g_min(Params(0.5 * d, -0.5 * d), _F64))


def in_window(p: Params) -> bool:
    """1/3 < a-b < 4/pi**2: g' changes sign, g has a unique interior minimum."""
    return ONE_THIRD < p.a - p.b < FOUR_OVER_PI_SQ


def in_unique_max_region(p: Params) -> bool:
    """Window plus 2/pi - b < a <= 1/2."""
    return in_window(p) and TWO_OVER_PI - p.b < p.a <= 0.5


def in_unique_min_region(p: Params) -> bool:
    """Window plus 1/2 < a <= 2/pi - b."""
    return in_window(p) and 0.5 < p.a <= TWO_OVER_PI - p.b


def in_max_then_min_region(p: Params) -> bool:
    """Window plus 2/pi < a+b < increasing_threshold(a-b) and a > 1/2.

    The published condition; it also holds on a strip where f is strictly
    increasing (see the module docstring).
    """
    if not in_window(p):
        return False
    s = p.a + p.b
    return TWO_OVER_PI < s < increasing_threshold(p.a - p.b) and p.a > 0.5


def classify_symbolic(p: Params) -> RegionClass:
    """First matching closed-form region condition, in published order.

    Inside the window the strictly-increasing test uses the exact boundary
    exact_increasing_threshold(a-b) in place of the published threshold.
    """
    a, b = p.a, p.b
    s, d = a + b, a - b
    if s <= TWO_OVER_PI and a <= 0.5:
        return RegionClass.STRICTLY_DECREASING
    if (s >= TWO_OVER_PI and d >= FOUR_OVER_PI_SQ) or (a >= 0.5 and d <= ONE_THIRD):
        return RegionClass.STRICTLY_INCREASING
    if in_window(p) and s >= exact_increasing_threshold(d):
        return RegionClass.STRICTLY_INCREASING
    if in_unique_max_region(p):
        return RegionClass.UNIQUE_MAX
    if in_unique_min_region(p):
        return RegionClass.UNIQUE_MIN
    if in_max_then_min_region(p):
        return RegionClass.MAX_THEN_MIN
    return RegionClass.INDETERMINATE


def _sign_exact(expr, tol: float) -> int:
    """Sign of expr(m) in float64; when below tol, of expr(m) at 40 digits (0 if still ~0)."""
    value = expr(_F64)
    if abs(value) >= tol:
        return -1 if value < 0.0 else 1
    with hp_context(40):
        v = expr(_MP)
        if v > _HP_ZERO:
            return 1
        if v < -_HP_ZERO:
            return -1
    return 0


def _window_signs(p: Params, tol: float) -> tuple[int, int]:
    """Signs of g'(0) = a-b-4/pi**2 and g'(1-) = a-b-1/3: (-1, 1) in the window."""
    return (
        _sign_exact(lambda m: family._g_prime(m, p, 0), tol),
        _sign_exact(lambda m: family._g_prime_at_1(m, p), tol),
    )


def _g_prime_root(p: Params, lo, hi, width, digits: int | None = None):
    """Bisect the zero of g' in [lo, hi], given g'(lo) < 0; None when g'(hi) <= 0.

    Halves [lo, hi] down to width in float64 when digits is None and at that
    many digits otherwise; returns the midpoint.  In float64 it also stops
    when lo and hi are neighbours, for a width below the spacing there.
    """
    if family.g_prime_eval(p, EvalPoint(hi, digits)) <= 0:
        return None
    while hi - lo > width:
        mid = (lo + hi) / 2
        if digits is None and not lo < mid < hi:
            break
        if family.g_prime_eval(p, EvalPoint(mid, digits)) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _g_min(p: Params, m):
    """g at the zero of g' (or at the top of the bracket when g' < 0 there).

    m = _F64 bisects [0, 1 - 1e-12] in float64 to width 1e-12, which resolves
    min g to about g'' * 1e-24; m = _MP at 40 digits, in 120 halvings of
    [0, 1 - 1e-25] (to width 1e-36), on g' of p itself: the rounded a - b of
    a tangent pair (d/2, -d/2) is off by up to half an ulp, enough to flip
    the sign of a min g below about 3e-17.
    """
    if m is _F64:
        lo, hi, width, digits = 0.0, 1.0 - 1e-12, 1e-12, None
    else:
        lo, hi, width, digits = mpf(0), 1 - mpf("1e-25"), mpf("1e-36"), 40
    x0 = _g_prime_root(p, lo, hi, width, digits)
    return family.g_eval(p, EvalPoint(hi if x0 is None else x0, digits))


def classify_numeric(p: Params, tol: float = 1e-9) -> RegionClass:
    """Class from computed signs of g(0), g(1-), the g' limits and min g.

    Signs smaller than tol in float64 are re-evaluated at high precision;
    a minimum of g still indistinguishable from zero at 40 digits yields
    Indeterminate.
    """
    if not 0.0 < tol <= 1e-3:
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")
    s0 = _sign_exact(lambda m: family._g(m, p, 0), tol)
    s1 = _sign_exact(lambda m: family._g_at_1(m, p), tol)
    lo, hi = _window_signs(p, tol)
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
    sm = _sign_exact(lambda m: _g_min(p, m), max(tol, 1e-12))
    if sm == 0:
        return RegionClass.INDETERMINATE
    if sm > 0:
        return RegionClass.STRICTLY_INCREASING
    if s0 <= 0 and s1 <= 0:
        return RegionClass.STRICTLY_DECREASING
    if s0 > 0 and s1 <= 0:
        return RegionClass.UNIQUE_MAX
    if s0 <= 0 and s1 > 0:
        return RegionClass.UNIQUE_MIN
    return RegionClass.MAX_THEN_MIN


def critical_point_g(p: Params, tol: float) -> float | None:
    """Unique zero of g' in (0,1) to absolute tolerance tol, else None.

    None is returned when g' has constant sign (a-b outside (1/3, 4/pi**2))
    and also when the zero sits within tol of an endpoint, where no interior
    sign change is resolvable at the requested tolerance.  A tol finer than
    the float64 spacing at the zero yields the zero to that spacing.
    """
    if not 0.0 < tol <= 1e-6:
        raise ValueError(f"tol must be in (0, 1e-6], got {tol}")
    lo_sign, hi_sign = _window_signs(p, tol)
    if lo_sign >= 0 or hi_sign <= 0:
        return None
    if float(family.g_prime_eval(p, EvalPoint(tol))) >= 0.0:
        return None
    return _g_prime_root(p, tol, 1.0 - tol, tol)


def extrema_points(p: Params) -> ExtremaReport:
    """Both discriminant forms, the envelope extremum roots and coefficients.

    For a == b the quadratic degenerates to a linear equation with the
    single root a+b (a maximum of the envelope when a+b > 0, a minimum when
    a+b < 0); a == b == 0 is fully degenerate and raises.
    """
    a, b = p.a, p.b
    s, d = a + b, a - b
    disc_closed = family._envelope_disc(_F64, p)
    qa = d * d
    qb = s * (2.0 * d - 1.0)
    qc = s * s - d
    disc_quadratic = qb * qb - 4.0 * qa * qc
    x1: float | None = None
    x2: float | None = None
    if a == b:
        if qb == 0.0:
            raise ValueError("degenerate parameters: a = b and a + b = 0")
        root = -qc / qb  # = a + b
        if qb < 0.0:
            x1 = root
        else:
            x2 = root
    elif disc_closed > 0.0:
        x1, x2 = family._envelope_roots(_F64, p, disc_closed)
    max_coeff = None
    min_coeff = None
    if x1 is not None and 0.0 < x1 < 1.0:
        max_coeff = float(family.envelope_eval(p, EvalPoint(x1)))
    if x2 is not None and 0.0 < x2 < 1.0:
        min_coeff = float(family.envelope_eval(p, EvalPoint(x2)))
    return ExtremaReport(disc_closed, disc_quadratic, x1, x2, max_coeff, min_coeff)


def necessary_increasing(p: Params) -> bool:
    """Necessary condition for f to be strictly increasing: b >= 2/pi - a and a >= 1/2."""
    return p.b >= TWO_OVER_PI - p.a and p.a >= 0.5
