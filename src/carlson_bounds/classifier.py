"""Monotonicity/extremum classification of the family f(a,b) on (0,1).

g' is strictly increasing from a-b-4/pi**2 (at 0+) to a-b-1/3 (at 1-), so
g is monotone or has a unique interior minimum, and the signs of five
quantities decide how many times g (hence f') crosses zero: g(0) =
a+b-2/pi, g(1-) = 2a-1, g'(0), g'(1-) and, in the window
1/3 < a-b < 4/pi**2 where g' changes sign, min g.  _sign_exact reads each
sign in float64 and re-reads it at 40 digits within _SIGN_BAND of zero,
the one band, derived in its docstring.  _decide turns the signs into a
class for both classifiers; classify_symbolic leaves a unique max or min
outside the window, which no published condition covers, Indeterminate.
As g'' >= 2/45 on [0, 1), g lies above its tangent parabola at any x, so

    g(x) - g'(x)**2 * 45/4 <= min g <= g(x).

_g_min reads this in float64 at _zero_guess, a polynomial within 4.1e-11
of the zero of g', where it is under 3e-22 wide, so it decides every
|min g| outside _SIGN_BAND.  Only a min g inside the band, critical_point_g
and exact_increasing_threshold seek the float64 zero x64 on every double
below 1, by _g_prime_root, the one safeguarded Newton iteration (its slope
g'' is the parameter-free proof-chain function), which from the guess
takes one step.  x64 and the five signs are kept on the Params object,
so both classifiers and critical_point_g share them.  At 40
digits the enclosure at x64 decides every |min g| above about 1e-27; only
a narrower min g, or a tol finer than float64 resolves in
critical_point_g, polishes the zero, by _polished_zero.

Every edge sign is exact: no edge value of doubles lies within 5.1e-34 of
zero unless it is 0, far outside the 40-digit zero band _HP_BAND = 1e-45
(both derived in _sign_exact).  Indeterminate therefore marks only a
window pair whose |min g| is under that band, or, where the zero of g'
lies above every double, under about 2.7e-34 plus the band, which no
pair of doubles reaches (_g_min).

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
from .family import _F64, _MP, EvalPoint, Params, _poly, increasing_threshold
from .oracle import hp_context

TWO_OVER_PI = 2.0 / math.pi
FOUR_OVER_PI_SQ = 4.0 / math.pi**2
ONE_THIRD = 1.0 / 3.0

# zero band of _sign_exact's 40-digit re-read: 10**4 times the read's error
# and under the least nonzero edge value of doubles, 5.1e-34 (see _sign_exact)
_HP_BAND = mpf(1e-45)


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
    g, stationary at t, is read there at 40 digits, off by under 1e-26, so
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
    the window, min g = a+b - s*(a-b), which tests the exact boundary s*(d)
    in place of the published threshold.  _decide gives classify_numeric's
    class, except that Indeterminate also marks a unique max or min outside
    the window, which no published condition covers there.
    """
    return _decide(p, published=True)


def _sign_exact(f, p: Params, *args) -> int:
    """Sign of f(m, p, *args): in float64 outside _SIGN_BAND, else at 40 digits (0 within _HP_BAND).

    A float64 value has the wrong sign only when it is smaller than its own
    error, which the band covers, with u = 2**-53:

    - The edge values round a+b or a-b correctly, by under u|a+/-b|; the
      constants 2.0/math.pi, 4.0/math.pi**2 and 1.0/3 are within 4e-17 of
      their exact values; the final difference is exact (Sterbenz)
      wherever it is small, and 2a-1 rounds once, keeping its sign.  A
      value below 1e-14 in size errs by under 1.2e-16.
    - min g is read through its enclosure (module docstring).  Float64
      g = a+b + (a-b)*x - r(x) has r = sqrt((1-x)(1+x)) / arccos x below 1.
      The square root errs by 2.5u relative; arccos_stable =
      2 atan2(sqrt(1-x), sqrt(1+x)) by 3u from its arguments (atan's
      condition number is at most 1) plus 2u for atan2, taken to be correct
      to an ulp; the quotient by one more u: 8.5u in r.  Where |min g| is
      below 1e-14, a+b is within that of s*(d) < 2/3; (a-b)*x, below 0.41,
      rounds twice, a+b and their sum once each, and the difference is
      exact: under 12u = 1.4e-15 in all.  The lower bound's g'**2 * 45/4
      errs by under 22.5 * 0.072 * 4e-15 = 6.5e-15 (|g'| < 0.072 in the
      window), 5e-25 at _zero_guess (|g'| < 5e-12 there).  g(x64)
      exceeds min g by under 1e-26 (x64 is within about 2e-13 of the zero, _ZERO64_RES plus the
      float64 error of g' over g'' >= 2/45, and g'' <= 0.12).
    - g' at an interior x, up to the top 1 - 2**-53 of the float64
      bracket in _g_prime_zero64, errs by under 4e-15 (pinned by
      test_float64_chain_matches_50_digits at 1 - k * 2**-53).

    The band is over seven times the edge and min g bounds and 2.5 times
    the g' one (1.3 times the lower bound's at an x far from the zero), so
    a wider band changes no sign, only the work.

    The 40-digit read runs at 50 digits (hp_context's guard), 169 bits: a
    value under 1 errs there by a few units of 2**-169 = 1.3e-51, so by
    about 1e-49 at most, through the enclosure or the polish of min g too;
    interior points take family's doubled precision near 1.  _HP_BAND =
    1e-45 is 10**4 times that, and below the least nonzero edge value:

    - Let c be 2/pi, 4/pi**2 or 1/3 and delta_c its distance to the
      nearest double.  If |a + b - c| < delta_c/2, the term with the
      smaller exponent exceeds delta_c/2 in size (else the other, a
      double, lies within delta_c of c); so it and the other term are
      multiples of u = 2**(floor(log2(delta_c/2)) - 52), and so is a + b,
      which 169 bits then hold exactly.  So |a + b - c| >= dist(c, u*Z),
      which is below delta_c/2: 9.37e-34 for 2/pi, 7.50e-34 for 4/pi**2
      and 5.14e-34 for 1/3 (test_zero_band_lies_under_the_edge_floor).
      The same holds for a - b = a + (-b), and 2a - 1 is 0 only at a =
      1/2.  So every edge value of doubles is 0 or at least 5.14e-34 in
      size, its 40-digit sign is exact, and a 40-digit min g decides
      unless its size is under the band (see _g_min).
    """
    value = f(_F64, p, *args)
    if abs(value) >= _SIGN_BAND:
        return -1 if value < 0.0 else 1
    with hp_context(40):
        v = f(_MP, p, *args)
        return (v > _HP_BAND) - (v < -_HP_BAND)


def _decide(p: Params, published: bool) -> RegionClass:
    """Class of p from the signs of g(0), g(1-), g'(0), g'(1-) and min g, each read once.

    g <= 0 at both ends makes the convex g <= 0 on (0, 1): f decreases, and
    no min g is sought.  Outside the window g runs monotonically from g(0)
    to g(1-): f increases when the lower end is >= 0, else g changes sign
    once, a unique min (g' > 0) or max (g' < 0), Indeterminate if published.
    In the window the sign of min g decides (Indeterminate if under
    _HP_BAND at 40 digits), then those of g(0) and g(1-).  The five signs
    depend on (a, b) alone and are kept on p, so the second classifier of
    p reads none of them again.
    """
    kept = p.__dict__  # what depends on (a, b) alone, kept as _g_prime_zero64 keeps the zero
    if "_edge_signs" not in kept:
        kept["_edge_signs"] = (
            _sign_exact(family._g, p, 0),
            _sign_exact(family._g_at_1, p),
            _sign_exact(family._g_prime, p, 0),
            _sign_exact(family._g_prime_at_1, p),
        )
    s0, s1, lo, hi = kept["_edge_signs"]  # lo, hi = -1, 1 in the window
    if s0 <= 0 and s1 <= 0:
        return RegionClass.STRICTLY_DECREASING
    if lo >= 0 or hi <= 0:
        if (s0 if lo >= 0 else s1) >= 0:
            return RegionClass.STRICTLY_INCREASING
        if published:
            return RegionClass.INDETERMINATE
        return RegionClass.UNIQUE_MIN if lo >= 0 else RegionClass.UNIQUE_MAX
    if "_min_g_sign" not in kept:
        kept["_min_g_sign"] = _sign_exact(_g_min, p)
    sm = kept["_min_g_sign"]
    if sm == 0:
        return RegionClass.INDETERMINATE
    if sm > 0:
        return RegionClass.STRICTLY_INCREASING
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

# width _g_prime_zero64 seeks the float64 zero of g' to, about the finest
# float64 g' resolves: the zero is off by up to about 1e-13 beyond it (float64
# g' errs by under 4e-15 absolute, 1.3e-15 measured at theta0, and g'' >=
# 2/45); critical_point_g meets a finer tol by _polished_zero
_ZERO64_RES = 1e-13

# q in _zero_guess, highest power first, from scripts/zero_guess_fit.py
_GUESS_Q = (
    -0.00011776890660251154, 0.0008356554993722193, -0.003205626311793831, 0.009467396630313756,
    -0.024997519442092952, 0.06210651633271636, -0.14566073579585903, 0.3171141935921868,
    -0.6189065254955323, 1.0,
)


def _zero_guess(d: float) -> float:
    """The zero x* = cos(theta) of g' for a - b = d, within 4.1e-11, as a polynomial.

    x* runs along the curve d = k(theta) = 1/theta**2 - cot(theta)/theta
    from 1 at d = 1/3 to 0 at d = 4/pi**2.  With t = (d - 1/3) / (4/pi**2
    - 1/3), clamped to [0, 1], the guess is (1 - t) q(t), capped at _TOP:
    q(0) = 1 and the rest of q, of degree 9, is the least-squares fit to
    that curve made by scripts/zero_guess_fit.py, which prints _GUESS_Q.
    The 4.1e-11, from a 50-digit scan (test_zero_guess_is_within_its_bound),
    keeps |g'| under 5e-12 there (g'' <= 0.12) and the enclosure of min g
    under 3e-22 wide.
    """
    t = min(max(d - ONE_THIRD, 0.0) / (FOUR_OVER_PI_SQ - ONE_THIRD), 1.0)
    return min((1.0 - t) * _poly(_GUESS_Q, t), _TOP)


def _g_prime_root(p: Params, lo, hi, width, digits: int | None, x):
    """Zero of g' in [lo, hi], given g'(lo) < 0 < g'(hi), by safeguarded Newton from x.

    The slope is g'', the parameter-free chain function.  Each g'(x) moves
    lo or hi onto x, so [lo, hi] keeps bracketing the zero, and a Newton
    step that would leave it is replaced by its midpoint.  In float64 when
    digits is None, else at that many digits, it returns x once |g'(x)|
    proves it within width of the zero, the iterate of a step no longer
    than width, or the midpoint of a bracket no wider than width (or of
    neighbouring doubles).  g' is increasing and concave, so after the
    first step the iterates rise to the zero from below.
    """
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
    """Float64 zero of g' in (0, _TOP) for p in the window, by Newton from _zero_guess.

    None puts the zero above every double (g'(_TOP) <= 0, read through
    g_prime_eval, which at 40 digits takes twice the bits 1 - _TOP lacks:
    a bare 50-digit read errs by 7e-36 there, over _HP_BAND).  The guess
    is within 4.1e-11 of the zero, so the search takes one Newton step:
    three g' reads, the one at _TOP among them, and one g'' read
    (test_zero_search_from_the_guess_takes_one_step).  The zero depends on
    (a, b) alone: it is sought once per Params object and kept on it, past
    the frozen dataclass as cached_property does, where equality, hash,
    repr and asdict, which read the fields, do not see it.
    """
    if "_zero64" not in p.__dict__:
        top = _sign_exact(lambda m, p: family.g_prime_eval(p, EvalPoint(_TOP, None if m is _F64 else 40)), p)
        p.__dict__["_zero64"] = (None if top <= 0 else
                                 _g_prime_root(p, 0.0, _TOP, _ZERO64_RES, None, _zero_guess(p.a - p.b)))
    return p.__dict__["_zero64"]


def _polished_zero(p: Params, x64):
    """Zero of g' within 4e-36 (see _g_min), by 40-digit Newton from the float64 zero x64.

    The width 1e-36 stays 400 times above the rounding of g' at 40 digits,
    about 1e-40, and below half the float64 spacing at any zero above 1e-19.
    """
    return _g_prime_root(p, mpf(0), mpf(_TOP), mpf("1e-36"), 40, x64)


def _g_min(m, p: Params):
    """min g over [0, 1), or a value of its sign, from its enclosure.

    m = _F64 returns a bound at _zero_guess beyond _SIGN_BAND if there is
    one, which the enclosure there, under 3e-22 wide, finds for every
    |min g| above the band plus g's float64 error, 1.4e-15; else g at the
    kept float64 zero x64 = _g_prime_zero64(p), within about g'' * 1e-24
    of min g.  m = _MP returns a bound at x64, at 40 digits, beyond
    _HP_BAND = 1e-45, the zero band of _sign_exact; it reads p itself, as
    the rounded a - b of a tangent pair (d/2, -d/2) can flip a min g below
    about 3e-17.  The float64 search stops at |g'| <= 4.4e-15
    or within 1e-13 of the zero, and float64 g' errs by under 4e-15, so
    the enclosure at x64 is at most about 1e-27 wide.  Narrower, g is
    returned at the zero x~ that _polished_zero finds from x64: x~ is
    within 4e-36 of the zero x* (the width when |g'(x~)| or the bracket
    proves it, else |s| * (1 + sup g''/inf g'') after a Newton step s), and
    g is stationary at x*, so g(x~) - min g <= sup g'' * (x~ - x*)**2 / 2
    < 1e-70.  So a 40-digit min g is Indeterminate only under the band.

    When x64 is None, x* lies in [_TOP, 1), and the enclosure is read at
    _TOP: g' rises through [_TOP, x*] from g'(_TOP) <= 0 and a - b > 1/3,
    so |g'(_TOP)| < k(theta_TOP) - 1/3, about 4.9e-18, and g'**2 * 45/4 <
    2.7e-34 there.  So g(_TOP) is within 2.7e-34 of min g, far under
    _SIGN_BAND, and float64 returns it.  At 40 digits an enclosure that
    straddles the band gives 0, Indeterminate: |min g| is then under about
    2.7e-34 plus the band.  No pair of doubles gets there: g(_TOP) is
    within 5.4e-34 of g(1-) = 2a - 1, which is 0 only at a = 1/2, and
    there a - b is a multiple of 2**-55, so a - b - 1/3 is at least
    9.2e-18 in size and x64 is not None.
    """
    if m is _F64:
        bound = _enclosed(p, EvalPoint(_zero_guess(p.a - p.b)), _SIGN_BAND)
        if bound:
            return bound
    x64 = _g_prime_zero64(p)
    pt = EvalPoint(_TOP if x64 is None else x64, None if m is _F64 else 40)
    if m is _F64:
        return family.g_eval(p, pt)
    bound = _enclosed(p, pt, _HP_BAND)
    if bound or x64 is None:
        return bound
    return family.g_eval(p, EvalPoint(_polished_zero(p, x64), 40))


def _enclosed(p: Params, pt: EvalPoint, band):
    """g at pt if below -band, else g - g'**2 * 45/4 there if above band, else 0.

    Each bounds min g and so has its sign; g' is read only if g does not decide.
    """
    upper = family.g_eval(p, pt)
    if upper < -band:
        return upper
    lower = upper - family.g_prime_eval(p, pt) ** 2 * 45 / 4
    return lower if lower > band else 0


def classify_numeric(p: Params, tol: float = 1e-9) -> RegionClass:
    """Class from computed signs of g(0), g(1-), the g' limits and min g.

    _decide reads them as for classify_symbolic, and _sign_exact re-reads
    each within _SIGN_BAND of zero at 40 digits, min g through _g_min.
    Every edge sign is exact, so Indeterminate marks only a window pair
    whose |min g| is under the 40-digit band 1e-45, or under about 2.7e-34
    plus that band where the zero of g' lies above every double (a-b
    within 4.9e-18 above 1/3; no pair of doubles reaches this, see
    _g_min).  tol must lie in (0, 1e-3] and chooses nothing: a float64
    sign outside the band is exact, so the class never depended on it.
    """
    if not 0.0 < tol <= 1e-3:
        raise ValueError(f"tol must be in (0, 1e-3], got {tol}")
    return _decide(p, published=False)


def critical_point_g(p: Params, tol: float) -> float | None:
    """Unique zero of g' in (0,1) to absolute tolerance tol, else None.

    The zero is _g_prime_zero64's, and the signs of g' at 0 and 1- are
    those _decide keeps on p, if it ran.  A tol below _ZERO64_RES = 1e-13,
    finer than float64 g' resolves the zero, has it polished at 40 digits
    by _polished_zero, as _g_min does, so a tol finer than the float64
    spacing there yields the double nearest any zero above 1e-19.
    None means no interior zero at this tol: g' has constant sign (a-b
    outside (1/3, 4/pi**2), read by _sign_exact at any tol), or the zero
    lies above every double or within tol of 0 or 1.
    """
    if not 0.0 < tol <= 1e-6:
        raise ValueError(f"tol must be in (0, 1e-6], got {tol}")
    edges = p.__dict__.get("_edge_signs")  # kept by _decide; g's own edges do not bear on g'
    lo, hi = edges[2:] if edges else (_sign_exact(family._g_prime, p, 0), _sign_exact(family._g_prime_at_1, p))
    if lo >= 0 or hi <= 0:
        return None
    x = _g_prime_zero64(p)
    if x is not None and tol < _ZERO64_RES:
        with hp_context(40):
            x = float(_polished_zero(p, x))
    return x if x is not None and tol < x < 1.0 - tol else None


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
