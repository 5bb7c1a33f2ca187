"""Evaluators for the monotone arccos family and its proof-chain functions.

The central object is f(a,b; x) = (1+x)**b * (1-x)**(-a) * arccos x on (0,1),
whose monotonicity pattern encodes two-sided arccos bounds.  Its derivative
factors through

    g(a,b; x)  = a + b + (a-b)*x - sqrt(1-x**2)/arccos x,

and the sign analysis of g cascades down a parameter-free chain
q -> h -> g'' (q < 0, h > 0, g'' > 0 on [0,1)).  All of those, the critical
value envelope, and the square-root-kernel comparison function F are
evaluable in float64 or at any requested decimal precision.

Each formula is written once, as a function of a backend m (sqrt, log1p,
exp, acos, pi, and num to lift a parameter), the Params p and the point x.
_F64 serves it from math and arccos_stable, _MP from mpmath at the working
precision and acos_mp; both arccos names are looked up at call time, so
rebinding them here reaches every formula.  _MP's log1p is mp.log(1 + x):
rounding 1 + x costs half an ulp of 1 at most, which the guard digits
absorb, and it keeps every high-precision value the same to the last bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

from mpmath import mp, mpf

from .oracle import acos_mp, arccos_stable, default_digits, hp_context

# float64 evaluations this close to an endpoint are computed at the default
# high precision instead: 1 - x**2 style cancellation destroys doubles there
ENDPOINT_PROMOTE = 1e-8

# wider bands for the expressions that cancel worse near x = 1:
# h goes like (1-x)**3 and q like (1-x)**(5/2) against O(1-x) terms,
# g' is a difference of two terms growing like 1/(1-x)
CHAIN_PROMOTE = 1e-5
GPRIME_PROMOTE = 1e-4

TWO_SQRT2 = 2.0 * math.sqrt(2.0)

CHAIN_SELECTORS = ("h", "q", "g_second", "big_g")

_F64 = SimpleNamespace(
    num=operator.pos,  # the identity on float (and int) parameters
    sqrt=math.sqrt,
    log1p=math.log1p,
    exp=math.exp,
    acos=lambda x: arccos_stable(x),
    pi=math.pi,
)
_MP = SimpleNamespace(
    num=mpf,
    sqrt=mp.sqrt,
    log1p=lambda x: mp.log(1 + x),
    exp=mp.exp,
    acos=lambda x: acos_mp(x),
    pi=mp.pi,
)


@dataclass(frozen=True)
class Params:
    """Exponent pair (a, b) of the family; any finite reals."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"parameters must be finite, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class EvalPoint:
    """Evaluation point with requested precision.

    digits=None means float64 (auto-promoted near the endpoints); an integer
    requests that many decimal digits.  x may be a float, mpf, or decimal
    string so callers can state points like 1 - 1e-30 exactly.
    """

    x: float | str | mpf
    digits: int | None = None


def _domain_error(x, lo_txt: str, hi_txt: str):
    raise ValueError(f"x must be in {lo_txt}0, 1{hi_txt}, got {x}")


def _evaluate(pt: EvalPoint, expr, p: Params | None, include_zero: bool, band: float = ENDPOINT_PROMOTE):
    """expr(m, p, x) with the float64 or the high-precision backend m.

    Domain is [0,1) when include_zero else (0,1); checks run on the value in
    the precision the point carries, so string/mpf points survive intact.
    float64 requests within `band` of x = 1 (or within the general band of
    x = 0) are silently computed at the default high precision.
    """
    lo_txt, hi_txt = ("[", ")") if include_zero else ("(", ")")
    if pt.digits is not None:
        with hp_context(pt.digits):
            xm = mpf(pt.x)
            ok = (xm >= 0 if include_zero else xm > 0) and xm < 1
            if not ok:
                _domain_error(pt.x, lo_txt, hi_txt)
            return expr(_MP, p, xm)
    x = float(pt.x)
    ok = (x >= 0.0 if include_zero else x > 0.0) and x < 1.0
    if not ok:
        _domain_error(pt.x, lo_txt, hi_txt)
    if (0.0 < x <= ENDPOINT_PROMOTE) or (1.0 - x <= band):
        with hp_context(default_digits()):
            return float(expr(_MP, p, mpf(pt.x)))
    return expr(_F64, p, x)


# ---------------------------------------------------------------------------
# f and its endpoint limits


def _f(m, p, x):
    return m.exp(p.b * m.log1p(x) - p.a * m.log1p(-x)) * m.acos(x)


def f_eval(p: Params, pt: EvalPoint):
    """f(a,b; x) = (1+x)**b * (1-x)**(-a) * arccos x, x in (0,1)."""
    return _evaluate(pt, _f, p, include_zero=False)


def f_limit_at_1(p: Params) -> float:
    """Limit of f at x -> 1-: 2**(b+1/2) when a == 1/2, 0 below, inf above."""
    if p.a == 0.5:
        return math.pow(2.0, p.b + 0.5)
    return 0.0 if p.a < 0.5 else math.inf


# ---------------------------------------------------------------------------
# g, g' and their endpoint limits


def _g(m, p, x):
    a, b = m.num(p.a), m.num(p.b)
    if not x:
        return a + b - 2 / m.pi
    return a + b + (a - b) * x - m.sqrt((1 - x) * (1 + x)) / m.acos(x)


def _g_at_1(m, p):
    return 2.0 * m.num(p.a) - 1.0


def _g_prime(m, p, x):
    a, b = m.num(p.a), m.num(p.b)
    if not x:
        return a - b - 4 / m.pi**2
    ac = m.acos(x)
    return a - b - 1 / (ac * ac) + x / (m.sqrt((1 - x) * (1 + x)) * ac)


def _g_prime_at_1(m, p):
    return m.num(p.a) - m.num(p.b) - m.num(1.0) / 3


def _exact_zero(pt: EvalPoint) -> EvalPoint:
    """pt moved onto x = 0 when float(x) is 0, where the closed forms at 0 apply."""
    try:
        return EvalPoint(0.0, pt.digits) if float(pt.x) == 0.0 else pt
    except (TypeError, ValueError):
        return pt


def g_eval(p: Params, pt: EvalPoint):
    """g(a,b; x) = a + b + (a-b)*x - sqrt(1-x**2)/arccos x, x in [0,1).

    At x == 0 the closed form a + b - 2/pi is returned directly.
    """
    return _evaluate(_exact_zero(pt), _g, p, include_zero=True)


def g_limit_at_1(p: Params) -> float:
    """Limit of g at x -> 1-: 2a - 1."""
    return _g_at_1(_F64, p)


def g_prime_eval(p: Params, pt: EvalPoint):
    """g'(a,b; x) = a - b - 1/arccos(x)**2 + x/(sqrt(1-x**2)*arccos x).

    At x == 0 the closed form a - b - 4/pi**2 is returned directly; the
    x -> 1- limit a - b - 1/3 is delivered by g_prime_limit_at_1.
    """
    return _evaluate(_exact_zero(pt), _g_prime, p, include_zero=True, band=GPRIME_PROMOTE)


def g_prime_limit_at_1(p: Params) -> float:
    """Limit of g' at x -> 1-: a - b - 1/3."""
    return _g_prime_at_1(_F64, p)


# ---------------------------------------------------------------------------
# parameter-free proof chain: h, q, g'' and the F-derivative kernel G


def _h(m, p, x):
    ac = m.acos(x)
    return ac * ac + x * m.sqrt((1 - x) * (1 + x)) * ac + 2 * (x - 1) * (x + 1)


def _q(m, p, x):
    return 3 * x * m.sqrt((1 - x) * (1 + x)) / (1 + 2 * x * x) - m.acos(x)


def _g_second(m, p, x):
    return _h(m, p, x) / (((1 - x) * (1 + x)) ** 1.5 * m.acos(x) ** 3)


def _big_g(m, p, x):
    top = (m.sqrt(1 + x) + 2 * m.sqrt(2)) * m.sqrt(1 - x)
    return m.acos(x) - top / (1 + m.sqrt(2 * (x + 1)))


_CHAIN = {
    "h": (_h, CHAIN_PROMOTE),
    "q": (_q, CHAIN_PROMOTE),
    "g_second": (_g_second, CHAIN_PROMOTE),
    "big_g": (_big_g, ENDPOINT_PROMOTE),
}


def chain_eval(which: str, p: Params | None, pt: EvalPoint):
    """Evaluate a proof-chain function on [0,1); p is accepted but unused.

    h(x)  = arccos(x)**2 + x*sqrt(1-x**2)*arccos x + 2x**2 - 2
    q(x)  = 3x*sqrt(1-x**2)/(1+2x**2) - arccos x
    g''   = h(x) / ((1-x**2)**(3/2) * arccos(x)**3)   (parameter-free)
    big_g = arccos x - (sqrt(1+x)+2*sqrt(2))*sqrt(1-x)/(1+sqrt(2(x+1)))
    """
    if which not in _CHAIN:
        raise ValueError(f"unknown chain function {which!r}; expected one of {CHAIN_SELECTORS}")
    expr, band = _CHAIN[which]
    return _evaluate(pt, expr, p, include_zero=True, band=band)


# ---------------------------------------------------------------------------
# critical-value envelope, its extremum locations, and the minimum bound for g


def _envelope(m, p, x):
    a, b = m.num(p.a), m.num(p.b)
    den = a + b + (a - b) * x
    if den == 0:
        raise ValueError(f"envelope pole: a+b+(a-b)x = 0 at x = {x}")
    return m.exp((b + 0.5) * m.log1p(x) + (0.5 - a) * m.log1p(-x)) / den


def _envelope_disc(m, p):
    """16ab(b-a) + (a+b)**2, the closed discriminant of the envelope-derivative quadratic."""
    a, b = m.num(p.a), m.num(p.b)
    return 16.0 * a * b * (b - a) + (a + b) * (a + b)


def _envelope_roots(m, p, disc):
    """Roots x1 <= x2 of the envelope-derivative quadratic; needs a != b."""
    a, b = m.num(p.a), m.num(p.b)
    s, d = a + b, a - b
    rt = m.sqrt(disc)
    return (s * (1 - 2 * d) - rt) / (2 * (d * d)), (s * (1 - 2 * d) + rt) / (2 * (d * d))


def envelope_eval(p: Params, pt: EvalPoint):
    """Critical-value envelope (1+x)**(b+1/2) * (1-x)**(1/2-a) / (a+b+(a-b)x).

    This is the value f takes at a critical point located at x; its interior
    extrema give the coefficient bounds.  Raises on the pole a+b+(a-b)x = 0.
    """
    return _evaluate(pt, _envelope, p, include_zero=False)


def g_min_lower_bound(p: Params) -> float:
    """Lower bound a+b - 2(a-b)**1.5/sqrt(4(a-b)-1) for min g; needs a-b > 1/4."""
    d = p.a - p.b
    if 4.0 * d - 1.0 <= 0.0:
        raise ValueError(f"g_min_lower_bound needs a - b > 1/4, got a - b = {d}")
    return p.a + p.b - 2.0 * d**1.5 / math.sqrt(4.0 * d - 1.0)


# ---------------------------------------------------------------------------
# the square-root-kernel comparison function F


def _big_f(m, p, x):
    return (2 * m.sqrt(2) + m.sqrt(1 + x)) / m.sqrt(1 - x) * m.acos(x)


def big_f_eval(pt: EvalPoint):
    """F(x) = (2*sqrt(2) + sqrt(1+x)) / sqrt(1-x) * arccos x on (0,1).

    Strictly decreasing, from (1/2+sqrt(2))*pi at 0+ down to 6 at 1-.
    """
    return _evaluate(pt, _big_f, None, include_zero=False)
