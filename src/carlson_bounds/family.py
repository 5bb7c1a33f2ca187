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
exp, acos, pi, num to lift a parameter, and the chain kernels below), the
Params p and the point x.  _F64 serves it from math and arccos_stable, _MP
from mpmath at the working precision and acos_mp; both arccos names are
looked up at call time, so rebinding them here reaches every formula.
_MP's log1p is mp.log(1 + x): rounding 1 + x costs half an ulp of 1 at
most, which the guard digits absorb, and it keeps every high-precision
value the same to the last bit.

The chain cancels as x -> 1.  With theta = arccos x,

    g'  = (a-b) - k(theta),  k = 1/theta**2 - cot(theta)/theta -> 1/3,
    h   = theta**2 + theta*sin(theta)*cos(theta) - 2*sin(theta)**2
        = theta**3 * sin(theta)**2 * k'(theta)                  ~ 2*theta**6/45,
    q   = 3*sin(theta)*cos(theta)/(1 + 2*cos(theta)**2) - theta  ~ -4*theta**5/45,
    g'' = h / (sin(theta)**3 * theta**3),
    G   = theta - 2*sin(theta/2)*(2 + cos(theta/2))/(1 + 2*cos(theta/2))
                                                                ~ -theta**5/720,

so the backend supplies the four cancelling kernels minus_k (d - k for
d = a-b), h, q and big_g of x and theta, each written once in closed form
over the backend; _MP's are those.  _F64's minus_k, h and q are Taylor
polynomials in theta**2 below _THETA0 = 0.6 (x above 0.825), and its big_g
one on all of [0, pi/2].  Their coefficients are derived exactly at import,
in integers, by one power-series quotient (_quotient), and each float64
coefficient is its exact value rounded once.  Against 50 digits g' errs by
under 1.5e-15 absolute, h, q and g'' by 1.5e-13 relative and G by 1.5e-15,
so a float64 request stays in float64: no lock, and mpmath's precision is
not read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

from mpmath import mp, mpf

from .oracle import acos_mp, arccos_stable, hp_context, resolve_digits

# 0.0: nothing is promoted, and perfbench/tracer.py reads these (ROADMAP item 6)
ENDPOINT_PROMOTE = GPRIME_PROMOTE = CHAIN_PROMOTE = 0.0

TWO_SQRT2 = 2.0 * math.sqrt(2.0)

CHAIN_SELECTORS = ("h", "q", "g_second", "big_g")

# below this theta = arccos x the float64 g', h and q kernels take their series
_THETA0 = 0.6


def _quotient(num, den, start, stop):
    """Coefficients start..stop-1 of the power series num(u) / den(u), exact.

    num(i) and den(i) give the coefficient of u**i as a pair (p, q), q > 0,
    standing for p/q; the results are such pairs, in lowest terms.
    """
    b = [den(i) for i in range(stop)]
    c = []
    for i in range(stop):
        p, q = num(i)
        for (cp, cq), (bp, bq) in zip(c, b[i:0:-1]):
            p, q = p * cq * bq - cp * bp * q, q * cq * bq
        p, q = p * b[0][1], q * b[0][0]
        g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
        c.append((p // g, q // g))
    return c[start:]


# the chain kernels' theta-series in powers of u = theta**2, exact; each
# float64 entry is its fraction rounded once (int / int rounds correctly)
_fact = math.factorial
# _K[n], the coefficient of u**n in k(theta) = (1 - theta*cot(theta)) / theta**2,
# is that of u**(n+1) in -theta*cot(theta) = -cos(theta) / (sin(theta)/theta);
# at theta0 the first omitted term is 4e-21 of k, and 2e-18 of k' below
_K_EXACT = _quotient(
    lambda i: ((-1) ** (i + 1), _fact(2 * i)), lambda i: ((-1) ** i, _fact(2 * i + 1)), 1, 15
)
# q(theta) / theta**5: q/theta = (3/2) (sin(2 theta)/theta) / (2 + cos(2 theta)) - 1
# from u**2 on, below which the terms cancel; its poles at pi/2 +- 0.66i
# (|theta| = 1.70) set the decay, and at theta0 the first omitted term is
# 1.3e-18 of the sum
_Q_EXACT = _quotient(
    lambda i: (3 * (-4) ** i, _fact(2 * i + 1)),
    lambda i: ((-4) ** i, _fact(2 * i)) if i else (3, 1),
    2,
    21,
)
# G(theta) / theta**5: G/theta = 1 - ((4 sin(theta/2) + sin(theta))/theta) /
# (1 + 2 cos(theta/2)) from u**2 on, below which the terms cancel; its poles
# at +-4pi/3 set the decay, and at pi/2 the first omitted term is 5e-16 of
# the sum (all terms < 0)
_G_EXACT = _quotient(
    lambda i: ((-1) ** (i + 1) * (4 + 2 ** (2 * i + 1)), 2 ** (2 * i + 1) * _fact(2 * i + 1)),
    lambda i: ((-1) ** i * 2, 4**i * _fact(2 * i)) if i else (3, 1),
    2,
    20,
)
_K, _Q, _G = (tuple(p / q for p, q in s) for s in (_K_EXACT, _Q_EXACT, _G_EXACT))
# the series as _poly takes them, from the highest power down; _KP_DESC is
# k'(theta) / theta = sum over n >= 1 of 2n * _K[n] * theta**(2n-2), from the
# rounded _K[n] (the exact products round 4 of its 13 entries differently)
_K_DESC = _K[::-1]
_KP_DESC = tuple(2 * n * c for n, c in enumerate(_K) if n)[::-1]
_Q_DESC = _Q[::-1]
_G_DESC = _G[::-1]


def _poly(desc, t):
    """The polynomial in t with coefficients desc, highest power first (Horner)."""
    acc = 0.0
    for c in desc:
        acc = acc * t + c
    return acc


# the chain kernels in closed form, over the backend m, x and ac = arccos x;
# _MP's kernels are these, and _F64's take a series where these cancel


def _minus_k_closed(m, d, x, ac):
    return d - 1 / (ac * ac) + x / (m.sqrt((1 - x) * (1 + x)) * ac)


def _h_closed(m, x, ac):
    return ac * ac + x * m.sqrt((1 - x) * (1 + x)) * ac + 2 * (x - 1) * (x + 1)


def _q_closed(m, x, ac):
    return 3 * x * m.sqrt((1 - x) * (1 + x)) / (1 + 2 * x * x) - ac


def _big_g_closed(m, x, ac):
    top = (m.sqrt(1 + x) + 2 * m.sqrt(2)) * m.sqrt(1 - x)
    return ac - top / (1 + m.sqrt(2 * (x + 1)))


def _minus_k64(d, x, ac):
    if ac < _THETA0:
        return d - _poly(_K_DESC, ac * ac)
    return _minus_k_closed(_F64, d, x, ac)


def _h64(x, ac):
    if ac < _THETA0:
        t = ac * ac
        return (1 - x) * (1 + x) * t * t * _poly(_KP_DESC, t)
    return _h_closed(_F64, x, ac)


def _q64(x, ac):
    if ac < _THETA0:
        t = ac * ac
        return ac * t * t * _poly(_Q_DESC, t)
    return _q_closed(_F64, x, ac)


def _big_g64(x, ac):
    t = ac * ac
    return ac * t * t * _poly(_G_DESC, t)


_F64 = SimpleNamespace(
    num=operator.pos,  # the identity on float (and int) parameters
    sqrt=math.sqrt,
    log1p=math.log1p,
    exp=math.exp,
    acos=lambda x: arccos_stable(x),
    pi=math.pi,
    minus_k=_minus_k64,
    h=_h64,
    q=_q64,
    big_g=_big_g64,
)
_MP = SimpleNamespace(
    num=mpf,
    sqrt=mp.sqrt,
    log1p=lambda x: mp.log(1 + x),
    exp=mp.exp,
    acos=lambda x: acos_mp(x),
    pi=mp.pi,
    minus_k=lambda d, x, ac: _minus_k_closed(_MP, d, x, ac),
    h=lambda x, ac: _h_closed(_MP, x, ac),
    q=lambda x, ac: _q_closed(_MP, x, ac),
    big_g=lambda x, ac: _big_g_closed(_MP, x, ac),
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

    digits=None means float64, on the whole domain; an integer in
    [MIN_DIGITS, MAX_DIGITS] requests that many decimal digits, and any other
    raises ValueError when the point is evaluated.  x may be a float, mpf, or
    decimal string so callers can state points like 1 - 1e-30 exactly.
    """

    x: float | str | mpf
    digits: int | None = None


def _in_domain(v, x, include_zero: bool):
    """v, the point x in the precision it carries, checked to lie in [0,1) or (0,1)."""
    if not ((v >= 0 if include_zero else v > 0) and v < 1):
        raise ValueError(f"x must be in {'[' if include_zero else '('}0, 1), got {x}")
    return v


def _evaluate(pt: EvalPoint, expr, p: Params | None, include_zero: bool):
    """expr(m, p, x) with m = _F64 for a float64 request, else _MP in hp_context.

    Domain is [0,1) when include_zero else (0,1); checks run on the value in
    the precision the point carries, so string/mpf points survive intact.
    """
    if pt.digits is not None:
        with hp_context(resolve_digits(pt.digits)):
            return expr(_MP, p, _in_domain(mpf(pt.x), pt.x, include_zero))
    return expr(_F64, p, _in_domain(float(pt.x), pt.x, include_zero))


# ---------------------------------------------------------------------------
# f and its endpoint limits


def _f(m, p, x):
    return m.exp(p.b * m.log1p(x) - p.a * m.log1p(-x)) * m.acos(x)


def f_eval(p: Params, pt: EvalPoint):
    """f(a,b; x) = (1+x)**b * (1-x)**(-a) * arccos x, x in (0,1)."""
    return _evaluate(pt, _f, p, include_zero=False)


def f64(p: Params, x: float) -> float:
    """f in float64 at x in (0,1), without domain checks; an overflowing exp
    gives inf, as IEEE arithmetic would."""
    try:
        return _f(_F64, p, x)
    except OverflowError:
        return math.inf


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
    return m.minus_k(a - b, x, m.acos(x))


def _g_prime_at_1(m, p):
    return m.num(p.a) - m.num(p.b) - m.num(1.0) / 3


def g_eval(p: Params, pt: EvalPoint):
    """g(a,b; x) = a + b + (a-b)*x - sqrt(1-x**2)/arccos x, x in [0,1).

    At x == 0 the closed form a + b - 2/pi is returned directly.
    """
    return _evaluate(pt, _g, p, include_zero=True)


def g_limit_at_1(p: Params) -> float:
    """Limit of g at x -> 1-: 2a - 1."""
    return _g_at_1(_F64, p)


def g_prime_eval(p: Params, pt: EvalPoint):
    """g'(a,b; x) = a - b - 1/arccos(x)**2 + x/(sqrt(1-x**2)*arccos x).

    At x == 0 the closed form a - b - 4/pi**2 is returned directly; the
    x -> 1- limit a - b - 1/3 is delivered by g_prime_limit_at_1.
    """
    return _evaluate(pt, _g_prime, p, include_zero=True)


def g_prime_limit_at_1(p: Params) -> float:
    """Limit of g' at x -> 1-: a - b - 1/3."""
    return _g_prime_at_1(_F64, p)


# ---------------------------------------------------------------------------
# parameter-free proof chain: h, q, g'' and the F-derivative kernel G


def _h(m, p, x):
    return m.h(x, m.acos(x))


def _q(m, p, x):
    return m.q(x, m.acos(x))


def _g_second(m, p, x):
    ac = m.acos(x)
    return m.h(x, ac) / (((1 - x) * (1 + x)) ** 1.5 * ac**3)


def _big_g(m, p, x):
    return m.big_g(x, m.acos(x))


_CHAIN = {"h": _h, "q": _q, "g_second": _g_second, "big_g": _big_g}


def chain_eval(which: str, pt: EvalPoint):
    """Evaluate a parameter-free proof-chain function on [0,1).

    h(x)  = arccos(x)**2 + x*sqrt(1-x**2)*arccos x + 2x**2 - 2
    q(x)  = 3x*sqrt(1-x**2)/(1+2x**2) - arccos x
    g''   = h(x) / ((1-x**2)**(3/2) * arccos(x)**3)   (parameter-free)
    big_g = arccos x - (sqrt(1+x)+2*sqrt(2))*sqrt(1-x)/(1+sqrt(2(x+1)))
    """
    if which not in _CHAIN:
        raise ValueError(f"unknown chain function {which!r}; expected one of {CHAIN_SELECTORS}")
    return _evaluate(pt, _CHAIN[which], None, include_zero=True)


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


def _envelope_extrema(m, p):
    """(x1, x2), the envelope's maximum and minimum candidates; None where absent.

    They are the quadratic's roots when its closed discriminant is positive;
    for a == b its one root a+b is x1 when positive and x2 otherwise.
    """
    if p.a == p.b:
        s = m.num(p.a) + m.num(p.b)
        return (s, None) if s > 0 else (None, s)
    disc = _envelope_disc(m, p)
    return _envelope_roots(m, p, disc) if disc > 0 else (None, None)


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
