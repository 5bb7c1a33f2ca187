"""Certified two-sided arccos bounds assembled from the inequality families.

Four concrete double inequalities are available, all of the shape
lower(x) < arccos x < upper(x) on (0,1):

  carlson         6*sqrt(1-x)/(2*sqrt(2)+sqrt(1+x)) .. cbrt(4)*sqrt(1-x)/(1+x)**(1/6)
  thm2(b)         (pi/2)*sqrt(1-x)/(1+x)**b .. 2**(b+1/2)*sqrt(1-x)/(1+x)**b, b >= 1/6
  thm2_reversed(b)  the reverse of thm2, valid for b <= 2/pi - 1/2
  thm3            6*sqrt(1-x)/(2*sqrt(2)+sqrt(1+x)) .. (1/2+sqrt(2))*pi*sqrt(1-x)/(2*sqrt(2)+sqrt(1+x))

plus the one-sided coefficient bounds thm2_maxcoef(a,b) (upper only) and
thm2_mincoef(a,b) (lower only) built from the envelope extremum.  One
table, _KIND_PARAMS, gives each kind's parameters: BoundFamily rejects an
unknown kind, a missing, extra or bool parameter with ValueError and keeps
each parameter as a float, and id and parse_family read the same table.

Each family is written once, in this square-root/power form, over a backend
(family._F64 or family._MP): pair_f64 and pair_mp run the same expressions
on the terms 1-x, 1+x, sqrt(1-x) and sqrt(1-x)/(2*sqrt(2)+sqrt(1+x)), which
one function, _shared_terms, computes once per point for both backends.

Against 60 digits the float64 kernels err by about 2 eps at most for small
|b| (2.2 eps for the default families, 2.8 eps for thm2(3)); the rounding
of 1+x, raised to the power b, adds up to |b|/2 eps (51 eps for thm2(100)).
kernel_error states a derived bound on that error, after Higham's
unit-roundoff counts, for carlson, thm3, and thm2 and thm2_reversed with
|b| <= 16, assuming libm pow and atan2 err by under 1 ulp; margin_error
extends it to the verifier's float64 containment margins.  Both are inf
for every other family.  The derivation is in the comment above _OUT.

best_envelope intersects the enabled families.  Doubles handed back by the
certified paths are rounded outward (lower down, upper up) by a few ulp so
the interval still contains arccos x after float64 evaluation error.

bound_table's reference column is the oracle rounded to a double, read from
a 110-bit first pass unless that lies near a rounding midpoint (_reference).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_atan

from . import classifier, family
from .classifier import TWO_OVER_PI
from .family import _F64, _MP, TWO_SQRT2, Params
from .oracle import DEFAULT_DIGITS, MP_CONSTANTS, arccos_hp, const_hp, resolve_digits

ONE_SIXTH = 1.0 / 6.0
B_STAR = TWO_OVER_PI - 0.5  # sharp reversed-family threshold 2/pi - 1/2
CBRT4 = float(const_hp("CBRT4", DEFAULT_DIGITS))
BEST_UPPER_THM3 = float(const_hp("BEST_UPPER_THM3", DEFAULT_DIGITS))

# Forward error of the float64 kernels, after Higham (Accuracy and Stability
# of Numerical Algorithms, 2nd ed., ch. 3), in units of the unit roundoff
# rho = 2**-53.  Each correctly rounded +, -, *, / and sqrt multiplies its
# exact result by (1 + d), |d| <= rho; libm pow and atan2 are assumed to err
# by under 1 ulp, at most 2 rho relative for a normal result.  A value built
# from k such factors, raised to powers p_i, errs by at most
# (sum |p_i| k_i) rho to first order; the higher-order terms stay under
# another rho while that sum is below 2**25.  For a double x in [0, 1) and
# the families below every intermediate is a normal double, so these
# relative bounds hold.  Counts:
#   1 - x        1 (exact for x >= 1/2 by Sterbenz)   sqrt(1 - x)  1.5
#   1 + x        1                                    sqrt(1 + x)  1.5
#   2*sqrt(2)    1                                    base = sqrt(1-x)/(2*sqrt(2)+sqrt(1+x))  5
#   carlson, thm3 lower 6*base: 6;  thm3 upper const*base: 7 (the constant
#     rounded once);  carlson upper cbrt4*sqrt(1-x)/(1+x)**(1/6): 1 + 1.5 +
#     1 + (1/6 + ln2/6 + 2) + 1 < 7, the ln2/6 for 1/6 rounded in the
#     exponent;
#   thm2(b), thm2_reversed(b): w = sqrt(1-x)/(1+x)**b takes 1.5 + |b| (1 + x
#     raised to b) + 2 (pow) + 1 = 4.5 + |b|; (pi/2)*w adds 2, giving
#     6.5 + |b|, and 2**(b+1/2)*w adds 1 + 2 + ln2*|b + 1/2| (b + 1/2 rounded
#     in the exponent), giving 7.5 + |b| + 0.7*|b + 1/2|.
# _DERIVED_B = 16 keeps each intermediate within [2**-60, 2**40], clear of
# subnormals and overflow; kernel_error is inf beyond it and for the
# coefficient families, whose bounds are not derived.  The default
# families' largest bound is thm2(1/6)'s upper, 8.2 rho (4.1 eps); against
# 60 digits they err by at most 2.2 eps (4.4 rho).
#
# _OUT nudges the envelope outward: lower*(1 - _OUT) rounds once more, so it
# lies under the exact lower when the kernel bound + 1 stays under 16 eps =
# 32 rho, as it does for every default family
# (test_derived_error_bounds_cover_60_digit_errors).  Large |b| is not
# derived: there the bounds are loose except as x -> 0 and x -> 1, where
# their gap to arccos grows with |b| as fast as the rounding of 1 + x
# (test_large_b_families_contain_arccos_near_the_endpoints).
#
# margin_error bounds a containment margin m = (arccos x - lower)/arccos x
# or (upper - arccos x)/arccos x taken in float64 from pair_f64 and
# oracle.arccos_stable.  arccos_stable = 2*atan2(sqrt(1-x), sqrt(1+x)): the
# ratio of the square roots errs by 3 rho, atan's relative condition number
# t/((1+t*t)*atan t) is at most 1, and atan2 adds 2, so 5 rho.  With r the
# bound over arccos x, |r| <= 1 + |m|, the quotient errs by
# |r|*(kernel + 5) rho, and the subtraction and division round twice more,
# at most |m|*2 rho.  The verifier's digits margin at >= 93 bits errs by
# under 2**-80*(1 + |m|) for these families (mpmath's acos, log and exp taken
# as under 1 ulp), covered by one more rho, and one rho covers the
# higher-order terms and the rounding of the bound itself.  So a float64
# margin m64 is within margin_error(fam)*(1 + |m64|) of the digits margin,
# with margin_error = (kernel + 9) rho, whenever m64 is a normal double.
_RHO = 2.0**-53
_DERIVED_B = 16.0
_OUT = 16.0 * math.ulp(1.0)
_LO_OUT = 1.0 - _OUT
_UP_OUT = 1.0 + _OUT
_RADIUS_OUT = 1.0 + 4.0 * math.ulp(1.0)
_PI_DOWN = math.nextafter(math.pi, 0.0)
_PI_UP = math.nextafter(math.pi, 4.0)


def kernel_error(fam: BoundFamily) -> tuple[float, float]:
    """Derived relative error bounds of fam.pair_f64's (lower, upper); inf outside the derivation."""
    if fam.kind in ("carlson", "thm3"):
        return 6 * _RHO, 7 * _RHO
    if fam.kind in ("thm2", "thm2_reversed") and abs(fam.b) <= _DERIVED_B:
        half_pi = (6.5 + abs(fam.b)) * _RHO
        top = (7.5 + abs(fam.b) + 0.7 * abs(fam.b + 0.5)) * _RHO
        return (half_pi, top) if fam.kind == "thm2" else (top, half_pi)
    return math.inf, math.inf


def margin_error(fam: BoundFamily) -> float:
    """E with |m64 - m| <= E*(1 + |m64|) for fam's float64 containment margins m64; inf outside the derivation."""
    return max(kernel_error(fam)) + 9 * _RHO


# the parameters each family kind takes, in the order its id lists them
_KIND_PARAMS = {
    "carlson": (),
    "thm2": ("b",),
    "thm2_reversed": ("b",),
    "thm3": (),
    "thm2_maxcoef": ("a", "b"),
    "thm2_mincoef": ("a", "b"),
}
FAMILY_KINDS = tuple(_KIND_PARAMS)


@dataclass(frozen=True)
class BoundFamily:
    """One inequality family; b/a are set only where the kind needs them."""

    kind: str
    b: float | None = None
    a: float | None = None

    def __post_init__(self) -> None:
        params = _KIND_PARAMS.get(self.kind)
        if params is None:
            raise ValueError(f"invalid family kind {self.kind!r}")
        if (self.a is not None, self.b is not None) != ("a" in params, "b" in params) or any(
            isinstance(getattr(self, name), bool) for name in params
        ):
            raise ValueError(f"{self.kind} takes ({', '.join(params)}), got a = {self.a}, b = {self.b}")
        # |b| < 1023 keeps 2**(b+1/2) and (1+x)**b, 1+x in [1, 2), finite
        # and non-zero in float64
        if self.b is not None and not abs(self.b) < 1023.0:
            raise ValueError(f"{self.kind}: b must be finite with |b| < 1023, got {self.b}")
        if self.a is not None and not math.isfinite(self.a):
            raise ValueError(f"{self.kind}: a must be finite, got {self.a}")
        # stored as floats, so that thm2(1) and thm2(1.0) share the id parse_family reads back
        for name in params:
            object.__setattr__(self, name, float(getattr(self, name)))

    def __reduce__(self):
        # rebuild from the fields: the cached float64 kernel is a closure
        return BoundFamily, (self.kind, self.b, self.a)

    @cached_property
    def id(self) -> str:
        params = _KIND_PARAMS[self.kind]
        if not params:
            return self.kind
        return f"{self.kind}({','.join(repr(getattr(self, name)) for name in params)})"

    @cached_property
    def is_valid(self) -> bool:
        """Whether the family's validity condition holds for its parameters."""
        if self.kind in ("carlson", "thm3"):
            return True
        if self.kind == "thm2":
            return self.b >= ONE_SIXTH
        if self.kind == "thm2_reversed":
            return self.b <= B_STAR
        # the class first: extrema_points raises for the degenerate a = b = 0,
        # which is in neither class
        p = Params(self.a, self.b)
        upper_only = self.kind == "thm2_maxcoef"
        region = classifier.RegionClass.UNIQUE_MAX if upper_only else classifier.RegionClass.UNIQUE_MIN
        if classifier.classify_symbolic(p) is not region:
            return False
        rep = classifier.extrema_points(p)
        if upper_only:
            return rep.disc_closed > 0.0 and rep.x1 is not None and rep.x1 > 0.0
        return rep.disc_closed > 0.0 and rep.x2 is not None and 0.0 < rep.x2 < 1.0

    # raw expression values (no validity gate -- the verifier probes invalid
    # parameter choices on purpose to exhibit violations)

    def pair_f64(self, x: float) -> tuple[float | None, float | None]:
        """(lower, upper) at x in [0,1); one-sided kinds return None for the other."""
        return self._kernel(*_shared_terms(x))

    @cached_property
    def _kernel(self):
        """The float64 kernel; its per-family constants are computed on first use."""
        return self._build_kernel(_F64)

    def pair_mp(self, x: mpf) -> tuple[mpf | None, mpf | None]:
        """Same expressions in mpmath arithmetic at the caller's precision."""
        return PairMemo(x)[self]

    def _kernel_mp(self):
        """The mpmath kernel, with the family's constants at the working precision.

        Only the latest precision's kernel is kept; it is rebuilt when mp.prec
        changes, so every value matches the expression evaluated from scratch
        at that precision to the last bit.
        """
        slot = self.__dict__.get("_mp_slot")
        if slot is None or slot[0] != mp.prec:
            # written past the frozen dataclass, as cached_property does
            slot = self.__dict__["_mp_slot"] = (mp.prec, self._build_kernel(_MP))
        return slot[1]

    def _build_kernel(self, m):
        """(lower, upper) from the shared terms of x, in backend m (_F64 or _MP).

        The family's constants (cbrt(4), (1/2+sqrt(2))*pi, pi/2, 2**(b+1/2),
        the envelope coefficient) are computed here, once per kernel.
        """
        one = m.num(1.0)
        if self.kind == "carlson":
            cbrt4, sixth = CBRT4 if m is _F64 else MP_CONSTANTS["CBRT4"](), one / 6
            return lambda onem, onep, s1m, base: (6 * base, cbrt4 * s1m / onep**sixth)
        if self.kind == "thm3":
            top = BEST_UPPER_THM3 if m is _F64 else MP_CONSTANTS["BEST_UPPER_THM3"]()
            return lambda onem, onep, s1m, base: (6 * base, top * base)
        b = m.num(self.b)
        if self.kind in ("thm2", "thm2_reversed"):
            pi_half, top = m.pi / 2, 2 ** (b + one / 2)
            lo_c, up_c = (pi_half, top) if self.kind == "thm2" else (top, pi_half)

            def weighted(onem, onep, s1m, base):
                w = s1m / onep**b
                return lo_c * w, up_c * w

            return weighted
        upper_only = self.kind == "thm2_maxcoef"
        coef, a = self._coefficient(m, upper_only), m.num(self.a)

        def one_sided(onem, onep, s1m, base):
            w = onem**a / onep**b
            return (None, coef * w) if upper_only else (coef * w, None)

        return one_sided

    def _coefficient(self, m, upper_only: bool):
        """The envelope's value at its interior maximum (upper_only) or minimum."""
        p = Params(self.a, self.b)
        root = family._envelope_extrema(m, p)[0 if upper_only else 1]
        # outside (0,1) the envelope has no value (at x = 1 it is 0*log(0))
        if root is None or not 0 < root < 1:
            side = "maximum" if upper_only else "minimum"
            raise ValueError(f"{self.id}: envelope {side} not inside (0,1)")
        return family._envelope(m, p, root)


def carlson() -> BoundFamily:
    return BoundFamily("carlson")


def thm2(b: float) -> BoundFamily:
    return BoundFamily("thm2", b=b)


def thm2_reversed(b: float) -> BoundFamily:
    return BoundFamily("thm2_reversed", b=b)


def thm3() -> BoundFamily:
    return BoundFamily("thm3")


def thm2_maxcoef(a: float, b: float) -> BoundFamily:
    return BoundFamily("thm2_maxcoef", b=b, a=a)


def thm2_mincoef(a: float, b: float) -> BoundFamily:
    return BoundFamily("thm2_mincoef", b=b, a=a)


@dataclass(frozen=True)
class BoundInterval:
    """Certified lower/upper pair with the contributing family ids."""

    lower: float | None
    upper: float | None
    lower_family: str | None
    upper_family: str | None

    @property
    def width(self) -> float | None:
        if self.lower is None or self.upper is None:
            return None
        return self.upper - self.lower


def parse_family(text: str) -> BoundFamily:
    """Parse a family id like carlson, thm2(0.2) or thm2_maxcoef(0.5,0.14)."""
    text = text.strip()
    kind, paren, rest = text.partition("(")
    params = _KIND_PARAMS.get(kind)
    if params == () and not paren:
        return BoundFamily(kind)
    if params and rest.endswith(")"):
        try:
            args = [float(t) for t in rest[:-1].split(",")]
        except ValueError:  # an empty or non-numeric parameter
            args = []
        if len(args) == len(params):
            return BoundFamily(kind, **dict(zip(params, args)))
    raise ValueError(f"unrecognized bound family {text!r}")


def _shared_terms(x, one=1.0, sqrt=math.sqrt, two_sqrt2=TWO_SQRT2):
    """1-x, 1+x, sqrt(1-x) and sqrt(1-x)/(2*sqrt(2)+sqrt(1+x)): what every family needs.

    In float64, or for an mpf x given 1, mp.sqrt and _two_sqrt2_mp(mp.prec):
    mpf arithmetic converts a float operand on every call (about 2.5 us at
    40 digits) and an int one fast, to the same bits.
    """
    onem, onep = one - x, one + x
    s1m = sqrt(onem)
    return onem, onep, s1m, s1m / (two_sqrt2 + sqrt(onep))


@cache
def _two_sqrt2_mp(prec: int) -> mpf:
    """2*sqrt(2) at the working precision, which the caller passes as prec."""
    return MP_CONSTANTS["TWO_SQRT2"]()


class PairMemo(dict):
    """memo[fam] is fam's (lower, upper) at x in mpmath; the shared terms of x are taken once, at the first lookup."""

    def __init__(self, x: mpf):
        super().__init__()
        self.x = x

    @cached_property
    def terms(self):
        return _shared_terms(self.x, 1, mp.sqrt, _two_sqrt2_mp(mp.prec))

    def __missing__(self, fam):
        pair = self[fam] = fam._kernel_mp()(*self.terms)
        return pair


def pairs_mp(fams, x: mpf) -> list[tuple[mpf | None, mpf | None]]:
    """pair_mp of each family at x, with the shared terms taken once."""
    memo = PairMemo(x)
    return [memo[fam] for fam in fams]


def _validated(fams) -> tuple[BoundFamily, ...]:
    fams = tuple(fams)
    if not fams:
        raise ValueError("enabled family set is empty")
    for fam in fams:
        if not fam.is_valid:
            raise ValueError(f"family {fam.id} is outside its validity region")
    return fams


DEFAULT_FAMILIES = _validated((carlson(), thm2(ONE_SIXTH), thm2_reversed(B_STAR), thm3()))


def family_bounds(fam: BoundFamily, x: float) -> BoundInterval:
    """Certified interval from a single valid family at x in (0,1)."""
    fams = _validated((fam,))
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0,1), got {x}")
    return BoundInterval(*_combine(x, fams))


def _combine(x: float, fams):
    """(lower, upper, lower id, upper id) at x in [0,1); shared terms taken once."""
    terms = _shared_terms(x)
    best_lo = best_up = None
    lo_fam = up_fam = None
    for fam in fams:
        lo, up = fam._kernel(*terms)
        if lo is not None:
            lo *= _LO_OUT
            if best_lo is None or lo > best_lo:
                best_lo, lo_fam = lo, fam
        if up is not None:
            up *= _UP_OUT
            if best_up is None or up < best_up:
                best_up, up_fam = up, fam
    return (
        best_lo,
        best_up,
        None if lo_fam is None else lo_fam.id,
        None if up_fam is None else up_fam.id,
    )


def _envelope(x: float, fams):
    if not -1.0 < x <= 1.0:
        raise ValueError(f"x must be in (-1, 1], got {x}")
    if x == 1.0:
        return 0.0, 0.0, "exact", "exact"
    if x >= 0.0:
        return _combine(x, fams)
    lo, up, lo_id, up_id = _combine(-x, fams)
    lower = None if up is None else _PI_DOWN - up
    upper = None if lo is None else _PI_UP - lo
    return lower, upper, up_id, lo_id


def best_envelope(x: float, enabled=None) -> BoundInterval:
    """Tightest certified interval for arccos x over the enabled families.

    Domain is (-1, 1].  Negative arguments use the reflection
    arccos x = pi - arccos(-x) with pi rounded outward by one ulp per side,
    swapping which family certifies which endpoint.
    """
    fams = DEFAULT_FAMILIES if enabled is None else _validated(enabled)
    return BoundInterval(*_envelope(x, fams))


def approx_arccos(x: float, enabled=None) -> tuple[float, float]:
    """Midpoint approximation with certified error radius.

    Returns (value, radius) with |value - arccos x| <= radius guaranteed.
    """
    fams = DEFAULT_FAMILIES if enabled is None else _validated(enabled)
    lower, upper, _, _ = _envelope(x, fams)
    if lower is None or upper is None:
        raise ValueError("enabled families give no two-sided interval")
    value = 0.5 * (lower + upper)
    radius = max(upper - value, value - lower) * _RADIUS_OUT
    return value, radius


TABLE_COLUMNS = ("x", "lower", "upper", "reference", "width", "lower_family", "upper_family")


def _reference(x: float, digits: int) -> float:
    """arccos x at `digits`, rounded to the nearest double, for x in (0,1).

    s = isqrt(2**256*(1-x)/(1+x)), each floor taken on integers, is t = sqrt((1-x)/(1+x))
    in 128-bit fixed point, less than 2 units low.  x <= 1 - 2**-53 gives t >= 2**-27 and
    atan t >= t*pi/4, so v = 2*atan s = man*2**e, man of 110 bits, is within 2**-98 of
    T = arccos x, relative.  At digits >= 17 the oracle's acos runs at 93 bits or more: its
    value A is within 2**-91 of T, so |A - v| < v*2**-90 < r = man >> 80 units.  Rounding to
    nearest is monotone and CPython's int to float is correctly rounded: if man - r and
    man + r give one double, A rounds to it too (Ziv's test); else A is computed and rounded.
    """
    n, d = x.as_integer_ratio()
    s = math.isqrt(((d - n) << 256) // (d + n))
    _, man, exp, bc = mpf_atan(from_man_exp(s, -128), 110)
    man <<= 110 - bc
    lo = float(man - (man >> 80))
    if lo == float(man + (man >> 80)):
        return math.ldexp(lo, exp + 1 + bc - 110)
    return float(arccos_hp(x, digits).value)


def bound_table(x_grid, enabled=None, digits: int | None = None) -> list[dict]:
    """One row per grid point: certified bounds plus a high-precision reference.

    The grid must be strictly increasing inside (0,1).  The reference column
    is arccos at `digits` (default 40) rounded to a double.
    """
    digits = resolve_digits(digits)
    xs = [float(x) for x in x_grid]
    if any(not 0.0 < x < 1.0 for x in xs):
        raise ValueError("grid points must lie in (0,1)")
    if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise ValueError("grid must be strictly increasing")
    fams = DEFAULT_FAMILIES if enabled is None else _validated(enabled)
    rows = []
    for x in xs:
        lower, upper, lower_family, upper_family = _envelope(x, fams)
        if lower is None or upper is None:
            raise ValueError("enabled families give no two-sided interval")
        rows.append(
            {
                "x": x,
                "lower": lower,
                "upper": upper,
                "reference": _reference(x, digits),
                "width": upper - lower,
                "lower_family": lower_family,
                "upper_family": upper_family,
            }
        )
    return rows


def table_to_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    for row in rows:
        writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c] for c in TABLE_COLUMNS])
    return out.getvalue()


def table_to_json(rows: list[dict]) -> str:
    return json.dumps(rows)
