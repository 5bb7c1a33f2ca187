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
unknown kind, a missing parameter or an extra one with ValueError, and id
and parse_family read the same table.

Each family is written once, in this square-root/power form, over a backend
(family._F64 or family._MP): pair_f64 and pair_mp run the same expressions
on the terms 1-x, 1+x, sqrt(1-x) and sqrt(1-x)/(2*sqrt(2)+sqrt(1+x)), which
are computed once per point.  In mpmath, 1+x also keeps its log, taken at
most once per point at the working precision + 10 bits: mpf_pow raises 1+x
to a b that is not an integer or half an integer as exp(b*log(1+x)) with
that log, so sharing it leaves every bit of (1+x)**b as it is, and a point
that evaluates several families (check_containment) pays for one log.
(1+x)**(1/2), for thm2(1/2), is the sqrt(1+x) the last term already took.

Against 60 digits the float64 kernels err by about 2 eps at most for small
|b| (2.2 eps for the default families, 2.8 eps for thm2(3)); the rounding
of 1+x, raised to the power b, adds up to |b|/2 eps (51 eps for thm2(100)).

best_envelope intersects the enabled families.  Doubles handed back by the
certified paths are rounded outward (lower down, upper up) by a few ulp so
the interval still contains arccos x after float64 evaluation error.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

from mpmath import mp, mpf
from mpmath.libmp import (
    fhalf,
    mpf_add,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_float,
)

from . import classifier, family
from .classifier import TWO_OVER_PI
from .family import _F64, _MP, TWO_SQRT2, Params
from .oracle import DEFAULT_DIGITS, MP_CONSTANTS, arccos_hp, const_hp, resolve_digits

ONE_SIXTH = 1.0 / 6.0
B_STAR = TWO_OVER_PI - 0.5  # sharp reversed-family threshold 2/pi - 1/2
CBRT4 = float(const_hp("CBRT4", DEFAULT_DIGITS))
BEST_UPPER_THM3 = float(const_hp("BEST_UPPER_THM3", DEFAULT_DIGITS))

# outward-rounding factor for the float64 kernels.  Each is a product and
# quotient of correctly rounded sqrt, mul and div (u/2 each, u = eps), libm
# pow (taken as under 1 ulp), a per-family constant, 1 - x (exact for
# x >= 1/2 by Sterbenz, else u/2, halved again by sqrt) and 1 + x, whose u/2
# rounding the power raises to |b|*u/2: about 3.5u + (|a|+|b|)*u/2 to first
# order, plus the constant's error.  Measured against 60 digits that is
# 2.2 eps for the default families and 2.8 eps for thm2(3).  For large |b|
# the bounds are loose except as x -> 0 and x -> 1, where their gap to
# arccos grows with |b| as fast as the rounding of 1 + x
# (test_large_b_families_contain_arccos_near_the_endpoints); a derivation
# of 16 eps for every family the API accepts is still open
_OUT = 16.0 * math.ulp(1.0)
_LO_OUT = 1.0 - _OUT
_UP_OUT = 1.0 + _OUT
_RADIUS_OUT = 1.0 + 4.0 * math.ulp(1.0)
_PI_DOWN = math.nextafter(math.pi, 0.0)
_PI_UP = math.nextafter(math.pi, 4.0)

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
        if (self.a is not None, self.b is not None) != ("a" in params, "b" in params):
            raise ValueError(f"{self.kind} takes ({', '.join(params)}), got a = {self.a}, b = {self.b}")
        # |b| < 1023 keeps 2**(b+1/2) and (1+x)**b, 1+x in [1, 2), finite
        # and non-zero in float64
        if self.b is not None and not abs(self.b) < 1023.0:
            raise ValueError(f"{self.kind}: b must be finite with |b| < 1023, got {self.b}")
        if self.a is not None and not math.isfinite(self.a):
            raise ValueError(f"{self.kind}: a must be finite, got {self.a}")

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
        return self._kernel_mp()(*_shared_terms_mp(x))

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
        the envelope coefficient) are computed here, once per kernel.  The
        term 1+x is only ever raised to a power; for _MP it is a _LoggedBase.
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


def _shared_terms(x: float) -> tuple[float, float, float, float]:
    """1-x, 1+x, sqrt(1-x) and sqrt(1-x)/(2*sqrt(2)+sqrt(1+x)): what every family needs."""
    onem, onep = 1.0 - x, 1.0 + x
    s1m = math.sqrt(onem)
    return onem, onep, s1m, s1m / (TWO_SQRT2 + math.sqrt(onep))


@cache
def _two_sqrt2_mp(prec: int) -> mpf:
    """2*sqrt(2) at the working precision, which the caller passes as prec."""
    return MP_CONSTANTS["TWO_SQRT2"]()


class _LoggedBase:
    """An mpf v whose powers v**t share one log, with the bits of mpf v**t.

    mpf_pow raises v to an integer t by repeated multiplication and to an
    odd multiple of 1/2 through a square root; it raises v to every other t
    as exp(t*log v), with the log taken at the working precision + 10 bits
    and the exp at the working precision, both in the working rounding.
    ** runs that last branch with the log taken on its first use.  For
    t = 1/2 it returns sqrt_v, which the caller took as mp.sqrt(v): that is
    mpf_pow's mpf_sqrt(v) at the working precision and rounding.  The other
    t (texp >= -1) use v**t itself, as does a negative v, whose complex
    power does not come from the log.  The working precision must not
    change between the powers of one instance.
    """

    __slots__ = ("v", "sqrt_v", "log")

    def __init__(self, v: mpf, sqrt_v: mpf):
        self.v = v
        self.sqrt_v = sqrt_v
        self.log = None

    def __pow__(self, t: mpf) -> mpf:
        vm, tm = self.v._mpf_, t._mpf_
        if tm == fhalf:
            return self.sqrt_v
        if vm[0] or tm[2] >= -1:
            return self.v**t
        prec, rnd = mp._prec_rounding
        if self.log is None:
            self.log = mpf_log(vm, prec + 10, rnd)
        return mp.make_mpf(mpf_exp(mpf_mul(tm, self.log), prec, rnd))


def _shared_terms_mp(x: mpf) -> tuple[mpf, _LoggedBase, mpf, mpf]:
    """The _shared_terms of x at the working precision; 1+x shares its log."""
    onem, onep = 1 - x, 1 + x
    s1m, s1p = mp.sqrt(onem), mp.sqrt(onep)
    base = s1m / (_two_sqrt2_mp(mp.prec) + s1p)
    return onem, _LoggedBase(onep, s1p), s1m, base


def pairs_mp(fams, x: mpf) -> list[tuple[mpf | None, mpf | None]]:
    """pair_mp of each family at x, with the shared terms taken once.

    The terms share log(1+x): every power (1+x)**b, with b neither an
    integer nor half an integer, is exp(b*log(1+x)) with that one log, which
    is how mpf_pow computes it, so the values are those of (1+x)**b.
    """
    terms = _shared_terms_mp(x)
    return [fam._kernel_mp()(*terms) for fam in fams]


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
    if not fam.is_valid:
        raise ValueError(f"family {fam.id} is outside its validity region")
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0,1), got {x}")
    return BoundInterval(*_combine(x, (fam,)))


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


# digits of the first, cheaper oracle call behind a table reference
_FIRST_DIGITS = 30


def _reference(x: float, digits: int) -> float:
    """arccos x at `digits`, rounded to the nearest double.

    Above _FIRST_DIGITS the oracle is first asked for 30 digits, v.  Its
    contract bounds the relative error by 10**(1-digits), so with
    T = arccos x > 0, |v - T| <= 1e-29*T and the `digits` value A obeys
    |A - T| <= 1e-30*T, hence |A - v| <= 1.1e-29*T < r = v*2**-95.  Round to
    nearest is monotone, so when v - r and v + r (computed exactly) round to
    the same double, A rounds to it as well; only otherwise is the oracle
    called at `digits`.
    """
    if digits > _FIRST_DIGITS:
        v = arccos_hp(x, _FIRST_DIGITS).value._mpf_
        r = mpf_shift(v, -95)
        lo = to_float(mpf_sub(v, r), rnd=round_nearest)
        if lo == to_float(mpf_add(v, r), rnd=round_nearest):
            return lo
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
