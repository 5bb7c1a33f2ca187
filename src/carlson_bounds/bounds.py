"""Certified two-sided arccos bounds assembled from the inequality families.

Four concrete double inequalities are available, all of the shape
lower(x) < arccos x < upper(x) on (0,1):

  carlson         6*sqrt(1-x)/(2*sqrt(2)+sqrt(1+x)) .. cbrt(4)*sqrt(1-x)/(1+x)**(1/6)
  thm2(b)         (pi/2)*sqrt(1-x)/(1+x)**b .. 2**(b+1/2)*sqrt(1-x)/(1+x)**b, b >= 1/6
  thm2_reversed(b)  the reverse of thm2, valid for b <= 2/pi - 1/2
  thm3            6*sqrt(1-x)/(2*sqrt(2)+sqrt(1+x)) .. (1/2+sqrt(2))*pi*sqrt(1-x)/(2*sqrt(2)+sqrt(1+x))

plus the one-sided coefficient bounds thm2_maxcoef(a,b) (upper only) and
thm2_mincoef(a,b) (lower only) built from the envelope extremum.

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
from functools import cached_property

from mpmath import mp, mpf

from . import classifier, family
from .classifier import TWO_OVER_PI
from .family import _MP, TWO_SQRT2, Params
from .oracle import DEFAULT_DIGITS, arccos_hp, const_hp, default_digits

ONE_SIXTH = 1.0 / 6.0
B_STAR = TWO_OVER_PI - 0.5  # sharp reversed-family threshold 2/pi - 1/2
PI_HALF = math.pi / 2.0
CBRT4 = float(const_hp("CBRT4", DEFAULT_DIGITS))
BEST_UPPER_THM3 = float(const_hp("BEST_UPPER_THM3", DEFAULT_DIGITS))

# outward-rounding factor: 16 eps covers the few-ulp forward error of the
# family expressions, preserving containment through float64 evaluation
_OUT = 16.0 * math.ulp(1.0)
_LO_OUT = 1.0 - _OUT
_UP_OUT = 1.0 + _OUT
_RADIUS_OUT = 1.0 + 4.0 * math.ulp(1.0)
_PI_DOWN = math.nextafter(math.pi, 0.0)
_PI_UP = math.nextafter(math.pi, 4.0)

FAMILY_KINDS = ("carlson", "thm2", "thm2_reversed", "thm3", "thm2_maxcoef", "thm2_mincoef")


@dataclass(frozen=True)
class BoundFamily:
    """One inequality family; b/a are set only where the kind needs them."""

    kind: str
    b: float | None = None
    a: float | None = None

    def __reduce__(self):
        # rebuild from the fields: the cached float64 kernel is a closure
        return BoundFamily, (self.kind, self.b, self.a)

    @cached_property
    def id(self) -> str:
        if self.kind in ("carlson", "thm3"):
            return self.kind
        if self.kind in ("thm2", "thm2_reversed"):
            return f"{self.kind}({self.b!r})"
        return f"{self.kind}({self.a!r},{self.b!r})"

    @cached_property
    def is_valid(self) -> bool:
        """Whether the family's validity condition holds for its parameters."""
        if self.kind in ("carlson", "thm3"):
            return True
        if self.kind == "thm2":
            return self.b >= ONE_SIXTH
        if self.kind == "thm2_reversed":
            return self.b <= B_STAR
        p = Params(self.a, self.b)
        rep = classifier.extrema_points(p)
        if self.kind == "thm2_maxcoef":
            return (
                classifier.in_unique_max_region(p)
                and rep.disc_closed > 0.0
                and rep.x1 is not None
                and rep.x1 > 0.0
            )
        return (
            classifier.in_unique_min_region(p)
            and rep.disc_closed > 0.0
            and rep.x2 is not None
            and 0.0 < rep.x2 < 1.0
        )

    # raw expression values (no validity gate -- the verifier probes invalid
    # parameter choices on purpose to exhibit violations)

    def pair_f64(self, x: float) -> tuple[float | None, float | None]:
        """(lower, upper) at x in [0,1); one-sided kinds return None for the other."""
        return self._kernel(*_shared_terms(x))

    @cached_property
    def _kernel(self):
        """float64 (lower, upper) from the _shared_terms of x.

        Per-family constants (2**(b+1/2), the envelope coefficient) are
        computed once, on first use.
        """
        if self.kind == "carlson":
            return lambda l1m, l1p, base: (
                6.0 * base,
                CBRT4 * math.exp(0.5 * l1m - l1p / 6.0),
            )
        if self.kind == "thm3":
            return lambda l1m, l1p, base: (6.0 * base, BEST_UPPER_THM3 * base)
        a, b = self.a, self.b
        if self.kind in ("thm2", "thm2_reversed"):
            top = math.pow(2.0, b + 0.5)
            lo_c, up_c = (PI_HALF, top) if self.kind == "thm2" else (top, PI_HALF)

            def weighted(l1m, l1p, base):
                w = math.exp(0.5 * l1m - b * l1p)
                return lo_c * w, up_c * w

            return weighted
        rep = classifier.extrema_points(Params(a, b))
        upper_only = self.kind == "thm2_maxcoef"
        coef = rep.max_coeff if upper_only else rep.min_coeff

        def one_sided(l1m, l1p, base):
            if coef is None:
                raise self._no_extremum()
            w = math.exp(a * l1m - b * l1p)
            return (None, coef * w) if upper_only else (coef * w, None)

        return one_sided

    def pair_mp(self, x: mpf) -> tuple[mpf | None, mpf | None]:
        """Same expressions in mpmath arithmetic at the caller's precision."""
        # the four double inequalities keep a sqrt/pow form of their own: the
        # float64 kernel's log1p/exp form is no faster in mpmath, and it would
        # change the last bits of every high-precision bound they give
        one = mpf(1)
        if self.kind in ("carlson", "thm3"):
            base = mp.sqrt(1 - x) / (2 * mp.sqrt(2) + mp.sqrt(1 + x))
            if self.kind == "carlson":
                return 6 * base, mp.cbrt(4) * mp.sqrt(1 - x) / (1 + x) ** (one / 6)
            return 6 * base, (one / 2 + mp.sqrt(2)) * mp.pi * base
        if self.kind in ("thm2", "thm2_reversed"):
            b = mpf(self.b)
            w = mp.sqrt(1 - x) / (1 + x) ** b
            lo, up = mp.pi / 2 * w, 2 ** (b + one / 2) * w
            return (lo, up) if self.kind == "thm2" else (up, lo)
        p = Params(self.a, self.b)
        upper_only = self.kind == "thm2_maxcoef"
        disc = family._envelope_disc(_MP, p)
        # outside (0,1) the envelope has no value (at x = 1 the log form
        # gives 0*log(0)), so raise as pair_f64 does
        root = family._envelope_roots(_MP, p, disc)[0 if upper_only else 1] if disc > 0 else None
        if root is None or not 0 < root < 1:
            raise self._no_extremum()
        coef = family._envelope(_MP, p, root)
        w = (1 - x) ** mpf(p.a) / (1 + x) ** mpf(p.b)
        return (None, coef * w) if upper_only else (coef * w, None)

    def _no_extremum(self) -> ValueError:
        side = "maximum" if self.kind == "thm2_maxcoef" else "minimum"
        return ValueError(f"{self.id}: envelope {side} not inside (0,1)")


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
    if text == "carlson":
        return carlson()
    if text == "thm3":
        return thm3()
    for kind, nargs in (
        ("thm2_reversed", 1),
        ("thm2_maxcoef", 2),
        ("thm2_mincoef", 2),
        ("thm2", 1),
    ):
        if text.startswith(kind + "(") and text.endswith(")"):
            args = [float(t) for t in text[len(kind) + 1 : -1].split(",")]
            if len(args) != nargs:
                break
            if nargs == 1:
                return BoundFamily(kind, b=args[0])
            return BoundFamily(kind, a=args[0], b=args[1])
    raise ValueError(f"unrecognized bound family {text!r}")


def _shared_terms(x: float) -> tuple[float, float, float]:
    """log1p(-x), log1p(x) and sqrt(1-x)/(2*sqrt(2)+sqrt(1+x)): what every family needs."""
    return (
        math.log1p(-x),
        math.log1p(x),
        math.sqrt(1.0 - x) / (TWO_SQRT2 + math.sqrt(1.0 + x)),
    )


def _validated(fams) -> tuple[BoundFamily, ...]:
    fams = tuple(fams)
    if not fams:
        raise ValueError("enabled family set is empty")
    for fam in fams:
        if not fam.is_valid:
            raise ValueError(f"family {fam.id} is outside its validity region")
    return fams


DEFAULT_FAMILIES = _validated((carlson(), thm2(ONE_SIXTH), thm2_reversed(B_STAR), thm3()))


def _certified_pair(fam: BoundFamily, x: float) -> tuple[float | None, float | None]:
    lo, up = fam.pair_f64(x)
    if lo is not None:
        lo *= _LO_OUT
    if up is not None:
        up *= _UP_OUT
    return lo, up


def family_bounds(fam: BoundFamily, x: float) -> BoundInterval:
    """Certified interval from a single valid family at x in (0,1)."""
    if not fam.is_valid:
        raise ValueError(f"family {fam.id} is outside its validity region")
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must be in (0,1), got {x}")
    lo, up = _certified_pair(fam, x)
    return BoundInterval(
        lo, up, fam.id if lo is not None else None, fam.id if up is not None else None
    )


def _combine(x: float, fams):
    """(lower, upper, lower id, upper id) at x in [0,1); logs shared across families."""
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


def bound_table(x_grid, enabled=None, digits: int | None = None) -> list[dict]:
    """One row per grid point: certified bounds plus a high-precision reference.

    The grid must be strictly increasing inside (0,1).  The reference column
    is arccos at `digits` (default 40) rounded to a double.
    """
    if digits is None:
        digits = default_digits()
    xs = [float(x) for x in x_grid]
    if any(not 0.0 < x < 1.0 for x in xs):
        raise ValueError("grid points must lie in (0,1)")
    if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise ValueError("grid must be strictly increasing")
    rows = []
    for x in xs:
        env = best_envelope(x, enabled)
        if env.lower is None or env.upper is None:
            raise ValueError("enabled families give no two-sided interval")
        rows.append(
            {
                "x": x,
                "lower": env.lower,
                "upper": env.upper,
                "reference": float(arccos_hp(x, digits).value),
                "width": env.upper - env.lower,
                "lower_family": env.lower_family,
                "upper_family": env.upper_family,
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
