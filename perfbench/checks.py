"""Output checks that do not use the program's own arithmetic.

arccos comes from the half-angle form 2*atan2(sqrt(1-x), sqrt(1+x)) in
mpmath at 60 digits; the package's oracle uses mp.acos.  For x >= 1/2,
1-x is exact (Sterbenz), so the reference keeps its relative accuracy up to
the endpoint.  Region classes are derived here from the signs of a+b-2/pi,
2a-1, a-b-4/pi**2 and a-b-1/3 at 50 digits and, inside the window, from the
sign of min g at the tangent point found by solving r'(t) = a-b in the
angle theta = arccos t, a parametrisation the package does not use.

Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json
import math

from mpmath import mp, mpf

REF_DIGITS = 60
CLASS_DIGITS = 50
VERIFY_REPORTS = 16


def ref_arccos(x: float) -> mpf:
    """arccos x at the caller's mpmath precision, by the half-angle atan2 form."""
    xm = mpf(x)
    return 2 * mp.atan2(mp.sqrt(1 - xm), mp.sqrt(1 + xm))


def _contains(lower, upper, ref) -> str | None:
    if lower is not None and mpf(lower) > ref:
        return f"lower {lower!r} above arccos {mp.nstr(ref, 20)}"
    if upper is not None and mpf(upper) < ref:
        return f"upper {upper!r} below arccos {mp.nstr(ref, 20)}"
    return None


# ---------------------------------------------------------------------------
# envelope


def check_envelope(item, out) -> str | None:
    """approx_arccos: |value - arccos x| <= radius; best_envelope: containment."""
    fn, x, _ = item
    with mp.workdps(REF_DIGITS):
        if fn == "approx":
            value, radius = out
            if x == 1.0:
                return None if (value, radius) == (0.0, 0.0) else f"x = 1 gave {out!r}"
            if abs(mpf(value) - ref_arccos(x)) > mpf(radius):
                return f"|value - arccos| exceeds radius {radius!r} at x = {x!r}"
            return None
        if x == 1.0:
            ok = (out.lower, out.upper) == (0.0, 0.0)
            return None if ok else f"x = 1 gave ({out.lower!r}, {out.upper!r})"
        if out.lower is not None and out.upper is not None:
            if out.width != out.upper - out.lower:
                return f"width {out.width!r} is not upper - lower at x = {x!r}"
        why = _contains(out.lower, out.upper, ref_arccos(x))
        return None if why is None else f"{why} at x = {x!r}"


def interval_width(item, out) -> tuple[float, float] | None:
    """(upper - lower, arccos x) of an envelope output; None without two sides."""
    fn, x, _ = item
    if x == 1.0:
        return None
    if fn == "approx":
        width = 2.0 * out[1]
    elif out.lower is None or out.upper is None:
        return None
    else:
        width = out.upper - out.lower
    with mp.workdps(REF_DIGITS):
        return width, float(ref_arccos(x))


# ---------------------------------------------------------------------------
# table


def check_table(item, rows) -> str | None:
    """Every row: grid x, containment, width = upper - lower, reference within 1 ulp."""
    grid, _ = item
    if len(rows) != len(grid):
        return f"{len(rows)} rows for {len(grid)} grid points"
    with mp.workdps(REF_DIGITS):
        for x, row in zip(grid, rows):
            if row["x"] != x:
                return f"row x {row['x']!r} is not grid point {x!r}"
            ref = ref_arccos(x)
            why = _contains(row["lower"], row["upper"], ref)
            if why is not None:
                return f"{why} at x = {x!r}"
            if row["width"] != row["upper"] - row["lower"]:
                return f"width {row['width']!r} is not upper - lower at x = {x!r}"
            if abs(mpf(row["reference"]) - ref) > mpf(math.ulp(float(ref))):
                return f"reference {row['reference']!r} off by more than 1 ulp at x = {x!r}"
    return None


# ---------------------------------------------------------------------------
# classify


def _min_g(s: mpf, d: mpf) -> mpf:
    """min over (0,1) of g = s + d*t - r(t), for d strictly inside the window."""

    def slope_gap(th):  # r'(t) - d with t = cos(th)
        return 1 / th**2 - mp.cos(th) / (th * mp.sin(th)) - d

    # g is stationary at the tangent point, so theta to 1e-21 puts min g
    # within about 1e-42 of exact
    lo, hi = mpf("1e-4"), mp.pi / 2
    for _ in range(70):
        mid = (lo + hi) / 2
        if slope_gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    th = (lo + hi) / 2
    return s + d * mp.cos(th) - mp.sin(th) / th


def expected_class(a: float, b: float) -> str:
    """The monotonicity class of f(a, b) from signs computed here.

    sign f' = sign g on (0,1); g(0+) = a+b-2/pi, g(1-) = 2a-1 and g' rises
    from a-b-4/pi**2 to a-b-1/3, so g is monotone outside the window and
    convex with one interior minimum inside it.
    """
    with mp.workdps(CLASS_DIGITS):
        am, bm = mpf(a), mpf(b)
        s, d = am + bm, am - bm
        g0 = mp.sign(s - 2 / mp.pi)
        g1 = mp.sign(2 * am - 1)
        if d >= 4 / mp.pi**2:  # g increasing
            if g0 >= 0:
                return "StrictlyIncreasing"
            return "StrictlyDecreasing" if g1 <= 0 else "UniqueMin"
        if d <= mpf(1) / 3:  # g decreasing
            if g0 <= 0:
                return "StrictlyDecreasing"
            return "StrictlyIncreasing" if g1 >= 0 else "UniqueMax"
        if _min_g(s, d) >= 0:
            return "StrictlyIncreasing"
    if g0 <= 0:
        return "StrictlyDecreasing" if g1 <= 0 else "UniqueMin"
    return "UniqueMax" if g1 <= 0 else "MaxThenMin"


def check_classify(item, out) -> str | None:
    """Numeric class = derived class; symbolic = numeric unless Indeterminate; discriminants agree."""
    a, b, _ = item
    symbolic, numeric, extrema = out
    want = expected_class(a, b)
    if numeric != want:
        return f"numeric class {numeric} at ({a!r}, {b!r}), expected {want}"
    if symbolic != "Indeterminate" and symbolic != numeric:
        return f"symbolic {symbolic} and numeric {numeric} conflict at ({a!r}, {b!r})"
    if extrema is not None:
        dc, dq = extrema.disc_closed, extrema.disc_quadratic
        if abs(dc - dq) > 1e-10 * max(1.0, abs(dc), abs(dq)):
            return f"discriminant forms {dc!r} and {dq!r} differ at ({a!r}, {b!r})"
    return None


# ---------------------------------------------------------------------------
# verify


def check_verify(seed, out) -> str | None:
    """Exit 0, 16 passing reports, then a summary line saying the suite passed."""
    rc, text = out
    if rc != 0:
        return f"verify --seed {seed} exited {rc}"
    lines = text.splitlines()
    if len(lines) != VERIFY_REPORTS + 1:
        return f"{len(lines)} stdout lines, expected {VERIFY_REPORTS} reports + summary"
    try:
        reports = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        return f"stdout line is not JSON: {exc}"
    failing = [r.get("check_id") for r in reports[:-1] if r.get("passed") is not True]
    if failing:
        return f"reports not passed: {failing}"
    summary = reports[-1]
    want = {"suite_passed": True, "checks": VERIFY_REPORTS, "seed": seed}
    if any(summary.get(k) != v for k, v in want.items()):
        return f"summary {summary} does not match {want}"
    return None


CHECKS = {
    "envelope": check_envelope,
    "table": check_table,
    "classify": check_classify,
    "verify": check_verify,
}
