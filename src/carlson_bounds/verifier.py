"""Numerical verification harness for every desk-scale claim.

Each check samples deterministically from a seed, measures signed margins at
high precision (40 digits by default), and returns a VerificationReport that
serializes to JSON.  Containment margins are relative to the arccos
reference; a margin is "strict" when it exceeds 1e-30, the testable version
of strict inequality at 40 digits.

Uniform containment samples are confined to [1e-12, 1 - 1e-12]: several
bounds are asymptotically sharp at an endpoint (their true margin decays
like x**2 or (1-x)**2 there), so beyond that depth even exact margins fall
under the strictness floor.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field

from mpmath import mpf

from . import bounds as bnd
from . import family
from .classifier import RegionClass, _disc_quadratic
from .family import _F64, EvalPoint, Params
from .oracle import acos_mp, arccos_stable, hp_context, resolve_digits

STRICT_MARGIN = 1e-30
_SAMPLE_EDGE = 1e-12
# deepest endpoint ladder: 10**-12 is the sample edge
_MAX_DEPTH = 12
_TINY = sys.float_info.min


@dataclass
class VerificationReport:
    """Outcome of one harness check."""

    check_id: str
    samples: int
    worst_margin: float
    passed: bool
    witnesses: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "samples": self.samples,
            "worst_margin": self.worst_margin,
            "passed": self.passed,
            "witnesses": [list(w) for w in self.witnesses],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _count(value, what: str, low: int, high: int | None = None) -> int:
    """value as an int when it is a whole number (2000 or 2000.0) in [low, high]; else ValueError.

    Every sample count and endpoint depth of the checks goes through here.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool) or value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{what} must be a whole number {span}, got {value!r}")
    return value


def _containment_points(n: int, endpoint_depth: int, seed: int):
    """n uniform floats inside [1e-12, 1-1e-12] plus geometric endpoint ladders, all doubles."""
    rng = random.Random(seed)
    pts = [_SAMPLE_EDGE + (1.0 - 2.0 * _SAMPLE_EDGE) * rng.random() for _ in range(n)]
    for k in range(1, endpoint_depth + 1):
        pts.append(10.0**-k)
        pts.append(1.0 - 10.0**-k)
    return pts


def check_double_inequality(
    fam: bnd.BoundFamily,
    n: int,
    endpoint_depth: int,
    seed: int = 0,
    digits: int | None = None,
) -> VerificationReport:
    """Strict containment lower < arccos < upper over samples, at high precision.

    The family's raw expressions are evaluated even when its validity
    condition fails; that is how sharpness violations are exhibited.
    """
    return check_containment((fam,), n, endpoint_depth, seed, digits)[0]


def check_containment(
    fams,
    n: int,
    endpoint_depth: int,
    seed: int = 0,
    digits: int | None = None,
) -> list[VerificationReport]:
    """check_double_inequality for each of fams, in one pass over the points.

    n uniform points and endpoint_depth (at most 12) steps of each endpoint
    ladder.  A float64 screen (_candidates) first drops the points at which
    no family's margin can be its worst or a witness; the rest are taken at
    `digits`.  Each gets one arccos reference and one set of shared terms
    and square roots (bounds.pairs_mp); every family keeps its own worst
    margin and its own witnesses, in point order, so each report is the one
    its single check gives.  The margins (ref - lower)/ref and
    (upper - ref)/ref are mpf values at `digits`, compared exactly with
    STRICT_MARGIN; a margin is reported as its nearest double.

    The reports are those of a pass over every point at `digits` as long as
    bounds.margin_error holds.  That bound is derived, not measured, and it
    rests on libm's pow and atan2 erring by under 1 ulp; a family outside
    its derivation has every point taken at `digits`.
    """
    digits = resolve_digits(digits)
    fams = tuple(fams)
    n = _count(n, "samples", 1000)
    endpoint_depth = _count(endpoint_depth, "endpoint_depth", 0, _MAX_DEPTH)
    pts = _containment_points(n, endpoint_depth, seed)
    worst = [math.inf] * len(fams)
    witnesses = [[] for _ in fams]
    with hp_context(digits):
        strict = mpf(STRICT_MARGIN)
        for x in _candidates(fams, pts):
            xm = mpf(x)
            ref = acos_mp(xm)
            for i, (lo, up) in enumerate(bnd.pairs_mp(fams, xm)):
                for side, diff in (
                    ("lower", None if lo is None else ref - lo),
                    ("upper", None if up is None else up - ref),
                ):
                    if diff is None:
                        continue
                    margin = diff / ref
                    mf = float(margin)
                    worst[i] = min(worst[i], mf)
                    if margin <= strict:
                        witnesses[i].append((x, f"{side} bound violated, margin {mf!r}"))
    return [
        VerificationReport(
            check_id=f"containment:{fam.id}",
            samples=len(pts),
            worst_margin=fam_worst,
            passed=not fam_witnesses,
            witnesses=fam_witnesses,
        )
        for fam, fam_worst, fam_witnesses in zip(fams, worst, witnesses)
    ]


def _normal(v) -> bool:
    """Whether v is a normal double (not None, 0, subnormal, inf or NaN)."""
    return v is not None and _TINY <= abs(v) < math.inf


def _margins64(fam: bnd.BoundFamily, pts, refs) -> list[tuple[float, float]]:
    """fam's float64 (lower, upper) relative margins at pts against refs = arccos_stable(pts).

    A margin is NaN where its bound is not a normal double, as for a side
    the family lacks: margin_error assumes every value is normal.
    """
    out = []
    for x, ref in zip(pts, refs):
        lo, up = fam.pair_f64(x)
        out.append(
            (
                (ref - lo) / ref if _normal(lo) else math.nan,
                (up - ref) / ref if _normal(up) else math.nan,
            )
        )
    return out


def _candidates(fams, pts) -> list[float]:
    """The points, in order, at which some family's digits margin may be its worst or a witness.

    With E = bounds.margin_error(fam), each float64 margin m64 lies within
    e = E*(1 + |m64|) of the digits margin.  A family's worst margin is the
    least over both sides, so a point whose every m64 - e exceeds both the
    family's least m64 + e and STRICT_MARGIN holds neither its worst digits
    margin nor a witness; every other point is kept.  So is a point with an
    m64 that is not a normal double, and every point of a family with
    E = inf, whose float64 values are not computed.
    """
    refs = [arccos_stable(x) for x in pts]
    keep = set()
    for fam in fams:
        err = bnd.margin_error(fam)
        margins = _margins64(fam, pts, refs) if err < math.inf else [(math.nan, math.nan)] * len(pts)
        least, floor = [], math.inf
        for pair in margins:
            low = math.inf
            for m in pair:
                if not _normal(m):
                    low = -math.inf
                    continue
                e = err * (1.0 + abs(m))
                low = min(low, m - e)
                floor = min(floor, m + e)
            least.append(low)
        bar = max(floor, STRICT_MARGIN)
        keep.update(i for i, low in enumerate(least) if low <= bar)
    return [pts[i] for i in sorted(keep)]


# ---------------------------------------------------------------------------
# monotonicity-class checks via sign patterns of consecutive differences

_CLASS_PATTERNS = {
    RegionClass.STRICTLY_DECREASING: (-1,),
    RegionClass.STRICTLY_INCREASING: (1,),
    RegionClass.UNIQUE_MAX: (1, -1),
    RegionClass.UNIQUE_MIN: (-1, 1),
    RegionClass.MAX_THEN_MIN: (1, -1, 1),
}

_SCAN_REL_TOL = 1e-12


def _rel_steps(f):
    """(f[i+1] - f[i]) / max(f[i], f[i+1]) for each consecutive pair of f >= 0; NaN at 0/0."""
    return [(f2 - f1) / (max(f1, f2) or math.nan) for f1, f2 in zip(f, f[1:])]


def scan_pattern(p: Params, n: int, digits: int | None = None):
    """Compressed sign pattern of consecutive f differences on an n-point grid.

    Returns (pattern, x, f): pattern is a tuple of +1/-1, x the grid
    i/(n+1) for i = 1..n and f its float64 values, both tuples of floats.
    The values come from the family formula in float64 (family.f64).
    Differences below 1e-12 relative are re-decided at high precision, so
    shallow extrema (and near-1 comparisons on huge f values) are resolved
    exactly; differences still below 1e-30 relative there count as flat.
    """
    digits = resolve_digits(digits)
    n = _count(n, "scan points", 2)
    x = tuple([i / (n + 1.0) for i in range(1, n + 1)])
    f = tuple([family.f64(p, xi) for xi in x])
    pattern = []
    for idx, rel in enumerate(_rel_steps(f)):
        if rel > _SCAN_REL_TOL:
            s = 1
        elif rel < -_SCAN_REL_TOL:
            s = -1
        else:
            with hp_context(digits):
                f1 = family.f_eval(p, EvalPoint(x[idx], digits=digits))
                f2 = family.f_eval(p, EvalPoint(x[idx + 1], digits=digits))
                dm = (f2 - f1) / max(abs(f1), abs(f2))
            s = 1 if dm > STRICT_MARGIN else -1 if dm < -STRICT_MARGIN else 0
        if s != 0 and (not pattern or pattern[-1] != s):
            pattern.append(s)
    return tuple(pattern), x, f


def check_class(p: Params, expected: RegionClass, n: int, digits: int | None = None) -> VerificationReport:
    """Grid scan of f must exhibit the expected class's difference pattern."""
    n = _count(n, "scan points", 256)
    if expected not in _CLASS_PATTERNS:
        raise ValueError(f"no scan pattern for {expected}")
    pattern, x, f = scan_pattern(p, n, digits)
    passed = pattern == _CLASS_PATTERNS[expected]
    witnesses = []
    # index() finds the first occurrence of the extreme value
    if expected in (RegionClass.UNIQUE_MAX, RegionClass.MAX_THEN_MIN):
        witnesses.append((x[f.index(max(f))], "grid argmax of f"))
    if expected in (RegionClass.UNIQUE_MIN, RegionClass.MAX_THEN_MIN):
        right = n // 8
        witnesses.append((x[f.index(min(f[right:]), right)], "grid argmin of f (right part)"))
    if not passed:
        witnesses.append(([p.a, p.b], f"observed pattern {pattern}, expected {_CLASS_PATTERNS[expected]}"))
    worst = min([a for a in map(abs, _rel_steps(f)) if a > 0], default=0.0)
    return VerificationReport(
        check_id=f"class:({p.a!r},{p.b!r}):{expected.value}",
        samples=n,
        worst_margin=worst,
        passed=passed,
        witnesses=witnesses,
    )


def check_sign_chain(n: int, digits: int | None = None) -> VerificationReport:
    """q < 0 < h, g'' > 0 on [0, 1-1e-8]; q increasing, h decreasing; both -> 0 at 1."""
    digits = resolve_digits(digits)
    n = _count(n, "samples", 1000)
    top = 1.0 - 1e-8
    xs = [top * i / (n - 1) for i in range(n)]
    qv = [float(family.chain_eval("q", EvalPoint(x))) for x in xs]
    hv = [float(family.chain_eval("h", EvalPoint(x))) for x in xs]
    gv = [float(family.chain_eval("g_second", EvalPoint(x))) for x in xs]
    margins = []
    witnesses = []

    def take(name, seq):
        m = min(seq)
        margins.append(m)
        if m <= 0.0:
            witnesses.append((float(xs[seq.index(m)]), f"{name} margin {m!r}"))

    take("q<0", [-v for v in qv])
    take("h>0", hv)
    take("g''>0", gv)
    take("q increasing", [q2 - q1 for q1, q2 in zip(qv, qv[1:])])
    take("h decreasing", [h1 - h2 for h1, h2 in zip(hv, hv[1:])])
    q_end = float(family.chain_eval("q", EvalPoint(1.0 - 1e-10, digits=digits)))
    h_end = float(family.chain_eval("h", EvalPoint(1.0 - 1e-10, digits=digits)))
    take("q(1-) -> 0", [1e-4 - abs(q_end), -q_end])
    take("h(1-) -> 0", [1e-4 - h_end, h_end])
    return VerificationReport(
        check_id="sign_chain",
        samples=n,
        worst_margin=min(margins),
        passed=not witnesses,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# sharpness of the four constants

SHARPNESS_KINDS = ("b_upper_1_6", "b_lower_2pi", "thm3_constants")


def check_sharpness(kind: str, epsilon: float, digits: int | None = None) -> VerificationReport:
    """Show the constants 1/6, 2/pi - 1/2, 6 and (1/2+sqrt(2))*pi are sharp.

    For the two thresholds the check perturbs b by epsilon past the sharp
    value and takes the upper margin at all 12 points x = 1 - 10**-k (or
    10**-k), k = 1..12: the worst margin is over all of them, and the first
    point where the inequality flips is the witness.  For thm3_constants it
    pins F at the two endpoints to the claimed constants.
    """
    digits = resolve_digits(digits)
    if kind not in SHARPNESS_KINDS:
        raise ValueError(f"unknown sharpness kind {kind!r}")
    if not 0.0 < epsilon <= 1e-2:
        raise ValueError(f"epsilon must be in (0, 1e-2], got {epsilon}")

    if kind == "thm3_constants":
        sup_ref = float(family.big_f_eval(EvalPoint(1e-8, digits=digits)))
        inf_ref = float(family.big_f_eval(EvalPoint(1.0 - 1e-12, digits=digits)))
        sup_err = abs(sup_ref - bnd.BEST_UPPER_THM3)
        inf_err = abs(inf_ref - 6.0)
        inf_tol = max(epsilon, 1e-4)
        grid = [i / 32 for i in range(1, 32)]
        fv = [float(family.big_f_eval(EvalPoint(x))) for x in grid]
        mono = min(f1 - f2 for f1, f2 in zip(fv, fv[1:]))
        margins = [epsilon - sup_err, inf_tol - inf_err, mono]
        witnesses = [
            (1e-8, f"F = {sup_ref!r}, sup constant error {sup_err!r}"),
            (1.0 - 1e-12, f"F = {inf_ref!r}, inf constant error {inf_err!r}"),
        ]
        if mono <= 0.0:
            witnesses.append((0.0, "monotone decrease failed"))
        return VerificationReport(
            check_id=f"sharpness:{kind}",
            samples=len(grid) + 2,
            worst_margin=min(margins),
            passed=all(m > 0.0 for m in margins),
            witnesses=witnesses,
        )

    # both perturbed thresholds break on the upper side of their family:
    # past 1/6 the 2**(b+1/2) expression dips under arccos near 1, past
    # 2/pi - 1/2 the reversed family's (pi/2) expression dips under near 0
    if kind == "b_upper_1_6":
        fam = bnd.thm2(bnd.ONE_SIXTH - epsilon)
        ladder = [1.0 - 10.0**-k for k in range(1, 13)]
    else:
        fam = bnd.thm2_reversed(bnd.B_STAR + epsilon)
        ladder = [10.0**-k for k in range(1, 13)]
    worst = math.inf
    witness = None
    with hp_context(digits):
        for x in ladder:
            xm = mpf(x)
            ref = acos_mp(xm)
            _, up = fam.pair_mp(xm)
            margin = float((up - ref) / ref)
            worst = min(worst, margin)
            if margin <= 0.0 and witness is None:
                witness = (x, f"{fam.id} upper bound violated, margin {margin!r}")
    return VerificationReport(
        check_id=f"sharpness:{kind}",
        samples=len(ladder),
        worst_margin=worst,
        passed=witness is not None,
        witnesses=[witness] if witness is not None else [],
    )


# ---------------------------------------------------------------------------
# algebraic identities and the mutual-tightness structure of the four bounds

# place of each side in a (lower, upper) pair
_SIDE = {"lower": 0, "upper": 1}


# expected relation of corresponding sides across the four concrete double
# inequalities: two stated coincidences, one stated one-way dominance (plus
# its mirror through the coincident side), everything else two-way
def _comparisons():
    c, t2, tr, t3 = bnd.DEFAULT_FAMILIES
    return [
        ("upper", c, t2, "equal"),
        ("lower", c, t3, "equal"),
        ("lower", c, tr, "first_tighter"),
        ("lower", t3, tr, "first_tighter"),
        ("lower", c, t2, "two_way"),
        ("lower", t2, tr, "two_way"),
        ("lower", t2, t3, "two_way"),
        ("upper", c, tr, "two_way"),
        ("upper", c, t3, "two_way"),
        ("upper", t2, tr, "two_way"),
        ("upper", t2, t3, "two_way"),
        ("upper", tr, t3, "two_way"),
    ]


def check_identities(n: int, seed: int = 0, digits: int | None = None) -> VerificationReport:
    """Discriminant identity plus the coincidence/dominance/two-way structure.

    The comparisons of _comparisons() run in one pass over each point set,
    with one bounds.PairMemo per point: a family's kernel runs there only if
    a comparison still open reads it.  An equal or first_tighter comparison
    closes at its first failure, a two_way one once each family has been the
    tighter at a point, so the reports are those of one loop per comparison;
    the witnesses follow the discriminant's, in _comparisons() order.
    """
    digits = resolve_digits(digits)
    n = _count(n, "samples", 1000)
    rng = random.Random(seed)
    margins = []
    witnesses = []

    # (i) closed discriminant form vs quadratic-coefficient form
    disc_worst = math.inf
    count = 0
    while count < n:
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(-1.0, 1.0)
        if abs(a - b) < 1e-6:
            continue  # the quadratic degenerates at a = b
        count += 1
        p = Params(a, b)
        closed = family._envelope_disc(_F64, p)
        gap = abs(closed - _disc_quadratic(p))
        margin = 1e-10 * max(1.0, abs(closed)) - gap
        disc_worst = min(disc_worst, margin)
        if margin <= 0.0:
            witnesses.append(([a, b], f"discriminant forms differ by {gap!r}"))
    margins.append(disc_worst)

    # (ii)+(iii) side-by-side structure of the four concrete inequalities
    comps = _comparisons()
    worst = [math.inf] * len(comps)
    found = [None] * len(comps)  # the one witness each comparison may give
    seps = [{} for _ in comps]  # two_way: {fa is the tighter: first separation}
    grid_d = [i / 200 for i in range(1, 200)]
    with hp_context(digits):
        for j in range(999):
            xm = mpf(j + 1) / 1000
            pair = bnd.PairMemo(xm)
            for k, (side, fa, fb, relation) in enumerate(comps):
                # equal on every point, first_tighter on every 5th, each
                # until its first failure
                if relation == "two_way" or found[k] or (relation == "first_tighter" and j % 5):
                    continue
                va, vb = pair[fa][_SIDE[side]], pair[fb][_SIDE[side]]
                if relation == "equal":
                    margin = 1e-12 - float(abs(va - vb) / va)
                    text = f"{side}:{fa.id} vs {fb.id} not coincident"
                else:
                    margin = float((va - vb) / va)  # lower bounds: bigger is tighter
                    text = f"{side}:{fa.id} fails to dominate {fb.id}"
                worst[k] = min(worst[k], margin)
                if margin <= 0.0:
                    found[k] = (float(xm), text)
        for x in grid_d:
            pair = bnd.PairMemo(mpf(x))
            for k, (side, fa, fb, relation) in enumerate(comps):
                if relation != "two_way" or len(seps[k]) == 2:
                    continue
                va, vb = pair[fa][_SIDE[side]], pair[fb][_SIDE[side]]
                sep = float(abs(va - vb) / va)
                if sep >= 1e-14:
                    seps[k].setdefault((va > vb) == (side == "lower"), sep)
    for k, (side, fa, fb, relation) in enumerate(comps):
        if relation == "two_way":
            worst[k] = min(seps[k].values()) if len(seps[k]) == 2 else -1.0
            if worst[k] < 0.0:
                found[k] = ([0.0, 0.0], f"{side}:{fa.id} vs {fb.id}: no two-way witnesses found")
    margins.extend(worst)
    witnesses.extend(w for w in found if w is not None)
    return VerificationReport(
        check_id="identities",
        samples=n + 999 + len(grid_d),
        worst_margin=min(margins),
        passed=not witnesses,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# full suite


def default_suite(seed: int = 0, digits: int | None = None) -> list[VerificationReport]:
    """Every check at default sizes, deterministic in (seed, digits)."""
    digits = resolve_digits(digits)
    containment = (
        bnd.carlson(),
        bnd.thm2(bnd.ONE_SIXTH),
        bnd.thm2(0.2),
        bnd.thm2(0.5),
        bnd.thm2_reversed(bnd.B_STAR),
        bnd.thm3(),
    )
    reports = [
        *check_containment(containment, 2000, 10, seed=seed, digits=digits),
        check_class(Params(0.0, 0.0), RegionClass.STRICTLY_DECREASING, 1024, digits),
        check_class(Params(0.6, 0.3), RegionClass.STRICTLY_INCREASING, 1024, digits),
        check_class(Params(0.5, 0.14), RegionClass.UNIQUE_MAX, 2048, digits),
        check_class(Params(0.51, 0.12), RegionClass.UNIQUE_MIN, 2048, digits),
        check_class(Params(0.51375, 0.12375), RegionClass.MAX_THEN_MIN, 4096, digits),
        check_sign_chain(1000, digits),
        check_sharpness("b_upper_1_6", 1e-3, digits),
        check_sharpness("b_lower_2pi", 1e-3, digits),
        check_sharpness("thm3_constants", 1e-6, digits),
        check_identities(2000, seed=seed, digits=digits),
    ]
    return reports


def suite_passed(reports: list[VerificationReport]) -> bool:
    return all(r.passed for r in reports)
