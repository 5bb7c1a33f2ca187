"""Inputs and operations of the four workloads.

Every input comes from ``random.Random`` seeded by the workload seed and is
made with the ``math`` module alone, so inputs exist before the package (and
with it mpmath and numpy) is imported and the set-up timer sees the whole
import.  A workload's inputs are a list of blocks; one block is one round of
the closed loop and every block has the same make-up, so each run attempts
whole rounds and the strata keep exact shares.

Operations reach the package through module attributes on every call, so the
traced run, which rebinds those attributes, times the same calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
from types import SimpleNamespace

WINDOW_LO = 1.0 / 3.0
WINDOW_HI = 4.0 / math.pi**2
ULP_BELOW_1 = 2.0**-53


def import_package() -> SimpleNamespace:
    """Import the package and return its modules by layer name."""
    names = ("oracle", "family", "classifier", "bounds", "verifier", "cli")
    mods = {n: importlib.import_module(f"carlson_bounds.{n}") for n in names}
    return SimpleNamespace(package=importlib.import_module("carlson_bounds"), **mods)


class Workload:
    """One workload: its blocks of inputs, its warm-up and its operation."""

    name = ""
    setup_runs = 9  # set-ups per untraced run; setup_s is their median

    def block(self, rng: random.Random) -> list:
        raise NotImplementedError

    def make_blocks(self, rng: random.Random, n: int) -> list[list]:
        return [self.block(rng) for _ in range(n)]

    def blocks(self, seed: int) -> list[list]:
        return self.make_blocks(random.Random(f"{self.name}:{seed}"), self.n_blocks)

    def warmup(self, seed: int) -> list:
        return self.make_blocks(random.Random(f"{self.name}:{seed}:warmup"), 1)[0]

    def setup(self, pkg: SimpleNamespace):
        """Per-run state the operations need; built inside the set-up timer."""
        return pkg

    def op(self, ctx, item):
        raise NotImplementedError

    def stdout_bytes(self, out) -> int:
        return 0


# ---------------------------------------------------------------------------
# envelope: the float64 certification path


class Envelope(Workload):
    """approx_arccos / best_envelope calls on a mix of x and family sets.

    Per block of 64 operations:
      30 uniform x in (-1, 1], default families (15 approx, 15 envelope);
      12 ulp ladders, 1 - k*2**-53 and -1 + k*2**-53 (k log-uniform in
         [1, 2**20]), default families (6 approx, 6 envelope);
       4 special points: two subnormals, 0 and 1 (2 approx, 2 envelope);
      17 caller-supplied family sets (set A or B, two-sided, with x in
         (-1, 1]: 6 approx, 5 envelope; one-sided set C and the coefficient
         pair D with x in [0, 1): 6 envelope);
       1 fixed call best_envelope(-0.5, C), which fails on every run: the
         reflection for x < 0 subtracts the missing lower side of a one-sided
         set (TypeError).  It is counted in ``failed``.
    """

    name = "envelope"
    n_blocks = 127  # odd, so the percentiles' every-2**k-th round visits every block
    FAULT_X = -0.5

    def block(self, rng):
        ops = []
        for i in range(30):
            ops.append(("approx" if i % 2 else "best", 1.0 - 2.0 * rng.random(), None))
        for i in range(12):
            k = int(2.0 ** (20.0 * rng.random()))
            x = 1.0 - k * ULP_BELOW_1 if i < 6 else -1.0 + k * ULP_BELOW_1
            ops.append(("approx" if i % 2 else "best", x, None))
        tiny = rng.randrange(1, 2**52) * 5e-324
        for i, x in enumerate((tiny, -tiny, 0.0, 1.0)):
            ops.append(("approx" if i % 2 else "best", x, None))
        for i in range(11):
            fn = "approx" if i < 6 else "best"
            ops.append((fn, 1.0 - 2.0 * rng.random(), "A" if i % 2 else "B"))
        for i in range(6):
            ops.append(("best", rng.random(), "C" if i % 2 else "D"))
        ops.append(("best", self.FAULT_X, "C"))
        rng.shuffle(ops)
        return ops

    def setup(self, pkg):
        b = pkg.bounds
        sets = {
            "A": (b.carlson(), b.thm2(0.2), b.thm3()),
            "B": (b.thm2(0.5), b.thm2_reversed(0.1)),
            "C": (b.thm2_maxcoef(0.5, 0.14),),
            "D": (b.thm2_mincoef(0.51, 0.12), b.thm2_maxcoef(0.5, 0.14)),
        }
        return SimpleNamespace(bounds=b, sets=sets)

    def op(self, ctx, item):
        fn, x, set_id = item
        fams = None if set_id is None else ctx.sets[set_id]
        if fn == "approx":
            return ctx.bounds.approx_arccos(x, fams)
        return ctx.bounds.best_envelope(x, fams)


# ---------------------------------------------------------------------------
# table: the oracle's per-call path


class Table(Workload):
    """bound_table calls on a 24-point open grid at 17..200 oracle digits.

    Per block of 8 operations the digits are stratified: one draw from each
    eighth of [17, 200].  Even operations use the CLI's grid i/25, odd ones
    24 sorted uniform points of (0, 1).
    """

    name = "table"
    n_blocks = 16
    GRID = 24

    def block(self, rng):
        ops = []
        for j in range(8):
            lo = 17 + (184 * j) // 8
            hi = 17 + (184 * (j + 1)) // 8 - 1
            digits = rng.randint(lo, hi)
            if j % 2 == 0:
                grid = tuple(i / (self.GRID + 1.0) for i in range(1, self.GRID + 1))
            else:
                pts = set()
                while len(pts) < self.GRID:
                    x = rng.random()
                    if x > 0.0:
                        pts.add(x)
                grid = tuple(sorted(pts))
            ops.append((grid, digits))
        rng.shuffle(ops)
        return ops

    def op(self, ctx, item):
        grid, digits = item
        return ctx.bounds.bound_table(grid, None, digits)


# ---------------------------------------------------------------------------
# classify: the classifier and the family evaluators


def tangent_sum(d: float) -> float:
    """s*(d), the least a+b with min g >= 0 at a-b = d in the window, in float64.

    Parametrised by theta = arccos t: r(t) = sin(theta)/theta and
    r'(t) = 1/theta**2 - cos(theta)/(theta*sin(theta)), which rises from 1/3
    to 4/pi**2 as theta goes from 0 to pi/2.  The tangent point solves
    r'(t) = d; s*(d) = r(t) - t*d is stationary there, so the bisection's
    error in theta enters s* only to second order.
    """
    lo, hi = 1e-4, 0.5 * math.pi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 1.0 / mid**2 - math.cos(mid) / (mid * math.sin(mid)) < d:
            lo = mid
        else:
            hi = mid
    th = 0.5 * (lo + hi)
    return math.sin(th) / th - d * math.cos(th)


def stratified(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k draws from [lo, hi], one from each k-th of the range, in random order."""
    step = (hi - lo) / k
    draws = [lo + (j + rng.random()) * step for j in range(k)]
    rng.shuffle(draws)
    return draws


class Classify(Workload):
    """classify_symbolic + classify_numeric + extrema_points on one (a, b).

    Per block of 10 operations, in three strata:
      4 uniform on [-0.2, 1.2]**2, mostly decided by closed-form signs;
      4 in the window 1/3 < a-b < 4/pi**2 with a+b at 1e-4..0.1 from s*(a-b),
        decided by the float64 bisection of g';
      2 at 1e-11..1e-10 from s*(a-b), decided by the 40-digit fallback.
    The cost of the last two strata depends on a-b, so a-b is stratified
    over the whole pool: each of the window's 4n (or 2n) equal slices gets
    one point.  a-b stays 1e-6 inside the window, where the float64 solve
    that places the inputs loses accuracy.
    """

    name = "classify"
    n_blocks = 40

    def make_blocks(self, rng, n):
        lo, hi = WINDOW_LO + 1e-6, WINDOW_HI - 1e-6
        window = zip(stratified(rng, 4 * n, lo, hi), stratified(rng, 4 * n, 1e-4, 0.1))
        boundary = zip(stratified(rng, 2 * n, lo, hi), stratified(rng, 2 * n, 1e-11, 1e-10))
        blocks = []
        for _ in range(n):
            ops = [(rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2), "uniform") for _ in range(4)]
            ops += [(*self._near_tangent(rng, *next(window)), "window") for _ in range(4)]
            ops += [(*self._near_tangent(rng, *next(boundary)), "boundary") for _ in range(2)]
            rng.shuffle(ops)
            blocks.append(ops)
        return blocks

    @staticmethod
    def _near_tangent(rng, d, off):
        s = tangent_sum(d) + (off if rng.random() < 0.5 else -off)
        return 0.5 * (s + d), 0.5 * (s - d)

    def op(self, ctx, item):
        a, b, _ = item
        cls = ctx.classifier
        p = ctx.family.Params(a, b)
        symbolic = cls.classify_symbolic(p)
        numeric = cls.classify_numeric(p)
        try:
            extrema = cls.extrema_points(p)
        except ValueError:  # the CLI reports degenerate (a, b) as no extrema
            extrema = None
        return symbolic.value, numeric.value, extrema


# ---------------------------------------------------------------------------
# verify: the CLI harness


class Verify(Workload):
    """One in-process ``carlson-bounds verify --seed S`` with stdout captured.

    Operations alternate between two suite seeds S drawn from the workload
    seed, so every run repeats each S and can compare its stdout bytes.
    """

    name = "verify"
    n_blocks = 2
    setup_runs = 3  # a set-up holds one 2.5 s warm-up call

    def block(self, rng):
        return [rng.randrange(10**6)]

    def op(self, ctx, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = ctx.cli.main(["verify", "--seed", str(item)])
        return rc, buf.getvalue()

    def stdout_bytes(self, out):
        return len(out[1].encode())


WORKLOADS = {w.name: w for w in (Envelope(), Table(), Classify(), Verify())}
