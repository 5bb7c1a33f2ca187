#!/usr/bin/env python3
"""Re-derive the coefficients of classifier._zero_guess and print them.

The zero x* of g' for a - b = d runs along the parametric curve, for
theta in (0, pi/2),

    d = k(theta) = 1/theta**2 - cot(theta)/theta,    x* = cos(theta),

from x* = 1 at d = 1/3 to x* = 0 at d = 4/pi**2.  With
t = (d - 1/3) / (4/pi**2 - 1/3) the guess is x* = (1 - t) q(t), where
q(0) = 1 and q has degree DEGREE.  The other coefficients are the least-
squares fit of x* over FIT_POINTS - 1 equally spaced theta, solved at 50
digits by the normal equations (their Gram matrix, over the basis
(1 - t) t**j, needs only the moments of t), and each is rounded once to a
double.  No root is solved: every point comes from theta, so the output is
the same on every run.

The last line is the worst |guess - cos(theta)| over the 2000 theta
(pi/2) i/2001, the guess taken in float64 as _zero_guess takes it.

Usage:
    python scripts/zero_guess_fit.py
"""

import math
import sys

from mpmath import mp, mpf

DEGREE = 9
FIT_POINTS = 1000
CHECK_POINTS = 2000


def k(theta):
    """The d = a - b whose zero of g' is cos(theta), at the working precision."""
    return 1 / theta**2 - mp.cos(theta) / (theta * mp.sin(theta))


def fit():
    """q's coefficients as doubles, highest power first, ending in q(0) = 1."""
    n = DEGREE
    moments = [mpf(0)] * (2 * n + 1)  # sum of (1 - t)**2 t**e
    rhs = [mpf(0)] * (n + 1)  # sum of (1 - t) t**e (x* - (1 - t))
    third = mpf(1) / 3
    for i in range(1, FIT_POINTS):
        theta = mp.pi / 2 * i / FIT_POINTS
        t, x = (k(theta) - third) / (4 / mp.pi**2 - third), mp.cos(theta)
        w = 1 - t
        power = mpf(1)
        for e in range(2 * n + 1):
            moments[e] += w * w * power
            if e <= n:
                rhs[e] += w * (x - w) * power
            power *= t
    gram = mp.matrix([[moments[i + j] for j in range(1, n + 1)] for i in range(1, n + 1)])
    c = mp.lu_solve(gram, mp.matrix(rhs[1:]))
    return tuple(float(c[j]) for j in reversed(range(n))) + (1.0,)


def guess(q, d):
    """(1 - t) q(t) in float64 for a - b = d in the window, as _zero_guess reads it."""
    t = (d - 1.0 / 3.0) / (4.0 / math.pi**2 - 1.0 / 3.0)
    acc = 0.0
    for c in q:
        acc = acc * t + c
    return (1.0 - t) * acc


def main() -> int:
    with mp.workdps(50):
        q = fit()
        worst = mpf(0)
        for i in range(1, CHECK_POINTS + 1):
            theta = mp.pi / 2 * i / (CHECK_POINTS + 1)
            worst = max(worst, abs(guess(q, float(k(theta))) - mp.cos(theta)))
    print("# q(t) in classifier._zero_guess, x* = (1 - t) q(t), highest power first")
    print("_GUESS_Q = (")
    for c in q:
        print(f"    {c!r},")
    print(")")
    print(f"worst {float(worst):.3e} over {CHECK_POINTS} theta")
    return 0


if __name__ == "__main__":
    sys.exit(main())
