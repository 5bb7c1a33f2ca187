"""Ground-truth arccos evaluation and named constants.

The arbitrary-precision oracle is mpmath's acos.  It evaluates
2*atan(sqrt(1-x**2)/(1+x)) with x**2 exact and 15 guard bits, so accuracy
does not collapse near x = +-1 where 1 - x**2 and 1 + x cancel.  The float64
evaluator uses the half-angle identity

    arccos x = 2*atan(sqrt((1-x)/(1+x)))        for x >= 0

with the reflection arccos x = pi - arccos(-x) for x < 0, for the same reason.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from mpmath import mp, mpf, workdps
from mpmath.libmp import dps_to_prec, from_float, mpf_acos, pi_fixed, round_nearest

MIN_DIGITS = 17
MAX_DIGITS = 200
DEFAULT_DIGITS = 40

# extra working digits so results still honor the requested digit count
# after the handful of roundings in the identity
GUARD_DIGITS = 10

PRECISION_ENV = "CARLSON_PRECISION"

# each named constant as an expression at the working precision.
# BEST_UPPER_THM3 is (1/2 + sqrt(2))*pi, the sharp upper constant of the
# square-root-kernel double inequality; CBRT4 is the sharp upper constant of
# the classic Carlson inequality (equals 2**(1/6 + 1/2))
MP_CONSTANTS = {
    "PI": lambda: +mp.pi,
    "TWO_OVER_PI": lambda: 2 / mp.pi,
    "FOUR_OVER_PI_SQ": lambda: 4 / mp.pi**2,
    "ONE_THIRD": lambda: mpf(1) / 3,
    "CBRT4": lambda: mp.cbrt(4),
    "TWO_SQRT2": lambda: 2 * mp.sqrt(2),
    "BEST_UPPER_THM3": lambda: (mpf(1) / 2 + mp.sqrt(2)) * mp.pi,
}
CONSTANT_NAMES = tuple(MP_CONSTANTS)


def default_digits() -> int:
    """Default oracle precision; CARLSON_PRECISION overrides the built-in 40."""
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return DEFAULT_DIGITS
    try:
        digits = int(raw)
    except ValueError:
        raise ValueError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None
    try:
        return resolve_digits(digits)
    except ValueError as exc:
        raise ValueError(f"{PRECISION_ENV}: {exc}") from None


def resolve_digits(digits: int | None) -> int:
    """default_digits() for None, else digits, a whole number (40 or 40.0) in [MIN_DIGITS, MAX_DIGITS]."""
    if digits is None:
        return default_digits()
    if isinstance(digits, float) and digits.is_integer():
        digits = int(digits)
    if not isinstance(digits, int):
        raise ValueError(f"precision must be a whole number of digits, got {digits!r}")
    if not MIN_DIGITS <= digits <= MAX_DIGITS:
        raise ValueError(
            f"precision must be in [{MIN_DIGITS}, {MAX_DIGITS}] digits, got {digits}"
        )
    return digits


# mpmath's default context is process-global, so concurrent callers at mixed
# precisions would corrupt each other's working precision.  The regions that
# use operator arithmetic at the global precision (const_hp and the family,
# classifier and verifier regions) serialize on one reentrant lock;
# arccos_hp passes its precision to libmp explicitly and takes neither the
# lock nor the global precision.
_MP_LOCK = threading.RLock()

# libmp memoizes pi as one fixed-point value and replaces it, unlocked, when a
# caller needs more bits; a reader in another thread can then pair the old
# bit count with the new value.  acos needs pi (directly near -1, and through
# the atan tables) at no more than about 2,100 bits for inputs rounded to the
# MAX_DIGITS working precision, so filling the memo past that once here means
# the lock-free calls only ever read it.
pi_fixed(2200)


@contextmanager
def hp_context(digits: int):
    """Guarded global working precision (digits plus guard) under _MP_LOCK.

    For the regions that compute with mpf operators at mp.prec; arccos_hp
    does not use it.
    """
    with _MP_LOCK:
        with workdps(digits + GUARD_DIGITS):
            yield


@dataclass(frozen=True)
class HPValue:
    """A value carrying at least `digits` correct significant decimal digits."""

    digits: int
    value: mpf

    def __float__(self) -> float:
        return float(self.value)


def acos_mp(x: mpf) -> mpf:
    """arccos of an mpf at the caller's working precision (endpoint-stable)."""
    return mp.acos(x)


def arccos_hp(x, digits: int | None = None) -> HPValue:
    """arccos x with relative error at most 10**(1-digits).

    x may be a float, an mpf, or a decimal string (strings let callers state
    points like 1 - 1e-30 that no float can represent).  The value is
    computed at digits + GUARD_DIGITS with the precision passed explicitly,
    so it neither reads nor sets mpmath's global precision and takes no lock.
    """
    digits = resolve_digits(digits)
    prec = dps_to_prec(digits + GUARD_DIGITS)
    if isinstance(x, float):
        if not -1.0 <= x <= 1.0:
            raise ValueError(f"arccos domain is [-1, 1], got {x}")
        return HPValue(digits, mp.make_mpf(mpf_acos(from_float(x), prec, round_nearest)))
    xm = mpf(x, prec=prec, rounding="n")
    # exact comparisons, which NaN fails
    if not -1 <= xm <= 1:
        raise ValueError(f"arccos domain is [-1, 1], got {x}")
    return HPValue(digits, mp.acos(xm, prec=prec, rounding="n"))


def arccos_stable(x: float) -> float:
    """float64 arccos accurate to a few ulp even within 1e-15 of the endpoints."""
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"arccos domain is [-1, 1], got {x}")
    if x < 0.0:
        return math.pi - arccos_stable(-x)
    return 2.0 * math.atan2(math.sqrt(1.0 - x), math.sqrt(1.0 + x))


def const_hp(name: str, digits: int | None = None) -> HPValue:
    """Named constant (a key of MP_CONSTANTS) to the requested digits."""
    digits = resolve_digits(digits)
    if name not in MP_CONSTANTS:
        raise ValueError(f"unknown constant {name!r}; expected one of {CONSTANT_NAMES}")
    with hp_context(digits):
        return HPValue(digits, MP_CONSTANTS[name]())
