"""Extended nonnegative arithmetic shared by the exact and float backends.

Numbers are ``Fraction`` (exact backend), ``int``, or ``float``; ``math.inf``
is the top element on both backends.  Conventions fixed here and used
everywhere else: 1/0 = inf, 1/inf = 0, and 0 * inf = 0 (mass-zero events
contribute nothing to expectations).
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

INF = math.inf

#: one-sided tolerance for float-backend validity checks; the exact backend
#: needs none but shares the comparison code.
TOL = 1e-12


def is_inf(x: Number) -> bool:
    return isinstance(x, float) and math.isinf(x)


def recip(x: Number) -> Number:
    """Reciprocal with 1/0 = inf and 1/inf = 0, preserving exactness."""
    if type(x) is Fraction:
        # swap numerator and denominator: an int pair takes Fraction's
        # fast constructor path, where Fraction(1) / x takes the slow one
        return Fraction(x.denominator, x.numerator) if x else INF
    if is_inf(x):
        return 0
    if x == 0:
        return INF
    if isinstance(x, (int, Fraction)):
        return Fraction(1, x)
    return 1.0 / x


def mul0(a: Number, b: Number) -> Number:
    """Product with the convention 0 * inf = 0."""
    if a == 0 or b == 0:
        return 0
    return a * b


def pow_ext(base: Number, expo: Number) -> Number:
    """base ** expo on [0, inf], exact when the exponent is an integer."""
    if is_inf(base):
        if expo > 0:
            return INF
        if expo < 0:
            return 0
        return 1
    if base == 0:
        if expo > 0:
            return 0
        if expo < 0:
            return INF
        return 1
    if isinstance(expo, int) or (isinstance(expo, Fraction) and expo.denominator == 1):
        e = int(expo)
        if isinstance(base, (int, Fraction)):
            # Fraction(n ** e, d ** e) from an int pair, without copying a
            # Fraction base or going through Fraction.__pow__
            n, d = base.numerator, base.denominator
            return Fraction(n ** e, d ** e) if e >= 0 else Fraction(d ** -e, n ** -e)
    else:
        e = float(expo)
        if not isinstance(base, float):
            try:
                f = float(base)
            except OverflowError:
                f = INF
            if not sys.float_info.min <= f < INF:
                # an exact base outside the normal float range would become
                # 0.0, a subnormal or an OverflowError: take the power in the
                # log domain of the int pair (relative error about
                # |e log base| * 2^-53); exp underflows to 0.0 by itself
                try:
                    return math.exp(e * (math.log(base.numerator)
                                         - math.log(base.denominator)))
                except OverflowError:
                    return INF
            base = f
    try:
        return base ** e
    except OverflowError:
        # a positive float result past the float range is the top element
        return INF


def fmt_number(x: Number) -> str:
    """Serialize a number losslessly: fractions as 'n/d', inf as 'inf'."""
    if is_inf(x):
        return "inf"
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return repr(x)


def parse_number(s) -> Number:
    """Inverse of :func:`fmt_number`; also accepts plain ints/floats."""
    if isinstance(s, (int, Fraction)):
        return s
    if isinstance(s, float):
        return s
    text = str(s).strip()
    if text in ("inf", "Infinity", "+inf"):
        return INF
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return Fraction(int(text))


def frac(a, b=None) -> Fraction:
    """Shorthand used by fixtures: frac(1, 100) or frac('.01')."""
    if b is not None:
        return Fraction(a, b)
    if isinstance(a, str):
        return Fraction(a)
    return Fraction(a)
