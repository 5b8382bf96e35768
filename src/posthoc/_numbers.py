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
from functools import reduce
from typing import Union

Number = Union[int, float, Fraction]

INF = math.inf

#: one-sided tolerance of a verdict on a float statistic (:func:`within`);
#: an exact statistic is compared exactly, with none.
TOL = 1e-12

EXACT_TYPES = frozenset((int, Fraction))


def is_inf(x: Number) -> bool:
    return isinstance(x, float) and math.isinf(x)


def is_finite(x: Number) -> bool:
    """False for a float inf or nan, which has no exact ``Fraction``."""
    return not isinstance(x, float) or math.isfinite(x)


def recip(x: Number) -> Number:
    """Reciprocal with 1/0 = inf and 1/inf = 0, preserving exactness."""
    if type(x) is Fraction:
        # swap numerator and denominator: an int pair takes Fraction's
        # fast constructor path, where Fraction(1) / x takes the slow one
        n, d = x.as_integer_ratio()
        return Fraction(d, n) if n else INF
    if is_inf(x):
        return 0
    if x == 0:
        return INF
    if isinstance(x, (int, Fraction)):
        return Fraction(1, x)
    return 1.0 / x


def at_most(x: Number, bound: Number) -> bool:
    """x <= bound, with the result of Python's comparison: the one exact
    comparison.  A ``Fraction`` against an exact number or a finite float,
    or an int against a ``Fraction``, is compared as int pairs, without the
    ABC checks of ``Fraction``'s operators and the ``Fraction`` they build
    from a float."""
    tx, tb = type(x), type(bound)
    if (tx is Fraction and (tb in EXACT_TYPES or tb is float and math.isfinite(bound))
            or tx is int and tb is Fraction):
        n, d = x.as_integer_ratio()
        bn, bd = bound.as_integer_ratio()
        return n * bd <= bn * d
    return x <= bound


def within(x: Number, bound: Number = 1) -> bool:
    """The verdict x <= bound, the one rule every validity check uses:
    exactly (:func:`at_most`) when both are exact, else x <= bound + TOL,
    which absorbs float rounding.  nan is never within a bound."""
    if type(x) is Fraction and type(bound) is int:  # the usual exact verdict
        n, d = x.as_integer_ratio()
        return n <= bound * d
    if type(x) in EXACT_TYPES and type(bound) in EXACT_TYPES:
        return at_most(x, bound)
    return x <= bound + TOL


def is_unit_mass(total: Number, d: int = 1) -> bool:
    """The one rule for a sum of probability masses, ``total`` in units of
    1/d: ``within`` in both directions, so an exact total must equal d and
    a float one lie within TOL of 1.  An int total (the sum of
    :func:`lattice_keys` on exact masses) is compared with d directly."""
    if type(total) is int:
        return total == d
    return within(total, d) and within(d, total)


def checked_lattice(values: tuple, what: str) -> tuple:
    """(d, keys) of :func:`lattice_keys`, after checking ``values`` as
    probability weights: each finite and nonnegative, and the sum 1 by
    :func:`is_unit_mass`.  Exact values are checked and summed on the
    ints, so no ``Fraction`` is compared or added; float keys are
    ``values`` itself.  ``what`` names the values in the messages, which
    show the sum as ``sum`` gives it."""
    d, keys = lattice_keys(values)
    if keys is not values:  # exact values, each finite
        if min(keys, default=0) < 0:
            raise ValueError(f"{what} must be nonnegative")
    else:
        for v in values:
            if not is_finite(v):
                raise ValueError(f"{what} must be finite, got {v}")
            if v < 0:
                raise ValueError(f"{what} must be nonnegative")
    if not is_unit_mass(sum(keys), d):
        raise ValueError(f"{what} must sum to 1, got {sum(values)}")
    return d, keys


def checked_weights(values, what: str) -> tuple:
    """``values`` as a tuple, checked as probability weights by
    :func:`checked_lattice`."""
    values = tuple(values)
    checked_lattice(values, what)
    return values


def check_seed(seed) -> None:
    """The one check of a seed: an int, not a bool, in [0, 2**128), the
    range of a Philox key.  Any other type raises ``TypeError``, and an
    int outside the range numpy's ``ValueError``."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 1 << 128:
        raise ValueError("key must be positive and less than 2**128.")


def mul0(a: Number, b: Number) -> Number:
    """Product with the convention 0 * inf = 0: only a zero factor gives 0,
    and any other factor times inf is inf of the product's sign."""
    if a == 0 or b == 0:
        return 0
    if (type(a) is float and math.isinf(a) or type(b) is float and math.isinf(b)) \
            and a == a and b == b:
        # not float(x) * inf, which is nan for an exact x whose float is 0.0
        # and raises OverflowError for one past the float range
        return INF if (a > 0) == (b > 0) else -INF
    return a * b


def product0(values) -> Number:
    """1 * v_1 * v_2 * ... by :func:`mul0`, left to right.  Exact factors
    are multiplied as int pairs into one ``Fraction``, or an int when
    every factor is an int, as ``Fraction``'s operators give it."""
    values = tuple(values)
    if not EXACT_TYPES.issuperset(map(type, values)):
        return reduce(mul0, values, 1)
    num = den = 1
    for v in values:
        n, d = v.as_integer_ratio()
        if n == 0:
            return 0
        num, den = num * n, den * d
    return Fraction(num, den) if Fraction in map(type, values) else num


def float_ext(x: Number) -> float:
    """float(x), with +-inf for an exact x past the float range."""
    try:
        return float(x)
    except OverflowError:
        return INF if x > 0 else -INF


def log_ext(x: Number) -> float:
    """ln x on [0, inf], with ln 0 = -inf and ln inf = inf.  An exact x
    outside the normal float range, where ``float(x)`` would be 0.0, a
    subnormal or an OverflowError, is taken on its int pair.  The float
    of an exact x is its int pair's true division, which is how ``float``
    converts a ``Fraction``."""
    if isinstance(x, float):
        return math.log(x) if x else -INF  # math.log(inf) is inf
    return _log_ratio(*x.as_integer_ratio())


def _log_ratio(n: int, d: int) -> float:
    """:func:`log_ext` of the ratio n / d of ints, d > 0, read on the pair:
    ln of the true division n / d in the normal float range, else
    ln n - ln d."""
    if n == 0:
        return -INF
    f = _ratio_float(n, d)
    if sys.float_info.min <= f < INF:
        return math.log(f)
    return math.log(n) - math.log(d)


def _ratio_float(n: int, d: int) -> float:
    """The true division n / d of ints, d > 0, which is float(Fraction(n, d)),
    with +-inf past the float range."""
    try:
        return n / d
    except OverflowError:
        return INF if n > 0 else -INF


def _recip_share(m: tuple, a: tuple, b: tuple) -> float:
    """m ln(b / a) / (b - a), the share of E[1/p] of a piece of mass m > 0
    on (a, b], 0 < a < b, each an int pair (n, d) with d > 0, for a piece
    whose floats leave the normal float range.  With x = (b - a) / a it is
    the exact ratio m / a times log1p(x) / x (1.0 where x is below the
    normal range), or, where x passes the float range, m / (b - a) times
    ln(b / a): a normal float times a ratio whose float is taken in the
    log domain where it is not a normal one."""
    (mn, md), (an, ad), (bn, bd) = m, a, b
    wn, wd = bn * ad - an * bd, bd * ad  # b - a
    x = _ratio_float(wn * ad, wd * an)
    if x < INF:
        lead = math.log1p(x) / x if x >= sys.float_info.min else 1.0
        n, d = mn * ad, md * an  # m / a
    else:
        lead = _log_ratio(bn * ad, bd * an)
        n, d = mn * wd, md * wn  # m / (b - a)
    f = _ratio_float(n, d)
    if sys.float_info.min <= f < INF:
        return f * lead
    return exp_ext(_log_ratio(n, d) + math.log(lead))


def exp_ext(t: float) -> float:
    """exp on [-inf, inf], inf where the result passes the float range."""
    try:
        return math.exp(t)
    except OverflowError:
        return INF


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
            return _ratio_pow(*base.as_integer_ratio(), e)
    try:
        return base ** e
    except OverflowError:
        # a positive float result past the float range is the top element
        return INF


def common_denominator(values) -> tuple | None:
    """(D, [x * D for x in values]) with D the least common denominator, so
    every x * D is an int; None when some value is not an int or a
    ``Fraction`` (a float, inf, a bool or a subclass).

    Exact kernels compare and add these ints instead of ``Fraction``s, whose
    operators pay for ABC checks and normalisation on every call.
    """
    if not EXACT_TYPES.issuperset(map(type, values)):
        return None
    pairs = [x.as_integer_ratio() for x in values]
    d = math.lcm(*[k for _, k in pairs])
    return d, [n * (d // k) for n, k in pairs]


def lattice_keys(values) -> tuple:
    """(d, keys), the one exact-sum routine: on exact values the ints
    x * d of :func:`common_denominator`, else d = 1 and the values
    themselves.  Keys compare as the values do, and sum(keys) / d is
    ``sum(values)``: on the lattice an int sum, with no ``Fraction``
    arithmetic, that is exact like the ``Fraction`` sum."""
    return common_denominator(values) or (1, values)


def power_mean(values, weights, h: Number) -> Number:
    """Weighted power mean (sum_i w_i v_i^h)^(1/h) of values in [0, inf].

    Terms of weight 0 are left out.  h = -inf and +inf give the min and max
    of the rest, and h = 0 the weighted geometric mean exp(sum_i w_i log v_i),
    which is 0 when some v_i = 0 and inf when some v_i = inf.  When both 0
    and inf carry positive weight at h = 0 the mean is undefined, and this
    raises ``ValueError``: any value would make some validity check pass or
    fail falsely.  For h != 0 a moment of inf or 0 gives inf or 0 on the
    side the sign of h implies, and the root is exact for an int or
    ``Fraction`` h applied to an exact moment with an integer 1/h.

    When every value and weight of positive weight is an int or a
    ``Fraction`` they are read as int pairs, and no ``Fraction`` operator
    runs: at h = +-inf the max or min is found by cross-multiplying; at
    h = 0 each term is float(w) * log_ext(v), with the float of n / d
    its true division, so a value outside the normal float range takes its
    log on the pair, and a mean past the float range is inf; at an int h
    the moment is summed on the pairs, one ``Fraction`` in all; at a float
    h, or a ``Fraction`` h that is not an integer, each term is
    float(w) * float(v) ** float(h), as :func:`pow_ext` and :func:`mul0`
    give it (:func:`_float_power_mean`).
    Other inputs, and an integral ``Fraction`` h, take those two helpers
    term by term (:func:`_general_power_mean`); both give equal values of
    equal type.
    """
    values, weights = tuple(values), tuple(weights)
    if not (EXACT_TYPES.issuperset(map(type, values))
            and EXACT_TYPES.issuperset(map(type, weights))):
        pairs = [(v, w) for v, w in zip(values, weights) if w != 0]
        if not EXACT_TYPES.issuperset([type(x) for pair in pairs for x in pair]):
            return _general_power_mean(pairs, h)
        # the terms of positive weight are exact
        values, weights = [v for v, _ in pairs], [w for _, w in pairs]
    wrs = [w.as_integer_ratio() for w in weights]
    if is_inf(h):
        # the first extreme value of positive weight, as max and min give it
        side, best = (1 if h > 0 else -1), None
        for v, (wn, _) in zip(values, wrs):
            if wn:
                vn, vd = v.as_integer_ratio()
                if best is None or side * (vn * bd - bn * vd) > 0:
                    best, bn, bd = v, vn, vd
        return (max if h > 0 else min)(()) if best is None else best
    ratios = [(v.as_integer_ratio(), wr) for v, wr in zip(values, wrs) if wr[0]]
    if h == 0:
        if any(vn == 0 for (vn, _), _ in ratios):
            return 0
        # the builtin sum, as on the general path
        return exp_ext(sum(wn / wd * _log_ratio(vn, vd)
                           for (vn, vd), (wn, wd) in ratios))
    if type(h) is int:
        # the exact moment on int pairs, with one Fraction for the sum
        num, den, e = 0, 1, abs(h)
        for (vn, vd), (wn, wd) in ratios:
            if h < 0:
                if vn == 0:
                    return 0  # v^h = inf makes the moment inf
                vn, vd = vd, vn
            tn, td = wn * vn ** e, wd * vd ** e
            g = math.gcd(den, td)
            num, den = num * (td // g) + tn * (den // g), den // g * td
        if not num:
            return 0 if h > 0 else INF
        if abs(h) == 1:  # the moment, or its reciprocal, as a ratio
            return Fraction(num, den) if h == 1 else Fraction(den, num)
        return _ratio_pow(num, den, 1 / h)  # 1 / h is float(Fraction(1, h))
    if type(h) is float and h == h or type(h) is Fraction and h.denominator != 1:
        return _float_power_mean(ratios, h)
    return _general_power_mean(
        [(v, w) for v, w, wr in zip(values, weights, wrs) if wr[0]], h)


def _general_power_mean(pairs: list, h: Number) -> Number:
    """:func:`power_mean` of the (value, weight) pairs of positive weight,
    term by term with :func:`pow_ext` and :func:`mul0`."""
    if is_inf(h):
        return (max if h > 0 else min)(v for v, _ in pairs)
    if h == 0:
        has_zero = any(v == 0 for v, _ in pairs)
        has_inf = any(is_inf(v) for v, _ in pairs)
        if has_zero and has_inf:
            raise ValueError("geometric mean undefined: support includes 0 and inf")
        if has_inf:
            return INF
        if has_zero:
            return 0
        return exp_ext(sum(float(w) * log_ext(v) for v, w in pairs))
    moment = 0
    for v, w in pairs:
        moment = moment + mul0(w, pow_ext(v, h))
        if is_inf(moment):
            return INF if h > 0 else 0
    if moment == 0:
        return 0 if h > 0 else INF
    return pow_ext(moment, recip(h) if isinstance(h, (int, Fraction)) else 1.0 / h)


def _float_power_mean(ratios: list, h: Number) -> Number:
    """:func:`power_mean` of exact values and weights at a finite h != 0
    that is a float or a ``Fraction`` with a denominator: the float moment
    of :func:`mul0` and :func:`pow_ext`, added left to right, and its root
    1 / h, all on int pairs.  A base outside the normal float range takes
    :func:`pow_ext`'s log domain."""
    hn, hd = h.as_integer_ratio()
    e = hn / hd  # float(h)
    moment = 0
    for (vn, vd), (wn, wd) in ratios:
        if vn == 0:
            if hn < 0:
                return 0  # v^h = inf makes the moment inf
            continue  # v^h = 0 adds nothing
        t = _ratio_pow(vn, vd, e)
        if t:  # mul0: w * 0 is 0
            moment = moment + wn / wd * t
            if moment == INF:
                return INF if hn > 0 else 0
    if moment == 0:
        return 0 if hn > 0 else INF
    if type(h) is float:
        root = 1.0 / h
    elif abs(hn) == 1:  # recip(h) is an integer
        root = hd if hn > 0 else -hd
    else:
        root = hd / hn  # float(recip(h))
    try:
        return moment ** root
    except OverflowError:
        return INF


def _ratio_pow(n: int, d: int, e: float) -> float:
    """:func:`pow_ext` of an exact base n / d > 0 and a float exponent e:
    (n / d) ** e, with n / d float(Fraction(n, d)), or outside the normal
    float range in the log domain (relative error about |e ln(n / d)| *
    2^-53), where exp underflows to 0.0 by itself."""
    f = _ratio_float(n, d)
    if not sys.float_info.min <= f < INF:
        return exp_ext(e * log_ext(Fraction(n, d)))
    try:
        return f ** e
    except OverflowError:
        return INF


def sqrt_fraction(x: Fraction) -> float:
    """The correctly rounded square root of a nonnegative ``Fraction``
    (result in the normal float range)."""
    p, q = x.numerator, x.denominator
    if p == 0:
        return 0.0
    # scale by 4**e so the integer root has at least 55 bits: the 53 kept,
    # a round bit and a sticky bit, which is set when the root is inexact
    e = max(0, (110 - p.bit_length() + q.bit_length()) // 2 + 1)
    num = p << (2 * e)
    r = math.isqrt(num // q)
    if r * r * q != num:
        r |= 1
    return math.ldexp(float(r), -e)


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
    if isinstance(s, (int, float, Fraction)):
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
    return Fraction(a) if b is None else Fraction(a, b)
