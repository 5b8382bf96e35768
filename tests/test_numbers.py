import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from posthoc._numbers import INF, is_inf, pow_ext, recip


def recip_reference(x):
    """recip as first written: Fraction(1) / x for a Fraction."""
    if is_inf(x):
        return 0
    if x == 0:
        return INF
    if isinstance(x, F):
        return F(1) / x
    if isinstance(x, int):
        return F(1, x)
    return 1.0 / x


def pow_ext_reference(base, expo):
    """pow_ext as first written: Fraction(base) ** e for exact bases."""
    if is_inf(base):
        return INF if expo > 0 else (0 if expo < 0 else 1)
    if base == 0:
        return 0 if expo > 0 else (INF if expo < 0 else 1)
    if isinstance(expo, int) or (isinstance(expo, F) and expo.denominator == 1):
        e = int(expo)
        if isinstance(base, (F, int)):
            return F(base) ** e
        return base ** e
    return float(base) ** float(expo)


bases = st.one_of(
    st.fractions(min_value=0, max_value=50, max_denominator=64),
    st.integers(0, 50),
    st.floats(0, 50),
    st.sampled_from([0, F(0), 0.0, INF, 1, F(1), 1.0]),
)
exponents = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.floats(-5, 5),
    st.sampled_from([0, F(0), 0.0, F(3), F(-2)]),
)


def same(got, want):
    return got == want and type(got) is type(want)


@given(bases)
def test_recip_matches_the_reference(x):
    assert same(recip(x), recip_reference(x))


@given(bases, exponents)
def test_pow_ext_matches_the_reference(base, expo):
    try:
        want = pow_ext_reference(base, expo)
    except OverflowError:
        # the old formulation raised past the float range; pow_ext gives inf
        want = INF
    assert same(pow_ext(base, expo), want)


def test_fast_paths_on_fixed_points():
    assert same(recip(F(3, 7)), F(7, 3))
    assert same(recip(F(0)), INF)
    assert same(recip(INF), 0)
    assert same(pow_ext(F(2, 3), -2), F(9, 4))
    assert same(pow_ext(2, F(3)), F(8))
    assert same(pow_ext(F(4), F(1, 2)), 2.0)
    assert same(pow_ext(F(1, 2), 0), F(1))
    assert same(pow_ext(1.958772625743483e-112, -3), INF)
    assert same(pow_ext(1e-200, -2.5), INF)
    assert same(pow_ext(1e200, 2), INF)
    assert same(pow_ext(1e200, -2), 0.0)


def decimal_power(base, expo):
    """base ** expo to 50 digits, from the exact int pairs."""
    with localcontext() as ctx:
        ctx.prec = 50
        b = Decimal(base.numerator) / Decimal(base.denominator)
        return b ** (Decimal(expo.numerator) / Decimal(expo.denominator))


@pytest.mark.parametrize("base, expo", [
    (F(1, 2 ** 1995), F(-101, 100)),   # float(base) is 0.0
    (F(2 ** 1100), F(-1, 2)),          # float(base) overflows
    (F(2 ** 1100), F(1, 2)),           # result past the float range
    (F(1, 2 ** 1060), F(1, 2)),        # float(base) is subnormal
    (2 ** 1100, F(-1, 3)),             # a plain int base
    (F(3, 2 ** 1500), 0.25),           # a float exponent
    (F(1, 2 ** 1500), F(3, 2)),        # result below the float range
], ids=["tiny-negative", "huge-negative", "huge-positive", "subnormal",
        "int", "float-exponent", "underflow"])
def test_pow_ext_outside_the_float_range(base, expo):
    want = decimal_power(base, F(expo))
    got = pow_ext(base, expo)
    assert type(got) is float
    if want > Decimal(sys.float_info.max):
        assert got == INF
    elif want < Decimal(2.0 ** -1074):
        assert got == 0.0
    else:
        assert math.isclose(got, float(want), rel_tol=1e-12)
