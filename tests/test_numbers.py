import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from posthoc._numbers import (
    INF, TOL, at_most, checked_weights, exp_ext, float_ext, is_finite, is_inf,
    is_unit_mass, log_ext, mul0, pow_ext, power_mean, recip, sqrt_fraction,
    within,
)


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


comparands = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=64),
    st.integers(-4, 4),
    st.floats(allow_nan=True),
    st.sampled_from([F(1, 2), 0.5, 0, F(0), INF, -INF, math.nan, True]),
)


@given(comparands, comparands)
def test_at_most_is_the_comparison(x, bound):
    # int pairs for exact operands and a Fraction against a finite float
    assert at_most(x, bound) is (x <= bound)


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


def pow_ext_range_test_reference(base, expo):
    """pow_ext of an exact base and a non-integer exponent as it was written
    with a range test of its own: the power of float(base), or of the log
    domain where that is not a normal float."""
    e = float(expo)
    f = float_ext(base)
    if not sys.float_info.min <= f < INF:
        return exp_ext(e * log_ext(base))
    try:
        return f ** e
    except OverflowError:
        return INF


@given(st.one_of(st.fractions(0, 50, max_denominator=64).filter(bool), st.integers(1, 50),
                 st.sampled_from([F(1, 10 ** 400), F(10 ** 400), 10 ** 400, F(1, 10 ** 310),
                                  F(3, 2 ** 1075), F(2 ** 1024 - 1), F(10 ** 308)])),
       st.one_of(st.fractions(-5, 5, max_denominator=6).filter(lambda e: e.denominator > 1),
                 st.floats(-5, 5), st.sampled_from([2.0, 400.0, -400.0])))
def test_pow_ext_of_an_exact_base_is_its_int_pair_power(base, expo):
    assert same(pow_ext(base, expo), pow_ext_range_test_reference(base, expo))


@pytest.mark.parametrize("a, b, want", [
    (F(1, 10 ** 400), INF, INF),
    (INF, F(1, 10 ** 400), INF),
    (F(10 ** 400), INF, INF),
    (F(-1, 10 ** 400), INF, -INF),
    (2.0, INF, INF),
    (INF, INF, INF),
    (0, INF, 0),
    (INF, 0.0, 0),
    (F(0), INF, 0),
    (F(1, 3), F(3, 2), F(1, 2)),
])
def test_mul0_gives_0_only_for_a_zero_factor(a, b, want):
    # a positive factor, however small or large, times inf is inf
    assert same(mul0(a, b), want)
    assert math.isnan(mul0(math.nan, INF)) and math.isnan(mul0(F(1, 2), math.nan))


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



@pytest.mark.parametrize("x", [
    F(1, 3), 7, 0.25, 5e-324,           # in range, or a float subnormal
    F(1, 2 ** 1995), F(1, 2 ** 1060),   # float(x) is 0.0 or subnormal
    F(2 ** 1100, 3), 10 ** 400,         # float(x) overflows
])
def test_log_ext_matches_decimal(x):
    with localcontext() as ctx:
        ctx.prec = 50
        q = F(x)
        want = (Decimal(q.numerator) / Decimal(q.denominator)).ln()
    assert math.isclose(log_ext(x), float(want), rel_tol=1e-15)


def log_ext_reference(x):
    """log_ext as first written: through ``float(x)``."""
    if x == 0:
        return -INF
    if is_inf(x):
        return INF
    if isinstance(x, float):
        return math.log(x)
    try:
        f = float(x)
    except OverflowError:
        f = INF
    if sys.float_info.min <= f < INF:
        return math.log(f)
    return math.log(x.numerator) - math.log(x.denominator)


@given(st.one_of(
    st.fractions(min_value=0, max_denominator=10 ** 6),
    st.builds(F, st.integers(0, 10 ** 700), st.integers(1, 10 ** 700)),
    st.integers(0, 10 ** 400),
    st.floats(min_value=0),
    st.sampled_from([0, 0.0, F(0), True, INF, 5e-324, F(1, 2 ** 1074)]),
))
def test_log_ext_matches_the_reference(x):
    assert same(log_ext(x), log_ext_reference(x))


def test_log_ext_and_exp_ext_at_the_ends():
    assert log_ext(0) == log_ext(0.0) == log_ext(F(0)) == -INF
    assert log_ext(INF) == INF
    assert exp_ext(-INF) == 0.0 and exp_ext(INF) == INF
    assert exp_ext(710.0) == INF and exp_ext(709.0) == math.exp(709.0)

# ---------------------------------------------------------------------------
# power_mean: one implementation for calibration and merging


def rho_h_reference(values, weights, h):
    """calibration._rho_h_member as first written (zero weights dropped)."""
    vals = [(v, p) for v, p in zip(values, weights) if p > 0]
    if is_inf(h) and h > 0:
        return max(v for v, _ in vals)
    if is_inf(h) and h < 0:
        return min(v for v, _ in vals)
    if h == 0:
        has_zero = any(v == 0 for v, _ in vals)
        has_inf = any(is_inf(v) for v, _ in vals)
        if has_zero and has_inf:
            raise ValueError("geometric mean undefined: support includes 0 and inf")
        if has_inf:
            return INF
        if has_zero:
            return 0
        return math.exp(sum(float(p) * math.log(float(v)) for v, p in vals))
    moment = 0
    for v, p in vals:
        moment = moment + mul0(p, pow_ext(v, h))
        if is_inf(moment):
            break
    if is_inf(moment):
        return INF if h > 0 else 0
    if moment == 0:
        return 0 if h > 0 else INF
    return pow_ext(moment, recip(h) if isinstance(h, (int, F)) else 1.0 / h)


def merge_h_mean_reference(values, weights, h):
    """merging.merge_h_mean for one outcome as first written (finite h),
    except that at h = 0 the log terms are added with the builtin ``sum``,
    as ``power_mean`` adds them: from CPython 3.12 that sum is compensated,
    and a left-to-right sum would differ there."""
    if h == 0:
        logs, hit_zero, hit_inf = [], False, False
        for v, w in zip(values, weights):
            if w == 0:
                continue
            if v == 0:
                hit_zero = True
            elif is_inf(v):
                hit_inf = True
            else:
                logs.append(float(w) * math.log(float(v)))
        if hit_zero:
            return 0
        if hit_inf:
            return INF
        return math.exp(sum(logs))
    moment = 0
    for v, w in zip(values, weights):
        moment += mul0(w, pow_ext(v, h))
    if is_inf(moment):
        return INF if h > 0 else 0
    if moment == 0:
        return 0 if h > 0 else INF
    return pow_ext(moment, recip(h) if isinstance(h, (int, F)) else 1.0 / h)


mean_values = st.one_of(
    st.fractions(min_value=0, max_value=20, max_denominator=16),
    st.integers(0, 5),
    st.floats(0, 20),
    st.just(INF),
)
mean_indices = st.sampled_from([-INF, -3, -2, -1, F(-1, 2), 0, F(1, 3), F(1, 2),
                                1, 2, 3, F(3, 1), 0.5, -1.5, INF])


@st.composite
def weighted_values(draw):
    values = draw(st.lists(mean_values, min_size=1, max_size=5))
    raw = draw(st.lists(st.integers(0, 6), min_size=len(values),
                        max_size=len(values)).filter(any))
    if draw(st.booleans()):
        weights = [F(r, sum(raw)) for r in raw]
    else:
        weights = [r / sum(raw) for r in raw]
    return values, weights


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


@given(weighted_values(), mean_indices)
# on CPython 3.12 the compensated sum gives 2.673401944909306 here, and a
# left-to-right one 2.6734019449093065
@example(([0, F(61, 4), 2, 2, 0], [0.0, 1 / 7, 1 / 7, 5 / 7, 0.0]), 0)
def test_power_mean_matches_both_old_formulations(vw, h):
    """Equal value and type as the calibration formulation everywhere, and
    as the merging one at finite h, except at h = 0 with 0 and inf both
    weighted, where merging returned 0 and the one convention raises."""
    values, weights = vw
    got = outcome(power_mean, values, weights, h)
    want = outcome(rho_h_reference, values, weights, h)
    assert got[0] == want[0]
    assert got[1] == want[1] and type(got[1]) is type(want[1])
    if not is_inf(h):
        merged = outcome(merge_h_mean_reference, values, weights, h)
        if got[0] == "ValueError":
            assert h == 0 and merged == ("ok", 0)
        else:
            assert merged[1] == got[1] and type(merged[1]) is type(got[1])


def test_power_mean_geometric_of_zero_and_inf_raises_on_both_callers():
    from posthoc import EvidenceVariable, Hypothesis, DiscreteSpace, h_mean, merge_h_mean

    space = DiscreteSpace((0, 1), (F(1, 2), F(1, 2)))
    ev = EvidenceVariable({0: 0, 1: INF}, "e")
    with pytest.raises(ValueError, match="geometric mean undefined"):
        power_mean([0, INF], [F(1, 2), F(1, 2)], 0)
    with pytest.raises(ValueError, match="geometric mean undefined"):
        h_mean(ev, 0, Hypothesis.simple(space))
    zero = EvidenceVariable({0: 0, 1: 1}, "e")
    top = EvidenceVariable({0: INF, 1: 1}, "e")
    with pytest.raises(ValueError, match="geometric mean undefined"):
        merge_h_mean([zero, top], [F(1, 2), F(1, 2)], 0)
    # a zero weight leaves the undefined value out
    assert merge_h_mean([zero, top], [1, 0], 0)[0] == 0
    assert power_mean([0, INF], [0, 1], 0) == INF


def test_power_mean_infinite_index_is_max_and_min():
    # merge_h_mean at h = inf used to return 0, 1.0 or inf from
    # (sum w e^inf)^0; the power mean's limits are the max and min
    assert power_mean([F(1, 2), F(1, 3)], [F(1, 2), F(1, 2)], INF) == F(1, 2)
    assert power_mean([F(1, 2), F(1, 3)], [F(1, 2), F(1, 2)], -INF) == F(1, 3)
    assert power_mean([F(1, 2), 3], [1, 0], INF) == F(1, 2)


def test_an_exact_moment_past_the_float_range_meets_its_limit():
    """An exact moment past the float range that meets a float or inf term
    gives the limit the sign of h implies, where Fraction + float raised
    OverflowError; an integral Fraction h is its int."""
    from posthoc import (DiscreteSpace, E_SCALE, EvidenceVariable, Hypothesis,
                         P_SCALE, h_mean, merge_h_mean, merge_harmonic)

    half = [F(1, 2)] * 2
    assert power_mean([F(10 ** 320), INF], half, 2) == INF
    assert power_mean([F(1, 10 ** 320), 0.0], half, -1) == 0
    assert power_mean([F(10 ** 320), 3.0], half, 1) == INF
    assert power_mean([F(1, 10 ** 320), 0], half, F(-1)) == 0
    assert power_mean([F(1, 10 ** 320), 0], half, -1) == 0
    space = DiscreteSpace((0, 1), (F(1, 2), F(1, 2)))
    ev = EvidenceVariable({0: F(10 ** 320), 1: INF}, E_SCALE)
    assert h_mean(ev, 1, Hypothesis.simple(space)) == INF
    big, top = (EvidenceVariable({0: x}, E_SCALE) for x in (F(10 ** 320), INF))
    assert merge_h_mean([big, top], half, 2)[0] == INF
    small, zero = (EvidenceVariable({0: x}, P_SCALE) for x in (F(1, 10 ** 320), 0.0))
    assert merge_harmonic([small, zero], half)[0] == 0


@given(st.fractions(0, 10 ** 6) | st.fractions(0, F(1, 10 ** 6)),
       st.integers(0, 3 * 10 ** 6))
def test_sqrt_fraction_is_correctly_rounded(x, k):
    for y in (x, F(k * k, 4 ** 20), F(k, 10 ** 12)):
        got = sqrt_fraction(y)
        with localcontext() as ctx:
            ctx.prec = 80
            exact = (Decimal(y.numerator) / Decimal(y.denominator)).sqrt()
            # within half an ulp, so no other float is nearer
            assert abs(Decimal(got) - exact) <= Decimal(math.ulp(got)) / 2
        if y.numerator == 0:
            assert got == 0.0


def test_sqrt_fraction_of_squares_is_exact():
    for k in (1, 3, 2 ** 26 + 1, 10 ** 7):
        assert sqrt_fraction(F(k * k)) == k
        assert sqrt_fraction(F(k * k, 4)) == k / 2


# ---------------------------------------------------------------------------
# checked_weights: the sum on lattice ints against the plain sum


def checked_weights_by_sum(values, what):
    """checked_weights as first written: ``sum`` over the values."""
    values = tuple(values)
    for v in values:
        if not is_finite(v):
            raise ValueError(f"{what} must be finite, got {v}")
        if v < 0:
            raise ValueError(f"{what} must be nonnegative")
    total = sum(values)
    if not (within(total) and within(1, total)):
        raise ValueError(f"{what} must sum to 1, got {total}")
    return values


TINY = F(1, 10 ** 30)
ULP = 2.0 ** -52


@pytest.mark.parametrize("values", [
    (1,), (1, 0), (0, 0, 1), (0,), (), (1, 1), (2, -1),
    (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2) + TINY), (F(1, 2), F(1, 2) - TINY),
    (F(1, 2) + TINY, F(1, 2) - TINY), (F(3, 2), F(-1, 2)), (F(1), 0),
    (0.5, 0.5), (0.1,) * 10, (1 + 4503 * ULP,), (1 + 4504 * ULP,),
    (1 + 4505 * ULP,), (1 - 9007 * ULP / 2,), (1 - 9008 * ULP / 2,),
    (0.5, 0.5 + 2e-12), (0.5, -0.5, 1.0),
    (True,), (True, False), (True, True), (False,), (F(1, 2), True, -F(1, 2)),
    (F(1, 2), 0.5), (F(1, 3), 0, 0.6666666666666666), (1, 0.0), (F(1, 2), 1),
    (F(1, 2), INF), (math.nan, 1), (-1, INF), (F(1, 2), -0.0, F(1, 2)),
])
def test_checked_weights_matches_the_plain_sum(values):
    got = outcome(checked_weights, values, "weights")
    want = outcome(checked_weights_by_sum, values, "weights")
    assert got[0] == want[0] and (same(got[1], want[1]) if got[0] == "ok"
                                  else got[1] == want[1])


weight_values = st.one_of(
    st.fractions(min_value=-1, max_value=1, max_denominator=12),
    st.integers(-1, 2),
    st.floats(-1, 1.5),
    st.booleans(),
    st.sampled_from([F(1, 2), 0.5, F(1, 3), F(2, 3), TINY, INF, math.nan]),
)


@given(st.lists(weight_values, max_size=6))
def test_checked_weights_matches_the_plain_sum_on_random_mixes(values):
    got = outcome(checked_weights, values, "w")
    want = outcome(checked_weights_by_sum, values, "w")
    assert got[0] == want[0] and (same(got[1], want[1]) if got[0] == "ok"
                                  else got[1] == want[1])


def test_one_mass_sum_rule_at_the_tolerance():
    # 1 + 4504 ulps prints as 1.000000000001: within(x) reads x <= 1 + TOL
    # in float arithmetic, and 1 + TOL rounds up to it
    assert 1 + TOL == 1 + 4504 * ULP
    assert is_unit_mass(1 + 4504 * ULP) and not is_unit_mass(1 + 4505 * ULP)
    assert is_unit_mass(1 - 9007 * ULP / 2) and not is_unit_mass(1 - 9008 * ULP / 2)
    assert is_unit_mass(F(3, 3)) and not is_unit_mass(1 + TINY)
    assert is_unit_mass(6, 6) and not is_unit_mass(7, 6)
