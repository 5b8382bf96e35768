import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from posthoc import (
    INF,
    ShapeConditionError,
    DiscreteSpace,
    EvidenceVariable,
    Hypothesis,
    PCurve,
    PFunction,
    RandomizedTestFunction,
    TCurve,
    TestFunction,
    check_pfunction_posthoc,
    merge_pfunctions_product,
    p_value_head,
    pfunction_of,
    soft_test_function,
    test_function_of,
    uniform_randomize,
)
from posthoc.pfunctions import (
    _sup_ratio,
    product_combine,
    product_shape_condition,
)


def half_half(values_p):
    n = len(values_p)
    sp = DiscreteSpace(tuple(range(n)), (F(1, n),) * n)
    ev = EvidenceVariable(dict(enumerate(values_p)), "p")
    return ev, Hypothesis.simple(sp)


class TestPCurve:
    def test_value_and_head(self):
        c = PCurve.power(2, 1)  # p(u) = 2u
        assert c.value(F(1, 4)) == F(1, 2)
        assert c.head() == 2
        assert not c.is_constant()

    def test_steps(self):
        c = PCurve.steps([(F(1, 2), F(1, 4)), (1, 3)])
        assert c.value(F(1, 2)) == F(1, 4)
        assert c.value(F(3, 4)) == 3
        assert c.breakpoints() == [F(1, 2), 1]

    def test_infinite_tail(self):
        c = PCurve([(F(1, 2), ((2, 0),)), (1, ())])
        assert c.value(F(1, 2)) == F(1, 2)
        assert c.value(1) == INF
        assert c.statistic() == 1  # sup u/p(u) attained at u = 1/2

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            PCurve.steps([(F(1, 2), 3), (1, F(1, 4))])

    def test_rejects_uncovered_domain(self):
        with pytest.raises(ValueError):
            PCurve([(F(1, 2), ((1, 0),))])

    def test_rejects_a_nan_coefficient(self):
        # max(0, nan) kept 0, so such a curve read post-hoc valid
        with pytest.raises(ValueError, match="term coefficients must be positive"):
            PCurve([(1, ((math.nan, 0),))])

    def test_rejects_a_nan_power(self):
        with pytest.raises(ValueError, match="term powers must be nonnegative"):
            PCurve([(1, ((1, math.nan),))])

    def test_rejects_a_nan_breakpoint(self):
        with pytest.raises(ValueError, match="breakpoints must strictly increase"):
            PCurve([(0.5, ((2, 0),)), (math.nan, ((2, 0),)), (1, ((1, 0),))])

    def test_statistic_limit_at_zero(self):
        # p(u) = u^2: u/p(u) = 1/u diverges toward u = 0
        assert PCurve.power(1, 2).statistic() == INF

    def test_scaled(self):
        c = PCurve.power(1, 1).scaled(F(1, 2))
        assert c.value(F(1, 2)) == F(1, 4)


class TestTCurve:
    def test_indicator(self):
        c = TCurve.indicator(F(1, 20))
        assert c.value(F(1, 21)) == 0
        assert c.value(F(1, 20)) == 1
        assert c.statistic() == 20

    def test_value_and_statistic_linear(self):
        c = TCurve([(0, 4, 1), (F(1, 4), 1, 0)])  # 4a capped at 1
        assert c.value(F(1, 8)) == F(1, 2)
        assert c.value(F(1, 2)) == 1
        assert c.statistic() == 4

    def test_rejects_decreasing_or_overflowing(self):
        with pytest.raises(ValueError):
            TCurve([(F(1, 2), 1, 0), (F(3, 4), F(1, 2), 0)])
        with pytest.raises(ValueError):
            TCurve([(0, 2, 0)])

    def test_rejects_a_nan_breakpoint(self):
        with pytest.raises(ValueError, match="breakpoints must be nonnegative"):
            TCurve([(F(1, 2), F(1, 2), 0), (math.nan, 1, 0)])

    @pytest.mark.parametrize("segment", [(0.5, math.nan, 0), (0.5, 1, math.nan)],
                             ids=["level", "power"])
    def test_rejects_a_nan_level_or_power(self, segment):
        with pytest.raises(ValueError, match="nondecreasing in alpha"):
            TCurve([segment])

    def test_zero_power_piece_is_the_zero_test(self):
        # 0 * alpha on [1/2, inf): the end at alpha = inf is 0 * inf = 0,
        # not inf, so the curve stays within [0, 1]
        c = TCurve([(0.5, 0, 1)])
        assert all(c.value(a) == 0 for a in (F(1, 4), 0.5, 1, 10**6, INF))
        assert pfunction_of(RandomizedTestFunction({"x": c})) == \
            PFunction({"x": PCurve([(1, ())])})

    def test_value_rejects_nan(self):
        # alpha <= 0 is false for nan, so value(nan) read past every
        # breakpoint and returned 1
        with pytest.raises(ValueError, match="alpha must be positive"):
            TCurve.indicator(F(1, 20)).value(math.nan)


class TestTransforms:
    def test_indicator_becomes_constant(self):
        tf = TestFunction(EvidenceVariable({0: F(1, 20)}, "p"))
        pf = pfunction_of(tf)
        assert pf[0].is_constant()
        for u in (F(1, 10), 1):
            assert pf[0].value(u) == F(1, 20)

    def test_identity_test_function(self):
        rtf = RandomizedTestFunction({0: TCurve([(0, 1, 1), (1, 1, 0)])})
        pf = pfunction_of(rtf)
        for u in (F(1, 4), F(1, 2), 1):
            assert pf[0].value(u) == u

    def test_four_alpha(self):
        rtf = RandomizedTestFunction({0: TCurve([(0, 4, 1), (F(1, 4), 1, 0)])})
        pf = pfunction_of(rtf)
        for u in (F(1, 4), 1):
            assert pf[0].value(u) == u / 4

    def test_constant_back_to_indicator(self):
        pf = PFunction({0: PCurve.constant(F(1, 20))})
        rtf = test_function_of(pf)
        assert rtf[0].value(F(1, 21)) == 0
        assert rtf[0].value(F(1, 20)) == 1

    def test_two_u(self):
        pf = PFunction({0: PCurve.power(2, 1)})
        rtf = test_function_of(pf)
        assert rtf[0].value(F(1, 2)) == F(1, 4)
        assert rtf[0].value(2) == 1
        assert rtf[0].value(4) == 1

    def test_step_round_trip_and_adjunction(self):
        rng = random.Random(20260823)
        for _ in range(300):
            _assert_round_trip_and_adjunction(_random_step_curve(rng))

    @given(st.lists(st.tuples(st.integers(1, 64), st.fractions(F(1, 64), 4)),
                    min_size=1, max_size=5, unique_by=lambda t: t[0]),
           st.booleans())
    def test_round_trip_and_adjunction_property(self, raw, dead_tail):
        # step p-functions with strictly increasing levels on a 1/64 grid,
        # optionally ending in a p = inf piece
        raw = sorted(raw)
        cuts = [F(c, 64) for c, _ in raw[:-1]] + [1]
        levels = list(itertools.accumulate(lvl for _, lvl in raw))
        if dead_tail:
            levels[-1] = INF
        _assert_round_trip_and_adjunction(
            PCurve.steps(list(zip(cuts, levels))))


def _assert_round_trip_and_adjunction(curve):
    """tf = test_function_of(p) inverts back to p, and tf(alpha) >= u
    <=> p(u) <= alpha at every breakpoint u of p and alpha of tf."""
    pf = PFunction({0: curve})
    rtf = test_function_of(pf)
    back = pfunction_of(rtf)
    grid_u = curve.breakpoints()
    for u in grid_u:
        assert back[0].value(u) == curve.value(u)
    alphas = sorted({a for a, _, _ in rtf[0].segments if a > 0})
    for u in grid_u:
        for a in alphas:
            assert (rtf[0].value(a) >= u) == (curve.value(u) <= a)


def _random_step_curve(rng, max_steps=4):
    k = rng.randrange(1, max_steps + 1)
    cuts = sorted(rng.sample(range(1, 16), k - 1)) + [16]
    u_his = [F(c, 16) for c in cuts]
    levels, level = [], F(0)
    for _ in range(k):
        level += F(rng.randrange(1, 8), 16)
        levels.append(level)
    if rng.random() < 0.2:
        levels[-1] = INF
    return PCurve.steps(list(zip(u_his, levels)))


class TestValidity:
    def test_uniform_randomization_of_boundary_p(self):
        # p in {1/2, 2} with masses {1/3, 2/3}: E[1/p] = 1
        sp = DiscreteSpace((0, 1), (F(1, 3), F(2, 3)))
        ev = EvidenceVariable({0: F(1, 2), 1: 2}, "p")
        pf = uniform_randomize(ev)
        rep = check_pfunction_posthoc(pf, Hypothesis.simple(sp))
        assert rep.valid and rep.statistic == 1

    def test_identity_curve_is_boundary_valid(self):
        pf = PFunction({0: PCurve.power(1, 1)})
        sp = DiscreteSpace((0,), (1,))
        rep = check_pfunction_posthoc(pf, Hypothesis.simple(sp))
        assert rep.valid and rep.statistic == 1

    def test_half_identity_is_invalid(self):
        pf = PFunction({0: PCurve.power(F(1, 2), 1)})  # p(u) = u/2
        sp = DiscreteSpace((0,), (1,))
        rep = check_pfunction_posthoc(pf, Hypothesis.simple(sp))
        assert not rep.valid and rep.statistic == 2


class TestConstructors:
    def test_uniform_randomize_shapes(self):
        ev, hyp = half_half([1, 2])
        pf = uniform_randomize(ev)
        assert pf[0].value(F(1, 2)) == F(1, 2)       # p = 1 -> u
        assert pf[1].value(F(1, 2)) == 1             # p = 2 -> 2u
        assert pf[1].head() == 2                     # head recovers p

    def test_uniform_randomize_strictly_improves(self):
        ev, _ = half_half([F(3, 2), 2])
        pf = uniform_randomize(ev)
        for x in (0, 1):
            for u in (F(1, 4), F(1, 2), F(3, 4)):
                assert pf[x].value(u) < ev[x]
            assert pf[x].value(1) == ev[x]

    def test_uniform_randomize_statistic_is_reciprocal(self):
        ev, _ = half_half([F(1, 2), 2])
        pf = uniform_randomize(ev)
        assert pf[0].statistic() == 2
        assert pf[1].statistic() == F(1, 2)

    def test_soft_test_function_unit(self):
        ev = EvidenceVariable({0: 1}, "e")
        rtf = soft_test_function(ev)
        assert rtf[0].value(F(1, 2)) == F(1, 2)
        assert rtf[0].value(3) == 1
        assert rtf[0].statistic() == 1

    def test_soft_test_function_four(self):
        ev = EvidenceVariable({0: 4}, "e")
        rtf = soft_test_function(ev)
        assert rtf[0].value(F(1, 8)) == F(1, 2)
        pf = pfunction_of(rtf)
        for u in (F(1, 4), 1):
            assert pf[0].value(u) == u / 4

    def test_soft_test_function_statistic_is_the_mean(self):
        sp = DiscreteSpace((0, 1), (F(1, 2), F(1, 2)))
        ev = EvidenceVariable({0: 1, 1: 3}, "e")  # E[e] = 2
        rtf = soft_test_function(ev)
        stat = sp.expectation(lambda x: rtf[x].statistic())
        assert stat == 2

    def test_p_value_head(self):
        ev, hyp = half_half([F(1, 2), 2])
        pf = uniform_randomize(ev)
        head = p_value_head(pf)
        assert head[0] == F(1, 2) and head[1] == 2

    def test_head_never_beats_the_full_statistic(self):
        rng = random.Random(4)
        sp = DiscreteSpace((0,), (1,))
        for _ in range(100):
            pf = PFunction({0: _random_step_curve(rng)})
            head = p_value_head(pf)[0]
            recip_head = 0 if head == INF else F(1) / head
            assert recip_head <= pf[0].statistic()


class TestRows:
    def test_plot_rows(self):
        pf = PFunction({0: PCurve.steps([(F(1, 2), 1), (1, 2)])})
        rows = pf.to_rows()
        assert (0, 0.5, 1.0) in rows and (0, 1.0, 2.0) in rows
        rtf = test_function_of(pf)
        assert all(len(r) == 3 for r in rtf.to_rows())


# ---------------------------------------------------------------------------
# exact curve algebra: merged products, endpoint suprema, shape condition


def _terms_at(curve, u):
    u_lo = 0
    for u_hi, terms in curve.segments:
        if u_lo < u <= u_hi:
            return terms
        u_lo = u_hi


def _expanded_product(curves, u):
    """p_1(u) ... p_n(u) from the 2^n-term expansion of
    prod_i sum_j a_ij u^(-g_ij), one term per choice of j's."""
    terms = [(F(1), 0)]
    for c in curves:
        seg = _terms_at(c, u)
        if not seg:
            return INF
        terms = [(a1 * a2, g1 + g2) for a1, g1 in terms for a2, g2 in seg]
    return 1 / sum(a * F(u) ** -g for a, g in terms)


@st.composite
def exact_curves(draw):
    """Nondecreasing multi-term curves with integer powers (exact values
    at rational u), up to 3 pieces, sometimes ending in p = inf pieces."""
    k = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.integers(1, 15), min_size=k - 1,
                                max_size=k - 1, unique=True))) + [16]
    cuts = [F(c, 16) for c in cuts]
    n_dead = draw(st.integers(0, k - 1)) if draw(st.booleans()) else 0
    segs, u_lo, prev_end = [], 0, None
    for i, u_hi in enumerate(cuts):
        if i >= k - n_dead:
            segs.append((u_hi, ()))
            continue
        terms = draw(st.lists(st.tuples(st.fractions(F(1, 8), 8),
                                        st.integers(0, 3)),
                              min_size=1, max_size=3))
        if prev_end is not None:
            # scale so the piece starts at or above the previous end
            start = 1 / sum(a * u_lo ** -g for a, g in terms)
            scale = min(1, start / prev_end) * draw(st.fractions(F(1, 2), 1))
            terms = [(a * scale, g) for a, g in terms]
        segs.append((u_hi, tuple(terms)))
        prev_end = 1 / sum(a * u_hi ** -g for a, g in terms)
        u_lo = u_hi
    return PCurve(segs)


class TestProductCombine:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(exact_curves(), min_size=1, max_size=4),
           st.lists(st.fractions(F(1, 1000), 1), min_size=1, max_size=8))
    def test_matches_the_expansion_exactly(self, curves, us):
        prod = product_combine(curves)
        for u in us + [u for c in curves for u in c.breakpoints()]:
            assert prod.value(u) == _expanded_product(curves, u)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(exact_curves(), min_size=1, max_size=4))
    def test_one_term_per_power_sum(self, curves):
        prod = product_combine(curves)
        u_lo = 0
        for u_hi, terms in prod.segments:
            segs = [_terms_at(c, u_hi) for c in curves]
            if not all(segs):
                assert terms == ()
            else:
                sums = {sum(choice) for choice in
                        itertools.product(*[[g for _, g in s] for s in segs])}
                powers = [g for _, g in terms]
                assert powers == sorted(sums)
            u_lo = u_hi

    def test_n_two_term_curves_keep_n_plus_one_terms(self):
        curve = PCurve([(1, ((F(3, 4), 0), (F(5, 4), F(1, 16))))])
        prod = product_combine([curve] * 11)
        (_, terms), = prod.segments
        assert [g for _, g in terms] == [F(k, 16) for k in range(12)]
        assert [a for a, _ in terms] == [
            math.comb(11, k) * F(3, 4) ** (11 - k) * F(5, 4) ** k
            for k in range(12)]


class TestExactSupremum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.01, 10), st.floats(0, 3)),
                    min_size=2, max_size=4),
           st.one_of(st.just(0.0), st.floats(1e-3, 0.9)), st.floats(0.05, 1))
    def test_endpoints_beat_a_dense_grid(self, terms, u_lo, width):
        u_hi = u_lo + width * (1 - u_lo)
        sup = _sup_ratio(terms, u_lo, u_hi)
        # 4000 equal steps from u_lo, which the open piece leaves out, to u_hi
        step = (u_hi - u_lo) / 4000
        grid = max(sum(a * u ** (1 - g) for a, g in terms)
                   for u in [u_lo + i * step for i in range(1, 4000)] + [u_hi])
        assert sup >= grid * (1 - 1e-12)

    def test_statistic_with_an_interior_minimum(self):
        # u/p(u) = u^-1/2 / 4 + u on (0, 1]: diverges toward 0
        assert PCurve([(1, ((F(1, 4), F(3, 2)), (1, 0)))]).statistic() == INF
        # on (1/16, 1], u/p(u) = 3/1024 u^-1/2 + u/16 falls to a minimum
        # at u = (3/128)^(2/3) ~ 0.082, then rises: f(1/16) = 1/64 and
        # f(1) = 67/1024; the first piece, u/4, peaks at 1/64
        curve = PCurve([(F(1, 16), ((F(1, 4), 0),)),
                        (1, ((F(3, 1024), F(3, 2)), (F(1, 16), 0)))])
        assert curve.statistic() == F(67, 1024)


class TestShapeCondition:
    # p(u) = 1 / (1 + 1e-6 u^-1.01): F(u) = u p(1) / p(u) diverges only
    # below u = 1e-600, far under any float grid
    SLOW = PCurve([(1, ((1, 0), (F(1, 10**6), F(101, 100))))])

    def test_slowly_diverging_curve_fails(self):
        assert self.SLOW.statistic() == INF
        ok, witness, worst = product_shape_condition([self.SLOW])
        assert not ok and worst == INF
        assert 0 < witness <= 1
        with localcontext() as ctx:
            ctx.prec = 50
            u = Decimal(witness.numerator) / Decimal(witness.denominator)
            f = (u + Decimal(10) ** -6 * u ** Decimal("-0.01")) * Decimal(
                self.SLOW.head())
        assert f > 1 + Decimal(1e-12)
        # p(witness) is about 10^-600, below the float range
        assert self.SLOW.value(witness) == 0

    def test_slowly_diverging_merge_is_rejected(self):
        pfs = [PFunction({0: self.SLOW}), PFunction({0: PCurve.constant(1)})]
        with pytest.raises(ShapeConditionError) as exc:
            merge_pfunctions_product(pfs)
        assert exc.value.worst == INF
        assert "2^-" in str(exc.value)

    def test_witness_is_an_exact_breakpoint(self):
        # p(u) = u on (0, 1/2], then 1: F = 1 on the first piece, u after
        curve = PCurve([(F(1, 2), ((1, 1),)), (1, ((1, 0),))])
        assert product_shape_condition([curve]) == (True, F(1, 2), 1)
        # two copies: F = 1/u diverges, yet F(1/2) = 2 already fails
        assert product_shape_condition([curve, curve]) == (False, F(1, 2), INF)
        # p(u) = u/2 on (0, 1/2]: F = 2 there, with no divergence
        halved = PCurve([(F(1, 2), ((2, 1),)), (1, ((1, 0),))])
        assert product_shape_condition([halved]) == (False, F(1, 2), 2)

    def test_infinite_values(self):
        dead = PCurve([(1, ())])
        tail = PCurve([(F(1, 4), ((4, 0),)), (1, ())])
        assert product_shape_condition([dead, PCurve.constant(F(1, 2))]) == (
            True, 1, 1)
        assert product_shape_condition([dead]) == (True, 1, 1)
        assert product_shape_condition([PCurve.constant(1), tail]) == (
            False, F(1, 4), INF)
