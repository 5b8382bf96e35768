import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from posthoc import (
    INF,
    DiscreteSpace,
    EvidenceVariable,
    Hypothesis,
    TestFunction,
    check_h_validity,
    h_mean,
    minimal_h_counterexample,
    size_difference_validity,
)


def simple(values, probs):
    sp = DiscreteSpace(tuple(range(len(values))), tuple(probs))
    ev = EvidenceVariable(dict(enumerate(values)), "e")
    return ev, Hypothesis.simple(sp)


HALF = (F(1, 2), F(1, 2))


class TestHMean:
    @pytest.mark.parametrize("value, want", [
        (F(1, 10 ** 400), math.sqrt(1.5) * 1e-200),
        (F(10 ** 400), math.sqrt(1.5) * 1e200),
        (F(10 ** 700), INF),
    ], ids=["below", "above", "past"])
    def test_geometric_mean_of_a_value_outside_the_float_range(self, value, want):
        # the log of 10^-400 or 10^400 is taken on its int pair
        for other in (F(3, 2), 1.5):
            ev, hyp = simple([value, other], HALF)
            got = h_mean(ev, 0, hyp)
            assert type(got) is float and math.isclose(got, want, rel_tol=1e-12)

    def test_constant_is_idempotent(self):
        ev, hyp = simple([F(3, 2), F(3, 2)], HALF)
        for h in (-INF, -1, 0, F(1, 2), 1, 3, INF):
            assert math.isclose(float(h_mean(ev, h, hyp)), 1.5)

    def test_zero_two_coin(self):
        ev, hyp = simple([0, 2], HALF)
        assert h_mean(ev, 1, hyp) == 1
        assert h_mean(ev, 0, hyp) == 0
        assert h_mean(ev, INF, hyp) == 2
        assert h_mean(ev, -INF, hyp) == 0
        assert h_mean(ev, -1, hyp) == 0  # 0^-1 = inf makes the mean vanish

    def test_two_point_closed_form(self):
        # e = M with probability q, else 0: rho_h = (q M^h)^(1/h) for h in (0,1)
        q, M, h = F(1, 4), 16, F(1, 2)
        ev, hyp = simple([M, 0], (q, 1 - q))
        assert float(h_mean(ev, h, hyp)) == pytest.approx(
            (float(q) * M ** float(h)) ** (1 / float(h)))

    def test_geometric_vs_arithmetic_example(self):
        ev, hyp = simple([4, F(1, 4)], HALF)
        assert check_h_validity(ev, 0, hyp)
        assert math.isclose(float(h_mean(ev, 0, hyp)), 1.0)
        assert not check_h_validity(ev, 1, hyp)
        assert h_mean(ev, 1, hyp) == F(17, 8)

    def test_harmonic_validity(self):
        ev, hyp = simple([F(1, 2), 4], HALF)  # E[1/e] = 9/8 >= 1
        assert check_h_validity(ev, -1, hyp)

    def test_composite_takes_worst_member(self):
        sp1 = DiscreteSpace((0, 1), HALF)
        sp2 = DiscreteSpace((0, 1), (0, 1))
        ev = EvidenceVariable({0: 0, 1: 3}, "e")
        assert h_mean(ev, 1, Hypothesis((sp1, sp2))) == 3

    @given(
        st.lists(st.fractions(min_value=F(1, 20), max_value=20),
                 min_size=2, max_size=5),
        st.sampled_from([-INF, -2, -1, 0, F(1, 2), 1, 2, INF]),
        st.sampled_from([-INF, -2, -1, 0, F(1, 2), 1, 2, INF]),
    )
    def test_monotone_in_h(self, values, h1, h2):
        probs = [F(1, len(values))] * len(values)
        ev, hyp = simple(values, probs)
        lo, hi = sorted([h1, h2], key=float)
        assert float(h_mean(ev, lo, hyp)) <= float(h_mean(ev, hi, hyp)) + 1e-9

    @given(st.lists(st.fractions(min_value=F(1, 20), max_value=20),
                    min_size=2, max_size=4))
    def test_internality(self, values):
        probs = [F(1, len(values))] * len(values)
        ev, hyp = simple(values, probs)
        for h in (-1, 0, F(3, 2)):
            rho = float(h_mean(ev, h, hyp))
            assert float(min(values)) - 1e-9 <= rho <= float(max(values)) + 1e-9


class TestSizeDifferenceValidity:
    def test_constant_one(self):
        sp = DiscreteSpace((0,), (1,))
        tf = TestFunction(EvidenceVariable({0: 1}, "p"))
        assert size_difference_validity(tf, Hypothesis.simple(sp))

    def test_boundary(self):
        sp = DiscreteSpace((0, 1), HALF)
        tf = TestFunction(EvidenceVariable({0: F(1, 2), 1: F(3, 2)}, "p"))
        assert size_difference_validity(tf, Hypothesis.simple(sp))

    def test_small_mean_fails(self):
        sp = DiscreteSpace((0, 1), HALF)
        tf = TestFunction(EvidenceVariable({0: F(1, 4), 1: F(3, 4)}, "p"))
        assert not size_difference_validity(tf, Hypothesis.simple(sp))


class TestMinimalHCounterexample:
    def test_reference_values(self):
        cx = minimal_h_counterexample(F(1, 2), F(1, 4))
        assert cx.magnitude == 16
        assert cx.rho_h == 1
        assert cx.classical_sup == 4

    def test_violation_factor_near_one(self):
        cx = minimal_h_counterexample(0.9, 0.5)
        assert float(cx.classical_sup) == pytest.approx(0.5 ** (1 - 1 / 0.9))
        assert float(cx.classical_sup) == pytest.approx(1.080, abs=5e-3)

    def test_h_valid_but_classically_invalid_on_range(self):
        for h, q in ((F(1, 2), F(1, 4)), (F(3, 4), F(1, 3)), (0.9, 0.5)):
            cx = minimal_h_counterexample(h, q)
            assert float(cx.rho_h) <= 1 + 1e-12
            assert float(cx.classical_sup) > 1

    def test_nonpositive_h_reuses_the_half_witness(self):
        # the two-point construction degenerates for h <= 0; the shipped
        # witness is still h-valid (mean monotonicity) and still invalid
        for h in (0, -1):
            cx = minimal_h_counterexample(h, F(1, 4))
            assert float(cx.rho_h) <= 1 + 1e-12
            assert float(cx.classical_sup) > 1

    def test_rejects_h_at_least_one(self):
        with pytest.raises(ValueError):
            minimal_h_counterexample(1, F(1, 2))
        with pytest.raises(ValueError):
            minimal_h_counterexample(2, F(1, 2))

    def test_rejects_nan_h(self):
        with pytest.raises(ValueError, match="nan"):
            minimal_h_counterexample(math.nan, F(1, 4))

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            minimal_h_counterexample(F(1, 2), 0)
        with pytest.raises(ValueError):
            minimal_h_counterexample(F(1, 2), 1)
