import itertools
import random
from fractions import Fraction as F

import pytest

from posthoc import (
    DiscreteSpace,
    EvidenceVariable,
    Hypothesis,
    PCurve,
    PFunction,
    ShapeConditionError,
    TestFamilyCollection,
    TestFunction,
    check_h_validity,
    check_pfunction_posthoc,
    check_posthoc_validity,
    dual,
    fdr_average,
    h_mean,
    merge_geometric,
    merge_h_mean,
    merge_harmonic,
    merge_pfunctions_harmonic,
    merge_pfunctions_product,
    merge_product_independent,
    product_merge_failure_witness,
)
from posthoc import merging, pfunctions
from posthoc._numbers import INF, mul0, recip
from posthoc.design import bernoulli_pair, log_optimal
from posthoc.pfunctions import product_combine


def coin(values, probs=None):
    n = len(values)
    probs = probs or [F(1, n)] * n
    sp = DiscreteSpace(tuple(range(n)), tuple(probs))
    ev = EvidenceVariable(dict(enumerate(values)), "p")
    return ev, sp


class TestProductIndependent:
    def test_trivial_ones(self):
        ev, sp = coin([1, 1])
        merged, prod_sp = merge_product_independent([(ev, sp), (ev, sp)])
        assert all(merged[x] == 1 for x in merged.outcomes)
        assert len(prod_sp.outcomes) == 4

    def test_boundary_factorizes(self):
        # p in {1/2, 2} with masses {1/3, 2/3}: E[1/p] = 1 exactly
        ev, sp = coin([F(1, 2), 2], [F(1, 3), F(2, 3)])
        merged, prod_sp = merge_product_independent([(ev, sp), (ev, sp)])
        rep = check_posthoc_validity(merged, Hypothesis.simple(prod_sp))
        assert rep.statistic == 1 and rep.valid

    def test_bernoulli_lr_product(self):
        pair = bernoulli_pair()
        e = dual(log_optimal(pair))
        merged, prod_sp = merge_product_independent([(e, pair.P), (e, pair.P)])
        assert prod_sp.expectation(lambda x: merged[x]) == 1

    def test_associative_up_to_relabeling(self):
        ev, sp = coin([F(1, 2), 2], [F(1, 3), F(2, 3)])
        left, _ = merge_product_independent(
            [(merge_product_independent([(ev, sp), (ev, sp)])[0],
              merge_product_independent([(ev, sp), (ev, sp)])[1]),
             (ev, sp)])
        flat, _ = merge_product_independent([(ev, sp)] * 3)
        assert sorted(map(float, left.values.values())) == \
            sorted(map(float, flat.values.values()))

    def test_mismatched_space_rejected(self):
        ev, sp = coin([1, 1])
        bad = DiscreteSpace(("x", "y"), (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            merge_product_independent([(ev, bad)])


class TestHarmonic:
    def test_single_input_identity(self):
        ev, _ = coin([F(1, 2), 3])
        merged = merge_harmonic([ev], [1])
        assert all(merged[x] == ev[x] for x in ev.outcomes)

    def test_idempotent(self):
        ev, _ = coin([F(1, 2), 3])
        merged = merge_harmonic([ev, ev], [F(1, 2), F(1, 2)])
        assert all(merged[x] == ev[x] for x in ev.outcomes)

    def test_linearity_of_reciprocal(self):
        p1, sp = coin([F(1, 2), 2, 3])
        p2 = EvidenceVariable({0: 3, 1: F(2, 3), 2: 1}, "p")
        w = [F(1, 4), F(3, 4)]
        merged = merge_harmonic([p1, p2], w)
        recip_mean = lambda ev: sp.expectation(
            lambda x: F(1) / ev.as_scale("p")[x])
        assert recip_mean(merged) == w[0] * recip_mean(p1) + w[1] * recip_mean(p2)

    def test_order_invariant(self):
        p1, _ = coin([F(1, 2), 2])
        p2, _ = coin([4, F(1, 4)])
        a = merge_harmonic([p1, p2], [F(1, 3), F(2, 3)])
        b = merge_harmonic([p2, p1], [F(2, 3), F(1, 3)])
        assert all(a[x] == b[x] for x in a.outcomes)

    def test_weight_validation(self):
        ev, _ = coin([1, 1])
        with pytest.raises(ValueError):
            merge_harmonic([ev, ev], [F(1, 2), F(1, 4)])
        with pytest.raises(ValueError):
            merge_harmonic([ev, ev], [F(3, 2), F(-1, 2)])

    @pytest.mark.parametrize("merge", [
        lambda evs, w: merge_harmonic(evs, w),
        lambda evs, w: merge_h_mean(evs, w, 2),
        lambda evs, w: fdr_average(TestFamilyCollection(
            [TestFunction(ev) for ev in evs]), w),
    ], ids=["harmonic", "h_mean", "fdr_average"])
    def test_exact_weights_sum_exactly(self, merge):
        # the sum 1 + 10^-13 used to pass as a float within the tolerance
        ev, _ = coin([F(1, 2), 3])
        with pytest.raises(ValueError, match="weights must sum to 1"):
            merge([ev, ev], [F(1, 2), F(1, 2) + F(1, 10 ** 13)])

    def test_is_the_reciprocal_weighted_mean(self):
        # the definition p = 1 / sum_i w_i / p_i, with 1/0 = inf and 1/inf = 0,
        # in value and type on exact p-values, 0 and inf among them
        rng = random.Random(5)
        values = [F(1, 3), F(5, 2), 1, 2, 0, INF]
        for _ in range(300):
            k = rng.randint(1, 3)
            raw = [rng.randint(0, 3) for _ in range(k)]
            if not any(raw):
                raw[0] = 1
            weights = [F(r, sum(raw)) for r in raw]
            evs = [EvidenceVariable({0: rng.choice(values), 1: rng.choice(values)}, "p")
                   for _ in range(k)]
            merged = merge_harmonic(evs, weights)
            for x in (0, 1):
                total = 0
                for ev, w in zip(evs, weights):
                    total += mul0(w, recip(ev[x]))
                want = recip(total)
                assert merged[x] == want and type(merged[x]) is type(want)


class TestGeometric:
    def test_ones(self):
        ev = EvidenceVariable({0: 1, 1: 1}, "e")
        merged = merge_geometric([ev, ev])
        assert all(merged[x] == 1 for x in merged.outcomes)

    def test_a_tiny_exact_value_times_inf_is_inf(self):
        # float(10^-400) * inf is nan; the product of e-values 10^-400 and inf is inf
        a = EvidenceVariable({0: F(1, 10 ** 400), 1: 2}, "e")
        b = EvidenceVariable({0: INF, 1: F(1, 2)}, "e")
        merged = merge_geometric([a, b])
        assert merged[0] == INF and merged[1] == 1

    def test_perfect_dependence_stays_geometric(self):
        sp = DiscreteSpace((0, 1), (F(1, 2), F(1, 2)))
        ev = EvidenceVariable({0: 4, 1: F(1, 4)}, "e")
        merged = merge_geometric([ev, ev])
        assert merged[0] == 16 and merged[1] == F(1, 16)
        assert abs(float(h_mean(merged, 0, Hypothesis.simple(sp))) - 1) < 1e-12

    def test_mixed_dependence_closure(self):
        sp = DiscreteSpace((0, 1, 2), (F(1, 3), F(1, 3), F(1, 3)))
        hyp = Hypothesis.simple(sp)
        rng = random.Random(7)
        for _ in range(50):
            evs = []
            for _ in range(3):
                vals = [F(rng.randrange(1, 30), rng.randrange(1, 30))
                        for _ in range(3)]
                geo = vals[0] * vals[1] * vals[2]
                vals = [v * _cube_root_inverse(geo) for v in vals]
                evs.append(EvidenceVariable(dict(enumerate(vals)), "e"))
            for ev in evs:
                assert check_h_validity(ev, 0, hyp)
            assert check_h_validity(merge_geometric(evs), 0, hyp)


def _cube_root_inverse(x: F) -> float:
    return float(x) ** (-1.0 / 3.0)


class TestHMeanMerge:
    def test_preserves_h_validity(self):
        sp = DiscreteSpace((0, 1), (F(1, 2), F(1, 2)))
        hyp = Hypothesis.simple(sp)
        e1 = EvidenceVariable({0: F(3, 2), 1: F(1, 2)}, "e")  # E = 1
        e2 = EvidenceVariable({0: F(1, 4), 1: F(7, 4)}, "e")  # E = 1
        assert check_h_validity(e1, 1, hyp) and check_h_validity(e2, 1, hyp)
        merged = merge_h_mean([e1, e2], [F(1, 2), F(1, 2)], 1)
        assert check_h_validity(merged, 1, hyp)
        assert merged[0] == F(7, 8) and merged[1] == F(9, 8)

    @pytest.mark.parametrize("merge", [
        lambda evs, w: merge_h_mean(evs, w, float("inf")),
        lambda evs, w: merge_h_mean(evs, w, 1),
        lambda evs, w: merge_harmonic([dual(ev) for ev in evs], w),
    ], ids=["h_mean-inf", "h_mean-1", "harmonic"])
    def test_rejects_a_nan_weight(self, merge):
        e1 = EvidenceVariable({0: F(3, 2), 1: F(1, 2)}, "e")
        with pytest.raises(ValueError, match="weights must be finite, got nan"):
            merge([e1, e1], [float("nan"), 1.0])

    def test_geometric_case_matches_weighted_product(self):
        e1 = EvidenceVariable({0: 4, 1: F(1, 4)}, "e")
        merged = merge_h_mean([e1, e1], [F(1, 2), F(1, 2)], 0)
        assert float(merged[0]) == pytest.approx(4.0)
        assert float(merged[1]) == pytest.approx(0.25)


class TestPFunctionMerges:
    def test_harmonic_identical_inputs(self):
        pf = PFunction({0: PCurve.power(2, 1)})
        merged = merge_pfunctions_harmonic([pf, pf], [F(1, 2), F(1, 2)])
        for u in (F(1, 4), F(1, 2), 1):
            assert merged[0].value(u) == pf[0].value(u)

    def test_harmonic_of_constants_reduces_to_scalar_merge(self):
        pf1 = PFunction({0: PCurve.constant(F(1, 2))})
        pf2 = PFunction({0: PCurve.constant(2)})
        merged = merge_pfunctions_harmonic([pf1, pf2], [F(1, 2), F(1, 2)])
        scalar = merge_harmonic(
            [EvidenceVariable({0: F(1, 2)}, "p"),
             EvidenceVariable({0: 2}, "p")],
            [F(1, 2), F(1, 2)])
        assert merged[0].value(1) == scalar[0] == F(4, 5)

    def test_harmonic_statistic_of_scaled_identity(self):
        pf = PFunction({0: PCurve.power(2, 1)})  # p(u) = 2u
        merged = merge_pfunctions_harmonic([pf, pf], [F(1, 2), F(1, 2)])
        assert merged[0].value(F(1, 2)) == 1
        assert merged[0].statistic() == F(1, 2)

    def test_product_of_non_randomized_is_allowed(self):
        pf1 = PFunction({0: PCurve.constant(F(1, 2))})
        pf2 = PFunction({0: PCurve.constant(F(2, 3))})
        merged = merge_pfunctions_product([pf1, pf2])
        assert merged[0].value(1) == F(1, 3)

    def test_nth_root_shapes_hit_the_boundary(self):
        # p_i(u) = u^(1/n) p_i(1): the shape condition holds with equality
        n = 3
        pfs = [PFunction({0: PCurve.power(F(1, 2), F(1, n))})
               for _ in range(n)]
        merged = merge_pfunctions_product(pfs)
        assert merged[0].value(1) == F(1, 8)
        assert merged[0].value(F(1, 8)) == F(1, 8) * F(1, 8)

    @pytest.mark.parametrize("dead", [False, True], ids=["live", "inf-curve"])
    def test_product_is_built_once_per_outcome(self, monkeypatch, dead):
        # the shape check's product is the merge's: 3 product_combine calls
        # for 3 outcomes, one more where a curve inf at 1 dropped out of it
        pfs = [PFunction({x: PCurve.power(c, g) for x, c in enumerate(cs)})
               for cs, g in (([F(1, 2), F(3, 4), 1], F(1, 4)),
                             ([F(1, 4), F(1, 2), F(2, 3)], F(1, 2)))]
        if dead:
            pfs.append(PFunction({0: PCurve.constant(INF),
                                  1: PCurve.constant(1), 2: PCurve.constant(1)}))
        want = PFunction({x: pfunctions.product_combine([pf[x] for pf in pfs])
                          for x in range(3)})
        calls = []

        def counted(curves):
            calls.append(len(curves))
            return product_combine(curves)

        monkeypatch.setattr(pfunctions, "product_combine", counted)
        monkeypatch.setattr(merging, "product_combine", counted)
        assert merge_pfunctions_product(pfs) == want
        assert len(calls) == (4 if dead else 3)

    def test_uniform_pair_rejected_with_witness(self):
        pf = PFunction({0: PCurve.power(1, 1)})  # p(u) = u
        with pytest.raises(ShapeConditionError) as exc:
            merge_pfunctions_product([pf, pf])
        assert exc.value.worst > 1
        assert 0 < exc.value.witness_u <= 1


class TestFailureWitness:
    def test_uniform_randomization_fails_at_two(self):
        pf = PFunction({0: PCurve.power(1, 1)})
        assert product_merge_failure_witness(pf) == 2

    def test_square_root_fails_at_three(self):
        pf = PFunction({0: PCurve.power(1.0, 0.5)})
        assert product_merge_failure_witness(pf) == 3

    def test_non_randomized_has_no_witness(self):
        pf = PFunction({0: PCurve.constant(F(1, 2))})
        with pytest.raises(ValueError):
            product_merge_failure_witness(pf)


class TestOutcomeSetCheck:
    """Every merge checks its inputs' outcomes through one function, with
    the same messages for evidence variables and p-functions."""

    EV_A = EvidenceVariable({0: F(1, 2), 1: 2}, "p")
    EV_B = EvidenceVariable({0: F(1, 2), 2: 2}, "p")
    PF_A = PFunction({0: PCurve.constant(1), 1: PCurve.constant(2)})
    PF_B = PFunction({0: PCurve.constant(1), 2: PCurve.constant(2)})
    HALF = [F(1, 2), F(1, 2)]

    @pytest.mark.parametrize("merge", [
        lambda xs: merge_harmonic(xs, TestOutcomeSetCheck.HALF[:len(xs)]),
        lambda xs: merge_geometric(xs),
        lambda xs: merge_h_mean(xs, TestOutcomeSetCheck.HALF[:len(xs)], 2),
    ], ids=["harmonic", "geometric", "h_mean"])
    def test_evidence_merges(self, merge):
        with pytest.raises(ValueError, match="at least one input required"):
            merge([])
        with pytest.raises(ValueError, match="inputs must share a common outcome set"):
            merge([self.EV_A, self.EV_B])

    def test_pfunction_merges(self):
        with pytest.raises(ValueError, match="at least one input required"):
            merge_pfunctions_product([])
        with pytest.raises(ValueError, match="inputs must share a common outcome set"):
            merge_pfunctions_product([self.PF_A, self.PF_B])
        with pytest.raises(ValueError, match="inputs must share a common outcome set"):
            merge_pfunctions_harmonic([self.PF_A, self.PF_B], self.HALF)
        # the weights are checked first, as before
        with pytest.raises(ValueError, match="weights must sum to 1"):
            merge_pfunctions_harmonic([], [])
