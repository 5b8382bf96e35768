import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from posthoc import (
    EPROCESS,
    INF,
    MARTINGALE,
    SUPERMARTINGALE,
    DiscreteSpace,
    EvidenceVariable,
    Hypothesis,
    ProcessModel,
    StoppingRule,
    TestFamilyCollection,
    TestFunction,
    anytime_validity_check,
    check_posthoc_validity,
    fdr_average,
    fwer_merge,
    invalid_eprocess_fixture,
    markov_equality_check,
    martingale_fixture,
    mrmw_sandwich,
    simulate_paths,
    supermartingale_fixture,
    ville_equality_check,
)
from posthoc.sequential import _BLOCK_ROWS, _posthoc_sup, _stopped_values


def ev_on(values, probs=None):
    n = len(values)
    probs = probs or [F(1, n)] * n
    sp = DiscreteSpace(tuple(range(n)), tuple(probs))
    return (EvidenceVariable(dict(enumerate(values)), "e"),
            Hypothesis.simple(sp))


def reference_paths(model, n, seed):
    """The one-shot ``rng.choice`` draw of all (n, T+1) paths: reference
    for the block-streamed path layer."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    vals = np.array([float(v) for v in model.multiplier.outcomes])
    probs = np.array([float(p) for p in model.multiplier.probs])
    probs = probs / probs.sum()
    factors = rng.choice(vals, size=(n, model.horizon), p=probs)
    paths = np.empty((n, model.horizon + 1))
    paths[:, 0] = float(model.initial)
    np.cumprod(factors, axis=1, out=factors)
    paths[:, 1:] = float(model.initial) * factors
    return paths


# 1, 2 and 4 outcomes; the last has a zero-mass factor and masses of 1/3,
# which are not float-normalized
MULTIPLIERS = {
    "one": DiscreteSpace((F(5, 4),), (1,)),
    "two": martingale_fixture().multiplier,
    "four": DiscreteSpace((0, F(1, 2), F(3, 2), F(5, 2)),
                          (F(1, 3), 0, F(1, 3), F(1, 3))),
}
STREAM_SIZES = (1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 3)


def streamed_model(name, horizon=6):
    return ProcessModel(F(3, 2), MULTIPLIERS[name], EPROCESS, horizon)


class TestProcessModel:
    def test_martingale_moment_checked(self):
        z = DiscreteSpace((F(1, 2), F(3, 2)), (F(1, 2), F(1, 2)))
        ProcessModel(1, z, MARTINGALE, 10)
        bad = DiscreteSpace((F(1, 2), 2), (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            ProcessModel(1, bad, MARTINGALE, 10)

    def test_supermartingale_moment_checked(self):
        z = DiscreteSpace((F(1, 2), F(7, 5)), (F(1, 2), F(1, 2)))
        ProcessModel(1, z, SUPERMARTINGALE, 10)
        bad = DiscreteSpace((1, F(3, 2)), (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            ProcessModel(1, bad, SUPERMARTINGALE, 10)

    def test_eprocess_moments_deliberately_unchecked(self):
        model = invalid_eprocess_fixture()
        assert model.step_mean() == F(11, 10)

    def test_rejects_negative_factor(self):
        z = DiscreteSpace((-1, 3), (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            ProcessModel(1, z, EPROCESS, 10)


class TestSimulatePaths:
    def test_unit_factor_gives_constant_paths(self):
        z = DiscreteSpace((1,), (1,))
        model = ProcessModel(F(3, 2), z, MARTINGALE, 7)
        paths = simulate_paths(model, 20, seed=1)
        assert paths.shape == (20, 8)
        assert np.all(paths == 1.5)

    def test_deterministic_by_seed(self):
        model = martingale_fixture(horizon=10)
        a = simulate_paths(model, 100, seed=42)
        b = simulate_paths(model, 100, seed=42)
        c = simulate_paths(model, 100, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_martingale_mean_near_initial(self):
        # short horizon keeps the tail of M_T light enough for a 3 SE check
        model = martingale_fixture(horizon=10)
        paths = simulate_paths(model, 20_000, seed=9)
        final = paths[:, -1]
        se = final.std(ddof=1) / math.sqrt(len(final))
        assert abs(final.mean() - 1.0) <= 3 * se


class TestStreamedPaths:
    @pytest.mark.parametrize("name", sorted(MULTIPLIERS))
    @pytest.mark.parametrize("n", STREAM_SIZES)
    def test_simulate_paths_matches_one_shot_draw(self, name, n):
        model = streamed_model(name)
        assert np.array_equal(simulate_paths(model, n, seed=4),
                              reference_paths(model, n, seed=4))

    @pytest.mark.parametrize("rule", [
        StoppingRule.fixed_time(0), StoppingRule.fixed_time(6),
        StoppingRule.hitting_time(2.0),
        StoppingRule("generic", lambda prefix: prefix[-1] >= 2.0),
    ], ids=lambda rule: rule.name)
    @pytest.mark.parametrize("name", ["two", "four"])
    def test_stopped_values_match_stopping_the_full_array(self, rule, name):
        model = streamed_model(name)
        n = STREAM_SIZES[-1]
        paths = reference_paths(model, n, seed=8)
        want = paths[np.arange(n), rule.stop_indices(paths)]
        assert np.array_equal(_stopped_values(model, rule, n, seed=8), want)

    def test_rejects_empty_sample(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                simulate_paths(martingale_fixture(), n, seed=1)
            with pytest.raises(ValueError, match="at least 1"):
                ville_equality_check(martingale_fixture(),
                                     StoppingRule.fixed_time(0), n, seed=1)

    def test_stopped_values_memory_is_bounded(self):
        # one (n, T+1) path array alone takes 40.8 MB at this size; the
        # streamed checks keep n stopped values and one block (about 12 MB)
        tracemalloc.start()
        try:
            ville_equality_check(martingale_fixture(),
                                 StoppingRule.hitting_time(2.0), 100_000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 10 ** 6


class TestMarkovEquality:
    def test_constant(self):
        ev, hyp = ev_on([F(3, 2), F(3, 2)])
        assert markov_equality_check(ev, hyp) == (F(3, 2), F(3, 2))

    def test_zero_two(self):
        ev, hyp = ev_on([0, 2])
        assert markov_equality_check(ev, hyp) == (1, 1)

    def test_half_three_halves(self):
        ev, hyp = ev_on([F(1, 2), F(3, 2)])
        assert markov_equality_check(ev, hyp) == (1, 1)

    @given(st.lists(st.fractions(min_value=0, max_value=20,
                                 max_denominator=12), min_size=1, max_size=8),
           st.fractions(min_value=0, max_value=25, max_denominator=12))
    def test_posthoc_sup_is_the_grid_floor(self, grid, x):
        # the deterministic Markov identity: sup_c 1{x >= 1/c}/c = x on the
        # grid, and the largest grid value <= x off it
        for v in grid:
            assert _posthoc_sup(v, grid) == v
        if x not in grid:
            assert _posthoc_sup(x, grid) == max(
                (v for v in grid if v <= x), default=0)


class TestMrmwSandwich:
    def test_reference_point(self):
        ev, hyp = ev_on([F(1, 2), F(3, 2)])
        assert mrmw_sandwich(ev, 1, hyp) == (F(1, 2), F(3, 4), 1)

    def test_degenerate(self):
        ev, hyp = ev_on([1, 1])
        assert mrmw_sandwich(ev, 1, hyp) == (1, 1, 1)

    def test_sparse_atom(self):
        ev, hyp = ev_on([10, 0], [F(1, 20), F(19, 20)])
        assert mrmw_sandwich(ev, F(1, 10), hyp) == (F(1, 20), F(1, 20), F(1, 20))

    def test_rejects_nonpositive_c(self):
        ev, hyp = ev_on([1, 1])
        with pytest.raises(ValueError):
            mrmw_sandwich(ev, 0, hyp)


class TestStoppingRules:
    def test_fixed_time(self):
        paths = np.arange(12.0).reshape(3, 4)
        assert list(StoppingRule.fixed_time(2).stop_indices(paths)) == [2, 2, 2]

    def test_hitting_time_vectorized_matches_generic(self):
        model = martingale_fixture(horizon=20)
        paths = simulate_paths(model, 200, seed=5)
        rule = StoppingRule.hitting_time(2.0)
        generic = StoppingRule("generic", rule.decide)
        assert np.array_equal(rule.stop_indices(paths),
                              generic.stop_indices(paths))


class TestVille:
    def test_immediate_stop_is_exact(self):
        model = martingale_fixture()
        rep = ville_equality_check(model, StoppingRule.fixed_time(0),
                                   n=500, seed=2)
        assert rep.mean == 1.0 and rep.se == 0.0 and rep.valid

    def test_martingale_hitting_rule(self):
        rep = ville_equality_check(martingale_fixture(),
                                   StoppingRule.hitting_time(2.0),
                                   n=20_000, seed=12)
        assert rep.valid
        assert abs(rep.mean - 1.0) <= 3 * rep.se

    def test_supermartingale_bounded(self):
        rep = ville_equality_check(supermartingale_fixture(),
                                   StoppingRule.hitting_time(2.0),
                                   n=20_000, seed=12)
        assert rep.valid
        assert rep.mean <= 1.0 + 3 * rep.se


class TestAnytimeValidity:
    def test_martingale_battery_passes(self):
        rules = [StoppingRule.fixed_time(0), StoppingRule.fixed_time(50),
                 StoppingRule.hitting_time(2.0)]
        out = anytime_validity_check(martingale_fixture(), rules,
                                     n=20_000, seed=3)
        assert out["valid"]

    def test_inflated_process_is_flagged(self):
        rules = [StoppingRule.fixed_time(5), StoppingRule.hitting_time(2.0)]
        out = anytime_validity_check(invalid_eprocess_fixture(), rules,
                                     n=5_000, seed=3)
        assert not out["valid"]
        assert out["sup_mean"] > 1.5  # E[M_5] = 1.1^5, stopped mean near 1.8

    def test_requires_rules(self):
        with pytest.raises(ValueError):
            anytime_validity_check(martingale_fixture(), [], n=10, seed=0)


class TestMultipleTesting:
    def test_fwer_single_member_identity(self):
        tf = TestFunction(EvidenceVariable({0: F(1, 2)}, "p"))
        merged = fwer_merge(TestFamilyCollection([tf]))
        assert merged.p[0] == F(1, 2)

    def test_fwer_is_pointwise_min(self):
        tf1 = TestFunction(EvidenceVariable({0: F(1, 2), 1: 3}, "p"))
        tf2 = TestFunction(EvidenceVariable({0: 2, 1: F(1, 4)}, "p"))
        merged = fwer_merge(TestFamilyCollection([tf1, tf2]))
        assert merged.p[0] == F(1, 2) and merged.p[1] == F(1, 4)

    def test_fwer_commutes_with_e_scale_max(self):
        tf1 = TestFunction(EvidenceVariable({0: F(1, 2), 1: 3}, "p"))
        tf2 = TestFunction(EvidenceVariable({0: 2, 1: F(1, 4)}, "p"))
        merged = fwer_merge(TestFamilyCollection([tf1, tf2]))
        for x in (0, 1):
            assert merged.p.as_scale("e")[x] == max(
                tf1.p.as_scale("e")[x], tf2.p.as_scale("e")[x])

    def test_fwer_failure_for_independent_binary_evidence(self):
        # two independent e-values in {0, 2}: E[max] = 3/2 > 1
        outcomes = [(a, b) for a in (0, 2) for b in (0, 2)]
        sp = DiscreteSpace(tuple(outcomes), (F(1, 4),) * 4)
        tf1 = TestFunction(EvidenceVariable(
            {x: (INF if x[0] == 0 else F(1, 2)) for x in outcomes}, "p"))
        tf2 = TestFunction(EvidenceVariable(
            {x: (INF if x[1] == 0 else F(1, 2)) for x in outcomes}, "p"))
        merged = fwer_merge(TestFamilyCollection([tf1, tf2]))
        rep = check_posthoc_validity(merged.p, Hypothesis.simple(sp))
        assert not rep.valid and rep.statistic == F(3, 2)

    def test_fwer_scaled_family_is_certified(self):
        # e_i in {0, 4/3}: E[max e] = (3/4)(4/3) = 1 exactly
        outcomes = [(a, b) for a in (0, 1) for b in (0, 1)]
        sp = DiscreteSpace(tuple(outcomes), (F(1, 4),) * 4)
        tf1 = TestFunction(EvidenceVariable(
            {x: (INF if x[0] == 0 else F(3, 4)) for x in outcomes}, "p"))
        tf2 = TestFunction(EvidenceVariable(
            {x: (INF if x[1] == 0 else F(3, 4)) for x in outcomes}, "p"))
        merged = fwer_merge(TestFamilyCollection([tf1, tf2]))
        rep = check_posthoc_validity(merged.p, Hypothesis.simple(sp))
        assert rep.valid and rep.statistic == 1

    def test_fdr_identical_members_reduce(self):
        tf = TestFunction(EvidenceVariable({0: F(1, 2)}, "p"))
        rtf = fdr_average(TestFamilyCollection([tf, tf]))
        assert rtf[0].value(F(1, 4)) == 0
        assert rtf[0].value(F(1, 2)) == 1

    def test_fdr_disjoint_rejections_average(self):
        tf1 = TestFunction(EvidenceVariable({0: F(1, 20), 1: INF}, "p"))
        tf2 = TestFunction(EvidenceVariable({0: INF, 1: F(1, 20)}, "p"))
        rtf = fdr_average(TestFamilyCollection([tf1, tf2]))
        for x in (0, 1):
            assert rtf[x].value(F(1, 20)) == F(1, 2)

    def test_fdr_is_monotone_and_bounded(self):
        tf1 = TestFunction(EvidenceVariable({0: F(1, 10)}, "p"))
        tf2 = TestFunction(EvidenceVariable({0: F(1, 2)}, "p"))
        tf3 = TestFunction(EvidenceVariable({0: F(3, 4)}, "p"))
        rtf = fdr_average(TestFamilyCollection([tf1, tf2, tf3]))
        grid = [F(1, 20), F(1, 10), F(1, 4), F(1, 2), F(3, 4), 1, 2]
        vals = [rtf[0].value(a) for a in grid]
        assert all(0 <= v <= 1 for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert rtf[0].value(1) == 1

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            TestFamilyCollection([])
