import math
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from posthoc import (
    INF,
    DiscreteSpace,
    EvidenceVariable,
    SimplePair,
    UtilitySpec,
    bernoulli_pair,
    best_region_exhaustive,
    brute_force_optimal,
    double_posthoc_check,
    dual,
    expected_utility,
    gaussian_log_optimal_report,
    gaussian_shift_pair,
    log_optimal,
    np_optimal,
    np_rejection_region,
    utility_optimal,
)
from posthoc._numbers import exp_ext, log_ext, mul0, recip, within


def pair_of(p_probs, q_probs):
    n = len(p_probs)
    return SimplePair(
        P=DiscreteSpace(tuple(range(n)), tuple(p_probs)),
        Q=DiscreteSpace(tuple(range(n)), tuple(q_probs)),
    )


def np_optimal_quadratic(pair, alpha_star):
    """Direct O(n^2) statement of the three-branch rule: every candidate
    level rescans every outcome.  Reference for :func:`np_optimal`."""
    ratios = {x: pair.density_ratio(x) for x in pair.P.outcomes}
    levels = sorted(set(ratios.values()), key=float)

    def mass_below(c):
        return sum(fp for x, fp in zip(pair.P.outcomes, pair.P.probs)
                   if float(ratios[x]) < float(c))

    c = levels[0]
    for v in levels:
        if mass_below(v) <= alpha_star:
            c = v
    below = mass_below(c)
    at = sum(fp for x, fp in zip(pair.P.outcomes, pair.P.probs)
             if ratios[x] == c)
    if below == alpha_star or at == 0:
        k = INF
    else:
        k = mul0(alpha_star, at) / (alpha_star - below)
    values = {}
    for x in pair.P.outcomes:
        r = ratios[x]
        if float(r) < float(c):
            values[x] = alpha_star
        elif r == c:
            values[x] = k
        else:
            values[x] = INF
    return values, c


def typed(values):
    return {x: (type(v), v) for x, v in values.items()}


def normalized(weights):
    return [F(w, sum(weights)) for w in weights]


# small weight alphabets give tied ratios and zero-mass outcomes
weight_lists = st.lists(st.integers(min_value=0, max_value=4),
                        min_size=1, max_size=7).filter(any)
levels_in_unit = st.fractions(min_value=F(1, 100), max_value=F(99, 100))


class TestUtilitySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            UtilitySpec.power(1)
        with pytest.raises(ValueError):
            UtilitySpec.power(0)
        with pytest.raises(ValueError):
            UtilitySpec.neyman_pearson(0)
        with pytest.raises(ValueError):
            UtilitySpec("LOG", 3)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_power_rejects_non_finite_gamma(self, gamma):
        # nan passed every comparison and inf gave e* = 1 everywhere
        with pytest.raises(ValueError, match="POWER needs gamma > 0"):
            UtilitySpec.power(gamma)

    @pytest.mark.parametrize("gamma", [10**400, F(10**401, 7), F(1, 10**400),
                                       1 + F(1, 10**20)])
    def test_power_rejects_gamma_whose_float_is_out_of_range(self, gamma):
        # each passes the exact comparisons, but float(gamma) is inf, 0.0
        # or 1.0, which utility_optimal and value cannot take
        with pytest.raises(ValueError, match="POWER needs gamma > 0"):
            UtilitySpec.power(gamma)

    @pytest.mark.parametrize("gamma", [10**300, F(1, 10**300), 1 + F(1, 10**15)])
    def test_power_accepts_gamma_near_the_float_edges(self, gamma):
        U = UtilitySpec.power(gamma)
        e, lam = utility_optimal(bernoulli_pair(), U)
        assert math.isfinite(U.value(2)) and lam > 0

    def test_limits(self):
        assert UtilitySpec.log().value(0) == -math.inf
        assert UtilitySpec.power(2).value(0) == -math.inf
        assert UtilitySpec.power(F(1, 2)).value(0) == -2.0
        assert UtilitySpec.neyman_pearson(F(1, 4)).value(100) == 4

    LN_BIG = 400 * math.log(10)  # ln 10^400 = 921.034...

    @pytest.mark.parametrize("U, x, want", [
        (UtilitySpec.log(), F(10**400), LN_BIG),
        (UtilitySpec.log(), F(1, 10**400), -LN_BIG),
        (UtilitySpec.power(2), F(10**400), 1.0),
        (UtilitySpec.power(2), F(1, 10**400), -math.inf),
        (UtilitySpec.power(2), 5e-324, -math.inf),
        (UtilitySpec.power(2), 1e-310, -math.inf),
        (UtilitySpec.power(F(1, 2)), F(10**400), 2 * math.exp(LN_BIG / 2)),
    ], ids=["log-big", "log-tiny", "power2-big", "power2-tiny",
            "power2-least-subnormal", "power2-subnormal", "power-half-big"])
    def test_value_outside_the_float_range(self, U, x, want):
        got = U.value(x)
        assert type(got) is float
        assert got == pytest.approx(want, rel=1e-12)

    @staticmethod
    def value_by_float(U, x):
        """UtilitySpec.value as first written: the float of x."""
        if U.kind == "LOG":
            return math.log(float(x))
        g = float(U.param)
        return (float(x) ** (1.0 - g) - 1.0) / (1.0 - g)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(min_value=sys.float_info.min, max_value=1e300),
                     st.integers(1, 10**300),
                     st.fractions(min_value=F(1, 10**300), max_value=10**300)),
           st.sampled_from([UtilitySpec.log(), UtilitySpec.power(2),
                            UtilitySpec.power(F(1, 2)), UtilitySpec.power(0.7),
                            UtilitySpec.power(3)]))
    def test_value_in_range_is_unchanged(self, x, U):
        """Bit-identical where the float of x gave a value; where its power
        overflowed, the infinity on that side."""
        try:
            want = self.value_by_float(U, x)
        except OverflowError:
            assert math.isinf(U.value(x))
        else:
            got = U.value(x)
            assert (type(got), got) == (float, want)


class TestLogOptimal:
    def test_equal_distributions(self):
        pair = pair_of([F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
        p_star = log_optimal(pair)
        assert all(p_star[x] == 1 for x in p_star.outcomes)

    def test_bernoulli(self):
        p_star = log_optimal(bernoulli_pair())
        assert p_star[1] == F(2, 3) and p_star[0] == 2
        pair = bernoulli_pair()
        assert pair.P.expectation(lambda x: F(1) / p_star[x]) == 1
        growth = expected_utility(p_star, pair.Q, UtilitySpec.log())
        # E_Q[log(1/p*)] = .75 log(3/2) + .25 log(1/2)
        assert -growth == pytest.approx(-0.130812, abs=1e-5)

    def test_null_under_both_is_immaterial(self):
        pair = pair_of([F(1, 2), F(1, 2), 0], [F(1, 4), F(3, 4), 0])
        assert log_optimal(pair)[2] == 1


class TestUtilityOptimal:
    def test_log_recovers_likelihood_ratio(self):
        pair = bernoulli_pair()
        e_star, lam = utility_optimal(pair, UtilitySpec.log())
        assert lam == 1
        assert e_star[1] == F(3, 2) and e_star[0] == F(1, 2)

    def test_power_two_closed_form(self):
        pair = bernoulli_pair()
        e_star, lam = utility_optimal(pair, UtilitySpec.power(2))
        denom = 0.5 * math.sqrt(1.5) + 0.5 * math.sqrt(0.5)
        assert float(e_star[1]) == pytest.approx(math.sqrt(1.5) / denom)
        assert float(e_star[0]) == pytest.approx(math.sqrt(0.5) / denom)
        mean = pair.P.expectation(lambda x: e_star[x])
        assert abs(float(mean) - 1) <= 1e-10

    def test_np_matches_np_optimal(self):
        pair = bernoulli_pair()
        e_star, lam = utility_optimal(pair, UtilitySpec.neyman_pearson(F(1, 2)))
        direct = np_optimal(pair, F(1, 2))
        assert all(e_star.as_scale("p")[x] == direct[x]
                   for x in direct.outcomes)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=9),
                              st.integers(min_value=1, max_value=9)),
                    min_size=2, max_size=8),
           st.sampled_from([F(1, 3), F(1, 2), 2, 3, 0.7]))
    def test_power_normalization_and_first_order_condition(self, weights,
                                                           gamma):
        pair = pair_of(normalized([w for w, _ in weights]),
                       normalized([v for _, v in weights]))
        e_star, lam = utility_optimal(pair, UtilitySpec.power(gamma))
        mean = sum(float(fp) * float(e_star[x])
                   for x, fp in zip(pair.P.outcomes, pair.P.probs))
        assert abs(mean - 1) <= 1e-9
        # U'(e) = e^-gamma proportional to f_P/f_Q: e*(f_P/f_Q)^(1/gamma) const
        tilted = [float(e_star[x]) * float(pair.density_ratio(x))
                  ** (1 / float(gamma)) for x in pair.P.outcomes]
        assert max(tilted) - min(tilted) <= 1e-9 * max(tilted)
        # E_P[(lam f_P/f_Q)^(-1/gamma)] = 1 solves to a closed form in lam
        g = float(gamma)
        closed = math.fsum(float(fp) * float(pair.density_ratio(x)) ** (-1 / g)
                           for x, fp in zip(pair.P.outcomes, pair.P.probs)) ** g
        assert lam == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("gamma", [F(1, 2), 2, F(1, 10)])
    def test_power_extreme_ratio(self, gamma):
        """r^(-1/gamma) passes the float range on this pair (r = 2e-200 at
        outcome 0); the log-domain pass still gives the closed form."""
        tiny = F(1, 10 ** 200)
        pair = pair_of([tiny, 1 - tiny], [F(1, 2), F(1, 2)])
        e_star, lam = utility_optimal(pair, UtilitySpec.power(gamma))
        with localcontext() as ctx:
            ctx.prec = 60

            def dec(q):
                return Decimal(q.numerator) / Decimal(q.denominator)

            g = dec(F(gamma))
            m = sum(dec(fp) * dec(pair.density_ratio(x)) ** (-1 / g)
                    for x, fp in zip(pair.P.outcomes, pair.P.probs))
            closed = float(m ** g)
        assert math.isfinite(lam)
        assert lam == pytest.approx(closed, rel=1e-12)
        mean = math.fsum(float(fp) * e_star[x]
                         for x, fp in zip(pair.P.outcomes, pair.P.probs))
        assert abs(mean - 1) <= 1e-9

    def test_power_p_mass_below_the_float_range(self):
        # float(f_P) would be 0.0 at outcome 0; m = 2^(-1/2) to 15 digits,
        # so e*(0) = (2 10^-400)^(-1/2) / m = 10^200
        tiny = F(1, 10 ** 400)
        pair = pair_of([tiny, 1 - tiny], [F(1, 2), F(1, 2)])
        e_star, lam = utility_optimal(pair, UtilitySpec.power(2))
        assert lam == pytest.approx(0.5, rel=1e-15)
        assert e_star[0] == pytest.approx(1e200, rel=1e-12)
        assert e_star[1] == pytest.approx(1.0, rel=1e-15)

    def test_power_mutually_singular_has_no_normalization(self):
        pair = pair_of([1, 0], [0, 1])
        with pytest.raises(RuntimeError, match="no normalization constant"):
            utility_optimal(pair, UtilitySpec.power(2))

    @pytest.mark.parametrize("gamma,bounds", [
        (2, (5.1e-3, 2.2e-3, 1.5e-3, 5.0e-4)),
        (F(1, 2), (4.6e-2, 2.6e-2, 1.9e-2, 8.7e-3)),
    ])
    def test_power_lambda_converges_on_the_gaussian_pair(self, gamma, bounds):
        """N(0,1) vs N(1,1): E_P[LR^s] = exp((s^2 - s)/2) with s = 1/gamma,
        so lambda = exp((1/gamma - 1)/2); each bound is about 1.5 times the
        relative error measured at that cell count."""
        want = math.exp((1 / float(gamma) - 1) / 2)
        errors = []
        for n_cells, bound in zip((401, 1201, 2001, 8001), bounds):
            _, lam = utility_optimal(gaussian_shift_pair(n_cells),
                                     UtilitySpec.power(gamma))
            errors.append(abs(lam / want - 1))
            assert errors[-1] <= bound, n_cells
        assert errors == sorted(errors, reverse=True)

    def test_normalization_across_utilities(self):
        pair = pair_of([F(1, 4), F(1, 4), F(1, 2)],
                       [F(1, 2), F(1, 4), F(1, 4)])
        for U in (UtilitySpec.log(), UtilitySpec.power(2),
                  UtilitySpec.power(F(1, 2))):
            e_star, _ = utility_optimal(pair, U)
            mean = pair.P.expectation(lambda x: e_star[x])
            assert abs(float(mean) - 1) <= 1e-10


class TestNpOptimal:
    def test_bernoulli_half(self):
        p_star = np_optimal(bernoulli_pair(), F(1, 2))
        assert p_star[1] == F(1, 2)
        assert p_star[0] == INF

    def test_boundary_atom_gets_finite_k(self):
        # uniform P, alpha* between cumulative masses: boundary k is finite
        pair = pair_of([F(1, 4)] * 4, [F(1, 10), F(2, 10), F(3, 10), F(4, 10)])
        alpha = F(3, 8)
        p_star = np_optimal(pair, alpha)
        k = max(v for v in p_star.values.values() if not (v == alpha) and
                not (isinstance(v, float) and math.isinf(v)))
        assert k >= alpha
        assert pair.P.expectation(lambda x: F(1) / F(k) if p_star[x] == k
                                  else (F(1) / alpha if p_star[x] == alpha else 0)) == 1

    def test_mean_reciprocal_is_one(self):
        pair = pair_of([F(1, 6), F(2, 6), F(3, 6)],
                       [F(3, 6), F(2, 6), F(1, 6)])
        for alpha in (F(1, 10), F(1, 3), F(1, 2), F(9, 10)):
            p_star = np_optimal(pair, alpha)
            mean = pair.P.expectation(
                lambda x: 0 if p_star[x] == INF else F(1) / F(p_star[x]))
            assert mean == 1

    def test_recovers_exhaustive_region(self):
        # distinct likelihood ratios with equiprobable nulls: the induced
        # level-alpha* test is the best non-randomized region
        n = 10
        q_weights = [F(i + 1, 55) for i in range(n)]
        pair = pair_of([F(1, n)] * n, q_weights)
        for alpha in (F(1, 10), F(3, 10), F(1, 2)):
            assert np_rejection_region(pair, alpha) == \
                best_region_exhaustive(pair, alpha)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            np_optimal(bernoulli_pair(), 1)

    @given(st.data(), weight_lists)
    def test_matches_quadratic_reference(self, data, p_weights):
        n, total = len(p_weights), sum(p_weights)
        q_weights = data.draw(st.lists(st.integers(min_value=0, max_value=4),
                                       min_size=n, max_size=n).filter(any))
        # levels on the P-mass lattice hit the boundary case below == alpha*
        alpha = data.draw(st.one_of(
            levels_in_unit,
            st.integers(1, total).map(lambda j: F(j, total))
            .filter(lambda a: a < 1)))
        pair = pair_of(normalized(p_weights), normalized(q_weights))
        e_star, c = utility_optimal(pair, UtilitySpec.neyman_pearson(alpha))
        p_star = dual(e_star)
        assert np_optimal(pair, alpha) == p_star
        want, want_c = np_optimal_quadratic(pair, alpha)
        assert typed(p_star.values) == typed(want)
        assert (type(c), c) == (type(want_c), want_c)

    @pytest.mark.parametrize("alpha", [F(1, 10), F(1, 3), F(1, 2),
                                       F(2, 3), F(9, 10)])
    def test_float_equal_ratios_match_reference(self, alpha):
        # ratios 1 + 6e, 1 + 3e, 1, 1 - 3e are distinct but equal as floats
        eps = F(1, 10 ** 30)
        p = [F(1, 6) + eps, F(1, 6) + eps / 2, F(1, 6),
             F(1, 6) - eps / 2, F(1, 6) - eps, F(1, 6)]
        q = [F(1, 6)] * 4 + [F(1, 12), F(1, 4)]
        pair = pair_of(p, q)
        assert len({float(pair.density_ratio(x)) for x in range(6)}) == 3
        e_star, c = utility_optimal(pair, UtilitySpec.neyman_pearson(alpha))
        p_star = dual(e_star)
        assert np_optimal(pair, alpha) == p_star
        want, want_c = np_optimal_quadratic(pair, alpha)
        assert typed(p_star.values) == typed(want)
        assert (type(c), c) == (type(want_c), want_c)

    def test_float_masses_boundary_within_an_ulp_of_alpha(self):
        # the float mass below c lands within an ulp of alpha* = 2/3: a
        # float gap alpha* - below is 0 and the division used to raise
        p = (0.38888888888888884, 0.16666666666666666, 0.0,
             0.05555555555555556, 0.11111111111111112, 0.16666666666666666,
             0.11111111111111112)
        q = (F(3, 8), 0, 0, F(1, 4), F(1, 8), F(1, 8), F(1, 8))
        pair = pair_of(p, q)
        p_star = np_optimal(pair, F(2, 3))
        mean = sum(m / float(p_star[x]) for x, m in enumerate(p)
                   if not math.isinf(p_star[x]))
        assert abs(mean - 1) <= 1e-12

    @given(st.lists(st.integers(min_value=1, max_value=60), min_size=1,
                    max_size=8, unique=True), levels_in_unit)
    def test_region_matches_exhaustive(self, q_weights, alpha):
        # equiprobable nulls and distinct ratios: the induced test is the
        # best non-randomized region of P-mass at most alpha*
        n = len(q_weights)
        pair = pair_of([F(1, n)] * n, normalized(q_weights))
        assert np_rejection_region(pair, alpha) == \
            best_region_exhaustive(pair, alpha)


class TestBruteForceOracle:
    def test_log_two_outcomes(self):
        pair = bernoulli_pair()
        oracle = brute_force_optimal(pair, UtilitySpec.log(), resolution=50)
        exact = utility_optimal(pair, UtilitySpec.log())[0]
        for x in (0, 1):
            assert abs(float(oracle[x]) - float(exact[x])) <= 0.05

    def test_power_three_outcomes(self):
        pair = pair_of([F(1, 4), F(1, 4), F(1, 2)],
                       [F(1, 2), F(1, 4), F(1, 4)])
        U = UtilitySpec.power(2)
        oracle = brute_force_optimal(pair, U, resolution=48)
        exact, _ = utility_optimal(pair, U)
        assert float(expected_utility(exact, pair.Q, U)) >= \
            float(expected_utility(oracle, pair.Q, U)) - 1e-9

    def test_np_two_outcomes(self):
        pair = bernoulli_pair()
        U = UtilitySpec.neyman_pearson(F(1, 2))
        oracle = brute_force_optimal(pair, U, resolution=60)
        exact, _ = utility_optimal(pair, U)
        assert float(expected_utility(exact, pair.Q, U)) >= \
            float(expected_utility(oracle, pair.Q, U)) - 1e-9

    def test_rejects_large_spaces(self):
        pair = pair_of([F(1, 7)] * 7, [F(1, 7)] * 7)
        with pytest.raises(ValueError):
            brute_force_optimal(pair, UtilitySpec.log())


class TestExpectedUtility:
    def test_unit_log(self):
        pair = bernoulli_pair()
        from posthoc import EvidenceVariable
        ev = EvidenceVariable({0: 1, 1: 1}, "e")
        assert expected_utility(ev, pair.Q, UtilitySpec.log()) == 0

    def test_zero_with_positive_mass_is_minus_inf(self):
        pair = bernoulli_pair()
        from posthoc import EvidenceVariable
        ev = EvidenceVariable({0: 0, 1: 2}, "e")
        assert expected_utility(ev, pair.Q, UtilitySpec.log()) == -math.inf


class TestDoublePosthoc:
    def test_identical(self):
        pair = pair_of([F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
        assert double_posthoc_check(pair)

    def test_bernoulli_both_sides_exact(self):
        pair = bernoulli_pair()
        assert double_posthoc_check(pair)
        e = log_optimal(pair).as_scale("e")
        assert pair.P.expectation(lambda x: e[x]) == 1
        assert pair.Q.expectation(lambda x: F(1) / e[x]) == 1

    def test_absolute_continuity_violation_names_outcome(self):
        pair = pair_of([F(1, 2), F(1, 2)], [1, 0])
        with pytest.raises(ValueError, match="1"):
            double_posthoc_check(pair)


class TestGaussianExample:
    def test_classical_vs_posthoc_thresholds(self):
        start = time.monotonic()
        rep = gaussian_log_optimal_report(alpha=0.05)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        assert abs(rep["classical_critical"] - math.exp(1.6449 - 0.5)) <= 0.01
        assert rep["posthoc_threshold"] == 20.0
        assert 0 < rep["posthoc_power"] < rep["classical_power"]

    @pytest.mark.parametrize("n_cells", [401, 1201, 2001, 8001])
    @pytest.mark.parametrize("alpha", [0.01, 0.025, 0.05, 0.1])
    def test_grid_lies_within_a_cell_of_the_closed_forms(self, alpha, n_cells):
        """The discretised pair's tail powers sit within the Q-mass of its
        most extreme cell of the closed forms, on either side: the grid is
        not monotone in n (its post-hoc power at .05 is 0.0 up to 2001
        cells and above the closed form at 32001)."""
        got = gaussian_log_optimal_report(alpha, n_cells=n_cells)
        grid = gaussian_report_per_call(alpha, n_cells)
        bound = max(gaussian_shift_pair(n_cells).Q.probs)
        for key in ("classical_power", "posthoc_power"):
            assert abs(grid[key] - got[key]) <= bound, key
        for key in ("alpha", "posthoc_threshold", "classical_size"):
            assert grid[key] == got[key], key

    def test_report_builds_no_pair(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the report built a SimplePair")

        monkeypatch.setattr(SimplePair, "__init__", refuse)
        with pytest.raises(AssertionError):
            gaussian_shift_pair(401)  # the patch is live
        for alpha in (0.01, 0.05):
            gaussian_log_optimal_report(alpha, n_cells=2001)

    @pytest.mark.parametrize("alpha, n_cells", [
        (0.01, 50),     # alpha * n_cells < 1: an empty classical region
        (1.0, 2001),    # no cell outside the region
        (0.0, 2001),
        (math.nan, 2001),
    ])
    def test_rejects_alpha_outside_the_grid(self, alpha, n_cells):
        with pytest.raises(ValueError, match=r"alpha \* n_cells >= 1"):
            gaussian_log_optimal_report(alpha=alpha, n_cells=n_cells)


# ---------------------------------------------------------------------------
# the per-call formulations: every call looks each cell's f_P and f_Q up
# again.  SimplePair now derives its likelihood-ratio table once; these are
# the oracles it must match, value for value and type for type.


def ratio_per_call(pair, outcome):
    """SimplePair.density_ratio as first written."""
    fp, fq = pair.P.prob(outcome), pair.Q.prob(outcome)
    if fp == 0 and fq == 0:
        return 1
    return mul0(fp, recip(fq)) if fq > 0 else INF


def log_optimal_per_call(pair):
    return EvidenceVariable(
        {x: ratio_per_call(pair, x) for x in pair.P.outcomes}, "p")


def power_optimal_per_call(pair, gamma):
    g = float(gamma)
    a = {x: -log_ext(ratio_per_call(pair, x)) / g for x in pair.P.outcomes}
    b = [log_ext(fp) + a[x]
         for x, fp in zip(pair.P.outcomes, pair.P.probs) if fp != 0]
    top = max(b)
    if top == -INF:
        raise RuntimeError(
            "no normalization constant: P and Q are mutually singular")
    log_m = top + math.log(math.fsum(math.exp(v - top) for v in b))
    values = {x: exp_ext(ax - log_m) for x, ax in a.items()}
    return EvidenceVariable(values, "e"), exp_ext(g * log_m)


def np_solution_per_call(pair, alpha_star):
    """The O(n log n) three-branch rule as first written: ratios and
    P-masses grouped and prefix-summed as they are, ``Fraction``s
    included."""
    ratios = {x: ratio_per_call(pair, x) for x in pair.P.outcomes}
    mass = {}
    for x, fp in zip(pair.P.outcomes, pair.P.probs):
        r = ratios[x]
        mass[r] = mass.get(r, 0) + fp
    levels = sorted(set(ratios.values()), key=float)
    c, below, running, i = levels[0], 0, 0, 0
    while i < len(levels) and running <= alpha_star:
        c, below = levels[i], running
        group = float(c)
        while i < len(levels) and float(levels[i]) == group:
            c = levels[i]
            running += mass[c]
            i += 1
    at = mass[c]
    if below == alpha_star or at == 0:
        k = INF
    else:
        k = mul0(alpha_star, at) / (F(alpha_star) - F(below))
    values = {}
    for x in pair.P.outcomes:
        r = ratios[x]
        if float(r) < float(c):
            values[x] = alpha_star
        elif r == c:
            values[x] = k
        else:
            values[x] = INF
    return EvidenceVariable(values, "p"), c


def utility_optimal_per_call(pair, U):
    if U.kind == "LOG":
        return dual(log_optimal_per_call(pair)), 1
    if U.kind == "NEYMAN_PEARSON":
        p_star, c = np_solution_per_call(pair, U.param)
        return dual(p_star), c
    return power_optimal_per_call(pair, U.param)


def double_posthoc_check_per_call(pair):
    for x in pair.P.outcomes:
        fp, fq = pair.P.prob(x), pair.Q.prob(x)
        if (fp == 0) != (fq == 0):
            raise ValueError(
                f"absolute continuity fails at outcome {x!r}: "
                f"f_P = {fp}, f_Q = {fq}")
    forward = sum(fq for x, fq in zip(pair.Q.outcomes, pair.Q.probs)
                  if pair.P.prob(x) > 0)
    backward = sum(fp for x, fp in zip(pair.P.outcomes, pair.P.probs)
                   if pair.Q.prob(x) > 0)
    return within(forward) and within(backward)


def gaussian_report_per_call(alpha, n_cells):
    """The Gaussian report as first written, on the discretised pair: the
    cross-check of the closed forms."""
    pair = gaussian_shift_pair(n_cells=n_cells)
    p_star = log_optimal_per_call(pair)
    lr = {x: recip(p_star[x]) for x in p_star.outcomes}
    by_lr = sorted(p_star.outcomes, key=lambda x: -float(lr[x]))
    k = int(alpha * n_cells)
    region = by_lr[:k]
    threshold = recip(alpha)
    return {
        "alpha": alpha,
        "classical_critical": math.sqrt(
            float(lr[by_lr[k - 1]]) * float(lr[by_lr[k]])),
        "posthoc_threshold": float(threshold),
        "classical_power": float(sum(pair.Q.prob(x) for x in region)),
        "posthoc_power": float(sum(
            pair.Q.prob(x) for x in p_star.outcomes
            if float(lr[x]) >= float(threshold))),
        "classical_size": k / n_cells,
    }


def result_of(f, *args):
    """(kind, value): a result, typed where it is a number or an evidence
    variable, or the error's type and message."""
    try:
        got = f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", typed_result(got)


def typed_result(got):
    if isinstance(got, tuple):
        return tuple(typed_result(v) for v in got)
    if isinstance(got, EvidenceVariable):
        return got.scale, typed(got.values)
    return type(got), got


@st.composite
def masses(draw, n):
    """n probability masses of one kind: Fractions, ints (one cell holds
    all), floats, or a mix of Fractions, floats and int zeros and ones.
    Small weights make zero masses, tied ratios and 0/0 cells common."""
    kind = draw(st.sampled_from(["fraction", "int", "float", "mixed"]))
    if kind == "int":
        one = draw(st.integers(0, n - 1))
        return [int(i == one) for i in range(n)]
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                   .filter(any))
    total = sum(weights)
    if kind == "float":
        return [w / total for w in weights]
    exact = [F(w, total) for w in weights]
    if kind == "fraction":
        return exact
    return [draw(st.sampled_from(
        [m, float(m)] + ([int(m)] if m.denominator == 1 else [])))
        for m in exact]


@st.composite
def simple_pairs(draw):
    """A pair with P and Q listing the outcomes in their own orders."""
    n = draw(st.integers(1, 7))
    outcomes = [f"x{i}" for i in range(n)]
    p, q = draw(masses(n)), draw(masses(n))
    order = draw(st.permutations(range(n)))
    return SimplePair(
        P=DiscreteSpace(outcomes, p),
        Q=DiscreteSpace([outcomes[i] for i in order], [q[i] for i in order]))


np_levels = st.one_of(levels_in_unit, st.sampled_from([0.05, 0.5, 0.3]))


class TestRatioTable:
    """The table-reading design functions against the per-call oracles."""

    @settings(max_examples=300, deadline=None)
    @given(simple_pairs(), np_levels, st.sampled_from([2, F(1, 2), 0.7, 3]))
    def test_design_matches_the_per_call_oracles(self, pair, alpha, gamma):
        for x in pair.P.outcomes:
            got, want = pair.density_ratio(x), ratio_per_call(pair, x)
            assert (type(got), got) == (type(want), want)
        cases = [(log_optimal, log_optimal_per_call, ()),
                 (double_posthoc_check, double_posthoc_check_per_call, ()),
                 (np_optimal, lambda pr, a: np_solution_per_call(pr, a)[0],
                  (alpha,))]
        for U in (UtilitySpec.log(), UtilitySpec.power(gamma),
                  UtilitySpec.neyman_pearson(alpha)):
            cases.append((utility_optimal, utility_optimal_per_call, (U,)))
        for mine, oracle, args in cases:
            assert result_of(mine, pair, *args) == result_of(oracle, pair, *args)

    def test_null_cells_and_reordered_outcomes(self):
        # 0/0 at "c", f_Q = 0 at "b", f_P = 0 at "d"; Q lists them reversed
        pair = SimplePair(
            P=DiscreteSpace("abcd", (F(1, 2), F(1, 2), 0, 0)),
            Q=DiscreteSpace("dcba", (0.25, 0, 0, 0.75)))
        assert [pair.density_ratio(x) for x in "abcd"] == \
            [0.5 * (1 / 0.75), INF, 1, 0]
        assert [type(pair.density_ratio(x)) for x in "abcd"] == \
            [float, float, int, int]

    @pytest.mark.parametrize("p, q", [
        # subnormal f_Q: the reciprocal overflows to inf, or stays finite
        ((F(1, 2), F(1, 2)), (5e-324, 1.0)),
        ((F(1, 3), F(2, 3)), (1e-308, 1.0)),
        # f_Q next to 1, on both sides
        ((F(1, 3), F(2, 3)), (1 - 2**-53, 2**-53)),
        ((F(1, 3), F(2, 3)), (1 + 2**-52, 0.0)),
        # an f_P whose float underflows: 0.0, and 0.0 * inf, nan on
        # floats, is inf by mul0
        ((F(1, 10**400), 1 - F(1, 10**400)), (0.5, 0.5)),
        ((F(1, 10**400), 1 - F(1, 10**400)), (5e-324, 1.0)),
        # int, float, mixed and bool f_P over float f_Q
        ((1, 0), (0.75, 0.25)),
        ((0.25, 0.75), (0.5, 0.5)),
        ((F(1, 4), 0.75), (0.5, 0.5)),
        ((True, False), (0.5, 0.5)),
        # an exact Q against a float or exact P
        ((0.5, 0.5), (F(1, 3), F(2, 3))),
        ((F(1, 2), F(1, 2)), (F(1, 3), 0.6666666666666667)),
    ], ids=["subnormal-overflow", "subnormal-finite", "near-one-below",
            "near-one-above", "underflowing-p", "underflowing-p-nan",
            "int-p", "float-p", "mixed-p", "bool-p", "exact-q-float-p",
            "mixed-q"])
    def test_ratio_kernel_edges_match_the_per_call_ratio(self, p, q):
        pair = pair_of(p, q)
        for x in pair.P.outcomes:
            got, want = pair.density_ratio(x), ratio_per_call(pair, x)
            # repr tells nan, -0.0 and each float apart
            assert (type(got), repr(got)) == (type(want), repr(want))

    @pytest.mark.parametrize("outcome", [7, "x", (0,), [0]])
    def test_unknown_outcome_raises(self, outcome):
        with pytest.raises(ValueError, match="unknown outcome"):
            bernoulli_pair().density_ratio(outcome)

    def test_table_is_no_field(self):
        a, b = bernoulli_pair(), bernoulli_pair()
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"SimplePair(P={a.P!r}, Q={a.Q!r})"
        with pytest.raises(AttributeError):
            a._ratios = ()

    def test_design_functions_make_no_prob_calls(self, monkeypatch):
        """The table is derived once: no design function looks a mass up
        per outcome on a built pair."""
        pairs = [gaussian_shift_pair(401),
                 SimplePair(P=DiscreteSpace("abc", (F(1, 4), F(1, 4), F(1, 2))),
                            Q=DiscreteSpace("cab", (F(1, 6), F(1, 3), F(1, 2))))]
        calls = []
        prob = DiscreteSpace.prob
        monkeypatch.setattr(DiscreteSpace, "prob",
                            lambda self, x: calls.append(x) or prob(self, x))
        for pair in pairs:
            log_optimal(pair)
            for U in (UtilitySpec.log(), UtilitySpec.power(2),
                      UtilitySpec.neyman_pearson(F(1, 20))):
                utility_optimal(pair, U)
            np_optimal(pair, F(1, 20))
            assert double_posthoc_check(pair)
        gaussian_log_optimal_report(0.05, n_cells=401)
        assert calls == []
        pairs[1].P.prob("a")  # the counter counts
        assert calls == ["a"]
