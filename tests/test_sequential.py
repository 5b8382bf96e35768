import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import posthoc
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
    check_classical_validity,
    check_posthoc_validity,
    fdr_average,
    fwer_merge,
    fmt_number,
    invalid_eprocess_fixture,
    markov_equality_check,
    martingale_fixture,
    mrmw_sandwich,
    stopped_law,
    stopped_mean,
    stopped_p_law,
    sup_stopped_mean,
    supermartingale_fixture,
    ville_equality_check,
    ville_tail,
)
from posthoc._numbers import mul0, recip, within


def ev_on(values, probs=None):
    n = len(values)
    probs = probs or [F(1, n)] * n
    sp = DiscreteSpace(tuple(range(n)), tuple(probs))
    return (EvidenceVariable(dict(enumerate(values)), "e"),
            Hypothesis.simple(sp))


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

    @pytest.mark.parametrize("kind", [MARTINGALE, SUPERMARTINGALE])
    def test_exact_moments_are_checked_exactly(self, kind):
        # E[Z] = 1 +- 10^-13 in Fractions: within the float TOL, but the
        # exact stopped means see the difference
        eps = F(1, 10 ** 13)
        fixed = StoppingRule.fixed_time(50)
        half = (F(1, 2), F(1, 2))
        above = DiscreteSpace((F(1, 2), F(3, 2) + 2 * eps), half)
        with pytest.raises(ValueError, match="needs E\\[Z\\]"):
            ProcessModel(1, above, kind, 50)
        below = DiscreteSpace((F(1, 2), F(3, 2) - 2 * eps), half)
        if kind == MARTINGALE:
            with pytest.raises(ValueError, match="needs E\\[Z\\] = 1"):
                ProcessModel(1, below, kind, 50)
        else:
            model = ProcessModel(1, below, kind, 50)
            assert ville_equality_check(model, fixed, 1, 0).valid
        # the floats 0.9 and 1.1 average to 1 only up to rounding
        model = ProcessModel(1.0, DiscreteSpace((0.9, 1.1), (0.5, 0.5)),
                             kind, 50)
        assert ville_equality_check(model, fixed, 1, 0).valid

    @pytest.mark.parametrize("horizon", [2.5, 2.0, F(2), True])
    def test_rejects_a_horizon_that_is_not_an_int(self, horizon):
        # a float horizon was accepted, and stopped_mean then raised TypeError
        z = DiscreteSpace((F(1, 2), F(3, 2)), (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError, match="horizon must be a positive int"):
            ProcessModel(1, z, MARTINGALE, horizon)

    def test_eprocess_moments_deliberately_unchecked(self):
        model = invalid_eprocess_fixture()
        assert model.step_mean() == F(11, 10)

    def test_rejects_negative_factor(self):
        z = DiscreteSpace((-1, 3), (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            ProcessModel(1, z, EPROCESS, 10)

    @pytest.mark.parametrize("initial, factor, message", [
        (math.inf, F(3, 2), "initial value must be finite, got inf"),
        (math.nan, F(3, 2), "initial value must be finite, got nan"),
        (1, math.inf, "factors must be finite, got inf"),
        (1, math.nan, "factors must be finite, got nan"),
        (1, -math.inf, "factors must be finite, got -inf"),
    ])
    def test_rejects_non_finite_inputs(self, initial, factor, message):
        # the exact checks cannot take them: Fraction(inf) and Fraction(nan)
        # raise OverflowError and ValueError
        z = DiscreteSpace((F(1, 2), factor), (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError, match=message):
            ProcessModel(initial, z, EPROCESS, 10)


def grid_sup(x, grid):
    """sup_c 1{x >= 1/c}/c over c = 1/v for v in the grid: the largest grid
    value in (0, x], or 0."""
    return max((v for v in grid if 0 < v <= x), default=0)


def oracle_markov_sides(X, H):
    """(E[sup_c 1{X >= 1/c}/c], E[X]) of the first member of largest E[X],
    the supremum taken from its definition on the grid of X's values."""
    e = X.as_scale("e")
    grid = [e[x] for x in e.outcomes]
    worst = None
    for m in H.members:
        lhs = m.expectation(lambda x: grid_sup(e[x], grid))
        rhs = m.expectation(lambda x: e[x])
        if worst is None or rhs > worst[1]:
            worst = (lhs, rhs)
    return worst


@st.composite
def markov_inputs(draw):
    """(X, H): X on 1-5 outcomes, e- or p-scale, with int and Fraction
    values, 0 and inf among them; H of 1-3 exact members, zero masses
    allowed."""
    k = draw(st.integers(1, 5))
    values = st.one_of(st.integers(0, 20), st.fractions(0, 20, max_denominator=12),
                       st.sampled_from([0, INF]))
    X = EvidenceVariable(dict(enumerate(draw(st.lists(values, min_size=k, max_size=k)))),
                         draw(st.sampled_from(["e", "p"])))
    members = []
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(any))
        members.append(DiscreteSpace(tuple(range(k)), tuple(F(x, sum(w)) for x in w)))
    return X, Hypothesis(members)


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

    @settings(max_examples=300, deadline=None)
    @given(markov_inputs())
    def test_both_sides_match_the_grid_oracle(self, inputs):
        # the closed form against the supremum searched on X's own values
        X, H = inputs
        lhs, rhs = oracle_markov_sides(X, H)
        assert lhs == rhs
        assert markov_equality_check(X, H) == (lhs, rhs)


@st.composite
def sandwich_inputs(draw):
    """(X, c, H): X on 1-4 outcomes with int, Fraction and float values,
    0 and inf among them; c a positive finite int, Fraction or float; H of
    1-3 members with exact or float masses, zero masses allowed."""
    k = draw(st.integers(1, 4))
    values = st.one_of(st.integers(0, 50), st.fractions(0, 50, max_denominator=20),
                       st.floats(0, 1e6), st.sampled_from([0, 0.0, INF]))
    X = EvidenceVariable(dict(enumerate(draw(st.lists(values, min_size=k, max_size=k)))),
                         "e")
    c = draw(st.one_of(st.integers(1, 20),
                       st.fractions(F(1, 100), 20, max_denominator=100).filter(bool),
                       st.floats(1e-3, 20)))
    members = []
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(any))
        exact = draw(st.booleans())
        members.append(DiscreteSpace(tuple(range(k)), tuple(
            F(x, sum(w)) if exact else x / sum(w) for x in w)))
    return X, c, Hypothesis(members)


def oracle_sandwich(X, c, H):
    """mrmw_sandwich as first written: its own loop over the members for
    the first of largest cE[X]."""
    e = X.as_scale("e")
    worst = None
    for m in H.members:
        a = m.expectation(lambda x: 1 if e[x] >= recip(c) else 0)
        b = m.expectation(lambda x: min(mul0(c, e[x]), 1))
        r = mul0(c, m.expectation(lambda x: e[x]))
        if worst is None or r > worst[2]:
            worst = (a, b, r)
    return worst


class TestMrmwSandwich:
    @settings(max_examples=200, deadline=None)
    @given(markov_inputs(),
           st.one_of(st.integers(1, 20),
                     st.fractions(F(1, 100), 20, max_denominator=100).filter(bool)))
    def test_exact_inputs_match_the_member_loop(self, inputs, c):
        # on exact inputs the first of largest E[X] is the first of largest cE[X]
        X, H = inputs
        got, want = mrmw_sandwich(X, c, H), oracle_sandwich(X, c, H)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]

    @settings(max_examples=300, deadline=None)
    @given(sandwich_inputs())
    def test_the_sandwich_is_ordered(self, inputs):
        # 1{X >= 1/c} <= min(cX, 1) <= cX pointwise, and expectations keep
        # the order: on every member, and so on the worst one
        X, c, H = inputs
        for hyp in [*map(Hypothesis.simple, H.members), H]:
            a, b, r = mrmw_sandwich(X, c, hyp)
            assert within(a, b) and within(b, r)

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

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_rejects_a_c_that_is_not_finite(self, c):
        # an atom at 0 made an inf c read as a violated sandwich
        ev, hyp = ev_on([0, 2])
        with pytest.raises(ValueError, match="positive and finite"):
            mrmw_sandwich(ev, c, hyp)


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

    def test_rejects_empty_sample(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                ville_equality_check(martingale_fixture(),
                                     StoppingRule.fixed_time(0), n, seed=1)


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
        assert out["sup_mean"] > 1.5  # E[M_5] = 1.1^5 ~ 1.61

    def test_requires_rules(self):
        with pytest.raises(ValueError):
            anytime_validity_check(martingale_fixture(), [], n=10, seed=0)


def brute_force_stopped_mean(model, rule):
    """E[M_tau] summed over all k^T factor sequences, each weighted by its
    probability and stopped at the first t where ``rule.markov(t, M_t)``
    holds: the oracle for the lattice."""
    z = model.multiplier
    total = F(0)
    for seq in itertools.product(range(len(z.outcomes)),
                                 repeat=model.horizon):
        prob = math.prod((z.probs[i] for i in seq), start=F(1))
        value = F(model.initial)
        for t, i in enumerate(seq):
            if rule.markov(t, value):
                break
            value *= z.outcomes[i]
        total += prob * value
    return total


@st.composite
def lattice_models(draw):
    k = draw(st.integers(1, 3))
    factors = draw(st.lists(
        st.fractions(min_value=0, max_value=3, max_denominator=4),
        min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)
                   .filter(any))
    masses = tuple(F(w, sum(weights)) for w in weights)
    initial = draw(st.fractions(min_value=0, max_value=2, max_denominator=4))
    horizon = draw(st.integers(1, 8))
    return ProcessModel(initial, DiscreteSpace(tuple(factors), masses),
                        EPROCESS, horizon)


markov_rules = st.one_of(
    st.integers(0, 9).map(StoppingRule.fixed_time),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.25, 3.0]),
              st.floats(0, 4)).map(StoppingRule.hitting_time),
)


class TestExactLattice:
    @settings(max_examples=150, deadline=None)
    @given(lattice_models(), markov_rules)
    def test_matches_brute_force_enumeration(self, model, rule):
        law = stopped_law(model, rule)
        assert stopped_mean(model, rule) == brute_force_stopped_mean(
            model, rule)
        assert sum(law.values()) == 1
        assert all(type(v) is F and type(m) is F for v, m in law.items())

    @settings(max_examples=100, deadline=None)
    @given(lattice_models(), st.lists(markov_rules, min_size=1, max_size=4))
    def test_sup_over_all_stopping_times(self, model, rules):
        sup = sup_stopped_mean(model)
        assert all(stopped_mean(model, r) <= sup for r in rules)
        if model.step_mean() <= 1:
            assert sup == model.initial
        else:
            assert sup == stopped_mean(model,
                                       StoppingRule.fixed_time(model.horizon))
        out = anytime_validity_check(model, rules, n=1, seed=0)
        assert out["sup_all_stopping_times"] == {"null": fmt_number(sup)}
        assert out["sup_mean"] == max(float(stopped_mean(model, r)) for r in rules)
        assert out["valid"] is (sup <= model.initial)

    def test_fixture_values(self):
        hit, fixed = StoppingRule.hitting_time(2.0), StoppingRule.fixed_time
        for rule in (hit, fixed(0), fixed(50)):
            assert stopped_mean(martingale_fixture(), rule) == 1
        assert stopped_mean(invalid_eprocess_fixture(), fixed(50)) == (
            F(11, 10) ** 50)
        # at most T + 1 values of M_T for a two-point factor
        assert len(stopped_law(martingale_fixture(), fixed(50))) == 51

    def test_exact_check_runs_no_simulation(self):
        # in a fresh interpreter, as pytest may have loaded numpy already:
        # the check loads neither numpy nor the Philox stream
        code = ("import json, sys\n"
                "from posthoc.sequential import (StoppingRule, martingale_fixture,\n"
                "                                ville_equality_check)\n"
                "rep = ville_equality_check(martingale_fixture(),\n"
                "                           StoppingRule.hitting_time(2.0),\n"
                "                           400_000, 2026)\n"
                "print(json.dumps([rep.to_dict(), sorted(sys.modules)]))")
        env = dict(os.environ, PYTHONPATH=str(Path(posthoc.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env).stdout
        rep, modules = json.loads(out)
        assert rep["method"] == "exact" and rep["n"] is None
        assert rep["mean"] == 1.0 and rep["se"] == 0.0 and rep["valid"]
        assert rep["mean_exact"] == "1"
        assert "numpy" not in modules and "posthoc._philox" not in modules

    def test_invalid_eprocess_is_refuted_exactly(self):
        out = anytime_validity_check(invalid_eprocess_fixture(),
                                     [StoppingRule.fixed_time(50)],
                                     n=400_000, seed=2028)
        sup = fmt_number(F(11, 10) ** 50)
        assert out["sup_all_stopping_times"] == {"null": sup}
        assert out["valid"] is False
        row, = out["rows"]
        assert row["method"] == "exact" and row["mean_exact"] == sup
        assert row["se"] == 0.0 and row["n"] is None

    def test_battery_that_passes_falsely_is_overruled(self):
        # E[Z] = 1 + 10^-6, and tau = 0 sees only M_0; the supremum over
        # all stopping times refutes the process exactly
        eps = F(1, 10 ** 6)
        z = DiscreteSpace((F(1, 2), F(3, 2) + 2 * eps), (F(1, 2), F(1, 2)))
        model = ProcessModel(1, z, EPROCESS, 50)
        out = anytime_validity_check(model, [StoppingRule.fixed_time(0)],
                                     n=10, seed=0)
        assert out["rows"][0]["valid"]
        assert not out["valid"]
        assert out["sup_all_stopping_times"]["null"] == fmt_number(
            (1 + eps) ** 50)

    def test_float_inputs_get_a_float_slack(self):
        # E[Z] of the floats 0.9 and 1.1 is 1 only up to rounding
        z = DiscreteSpace((0.9, 1.1), (0.5, 0.5))
        model = ProcessModel(1.0, z, MARTINGALE, 50)
        rule = StoppingRule.fixed_time(50)
        assert stopped_mean(model, rule) != 1
        assert ville_equality_check(model, rule, 1, 0).valid
        assert anytime_validity_check(model, [rule], 1, 0)["valid"]

def reference_stopped_law(model, rule):
    """The Fraction-keyed forward pass that the integer lattice of
    :func:`stopped_law` replaced, kept as its oracle."""
    steps = [(F(z), F(p)) for z, p in
             zip(model.multiplier.outcomes, model.multiplier.probs) if p]
    law: dict = {}
    states = {F(model.initial): F(1)}
    for t in range(model.horizon + 1):
        spread: dict = {}
        for value, mass in states.items():
            if t == model.horizon or rule.markov(t, value):
                law[value] = law.get(value, 0) + mass
                continue
            for z, p in steps:
                nxt = value * z
                spread[nxt] = spread.get(nxt, 0) + mass * p
        states = spread
    return law


def reference_hitting_time(threshold):
    """``hitting_time`` as it was: its predicate compares each value with
    the threshold as given, converting it on every call."""
    return StoppingRule(StoppingRule.hitting_time(threshold).name,
                        lambda step, value: value >= threshold)


def recording(rule):
    """The rule, and the list of (t, value) its predicate is called on."""
    calls = []

    def markov(step, value):
        calls.append((step, value))
        return rule.markov(step, value)

    return StoppingRule(rule.name, markov), calls


def assert_law_matches_the_oracle(model, rule, reference_rule=None):
    """Equal laws of Fraction keys and masses, from the same live states:
    the rule sees each state of the oracle once, in the same order."""
    reference_rule, reference_calls = recording(reference_rule or rule)
    rule, calls = recording(rule)
    law = stopped_law(model, rule)
    assert law == reference_stopped_law(model, reference_rule)
    assert all(type(v) is F and type(m) is F for v, m in law.items())
    assert calls == reference_calls
    assert all(type(v) is F for _, v in calls)


# each value type: int, Fraction and float (half precision keeps the
# float denominators small over 25 steps)
numbers = st.one_of(st.integers(0, 3),
                    st.fractions(0, 3, max_denominator=6),
                    st.floats(0, 3, width=16))


@st.composite
def oracle_models(draw):
    """1-4 factor outcomes of mixed types, zero factors and zero masses
    allowed; masses as Fractions, floats, a mix, or one int 1."""
    factors = draw(st.lists(numbers, min_size=1, max_size=4, unique_by=F))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(factors),
                            max_size=len(factors)).filter(any))
    masses = [F(w, sum(weights)) for w in weights]
    cast = draw(st.sampled_from(["fraction", "float", "mixed", "int"]))
    if cast == "float" or (cast == "mixed" and len(masses) > 1):
        masses = [float(m) if cast == "float" or i % 2 else m
                  for i, m in enumerate(masses)]
    elif cast == "int" and sum(1 for w in weights if w) == 1:
        masses = [int(m) for m in masses]
    initial = draw(st.one_of(st.just(0), numbers))
    return ProcessModel(initial, DiscreteSpace(tuple(factors), tuple(masses)),
                        EPROCESS, draw(st.integers(1, 25)))


@st.composite
def oracle_rules(draw):
    """(rule, the rule the oracle runs): fixed times, hitting times at
    int, Fraction, float and non-finite thresholds, and a custom Markov
    predicate."""
    form = draw(st.sampled_from(["fixed", "hit", "custom"]))
    if form == "fixed":
        rule = StoppingRule.fixed_time(draw(st.integers(0, 26)))
        return rule, rule
    if form == "hit":
        c = draw(st.one_of(numbers, st.floats(0, 4),
                           st.sampled_from([math.inf, -math.inf, math.nan])))
        return StoppingRule.hitting_time(c), reference_hitting_time(c)
    k, c = draw(st.integers(0, 5)), draw(numbers)

    def markov(step, value):
        return step >= k and value <= c

    rule = StoppingRule(f"custom@{k},{c}", markov)
    return rule, rule


FIXTURES = {"martingale": martingale_fixture(),
            "supermartingale": supermartingale_fixture(),
            "invalid-eprocess": invalid_eprocess_fixture()}
# (rule, the rule the oracle runs)
FIXTURE_RULES = {
    "hit@2.0": (StoppingRule.hitting_time(2.0), reference_hitting_time(2.0)),
    "fixed@0": (StoppingRule.fixed_time(0),) * 2,
    "fixed@50": (StoppingRule.fixed_time(50),) * 2,
}


class TestIntegerLattice:
    @pytest.mark.parametrize("rule", FIXTURE_RULES)
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_fixture_laws_match_the_oracle(self, fixture, rule):
        assert_law_matches_the_oracle(FIXTURES[fixture], *FIXTURE_RULES[rule])

    @settings(max_examples=120, deadline=None)
    @given(oracle_models(), oracle_rules())
    def test_laws_match_the_oracle(self, model, rules):
        assert_law_matches_the_oracle(model, *rules)

    @pytest.mark.parametrize("initial", [0, 0.0, F(0), 3, 0.75, F(2, 3)])
    def test_zero_factor_and_zero_mass(self, initial):
        # four live outcomes of mixed types and one of zero mass
        z = DiscreteSpace((0, F(1, 2), 2.0, 3, 0.75),
                          (F(1, 4), F(1, 4), 0, F(1, 4), 0.25))
        model = ProcessModel(initial, z, EPROCESS, 25)
        for rule, ref in [(StoppingRule.fixed_time(25),) * 2,
                          (StoppingRule.hitting_time(F(3, 2)),
                           reference_hitting_time(F(3, 2)))]:
            assert_law_matches_the_oracle(model, rule, ref)
        if initial == 0:
            assert stopped_law(model, StoppingRule.fixed_time(25)) == {0: 1}

    @pytest.mark.parametrize("threshold, name", [
        (2.0, "hit@2.0"), (2, "hit@2"), (F(9, 4), "hit@9/4"),
        (math.inf, "hit@inf"), (-math.inf, "hit@-inf"), (math.nan, "hit@nan"),
    ])
    def test_hitting_time_keeps_its_name_and_answers(self, threshold, name):
        rule = StoppingRule.hitting_time(threshold)
        assert rule.name == name
        for value in (F(0), F(1, 10), F(2), F(9, 4), F(10**400)):
            assert rule.markov(3, value) is (value >= threshold)
        # the float 0.1 is a little above 1/10, and the exact compare sees it
        assert not StoppingRule.hitting_time(0.1).markov(0, F(1, 10))

    def test_non_finite_thresholds_never_or_always_stop(self):
        model = martingale_fixture(horizon=6)
        fixed = StoppingRule.fixed_time
        for c, at in [(math.inf, 6), (math.nan, 6), (-math.inf, 0)]:
            assert (stopped_law(model, StoppingRule.hitting_time(c))
                    == stopped_law(model, fixed(at)))


def brute_force_ville_tail(model, alpha):
    """P(max_t M_t >= 1/alpha) summed over all k^T factor sequences."""
    z, level = model.multiplier, 1 / F(alpha)
    total = F(0)
    for seq in itertools.product(range(len(z.outcomes)),
                                 repeat=model.horizon):
        value = F(model.initial)
        hit = value >= level
        for i in seq:
            value *= z.outcomes[i]
            hit = hit or value >= level
        if hit:
            total += math.prod((z.probs[i] for i in seq), start=F(1))
    return total


class TestVilleTail:
    def test_brute_force_value(self):
        model = martingale_fixture(horizon=8)
        assert brute_force_ville_tail(model, F(1, 4)) == F(3, 32)
        assert ville_tail(model, F(1, 4)) == F(3, 32)

    @settings(max_examples=100, deadline=None)
    @given(lattice_models(),
           st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16))
    def test_matches_brute_force_enumeration(self, model, alpha):
        tail = ville_tail(model, alpha)
        assert type(tail) is F
        assert tail == brute_force_ville_tail(model, alpha)

    @pytest.mark.parametrize("fixture, alpha, tail", [
        (martingale_fixture, F(1, 20), 0.03759),
        (martingale_fixture, F(1, 2), 0.42375),
        (supermartingale_fixture, F(1, 20), 0.00934),
        (supermartingale_fixture, F(1, 2), 0.23519),
    ])
    def test_ville_bound_holds_for_supermartingales(self, fixture, alpha,
                                                   tail):
        model = fixture()
        got = ville_tail(model, alpha)
        assert float(got) == pytest.approx(tail, abs=5e-6)
        assert got <= alpha * model.initial

    def test_invalid_eprocess_breaks_the_bound(self):
        got = ville_tail(invalid_eprocess_fixture(), F(1, 20))
        assert float(got) == pytest.approx(0.26281, abs=5e-6)
        assert got > F(1, 20)

    def test_alpha_one_is_certain(self):
        assert ville_tail(martingale_fixture(), 1) == 1

    @pytest.mark.parametrize("alpha", [0, -F(1, 2), 1.5, math.nan, -math.inf])
    def test_rejects_alpha_outside_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha must be in"):
            ville_tail(martingale_fixture(), alpha)


def markov_bound_oracle(law):
    """Markov's best fixed-level bound on a stopped law {v: m}, as the
    classical check searches it, levels alpha = 1/c below 1:
    max(0, c P(M >= c) for each value c > 1, and the limit P(M > 1))."""
    above = [sum(m for w, m in law.items() if w > 1)]
    return max(above + [c * sum(m for w, m in law.items() if w >= c)
                        for c in law if c > 1])


class TestStoppedPLaw:
    """The law of 1/M_tau, and the core checks that read it."""

    @staticmethod
    def assert_law_of_the_reciprocal(model, rule):
        law = stopped_law(model, rule)
        p_law = stopped_p_law(model, rule)
        assert dict(p_law.atoms) == {(1 / v if v else INF): m
                                     for v, m in law.items()}
        assert sum((m for _, m in p_law.atoms), F(0)) == 1
        assert all(type(m) is F for _, m in p_law.atoms)
        # E[M_tau] is the sum it replaced, of the same type
        mean = stopped_mean(model, rule)
        assert type(mean) is F
        assert mean == sum((v * m for v, m in law.items()), F(0))
        # Markov's best fixed-level bound is at most E[M_tau], with equality
        # iff M_tau takes at most one nonzero value, and that above 1
        classical = check_classical_validity(p_law).statistic
        assert classical == markov_bound_oracle(law)
        assert classical <= mean
        nonzero = [v for v in law if v]
        assert (classical == mean) is (
            not nonzero or len(nonzero) == 1 and nonzero[0] > 1)

    @settings(max_examples=150, deadline=None)
    @given(lattice_models(), markov_rules)
    def test_law_and_checks_on_lattice_models(self, model, rule):
        self.assert_law_of_the_reciprocal(model, rule)

    @pytest.mark.parametrize("rule", [StoppingRule.hitting_time(20),
                                      StoppingRule.hitting_time(2.0),
                                      StoppingRule.fixed_time(50)],
                             ids=lambda rule: rule.name)
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_law_and_checks_on_the_fixtures(self, fixture, rule):
        self.assert_law_of_the_reciprocal(FIXTURES[fixture], rule)

    @settings(max_examples=100, deadline=None)
    @given(lattice_models(),
           st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16))
    def test_cdf_of_the_hitting_law_is_ville_tail(self, model, alpha):
        law = stopped_p_law(model, StoppingRule.hitting_time(1 / alpha))
        tail = ville_tail(model, alpha)
        assert type(tail) is F
        assert law.cdf(alpha) == tail == brute_force_ville_tail(model, alpha)

    @pytest.mark.parametrize("fixture", [martingale_fixture,
                                         supermartingale_fixture,
                                         invalid_eprocess_fixture])
    @pytest.mark.parametrize("alpha", [F(1, 20), F(1, 2), 0.05])
    def test_cdf_on_the_fixtures(self, fixture, alpha):
        level = 1 / F(alpha)
        for model in (fixture(), fixture(horizon=8)):
            rule = StoppingRule.hitting_time(level)
            got = stopped_p_law(model, rule).cdf(alpha)
            assert got == ville_tail(model, alpha) == sum(
                (m for v, m in stopped_law(model, rule).items() if v >= level), F(0))
        # the short horizon's 2^8 paths can be enumerated
        assert got == brute_force_ville_tail(model, alpha)

    def test_markov_gap_on_the_martingale_fixture(self):
        # under hit@20, E[M_tau] = 1 while the best fixed-level bound is
        # 0.77159..., attained at the first reachable value above 20,
        # 3^16 / 2^21 = 20.52...
        law = stopped_p_law(martingale_fixture(), StoppingRule.hitting_time(20))
        assert check_posthoc_validity(law).statistic == 1
        classical = check_classical_validity(law)
        assert classical.statistic == F(910934518301839086759, 2 ** 70)
        assert classical.witness == F(2 ** 21, 3 ** 16)

    def test_a_zero_value_is_an_atom_at_inf(self):
        z = DiscreteSpace((0, 2), (F(1, 2), F(1, 2)))
        model = ProcessModel(1, z, MARTINGALE, 3)
        law = stopped_p_law(model, StoppingRule.fixed_time(3))
        assert law.atoms == ((F(1, 8), F(1, 8)), (INF, F(7, 8)))
        assert stopped_mean(model, StoppingRule.fixed_time(3)) == 1
        assert ville_tail(model, F(1, 8)) == F(1, 8)
        assert ville_tail(model, F(1, 9)) == 0

    def test_float_probabilities_that_miss_one_exactly(self):
        # Fraction(0.3) + Fraction(0.7) = 1 - 2^-54: the stopped masses are
        # divided by their exact total, so the law is a p-value law
        z = DiscreteSpace((F(1, 2), F(17, 14)), (0.3, 0.7))
        model = ProcessModel(1, z, SUPERMARTINGALE, 20)
        for rule in (StoppingRule.fixed_time(20), StoppingRule.hitting_time(2)):
            law = stopped_law(model, rule)
            total = sum(law.values(), F(0))
            assert total != 1
            p_law = stopped_p_law(model, rule)
            assert sum((m for _, m in p_law.atoms), F(0)) == 1
            assert stopped_mean(model, rule) == sum(
                (v * m for v, m in law.items()), F(0)) / total
            assert ville_equality_check(model, rule, 1, 0).valid


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

    @pytest.mark.parametrize("weights, message", [
        ([F(1, 2)], "one weight per input required"),
        ([F(3, 2), F(-1, 2)], "weights must be nonnegative"),
        ([F(1, 2), F(1, 3)], "weights must sum to 1"),
    ])
    def test_fdr_checks_weights_as_the_merges_do(self, weights, message):
        tf = TestFunction(EvidenceVariable({0: F(1, 2)}, "p"))
        with pytest.raises(ValueError, match=message):
            fdr_average(TestFamilyCollection([tf, tf]), weights)

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
