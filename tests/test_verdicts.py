"""One verdict rule: an exact statistic is compared with its bound exactly,
a float one within TOL; the same holds for every check built on it."""
import inspect
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import posthoc
from posthoc import (
    DiscreteSpace,
    EvidenceVariable,
    Hypothesis,
    PCurve,
    PFunction,
    PValueLaw,
    SimplePair,
    TestFunction,
    UtilitySpec,
    check_classical_validity,
    check_h_validity,
    check_pfunction_posthoc,
    check_posthoc_validity,
    expected_utility,
    h_mean,
    law_of,
    markov_equality_check,
    mrmw_sandwich,
    size_difference_validity,
)
from posthoc._numbers import TOL, within
from posthoc.pfunctions import product_shape_condition

EPS = F(1, 10 ** 13)
ONE = DiscreteSpace((0,), (1,))
H_ONE = Hypothesis.simple(ONE)
# E[1/p] and the classical sup of a law with one atom at 1 - EPS
OVER = 1 / (1 - EPS)


def test_over_is_one_plus_a_tenth_of_tol():
    assert OVER == 1 + F(1, 9999999999999)
    assert 1 < OVER < 1 + F(TOL)


class TestExactFalsePassesAreRefused:
    @pytest.mark.parametrize("mass", [1, F(1)], ids=["int-mass", "lattice"])
    def test_law(self, mass):
        law = PValueLaw(atoms=[(1 - EPS, mass)])
        for rep in (check_posthoc_validity(law), check_classical_validity(law)):
            assert rep.statistic == OVER and not rep.valid

    def test_evidence_under_a_hypothesis(self):
        ev = EvidenceVariable({0: OVER}, "e")
        rep = check_posthoc_validity(ev, H_ONE)
        assert rep.statistic == OVER and not rep.valid

    def test_h_validity(self):
        ev = EvidenceVariable({0: OVER}, "e")
        assert h_mean(ev, 1, H_ONE) == OVER
        assert not check_h_validity(ev, 1, H_ONE)

    def test_pfunction(self):
        rep = check_pfunction_posthoc(PFunction({0: PCurve.constant(1 - EPS)}), H_ONE)
        assert rep.statistic == OVER and not rep.valid

    def test_size_difference(self):
        tf = TestFunction(EvidenceVariable({0: 1 - EPS}, "p"))
        assert not size_difference_validity(tf, H_ONE)
        assert size_difference_validity(TestFunction(EvidenceVariable({0: 1}, "p")), H_ONE)

    def test_shape_condition(self):
        # u p(1)/p(u) at u = 1/2 is 1 + EPS
        curve = PCurve.steps([(F(1, 2), F(1, 2)), (1, 1 + EPS)])
        ok, witness, worst = product_shape_condition([curve])
        assert (ok, witness, worst) == (False, F(1, 2), 1 + EPS)


class TestFloatStatisticsWithinTolPass:
    def test_law(self):
        law = PValueLaw(atoms=[(1 - 1e-13, 1.0)])
        for rep in (check_posthoc_validity(law), check_classical_validity(law)):
            assert 1 < rep.statistic <= 1 + TOL and rep.valid

    def test_h_validity(self):
        assert check_h_validity(EvidenceVariable({0: 1 + 1e-13}, "e"), 1, H_ONE)
        assert not check_h_validity(EvidenceVariable({0: 1 + 1e-11}, "e"), 1, H_ONE)

    def test_within(self):
        assert within(1 + 1e-13) and not within(1 + 1e-11)
        assert within(1, 1 - 1e-13) and not within(float("nan"))
        assert within(F(1)) and not within(1 + EPS) and within(1 + EPS, 1 + EPS)


@st.composite
def near_one_laws(draw):
    """Exact atom laws whose E[1/p] or classical sup is 1, or 1 +- EPS, or
    anything: the locations are rescaled by E[1/p] times a drawn factor."""
    raw = draw(st.lists(st.tuples(st.fractions(F(1, 64), 4, max_denominator=64),
                                  st.integers(1, 5)),
                        min_size=1, max_size=4, unique_by=lambda t: t[0]))
    total = sum(w for _, w in raw)
    law = PValueLaw(atoms=[(loc, F(w, total)) for loc, w in raw])
    factor = draw(st.sampled_from([1, 1 - EPS, 1 + EPS, F(1, 2), F(3, 2)]))
    k = law.expect_recip() * factor
    return PValueLaw(atoms=[(loc * k, m) for loc, m in law.atoms])


@settings(max_examples=300, deadline=None)
@given(near_one_laws())
def test_exact_verdicts_are_the_exact_comparison(law):
    for rep in (check_posthoc_validity(law), check_classical_validity(law)):
        assert type(rep.statistic) in (int, F)
        assert rep.valid == (rep.statistic <= 1)


class TestMissingOutcomesAreNamed:
    EV = EvidenceVariable({"a": F(1, 2)}, "e")
    SPACE = DiscreteSpace(("a", "b"), (F(1, 2), F(1, 2)))
    H = Hypothesis.simple(SPACE)

    @pytest.mark.parametrize("check", [
        lambda ev, sp, H: check_posthoc_validity(ev, H),
        lambda ev, sp, H: check_pfunction_posthoc(
            PFunction({"a": PCurve.constant(2)}), H),
        lambda ev, sp, H: h_mean(ev, 1, H),
        lambda ev, sp, H: size_difference_validity(TestFunction(ev.as_scale("p")), H),
        lambda ev, sp, H: law_of(ev, sp),
        lambda ev, sp, H: expected_utility(ev, sp, UtilitySpec.log()),
        lambda ev, sp, H: markov_equality_check(ev, H),
        lambda ev, sp, H: mrmw_sandwich(ev, 1, H),
    ], ids=["posthoc", "pfunction", "h_mean", "size_difference", "law_of",
            "expected_utility", "markov_equality", "mrmw_sandwich"])
    def test_evidence_lacking_an_outcome(self, check):
        # these used to raise a bare KeyError: 'b'
        with pytest.raises(ValueError, match="share an outcome set: outcome 'b'"):
            check(self.EV, self.SPACE, self.H)

    def test_simple_pair(self):
        with pytest.raises(ValueError, match="P and Q must share an outcome set: outcome 1 "):
            SimplePair(DiscreteSpace((0, 1), (F(1, 2), F(1, 2))),
                       DiscreteSpace((0, 2), (F(1, 2), F(1, 2))))


def test_hypothesis_members_may_list_outcomes_in_any_order():
    first = DiscreteSpace(("a", "b"), (F(1, 4), F(3, 4)))
    second = DiscreteSpace(("b", "a"), (F(1, 4), F(3, 4)))
    H = Hypothesis([first, second])
    ev = EvidenceVariable({"a": 2, "b": F(1, 3)}, "e")
    rep = check_posthoc_validity(ev, H)
    assert rep.statistic == F(3, 4) * 2 + F(1, 4) * F(1, 3) and rep.witness == 1
    with pytest.raises(ValueError, match="all members must share the same outcome set"):
        Hypothesis([first, DiscreteSpace(("a", "c"), (F(1, 4), F(3, 4)))])


def _public_callables():
    for name in posthoc.__all__:
        obj = getattr(posthoc, name)
        if callable(obj):
            yield name, obj
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", member


# a tolerance, a flag, or a knob that no caller set
FORBIDDEN = ("tol", "return_threshold", "clip", "max_n", "p_star")


def test_no_public_callable_takes_a_tolerance_or_a_threshold_flag():
    found = []
    for name, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to read
            continue
        found += [f"{name}({p})" for p in params if p in FORBIDDEN]
    assert found == []
