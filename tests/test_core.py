import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from posthoc import (
    INF,
    DiscreteSpace,
    EvidenceLattice,
    EvidenceVariable,
    Hypothesis,
    PValueLaw,
    TestFunction,
    check_classical_validity,
    check_posthoc_validity,
    dual,
    family_of_evidence,
    law_of,
    p_value,
    posthoc_evidence_of_family,
)
from posthoc._numbers import is_inf, mul0, recip


class TestDiscreteSpace:
    def test_expectation(self):
        sp = DiscreteSpace(("a", "b"), (F(1, 3), F(2, 3)))
        assert sp.expectation(lambda x: 3 if x == "a" else 0) == 1

    def test_zero_mass_times_inf_is_zero(self):
        sp = DiscreteSpace(("a", "b"), (0, 1))
        assert sp.expectation(lambda x: INF if x == "a" else 1) == 1

    @given(st.lists(st.one_of(st.integers(-50, 50), st.text(max_size=3)),
                    min_size=1, max_size=12, unique=True), st.data())
    def test_prob_matches_linear_scan(self, outcomes, data):
        n = len(outcomes)
        weights = data.draw(st.lists(st.integers(0, 5), min_size=n,
                                     max_size=n).filter(any))
        probs = [F(w, sum(weights)) for w in weights]
        sp = DiscreteSpace(outcomes, probs)
        for x in outcomes:
            assert sp.prob(x) == probs[outcomes.index(x)]
        with pytest.raises(ValueError):
            sp.prob(("missing",))
        with pytest.raises(ValueError):
            sp.prob(["unhashable"])

    def test_equality_and_hash_see_fields_only(self):
        a = DiscreteSpace(("a", "b"), (F(1, 3), F(2, 3)))
        b = DiscreteSpace(["a", "b"], [F(1, 3), F(2, 3)])
        assert a == b and hash(a) == hash(b)
        assert a != DiscreteSpace(("b", "a"), (F(1, 3), F(2, 3)))
        assert a.to_dict() == {"outcomes": ["a", "b"], "probs": ["1/3", "2/3"]}
        assert DiscreteSpace.from_dict(a.to_dict()) == a

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            DiscreteSpace(("a", "b"), (F(1, 2), F(1, 3)))
        with pytest.raises(ValueError):
            DiscreteSpace(("a", "a"), (F(1, 2), F(1, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mass(self, bad):
        # nan passes both the sign test and the float sum test; the exact
        # layers above cannot take it (Fraction(nan) raises)
        for probs in [(bad, 1), (bad, 0.5), (1, bad)]:
            with pytest.raises(ValueError,
                               match=f"probabilities must be finite, got {bad}"):
                DiscreteSpace((F(1, 2), F(3, 2)), probs)

    def test_roundtrip(self):
        sp = DiscreteSpace(("a", "b"), (F(1, 3), F(2, 3)))
        assert DiscreteSpace.from_dict(sp.to_dict()) == sp


class TestEvidenceVariable:
    def test_dual_is_involution(self):
        ev = EvidenceVariable({"a": F(1, 2), "b": 0, "c": INF}, "e")
        assert dual(dual(ev)) == ev
        assert dual(ev).scale == "p"
        assert dual(ev)["a"] == 2
        assert dual(ev)["b"] == INF
        assert dual(ev)["c"] == 0

    def test_as_scale(self):
        ev = EvidenceVariable({"a": 4}, "e")
        assert ev.as_scale("e") is ev
        assert ev.as_scale("p")["a"] == F(1, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EvidenceVariable({"a": -1}, "e")
        with pytest.raises(ValueError, match="value -inf at 'a' is not in"):
            EvidenceVariable({"a": -INF}, "p")

    @pytest.mark.parametrize("values", [{0: F(1, 2), 1: math.nan},
                                        {0: math.nan, 1: F(1, 2)}])
    def test_rejects_nan(self, values):
        # a nan made a verdict depend on the order of the outcomes: max(1/2,
        # nan) is 1/2 but max(nan, 1/2) is nan
        for scale in ("e", "p"):
            with pytest.raises(ValueError, match="evidence value nan at . is not in"):
                EvidenceVariable(values, scale)

    def test_json_roundtrip(self):
        ev = EvidenceVariable({"a": F(1, 3), "b": INF}, "p")
        assert EvidenceVariable.from_dict(json.loads(json.dumps(ev.to_dict()))) == ev


class TestTestFunction:
    def test_indicator(self):
        tf = TestFunction(EvidenceVariable({"a": F(1, 20)}, "p"))
        assert tf(F(1, 20), "a") == 1
        assert tf(F(1, 21), "a") == 0

    def test_p_value_lookup(self):
        tf = TestFunction(EvidenceVariable({"a": 2}, "p"))
        assert p_value(tf, "a") == 2
        with pytest.raises(KeyError):
            tf.p_value("zz")

    def test_rejects_zero_p(self):
        with pytest.raises(ValueError):
            TestFunction(EvidenceVariable({"a": 0}, "p"))


class TestPValueLaw:
    def test_uniform_cdf(self):
        law = PValueLaw(pieces=[(0, 1, 1)])
        assert law.cdf(F(1, 4)) == F(1, 4)
        assert law.mass_interval(F(1, 4), F(1, 2)) == F(1, 4)
        assert law.expect_identity() == F(1, 2)

    def test_recip_diverges_at_zero(self):
        law = PValueLaw(pieces=[(0, 1, 1)])
        assert law.expect_recip() == INF
        assert law.ess_inf() == 0

    def test_atoms(self):
        law = PValueLaw(atoms=[(F(1, 2), F(1, 3)), (2, F(2, 3))])
        assert law.cdf(1) == F(1, 3)
        assert law.expect_recip() == F(1, 3) * 2 + F(2, 3) * F(1, 2)
        assert law.ess_inf() == F(1, 2)

    def test_atom_at_inf(self):
        law = PValueLaw(atoms=[(1, F(1, 2)), (INF, F(1, 2))])
        assert law.expect_recip() == F(1, 2)
        assert law.expect_identity() == INF

    def test_rejects_an_atom_at_minus_inf(self):
        # -inf was let through as an infinite location; it is no p-value,
        # yet its mass added 0 to E[1/p]
        with pytest.raises(ValueError, match="atom locations must be positive"):
            PValueLaw(atoms=[(-INF, F(1, 2)), (1, F(1, 2))])

    def test_rejects_a_nan_atom_mass(self):
        # the float sum test abs(nan - 1) > TOL is false, so a nan mass was
        # accepted and the classical check read valid with statistic 0
        with pytest.raises(ValueError, match="atom masses must be nonnegative"):
            PValueLaw(atoms=[(F(1, 4), math.nan), (1, 1.0)])

    def test_rejects_a_nan_atom_location(self):
        with pytest.raises(ValueError, match="atom locations must be positive"):
            PValueLaw(atoms=[(math.nan, 0.5), (1, 0.5)])

    def test_rejects_a_nan_piece_mass(self):
        with pytest.raises(ValueError, match="piece masses must be nonnegative"):
            PValueLaw(atoms=[(2, 1.0)], pieces=[(0.5, 1, math.nan)])

    @pytest.mark.parametrize("law", [
        PValueLaw(atoms=[(F(1, 2), F(1, 3)), (2, F(2, 3))]),
        PValueLaw(atoms=[(0.5, 0.25)], pieces=[(0, 1, 0.75)]),
    ], ids=["lattice", "float"])
    def test_cdf_rejects_nan(self, law):
        # loc > nan is false, so cdf(nan) summed every atom and piece and
        # returned 1 (1.0 on the float law)
        with pytest.raises(ValueError, match="alpha must be a number, got nan"):
            law.cdf(math.nan)

    def test_rejects_overlap_and_bad_mass(self):
        with pytest.raises(ValueError):
            PValueLaw(pieces=[(0, 1, F(1, 2)), (F(1, 2), 2, F(1, 2))])
        with pytest.raises(ValueError):
            PValueLaw(atoms=[(1, F(1, 2))])
        with pytest.raises(ValueError):
            PValueLaw(atoms=[(0, 1)])

    def test_json_roundtrip(self):
        law = PValueLaw(atoms=[(F(1, 2), F(1, 4))], pieces=[(0, 1, F(3, 4))])
        assert PValueLaw.from_dict(json.loads(json.dumps(law.to_dict()))) == law


class TestValidity:
    def test_uniform_is_classically_exact(self):
        rep = check_classical_validity(PValueLaw(pieces=[(0, 1, 1)]))
        assert rep.valid and rep.statistic == 1

    def test_atom_below_one_inflates_size(self):
        rep = check_classical_validity(PValueLaw(atoms=[(F(1, 2), 1)]))
        assert not rep.valid
        assert rep.statistic == 2
        assert rep.witness == F(1, 2)

    def test_levels_above_one_do_not_count(self):
        # everything at p = 2: P(p <= a)/a <= 1 for the levels that matter
        rep = check_classical_validity(PValueLaw(atoms=[(2, 1)]))
        assert rep.valid and rep.statistic == 0

    def test_posthoc_on_law_matches_direct_sum(self):
        law = PValueLaw(atoms=[(F(1, 2), F(1, 3)), (2, F(2, 3))])
        rep = check_posthoc_validity(law)
        assert rep.statistic == law.expect_recip() == 1
        assert rep.valid

    def test_posthoc_on_evidence_matches_law(self):
        sp = DiscreteSpace(("a", "b"), (F(1, 3), F(2, 3)))
        ev = EvidenceVariable({"a": 2, "b": F(1, 2)}, "e")
        by_ev = check_posthoc_validity(ev, Hypothesis.simple(sp))
        by_law = check_posthoc_validity(law_of(ev, sp))
        assert by_ev.statistic == by_law.statistic == 1

    def test_composite_takes_worst_member(self):
        m1 = DiscreteSpace(("a", "b"), (F(1, 2), F(1, 2)))
        m2 = DiscreteSpace(("a", "b"), (1, 0))
        ev = EvidenceVariable({"a": 2, "b": 0}, "e")
        rep = check_posthoc_validity(ev, Hypothesis((m1, m2)))
        assert not rep.valid
        assert rep.statistic == 2 and rep.witness == 1

    @given(st.lists(
        st.tuples(st.fractions(min_value=F(1, 50), max_value=50),
                  st.integers(min_value=1, max_value=20)),
        min_size=1, max_size=5))
    def test_posthoc_implies_classical(self, raw):
        total = sum(w for _, w in raw)
        atoms = {}
        for loc, w in raw:
            atoms[loc] = atoms.get(loc, 0) + F(w, total)
        law = PValueLaw(atoms=list(atoms.items()))
        if check_posthoc_validity(law).valid:
            assert check_classical_validity(law).valid


    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.booleans())
    def test_sweep_and_recip_match_the_direct_formulas(self, data, exact):
        law = data.draw(p_value_laws(exact))
        assert same_report(check_classical_validity(law),
                           classical_reference(law))
        got, want = law.expect_recip(), recip_mean_reference(law)
        assert got == want and type(got) is type(want)


def classical_reference(law):
    """check_classical_validity as first written: one cdf call per level;
    the verdict is exact for an exact statistic, within 1e-12 for a float."""
    best, witness = 0, None
    for a in [a for a in law.support_breakpoints() if a < 1]:
        ratio = law.cdf(a) / a
        if ratio > best:
            best, witness = ratio, a
    limit = law.cdf(1) - sum(m for loc, m in law.atoms if loc == 1)
    if limit > best:
        best, witness = limit, 1
    exact = isinstance(best, (int, F))
    return (best <= 1 if exact else best <= 1 + 1e-12), best, witness


def same_report(rep, ref):
    valid, stat, witness = ref
    return ((rep.valid, rep.statistic, rep.witness) == ref
            and type(rep.statistic) is type(stat))


def recip_mean_reference(law):
    """expect_recip as first written: m * (1 / loc) for every atom."""
    total = 0
    for loc, m in law.atoms:
        if m > 0:
            total += mul0(m, recip(loc))
        if is_inf(total):
            return INF
    for a, b, m in law.pieces:
        if m == 0:
            continue
        if a == 0:
            return INF
        total += m * (math.log(float(b)) - math.log(float(a))) / float(b - a)
    return total


@st.composite
def p_value_laws(draw, exact):
    """Atoms (at 1, an int location or inf among them; masses may be 0)
    and up to two disjoint pieces, with exact or float masses."""
    locs = draw(st.lists(st.one_of(
        st.fractions(F(1, 32), 4, max_denominator=32),
        st.sampled_from([F(1), 2, INF])), min_size=1, max_size=5, unique=True))
    ends = sorted(draw(st.lists(st.fractions(0, 2, max_denominator=16),
                                max_size=4, unique=True)))
    spans = list(zip(ends[::2], ends[1::2]))
    weights = draw(st.lists(st.integers(0, 9), min_size=len(locs) + len(spans),
                            max_size=len(locs) + len(spans)).filter(any))
    total = sum(weights)
    masses = [F(w, total) if exact else w / total for w in weights]
    if not exact:
        locs = [float(loc) for loc in locs]
    return PValueLaw(atoms=list(zip(locs, masses)),
                     pieces=[(a, b, m) for (a, b), m in
                             zip(spans, masses[len(locs):])])


class TestEvidenceLattice:
    def test_sup_and_order(self):
        lat = EvidenceLattice(("none", "weak", "strong"))
        assert lat.bottom == "none" and lat.top == "strong"
        assert lat.sup(["weak", "none"]) == "weak"
        assert lat.sup([]) == "none"
        assert lat.leq("weak", "strong")

    def test_family_roundtrip(self):
        lat = EvidenceLattice((0, 1, 2))
        epsilon = {"x": 2, "y": 1, "z": 0}
        fam = family_of_evidence(epsilon, lat)
        assert posthoc_evidence_of_family(fam, lat) == epsilon

    def test_rejects_foreign_value(self):
        lat = EvidenceLattice((0, 1, 2))
        with pytest.raises(ValueError):
            posthoc_evidence_of_family({1: {"x": 2}}, lat)

    @pytest.mark.parametrize("phi", [
        {1: {"x": 1, "y": 0}, 2: {"x": 2}},
        {1: {"x": 1}, 2: {"x": 2, "y": 0}},
    ], ids=["second-lacks-y", "first-lacks-y"])
    def test_tests_lacking_an_outcome(self, phi):
        # the one outcome-set check names the outcome that one test lacks
        with pytest.raises(ValueError,
                           match="tests must share one outcome set: outcome 'y' is missing"):
            posthoc_evidence_of_family(phi, EvidenceLattice((0, 1, 2)))

    def test_rejects_an_empty_family(self):
        with pytest.raises(ValueError, match="empty test family"):
            posthoc_evidence_of_family({}, EvidenceLattice((0, 1, 2)))
