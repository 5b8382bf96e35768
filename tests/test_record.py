"""The immutable value classes behave as the frozen dataclasses they
replace: the same repr, equality within one class only, hashing of the
fields, and no assignment or deletion."""
from fractions import Fraction as F

import pytest

from posthoc import (
    DiscreteSpace,
    PCurve,
    PFunction,
    PValueLaw,
    RandomizedTestFunction,
    StoppingRule,
    TCurve,
    UtilitySpec,
    ValidityReport,
    check_posthoc_validity,
    martingale_fixture,
    ville_equality_check,
)
from posthoc._numbers import fmt_number, lattice_keys


# literal reprs of the dataclass versions of these classes
def test_validity_report_repr():
    law = PValueLaw(atoms=[(F(1, 2), F(1, 4)), (2, F(3, 4))])
    assert repr(check_posthoc_validity(law)) == (
        "ValidityReport(valid=True, statistic=Fraction(7, 8), witness=None, "
        "kind='posthoc', detail='E[1/p] for the given p-value law')")


def test_utility_spec_repr():
    assert repr(UtilitySpec.power(2)) == "UtilitySpec(kind='POWER', param=2)"
    assert repr(UtilitySpec.log()) == "UtilitySpec(kind='LOG', param=None)"


def test_ville_report_repr():
    rep = ville_equality_check(martingale_fixture(),
                               StoppingRule.hitting_time(2.0), 1, 0)
    assert repr(rep) == (
        "VilleReport(rule='hit@2.0', kind='MARTINGALE', n=None, mean=1.0, "
        "se=0.0, initial=1.0, valid=True, "
        "detail='optional stopping equality, exact', method='exact', "
        "mean_exact='1')")


def test_subclass_repr_names_the_subclass():
    assert repr(PFunction({0: PCurve.constant(F(1, 2))})) == (
        "PFunction(curves={0: PCurve(segments=((1, ((Fraction(2, 1), 0),)),))})")


@pytest.mark.parametrize("make", [
    lambda: ValidityReport(True, F(1, 2), kind="posthoc"),
    lambda: UtilitySpec.power(F(1, 2)),
    lambda: DiscreteSpace((0, 1), (F(1, 3), F(2, 3))),
    lambda: PCurve.power(2, 1),
    lambda: TCurve.indicator(F(1, 20)),
], ids=["ValidityReport", "UtilitySpec", "DiscreteSpace", "PCurve", "TCurve"])
def test_equal_instances_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_unequal_fields_compare_unequal():
    assert UtilitySpec.power(2) != UtilitySpec.power(3)
    assert ValidityReport(True, 1) != ValidityReport(True, 1, detail="x")


def test_equal_fields_in_different_classes_compare_unequal():
    curves = {0: PCurve.constant(F(1, 2))}
    assert PFunction(curves) != RandomizedTestFunction(curves)
    assert PFunction(curves) == PFunction(curves)


def test_private_attributes_are_not_fields():
    # an int mass keeps no lattice, a Fraction mass does; the laws are equal
    exact, other = PValueLaw(atoms=[(1, F(1))]), PValueLaw(atoms=[(1, 1)])
    assert exact._lattice is not None and other._lattice is None
    assert exact == other and hash(exact) == hash(other)


@pytest.mark.parametrize("probs", [
    (F(1, 8), F(3, 4), F(1, 8), 0), (0, 1), (0.25, 0.75), (F(1, 2), 0.5)],
    ids=["fractions", "ints", "floats", "mixed"])
def test_discrete_space_keeps_its_lattice_as_no_field(probs):
    space = DiscreteSpace(range(len(probs)), probs)
    d, keys = lattice_keys(space.probs)
    assert space._lattice[0] == d and list(space._lattice[1]) == list(keys)
    # float and mixed masses keep the masses themselves as keys
    assert (space._lattice[1] is space.probs) == (keys is space.probs)
    assert repr(space) == (f"DiscreteSpace(outcomes={space.outcomes!r}, "
                           f"probs={space.probs!r})")
    assert space.to_dict() == {"outcomes": list(space.outcomes),
                               "probs": [fmt_number(p) for p in probs]}
    # dyadic masses equal their floats: equal spaces, unequal lattices
    other = DiscreteSpace(space.outcomes, [float(p) for p in probs])
    assert space == other and hash(space) == hash(other)
    assert other._lattice == (1, other.probs)


@pytest.mark.parametrize("obj, field", [
    (ValidityReport(True, 1), "valid"),
    (UtilitySpec.log(), "kind"),
    (DiscreteSpace((0,), (1,)), "probs"),
    (PValueLaw(atoms=[(1, 1)]), "atoms"),
], ids=["ValidityReport", "UtilitySpec", "DiscreteSpace", "PValueLaw"])
def test_fields_cannot_be_assigned_or_deleted(obj, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(obj, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


def test_declared_fields_are_taken_by_position_or_by_name():
    a = StoppingRule("now", None)
    assert a == StoppingRule(markov=None, name="now") == StoppingRule("now", markov=None)
    assert (a.name, a.markov) == ("now", None)
    assert repr(a) == "StoppingRule(name='now', markov=None)"


@pytest.mark.parametrize("args, kwargs, given", [
    (("now",), {}, "1 by position and []"),
    ((), {}, "0 by position and []"),
    (("now", None), {"kind": 1}, "2 by position and ['kind']"),
    (("now", None), {"name": "later"}, "2 by position and ['name']"),
    (("now", None, 1), {}, "3 by position and []"),
    ((), {"name": "now", "markov": None, "kind": 1},
     "0 by position and ['name', 'markov', 'kind']"),
], ids=["missing", "none", "unknown", "repeated", "too-many", "unknown-by-name"])
def test_a_missing_unknown_or_repeated_field_is_refused(args, kwargs, given):
    message = ("StoppingRule() takes the fields ['name', 'markov'] once each, "
               f"got {given} by name")
    with pytest.raises(TypeError) as exc:
        StoppingRule(*args, **kwargs)
    assert str(exc.value) == message


def test_pfunction_is_unhashable():
    with pytest.raises(TypeError):
        hash(PFunction({0: PCurve.constant(F(1, 2))}))
