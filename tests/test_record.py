"""The immutable value classes behave as the frozen dataclasses they
replace: the same repr, equality within one class only, hashing of the
fields, and no assignment or deletion.  They keep every field and private
cache in ``__slots__``, and copy, deep-copy and pickle whole."""
import copy
import importlib
import operator
import pickle
import pkgutil
from fractions import Fraction as F

import pytest

import posthoc
from posthoc import (
    MARTINGALE,
    P_SCALE,
    AlphaStrategy,
    DiscreteSpace,
    EvidenceLattice,
    EvidenceVariable,
    Hypothesis,
    PCurve,
    PFunction,
    ProcessModel,
    PValueLaw,
    RandomizedTestFunction,
    SimplePair,
    StoppingRule,
    TCurve,
    TestFamilyCollection,
    TestFunction,
    UtilitySpec,
    ValidityReport,
    check_posthoc_validity,
    distortion_report,
    impossibility_audit,
    martingale_fixture,
    minimal_h_counterexample,
    test_function_of,
    ville_equality_check,
)
from posthoc._numbers import fmt_number, lattice_keys
from posthoc._record import Record
from posthoc.pfunctions import _OutcomeCurves


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
    # a float law keeps its float flag, an exact one does not; the lattices
    # are equal, and so are the laws
    exact, other = PValueLaw(atoms=[(1, F(1))]), PValueLaw(atoms=[(1.0, 1)])
    assert not exact._float and other._float
    assert exact._lattice == other._lattice
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


# ---------------------------------------------------------------------------
# slots: one instance of each record type, its private caches set


SPACE = DiscreteSpace((0, 1), (F(1, 4), 0.75))
EV = EvidenceVariable({0: F(1, 2), 1: 1}, P_SCALE)
LAW = PValueLaw(atoms=[(F(1, 2), F(1, 4)), (0.75, F(1, 4))], pieces=[(1, 2, F(1, 2))])
CURVES = {0: PCurve.steps([(F(1, 4), F(1, 8)), (1, F(1, 2))]), 1: PCurve.constant(1)}
RECORDS = {
    "DiscreteSpace": lambda: SPACE,
    "Hypothesis": lambda: Hypothesis([SPACE]),
    "EvidenceVariable": lambda: EV,
    "TestFunction": lambda: TestFunction(EV),
    "PValueLaw": lambda: LAW,
    "ValidityReport": lambda: check_posthoc_validity(LAW),
    "EvidenceLattice": lambda: EvidenceLattice(("0", "1", "inf")),
    "UtilitySpec": lambda: UtilitySpec.power(F(1, 2)),
    "SimplePair": lambda: SimplePair(SPACE, DiscreteSpace((1, 0), (F(1, 3), F(2, 3)))),
    "ProcessModel": lambda: ProcessModel(
        1, DiscreteSpace((F(1, 2), F(3, 2)), (F(1, 2), F(1, 2))), MARTINGALE, 3),
    # a picklable predicate: a lambda would copy, but not pickle
    "StoppingRule": lambda: StoppingRule("below", operator.lt),
    "VilleReport": lambda: ville_equality_check(
        martingale_fixture(3), StoppingRule.hitting_time(2.0), 1, 0),
    "PCurve": lambda: CURVES[0],
    "TCurve": lambda: TCurve.indicator(F(1, 20)),
    "_OutcomeCurves": lambda: _OutcomeCurves(CURVES),
    "PFunction": lambda: PFunction(CURVES),
    "RandomizedTestFunction": lambda: test_function_of(PFunction(CURVES)),
    "TestFamilyCollection": lambda: TestFamilyCollection([TestFunction(EV)]),
    "MinimalHCounterexample": lambda: minimal_h_counterexample(F(1, 2), F(1, 4)),
    "AlphaStrategy": lambda: AlphaStrategy([(0, F(1, 2), F(1, 20)), (F(1, 2), 2.0, F(1, 10)),
                                            (2.0, float("inf"), F(1, 5))]),
    "DistortionReport": lambda: distortion_report(LAW, AlphaStrategy.constant(F(1, 20))),
    "ImpossibilityVerdict": lambda: impossibility_audit(LAW),
}


def all_record_classes() -> set:
    for module in pkgutil.iter_modules(posthoc.__path__):
        importlib.import_module(f"posthoc.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("posthoc.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def slot_values(record) -> dict:
    return {name: getattr(record, name)
            for cls in type(record).__mro__ for name in cls.__dict__.get("__slots__", ())}


def test_every_record_type_is_listed():
    assert {type(make()) for make in RECORDS.values()} == all_record_classes()
    assert {type(make()).__name__ for make in RECORDS.values()} == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copies_and_pickles_keep_fields_and_caches(name):
    record = RECORDS[name]()
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert other is not record and type(other) is type(record)
        assert other == record and repr(other) == repr(record)
        assert slot_values(other) == slot_values(record)
    # a shallow copy shares the values, a deep one copies them
    assert all(a is b for a, b in zip(slot_values(copies[0]).values(),
                                      slot_values(record).values()))


def test_a_deep_copy_keeps_the_cache_that_is_a_field():
    # a float space's lattice keys are its masses themselves, in a deep
    # copy and an unpickled space as in the original
    for other in (copy.deepcopy(SPACE), pickle.loads(pickle.dumps(SPACE))):
        assert other._lattice[1] is other.probs


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_keep_every_attribute_in_slots(name):
    record = RECORDS[name]()
    assert all("__slots__" in cls.__dict__ for cls in type(record).__mro__[:-1])
    assert not hasattr(record, "__dict__")
    assert [f for f in slot_values(record) if not f.startswith("_")] == list(record._fields)
    with pytest.raises(AttributeError):
        object.__setattr__(record, "not_a_field", 1)


def test_a_record_without_slots_is_refused():
    with pytest.raises(TypeError, match=r"\.Loose must declare __slots__"):
        class Loose(Record):
            x: int


def test_public_slots_must_be_the_fields():
    with pytest.raises(TypeError, match=r"\.Drift has the fields \['x'\] "
                                        r"but the public slots \['y'\]"):
        class Drift(Record):
            __slots__ = ("y",)
            x: int

    class Cached(Record):
        __slots__ = ("x", "_cache")
        x: int

    record = Cached(1)
    assert record._fields == ("x",) and repr(record).endswith(".Cached(x=1)")
    assert not hasattr(record, "_cache")
