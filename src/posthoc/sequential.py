"""Discrete-time nonnegative processes, stopping rules, and the Markov and
Ville equalities; test families merge in :mod:`posthoc.merging`.

Processes are multiplicative with a finite-support i.i.d. factor, so the
martingale and supermartingale moment conditions are checkable exactly at
construction.  A stopping rule is a predicate on (t, M_t), and stopped
laws are exact: one forward pass over the (t, M_t) lattice gives the law
of M_tau, and 1/M_tau is a p-value law (:func:`stopped_p_law`) whose
``core`` checks give E[M_tau] and, stopping at the first hit of 1/alpha,
Ville's P(max_t M_t >= 1/alpha).  E-process claims are certified or
refuted by the exact supremum of E[M_tau] over all stopping times.
Nothing here is simulated.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from ._numbers import (
    INF,
    TOL,
    Number,
    float_ext,
    fmt_number,
    is_finite,
    mul0,
    recip,
    within,
)
from ._record import Record
from .core import (
    _EVIDENCE_AND_H,
    DiscreteSpace,
    E_SCALE,
    EvidenceVariable,
    Hypothesis,
    PValueLaw,
    check_posthoc_validity,
    shared_outcomes,
)

MARTINGALE = "MARTINGALE"
SUPERMARTINGALE = "SUPERMARTINGALE"
EPROCESS = "EPROCESS"


class ProcessModel(Record):
    """M_t = M_0 * Z_1 * ... * Z_t with i.i.d. finite-support Z >= 0.

    The declared class is verified against the one-step mean at
    construction for martingales and supermartingales by :func:`within`:
    exactly when the mean is exact, within ``TOL`` when an input makes it a
    float.  EPROCESS makes no one-step claim (the contract is about stopped
    expectations), so it is deliberately unchecked here and certified or
    refuted by :func:`anytime_validity_check`.
    """

    initial: Number
    multiplier: DiscreteSpace  # outcomes are the numeric factor values
    kind: str
    horizon: int

    def __init__(self, initial: Number, multiplier: DiscreteSpace, kind: str,
                 horizon: int):
        if not is_finite(initial):
            raise ValueError(f"initial value must be finite, got {initial}")
        if initial < 0:
            raise ValueError("initial value must be nonnegative")
        if type(horizon) is not int or horizon < 1:
            raise ValueError(f"horizon must be a positive int, got {horizon!r}")
        for v in multiplier.outcomes:
            if not is_finite(v):
                raise ValueError(f"multiplicative factors must be finite, got {v}")
            if v < 0:
                raise ValueError("multiplicative factors must be nonnegative")
        self.__dict__.update(initial=initial, multiplier=multiplier, kind=kind,
                             horizon=horizon)
        mean = self.step_mean()
        if kind == MARTINGALE:
            if not (within(mean) and within(1, mean)):
                raise ValueError(f"martingale needs E[Z] = 1, got {mean}")
        elif kind == SUPERMARTINGALE:
            if not within(mean):
                raise ValueError(f"supermartingale needs E[Z] <= 1, got {mean}")
        elif kind != EPROCESS:
            raise ValueError(f"unknown process class {kind!r}")

    def step_mean(self) -> Number:
        return self.multiplier.expectation(lambda v: v)


class StoppingRule(Record):
    """Stop at the first t with ``markov(t, M_t)`` true, capped at the
    horizon.  Every rule is such a predicate on (t, M_t), so every rule is
    evaluated exactly on the state lattice (:func:`stopped_law`)."""

    name: str
    markov: Callable[[int, Number], bool]

    @classmethod
    def fixed_time(cls, t: int) -> "StoppingRule":
        return cls(f"fixed@{t}", lambda step, value: step >= t)

    @classmethod
    def hitting_time(cls, threshold: float) -> "StoppingRule":
        # the lattice compares its exact values with an exact threshold;
        # nan and +-inf stay floats, which Fraction compares as 0.0 does
        exact = Fraction(threshold) if is_finite(threshold) else threshold
        return cls(f"hit@{threshold}", lambda step, value: value >= exact)


# ---------------------------------------------------------------------------
# Markov equalities


def markov_equality_check(X: EvidenceVariable, H: Hypothesis):
    """Both sides of E[sup_c 1{X >= 1/c}/c] = E[X] for the worst hypothesis
    member, the first of largest E[X].

    Pointwise sup_c 1{x >= 1/c}/c = x: it is attained at c = 1/x for
    0 < x < inf, no c > 0 reaches x = 0, and 1/c grows without bound at
    x = inf.  So both sides are the member's E[X], the post-hoc statistic
    of :func:`check_posthoc_validity`.
    """
    mean = check_posthoc_validity(X, H).statistic
    return mean, mean


def mrmw_sandwich(X: EvidenceVariable, c: Number, H: Hypothesis):
    """(P(X >= 1/c), E[cX AND 1], cE[X]) for the worst hypothesis member,
    the first of largest E[X] (:meth:`Hypothesis.sup_expectation`), which
    for c > 0 is that of largest cE[X].  1{X >= 1/c} <= min(cX, 1) <= cX
    holds pointwise, so the three are ordered for every member."""
    if not 0 < c < INF:  # also true for nan
        raise ValueError(f"c must be positive and finite, got {c}")
    shared_outcomes([X, H], _EVIDENCE_AND_H)
    e = X.as_scale(E_SCALE)
    mean, i = H.sup_expectation(lambda x: e[x])
    m, inv_c = H.members[i], recip(c)
    return (m.expectation(lambda x: 1 if e[x] >= inv_c else 0),
            m.expectation(lambda x: min(mul0(c, e[x]), 1)), mul0(c, mean))


# ---------------------------------------------------------------------------
# Ville / anytime validity


def stopped_law(model: ProcessModel, rule: StoppingRule) -> dict:
    """The exact law of M_tau as {value: mass}, by one forward pass over
    the (t, M_t) lattice.

    Inputs are taken exactly (a float becomes the ``Fraction`` it is).  The
    pass runs on ints over one common denominator: with ``den`` the lcm of
    the factor denominators and ``wden`` that of the masses, each step
    multiplies by the ints a = z * den and w = P(z) * wden, and a state at
    step t is an int N with an int mass numerator m, standing for the value
    M_0 * N / den^t and the mass m / wden^t.  Equal values at one step have
    equal N, so equal products merge into one state: a k-point factor gives
    at most C(t+k-1, k-1) states at step t.  Each live state's value is
    built once as a ``Fraction``, for ``rule.markov`` and as its key in the
    law; it stops when the rule fires or t = T, or spreads to N * a with
    mass m * w.
    """
    steps = [(Fraction(z), Fraction(p)) for z, p in
             zip(model.multiplier.outcomes, model.multiplier.probs) if p]
    den = math.lcm(*[z.denominator for z, _ in steps])
    wden = math.lcm(*[p.denominator for _, p in steps])
    moves = [(z.numerator * (den // z.denominator),
              p.numerator * (wden // p.denominator)) for z, p in steps]
    num, dnm = Fraction(model.initial).as_integer_ratio()
    law: dict = {}
    # every N is one state when M_0 = 0, as every value is
    states = {1 if num else 0: 1}
    scale = wscale = 1  # den^t and wden^t
    for t in range(model.horizon + 1):
        spread: dict = {}
        for n, m in states.items():
            value = Fraction(num * n, dnm * scale)
            if t == model.horizon or rule.markov(t, value):
                mass = Fraction(m, wscale)
                prev = law.get(value)
                law[value] = mass if prev is None else prev + mass
                continue
            for a, w in moves:
                nxt = n * a
                spread[nxt] = spread.get(nxt, 0) + m * w
        states = spread
        scale *= den
        wscale *= wden
    return law


def stopped_p_law(model: ProcessModel, rule: StoppingRule) -> PValueLaw:
    """The law of the p-value 1/M_tau: atoms at 1/v for the values v of
    :func:`stopped_law` (inf for v = 0), each mass over the masses' exact
    total, which is 1 unless float factor probabilities sum to 1 only within
    TOL.  Its post-hoc statistic is E[M_tau], ``cdf(alpha)`` is
    P(M_tau >= 1/alpha), and its classical statistic is Markov's best bound
    sup_{c > 1} c P(M_tau >= c)."""
    law = stopped_law(model, rule)
    total = sum(law.values())
    return PValueLaw([(recip(v), m if total == 1 else m / total)
                      for v, m in law.items()])


def stopped_mean(model: ProcessModel, rule: StoppingRule) -> Fraction:
    """E[M_tau], exactly: the post-hoc statistic of :func:`stopped_p_law`."""
    return Fraction(check_posthoc_validity(stopped_p_law(model, rule)).statistic)


def sup_stopped_mean(model: ProcessModel) -> Fraction:
    """sup of E[M_tau] over all stopping times tau <= T, exactly:
    M_0 * max(1, E[Z])^T.

    This is the Snell envelope of an i.i.d. product: for E[Z] > 0,
    M_t E[Z]^-t is a martingale, so E[M_tau] <= M_0 when E[Z] <= 1 and
    E[M_tau] <= E[M_T] when E[Z] > 1 (and Z = 0 a.s. when E[Z] = 0), and
    tau = 0 or tau = T attains the bound.
    """
    mean = sum(Fraction(z) * Fraction(p) for z, p in
               zip(model.multiplier.outcomes, model.multiplier.probs))
    return Fraction(model.initial) * max(Fraction(1), mean) ** model.horizon


def ville_tail(model: ProcessModel, alpha: Number) -> Fraction:
    """P(max_{t <= T} M_t >= 1/alpha), exactly: the left side of Ville's
    inequality, at most alpha * M_0 for a nonnegative supermartingale.

    Stopping at the first t with M_t >= 1/alpha, or at T, leaves
    M_tau >= 1/alpha on exactly the paths whose running maximum reaches
    1/alpha, so the tail is ``cdf(alpha)`` of :func:`stopped_p_law` under
    that hitting rule; no running-maximum state is needed.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    alpha = Fraction(alpha)
    law = stopped_p_law(model, StoppingRule.hitting_time(1 / alpha))
    return Fraction(law.cdf(alpha))


def _at_most_initial(model: ProcessModel, mean: Fraction, equal=False) -> bool:
    """The one verdict on a stopped mean, E[M_tau] <= M_0 (= M_0 when
    ``equal``), exact on exact inputs.  Float inputs pass the moment check
    with E[Z] within TOL of 1, which moves any E[M_tau] by at most
    M_0((1 + TOL)^T - 1): there the gap may reach that slack plus TOL."""
    z, slack = model.multiplier, 0.0
    if any(isinstance(x, float) for x in (model.initial, *z.outcomes, *z.probs)):
        slack = TOL + float(model.initial) * math.expm1(
            model.horizon * math.log1p(TOL))
    gap = mean - Fraction(model.initial)
    return (abs(gap) if equal else gap) <= slack


def _require_samples(n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")


class VilleReport(Record):
    rule: str
    kind: str
    n: None  # the mean is exact, drawn from no sample
    mean: float
    se: float
    initial: float
    valid: bool
    detail: str
    method: str  # "exact"
    mean_exact: str  # fmt_number of the exact mean

    def __bool__(self) -> bool:
        return self.valid

    def to_dict(self) -> dict:
        return {
            "rule": self.rule, "kind": self.kind, "method": self.method,
            "n": self.n, "mean": self.mean, "mean_exact": self.mean_exact,
            "se": self.se, "initial": self.initial,
            "valid": self.valid, "detail": self.detail,
        }


def _stopped_row(model: ProcessModel, rule: StoppingRule, equal=False) -> dict:
    """The method, n, mean, mean_exact, se and valid fields of a report row
    on the exact E[M_tau], valid by :func:`_at_most_initial`."""
    exact = stopped_mean(model, rule)
    return {"method": "exact", "n": None, "mean": float_ext(exact),
            "mean_exact": fmt_number(exact), "se": 0.0,
            "valid": _at_most_initial(model, exact, equal)}


def ville_equality_check(model: ProcessModel, rule: StoppingRule,
                         n: int, seed: int) -> VilleReport:
    """Optional-stopping check of E[M_tau] against M_0, exactly.

    A martingale is valid iff E[M_tau] equals M_0 and a supermartingale iff
    it is at most M_0, within a float slack only when an input is a float.
    ``n`` must be at least 1; ``n`` and ``seed`` select no sample, since
    nothing is simulated, and stay for the callers that pass them.
    """
    _require_samples(n)
    equal = model.kind == MARTINGALE
    detail = ("optional stopping equality, exact" if equal
              else "stopped mean bounded by the initial value, exact")
    return VilleReport(rule.name, model.kind, initial=float(model.initial),
                       detail=detail, **_stopped_row(model, rule, equal))


def anytime_validity_check(models, rules: Sequence[StoppingRule],
                           n: int, seed: int) -> dict:
    """Anytime validity, E[M_tau] <= M_0 for every stopping time tau <= T,
    checked exactly for each hypothesis member.

    ``models`` is a ProcessModel or a mapping member-name -> ProcessModel.
    ``valid`` comes from :func:`sup_stopped_mean`, the supremum over all
    stopping times, reported per member as ``sup_all_stopping_times``.
    A battery of rules can pass falsely, since a process may beat M_0 only
    under a rule the battery lacks; this bound cannot.  The battery's rows
    stay in the report as evidence, each with its exact E[M_tau].  ``n``
    and ``seed`` are taken as :func:`ville_equality_check` takes them.
    """
    _require_samples(n)
    if not rules:
        raise ValueError("at least one stopping rule required")
    if isinstance(models, ProcessModel):
        models = {"null": models}
    rows, sups, valid = [], {}, True
    for name, model in models.items():
        sup = sup_stopped_mean(model)
        sups[name] = fmt_number(sup)
        valid = valid and _at_most_initial(model, sup)
        rows += [{"member": name, "rule": rule.name, **_stopped_row(model, rule)}
                 for rule in rules]
    return {"valid": valid, "sup_mean": max([r["mean"] for r in rows], default=None),
            "sup_all_stopping_times": sups, "rows": rows}


# ---------------------------------------------------------------------------
# fixtures


def martingale_fixture(horizon: int = 50) -> ProcessModel:
    z = DiscreteSpace((Fraction(1, 2), Fraction(3, 2)),
                      (Fraction(1, 2), Fraction(1, 2)))
    return ProcessModel(1, z, MARTINGALE, horizon)


def supermartingale_fixture(horizon: int = 50) -> ProcessModel:
    z = DiscreteSpace((Fraction(1, 2), Fraction(7, 5)),
                      (Fraction(1, 2), Fraction(1, 2)))
    return ProcessModel(1, z, SUPERMARTINGALE, horizon)


def invalid_eprocess_fixture(horizon: int = 50) -> ProcessModel:
    """Declared EPROCESS but E[Z] = 1.1: anytime validity must fail."""
    z = DiscreteSpace((Fraction(3, 5), Fraction(8, 5)),
                      (Fraction(1, 2), Fraction(1, 2)))
    return ProcessModel(1, z, EPROCESS, horizon)
