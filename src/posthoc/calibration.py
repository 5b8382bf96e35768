"""Power-mean certainty equivalents and h-validity.

rho_h interpolates between the essential infimum (h = -inf), harmonic mean
(h = -1), geometric mean (h = 0), arithmetic mean (h = 1, the classical
e-value condition) and essential supremum (h = +inf).  h = 1 is the smallest
index whose validity still implies classical validity of the induced test
family; :func:`minimal_h_counterexample` exhibits the failure below it.
"""
from __future__ import annotations

from fractions import Fraction

from ._numbers import Number, pow_ext, power_mean, recip, within
from ._record import Record
from .core import (
    _EVIDENCE_AND_H,
    DiscreteSpace,
    E_SCALE,
    EvidenceVariable,
    Hypothesis,
    TestFunction,
    check_classical_validity,
    law_of,
    shared_outcomes,
)


def h_mean(ev: EvidenceVariable, h: Number, H: Hypothesis) -> Number:
    """sup over hypothesis members of the h-generalized mean of the e-value."""
    shared_outcomes([ev, H], _EVIDENCE_AND_H)
    e = ev.as_scale(E_SCALE).values
    return max([power_mean([e[x] for x in m.outcomes], m.probs, h) for m in H.members])


def check_h_validity(ev: EvidenceVariable, h: Number, H: Hypothesis) -> bool:
    return within(h_mean(ev, h, H))


def size_difference_validity(tf: TestFunction, H: Hypothesis) -> bool:
    """Expected size-difference control: holds iff inf over members of E[p]
    is at least 1, i.e. the e-value is harmonic (h = -1 valid)."""
    shared_outcomes([tf.p, H], _EVIDENCE_AND_H)
    worst = min(m.expectation(lambda x: tf.p[x]) for m in H.members)
    return within(1, worst)


class MinimalHCounterexample(Record):
    """An e-value that is h-valid yet induces a classically invalid test."""

    ev: EvidenceVariable
    space: DiscreteSpace
    h: Number
    q: Number
    magnitude: Number        # the single positive value M
    rho_h: Number
    classical_sup: Number    # sup_alpha P(p <= alpha)/alpha of the induced test


def minimal_h_counterexample(h: Number, q: Number) -> MinimalHCounterexample:
    """Binary e-value M * 1{hit} with M = q^(-1/h), for 0 < h < 1.

    Then rho_h(e) = (q M^h)^(1/h) = 1 while the induced test family has
    classical size sup q*M = q^(1 - 1/h) > 1.  For h <= 0 the two-point
    construction degenerates (rho_h = 0), so the h = 1/2 witness is reused:
    by generalized-mean monotonicity it is still h-valid, and it is still
    classically invalid.
    """
    if h != h:
        raise ValueError("h must be a number, got nan")
    if h >= 1:
        raise ValueError("no counterexample exists for h >= 1")
    if not (0 < q < 1):
        raise ValueError("q must lie strictly between 0 and 1")
    build_h = h if 0 < h < 1 else Fraction(1, 2)
    magnitude = pow_ext(q, -recip(build_h) if isinstance(build_h, (int, Fraction))
                        else -1.0 / build_h)
    space = DiscreteSpace(("hit", "miss"), (q, 1 - q))
    ev = EvidenceVariable({"hit": magnitude, "miss": 0}, E_SCALE)
    hyp = Hypothesis.simple(space)
    rho = h_mean(ev, h, hyp)
    classical = check_classical_validity(law_of(ev, space)).statistic
    return MinimalHCounterexample(
        ev=ev, space=space, h=h, q=q,
        magnitude=magnitude, rho_h=rho, classical_sup=classical,
    )
