"""Combination rules for post-hoc p-values, e-values, and p-functions.

Independent inputs merge by pointwise product (declared structurally via a
product-space construction); arbitrarily dependent inputs merge by weighted
harmonic mean on the p-scale, by product on the geometric (h = 0) scale, or
by weighted power mean on the e^h scale.  The p-function product requires a
joint shape condition; its failure for properly randomized inputs is
witnessed by the smallest diverging copy count.  A family of tests merges
into its union test (FWER) or its average rejection proportion (FDR).
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from ._numbers import Number, checked_weights, is_inf, power_mean, product0
from ._record import Record
from .core import (
    DiscreteSpace,
    E_SCALE,
    EvidenceVariable,
    P_SCALE,
    TestFunction,
    shared_outcomes,
)
from .pfunctions import (
    PFunction,
    RandomizedTestFunction,
    TCurve,
    _shape_and_product,
    harmonic_combine,
    product_combine,
    product_merge_failure_witness,
)

__all__ = [
    "merge_product_independent",
    "merge_harmonic",
    "merge_geometric",
    "merge_h_mean",
    "merge_pfunctions_harmonic",
    "merge_pfunctions_product",
    "product_merge_failure_witness",
    "ShapeConditionError",
    "TestFamilyCollection",
    "fwer_merge",
    "fdr_average",
]


# the outcome-set message of the merges; their inputs are evidence
# variables, p-functions or the p-values of tests
_SHARED = "inputs must share a common outcome set"


def _check_weights(weights: Sequence[Number], n: int) -> tuple:
    weights = tuple(weights)
    if len(weights) != n:
        raise ValueError("one weight per input required")
    return checked_weights(weights, "weights")


def merge_product_independent(components: Sequence):
    """Product of independent evidence variables.

    Independence is declared structurally: each input is an
    (EvidenceVariable, DiscreteSpace) pair and the merge is performed on the
    product space.  Returns (merged EvidenceVariable on E_SCALE, product
    DiscreteSpace with tuple outcomes).
    """
    components = list(components)
    if not components:
        raise ValueError("at least one component required")
    for component in components:
        shared_outcomes(component, "evidence variable does not match its space")
    es = [ev.as_scale(E_SCALE) for ev, _ in components]
    spaces = [space for _, space in components]
    outcomes, probs, values = [], [], {}
    for combo in itertools.product(*(s.outcomes for s in spaces)):
        outcomes.append(combo)
        probs.append(product0([s.prob(x) for s, x in zip(spaces, combo)]))
        values[combo] = product0([ev[x] for ev, x in zip(es, combo)])
    return (EvidenceVariable(values, E_SCALE),
            DiscreteSpace(tuple(outcomes), tuple(probs)))


def merge_harmonic(evs: Sequence[EvidenceVariable],
                   weights: Sequence[Number]) -> EvidenceVariable:
    """Weighted harmonic mean on the p-scale: p = 1 / sum_i w_i / p_i.

    Valid under arbitrary dependence whenever each input is post-hoc valid.
    It is :func:`power_mean` at h = -1 on the p-scale.
    """
    outcomes = shared_outcomes(evs, _SHARED)
    weights = _check_weights(weights, len(evs))
    ps = [ev.as_scale(P_SCALE).values for ev in evs]
    return EvidenceVariable(
        {x: power_mean([p[x] for p in ps], weights, -1) for x in outcomes},
        P_SCALE)


def merge_geometric(evs: Sequence[EvidenceVariable]) -> EvidenceVariable:
    """Pointwise product on the e-scale; preserves geometric (h = 0)
    validity under arbitrary dependence."""
    outcomes = shared_outcomes(evs, _SHARED)
    es = [ev.as_scale(E_SCALE).values for ev in evs]
    return EvidenceVariable({x: product0([e[x] for e in es]) for x in outcomes},
                            E_SCALE)


def merge_h_mean(evs: Sequence[EvidenceVariable], weights: Sequence[Number],
                 h: Number) -> EvidenceVariable:
    """Weighted power mean on the e^h scale: (sum_i w_i e_i^h)^(1/h).

    h = 0 is the weighted geometric mean prod e_i^(w_i); see
    :func:`power_mean` for the conventions at 0 and inf (it raises when 0
    and inf both carry weight at h = 0).  Preserves h-validity under
    arbitrary dependence.
    """
    outcomes = shared_outcomes(evs, _SHARED)
    weights = _check_weights(weights, len(evs))
    es = [ev.as_scale(E_SCALE).values for ev in evs]
    return EvidenceVariable(
        {x: power_mean([e[x] for e in es], weights, h) for x in outcomes},
        E_SCALE)


def merge_pfunctions_harmonic(pfs: Sequence[PFunction],
                              weights: Sequence[Number]) -> PFunction:
    """Pointwise-in-u weighted harmonic mean of p-functions."""
    weights = _check_weights(weights, len(pfs))
    outcomes = shared_outcomes(pfs, _SHARED)
    return PFunction({
        x: harmonic_combine([pf[x] for pf in pfs], weights)
        for x in outcomes
    })


class ShapeConditionError(ValueError):
    """Raised when the product-merge shape condition fails; carries the
    witness u and the worst value of u * prod_i p_i(1)/p_i(u).

    A witness below the float range is a point 2^-k and is shown so; None
    means the condition fails only below 2^-65536, as u -> 0+.
    """

    def __init__(self, witness_u, worst):
        self.witness_u = witness_u
        self.worst = worst
        if witness_u is None:
            where = "as u -> 0+"
        elif float(witness_u) == 0:
            where = f"at u = 2^-{witness_u.denominator.bit_length() - 1}"
        else:
            where = f"at u = {witness_u}"
        super().__init__(
            f"shape condition violated {where}: "
            f"u * prod p_i(1)/p_i(u) = {worst} > 1")


def merge_pfunctions_product(pfs: Sequence[PFunction]) -> PFunction:
    """Pointwise product of independent p-functions.

    Requires the joint shape condition prod_i p_i(1)/p_i(u) <= 1/u for every
    u in (0, 1] and every outcome; violated inputs are rejected with a
    witness u.
    """
    products = {}
    for x in shared_outcomes(pfs, _SHARED):
        curves = [pf[x] for pf in pfs]
        ok, witness, worst, prod = _shape_and_product(curves)
        if not ok:
            raise ShapeConditionError(witness, worst)
        # the check's product, unless a curve inf at 1 dropped out of it
        products[x] = product_combine(curves) if prod is None else prod
    return PFunction(products)


# ---------------------------------------------------------------------------
# test families


class TestFamilyCollection(Record):
    """Finite family of test functions on a common outcome set."""

    __test__ = False  # not a pytest class despite the name

    members: tuple

    def __init__(self, members: Sequence[TestFunction]):
        members = tuple(members)
        shared_outcomes([tf.p for tf in members], _SHARED)
        object.__setattr__(self, "members", members)

    @property
    def outcomes(self) -> tuple:
        return self.members[0].p.outcomes


def fwer_merge(fam: TestFamilyCollection) -> TestFunction:
    """Union test phi-bar(alpha) = sup_i phi_i(alpha), i.e. the pointwise
    minimum p-value (equivalently the pointwise maximum e-value)."""
    merged = {x: min(tf.p[x] for tf in fam.members) for x in fam.outcomes}
    return TestFunction(EvidenceVariable(merged, P_SCALE))


def fdr_average(fam: TestFamilyCollection,
                weights: Sequence[Number] | None = None) -> RandomizedTestFunction:
    """Weighted average phi-tilde(alpha) = sum_i w_i 1{p_i <= alpha}: the
    expected rejection proportion as a randomized test function."""
    k = len(fam.members)
    if weights is None:
        weights = [Fraction(1, k)] * k
    weights = _check_weights(weights, k)
    curves = {}
    for x in fam.outcomes:
        segs, level = [], 0
        for p, w in sorted((tf.p[x], w) for tf, w in zip(fam.members, weights)
                           if not is_inf(tf.p[x])):
            level = level + w
            if segs and segs[-1][0] == p:
                segs.pop()  # the jumps are sorted: an equal one replaces it
            segs.append((p, min(level, 1), 0))
        curves[x] = TCurve(segs)
    return RandomizedTestFunction(curves)
