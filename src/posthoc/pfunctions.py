"""Randomized test functions and p-functions.

A p-function is the quantile transform of a randomized test function; the
two are linked by the Galois adjunction tf(alpha) >= u <=> p(u) <= alpha.
Per outcome, a p-function is stored piecewise on (0, 1] with each piece in
reciprocal power-sum form

    p(u) = 1 / sum_j a_j * u^(-g_j),      a_j > 0, g_j >= 0,

which is automatically nondecreasing in u, covers step functions (g = 0),
uniform randomization (p * u), the u^(1/n) shapes, and is closed under both
harmonic and product merging.  An empty term list encodes the value +inf
(never rejecting with that probability).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add
from typing import Iterable, Mapping, Sequence

from ._numbers import (
    EXACT_TYPES,
    INF,
    TOL,
    Number,
    at_most,
    is_inf,
    mul0,
    pow_ext,
    recip,
    within,
)
from ._record import Record, _set
from .core import (
    _EVIDENCE_AND_H,
    E_SCALE,
    EvidenceVariable,
    Hypothesis,
    P_SCALE,
    TestFunction,
    ValidityReport,
    shared_outcomes,
)


# ---------------------------------------------------------------------------
# per-outcome curves


class PCurve(Record):
    """One outcome's p-function on (0, 1]: nondecreasing, and
    left-continuous on each piece (u_lo, u_hi].

    The constructor sorts the pieces by breakpoint and checks that p, at
    the ends of each piece, never falls (within :func:`_close`); a power
    piece must also have a float inverse (:func:`_check_inverse`).  A
    piece's terms given as a tuple of pairs are kept, not copied, so the
    flat pieces of step curves share the term tuples of the flat-level
    table (:func:`_flat`).
    """

    __slots__ = ("segments",)

    segments: tuple  # ((u_hi, terms), ...); terms = ((a, g), ...)

    def __init__(self, segments: Iterable):
        segs = []
        for u_hi, terms in segments:
            # a tuple of pairs is kept as it is, so curves share the
            # flat-level table's terms
            if type(terms) is not tuple or not all(
                    [type(t) is tuple and len(t) == 2 for t in terms]):
                terms = tuple([(a, g) for a, g in terms])
            for a, g in terms:
                # an exact number has the sign of its numerator, and an int
                # comparison skips Fraction's ABC checks; nan fails both
                if not (a.numerator if type(a) in EXACT_TYPES else a) > 0:
                    raise ValueError("term coefficients must be positive")
                if not (g.numerator if type(g) in EXACT_TYPES else g) >= 0:
                    raise ValueError("term powers must be nonnegative")
            segs.append((u_hi, terms))
        if not segs:
            raise ValueError("p-curve needs at least one segment")
        segs.sort(key=lambda s: s[0])
        if segs[-1][0] != 1:
            raise ValueError("segments must cover (0, 1]")
        u_lo = 0
        for u_hi, _ in segs:
            if not u_hi > u_lo:  # also true for nan
                raise ValueError("segment breakpoints must strictly increase")
            u_lo = u_hi
        prev_end = None
        u_lo = 0
        for u_hi, terms in segs:
            end = _eval_terms(terms, u_hi)
            start = end if u_lo == 0 else _eval_terms(terms, u_lo)
            if prev_end is not None and start < prev_end and not _close(start, prev_end):
                raise ValueError("p-curve must be nondecreasing in u")
            if len(terms) == 1 and terms[0][1] != 0:  # a power piece
                _check_inverse(recip(terms[0][0]), terms[0][1], u_lo, u_hi)
            prev_end = end
            u_lo = u_hi
        _set(self, "segments", tuple(segs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, p: Number) -> "PCurve":
        return cls([(1, _level_terms(p))])

    @classmethod
    def power(cls, coef: Number, power: Number) -> "PCurve":
        """p(u) = coef * u^power on all of (0, 1]."""
        return cls([(1, () if is_inf(coef) else ((recip(coef), power),))])

    @classmethod
    def steps(cls, pairs: Sequence) -> "PCurve":
        """Pure step function from (u_hi, level) pairs; last u_hi must be 1."""
        return cls([(u_hi, _level_terms(v)) for u_hi, v in pairs])

    # -- queries -------------------------------------------------------------

    def value(self, u: Number) -> Number:
        if not (0 < u <= 1):
            raise ValueError("u must lie in (0, 1]")
        u_lo = 0
        for u_hi, terms in self.segments:
            if u_lo < u <= u_hi:
                return _eval_terms(terms, u)
            u_lo = u_hi
        raise AssertionError("unreachable: segments cover (0, 1]")

    def head(self) -> Number:
        """p(1), the non-randomized p-value this curve dominates."""
        return _eval_terms(self.segments[-1][1], 1)

    def is_constant(self) -> bool:
        if len(self.segments) > 1:
            first = self.segments[0][1]
            if any(terms != first for _, terms in self.segments):
                return False
        return all(g == 0 for _, terms in self.segments for _, g in terms)

    def breakpoints(self) -> list:
        return [u_hi for u_hi, _ in self.segments]

    def statistic(self) -> Number:
        """sup over u of u / p(u), including the u -> 0+ limit.

        Exact: on each piece u / p(u) has no interior maximum (see
        :func:`_sup_ratio`), so only piece ends and the limit are compared.
        """
        best = 0
        u_lo = 0
        for u_hi, terms in self.segments:
            best = max(best, _sup_ratio(terms, u_lo, u_hi))
            u_lo = u_hi
        return best

    # -- algebra ---------------------------------------------------------------

    def scaled(self, factor: Number) -> "PCurve":
        """Pointwise factor * p(u)."""
        if is_inf(factor):
            return PCurve([(1, ())])
        inv = recip(factor)
        return PCurve([
            (u_hi, tuple((a * inv, g) for a, g in terms))
            for u_hi, terms in self.segments
        ])


# The bound of the flat-level table.  On CPython 3.10-3.13 an entry holds
# about 500 B for a level of word-sized ints (its two Fractions, its
# tuples, the key and the cache's link), more only by the size of larger
# ints, so a full table holds about 2.1 MB.
_FLAT_LEVELS = 4096


@lru_cache(maxsize=_FLAT_LEVELS)
def _flat(n: int, d: int) -> tuple:
    """The exact level n/d as a ``Fraction`` and the terms ((d/n, 0),) of
    its flat piece, ((inf, 0),) for the level 0: the one place where an
    exact flat piece's reciprocal is made.  Step curves, their test
    functions and the transforms' flat pieces all read a level here, so
    each level in the table is one ``Fraction`` and one term tuple however
    many curves hold it."""
    return Fraction(n, d), ((Fraction(d, n) if n else INF, 0),)


def _level_terms(p: Number) -> tuple:
    """The terms of the flat piece p(u) = p: none for p = inf.  An int or
    ``Fraction`` level's terms are :func:`_flat`'s shared tuple; a float
    level's are made here."""
    if type(p) in EXACT_TYPES:
        return _flat(*p.as_integer_ratio())[1]
    return () if is_inf(p) else ((recip(p), 0),)


def _close(a: Number, b: Number) -> bool:
    """a == b, up to a relative 1e-9 when either is a float: the tolerance
    absorbs float rounding, and exact values have none."""
    if type(a) in EXACT_TYPES and type(b) in EXACT_TYPES:
        return a == b
    if is_inf(a) or is_inf(b):
        return is_inf(a) and is_inf(b)
    return abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(b)))


def _eval_terms(terms, u: Number) -> Number:
    """p(u) = 1 / sum a * u^(-g); the sum starts at its first term, as
    0 + Fraction takes Fraction's slow reflected addition.  An exact flat
    piece's value is its level in :func:`_flat`'s table."""
    if not terms:
        return INF
    if len(terms) == 1 and terms[0][1] == 0 and type(terms[0][0]) in EXACT_TYPES:
        n, d = terms[0][0].as_integer_ratio()
        return _flat(d, n)[0]
    return recip(reduce(add, (a if g == 0 else mul0(a, pow_ext(u, -g))
                              for a, g in terms)))


def _ratio_terms(terms, u: Number) -> Number:
    """u / p(u) = sum a * u^(1-g)."""
    if not terms:
        return 0
    return reduce(add, (mul0(a, pow_ext(u, 1 - g)) for a, g in terms))


def _sup_ratio(terms, u_lo: Number, u_hi: Number) -> Number:
    """sup of f(u) = sum_j a_j u^(1-g_j) on (u_lo, u_hi], exactly.

    With a_j > 0, f'(u) = sum_j a_j (1-g_j) u^(-g_j) has coefficients that,
    in order of increasing exponent -g_j, are negative (g_j > 1), zero
    (g_j = 1), then positive (g_j < 1): at most one sign change.  By
    Laguerre's extension of Descartes' rule of signs to real exponents,
    f' then has at most one root on u > 0, where it can only turn from -
    to +.  So f falls and then rises, has no interior maximum, and its
    supremum is the larger of f(u_hi) and the limit at u_lo: f(u_lo) when
    u_lo > 0, and as u -> 0+ inf if some g_j > 1, else the sum of the a_j
    with g_j = 1.
    """
    if not terms:
        return 0
    if u_lo > 0:
        low = _ratio_terms(terms, u_lo)
    elif any(g > 1 for _, g in terms):
        return INF
    else:
        low = sum(a for a, g in terms if g == 1)
    return max(_ratio_terms(terms, u_hi), low)


class TCurve(Record):
    """One outcome's randomized test function: cadlag, nondecreasing, [0, 1].

    Segments are (alpha_lo, coef, power): value coef * alpha^power on
    [alpha_lo, next alpha_lo), with value 0 before the first breakpoint and
    the final segment extending to infinity.  The constructor sorts them
    and checks that the value never falls and stays in [0, 1] (within
    :func:`_close`) and that a power piece has a float inverse
    (:func:`_check_inverse`).
    """

    __slots__ = ("segments",)

    segments: tuple

    def __init__(self, segments: Iterable):
        segs = sorted([(alo, c, m) for alo, c, m in segments], key=lambda s: s[0])
        prev_end = 0
        for j, (alo, c, m) in enumerate(segs):
            # written so that nan fails the sign checks
            if not alo >= 0:
                raise ValueError("alpha breakpoints must be nonnegative")
            if not (c >= 0 and m >= 0):
                raise ValueError("segment value must be nondecreasing in alpha")
            if m == 0:  # flat piece: no powers to take
                start = end = c
            else:
                a_hi = segs[j + 1][0] if j + 1 < len(segs) else INF
                start = mul0(c, pow_ext(alo, m))
                end = mul0(c, pow_ext(a_hi, m))
            if start < prev_end and not _close(start, prev_end):
                raise ValueError("test function must be nondecreasing in alpha")
            if end > 1 and not _close(end, 1):
                raise ValueError("test function values must stay within [0, 1]")
            if m != 0 and c > 0:  # the power piece that the transform inverts
                _check_inverse(c, m, alo, a_hi)
            prev_end = end
        _set(self, "segments", tuple(segs))

    @classmethod
    def indicator(cls, p: Number) -> "TCurve":
        """The non-randomized test 1{p <= alpha}."""
        if is_inf(p):
            return cls([])
        return cls([(p, 1, 0)])

    def value(self, alpha: Number) -> Number:
        if not alpha > 0:  # also true for nan
            raise ValueError("alpha must be positive")
        current = 0
        for alo, c, m in self.segments:
            if alpha < alo:
                break
            current = mul0(c, pow_ext(alpha, m))
        return min(current, 1)

    def breakpoints(self) -> list:
        return [alo for alo, _, _ in self.segments if alo > 0]

    def statistic(self) -> Number:
        """sup over alpha of tf(alpha)/alpha; exact (each piece is monotone)."""
        best = 0
        for i, (alo, c, m) in enumerate(self.segments):
            a_hi = self.segments[i + 1][0] if i + 1 < len(self.segments) else INF
            if alo > 0:
                best = max(best, mul0(c, pow_ext(alo, m)) / alo)
            elif m == 1:
                best = max(best, c)
            elif m < 1 and c > 0:
                return INF
            if not is_inf(a_hi) and a_hi > 0:
                best = max(best, mul0(c, pow_ext(a_hi, m)) / a_hi)
            elif m == 1:
                best = max(best, c)
        return best


# ---------------------------------------------------------------------------
# outcome-indexed wrappers


class _OutcomeCurves(Record):
    """One curve per outcome."""

    __slots__ = ("curves",)

    curves: Mapping

    def __init__(self, curves: Mapping):
        _set(self, "curves", dict(curves))

    def __getitem__(self, outcome):
        return self.curves[outcome]

    @property
    def outcomes(self) -> tuple:
        return tuple(self.curves)

    def to_rows(self) -> list:
        """Plot-ready (outcome, point, value) rows sampled at breakpoints."""
        return [(x, float(t), float(curve.value(t)))
                for x, curve in self.curves.items() for t in curve.breakpoints()]


class PFunction(_OutcomeCurves):
    """Per-outcome p-function (quantile representation of a randomized test)."""

    __slots__ = ()

    def is_randomized(self) -> bool:
        return not all(c.is_constant() for c in self.curves.values())


class RandomizedTestFunction(_OutcomeCurves):
    """Per-outcome randomized test function."""

    __slots__ = ()

    @classmethod
    def from_test_function(cls, tf: TestFunction) -> "RandomizedTestFunction":
        return cls({x: TCurve.indicator(tf.p[x]) for x in tf.p.outcomes})


# ---------------------------------------------------------------------------
# Galois transforms (single power term per piece)


def _single_term(terms):
    if len(terms) != 1:
        raise ValueError("Galois transforms need one power term per piece")
    return terms[0]


def _inverse(c: Number, g: Number) -> tuple:
    """(coef, power) of the inverse (v / c)^(1/g) = coef * v^power of the
    power piece v = c * u^g."""
    power = recip(g)
    return pow_ext(recip(c), power), power


def _check_inverse(c: Number, g: Number, u_lo: Number, u_hi: Number) -> None:
    """``ValueError`` unless the :func:`_inverse` of v = c * u^g on (u_lo,
    u_hi] gives both ends back within :func:`_close`, as a test function
    (coef * v^(1/g)) and as a p-curve (1 / ((1 / coef) * v^-(1/g)))
    evaluates it, with :func:`pow_ext` and :func:`mul0` on any operands:
    in floats it scales the rounding of v by 1/g, and coef can overflow.
    u = 0 needs no inverse.  Run by the constructors, not the transforms."""
    coef, power = _inverse(c, g)
    for u in (u_lo, u_hi):
        v = mul0(c, pow_ext(u, g))
        if u > 0 and not (_close(mul0(coef, pow_ext(v, power)), u)
                          and _close(_eval_terms(((recip(coef), power),), v), u)):
            raise ValueError("a power piece has no inverse within float rounding")


def _built(cls, segments):
    """A ``PCurve`` or ``TCurve`` on a transform's segments without the
    constructor's re-check, which cannot fail on a flat output: the input
    passed it, the loop keeps breakpoints strictly increasing, and the
    levels are the input's own breakpoints or levels.  The segments are
    new; an exact flat level and its terms are the flat-level table's
    (:func:`_flat`), shared by every curve that reads that level there."""
    curve = object.__new__(cls)
    _set(curve, "segments", tuple(segments))
    return curve


def _pcurve_to_tcurve(pc: PCurve) -> TCurve:
    """tf(alpha) = sup{u : p(u) <= alpha} of one curve.

    Each piece adds segments at breakpoints that follow p, so they never
    fall, save by a float dip within tolerance.  A new segment holds from
    its breakpoint on: it replaces each earlier one whose breakpoint is at
    least its own (:func:`at_most`).  A flat curve's output is
    :func:`_built`; a power piece keeps the check, which a rounded float
    power can fail."""
    out = []
    u_lo = 0
    unchecked = True
    for u_hi, terms in pc.segments:
        if not terms:
            break  # p = inf: the test never climbs past u_lo
        a, g = _single_term(terms)
        # p(u) = c * u^g: a flat piece's c is its value
        c = _eval_terms(terms, u_hi) if g == 0 else recip(a)
        v_hi = c  # p(u_hi), where the test reaches u_hi
        if g != 0:
            # inverted piece on [v_lo, v_hi), then flat at u_hi from v_hi
            unchecked = False
            v_lo = mul0(c, pow_ext(u_lo, g)) if u_lo > 0 else 0
            while out and at_most(v_lo, out[-1][0]):
                out.pop()
            out.append((v_lo, *_inverse(c, g)))
            v_hi = mul0(c, pow_ext(u_hi, g))
        while out and at_most(v_hi, out[-1][0]):
            out.pop()
        out.append((v_hi, u_hi, 0))
        u_lo = u_hi
    return _built(TCurve, out) if unchecked else TCurve(out)


def _tcurve_to_pcurve(tc: TCurve) -> PCurve:
    """p(u) = inf{alpha : tf(alpha) >= u} of one curve.

    Each level above the last one (:func:`at_most`) adds a piece, on which
    p is the jump point; a jump at alpha = inf adds the piece p = inf.  A
    flat curve's output is :func:`_built`; a power piece, whose float level
    can round past 1, keeps the check.
    """
    out = []
    u_cur = 0  # the last level
    unchecked = True
    for i, (alo, c, m) in enumerate(tc.segments):
        if m == 0:
            level = c if at_most(c, 1) else 1  # min(c, 1)
            if not at_most(level, u_cur):
                out.append((level, _level_terms(alo)))
                u_cur = level
        elif c:  # a power piece; a zero one adds no level
            unchecked = False
            # a level past 1 is within the constructor's tolerance, and
            # capping it only lowers tf
            v_lo = min(mul0(c, pow_ext(alo, m)), 1)
            if not at_most(v_lo, u_cur):
                # jump of the test at alo covers p(u) = alo on (u_cur, v_lo]
                out.append((v_lo, _level_terms(alo)))
                u_cur = v_lo
            a_hi = tc.segments[i + 1][0] if i + 1 < len(tc.segments) else INF
            v_hi = min(mul0(c, pow_ext(a_hi, m)), 1)
            if not at_most(v_hi, u_cur):
                # invert u = c * alpha^m  =>  alpha = (u/c)^(1/m)
                coef, power = _inverse(c, m)
                out.append((v_hi, ((recip(coef), power),)))
                u_cur = v_hi
    if not at_most(1, u_cur):
        out.append((1, ()))  # never reached: p(u) = inf above the max level
    return _built(PCurve, out) if unchecked else PCurve(out)


def pfunction_of(tf) -> PFunction:
    """Quantile transform of a (randomized) test function."""
    if isinstance(tf, TestFunction):
        tf = RandomizedTestFunction.from_test_function(tf)
    return PFunction({x: _tcurve_to_pcurve(c) for x, c in tf.curves.items()})


def test_function_of(pf: PFunction) -> RandomizedTestFunction:
    """Inverse transform: tf(alpha) = sup{u : p(u) <= alpha}."""
    return RandomizedTestFunction(
        {x: _pcurve_to_tcurve(c) for x, c in pf.curves.items()})


test_function_of.__test__ = False  # not a pytest item despite the name


# ---------------------------------------------------------------------------
# validity and construction


def check_pfunction_posthoc(pf: PFunction, H: Hypothesis) -> ValidityReport:
    """E[sup_u u/p(u)] at most 1, supremum over hypothesis members."""
    shared_outcomes([pf, H], _EVIDENCE_AND_H)
    stats = {x: pf[x].statistic() for x in pf.outcomes}
    worst, worst_i = H.sup_expectation(stats.__getitem__)
    return ValidityReport(
        valid=within(worst),
        statistic=worst,
        witness=worst_i,
        kind="posthoc-pfunction",
        detail="sup over members of E[sup_u u/p(u)]",
    )


def uniform_randomize(p_ev: EvidenceVariable) -> PFunction:
    """p(u) = u * p: the canonical strict improvement of a post-hoc p-value."""
    p = p_ev.as_scale(P_SCALE)
    return PFunction({x: PCurve.power(p[x], 1) for x in p.outcomes})


def soft_test_function(e_ev: EvidenceVariable) -> RandomizedTestFunction:
    """alpha -> (alpha * e) ^ 1: post-hoc valid exactly when e is an e-value."""
    e = e_ev.as_scale(E_SCALE)
    curves = {}
    for x in e.outcomes:
        ex = e[x]
        if ex == 0:
            curves[x] = TCurve([])
        elif is_inf(ex):
            curves[x] = TCurve([(0, 1, 0)])
        else:
            curves[x] = TCurve([(0, ex, 1), (recip(ex), 1, 0)])
    return RandomizedTestFunction(curves)


def p_value_head(pf: PFunction) -> EvidenceVariable:
    """The u = 1 slice, a post-hoc p-value whenever the p-function is valid."""
    return EvidenceVariable({x: pf[x].head() for x in pf.outcomes}, P_SCALE)


# ---------------------------------------------------------------------------
# curve combination (used by merging)


def _refine(curves: Sequence[PCurve]):
    """(u_hi, [each curve's terms on (u_lo, u_hi]]) over the sorted union
    of the breakpoints, advancing one segment index per curve."""
    at = [0] * len(curves)
    for u_hi in sorted({u for c in curves for u in c.breakpoints()}):
        for k, c in enumerate(curves):
            while c.segments[at[k]][0] < u_hi:
                at[k] += 1
        yield u_hi, [c.segments[i][1] for c, i in zip(curves, at)]


def harmonic_combine(curves: Sequence[PCurve], weights: Sequence[Number]) -> PCurve:
    """Pointwise weighted harmonic mean: 1 / sum_i w_i / p_i(u)."""
    return PCurve([
        (u_hi, tuple((w * a, g) for terms, w in zip(active, weights) if w != 0
                     for a, g in terms))
        for u_hi, active in _refine(curves)])


def product_combine(curves: Sequence[PCurve]) -> PCurve:
    """Pointwise product; closed under the reciprocal power-sum form.

    On each piece 1/prod_i p_i = prod_i sum_j a_ij u^(-g_ij) is expanded
    with the coefficients of equal powers added up exactly, and the terms
    are sorted by power: n copies of a two-term curve give n + 1 terms,
    not 2^n.
    """
    out = []
    for u_hi, active in _refine(curves):
        terms = {0: 1}  # power -> coefficient; multiplicative identity p = 1
        for seg in active:
            if not seg:
                terms = {}  # p = inf on this piece
                break
            expanded = {}
            for g1, a1 in terms.items():
                for a2, g2 in seg:
                    g = g1 + g2
                    expanded[g] = expanded.get(g, 0) + a1 * a2
            terms = expanded
        out.append((u_hi, tuple((a, g) for g, a in sorted(terms.items()))))
    return PCurve(out)


def product_shape_condition(curves: Sequence[PCurve]):
    """Check prod_i p_i(1)/p_i(u) <= 1/u on (0, 1], exactly.

    Returns (ok, witness_u, worst_value): the condition is recast as
    F(u) = u * prod_i p_i(1)/p_i(u) <= 1, and worst_value is sup F.  A
    ratio is 1 where p_i(1) = p_i(u) = inf and inf where only p_i(1) is,
    so a curve inf at 1 but not everywhere makes F inf from the first
    breakpoint on.  Curves inf everywhere drop out; the rest are finite
    everywhere (a p-curve is nondecreasing), and on each piece of their
    product P, F = H u / P(u) = H sum_j a_j u^(1-g_j) with H = prod_i
    p_i(1).  :func:`_sup_ratio` takes its supremum from the piece ends
    alone (Laguerre's rule of signs: F falls, then rises), and as P is
    nondecreasing the witness is the breakpoint where it is first reached.
    The verdict sup F <= 1 is :func:`within`: exact for an exact sup F.  If
    F diverges as u -> 0+ and F at the first breakpoint is within 1, the
    witness is a point 2^-k of the first piece where the term of the
    largest power alone exceeds 1 + TOL, and so 1 (None below 2^-65536).
    """
    return _shape_and_product(curves)[:3]


def _shape_and_product(curves: Sequence[PCurve]):
    """:func:`product_shape_condition` and the product of all the curves,
    or None where it built none or a curve inf at 1 dropped out of it."""
    live, head = [], 1
    for c in curves:
        h = c.head()
        if not is_inf(h):
            live.append(c)
            head *= h
        elif any(terms for _, terms in c.segments):
            return False, min(u for c in curves for u in c.breakpoints()), INF, None
    prod = product_combine(live) if live else PCurve.constant(1)
    worst, witness = 0, None
    u_lo = 0
    for u_hi, terms in prod.segments:
        v = head * _sup_ratio(terms, u_lo, u_hi)
        if v > worst:
            worst, witness = v, u_hi
        u_lo = u_hi
    u_hi, first = prod.segments[0]
    if is_inf(worst) and within(head * _ratio_terms(first, u_hi)):
        # k (g-1) ln 2 > ln(1 + TOL) - ln(head * a), with k one above the
        # float bound: a margin of a factor 2^(g-1)
        a, g = max(first, key=lambda t: t[1])
        ha = head * a
        log_ha = (math.log(ha.numerator) - math.log(ha.denominator)
                  if isinstance(ha, Fraction) else math.log(ha))
        bound = (math.log1p(TOL) - log_ha) / (float(g - 1) * math.log(2))
        k = max(math.ceil(-math.log2(u_hi)), math.floor(bound) + 1) + 1
        witness = Fraction(1, 1 << k) if k <= 1 << 16 else None
    full = prod if live and len(live) == len(curves) else None
    return within(worst), witness, worst, full


# the largest n that product_merge_failure_witness tries
WITNESS_MAX_N = 64


def product_merge_failure_witness(pf: PFunction) -> int:
    """Smallest n for which the n-fold product of i.i.d. copies of a properly
    randomized p-function has a post-hoc statistic above 1.

    The copies are deterministic replicas of the per-outcome curves, so the
    statistic is sup_u u / p(u)^n evaluated per outcome (worst case over
    outcomes).
    """
    if not pf.is_randomized():
        raise ValueError("a non-randomized p-function admits no witness")
    for n in range(2, WITNESS_MAX_N + 1):
        worst = 0
        for x in pf.outcomes:
            prod = product_combine([pf[x]] * n)
            worst = max(worst, prod.statistic())
            if is_inf(worst):
                break
        if not within(worst):
            return n
    raise RuntimeError(f"no divergence found up to n = {WITNESS_MAX_N}")
