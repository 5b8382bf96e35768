"""Expected-utility-optimal evidence against a simple null.

For a simple null P versus simple alternative Q and a nondecreasing concave
utility U, the optimal e-value satisfies lambda * f_P/f_Q in dU(e*) Q-a.s.
together with the normalization E_P[e*] = 1 (or lambda = 0).  The log
utility gives the likelihood ratio; power (CRRA) utilities give tilted
likelihood ratios (lambda f_P/f_Q)^(-1/gamma) whose lambda has the closed
form E_P[(f_P/f_Q)^(-1/gamma)]^gamma; the truncated-linear utility
x -> x AND 1/alpha* gives the three-branch post-hoc analogue of the
Neyman-Pearson test.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from ._numbers import (
    INF, Number, at_most, exp_ext, float_ext, is_inf, log_ext, mul0, pow_ext,
    recip,
)
from ._record import Record, _set
from .core import (
    DiscreteSpace, E_SCALE, EvidenceVariable, P_SCALE, dual, shared_outcomes,
)

LOG = "LOG"
POWER = "POWER"
NEYMAN_PEARSON = "NEYMAN_PEARSON"

# |x| bound on the quantile midpoints of gaussian_shift_pair's cells
CLIP = 8.0


class UtilitySpec(Record):
    """Nondecreasing concave utility on [0, inf]."""

    __slots__ = ("kind", "param")

    kind: str
    param: Number

    def __init__(self, kind: str, param: Number = None):
        if kind == LOG:
            if param is not None:
                raise ValueError("LOG takes no parameter")
        elif kind == POWER:
            # gamma is used as a float, so its float must be a valid gamma
            # too (10**400 overflows, 1 + 10**-20 rounds to 1); the chained
            # comparisons also reject nan and inf
            if (param is None or not 0 < param < INF
                    or not 0 < (g := float_ext(param)) < INF or g == 1):
                raise ValueError("POWER needs gamma > 0, gamma != 1")
        elif kind == NEYMAN_PEARSON:
            if param is None or not (0 < param < 1):
                raise ValueError("NEYMAN_PEARSON needs a level in (0, 1)")
        else:
            raise ValueError(f"unknown utility kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "param", param)

    @classmethod
    def log(cls) -> "UtilitySpec":
        return cls(LOG)

    @classmethod
    def power(cls, gamma: Number) -> "UtilitySpec":
        return cls(POWER, gamma)

    @classmethod
    def neyman_pearson(cls, alpha_star: Number) -> "UtilitySpec":
        return cls(NEYMAN_PEARSON, alpha_star)

    def value(self, x: Number) -> float:
        """U(x) for an e-value x in [0, inf].  An exact x past the float
        range or below its normal range, and a float x whose power
        overflows, are taken by :func:`log_ext` and :func:`pow_ext`, so
        the result is a float or +-inf, never an error."""
        if self.kind == LOG:
            return log_ext(x)
        if self.kind == POWER:
            g = float(self.param)
            if x == 0:
                return -math.inf if g > 1 else -1.0 / (1.0 - g)
            if is_inf(x):
                return 1.0 / (g - 1.0) if g > 1 else math.inf
            return (pow_ext(x, 1.0 - g) - 1.0) / (1.0 - g)
        cap = recip(self.param)
        return min(x, cap)


class SimplePair(Record):
    """Simple null P versus simple alternative Q on a common outcome set.

    The constructor derives each outcome's likelihood ratio f_P/f_Q once
    (0/0 is 1, f_Q = 0 is inf) and keeps it, with Q's masses, as private
    non-field tuples aligned with ``P.outcomes``: ``_ratios`` and ``_q``
    (``Q.probs`` itself when Q lists the outcomes in P's order).  The
    design functions read these tables instead of looking masses up per
    outcome; equality, hashing and ``repr`` see only P and Q.

    A nonzero ``Fraction`` f_P over a nonzero float f_Q is taken as
    ``f_P * (1.0 / f_Q)`` with f_P converted on its int pair: the float
    that ``mul0(f_P, recip(f_Q))`` gives through ``Fraction.__mul__``,
    without its ABC dispatch.  Other types take ``mul0``.
    """

    __slots__ = ("P", "Q", "_ratios", "_q")

    P: DiscreteSpace
    Q: DiscreteSpace

    def __init__(self, P: DiscreteSpace, Q: DiscreteSpace):
        shared_outcomes([P, Q], "P and Q must share an outcome set")
        q = (Q.probs if Q.outcomes == P.outcomes
             else tuple(map(Q.prob, P.outcomes)))
        _set(self, "P", P)
        _set(self, "Q", Q)
        _set(self, "_ratios", tuple(map(_ratio, P.probs, q)))
        _set(self, "_q", q)

    def density_ratio(self, outcome) -> Number:
        """f_P/f_Q from the pair's table; 0/0 is reported as 1 (the outcome
        is null under both).  An outcome outside the pair is a
        ``ValueError``."""
        try:
            return self._ratios[self.P._index[outcome]]
        except (KeyError, TypeError):
            raise ValueError(f"unknown outcome {outcome!r}") from None

    def check_mutual_absolute_continuity(self):
        for x, fp, fq in zip(self.P.outcomes, self.P.probs, self._q):
            if (fp == 0) != (fq == 0):
                raise ValueError(
                    f"absolute continuity fails at outcome {x!r}: "
                    f"f_P = {fp}, f_Q = {fq}")


def _ratio(fp: Number, fq: Number) -> Number:
    """f_P/f_Q of one cell for :class:`SimplePair`; masses are finite, so a
    nonzero float f_Q has a float reciprocal."""
    if fq == 0:
        return 1 if fp == 0 else INF
    if type(fq) is float and type(fp) is Fraction:
        # float(fp) as Fraction.__mul__ takes it: its int pair's division
        n, d = fp.as_integer_ratio()
        if n:
            r = (n / d) * (1.0 / fq)
            if r == r:  # nan is 0.0 * inf, which mul0 gives as inf
                return r
    return mul0(fp, recip(fq))


def log_optimal(pair: SimplePair) -> EvidenceVariable:
    """Log-utility optimum: p*(x) = f_P(x)/f_Q(x)."""
    return EvidenceVariable(dict(zip(pair.P.outcomes, pair._ratios)), P_SCALE)


def expected_utility(ev: EvidenceVariable, Q: DiscreteSpace,
                     U: UtilitySpec) -> Number:
    shared_outcomes([ev, Q], "the evidence and Q must share an outcome set")
    e = ev.as_scale(E_SCALE)
    total = 0
    for x, q in zip(Q.outcomes, Q.probs):
        if q == 0:
            continue
        u = U.value(e[x])
        if u == -math.inf:
            return -math.inf
        total = total + q * u if not is_inf(u) else INF
        if is_inf(total):
            return INF
    return total


def utility_optimal(pair: SimplePair, U: UtilitySpec):
    """Maximize E_Q[U(e)] subject to E_P[e] <= 1.

    Returns (e*, lambda).  LOG has the closed form e* = f_Q/f_P with
    lambda = 1; the truncated-linear utility dispatches to the three-branch
    rule of :func:`np_optimal` with lambda the likelihood-ratio threshold.

    POWER(gamma) has e*_lambda = (lambda r)^(-1/gamma) with r = f_P/f_Q, so
    E_P[e*_lambda] = lambda^(-1/gamma) m with m = E_P[r^(-1/gamma)], and
    E_P[e*] = 1 gives lambda = m^gamma and e* = r^(-1/gamma) / m.  Both are
    taken in one pass in the log domain, where a plain sum of r^(-1/gamma)
    would overflow: with a_x = -ln(r_x)/gamma, b_x = ln f_P(x) + a_x and top
    the largest b_x on the P-support, ln m = top + ln sum exp(b_x - top)
    (``math.fsum``), lambda = exp(gamma ln m) and e*(x) = exp(a_x - ln m).
    Taking f_P into the exponent keeps P-masses below the float range.
    r_x = 0 gives e* = inf, and lambda or e* past the float range is inf.
    The support and ln f_P are read off P's lattice ints: ln(key/d) is the
    float :func:`log_ext` gives wherever key/d is a normal float.
    """
    if U.kind == LOG:
        return dual(log_optimal(pair)), 1
    if U.kind == NEYMAN_PEARSON:
        p_star, c = _np_solution(pair, U.param)
        return dual(p_star), c

    g = float(U.param)
    a = [-log_ext(r) / g for r in pair._ratios]
    # ln(f_P r^(-1/gamma)) on the P-support
    d, keys = pair.P._lattice
    normal = sys.float_info.min  # a mass is at most 1: no upper bound
    b = []
    for key, fp, ax in zip(keys, pair.P.probs, a):
        if key != 0:
            f = key / d
            b.append((math.log(f) if f >= normal else log_ext(fp)) + ax)
    top = max(b)
    if top == -INF:
        # f_Q = 0 on the whole P-support: e*_lambda = 0 there for every lambda
        raise RuntimeError(
            "no normalization constant: P and Q are mutually singular")
    log_m = top + math.log(math.fsum(math.exp(v - top) for v in b))
    values = {x: exp_ext(ax - log_m) for x, ax in zip(pair.P.outcomes, a)}
    return EvidenceVariable(values, E_SCALE), exp_ext(g * log_m)


def np_optimal(pair: SimplePair, alpha_star: Number) -> EvidenceVariable:
    """Optimal post-hoc p-value for the utility x -> x AND 1/alpha*; its
    likelihood-ratio threshold c is the lambda of :func:`utility_optimal`.

    Three branches on r = f_P/f_Q: p* = alpha* where r < c, a boundary value
    k in [alpha*, inf] where r = c, and inf where r > c; c is the largest
    value with P(r < c) <= alpha* and k makes E_P[1/p*] = 1 (k = inf when
    the sub-boundary mass already equals alpha*).

    O(n log n) on the pair's likelihood-ratio table: P-mass is grouped by
    ratio level in one pass, the levels are sorted once by ``float`` and
    walked with a running prefix sum.  Levels equal as floats share one
    strictly-below mass, and the boundary branch takes the ratios exactly
    equal to c.  Exact (int and ``Fraction``) masses are grouped and summed
    as the ints of P's lattice (``DiscreteSpace._lattice``), numerators
    over one denominator d compared with alpha* d, so ``below``, ``at``
    and k are exact; float masses are summed in level order, so their
    rounding can differ from an outcome-order sum.
    """
    return _np_solution(pair, alpha_star)[0]


def _np_solution(pair: SimplePair, alpha_star: Number) -> tuple:
    """(p*, c) of :func:`np_optimal`."""
    if not (0 < alpha_star < 1):
        raise ValueError("alpha* must lie in (0, 1)")
    ratios = pair._ratios
    d, keys = pair.P._lattice
    bound = Fraction(alpha_star) * d  # alpha* in units of 1/d, exactly
    mass = {}
    for r, m in zip(ratios, keys):
        mass[r] = mass.get(r, 0) + m
    levels = sorted(set(ratios), key=float)

    # c is the last level whose strictly-below mass is <= alpha*; levels
    # equal as floats share that mass, so c is the last of its float group
    c, below, running, i = levels[0], 0, 0, 0
    while i < len(levels) and at_most(running, bound):
        c, below = levels[i], running
        group = float(c)
        while i < len(levels) and float(levels[i]) == group:
            c = levels[i]
            running += mass[c]
            i += 1
    at = mass[c]
    if below == bound or at == 0:
        k = INF
    else:
        if keys is not pair.P.probs:  # a lattice numerator back to a mass
            at = Fraction(at, d)
        # the gap is taken exactly: a float ``below`` within an ulp of an
        # exact alpha* makes the mixed float subtraction 0 or far off
        k = mul0(alpha_star, at) / ((bound - Fraction(below)) / d)
    values = {}
    c_float = float(c)
    for x, r in zip(pair.P.outcomes, ratios):
        if float(r) < c_float:
            values[x] = alpha_star
        elif r == c:
            values[x] = k
        else:
            values[x] = INF
    return EvidenceVariable(values, P_SCALE), c


def np_rejection_region(pair: SimplePair, alpha_star: Number) -> frozenset:
    """Outcomes with p*(x) <= alpha*: the induced non-randomized test."""
    p = np_optimal(pair, alpha_star)
    return frozenset(x for x in p.outcomes if p[x] <= alpha_star)


def best_region_exhaustive(pair: SimplePair, alpha_star: Number) -> frozenset:
    """Exhaustive-search best rejection region with P-mass at most alpha*.

    Ties in Q-power are broken toward the region preferred by likelihood
    ratio: highest f_Q/f_P first, then fewer outcomes, then lexicographic.
    """
    outcomes = pair.P.outcomes
    if len(outcomes) > 12:
        raise ValueError("exhaustive search limited to 12 outcomes")
    cells = range(len(outcomes))
    rank = sorted(cells, key=lambda i: (-float(recip(pair._ratios[i])),
                                        str(outcomes[i])))
    order = {i: j for j, i in enumerate(rank)}
    best, best_key = frozenset(), None
    for mask in range(1 << len(outcomes)):
        region = [i for i in cells if mask >> i & 1]
        p_mass = sum(pair.P.probs[i] for i in region)
        if p_mass > alpha_star:
            continue
        q_mass = sum(pair._q[i] for i in region)
        key = (-float(q_mass), len(region), sorted(order[i] for i in region))
        if best_key is None or key < best_key:
            best, best_key = frozenset(outcomes[i] for i in region), key
    return best


def brute_force_optimal(pair: SimplePair, U: UtilitySpec,
                        resolution: int = 40) -> EvidenceVariable:
    """Grid oracle: best e on the simplex slice E_P[e] = 1.

    Enumerates e(x) = t_x / (resolution * f_P(x)) over integer allocations
    t summing to resolution, so the constraint holds exactly; P-null
    outcomes get e = inf (they are free).  Intended for <= 6 outcomes.
    """
    supp = [x for x, fp in zip(pair.P.outcomes, pair.P.probs) if fp > 0]
    if len(pair.P.outcomes) > 6:
        raise ValueError("oracle limited to 6 outcomes")
    nulls = {x: INF for x in pair.P.outcomes if x not in supp}
    best_ev, best_val = None, None

    def rec(i, remaining, alloc):
        nonlocal best_ev, best_val
        if i == len(supp) - 1:
            alloc = alloc + [remaining]
            values = {
                x: Fraction(t, resolution) * recip(pair.P.prob(x))
                for x, t in zip(supp, alloc)
            }
            values.update(nulls)
            ev = EvidenceVariable(values, E_SCALE)
            val = expected_utility(ev, pair.Q, U)
            if best_val is None or val > best_val:
                best_ev, best_val = ev, val
            return
        for t in range(remaining + 1):
            rec(i + 1, remaining - t, alloc + [t])

    rec(0, resolution, [])
    return best_ev


def double_posthoc_check(pair: SimplePair) -> bool:
    """The likelihood ratio is post-hoc valid in both directions:
    E_P[f_Q/f_P] <= 1 and E_Q[f_P/f_Q] <= 1 (both exactly 1 for the LR).

    Only mutual absolute continuity is checked, and a failure raises
    ``ValueError``.  Once the supports agree, E_P[f_Q/f_P] is Q's total
    mass and E_Q[f_P/f_Q] is P's, and each ``DiscreteSpace`` already held
    its total to :func:`~posthoc._numbers.is_unit_mass`; so nothing is
    summed again and the result is True.
    """
    pair.check_mutual_absolute_continuity()
    return True


# ---------------------------------------------------------------------------
# fixtures


def bernoulli_pair(p0=Fraction(1, 2), p1=Fraction(3, 4)) -> SimplePair:
    """Bern(p0) null versus Bern(p1) alternative on outcomes {0, 1}."""
    return SimplePair(
        P=DiscreteSpace((0, 1), (1 - p0, p0)),
        Q=DiscreteSpace((0, 1), (1 - p1, p1)),
    )


def gaussian_shift_pair(n_cells: int = 2001) -> SimplePair:
    """N(0,1) versus N(1,1) discretized into P-equiprobable quantile cells.

    Cells are represented by the P-quantile midpoints clipped to [-CLIP,
    CLIP]; the alternative mass is proportional to the shift likelihood
    ratio exp(x - 1/2) and renormalized.
    """
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf
    centers = [
        min(max(inv_cdf((i + 0.5) / n_cells), -CLIP), CLIP)
        for i in range(n_cells)
    ]
    p_mass = Fraction(1, n_cells)
    lr = [math.exp(x - 0.5) for x in centers]
    total = sum(lr)
    q_probs = tuple(v / total for v in lr)
    cells = tuple(range(n_cells))
    return SimplePair(P=DiscreteSpace(cells, (p_mass,) * n_cells),
                      Q=DiscreteSpace(cells, q_probs))


def gaussian_log_optimal_report(alpha: float = 0.05,
                                n_cells: int = 2001) -> dict:
    """Classical-versus-post-hoc comparison for N(0,1) against N(1,1), from
    the closed forms of the unit shift, whose likelihood ratio is exp(x - 1/2).

    Classical: the size s = floor(alpha n)/n of the top floor(alpha n) of n
    equiprobable cells and z = Phi^-1(1 - s) give the critical likelihood
    ratio exp(z - 1/2) and the power 1 - Phi(z - 1).  Post-hoc: reject at
    level alpha iff the ratio is >= 1/alpha, with power
    1 - Phi(ln(1/alpha) - 1/2).  :func:`gaussian_shift_pair` is the
    discretised pair these values are cross-checked against.
    """
    if not (0 < alpha < 1 and alpha * n_cells >= 1):  # also true for nan
        raise ValueError("need 0 < alpha < 1 and alpha * n_cells >= 1, "
                         f"got alpha = {alpha}, n_cells = {n_cells}")
    from statistics import NormalDist

    normal = NormalDist()
    size = int(alpha * n_cells) / n_cells
    z = normal.inv_cdf(1 - size)
    return {
        "alpha": alpha,
        "classical_critical": math.exp(z - 0.5),
        "posthoc_threshold": float(1 / alpha),
        "classical_power": 1 - normal.cdf(z - 1),
        "posthoc_power": 1 - normal.cdf(math.log(1 / alpha) - 0.5),
        "classical_size": size,
    }
