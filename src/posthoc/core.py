"""Finite probability spaces, evidence variables and validity checks.

Evidence variables live on an extended nonnegative scale and carry a tag
saying whether large values mean strong evidence (e-scale) or weak evidence
(p-scale).  The two scales are reciprocal duals of each other.  Classical
validity bounds P(p <= a)/a uniformly in a; the stronger notion checked by
:func:`check_posthoc_validity` bounds E[1/p] instead, which is what licenses
rejecting at a level chosen after seeing the data.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Mapping, Sequence

from ._numbers import (
    INF,
    Number,
    _ratio_float,
    _recip_share,
    checked_lattice,
    float_ext,
    fmt_number,
    is_inf,
    is_unit_mass,
    lattice_keys,
    mul0,
    parse_number,
    recip,
    within,
)
from ._record import Record

# the one setter past Record's frozen __setattr__, looked up once
_set = object.__setattr__
_FLOATS, _FRACTIONS = frozenset((float,)), frozenset((Fraction,))

E_SCALE = "e"
P_SCALE = "p"

# the outcome-set message of each check of evidence under a hypothesis
_EVIDENCE_AND_H = "the evidence and the hypothesis must share an outcome set"


# ---------------------------------------------------------------------------
# spaces and hypotheses


def shared_outcomes(items: Sequence, what: str) -> tuple:
    """The outcomes of the first of ``items``, after checking that every
    item has the same set of outcomes, in any order.  A mismatch raises
    ``ValueError`` with the message ``what`` and an outcome that some item
    lacks; no items raise "at least one input required"."""
    if not items:
        raise ValueError("at least one input required")
    first = items[0].outcomes
    for item in items[1:]:
        other = item.outcomes
        if other != first and set(other) != set(first):
            missing = next(x for x in (*first, *other)
                           if (x in first) != (x in other))
            raise ValueError(f"{what}: outcome {missing!r} is missing from one")
    return first


class DiscreteSpace(Record):
    """Finite outcome set with one probability weight per outcome.

    Outcomes are indexed once at construction, so :meth:`prob` is an O(1)
    dict lookup.  The weight check's ``(d, keys)`` of :func:`lattice_keys`
    is kept as ``_lattice``, so the design functions sum and test masses
    on its ints without deriving them again.  Neither is a field:
    equality, hashing, ``repr`` and :meth:`to_dict` see only ``outcomes``
    and ``probs``.
    """

    outcomes: tuple
    probs: tuple

    def __init__(self, outcomes: Sequence, probs: Sequence[Number]):
        outcomes = tuple(outcomes)
        probs = tuple(probs)
        if len(outcomes) != len(probs):
            raise ValueError("outcomes and probs must have equal length")
        index = {x: i for i, x in enumerate(outcomes)}
        if len(index) != len(outcomes):
            raise ValueError("outcome ids must be unique")
        lattice = checked_lattice(probs, "probabilities")
        self.__dict__.update(outcomes=outcomes, probs=probs, _index=index,
                             _lattice=lattice)

    def prob(self, outcome) -> Number:
        try:
            return self.probs[self._index[outcome]]
        except (KeyError, TypeError):
            raise ValueError(f"unknown outcome {outcome!r}") from None

    def expectation(self, f: Callable[[Any], Number]) -> Number:
        """E[f(X)] with 0 * inf = 0 so mass-zero outcomes never matter."""
        total = 0
        for x, p in zip(self.outcomes, self.probs):
            total = total + mul0(p, f(x))
        return total

    def to_dict(self) -> dict:
        return {
            "outcomes": list(self.outcomes),
            "probs": [fmt_number(p) for p in self.probs],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "DiscreteSpace":
        return cls(d["outcomes"], [parse_number(p) for p in d["probs"]])


class Hypothesis(Record):
    """Finite composite hypothesis: a set of distributions on one outcome set.

    The composite expectation is the supremum (here: max) over members.
    """

    members: tuple

    def __init__(self, members: Iterable[DiscreteSpace]):
        members = tuple(members)
        if not members:
            raise ValueError("hypothesis must contain at least one distribution")
        shared_outcomes(members, "all members must share the same outcome set")
        object.__setattr__(self, "members", members)

    @classmethod
    def simple(cls, space: DiscreteSpace) -> "Hypothesis":
        return cls((space,))

    @property
    def outcomes(self) -> tuple:
        return self.members[0].outcomes

    def sup_expectation(self, f: Callable[[Any], Number]):
        """(sup_P E_P[f], index of a worst-case member)."""
        best, best_i = None, 0
        for i, m in enumerate(self.members):
            v = m.expectation(f)
            if best is None or v > best:
                best, best_i = v, i
        return best, best_i


# ---------------------------------------------------------------------------
# evidence variables and test functions


class EvidenceVariable(Record):
    """Per-outcome evidence in [0, inf], tagged e-scale or p-scale."""

    values: Mapping[Any, Number]
    scale: str

    def __init__(self, values: Mapping[Any, Number], scale: str):
        if scale not in (E_SCALE, P_SCALE):
            raise ValueError(f"unknown scale {scale!r}")
        vals = dict(values)
        # the outcomes whose value is not 0 <= v (nan included); where the
        # first value is a Fraction, a Fraction is tested by its numerator's
        # sign, without the ABC checks of its comparison, and other values,
        # floats above all, compare directly
        if type(next(iter(vals.values()), None)) is Fraction:
            bad = [x for x, v in vals.items()
                   if not (v.numerator >= 0 if type(v) is Fraction else v >= 0)]
        else:
            bad = [x for x, v in vals.items() if not v >= 0]
        if bad:
            raise ValueError(f"evidence value {vals[bad[0]]!r} at {bad[0]!r} is not in [0, inf]")
        _set(self, "values", vals)
        _set(self, "scale", scale)

    def __getitem__(self, outcome) -> Number:
        return self.values[outcome]

    @property
    def outcomes(self) -> tuple:
        return tuple(self.values)

    def as_scale(self, scale: str) -> "EvidenceVariable":
        if scale == self.scale:
            return self
        return dual(self)

    def to_dict(self) -> dict:
        return {
            "values": {str(k): fmt_number(v) for k, v in self.values.items()},
            "scale": self.scale,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "EvidenceVariable":
        return cls({k: parse_number(v) for k, v in d["values"].items()}, d["scale"])


def dual(ev: EvidenceVariable) -> EvidenceVariable:
    """Pointwise reciprocal with the scale flipped; an exact involution."""
    other = P_SCALE if ev.scale == E_SCALE else E_SCALE
    return EvidenceVariable({x: recip(v) for x, v in ev.values.items()}, other)


class TestFunction(Record):
    """Nondecreasing family of level-alpha tests, summarized by its jump point."""

    __test__ = False  # not a pytest class despite the name

    p: EvidenceVariable

    def __init__(self, p: EvidenceVariable):
        if p.scale != P_SCALE:
            raise ValueError("a test function is parameterized by a p-scale variable")
        if any(v == 0 for v in p.values.values()):
            raise ValueError("p-values must be strictly positive")
        object.__setattr__(self, "p", p)

    def __call__(self, alpha: Number, outcome) -> int:
        return 1 if self.p[outcome] <= alpha else 0

    def p_value(self, outcome) -> Number:
        """Smallest alpha at which the test rejects for this outcome."""
        if outcome not in self.p.values:
            raise KeyError(f"unknown outcome {outcome!r}")
        return self.p[outcome]


def p_value(tf: TestFunction, outcome) -> Number:
    return tf.p_value(outcome)


# ---------------------------------------------------------------------------
# p-value laws (atoms + uniform-density pieces)


class PValueLaw(Record):
    """Distribution of a p-value: point masses plus uniform-density intervals.

    Atoms are (location, mass) with location > 0 (inf allowed for the mass a
    test never converts into a rejection).  Pieces are (a, b, mass) carrying
    uniform density on the half-open interval (a, b].  Both are stored
    sorted by location.

    A law of ints and ``Fraction``s is checked and sorted on the ints
    x * D over their least common denominator D (:func:`_exact_sorted`);
    any other law, or one that fails a check, on its values
    (:func:`_checked_sorted`), which names the failing check.  When every
    mass is a ``Fraction`` the sorted ints are kept as the private,
    non-field ``_lattice``, on which :meth:`expect_recip` and
    :func:`check_classical_validity` sweep with int ratios.  Other laws
    keep a Fraction/float formulation, as a float law summed on ints would
    round differently and an int mass must give an int sum; both give
    equal values of equal type.  In that formulation a law whose masses
    are all ``Fraction``s and whose locations and endpoints are all floats
    keeps its masses as the ints m * D over their own least common
    denominator D, the private ``_masses`` (D, atom keys, piece keys): the
    two sweeps add those ints and take a sum or a mass as the float
    key / D only where a float joins it, as ``Fraction`` with ``float``
    arithmetic converts; other laws read their masses as they are.  A law
    is not sampled here: the Monte Carlo cross-check,
    ``distortion.monte_carlo_distortion``, reads its components and counts
    random words against them.
    """

    atoms: tuple
    pieces: tuple

    def __init__(self, atoms: Iterable = (), pieces: Iterable = ()):
        atoms = tuple([(loc, m) for loc, m in atoms])
        pieces = tuple([(a, b, m) for a, b, m in pieces])
        checked = _exact_sorted(atoms, pieces)
        if checked is None:
            atoms, pieces, masses = _checked_sorted(atoms, pieces)
            lattice = None
        else:
            (atoms, pieces, lattice), masses = checked, None
        self.__dict__.update(atoms=atoms, pieces=pieces, _lattice=lattice,
                             _masses=masses)

    # -- exact integration ------------------------------------------------

    def cdf(self, alpha: Number) -> Number:
        """P(p <= alpha)."""
        if alpha != alpha:  # nan
            raise ValueError("alpha must be a number, got nan")
        total = 0
        for loc, m in self.atoms:
            if loc > alpha:
                break  # atoms are sorted by location
            total += m
        return _keyed_piece_cdf(self.pieces, [p[2] for p in self.pieces], 1, False,
                                total, alpha)

    def mass_interval(self, lo: Number, hi: Number) -> Number:
        """P(p in (lo, hi])."""
        if hi <= lo:
            return 0
        total = 0
        for loc, m in self.atoms:
            if lo < loc <= hi:
                total += m
        for a, b, m in self.pieces:
            left, right = max(a, lo), min(b, hi)
            if right > left:
                total += m * (right - left) / (b - a)
        return total

    def expect_recip(self) -> Number:
        """E[1/p]; +inf when a piece touches 0 with positive mass."""
        if self._lattice is not None:
            d, atoms, pieces = self._lattice
            # sum of m / loc = (m * d) / (loc * d) over the lcm of the locs
            num, den = 0, 1
            for loc, m, _ in atoms:
                if m:
                    g = math.gcd(den, loc)
                    num = num * (loc // g) + m * (den // g)
                    den = den // g * loc
            # a piece of positive mass adds a float, and a Fraction plus a
            # float is the float of the Fraction's int pair plus that float,
            # inf past the float range
            total = 0 if not num else (
                _ratio_float(num, den) if pieces and any(p[2] for p in pieces)
                else Fraction(num, den))
            low = sys.float_info.min
            for a, b, m, _ in pieces:
                if m == 0:
                    continue
                if a == 0:
                    return INF
                # the float terms below, from correctly rounded int ratios,
                # or on the pairs where one leaves the normal float range
                try:
                    fa, fb, fw = a / d, b / d, (b - a) / d
                except OverflowError:
                    fa = fw = 0.0
                if fa >= low and fw >= low:
                    total += (m / d) * (math.log(fb) - math.log(fa)) / fw
                else:
                    total += _recip_share((m, d), (a, d), (b, d))
            return total
        d, akeys, pkeys = self._masses or _mass_values(self)
        keyed = self._masses is not None
        total = 0
        for (loc, m), k in zip(self.atoms, akeys):
            if k == 0:  # masses are nonnegative
                continue
            if not keyed:
                term = mul0(m, recip(loc))
                # an exact sum plus a float is the sum's float plus the
                # float, here inf past the float range, as in _ratio_float
                if type(term) is float and type(total) is not float:
                    total = float_ext(total)
                total += term
            elif loc != INF:  # an atom at inf adds 0
                # m * (1.0 / loc): a Fraction times a float is the float
                # of its int pair, k / d, times the float
                total += k / d * (1.0 / loc)
            if is_inf(total):
                return INF
        if any(pkeys):  # a piece of positive mass adds a float, as above
            total = float_ext(total)
        low = sys.float_info.min
        for (a, b, m), k in zip(self.pieces, pkeys):
            if k == 0:
                continue
            if a == 0:
                return INF
            if type(a) is float is type(b):
                fa, fb, fw = a, b, b - a
            else:  # an exact end or width outside the normal float range takes the pairs
                w = b - a
                fa, fb, fw = float_ext(a), float_ext(b), float_ext(w)
                if (fb == INF or fa < low and type(a) is not float
                        or fw < low and type(w) is not float):
                    total += _recip_share((k, d) if keyed else m.as_integer_ratio(),
                                          a.as_integer_ratio(), b.as_integer_ratio())
                    continue
            total += (k / d if keyed else m) * (math.log(fb) - math.log(fa)) / fw
        return total

    def expect_identity(self) -> Number:
        """E[p]."""
        total = 0
        for loc, m in self.atoms:
            total += mul0(m, loc)
            if is_inf(total):
                return INF
        for a, b, m in self.pieces:
            total += m * (a + b) / 2
        return total

    def ess_inf(self) -> Number:
        """Infimum of the support."""
        cands = [loc for loc, m in self.atoms if m > 0]
        cands += [a for a, b, m in self.pieces if m > 0]
        return min(cands) if cands else INF

    def support_breakpoints(self) -> list:
        """The finite atom locations and piece endpoints above 0 of positive
        mass, sorted; a mass is tested on its key (:func:`_mass_values`)."""
        _, akeys, pkeys = self._masses or _mass_values(self)
        pts = [loc for (loc, _), k in zip(self.atoms, akeys) if k > 0 and not is_inf(loc)]
        for (a, b, _), k in zip(self.pieces, pkeys):
            if k > 0:
                if a > 0:
                    pts.append(a)
                pts.append(b)
        return sorted(set(pts))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "atoms": [[fmt_number(loc), fmt_number(m)] for loc, m in self.atoms],
            "pieces": [
                [fmt_number(a), fmt_number(b), fmt_number(m)]
                for a, b, m in self.pieces
            ],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "PValueLaw":
        atoms = [(parse_number(l), parse_number(m)) for l, m in d.get("atoms", [])]
        pieces = [
            (parse_number(a), parse_number(b), parse_number(m))
            for a, b, m in d.get("pieces", [])
        ]
        return cls(atoms, pieces)


def _exact_sorted(atoms: tuple, pieces: tuple) -> tuple | None:
    """(atoms, pieces, lattice), sorted, of a law whose values are all
    ints or ``Fraction``s and pass every check of :func:`_checked_sorted`;
    None for any other law.  One pass takes the values' int pairs, and the
    checks and the sort run on the ints x * d over their lcm d.  The
    lattice is (d, [(loc, m, atom)], [(a, b, m, piece)]), each row of ints
    with the values it came from, or None when some mass is an int."""
    pairs, ints = [], False
    for x in chain(*atoms, *pieces):
        if type(x) is not Fraction:
            if type(x) is not int:
                return None  # a float, inf, bool or subclass
            ints = True
        pairs.append(x.as_integer_ratio())
    d = math.lcm(*[q for _, q in pairs])
    keys = iter([n * (d // q) for n, q in pairs])
    by_loc = sorted([(next(keys), next(keys), atom) for atom in atoms])
    spans = pieces and sorted([(next(keys), next(keys), next(keys), piece)
                               for piece in pieces])
    total = last = 0
    for loc, m, _ in by_loc:
        if not last < loc or m < 0:  # positive and distinct locations
            return None
        total, last = total + m, loc
    last = 0
    for a, b, m, _ in spans:
        if not last <= a < b or m < 0:  # from 0 on, after the last piece
            return None
        total, last = total + m, b
    if total != d:
        return None
    int_mass = ints and int in [type(t[-1]) for t in chain(atoms, pieces)]
    return (tuple([t[2] for t in by_loc]), tuple([s[3] for s in spans]),
            None if int_mass else (d, by_loc, spans))


def _checked_sorted(atoms: tuple, pieces: tuple) -> tuple:
    """(atoms, pieces, masses) of a law checked on its values and sorted,
    or ``ValueError`` naming the first failing check; nan fails the signs.
    Masses are checked and summed on their :func:`lattice_keys`.  ``masses``
    is the law's ``_masses``: (d, atom keys, piece keys) in the sorted
    order when every mass is a ``Fraction`` and every location and
    endpoint a float, else None."""
    n = len(atoms)
    locs = [loc for loc, _ in atoms]
    values = [m for _, m in atoms] + [m for _, _, m in pieces]
    d, keys = lattice_keys(values)
    if len(set(locs)) != len(locs):
        raise ValueError("atom locations must be distinct")
    for loc, k in zip(locs, keys):
        if not loc > 0:
            raise ValueError("atom locations must be positive")
        if not k >= 0:
            raise ValueError("atom masses must be nonnegative")
    for (a, b, _), k in zip(pieces, keys[n:]):
        # a float and an exact endpoint can differ by less than an ulp:
        # then b - a is 0.0 and the uniform density on (a, b] is undefined
        if not (0 <= a < b) or b - a == 0:
            raise ValueError(f"bad piece interval ({a}, {b}]")
        if is_inf(b):
            raise ValueError("pieces must be bounded")
        if not k >= 0:
            raise ValueError("piece masses must be nonnegative")
    # locations are distinct, so the sort compares locations alone; equal
    # pieces overlap, and fail below whatever their keys
    by_loc = sorted(zip(locs, keys, atoms))
    spans = sorted(zip(pieces, keys[n:]))
    for ((_, b1, _), _), ((a2, _, _), _) in zip(spans, spans[1:]):
        if a2 < b1:
            raise ValueError("piece intervals must be disjoint")
    if not is_unit_mass(sum(keys[:n]) + sum(keys[n:]), d):
        total = sum(m for _, m in atoms) + sum(m for _, _, m in pieces)
        raise ValueError(f"masses must sum to 1, got {total}")
    _, akeys, atoms = zip(*by_loc) if by_loc else ((), (), ())
    pieces, pkeys = zip(*spans) if spans else ((), ())
    keyed = (_FRACTIONS.issuperset(map(type, values)) and _FLOATS.issuperset(map(type, locs))
             and all([type(a) is float is type(b) for a, b, _ in pieces]))
    return atoms, pieces, (d, akeys, pkeys) if keyed else None


def _mass_values(law: PValueLaw) -> tuple:
    """(1, atom masses, piece masses): the mass keys of a law without
    ``_masses``, its masses as they are."""
    return 1, [m for _, m in law.atoms], [m for _, _, m in law.pieces]


def _lattice_piece_cdf(pieces: list, total: int, top: int) -> tuple:
    """(num, q): total plus the mass of a lattice's pieces at or below
    alpha = top / d, as the ratio num / q in units of 1/d."""
    num, q = total, 1
    for a, b, m, _ in pieces:
        if top >= b:
            num += m * q
        elif top > a:
            # m (alpha - a) / (b - a) in units of 1/d
            num = num * (b - a) + m * (top - a) * q
            q *= b - a
    return num, q


def law_of(ev: EvidenceVariable, space: DiscreteSpace) -> PValueLaw:
    """Push a discrete p-scale evidence variable through a space's law."""
    shared_outcomes([ev, space], "the evidence and the space must share an outcome set")
    p = ev.as_scale(P_SCALE)
    masses: dict = {}
    for x, w in zip(space.outcomes, space.probs):
        if w > 0:
            v = p[x]
            masses[v] = masses.get(v, 0) + w
    return PValueLaw(atoms=list(masses.items()))


# ---------------------------------------------------------------------------
# validity reports


class ValidityReport(Record):
    valid: bool
    statistic: Number
    witness: Any
    kind: str
    detail: str

    def __init__(self, valid: bool, statistic: Number, witness: Any = None,
                 kind: str = "", detail: str = ""):
        # set one by one, the fields stay inline: no __dict__ to collect
        _set(self, "valid", valid)
        _set(self, "statistic", statistic)
        _set(self, "witness", witness)
        _set(self, "kind", kind)
        _set(self, "detail", detail)

    def __bool__(self) -> bool:
        return self.valid


def check_classical_validity(p_law: PValueLaw) -> ValidityReport:
    """sup_a P(p <= a)/a, searched over the law's breakpoints.

    Between breakpoints P(p <= a)/a is monotone for piecewise-uniform laws,
    so the finite candidate set of atom locations and piece endpoints is
    exhaustive.  Levels a >= 1 satisfy P(p <= a) <= a trivially, so the
    search runs over a < 1 plus the left-limit at 1.  One sweep visits the
    candidates in increasing order with a running sum of the atom masses at
    or below them, which :meth:`PValueLaw.cdf` would add up the same way.
    On a law with a lattice it runs on the ints (:func:`_lattice_classical_sup`),
    on any other on its mass keys (:func:`_keyed_classical_sup`).
    """
    if p_law._lattice is not None:
        best, witness = _lattice_classical_sup(*p_law._lattice)
    else:
        best, witness = _keyed_classical_sup(p_law)
    return ValidityReport(within(best), best, witness, "classical",
                          "sup over alpha of P(p <= alpha)/alpha")


def _keyed_classical_sup(p_law: PValueLaw) -> tuple:
    """(statistic, witness) of the classical sweep on a law without a
    lattice, on its mass keys: the ints of ``_masses`` over d, or the
    masses themselves with d = 1.  A sum of int keys is exact; it becomes
    the float sum / d where a float joins it, and the statistic
    ``Fraction(sum, d)`` where it is one."""
    atoms = p_law.atoms
    d, akeys, pkeys = p_law._masses or _mass_values(p_law)
    keyed = p_law._masses is not None
    best, witness, i, below = 0, None, 0, 0
    for c in p_law.support_breakpoints():
        if c >= 1:
            break
        while i < len(atoms) and atoms[i][0] <= c:
            below += akeys[i]
            i += 1
        total = _keyed_piece_cdf(p_law.pieces, pkeys, d, keyed, below, c)
        ratio = (total / d if keyed and type(total) is int else total) / c
        if ratio > best:
            best, witness = ratio, c
    # left-limit at 1: the cdf at 1 less an atom sitting at 1
    at_one = 0
    for (loc, _), k in zip(atoms[i:], akeys[i:]):
        if loc > 1:
            break
        below += k
        if loc == 1:
            at_one = at_one + k
    total = _keyed_piece_cdf(p_law.pieces, pkeys, d, keyed, below, 1)
    if keyed and type(total) is int:
        limit = total - at_one
        if best != INF:  # best is 0 or a float
            bn, bd = best.as_integer_ratio()
            if limit * bd > bn * d:
                best, witness = Fraction(limit, d), 1
    else:
        limit = total - (at_one / d if keyed else at_one)
        if limit > best:
            best, witness = limit, 1
    return best, witness


def _keyed_piece_cdf(pieces: tuple, keys: list, d: int, keyed: bool,
                     total: Number, alpha: Number) -> Number:
    """total plus the mass of the pieces at or below alpha, their masses
    read from ``keys``: the values themselves (d = 1, not ``keyed``), or
    the ints of ``_masses`` over d, whose int total stays exact until a
    float term joins it."""
    for (a, b, _), k in zip(pieces, keys):
        if alpha >= b:
            total += k / d if keyed and type(total) is float else k
        elif alpha > a:
            term = (k / d if keyed else k) * (alpha - a) / (b - a)
            total = (total / d if keyed and type(total) is int else total) + term
    return total


def _lattice_classical_sup(d: int, atoms: list, pieces: list) -> tuple:
    """(statistic, witness) of the classical sweep on a law's lattice.

    The statistic is a ``Fraction``, or the int 0 when nothing beats 0; the
    witness is a breakpoint's own value a < 1, a ``Fraction``, or 1 for the
    left limit.  Without pieces the breakpoints are the sorted atoms, and
    P(p <= a) is a running sum of their masses.
    """
    best_num, best_den, witness = 0, 1, None
    if not pieces:
        num, q = 0, 1
        for loc, m, atom in atoms:
            if loc >= d:
                break
            num += m
            if m and num * best_den > best_num * loc:
                best_num, best_den, witness = num, loc, atom[0]
    else:
        # each breakpoint's key and value
        cands = {loc: atom[0] for loc, m, atom in atoms if m > 0}
        for a, b, m, piece in pieces:
            if m > 0:
                cands[b] = piece[1]
                if a > 0:
                    cands[a] = piece[0]
        i, below = 0, 0
        for c in sorted(cands):
            if c >= d:
                break
            while i < len(atoms) and atoms[i][0] <= c:
                below += atoms[i][1]
                i += 1
            # P(p <= a) / a = (num / q / d) / (c / d) = num / (q c)
            num, q = _lattice_piece_cdf(pieces, below, c)
            if num * best_den > best_num * q * c:
                best_num, best_den, witness = num, q * c, cands[c]
        # the atoms below 1 and the pieces' mass up to 1
        below = sum(m for loc, m, _ in atoms if loc < d)
        num, q = _lattice_piece_cdf(pieces, below, d)
    # left-limit at 1: the cdf just below 1 excludes an atom sitting at 1
    if num * best_den > best_num * q * d:
        return Fraction(num, q * d), 1
    if witness is None:
        return 0, None
    return Fraction(best_num, best_den), witness


def check_posthoc_validity(obj, H: Hypothesis | None = None) -> ValidityReport:
    """E[1/p] (= E[e]) must be at most 1; supremum over hypothesis members."""
    if isinstance(obj, PValueLaw):
        stat, worst = obj.expect_recip(), None
        detail = "E[1/p] for the given p-value law"
    elif not isinstance(obj, EvidenceVariable):
        raise TypeError("expected an EvidenceVariable or PValueLaw")
    elif H is None:
        raise ValueError("an EvidenceVariable needs a hypothesis to integrate over")
    else:
        shared_outcomes([obj, H], _EVIDENCE_AND_H)
        e = obj.as_scale(E_SCALE)
        stat, worst = H.sup_expectation(lambda x: e[x])
        detail = "sup over members of E[e]"
    return ValidityReport(within(stat), stat, worst, "posthoc", detail)


# ---------------------------------------------------------------------------
# abstract evidence lattices


class EvidenceLattice(Record):
    """Finite totally ordered evidence space with bottom '0' and top 'inf'."""

    elements: tuple

    def __init__(self, elements: Sequence):
        elements = tuple(elements)
        if len(elements) < 2:
            raise ValueError("lattice needs at least bottom and top")
        if len(set(elements)) != len(elements):
            raise ValueError("lattice elements must be distinct")
        object.__setattr__(self, "elements", elements)

    @property
    def bottom(self):
        return self.elements[0]

    @property
    def top(self):
        return self.elements[-1]

    def index(self, d) -> int:
        return self.elements.index(d)

    def leq(self, a, b) -> bool:
        return self.index(a) <= self.index(b)

    def sup(self, items) -> Any:
        return max(items, key=self.index, default=self.bottom)


def posthoc_evidence_of_family(phi: Mapping[Any, Mapping[Any, Any]],
                               L: EvidenceLattice) -> dict:
    """Collapse a family of binary lattice tests into one evidence variable.

    ``phi[d][x]`` must be either the lattice bottom or ``d``; the result maps
    each outcome to the strongest evidence any test in the family returns.
    """
    if not phi:
        raise ValueError("empty test family")
    for d, test in phi.items():
        for v in test.values():
            if v != L.bottom and v != d:
                raise ValueError(f"test at {d!r} returns {v!r}, not bottom or {d!r}")
    outcomes = shared_outcomes([SimpleNamespace(outcomes=tuple(test))
                                for test in phi.values()],
                               "tests must share one outcome set")
    return {x: L.sup(test[x] for test in phi.values()) for x in outcomes}


def family_of_evidence(epsilon: Mapping[Any, Any], L: EvidenceLattice) -> dict:
    """The canonical test family whose post-hoc evidence variable is epsilon."""
    return {
        d: {x: (d if L.leq(d, epsilon[x]) else L.bottom) for x in epsilon}
        for d in L.elements
    }
