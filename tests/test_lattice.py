"""The integer-lattice paths of PValueLaw and of the step-curve Galois
transforms against the Fraction/float formulations they replace, kept here
as oracles: equal values of equal type, or the same ValueError message."""
import gc
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from posthoc import (
    INF,
    DiscreteSpace,
    PCurve,
    PFunction,
    PValueLaw,
    TCurve,
    check_classical_validity,
    check_posthoc_validity,
    pfunction_of,
    test_function_of,
)
from posthoc._numbers import (
    TOL, common_denominator, is_inf, is_unit_mass, mul0, pow_ext, recip,
)
from posthoc.core import _lattice_classical_sup
from posthoc.pfunctions import (
    _check_inverse,
    _close,
    _eval_terms,
    _pcurve_to_tcurve,
    _single_term,
    _tcurve_to_pcurve,
)


def same(a, b):
    """Equal, and of the same type all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def same_outcome(got, want):
    return got[0] == want[0] and (same(got[1], want[1]) if got[0] == "ok"
                                  else got[1] == want[1])


# ---------------------------------------------------------------------------
# PValueLaw oracle: the constructor and sweeps before the lattice


class ReferenceLaw:
    def __init__(self, atoms=(), pieces=()):
        atoms = tuple((loc, m) for loc, m in atoms)
        pieces = tuple((a, b, m) for a, b, m in pieces)
        locs = [loc for loc, _ in atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be distinct")
        for loc, m in atoms:
            if not is_inf(loc) and loc <= 0:
                raise ValueError("atom locations must be positive")
            if m < 0:
                raise ValueError("atom masses must be nonnegative")
        spans = []
        for a, b, m in pieces:
            if not (0 <= a < b):
                raise ValueError(f"bad piece interval ({a}, {b}]")
            if is_inf(b):
                raise ValueError("pieces must be bounded")
            if m < 0:
                raise ValueError("piece masses must be nonnegative")
            spans.append((a, b))
        spans.sort()
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            if a2 < b1:
                raise ValueError("piece intervals must be disjoint")
        total = sum(m for _, m in atoms) + sum(m for _, _, m in pieces)
        exact = all(isinstance(m, (int, F)) for m in
                    [m for _, m in atoms] + [m for _, _, m in pieces])
        if exact:
            if total != 1:
                raise ValueError(f"masses must sum to 1, got {total}")
        elif not (total <= 1 + TOL and 1 <= total + TOL):
            raise ValueError(f"masses must sum to 1, got {total}")
        self.atoms = tuple(sorted(atoms))
        self.pieces = tuple(sorted(pieces))

    def cdf(self, alpha):
        total = 0
        for loc, m in self.atoms:
            if loc > alpha:
                break
            total += m
        for a, b, m in self.pieces:
            if alpha >= b:
                total += m
            elif alpha > a:
                total += m * (alpha - a) / (b - a)
        return total

    def mass_interval(self, lo, hi):
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

    def expect_recip(self):
        total = 0
        for loc, m in self.atoms:
            if m == 0:
                continue
            if isinstance(loc, F) and not isinstance(m, float):
                total += m / loc
            else:
                total += mul0(m, recip(loc))
            if is_inf(total):
                return INF
        for a, b, m in self.pieces:
            if m == 0:
                continue
            if a == 0:
                return INF
            total += m * (math.log(float(b)) - math.log(float(a))) / float(b - a)
        return total

    def breakpoints(self):
        pts = [loc for loc, m in self.atoms if m > 0 and not is_inf(loc)]
        for a, b, m in self.pieces:
            if m > 0:
                if a > 0:
                    pts.append(a)
                pts.append(b)
        return sorted(set(pts))

    def classical(self):
        best, witness = 0, None
        for a in [a for a in self.breakpoints() if a < 1]:
            ratio = self.cdf(a) / a
            if ratio > best:
                best, witness = ratio, a
        limit = self.cdf(1) - sum(m for loc, m in self.atoms if loc == 1)
        if limit > best:
            best, witness = limit, 1
        return reference_verdict(best), best, witness

    def posthoc(self):
        stat = self.expect_recip()
        return reference_verdict(stat), stat


def reference_verdict(stat):
    """stat <= 1: exactly for an exact statistic, within TOL for a float."""
    if isinstance(stat, (int, F)):
        return stat <= 1
    return stat <= 1 + TOL


def assert_law_matches(atoms, pieces):
    got = outcome(PValueLaw, atoms, pieces)
    want = outcome(ReferenceLaw, atoms, pieces)
    flat = [(a, b) for a, b, _ in pieces if 0 <= a < b and b - a == 0]
    if want[0] == "ok" and flat:
        # the oracle accepts a piece whose endpoints are equal as floats and
        # then divides by b - a == 0.0; PValueLaw rejects it
        assert got == ("ValueError", "bad piece interval ({}, {}]".format(*flat[0]))
        return None
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return None
    law, ref = got[1], want[1]
    assert same(law.atoms, ref.atoms) and same(law.pieces, ref.pieces)
    alphas = [0, 1, 2, F(1, 3), F(1, 2), 0.3, 1.0, INF]
    for x in law.support_breakpoints():
        alphas += [x, x / 2, x + F(1, 7)]
    queries = [(law.expect_recip, ref.expect_recip)]
    for a in alphas:
        queries.append((lambda a=a: law.cdf(a), lambda a=a: ref.cdf(a)))
        if not is_inf(a):
            queries.append((lambda a=a: law.mass_interval(a / 3, a),
                            lambda a=a: ref.mass_interval(a / 3, a)))
    queries.append((lambda: (lambda r: (r.valid, r.statistic, r.witness))(
        check_classical_validity(law)), ref.classical))
    queries.append((lambda: (lambda r: (r.valid, r.statistic))(
        check_posthoc_validity(law)), ref.posthoc))
    for mine, oracle in queries:
        assert same_outcome(outcome(mine), outcome(oracle))
    return law


# ---------------------------------------------------------------------------
# random laws

exact_locations = st.one_of(st.fractions(F(1, 32), 4, max_denominator=32),
                            st.integers(1, 3))
exact_ends = st.one_of(st.fractions(0, 2, max_denominator=16), st.integers(0, 2))


@st.composite
def laws(draw, locations=exact_locations, ends=exact_ends, mass_kind="fraction"):
    """(atoms, pieces) whose masses sum to 1: distinct locations and
    disjoint pieces, masses may be 0.  mass_kind picks Fraction masses,
    ints where a mass is 0 or 1, or floats."""
    locs = draw(st.lists(locations, min_size=0, max_size=5,
                         unique_by=lambda x: F(x) if not is_inf(x) else x))
    cuts = sorted(set(draw(st.lists(ends, max_size=4))), key=float)
    spans = list(zip(cuts[::2], cuts[1::2]))
    n = len(locs) + len(spans)
    if n == 0:
        locs, n = [F(1, 2)], 1
    weights = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))
    total = sum(weights)
    masses = []
    for w in weights:
        if mass_kind == "float":
            masses.append(w / total)
        elif mass_kind == "int" and w in (0, total) and draw(st.booleans()):
            masses.append(w // total)
        else:
            masses.append(F(w, total))
    draw(st.randoms()).shuffle(locs)
    atoms = list(zip(locs, masses))
    pieces = [(a, b, m) for (a, b), m in zip(spans, masses[len(locs):])]
    return atoms, pieces


@settings(max_examples=300, deadline=None)
@given(laws())
def test_exact_laws_take_the_lattice_and_match_the_oracle(law):
    atoms, pieces = law
    got = assert_law_matches(atoms, pieces)
    assert got._lattice is not None


@settings(max_examples=200, deadline=None)
@given(laws(mass_kind="int"))
def test_int_masses_match_the_oracle(law):
    # an int mass makes some sums ints: the sweeps take the oracle's code
    atoms, pieces = law
    got = assert_law_matches(atoms, pieces)
    ints = any(type(m) is int for _, m in atoms) or \
        any(type(m) is int for *_, m in pieces)
    assert (got._lattice is None) == ints


mixed_numbers = st.one_of(st.fractions(F(1, 32), 4, max_denominator=32),
                          st.integers(1, 3), st.floats(0.03, 4), st.just(INF))


@settings(max_examples=300, deadline=None)
@given(laws(locations=mixed_numbers, mass_kind="float")
       | laws(locations=mixed_numbers,
              ends=st.one_of(exact_ends, st.floats(0, 2))))
@example(([], [(2.2250738585e-313, 2, F(1))]))  # a subnormal float end, an int end
def test_mixed_inputs_take_the_fallback(law):
    atoms, pieces = law
    values = [x for a in atoms for x in a] + [x for p in pieces for x in p]
    got = assert_law_matches(atoms, pieces)
    if got is not None and common_denominator(values) is None:
        assert got._lattice is None


@pytest.mark.parametrize("pieces", [
    [(0.3333333333333333, F(1, 3), 1)],
    [(0, F(1, 4), F(1, 2)), (F(1, 2) - F(1, 10 ** 20), 0.5, F(1, 2))],
])
def test_pieces_equal_as_floats_are_rejected(pieces):
    with pytest.raises(ValueError, match="bad piece interval"):
        PValueLaw(pieces=pieces)
    assert_law_matches([], pieces)


def test_int_piece_cdf_is_a_float_as_before():
    # m (alpha - a) / (b - a) with every value an int is a true division
    assert_law_matches([], [(0, 2, 1)])
    assert type(PValueLaw(pieces=[(0, 2, 1)]).cdf(1)) is float
    assert_law_matches([(F(1, 2), F(1, 2))], [(0, 1, F(1, 2))])
    assert_law_matches([(F(1, 2), 1), (F(3, 4), F(0))], [])


def test_statistic_is_int_zero_when_nothing_beats_zero():
    law = PValueLaw(atoms=[(2, F(1, 2)), (3, F(1, 2))])
    assert law._lattice is not None
    rep = check_classical_validity(law)
    assert rep.statistic == 0 and type(rep.statistic) is int and rep.witness is None
    assert_law_matches([(2, F(1, 2)), (3, F(1, 2))], [])
    assert same(law.cdf(F(1, 2)), 0)


@pytest.mark.parametrize("atoms, pieces", [
    ([(F(1, 2), F(1, 2)), (F(2, 4), F(1, 2))], []),       # duplicate location
    ([(1, F(1, 2)), (F(1), F(1, 2))], []),                # int and Fraction 1
    ([(0, F(1))], []),                                    # location 0
    ([(F(-1, 2), F(1))], []),                             # negative location
    ([(F(1, 2), F(3, 2)), (1, F(-1, 2))], []),            # negative mass
    ([(F(1, 2), F(-1, 2)), (0, F(3, 2))], []),            # mass before location
    ([], [(F(1, 2), F(1, 4), F(1))]),                     # a > b
    ([], [(F(1, 2), F(1, 2), F(1))]),                     # a == b
    ([], [(F(-1, 2), F(1, 4), F(1))]),                    # a < 0
    ([], [(0, 1, F(3, 2)), (1, 2, F(-1, 2))]),            # negative piece mass
    ([], [(0, F(3, 4), F(1, 2)), (F(1, 2), 1, F(1, 2))]),  # overlap
    ([(F(1, 2), F(1, 2))], [(0, 1, F(1, 3))]),            # total 5/6
    ([(F(1, 2), F(2, 3))], [(0, 1, F(1, 2))]),            # total 7/6
    ([(2, 2)], []),                                       # int total 2
    ([], []),                                             # total 0
])
def test_invalid_laws_raise_the_oracle_message(atoms, pieces):
    got, want = outcome(PValueLaw, atoms, pieces), outcome(ReferenceLaw, atoms, pieces)
    assert got[0] == want[0] == "ValueError"
    assert got[1] == want[1]


ULP = 2.0 ** -52


@pytest.mark.parametrize("total", [
    1 + 4503 * ULP, 1 + 4504 * ULP, 1 + 4505 * ULP,
    1 - 9007 * ULP / 2, 1 - 9008 * ULP / 2, 1.0])
@pytest.mark.parametrize("split", [False, True], ids=["atom", "atom+piece"])
def test_laws_and_spaces_share_one_mass_sum_rule(total, split):
    """A law's masses and a space's probabilities meet one rule,
    ``is_unit_mass``; at 1 + 4504 ulps a law was once rejected by
    |total - 1| > TOL where a space with the same total was accepted."""
    if split:
        law = outcome(PValueLaw, [(F(1, 2), 0.5)], [(0, F(1, 4), total - 0.5)])
        space = outcome(DiscreteSpace, "ab", (0.5, total - 0.5))
        total = 0.5 + (total - 0.5)
    else:
        law = outcome(PValueLaw, [(F(1, 2), total)])
        space = outcome(DiscreteSpace, "a", (total,))
    assert (law[0] == "ok") == (space[0] == "ok") == is_unit_mass(total)


@settings(max_examples=300, deadline=None)
@given(laws(), st.integers(0, 4), st.fractions(-1, 1, max_denominator=8))
def test_broken_laws_raise_the_oracle_message(law, where, shift):
    """Move one value of a valid exact law; the first check that fails
    names the same error as the oracle's, or both accept."""
    atoms, pieces = [list(a) for a in law[0]], [list(p) for p in law[1]]
    cells = [(row, i) for row in atoms for i in (0, 1)] + \
        [(row, i) for row in pieces for i in (0, 1, 2)]
    row, i = cells[where % len(cells)]
    row[i] += shift
    assert_law_matches([tuple(a) for a in atoms], [tuple(p) for p in pieces])


# ---------------------------------------------------------------------------
# the one-pass constructor and the prefix-sum classical sweep against the
# keyed constructor and the candidate-set sweep they replace, copied here


def keyed_checked_sorted(atoms, pieces, d, keys):
    """The former _checked_sorted: checks and sort on keys that are the
    ints x * d of exact values, or the values themselves with d = 1."""
    k = 2 * len(atoms)
    locs, masses = keys[0:k:2], keys[1:k:2]
    if len(set(locs)) != len(locs):
        raise ValueError("atom locations must be distinct")
    for loc, m in zip(locs, masses):
        if not loc > 0:
            raise ValueError("atom locations must be positive")
        if not m >= 0:
            raise ValueError("atom masses must be nonnegative")
    spans = []
    if pieces:
        spans = list(zip(keys[k::3], keys[k + 1::3], keys[k + 2::3], pieces))
        for ka, kb, km, (a, b, _) in spans:
            if not (0 <= ka < kb) or kb - ka == 0:
                raise ValueError(f"bad piece interval ({a}, {b}]")
            if is_inf(kb):
                raise ValueError("pieces must be bounded")
            if not km >= 0:
                raise ValueError("piece masses must be nonnegative")
        spans.sort()
        for s1, s2 in zip(spans, spans[1:]):
            if s2[0] < s1[1]:
                raise ValueError("piece intervals must be disjoint")
    if not is_unit_mass(sum(masses) + sum(keys[k + 2::3]), d):
        total = sum(m for _, m in atoms) + sum(m for _, _, m in pieces)
        raise ValueError(f"masses must sum to 1, got {total}")
    by_loc = sorted(zip(locs, masses, atoms))
    return (tuple([t[2] for t in by_loc]), tuple([s[3] for s in spans]),
            (d, [t[:2] for t in by_loc], [s[:3] for s in spans]))


def keyed_law(atoms, pieces):
    """(atoms, pieces, lattice) of the former PValueLaw constructor."""
    atoms = tuple([(loc, m) for loc, m in atoms])
    pieces = tuple([(a, b, m) for a, b, m in pieces])
    values = [x for t in atoms + pieces for x in t]
    common = common_denominator(values)
    atoms, pieces, lattice = keyed_checked_sorted(atoms, pieces, *(common or (1, values)))
    k = 2 * len(atoms)
    if common is None or (int in map(type, values[1:k:2])
                          or int in map(type, values[k + 2::3])):
        lattice = None
    return atoms, pieces, lattice


def keyed_piece_cdf(pieces, total, top):
    num, q = total, 1
    for a, b, m in pieces:
        if top >= b:
            num += m * q
        elif top > a:
            num = num * (b - a) + m * (top - a) * q
            q *= b - a
    return num, q


def candidate_classical_sup(d, atoms, pieces):
    """The former _lattice_classical_sup: a sorted candidate set."""
    cands = {loc for loc, m in atoms if m > 0}
    for a, b, m in pieces:
        if m > 0:
            cands.add(b)
            if a > 0:
                cands.add(a)
    best_num, best_den, witness = 0, 1, None
    i, below = 0, 0
    for c in sorted(cands):
        if c >= d:
            break
        while i < len(atoms) and atoms[i][0] <= c:
            below += atoms[i][1]
            i += 1
        num, q = keyed_piece_cdf(pieces, below, c)
        if num * best_den > best_num * q * c:
            best_num, best_den, witness = num, q * c, c
    below = sum(m for loc, m in atoms if loc < d)
    num, q = keyed_piece_cdf(pieces, below, d)
    if num * best_den > best_num * q * d:
        return F(num, q * d), 1
    if witness is None:
        return 0, None
    return F(best_num, best_den), F(witness, d)


one_pass_values = st.one_of(st.integers(0, 3), st.fractions(0, 3, max_denominator=12),
                            st.floats(0, 3), st.just(INF))


@st.composite
def one_pass_laws(draw):
    """(atoms, pieces) with 1-6 atoms and 0-3 pieces, mostly valid, of
    int, Fraction, float and inf values; some are broken by a nan, a
    negative value, a duplicate location, an overlap or a mass off 1."""
    n, n_pieces = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["exact", "exact", "exact", "float", "mixed"]))
    locs = draw(st.lists(st.fractions(F(1, 16), 3, max_denominator=16), min_size=n,
                         max_size=n, unique=True))
    cuts = sorted(draw(st.lists(st.fractions(0, 2, max_denominator=16),
                                min_size=2 * n_pieces, max_size=2 * n_pieces,
                                unique=True)))
    weights = draw(st.lists(st.integers(0, 9), min_size=n + n_pieces,
                            max_size=n + n_pieces).filter(any))
    masses = [F(w, sum(weights)) for w in weights]
    if kind == "float":
        masses = [float(m) for m in masses]
        locs, cuts = [float(x) for x in locs], [float(x) for x in cuts]
    elif kind == "mixed":
        locs = [draw(st.sampled_from([x, float(x), INF])) for x in locs]
        masses = [m if m.denominator > 1 or draw(st.booleans()) else int(m)
                  for m in masses]
    values = locs + cuts + masses
    fault = draw(st.sampled_from([None] * 4 + ["nan", "negative", "duplicate",
                                               "overlap", "off-unit", "any"]))
    i = draw(st.integers(0, len(values) - 1))
    if fault == "nan":
        values[i] = math.nan
    elif fault == "negative":
        values[i] = -values[i] if values[i] else -1
    elif fault == "duplicate" and n > 1:
        values[1] = values[0]
    elif fault == "overlap" and n_pieces > 1:
        values[n + 1], values[n + 2] = values[n + 2], values[n + 1]
    elif fault == "off-unit":
        values[-1] += F(1, 7)
    elif fault == "any":
        values[i] = draw(one_pass_values)
    locs, cuts, masses = values[:n], values[n:n + 2 * n_pieces], values[n + 2 * n_pieces:]
    draw(st.randoms()).shuffle(locs)
    atoms = list(zip(locs, masses))
    pieces = [(a, b, m) for a, b, m in zip(cuts[::2], cuts[1::2], masses[n:])]
    return atoms, pieces


@settings(max_examples=600, deadline=None)
@given(one_pass_laws())
def test_one_pass_constructor_and_sweep_match_the_keyed_ones(law):
    """Equal atoms, pieces and lattice keys, the same message, and the
    same classical statistic and witness, of equal type."""
    got, want = outcome(PValueLaw, *law), outcome(keyed_law, *law)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    new, (atoms, pieces, lattice) = got[1], want[1]
    assert same(new.atoms, atoms) and same(new.pieces, pieces)
    assert (new._lattice is None) == (lattice is None)
    if lattice is not None:
        d, rows, spans = new._lattice
        assert d == lattice[0]
        assert [r[:2] for r in rows] == lattice[1] and [s[:3] for s in spans] == lattice[2]
        assert [r[2] for r in rows] == list(atoms) and [s[3] for s in spans] == list(pieces)
        assert same(_lattice_classical_sup(*new._lattice), candidate_classical_sup(*lattice))
        rep = check_classical_validity(new)
        assert same((rep.statistic, rep.witness), candidate_classical_sup(*lattice))


@pytest.mark.parametrize("a", [F(51, 7), 7.285714285714286, 7], ids=["exact", "float", "int"])
def test_a_flat_round_trip_builds_the_p_curve_anew(a):
    # the transform back is built from the test function alone: an equal
    # curve for a Fraction, 1.0 / (1.0 / a) for a float, and Fraction(7)
    # for the int 7
    pc = PCurve([(F(1, 2), ((a, 0),)), (1, ((F(1), 0),))])
    tc = _pcurve_to_tcurve(pc)
    back = _tcurve_to_pcurve(tc)
    assert back is not pc
    assert same(back.segments, reference_to_pcurve(tc.segments))


def test_flat_round_trips_keep_only_their_results():
    """1000 kept round trips of two-piece step p-functions leave no more
    GC-tracked objects than their results hold: per round trip the pair,
    two wrappers with their curve dicts, a test function and a p-function
    with their segment tuples, and per piece a segment tuple and a new
    Fraction in the test function, and in the p-function a segment, its
    terms and term tuples and a new Fraction: 21 on CPython 3.11-3.13,
    and 4 instance dicts more on 3.10."""
    pfs = [PFunction({0: PCurve.steps([(F(1, 4), F(i + 1, 4096)), (1, F(1, 2))])})
           for i in range(1000)]
    gc.collect()
    before = len(gc.get_objects())
    kept = [(tf, pfunction_of(tf)) for tf in map(test_function_of, pfs)]
    gc.collect()
    per_trip = 9 + 6 * 2 + (4 if sys.version_info < (3, 11) else 0)
    # the list itself, and slack far below one object per round trip
    assert len(gc.get_objects()) - before <= per_trip * len(kept) + 8
    assert all(back == pf for (_, back), pf in zip(kept, pfs))


# ---------------------------------------------------------------------------
# step-curve Galois transforms: the oracle is the general code before the
# lattice, with the PCurve / TCurve checks it triggered


def reference_inverse_ok(c, g, lo, hi):
    """The float inverse (v / c)^(1/g) of v = c x^g gives x back at the
    ends of a power piece (x = 0 needs no check), evaluated as coef * v^h
    and as the p-curve 1 / ((1 / coef) v^-h), with h = 1/g."""
    coef, h = pow_ext(recip(c), recip(g)), recip(g)
    for x in (lo, hi):
        v = mul0(c, pow_ext(x, g))
        if x > 0 and not (_close(mul0(coef, pow_ext(v, h)), x)
                          and _close(_eval_terms(((recip(coef), h),), v), x)):
            return False
    return True


NO_INVERSE = "a power piece has no inverse within float rounding"


def reference_pcurve(segments):
    segs = []
    for u_hi, terms in segments:
        terms = tuple((a, g) for a, g in terms)
        for a, g in terms:
            if a <= 0:
                raise ValueError("term coefficients must be positive")
            if g < 0:
                raise ValueError("term powers must be nonnegative")
        segs.append((u_hi, terms))
    if not segs:
        raise ValueError("p-curve needs at least one segment")
    segs.sort(key=lambda s: s[0])
    if segs[-1][0] != 1:
        raise ValueError("segments must cover (0, 1]")
    u_lo = 0
    for u_hi, _ in segs:
        if u_hi <= u_lo:
            raise ValueError("segment breakpoints must strictly increase")
        u_lo = u_hi
    prev_end = None
    u_lo = 0
    for u_hi, terms in segs:
        start = _eval_terms(terms, u_hi if u_lo == 0 else u_lo)
        if prev_end is not None and start < prev_end and not _close(start, prev_end):
            raise ValueError("p-curve must be nondecreasing in u")
        if len(terms) == 1 and terms[0][1] != 0 and \
                not reference_inverse_ok(recip(terms[0][0]), terms[0][1], u_lo, u_hi):
            raise ValueError(NO_INVERSE)
        prev_end = _eval_terms(terms, u_hi)
        u_lo = u_hi
    return tuple(segs)


def reference_tcurve(segments):
    segs = sorted(((alo, c, m) for alo, c, m in segments), key=lambda s: s[0])
    prev_end = 0
    for i, (alo, c, m) in enumerate(segs):
        if alo < 0:
            raise ValueError("alpha breakpoints must be nonnegative")
        if c < 0 or m < 0:
            raise ValueError("segment value must be nondecreasing in alpha")
        a_hi = segs[i + 1][0] if i + 1 < len(segs) else INF
        if m == 0:
            start = end = c
        else:
            # c alpha^m at the piece's ends, with 0 * inf = 0: the zero
            # piece 0 * alpha ends at 0, not at inf
            start = mul0(c, pow_ext(alo, m))
            end = mul0(c, pow_ext(a_hi, m))
        if start < prev_end and not _close(start, prev_end):
            raise ValueError("test function must be nondecreasing in alpha")
        if end > 1 and not _close(end, 1):
            raise ValueError("test function values must stay within [0, 1]")
        if m != 0 and c > 0 and not reference_inverse_ok(c, m, alo, a_hi):
            raise ValueError(NO_INVERSE)
        prev_end = end
    return tuple(segs)


def reference_to_tcurve(segments):
    out = []
    u_lo = 0
    for u_hi, terms in segments:
        if not terms:
            break
        a, g = _single_term(terms)
        c = recip(a)
        if g == 0:
            out.append((c, u_hi, 0))
        else:
            v_lo = mul0(c, pow_ext(u_lo, g)) if u_lo > 0 else 0
            v_hi = mul0(c, pow_ext(u_hi, g))
            out.append((v_lo, pow_ext(recip(c), recip(g)), recip(g)))
            out.append((v_hi, u_hi, 0))
        u_lo = u_hi
    dedup = {alo: (alo, c, m) for alo, c, m in out}
    return reference_tcurve(sorted(dedup.values()))


def reference_to_pcurve(segments):
    out = []
    u_cur = 0
    for i, (alo, c, m) in enumerate(segments):
        a_hi = segments[i + 1][0] if i + 1 < len(segments) else INF
        if m == 0:
            level = min(c, 1)
            if level > u_cur:
                # a jump at alpha = inf leaves p = inf: a piece with no terms
                out.append((level, () if is_inf(alo) else ((recip(alo), 0),)))
                u_cur = level
        else:
            v_lo = min(mul0(c, pow_ext(alo, m)), 1)
            if v_lo > u_cur:
                out.append((v_lo, ((recip(alo), 0),)))
                u_cur = v_lo
            v_hi = min(mul0(c, pow_ext(a_hi, m)), 1)
            if v_hi > u_cur:
                coef = pow_ext(recip(c), recip(m))
                out.append((v_hi, ((recip(coef), recip(m)),)))
                u_cur = v_hi
    if u_cur < 1:
        out.append((1, ()))
    return reference_pcurve(out)


def assert_round_trip_matches(curve):
    """Both transforms equal the oracle's, the round trip gives p back and
    the adjunction tf(alpha) >= u <=> p(u) <= alpha holds on the
    breakpoints."""
    ref_t = outcome(reference_to_tcurve, curve.segments)
    got_t = outcome(lambda: _pcurve_to_tcurve(curve).segments)
    assert same_outcome(got_t, ref_t)
    if got_t[0] != "ok":
        return
    tc = TCurve(got_t[1])
    back = _tcurve_to_pcurve(tc)
    assert same(back.segments, reference_to_pcurve(tc.segments))
    for u in curve.breakpoints():
        assert back.value(u) == curve.value(u)
        for a in [a for a, _, _ in tc.segments if a > 0]:
            assert (tc.value(a) >= u) == (curve.value(u) <= a)


levels = st.one_of(st.fractions(F(1, 64), 2, max_denominator=64), st.integers(1, 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 63), levels), max_size=4,
                unique_by=lambda t: t[0]),
       levels, st.sampled_from(["none", "inf", "equal"]))
def test_step_round_trips_match_the_oracle(raw, last, tail):
    """Nondecreasing step p-functions with int and Fraction cuts and
    levels, repeated levels, levels above 1 and p = inf tails."""
    raw = sorted(raw)
    cuts = [F(c, 64) for c, _ in raw] + [1]
    lv = sorted([x for _, x in raw] + [last], key=F)
    if tail == "inf":
        lv[-1] = INF
    elif tail == "equal" and len(lv) > 1:
        lv[-1] = lv[-2]
    assert_round_trip_matches(PCurve.steps(list(zip(cuts, lv))))


@pytest.mark.parametrize("pieces", [
    [(F(1, 2), F(1, 2) + F(1, 10**12)), (1, F(1, 2))],   # p falls by 10^-12
    [(F(1, 4), F(1, 2)), (F(1, 2), F(1, 2) - F(1, 10**12)), (1, F(1, 2))],
    [(F(1, 2), 1 + F(1, 10**12)), (1, 1 + F(1, 10**11))],
    [(1, INF)],
    [(F(1, 3), 3), (1, INF)],
])
def test_step_round_trips_at_the_tolerance_and_at_inf(pieces):
    # the float tolerance does not apply to exact levels: a p that falls
    # by less than it is rejected, as it has no exact inverse
    if any(b[1] < a[1] for a, b in zip(pieces, pieces[1:])):
        with pytest.raises(ValueError, match="nondecreasing"):
            PCurve.steps(pieces)
    else:
        assert_round_trip_matches(PCurve.steps(pieces))


@pytest.mark.parametrize("curve", [
    PCurve.power(2, 1),
    PCurve.power(F(1, 2), F(1, 2)),
    PCurve([(F(1, 2), ((F(4), 1),)), (1, ((F(1, 2), 0),))]),
    PCurve([(F(1, 4), ((F(2), 0),)), (1, ((F(1), F(1, 3)),))]),
    PCurve([(F(1, 2), ((2.0, 0),)), (1, ((1, 0),))]),
    PCurve([(F(1, 2), ((F(2), F(0)),)), (1, ((1, 0),))]),
])
def test_power_and_float_pieces_take_the_fallback(curve):
    assert_round_trip_matches(curve)


def test_two_terms_on_a_piece_still_raise():
    curve = PCurve([(1, ((F(1), 0), (F(1), 0)))])
    got, want = outcome(_pcurve_to_tcurve, curve), outcome(reference_to_tcurve,
                                                            curve.segments)
    assert got[0] == want[0] == "ValueError" and got[1] == want[1]


# float dips: PCurve lets p fall by a relative 1e-9, and the transform
# gives tf(alpha) = sup{u : p(u) <= alpha} even so


def step_test(curve, alpha):
    """tf(alpha) of a step curve by brute force: the largest u_hi of a
    piece whose value is at most alpha."""
    return max((u for u in curve.breakpoints() if curve.value(u) <= alpha),
               default=0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 63), max_size=4, unique=True),
       st.lists(st.floats(1 / 64, 2), min_size=5, max_size=5),
       st.lists(st.sampled_from([0, 0, 1e-13, 1e-12, 1e-10, 5e-10]),
                min_size=5, max_size=5),
       st.booleans())
def test_float_step_curves_with_dips_give_the_test_function(raw, lv, dips, back):
    cuts = [F(c, 64) for c in sorted(raw)] + [1]
    lv = sorted(lv)[:len(cuts)]
    for i in range(1, len(lv)):
        if dips[i]:
            lv[i] = lv[i - 1] * (1 - dips[i])  # p falls within tolerance
            if back and i + 1 < len(lv):
                lv[i + 1] = lv[i - 1]  # and comes back to where it fell from
    curve = PCurve.steps(list(zip(cuts, lv)))
    got = _pcurve_to_tcurve(curve)
    values = [curve.value(u) for u in cuts]
    for v in values:
        for alpha in (v, math.nextafter(v, 0), math.nextafter(v, 3)):
            assert got.value(alpha) == step_test(curve, alpha)
    # where the reference holds, it agrees
    ref = outcome(reference_to_tcurve, curve.segments)
    if ref[0] == "ok":
        assert same(got.segments, ref[1])


def test_a_float_dip_that_comes_back_keeps_the_reference_segments():
    curve = PCurve.steps([(F(1, 4), .5), (F(1, 2), .5 - 1e-12), (1, .5)])
    want = ((0.499999999999, F(1, 2), 0), (0.5, 1, 0))
    assert same(_pcurve_to_tcurve(curve).segments, want)
    assert same(reference_to_tcurve(curve.segments), want)


def test_a_float_dip_that_stays_gives_the_test_function():
    # the reference sorted the earlier, higher jump after the dip and
    # raised "test function must be nondecreasing in alpha"
    curve = PCurve.steps([(F(1, 2), .5), (1, .5 - 1e-12)])
    assert same(_pcurve_to_tcurve(curve).segments, ((0.499999999999, 1, 0),))


def test_a_float_dip_after_a_power_piece_keeps_its_inverse():
    # p(u) = u / 4 on (0, 1/2], then u / (4 + 4e-12): p(0.8) = 0.2, so
    # tf(0.2) = 0.8; the reference kept the flat 1/2 from 1/8 on
    curve = PCurve([(F(1, 2), ((F(4), 1),)), (1, ((4.000000000004, 1),))])
    tc = _pcurve_to_tcurve(curve)
    assert math.isclose(tc.value(0.2), 0.8, rel_tol=1e-9)
    assert same(tc.segments, ((0, F(4), F(1)),
                              (0.12499999999987499, 4.000000000004, F(1)),
                              (0.24999999999974998, 1, 0)))


# the transforms build a flat output without the constructor's check: it
# must be what the checked constructor makes of the same segments


def assert_rebuilds_alike(curve):
    """The checked constructor, given a transform's segments, makes the
    same curve: equal, with equal types all the way down and equal reprs."""
    rebuilt = type(curve)(curve.segments)
    assert rebuilt == curve and repr(rebuilt) == repr(curve)
    assert same(rebuilt.segments, curve.segments)


def assert_transforms_build_as_checked(curve):
    got_t = outcome(lambda: _pcurve_to_tcurve(curve).segments)
    ref_t = outcome(reference_to_tcurve, curve.segments)
    if ref_t[0] == "ok":  # the reference raises on some float dips
        assert same_outcome(got_t, ref_t)
    if got_t[0] != "ok":
        return
    tc = _pcurve_to_tcurve(curve)
    assert_rebuilds_alike(tc)
    assert not hasattr(tc, "_denominator")
    got_p = outcome(lambda: _tcurve_to_pcurve(tc).segments)
    assert same_outcome(got_p, outcome(reference_to_pcurve, tc.segments))
    if got_p[0] == "ok":
        assert_rebuilds_alike(_tcurve_to_pcurve(tc))


def exact_or_float(draw, x):
    return draw(st.sampled_from([x, float(x)]))


@st.composite
def galois_inputs(draw):
    """P-curves with exact, float and mixed breakpoints and levels: steps,
    float dips within the tolerance, power pieces and p = inf tails."""
    n = draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(1, 63), min_size=n - 1,
                                max_size=n - 1, unique=True)))
    cuts = [exact_or_float(draw, F(c, 64)) for c in cuts]
    cuts.append(draw(st.sampled_from([1, 1.0, F(1)])))
    lv = sorted(draw(st.lists(st.fractions(F(1, 64), 2, max_denominator=64),
                              min_size=n, max_size=n)))
    segs, prev, tail = [], None, False
    for u_hi, level in zip(cuts, lv):
        kind = draw(st.sampled_from(["step", "step", "dip", "power", "inf"]))
        tail = tail or kind == "inf"
        if tail:
            segs.append((u_hi, ()))
            continue
        if kind == "dip" and prev is not None:
            level = float(prev) * (1 - draw(st.sampled_from([1e-13, 1e-12, 5e-10])))
        else:
            level = exact_or_float(draw, level)
        if kind == "power":
            g = draw(st.sampled_from([1, 2, F(1, 2), 0.5]))
            segs.append((u_hi, ((pow_ext(u_hi, g) / level, g),)))
        else:
            segs.append((u_hi, ((recip(level), 0),)))
        prev = level
    got = outcome(PCurve, segs)
    assume(got[0] == "ok")
    return got[1]


@settings(max_examples=400, deadline=None)
@given(galois_inputs())
def test_transforms_build_what_the_constructors_check(curve):
    assert_transforms_build_as_checked(curve)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 64), st.integers(1, 64),
                          st.sampled_from(["exact", "float", "int", "over"])),
                max_size=4, unique_by=lambda t: t[0]),
       st.booleans())
def test_flat_test_functions_build_what_the_constructor_checks(raw, inf_last):
    """Flat test functions with exact, float and mixed breakpoints and
    levels, a level within the tolerance above 1 (capped at 1), and a
    breakpoint at inf, whose coefficient 1/inf = 0 the check rejects."""
    segs, level = [], F(0)
    for a, c, kind in sorted(raw):
        level = max(level, F(c, 64))
        alpha = F(a, 32)
        value = {"float": float(level), "over": 1 + 5e-10}.get(kind, level)
        if kind == "int" and alpha.denominator == 1:
            alpha = int(alpha)
        segs.append((float(alpha) if kind in ("float", "over") else alpha, value, 0))
    if inf_last:
        segs.append((INF, 1, 0))
    tc = outcome(TCurve, segs)
    assume(tc[0] == "ok")
    tc = tc[1]
    got = outcome(lambda: _tcurve_to_pcurve(tc).segments)
    assert same_outcome(got, outcome(reference_to_pcurve, tc.segments))
    if got[0] == "ok":
        assert_rebuilds_alike(_tcurve_to_pcurve(tc))


@pytest.mark.parametrize("build", [
    # p(u) = u^g / a with g = 0.0034: the inverse coefficient a^(1/g)
    # passes the float range, which the transform's output check reported
    # as "test function values must stay within [0, 1]"
    lambda: PCurve([(0.9, ((11.751222271230494, 0.0034372308726587624),)),
                    (1, ((10.594427965728988, 0),))]),
    # tf(alpha) = c alpha^(1e-12): the inverse power is 10^12, and the
    # transform raised "segments must cover (0, 1]"
    lambda: TCurve([(0.5, 1.0000000001 / 0.5 ** 1e-12, 1e-12), (0.6, 1, 0)]),
    lambda: TCurve([(0.62, 0.289, 0.242), (1.497, 0.7545, 5.68e-05), (1.658, 0.884, 0)]),
    # coef * v^143 gives both ends back, but the p-curve's u^-143 overflows
    lambda: TCurve([(0.02, 0.007152365498832552, 0.006993163411685472), (0.04, 1, 0)]),
    # exact operands: 1/g = 10^8/3 scales the rounding of v past the
    # tolerance; (1/c)^(1/g) = 2^(10^5/7) passes the float range; and
    # v^(1/g) = (4/7)^(10^4) falls below it
    lambda: PCurve.power(F(10 ** 9 + 1, 10 ** 9), F(3, 10 ** 8)),
    lambda: PCurve.power(F(1, 2), F(7, 10 ** 5)),
    lambda: PCurve.power(F(4, 7), F(1, 10 ** 4)),
], ids=["small-power", "power-level-past-1", "small-test-power", "p-curve-overflow",
        "exact-small-power", "exact-coef-overflow", "exact-integer-inverse-power"])
def test_a_power_piece_without_a_float_inverse_is_refused(build):
    with pytest.raises(ValueError, match="no inverse within float rounding"):
        build()


def inverse_outcome(f, *args):
    try:
        return "ok", f(*args)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


inverse_coefs = st.one_of(
    st.fractions(F(1, 64), 64, max_denominator=64), st.integers(1, 9), st.floats(0.01, 64),
    st.sampled_from([F(10 ** 9 + 1, 10 ** 9), F(1, 10 ** 300), F(10 ** 300),
                     F(1, 2 ** 1100), F(2 ** 1100)]))
inverse_powers = st.one_of(
    st.fractions(F(1, 48), 6, max_denominator=48), st.integers(1, 3), st.floats(1e-3, 4),
    st.sampled_from([F(3, 10 ** 8), F(7, 10 ** 5), F(1, 10 ** 4), F(1, 2), F(2)]))
inverse_ends = st.one_of(
    st.just(0), st.fractions(F(1, 64), 2, max_denominator=64), st.integers(1, 2),
    st.sampled_from([F(1, 10 ** 320), F(10 ** 310), 0.5, INF]))


@settings(max_examples=500, deadline=None)
@given(inverse_coefs, inverse_powers,
       st.lists(inverse_ends, min_size=2, max_size=2, unique=True))
def test_the_inverse_check_matches_the_reference(c, g, ends):
    """The constructors' inverse check, whose exact operands are read as
    floats once on their int pairs, passes, refuses or raises as the
    reference check on the same values does."""
    lo, hi = sorted(ends)
    want = inverse_outcome(reference_inverse_ok, c, g, lo, hi)
    if want[0] == "ok":
        want = ("ok", None) if want[1] else ("ValueError", NO_INVERSE)
    assert inverse_outcome(_check_inverse, c, g, lo, hi) == want


def test_a_power_level_past_1_within_the_tolerance_round_trips():
    # tf(1/2) = 1 + 5e-10 is within the constructor's tolerance; the
    # transform made it a breakpoint past 1 and raised "segments must
    # cover (0, 1]", and now caps it at 1
    tc = TCurve([(0.5, 2.000000001, 1), (0.5000000001, 1, 0)])
    pc = _tcurve_to_pcurve(tc)
    assert same(pc.segments, ((1, ((2.0, 0),)),))
    assert_rebuilds_alike(pc)
    assert _pcurve_to_tcurve(pc) == TCurve([(0.5, 1, 0)])


@st.composite
def float_power_curves(draw):
    """(PCurve segments, TCurve segments) with float power pieces whose
    powers reach 1e-4, whose inverses pass the float range."""
    cuts = sorted(draw(st.lists(st.integers(1, 99), max_size=2, unique=True)))
    powers = st.one_of(st.just(0), st.floats(1e-4, 3), st.floats(1e-4, 0.01))
    psegs, level = [], 0.0
    for u in [c / 100 for c in cuts] + [1]:
        g = draw(powers)
        level += draw(st.floats(0.01, 1))
        psegs.append((u, ((u ** g / level, g),)))
    alos = [k / 50 for k in sorted(draw(st.lists(st.integers(0, 100), min_size=1,
                                                  max_size=3, unique=True)))]
    tsegs, level = [], 0.0
    for alo, a_hi in zip(alos, alos[1:]):
        m = draw(powers)
        level = min(1.0, level + draw(st.floats(0, 0.5)))
        tsegs.append((alo, level / a_hi ** m, m))
    tsegs.append((alos[-1], 1, 0))
    return psegs, tsegs


@settings(max_examples=300, deadline=None)
@given(float_power_curves())
def test_every_curve_a_constructor_accepts_has_a_transform(segs):
    """The Galois pair is total on single-term curves: a curve the
    constructor accepts transforms, and the output passes the check."""
    for cls, transform in ((PCurve, _pcurve_to_tcurve), (TCurve, _tcurve_to_pcurve)):
        curve = outcome(cls, segs[cls is TCurve])
        if curve[0] == "ok":
            out = transform(curve[1])
            assert type(out)(out.segments) == out


@pytest.mark.parametrize("segments, want", [
    ([(INF, 1, 0)], [(1, ())]),
    ([(F(1, 2), F(1, 2), 0), (INF, 1, 0)], [(F(1, 2), ((F(2), 0),)), (1, ())]),
], ids=["inf-breakpoint", "step-then-inf"])
def test_a_jump_at_inf_round_trips(segments, want):
    # a jump at alpha = inf is the p-value inf, a piece with no terms; its
    # p-coefficient 1/inf = 0 used to fail the check
    tc = TCurve(segments)
    pc = _tcurve_to_pcurve(tc)
    assert same(pc.segments, PCurve(want).segments)
    assert_rebuilds_alike(pc)
    assert _pcurve_to_tcurve(pc) == TCurve([s for s in segments if not is_inf(s[0])])


exact_points = st.one_of(st.fractions(-1, 2, max_denominator=8), st.integers(-1, 2))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(exact_points, exact_points,
                          st.sampled_from([0, 0, F(0), F(1, 2), 0.0])),
                max_size=4))
def test_tcurve_checks_match_the_oracle(segments):
    assert same_outcome(outcome(lambda: TCurve(segments).segments),
                        outcome(reference_tcurve, segments))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(exact_points, st.just(1)),
    st.lists(st.tuples(st.one_of(exact_points, st.floats(-1, 2)),
                       st.sampled_from([0, 0, F(0), F(1, 2), -1])), max_size=2)),
    max_size=4))
def test_pcurve_checks_match_the_oracle(segments):
    assert same_outcome(outcome(lambda: PCurve(segments).segments),
                        outcome(reference_pcurve, segments))
