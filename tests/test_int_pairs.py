"""The int-pair verdict kernels against the Fraction/float formulations they
replace, copied here as oracles: equal values of equal type, or the same
exception.

- ``PValueLaw`` on float inputs, each read as the dyadic rational it is:
  every statistic is the float of the exact twin's (each finite float x
  replaced by ``Fraction(x)``), and the twin of a law with ``Fraction``
  masses matches the former Fraction/float sweeps bit for bit.
- ``power_mean`` on exact values and weights at h = 0, +-inf and at a
  non-integer h, read as int pairs; and ``product0``, the merges'
  products, on int pairs.
- E[1/p] on a lattice, and the geometric mean, where an exact value lies
  outside the normal float range: there the formulations these replace
  raised or read a subnormal, and the logs are taken on the int pairs,
  so the oracle is the value computed in ``Decimal``.

The oracles add left to right, as the kernels do.  The one builtin ``sum``
is the geometric mean's log sum, which ``power_mean`` takes too: from
CPython 3.12 it is compensated, so an oracle that added left to right
would differ there.  This module imports no numpy.
"""
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from posthoc import (
    INF,
    PValueLaw,
    check_classical_validity,
    check_posthoc_validity,
)
from posthoc._numbers import (
    EXACT_TYPES, TOL, float_ext, is_inf, mul0, pow_ext, power_mean, product0,
    recip, within,
)


def same(a, b):
    """Equal, and of the same type all the way down; nan is the same as nan
    (0 * inf makes one where an exact factor underflows to 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b or a != a and b != b


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def verdict(stat):
    """stat <= 1: exactly for an exact statistic, within TOL for a float."""
    return stat <= 1 if type(stat) in EXACT_TYPES else stat <= 1 + TOL


# ---------------------------------------------------------------------------
# PValueLaw on floats: the former Fraction/float sweeps on the law's values,
# oracles for exact laws


def oracle_recip_mean(law):
    """E[1/p] as ``expect_recip`` took it without a lattice."""
    total = 0
    for loc, m in law.atoms:
        if m == 0:
            continue
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


def oracle_piece_cdf(law, total, alpha):
    for a, b, m in law.pieces:
        if alpha >= b:
            total += m
        elif alpha > a:
            total += m * (alpha - a) / (b - a)
    return total


def oracle_classical_sup(law):
    """(statistic, witness) as ``check_classical_validity`` swept a law
    without a lattice: P(p <= a) / a over the breakpoints below 1, and the
    left limit at 1."""
    best, witness = 0, None
    atoms, i, below = law.atoms, 0, 0
    for a in law.support_breakpoints():
        if a >= 1:
            break
        while i < len(atoms) and atoms[i][0] <= a:
            below += atoms[i][1]
            i += 1
        ratio = oracle_piece_cdf(law, below, a) / a
        if ratio > best:
            best, witness = ratio, a
    cdf_at_one, atom_at_one = 0, 0
    for loc, m in atoms:
        if loc > 1:
            break
        cdf_at_one += m
        if loc == 1:
            atom_at_one = atom_at_one + m
    limit = oracle_piece_cdf(law, cdf_at_one, 1) - atom_at_one
    if limit > best:
        best, witness = limit, 1
    return best, witness


def assert_sweeps_match(law):
    """The statistics, witnesses and verdicts of an exact law with
    ``Fraction`` masses equal the former Fraction/float sweeps bit for bit."""
    post = check_posthoc_validity(law)
    want = oracle_recip_mean(law)
    assert same((post.statistic, post.witness), (want, None))
    assert post.valid is verdict(want)
    classical = check_classical_validity(law)
    best, witness = oracle_classical_sup(law)
    assert same((classical.statistic, classical.witness), (best, witness))
    assert classical.valid is verdict(best)


def exact_twin(rows):
    """The rows with every finite float x replaced by ``Fraction(x)``."""
    return [tuple([F(x) if type(x) is float and math.isfinite(x) else x for x in row])
            for row in rows]


def statistics(law):
    """(E[1/p], the classical statistic, its witness, E[p]) of a law, after
    checking that each verdict is ``within`` its statistic."""
    post, classical = check_posthoc_validity(law), check_classical_validity(law)
    assert post.valid is within(post.statistic)
    assert classical.valid is within(classical.statistic)
    return post.statistic, classical.statistic, classical.witness, law.expect_identity()


def assert_matches_its_twin(atoms, pieces):
    """A law and its exact twin: each statistic is the twin's, and on a
    law with a finite float the float of the twin's, inf past the float
    range; the witnesses are equal.  The twin alone fails where its
    masses, the dyadic values of float masses, miss 1 within TOL, and the
    law alone where a float end of a piece equals the other end as a
    float.  Returns the law, or None when one of the two fails."""
    got = outcome(PValueLaw, atoms, pieces)
    twin = outcome(PValueLaw, exact_twin(atoms), exact_twin(pieces))
    if twin[0] != "ok":
        masses = [m for _, m in atoms] + [m for *_, m in pieces]
        assert twin[1].startswith("masses must sum to 1") and float in map(type, masses)
        return None
    if got[0] != "ok":
        assert got[1].startswith("bad piece interval")
        return None
    law, twin = got[1], twin[1]
    assert law == twin
    have, want = statistics(law), statistics(twin)
    if law._float:
        assert [type(s) for s in have[:2] + have[3:]] == [float] * 3
        want = (float_ext(want[0]), float_ext(want[1]), want[2], float_ext(want[3]))
    assert same(have[:2] + have[3:], want[:2] + want[3:]) and have[2] == want[2]
    return law


def in_range_pieces(law):
    """Every end and width of a piece of positive mass is 0 or a normal
    float, where the former sweeps' floats are those of the lattice."""
    return all(in_float_range(x) for a, b, m in law.pieces if m
               for x in (F(a), F(b), F(b) - F(a)))


float_locations = st.one_of(st.floats(1e-3, 4), st.floats(1e-300, 1e-3),
                            st.sampled_from([0.25, 0.5, 1.0, 2.0, INF]))


@st.composite
def float_location_laws(draw, mass_kind="fraction"):
    """(atoms, pieces) with float locations and endpoints, the kind of
    masses mass_kind names: Fractions (some 0), or a mix of Fractions,
    ints where a mass is 0 or 1, and floats, whose weights may be padded
    to a power of two so the floats sum to 1 exactly; pieces may start
    at 0.0."""
    locs = draw(st.lists(float_locations, max_size=5, unique=True))
    cuts = sorted(draw(st.lists(st.floats(0, 2), max_size=4, unique=True)))
    spans = list(zip(cuts[::2], cuts[1::2]))
    n = len(locs) + len(spans)
    if n == 0:
        locs, n = [0.5], 1
    weights = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))
    if mass_kind != "fraction" and draw(st.booleans()):
        weights[-1] += (1 << (sum(weights) - 1).bit_length()) - sum(weights)
    total = sum(weights)
    masses = []
    for w in weights:
        kind = "fraction" if mass_kind == "fraction" else draw(
            st.sampled_from(["fraction", "int", "float"]))
        if kind == "int" and w in (0, total):
            masses.append(w // total)
        elif kind == "float":
            masses.append(w / total)
        else:
            masses.append(F(w, total))
    draw(st.randoms()).shuffle(locs)
    return (list(zip(locs, masses)),
            [(a, b, m) for (a, b), m in zip(spans, masses[len(locs):])])


@settings(max_examples=400, deadline=None)
@given(float_location_laws())
@example(([(0.5, F(1, 4)), (1.0, F(1, 4)), (3.0, F(1, 2))], []))
@example(([(2.0, F(1, 2))], [(0.25, 0.75, F(1, 2))]))
@example(([(INF, F(1, 3))], [(0.0, 0.5, F(2, 3))]))
@example(([(5e-324, F(1, 2)), (1.0, F(1, 2))], []))
def test_float_locations_are_their_dyadic_values(law):
    """Fraction masses at float locations: the statistics are the floats
    of the exact twin's, and the twin matches the former sweeps."""
    atoms, pieces = law
    got = assert_matches_its_twin(atoms, pieces)
    twin = PValueLaw(exact_twin(atoms), exact_twin(pieces))
    if in_range_pieces(twin):
        assert_sweeps_match(twin)
    assert got._lattice == twin._lattice


@settings(max_examples=300, deadline=None)
@given(float_location_laws(mass_kind="mixed"))
@example(([(0.5, 0.25), (1.0, 0.75)], []))
@example(([(0.5, 0.5)], [(0.0, 1.0, 0.5)]))
@example(([(INF, 0.5)], [(0.0, 0.5, 0.5)]))
@example(([(1.0, 1 / 3), (2.0, 1 / 3), (3.0, 1 / 3)], []))  # the twin misses 1
def test_float_masses_are_their_dyadic_values(law):
    assert_matches_its_twin(*law)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([F(1, 8), F(1, 2), 1, F(3, 2), INF, 0.75, 0.5]),
                min_size=1, max_size=4, unique=True).filter(
                    lambda locs: float in map(type, locs)),
       st.lists(st.integers(1, 9), min_size=4, max_size=4))
def test_exact_and_float_locations_together_sweep_on_their_values(locs, weights):
    # an exact location next to a float one: the twin's values match the
    # former sweeps
    weights = weights[:len(locs)]
    atoms = [(loc, F(w, sum(weights))) for loc, w in zip(locs, weights)]
    assert_matches_its_twin(atoms, [])
    assert_sweeps_match(PValueLaw(exact_twin(atoms)))


# ---------------------------------------------------------------------------
# power_mean on exact values and weights


def oracle_power_mean(values, weights, h):
    """power_mean before the int pairs at h = 0, +-inf and non-integer h;
    an integral Fraction h is read as its int."""
    if type(h) is F and h.denominator == 1:
        h = h.numerator
    pairs = [(v, w) for v, w in zip(values, weights) if w != 0]
    if is_inf(h):
        return (max if h > 0 else min)(v for v, _ in pairs)
    if h == 0:
        if any(v == 0 for v, _ in pairs):
            return 0
        return math.exp(sum(float(w) * math.log(float(v)) for v, w in pairs))
    if type(h) is int:
        num, den = 0, 1
        for v, w in pairs:
            (vn, vd), (wn, wd) = v.as_integer_ratio(), w.as_integer_ratio()
            if h < 0:
                if vn == 0:
                    return 0
                vn, vd = vd, vn
            tn, td = wn * vn ** abs(h), wd * vd ** abs(h)
            g = math.gcd(den, td)
            num, den = num * (td // g) + tn * (den // g), den // g * td
        if not num:
            return 0 if h > 0 else INF
        if abs(h) == 1:
            return F(num, den) if h == 1 else F(den, num)
        return pow_ext(F(num, den), 1 / h)
    moment = 0
    for v, w in pairs:
        moment = moment + mul0(w, pow_ext(v, h))
        if is_inf(moment):
            return INF if h > 0 else 0
    if moment == 0:
        return 0 if h > 0 else INF
    return pow_ext(moment, recip(h) if isinstance(h, (int, F)) else 1.0 / h)


exact_values = st.one_of(
    st.fractions(0, 20, max_denominator=16),
    st.integers(0, 5),
    st.sampled_from([F(0), F(1, 10 ** 320), F(10 ** 320), F(10 ** 200)]),
)
indices = st.one_of(
    st.sampled_from([0, F(1, 2), F(-1, 2), F(3, 2), F(-3, 2), F(1, 3), F(2, 7),
                     INF, -INF, 0.7, -1.3, 2.0, 1, -1, 2, -2, F(2)]),
    st.fractions(-5, 5, max_denominator=12), st.floats(-5, 5))


@st.composite
def exact_weighted_values(draw):
    values = draw(st.lists(exact_values, min_size=1, max_size=5))
    raw = draw(st.lists(st.integers(0, 6), min_size=len(values),
                        max_size=len(values)).filter(any))
    weights = [F(r, sum(raw)) for r in raw]
    if draw(st.booleans()):  # a weight of 1 and the rest 0, as ints
        weights = [int(w) if w.denominator == 1 else w for w in weights]
    return values, tuple(weights)


@settings(max_examples=600, deadline=None)
@given(exact_weighted_values(), indices)
@example(([F(1, 2), F(1, 3)], (F(1, 2), F(1, 2))), INF)
@example(([2, F(2), F(1, 2)], (F(1, 3), F(1, 3), F(1, 3))), INF)  # the first max
@example(([F(1), 1, 3], (F(1, 3), F(1, 3), F(1, 3))), -INF)  # the first min
@example(([F(3, 2), F(5, 7)], (F(1, 2), F(1, 2))), F(-29, 6))  # float(1 / h)
@example(([F(1, 3), F(1, 2), F(1, 3)], (F(1, 3), F(1, 3), F(1, 3))), -INF)
@example(([F(3, 2), 0, 2], (F(1, 2), 0, F(1, 2))), F(-1, 2))
@example(([F(1, 10 ** 320), F(10 ** 200)], (F(1, 2), F(1, 2))), F(3, 2))
@example(([F(1, 10 ** 400), F(3, 2)], (F(1, 2), F(1, 2))), 0)
@example(([F(10 ** 400), F(1, 10 ** 320)], (F(1, 2), F(1, 2))), 0)
@example(([F(10 ** 320)], (1,)), 0)
# at h = -1 the exact term 10^320 / 2 meets 0^-1 = inf: the moment is inf
# and the mean 0, where Fraction + inf raised OverflowError
@example(([0, F(1, 10 ** 320), 0, 0, 0], (0, F(1, 2), 0, 0, F(1, 2))), F(-1))
def test_exact_power_means_on_int_pairs(vw, h):
    """Equal value and type as the term-by-term formulation; at h = 0 with
    a value outside the normal float range, the mean in ``Decimal``."""
    values, weights = vw
    got = outcome(power_mean, values, weights, h)
    kept = [(v, w) for v, w in zip(values, weights) if w]
    if h == 0 and all(v for v, _ in kept) and not all(
            in_float_range(v) for v, _ in kept):
        with localcontext() as ctx:
            ctx.prec = 60
            want = sum(decimal(w) * decimal_log(v) for v, w in kept).exp()
        assert got[0] == "ok" and type(got[1]) is float
        assert math.isclose(got[1], float(want), rel_tol=1e-12, abs_tol=1e-300)
    else:
        assert same(got, outcome(oracle_power_mean, values, weights, h))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(exact_values, st.floats(0, 4), st.just(INF)), max_size=5))
@example([2, 3])
@example([F(2), 3])
@example([F(1, 2), 0, INF])
@example([F(1, 10 ** 320), F(1, 10 ** 320), INF])
def test_products_on_int_pairs(values):
    """1 * v_1 * v_2 * ... by mul0: an int of ints, a Fraction of exact
    factors with a Fraction among them, 0 from a zero factor, and inf from
    an inf factor times positive exact ones, however small."""
    assert same(outcome(product0, values), outcome(reduce, mul0, values, 1))
    if INF in values and all(v == INF or type(v) in EXACT_TYPES and v > 0
                             for v in values):
        assert product0(values) == INF


# ---------------------------------------------------------------------------
# exact values outside the normal float range


def in_float_range(x):
    """x is 0, or its float is a normal float."""
    try:
        f = float(x)
    except OverflowError:
        return False
    return x == 0 or sys.float_info.min <= f < INF


def decimal(x):
    n, d = x.as_integer_ratio()
    return Decimal(n) / Decimal(d)


def decimal_log(x):
    n, d = x.as_integer_ratio()
    return Decimal(n).ln() - Decimal(d).ln()


def oracle_lattice_recip_mean(law):
    """E[1/p] as ``expect_recip`` took it on a lattice before its logs and
    piece widths were range-safe."""
    d, atoms, pieces = law._lattice
    num, den = 0, 1
    for loc, m, _ in atoms:
        if m:
            g = math.gcd(den, loc)
            num = num * (loc // g) + m * (den // g)
            den = den // g * loc
    total = 0 if not num else (
        num / den if pieces and any(p[2] for p in pieces) else F(num, den))
    for a, b, m, _ in pieces:
        if m == 0:
            continue
        if a == 0:
            return INF
        total += (m / d) * (math.log(b / d) - math.log(a / d)) / ((b - a) / d)
    return total


def decimal_log1p(x):
    """ln(1 + x) of a Fraction x >= 0, with x - x^2 / 2 below 1e-20."""
    if x < F(1, 10 ** 20):
        return decimal(x) * (1 - decimal(x) / 2)
    return decimal_log(1 + x)


def decimal_recip_mean(law):
    """E[1/p] in ``Decimal``: sum m / loc + sum m ln(b / a) / (b - a)."""
    with localcontext() as ctx:
        ctx.prec = 60
        total = sum(decimal(F(m) / loc) for loc, m in law.atoms if m)
        for a, b, m in law.pieces:
            if m:
                if a == 0:
                    return INF
                total += decimal(m) * decimal_log1p(F(b - a) / a) / decimal(b - a)
        return float(total)


wide_ends = st.one_of(
    st.fractions(0, 8, max_denominator=16),
    st.sampled_from([F(1, 10 ** 400), F(1, 10 ** 400) + F(1, 10 ** 800),
                     F(3, 10 ** 330), F(1, 10 ** 310), 1 + F(1, 10 ** 400),
                     F(10 ** 400), 10 ** 400, F(10 ** 309, 7)]),
)


@st.composite
def wide_lattice_laws(draw):
    """Exact laws with Fraction masses whose atom locations and piece ends
    may lie below, inside or above the normal float range."""
    ends = sorted(draw(st.lists(wide_ends, min_size=2, max_size=6, unique=True)))
    spans = list(zip(ends[::2], ends[1::2]))
    locs = draw(st.lists(wide_ends.filter(bool), max_size=2, unique=True))
    n = len(locs) + len(spans)
    raw = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any))
    masses = [F(r, sum(raw)) for r in raw]
    return PValueLaw(list(zip(locs, masses)),
                     [(a, b, m) for (a, b), m in zip(spans, masses[len(locs):])])


@settings(max_examples=400, deadline=None)
@given(wide_lattice_laws())
@example(PValueLaw(pieces=[(F(1, 10 ** 400), F(1), F(1))]))
@example(PValueLaw(pieces=[(F(1), F(10 ** 400), F(1))]))
@example(PValueLaw([(F(1, 10 ** 400), F(1, 2))], [(F(1), F(2), F(1, 2))]))
@example(PValueLaw(pieces=[(F(1, 10 ** 400), F(3, 10 ** 330), F(1))]))
@example(PValueLaw(pieces=[(1, 1 + F(1, 10 ** 400), F(1))]))
@example(PValueLaw(pieces=[(F(1, 10 ** 400), F(2, 10 ** 400), F(1, 10 ** 400)),
                           (1, 2, 1 - F(1, 10 ** 400))]))  # ln 2 + ln 2
@example(PValueLaw(pieces=[(F(1, 10 ** 310), F(1, 10 ** 200), F(1))]))  # 2.5e202
@example(PValueLaw(pieces=[(1, 1 + F(1, 10 ** 400), F(1, 10 ** 400)),
                           (2, 3, 1 - F(1, 10 ** 400))]))
def test_lattice_recip_mean_outside_the_float_range(law):
    """The former formulation where every end and width of a piece of
    positive mass, and the atoms' sum, is a normal float; else the value
    in ``Decimal``."""
    assert law._lattice is not None
    got = outcome(law.expect_recip)
    d, atoms, pieces = law._lattice
    atom_sum = sum((F(m, loc) for loc, m, _ in atoms if m), F(0))
    live = [(a, b) for a, b, m, _ in pieces if m]
    if (all(in_float_range(F(x, d)) for a, b in live for x in (a, b, b - a))
            and (not live or atom_sum < sys.float_info.max)):
        assert same(got, outcome(oracle_lattice_recip_mean, law))
    else:
        assert got[0] == "ok"
        assert math.isclose(got[1], decimal_recip_mean(law),
                            rel_tol=1e-12, abs_tol=1e-300)


@pytest.mark.parametrize("mass", [F(1), 1], ids=["lattice", "int-mass"])
@pytest.mark.parametrize("a, b, want", [
    (F(1, 10 ** 400), 1, 400 * math.log(10)),
    (1, 10 ** 400, 0.0),
], ids=["below", "above"])
def test_pieces_outside_the_float_range(mass, a, b, want):
    law = PValueLaw(pieces=[(a, b, mass)])
    rep = check_posthoc_validity(law)
    assert math.isclose(rep.statistic, want, rel_tol=1e-12)
    assert rep.valid is (want <= 1)


@pytest.mark.parametrize("atoms, pieces", [
    ([(F(1, 10 ** 400), F(1, 2))], [(0.5, 1.0, F(1, 2))]),
    ([(F(1, 10 ** 400), F(1, 2)), (1.0, F(1, 2))], []),
    ([(F(1, 10 ** 400), 0.5), (1.0, 0.5)], []),
    ([(F(1, 10 ** 400), 0.5)], [(0.5, 1.0, 0.5)]),
], ids=["float-piece", "float-atom", "float-masses", "float-masses-piece"])
def test_an_exact_atom_sum_past_the_float_range_meets_a_float_term(atoms, pieces):
    # the exact sum 10^400 / 2 plus a float term took the sum's float,
    # which raised OverflowError, and a float mass times 10^400 raised
    # too; the statistic is the float of the exact sum, inf
    rep = check_posthoc_validity(PValueLaw(atoms, pieces))
    assert rep.statistic == INF and type(rep.statistic) is float
    assert not rep.valid


@pytest.mark.parametrize("mass", [F(1, 2), 0.5], ids=["fraction", "float"])
def test_the_mean_of_an_exact_location_past_the_float_range_with_a_float(mass):
    # E[p] of an exact location past the float range next to a float one:
    # the Fraction 10^400 times a float raised OverflowError; E[p] is
    # summed on the lattice and its float is inf
    law = PValueLaw(atoms=[(F(10 ** 400), mass), (1.0, mass)])
    got = law.expect_identity()
    assert got == INF and type(got) is float
    twin = PValueLaw(atoms=[(F(10 ** 400), F(mass)), (1, F(mass))])
    assert twin.expect_identity() == F(10 ** 400 + 1, 2)
