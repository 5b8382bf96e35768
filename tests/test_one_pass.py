"""The one-pass distortion table, the one refinement walk of the curve
combiners and the FDR average against the per-level, per-segment and
dict-deduplicating formulations they replace, kept here as oracles: equal
values of equal type, or the same ValueError message, on exact, float and
mixed inputs."""
from fractions import Fraction as F

from hypothesis import assume, example, given, settings, strategies as st

from posthoc import (
    INF,
    AlphaStrategy,
    EvidenceVariable,
    PCurve,
    PValueLaw,
    TCurve,
    TestFamilyCollection,
    TestFunction,
    conditional_size,
    distortion_report,
    expected_size_distortion,
    fdr_average,
    max_size_distortion,
)
from posthoc.merging import _check_weights
from posthoc.pfunctions import harmonic_combine, product_combine


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
    except ValueError as exc:
        return "ValueError", str(exc)


def same_outcome(got, want):
    return got[0] == want[0] and (same(got[1], want[1]) if got[0] == "ok"
                                  else got[1] == want[1])


# ---------------------------------------------------------------------------
# distortion oracle: one scan of the pieces per level and per quantity


def ref_levels(s):
    seen = []
    for _, _, lvl in s.pieces:
        if lvl not in seen:
            seen.append(lvl)
    return seen


def ref_level_mass(p_law, s, a):
    # left to right, as the table adds: the builtin sum of floats is
    # compensated from CPython 3.12 and can round the other way
    total = 0
    for lo, hi, lvl in s.pieces:
        if lvl == a:
            total += p_law.mass_interval(lo, hi)
    return total


def ref_rejection_mass(p_law, s, a):
    total = 0
    for lo, hi, lvl in s.pieces:
        if lvl == a and lvl > lo:
            total += p_law.mass_interval(lo, min(hi, lvl))
    return total


def ref_conditional_size(p_law, s, a):
    mass = ref_level_mass(p_law, s, a)
    if mass == 0:
        raise ValueError(f"level {a!r} has zero probability; cannot condition")
    return ref_rejection_mass(p_law, s, a) / mass


def ref_expected(p_law, s):
    total = 0
    for lo, hi, lvl in s.pieces:
        if lvl > lo:
            total += p_law.mass_interval(lo, min(hi, lvl)) / lvl
    return total


def ref_max(p_law, s):
    best = 0
    for a in ref_levels(s):
        if ref_level_mass(p_law, s, a) == 0:
            continue
        dist = ref_conditional_size(p_law, s, a) / a
        if dist > best:
            best = dist
    return best


def ref_rows(p_law, s):
    rows = []
    for a in ref_levels(s):
        mass = ref_level_mass(p_law, s, a)
        if mass == 0:
            continue
        size = ref_conditional_size(p_law, s, a)
        rows.append((a, mass, size, size / a))
    return tuple(rows)


def numbers(kind):
    """Positive numbers of one kind: exact, float, or either."""
    exact = st.one_of(st.fractions(F(1, 32), 3, max_denominator=32),
                      st.integers(1, 2))
    flt = st.floats(1 / 32, 3).filter(lambda x: x > 0)
    return {"exact": exact, "float": flt, "mixed": st.one_of(exact, flt)}[kind]


KINDS = st.sampled_from(["exact", "float", "mixed"])


@st.composite
def laws(draw):
    kind = draw(KINDS)
    locs = draw(st.lists(numbers(kind), min_size=0, max_size=3,
                         unique_by=float))
    masses = [draw(numbers(kind)) for _ in locs]
    pieces = []
    if not locs or draw(st.booleans()):
        a = draw(st.sampled_from([0, F(1, 8), 0.25, F(1, 2)]))
        pieces.append((a, a + draw(numbers("exact")), draw(numbers(kind))))
    total = sum(masses) + sum(m for _, _, m in pieces)
    return PValueLaw(atoms=[(x, m / total) for x, m in zip(locs, masses)],
                     pieces=[(a, b, m / total) for a, b, m in pieces])


# 0.5 and F(1, 2) are one level; 0.05 and F(1, 20) are two
LEVEL_POOL = [F(1, 20), 0.05, F(1, 2), 0.5, 1, 2, F(3, 2), 0.3]


@st.composite
def strategies(draw):
    kind = draw(KINDS)
    cuts = sorted(draw(st.lists(numbers(kind), max_size=4, unique_by=float)),
                  key=float)
    assume(all(x < y for x, y in zip(cuts, cuts[1:])))
    ends = [0] + cuts + [INF]
    pool = st.one_of(st.sampled_from(LEVEL_POOL), numbers(kind))
    return AlphaStrategy([(lo, hi, draw(pool)) for lo, hi in zip(ends, ends[1:])])


@settings(max_examples=400, deadline=None)
@given(laws(), strategies())
# the level's four masses add to 0.9999999999999999 left to right, and to
# 1.0 in the builtin sum of CPython 3.12 and later
@example(PValueLaw(atoms=[(F(1, 32), F(1, 98)), (1, F(45, 98)), (2, F(24, 49))],
                   pieces=[(F(1, 8), F(9, 8), F(2, 49))]),
         AlphaStrategy([(0, 0.25, 0.05), (0.25, 1.0, 0.05), (1.0, 1.5, 0.05),
                        (1.5, INF, 0.05)]))
def test_distortion_table_matches_the_per_level_oracle(law, s):
    assert same(s.levels(), ref_levels(s))
    rep = distortion_report(law, s)
    assert same(rep.per_level, ref_rows(law, s))
    assert same(rep.expected_distortion, ref_expected(law, s))
    assert same(rep.max_distortion, ref_max(law, s))
    assert same(expected_size_distortion(law, s), ref_expected(law, s))
    assert same(max_size_distortion(law, s), ref_max(law, s))
    for a in ref_levels(s) + [0.5, F(1, 2), F(7, 3)]:
        assert same_outcome(outcome(conditional_size, law, s, a),
                            outcome(ref_conditional_size, law, s, a))


def test_equal_levels_of_two_types_share_the_first_ones_row():
    law = PValueLaw(pieces=[(0, 1, F(1))])
    s = AlphaStrategy([(0, F(1, 4), 0.5), (F(1, 4), 1, F(1, 2)), (1, INF, F(1, 20))])
    rep = distortion_report(law, s)
    assert same(rep.per_level, ref_rows(law, s))
    assert type(rep.per_level[0][0]) is float and rep.per_level[0][1] == 1


# ---------------------------------------------------------------------------
# combiner oracle: each curve's active terms re-found per piece


def ref_active_terms(curve, u_lo, u_hi):
    prev = 0
    for hi, terms in curve.segments:
        if prev <= u_lo and u_hi <= hi:
            return terms
        prev = hi
    raise AssertionError("refinement must align with segment breakpoints")


def ref_harmonic(curves, weights):
    cuts = sorted({u for c in curves for u in c.breakpoints()})
    out = []
    u_lo = 0
    for u_hi in cuts:
        terms = []
        for c, w in zip(curves, weights):
            if w == 0:
                continue
            for a, g in ref_active_terms(c, u_lo, u_hi):
                terms.append((w * a, g))
        out.append((u_hi, tuple(terms)))
        u_lo = u_hi
    return PCurve(out)


def ref_product(curves):
    cuts = sorted({u for c in curves for u in c.breakpoints()})
    out = []
    u_lo = 0
    for u_hi in cuts:
        terms = {0: 1}
        for c in curves:
            seg = ref_active_terms(c, u_lo, u_hi)
            if not seg:
                terms = {}
                break
            expanded = {}
            for g1, a1 in terms.items():
                for a2, g2 in seg:
                    g = g1 + g2
                    expanded[g] = expanded.get(g, 0) + a1 * a2
            terms = expanded
        out.append((u_hi, tuple((a, g) for g, a in sorted(terms.items()))))
        u_lo = u_hi
    return PCurve(out)


# breakpoints mixing 0.5 and F(1, 2), 0.25 and F(1, 4), and near misses
CUT_POOL = [F(1, 4), 0.25, F(1, 3), F(1, 2), 0.5, 0.1, F(1, 10), F(3, 4), 0.75]


@st.composite
def pcurves(draw):
    """p = 1 / (f_k * sum_j a_j u^(-g_j)) on piece k with f_k falling, so
    p is nondecreasing; the last pieces may be p = inf."""
    kind = draw(KINDS)
    cuts = sorted(draw(st.lists(st.sampled_from(CUT_POOL), max_size=3,
                                unique_by=float)), key=float)
    cuts.append(draw(st.sampled_from([1, 1.0, F(1)])))
    terms = draw(st.lists(st.tuples(numbers(kind), st.sampled_from(
        [0, F(1, 2), 1, 0.5, 2, F(0)])), min_size=1, max_size=2))
    factors = sorted((draw(numbers(kind)) for _ in cuts), key=float, reverse=True)
    n_inf = draw(st.integers(0, len(cuts) - 1))
    segs = [(u, tuple((f * a, g) for a, g in terms)) for u, f in zip(cuts, factors)]
    segs[len(segs) - n_inf:] = [(u, ()) for u, _ in segs[len(segs) - n_inf:]]
    try:
        return PCurve(segs)
    except ValueError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(st.lists(pcurves(), min_size=1, max_size=3), st.data())
def test_combiners_match_the_active_terms_oracle(curves, data):
    weights = data.draw(st.sampled_from([
        [F(1, len(curves))] * len(curves),
        [1.0 / len(curves)] * len(curves),
        [0] * (len(curves) - 1) + [1],
    ]))
    assert same_outcome(outcome(lambda: harmonic_combine(curves, weights).segments),
                        outcome(lambda: ref_harmonic(curves, weights).segments))
    assert same_outcome(outcome(lambda: product_combine(curves).segments),
                        outcome(lambda: ref_product(curves).segments))


def test_combiners_keep_the_first_seen_of_equal_breakpoints():
    half = PCurve.steps([(0.5, F(1, 4)), (1, F(1, 2))])
    other = PCurve.steps([(F(1, 2), F(1, 3)), (1, 1)])
    for curves in ([half, other], [other, half]):
        got = product_combine(curves).segments
        assert same(got, ref_product(curves).segments)
        assert type(got[0][0]) is type(curves[0].segments[0][0])
        assert same(harmonic_combine(curves, [F(1, 2)] * 2).segments,
                    ref_harmonic(curves, [F(1, 2)] * 2).segments)


# ---------------------------------------------------------------------------
# FDR average oracle: jumps deduplicated by a dict, the later one winning


def ref_fdr_segments(fam, weights):
    weights = _check_weights(weights, len(fam.members))
    out = {}
    for x in fam.outcomes:
        jumps = sorted((tf.p[x], w) for tf, w in zip(fam.members, weights)
                       if not tf.p[x] == INF)
        segs, level = [], 0
        for p, w in jumps:
            level = level + w
            segs.append((p, min(level, 1), 0))
        dedup = {alo: (alo, v, m) for alo, v, m in segs}
        out[x] = TCurve(sorted(dedup.values())).segments
    return out


P_POOL = [F(1, 2), 0.5, F(1, 4), 0.25, F(1, 10), 0.1, 1, 2, INF]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.sampled_from(P_POOL), min_size=2, max_size=2),
             min_size=k, max_size=k),
    st.sampled_from([[F(1, k)] * k, [1.0 / k] * k, [0] * (k - 1) + [1]]))))
def test_fdr_average_matches_the_dict_oracle(draw):
    rows, weights = draw
    fam = TestFamilyCollection([
        TestFunction(EvidenceVariable(dict(enumerate(row)), "p")) for row in rows])
    got = fdr_average(fam, weights)
    want = ref_fdr_segments(fam, weights)
    assert all(same(got[x].segments, want[x]) for x in fam.outcomes)
