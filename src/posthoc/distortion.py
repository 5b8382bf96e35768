"""Data-dependent level strategies and size-distortion analysis.

A strategy maps the realized p-value to a significance level through a
piecewise-constant rule on (0, inf].  Conditional size, expected distortion
and maximum distortion are integrated exactly against a :class:`PValueLaw`,
in one pass over the pieces; a Monte Carlo engine cross-checks them.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable

from ._numbers import (
    INF, Number, check_seed, float_ext, fmt_number, frac, is_inf, recip,
    sqrt_fraction,
)
from ._record import Record, _set
from .core import PValueLaw


class AlphaStrategy(Record):
    """Piecewise-constant data-dependent level: pieces (lo, hi, level).

    The intervals (lo, hi] must partition (0, inf] and every level must be
    positive.  The realized level is the one whose interval contains the
    observed p-value; the comparison "p <= level" is non-strict, matching
    the half-open integration convention.
    """

    __slots__ = ("pieces",)

    pieces: tuple

    def __init__(self, pieces: Iterable):
        pieces = tuple(sorted((lo, hi, lvl) for lo, hi, lvl in pieces))
        if not pieces:
            raise ValueError("strategy needs at least one piece")
        if pieces[0][0] != 0:
            raise ValueError("strategy pieces must start at 0")
        if not is_inf(pieces[-1][1]):
            raise ValueError("strategy pieces must extend to inf")
        for (l1, h1, _), (l2, h2, _) in zip(pieces, pieces[1:]):
            if l2 != h1:
                raise ValueError("strategy pieces must tile (0, inf]")
        for lo, hi, lvl in pieces:
            if not 0 < lvl < INF:  # also false for nan
                raise ValueError(f"levels must be positive and finite, got {lvl}")
            if hi <= lo:
                raise ValueError(f"bad strategy interval ({lo}, {hi}]")
        _set(self, "pieces", pieces)

    @classmethod
    def constant(cls, alpha: Number) -> "AlphaStrategy":
        return cls([(0, INF, alpha)])

    def level_of(self, p: Number) -> Number:
        for lo, hi, lvl in self.pieces:
            if lo < p <= hi:
                return lvl
        raise ValueError(f"p-value {p!r} outside (0, inf]")

    def levels(self) -> list:
        """The distinct levels, in order of first appearance."""
        return list(dict.fromkeys(lvl for _, _, lvl in self.pieces))


class DistortionReport(Record):
    """Per-level conditional sizes plus the expected and maximum distortion."""

    __slots__ = ("per_level", "expected_distortion", "max_distortion")

    per_level: tuple  # rows of (level, mass, size, distortion)
    expected_distortion: Number
    max_distortion: Number

    def to_rows(self, fmt=fmt_number) -> list:
        """One dict per level, each number written by ``fmt``."""
        return [
            {
                "level": fmt(lvl),
                "mass": fmt(mass),
                "size": fmt(size),
                "distortion": fmt(dist),
            }
            for lvl, mass, size, dist in self.per_level
        ]


def _level_table(p_law: PValueLaw, s: AlphaStrategy):
    """({a: [P(level = a), P(p <= level, level = a)]} in order of first
    appearance, E[I{p <= level} / level]) in one pass over the pieces.  The
    expectation adds up per piece: per level, it would round differently
    on float laws and make ``Fraction`` levels on them floats."""
    table = {}
    expected = 0
    for lo, hi, lvl in s.pieces:
        entry = table.setdefault(lvl, [0, 0])  # shared by equal levels
        entry[0] += p_law.mass_interval(lo, hi)
        if lvl > lo:
            cell = p_law.mass_interval(lo, min(hi, lvl))
            entry[1] += cell
            expected += cell / lvl
    return table, expected


def _rows(table: dict):
    """(level, mass, size, distortion) rows of the levels of positive mass,
    and the largest distortion."""
    rows = []
    for a, (mass, rejected) in table.items():
        if mass != 0:  # an essential supremum ignores null levels
            size = rejected / mass
            rows.append((a, mass, size, size / a))
    return rows, max([0] + [row[3] for row in rows])


def conditional_size(p_law: PValueLaw, s: AlphaStrategy, a: Number) -> Number:
    """P(p <= level | level = a), exact."""
    mass, rejected = _level_table(p_law, s)[0].get(a, (0, 0))
    if mass == 0:
        raise ValueError(f"level {a!r} has zero probability; cannot condition")
    return rejected / mass


def expected_size_distortion(p_law: PValueLaw, s: AlphaStrategy) -> Number:
    """E[ I{p <= level} / level ], exact; +inf when divergent."""
    return _level_table(p_law, s)[1]


def max_size_distortion(p_law: PValueLaw, s: AlphaStrategy) -> Number:
    """sup over levels in the strategy's support of size(a)/a."""
    return _rows(_level_table(p_law, s)[0])[1]


def distortion_report(p_law: PValueLaw, s: AlphaStrategy) -> DistortionReport:
    table, expected = _level_table(p_law, s)
    rows, maximum = _rows(table)
    return DistortionReport(tuple(rows), expected, maximum)


# ---------------------------------------------------------------------------
# Monte Carlo: the words of one Philox stream counted against integer cuts


SAMPLE_BLOCK = 1 << 16  # words per block on numpy's path: 512 KB a stream
# words per chunk on the stdlib path: four for each of the 512 counters
# that posthoc._philox runs at once
CHUNK_WORDS = 1 << 11
# the most draws counted without numpy: a CLI run of 2^16 draws takes
# 0.15-0.18 s against 0.28-0.29 s with numpy's import, and at 2^18
# draws numpy's path is the faster on a two-component law (CPython 3.11
# on a 2-core x86-64 Xeon)
STDLIB_DRAWS = 1 << 16


def _stdlib_draws(n: int) -> bool:
    """Whether n draws take their words from the stdlib Philox kernel, as
    lists of ints, rather than from numpy's (:func:`_word_blocks`).  Up to
    ``STDLIB_DRAWS`` draws while numpy is not loaded, as its path is the
    faster at any n once it is; above, when numpy is not installed, which
    its import finder tells without importing it.  A ``None`` entry in
    ``sys.modules``, which blocks the import, counts as not installed."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"] is None
    if n <= STDLIB_DRAWS:
        return True
    from importlib.util import find_spec

    return find_spec("numpy") is None


def _word_blocks(n: int, seed: int, picks: bool, stdlib: bool):
    """The words of ``Philox(key=seed)`` that n draws take, as blocks of
    pairs (component words, position words): words 0 .. n-1 pick the
    draws' components and words n .. 2n-1 place them.  A law of one
    component needs no pick (``picks`` false): its component words are
    None and its stream starts at word n all the same.  With ``stdlib``
    the words are lists of ints from :func:`posthoc._philox.philox_words`,
    ``CHUNK_WORDS`` at a time, as lists of ints are large; else uint64
    arrays of ``numpy.random.Philox.random_raw``, ``SAMPLE_BLOCK`` at a
    time.  Both read this one stream."""
    if stdlib:
        from ._philox import philox_words

        for start in range(0, n, CHUNK_WORDS):
            count = min(CHUNK_WORDS, n - start)
            yield (philox_words(seed, start, count) if picks else None,
                   philox_words(seed, n + start, count))
        return
    import numpy as np

    comp = np.random.Philox(key=seed)
    # a Philox counter yields four 64-bit words, so a second Philox on the
    # key, advanced n // 4 counters and n % 4 words, streams the position
    # words alongside the first
    pos = np.random.Philox(key=seed)
    pos.advance(n // 4)
    pos.random_raw(n % 4)
    for start in range(0, n, SAMPLE_BLOCK):
        count = min(SAMPLE_BLOCK, n - start)
        yield comp.random_raw(count) if picks else None, pos.random_raw(count)


def _components(p_law: PValueLaw) -> tuple:
    """(cuts, base, width) of the law's components, atoms then pieces.
    An atom is its location with width 0, a piece (a, b] is a with
    width b - a, and a draw in component j is ``width[j] * u + base[j]``
    for a uniform u; a location past the float range is inf
    (:func:`posthoc._numbers.float_ext`).  A component word w picks
    component j when cuts[j-1] <= w < cuts[j] (no bound past either end):
    cuts[j] = ceil(cdf[j] * 2**53) << 11 is the least word whose double
    (w >> 11) * 2**-53 is at least cdf[j], so the pick is
    ``bisect_right(cdf, u)`` on the cdf of ``Generator.choice``
    (:func:`posthoc._philox.choice_cdf`).  A law of one component has
    no cuts."""
    from ._philox import choice_cdf

    comps = [(float(m), float_ext(loc), 0.0) for loc, m in p_law.atoms]
    comps += [(float(m), float_ext(a), float_ext(b) - float_ext(a))
              for a, b, m in p_law.pieces]
    masses, base, width = (list(col) for col in zip(*comps))
    cuts = [math.ceil(c * 2.0 ** 53) << 11 for c in choice_cdf(masses)[:-1]]
    return cuts, base, width


_LAST_WORD = (1 << 64) - 1


def _last_k(base: float, width: float, x: float) -> int:
    """The largest K in [0, 2**53) with ``width * (K * 2**-53) + base <=
    x`` in floats, or -1 if none.  Float products and sums are monotone,
    so the draw ``width * u + base`` is nondecreasing in u and the K for
    which it holds are 0 .. K: found by bisection."""
    def at_most(k):
        return width * (k * 2.0 ** -53) + base <= x

    if not at_most(0):
        return -1
    lo, hi = 0, 1 << 53  # at_most(lo) holds; hi is past the last K
    if at_most(hi - 1):
        return hi - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_most(mid):
            lo = mid
        else:
            hi = mid
    return lo


def monte_carlo_distortion(p_law: PValueLaw, s: AlphaStrategy, n: int, seed: int):
    """Unbiased MC estimate of the expected size distortion, with its SE.

    Deterministic for a fixed seed (counter-based Philox stream), which
    must be an int in [0, 2**128), and n an int of at least 1: another
    type, a bool included, is a ``TypeError`` and an int out of range a
    ``ValueError``, raised before any draw.  The estimate is that of n
    float draws ``width * u + base`` of the law's components
    (:func:`_components`), picked and placed by the doubles u = (w >> 11)
    * 2**-53 of the words of ``Generator(Philox(key=seed))``, as
    ``rng.choice`` then ``rng.random`` would; but no draw is made.  Only
    the count of draws at or below each edge of the strategy's cells is
    kept, and a draw is at or below an edge x exactly when its position
    word is at most an integer cut, ``_last_k(base, width, x) << 11 |
    2047`` of its component, which its component word picks by the
    integer cuts of :func:`_components`.  So each block of words
    (:func:`_word_blocks`) is counted with integer comparisons: lists of
    ints from the stdlib Philox kernel up to ``STDLIB_DRAWS`` draws while
    numpy is not loaded, or at any n without numpy (:func:`_stdlib_draws`),
    uint64 arrays of numpy's Philox, in O(block) memory, otherwise.  Both
    paths read one stream, so they give the same counts.  Levels, edges
    and locations past the float range count as inf.  The estimate is the
    exact mean of the per-draw values 1.0/level and the SE the correctly
    rounded root of the exact sample variance over n, both computed from
    those counts.  A level so small that 1.0/level is inf scores inf, so
    a draw at or below it makes both inf; a cell no draw falls in adds
    nothing.
    """
    if not isinstance(p_law, PValueLaw):
        raise TypeError(f"expected a PValueLaw, got {type(p_law).__name__}")
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    check_seed(seed)  # before any draw: numpy and int() would take 2.5 as 2
    # a draw scores 1.0/level in its cell (lo, min(hi, level)], else 0
    cells = []
    for lo, hi, lvl in s.pieces:
        lo, lvl = float_ext(lo), float_ext(lvl)
        top = min(float_ext(hi), lvl)
        if top > lo:
            cells.append((lo, top, 1.0 / lvl))  # inf below about 5.6e-309
    # every draw is at most inf, so only the finite edges are counted; the
    # nan of u = 0 on a piece past the float range (inf * 0) is at none
    edges = sorted({0.0}.union(*(c[:2] for c in cells)) - {INF})
    cuts, base, width = _components(p_law)
    # per component of positive mass with a draw at or below some edge: the
    # span of component words that pick it, the edges at or below which all
    # its draws lie, and the last position word of a draw at or below each
    # edge that splits its draws
    comps = []
    for lo, hi, b, w in zip([0] + cuts, cuts + [1 << 64], base, width):
        lasts = [_last_k(b, w, x) << 11 | 0x7FF for x in edges]
        full = [e for e, last in enumerate(lasts) if last == _LAST_WORD]
        partial = [(e, last) for e, last in enumerate(lasts) if 0 <= last < _LAST_WORD]
        if lo < hi and (full or partial):
            comps.append((lo, hi, full, partial))
    # a component's words: a list of its position words on the stdlib
    # path; the block's position words and a mask of the component's
    # (None for all) on numpy's, as a mask is cheaper than a compress
    stdlib = _stdlib_draws(n)
    if stdlib:
        def pick(comp, pos, lo, hi):
            if lo == 0 and hi >> 64:
                return pos
            return [w for c, w in zip(comp, pos) if lo <= c < hi]

        size = len

        def at_or_below(words, last):
            return sum(w <= last for w in words)
    else:
        import numpy as np

        def pick(comp, pos, lo, hi):
            if lo == 0:
                return pos, None if hi >> 64 else comp < np.uint64(hi)
            if hi >> 64:
                return pos, comp >= np.uint64(lo)
            return pos, (comp >= np.uint64(lo)) & (comp < np.uint64(hi))

        def size(words):
            pos, keep = words
            return len(pos) if keep is None else int(np.count_nonzero(keep))

        def at_or_below(words, last):
            pos, keep = words
            below = pos <= np.uint64(last)
            return int(np.count_nonzero(below if keep is None else below & keep))
    at_most = [0] * len(edges)
    for comp, pos in _word_blocks(n, seed, bool(cuts), stdlib):
        for lo, hi, full, partial in comps:
            words = pick(comp, pos, lo, hi)
            if full:
                picked = size(words)
                for e in full:
                    at_most[e] += picked
            for e, last in partial:
                at_most[e] += at_or_below(words, last)
    if at_most[0]:  # edges[0] is 0.0
        raise ValueError("the law's draws fell outside (0, inf]")
    at_most = dict(zip(edges + [INF], at_most + [n]))
    total = squares = Fraction(0)
    for lo, top, v in cells:
        count = at_most[top] - at_most[lo]
        if not count:
            continue  # 0 * inf is 0 here: a cell no draw falls in adds nothing
        if v == INF:
            return INF, INF
        v = Fraction(v)
        total += count * v
        squares += count * v * v
    mean = total / n
    if n == 1:
        return float(mean), INF
    return float(mean), sqrt_fraction((squares - total * mean) / (n - 1) / n)


class ImpossibilityVerdict(Record):
    __slots__ = ("controls", "ess_inf", "witness_strategy", "witness_max_distortion")

    controls: bool
    ess_inf: Number
    witness_strategy: AlphaStrategy | None
    witness_max_distortion: Number

    def __bool__(self) -> bool:
        return self.controls


def impossibility_audit(p_law: PValueLaw) -> ImpossibilityVerdict:
    """Maximum size distortion is controllable iff the p-value never drops
    below 1; otherwise "reject at level p" witnesses a distortion of
    1 / inf(support)."""
    lo = p_law.ess_inf()
    if lo >= 1:
        return ImpossibilityVerdict(True, lo, None, 1)
    # witness: follow the realized p-value on its support below 1.  Atom-only
    # laws get the exact witness; continuous pieces get a geometric
    # refinement whose distortion grows without bound as it is refined, and
    # the reported witness distortion is the limiting value 1/ess-inf.
    breaks = set(b for b in p_law.support_breakpoints() if b < 1)
    for a, b, m in p_law.pieces:
        if m > 0 and a < 1:
            # a left end whose float is 0.0 starts as a piece at 0 does,
            # and a start that underflows to 0.0 adds no doubling points
            left = float(a) or float(min(b, 1)) / 256.0
            right = float(min(b, 1))
            x = left
            while 0 < x < right:
                breaks.add(x)
                x *= 2.0
    breaks = sorted(breaks)
    pieces = []
    prev = 0
    for b in breaks:
        pieces.append((prev, b, b))
        prev = b
    pieces.append((prev, INF, 1))
    witness = AlphaStrategy(pieces)
    return ImpossibilityVerdict(False, lo, witness, recip(lo))


# ---------------------------------------------------------------------------
# named fixtures for the worked examples (exact-rational backend)


def uniform_p_law() -> PValueLaw:
    """Exactly valid p-value: Unif(0, 1]."""
    return PValueLaw(pieces=[(Fraction(0), Fraction(1), Fraction(1))])


def valid_hacking_law() -> PValueLaw:
    """Conservative p-value: Unif(0, 1) w.p. 1/2, the constant 1 w.p. 1/2."""
    return PValueLaw(
        atoms=[(Fraction(1), Fraction(1, 2))],
        pieces=[(Fraction(0), Fraction(1), Fraction(1, 2))],
    )


def decreasing_alpha_strategy() -> AlphaStrategy:
    """Claim the 1% level when p <= .01, otherwise the 5% level."""
    one, five = frac(1, 100), frac(5, 100)
    return AlphaStrategy([(0, one, one), (one, INF, five)])


def conservative_strategy() -> AlphaStrategy:
    """Report a conservatively large level .02 when p <= .01, else .01."""
    one, two = frac(1, 100), frac(2, 100)
    return AlphaStrategy([(0, one, two), (one, INF, one)])


def fragility_strategy(c: Number) -> AlphaStrategy:
    """Level c when p <= c, else .05; discontinuous max distortion as c -> .05."""
    c = Fraction(c) if not isinstance(c, float) else c
    five = frac(5, 100)
    if c == five:
        return AlphaStrategy.constant(five)
    return AlphaStrategy([(0, c, c), (c, INF, five)])


def reject_at_p_strategy(p_law: PValueLaw) -> AlphaStrategy:
    """The extreme hack: use the smallest level at which the test rejects."""
    verdict = impossibility_audit(p_law)
    if verdict.witness_strategy is None:
        return AlphaStrategy.constant(1)
    return verdict.witness_strategy
