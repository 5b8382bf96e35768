"""The stdlib Philox kernel and the Monte Carlo distortion's word counter
against plain oracles, on the standard library alone.

This module imports no numpy, so it runs on every supported Python with
only pytest and hypothesis installed; where numpy is installed, its tests
block the import with a ``None`` entry in ``sys.modules``.  The oracles
are the forms the kernel and the counter replaced: the per-counter Philox
loop, and float draws materialised and counted against the cell edges.
"""
import importlib.util
import math
import sys
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from posthoc import (
    INF,
    AlphaStrategy,
    PValueLaw,
    conservative_strategy,
    decreasing_alpha_strategy,
    monte_carlo_distortion,
    uniform_p_law,
    valid_hacking_law,
)
from posthoc import distortion
from posthoc._numbers import sqrt_fraction
from posthoc._philox import _LANES, choice_cdf, philox_words
from posthoc.distortion import CHUNK_WORDS, _components, _last_k

_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_MASK = (1 << 64) - 1


def scalar_philox_words(key, offset, count):
    """Philox4x64-10 one counter at a time: the loop the packed kernel
    replaced."""
    lo, hi = key & _MASK, key >> 64
    keys = [((lo + i * _W0) & _MASK, (hi + i * _W1) & _MASK) for i in range(10)]
    words = []
    for c in range(offset // 4 + 1, (offset + count + 3) // 4 + 1):
        x0, x1, x2, x3 = c & _MASK, c >> 64 & _MASK, c >> 128 & _MASK, c >> 192
        for k0, k1 in keys:
            p, q = _M0 * x0, _M1 * x2
            x0, x1, x2, x3 = q >> 64 ^ x1 ^ k0, q & _MASK, p >> 64 ^ x3 ^ k1, p & _MASK
        words += (x0, x1, x2, x3)
    skip = offset % 4
    return words[skip:skip + count]


def no_numpy():
    """numpy blocked: importing it raises, and the draws count as stdlib."""
    return mock.patch.dict(sys.modules, {"numpy": None})


def on_path(stdlib):
    """Draw and count on the stdlib path (True) or the numpy path (False),
    whatever n."""
    return mock.patch.object(distortion, "_stdlib_draws", lambda n: stdlib)


@contextmanager
def taken_paths():
    """The ``stdlib`` argument of each call of ``distortion._word_blocks``,
    in a list that fills as the counter draws: the path it took."""
    real, paths = distortion._word_blocks, []

    def word_blocks(n, seed, picks, stdlib):
        paths.append(stdlib)
        return real(n, seed, picks, stdlib)

    with mock.patch.object(distortion, "_word_blocks", word_blocks):
        yield paths


def planted(comp={}, pos={}):
    """The words of ``distortion._word_blocks`` with the component and
    position words at the given stream indices replaced: {index: word}."""
    real = distortion._word_blocks

    def word_blocks(n, seed, picks, stdlib):
        start = 0
        for words in real(n, seed, picks, stdlib):
            for block, plants in zip(words, (comp, pos)):
                for i, word in plants.items():
                    if start <= i < start + len(words[1]):
                        block[i - start] = word
            start += len(words[1])
            yield words

    return mock.patch.object(distortion, "_word_blocks", word_blocks)


def planted_words(key, offset, count, plants):
    words = philox_words(key, offset, count)
    for i, word in plants.items():
        words[i] = word
    return words


def doubles(words):
    return [(w >> 11) * 2.0 ** -53 for w in words]


def float_draws(law, n, seed, comp={}, pos={}):
    """The n draws whose counts ``monte_carlo_distortion(law, s, n, seed)``
    takes, made as floats, with the words of :func:`planted`: the
    component doubles picked by bisecting ``choice_cdf``, then ``width * u
    + base`` on the position doubles."""
    comps = [(float(m), float(loc), 0.0) for loc, m in law.atoms]
    comps += [(float(m), float(a), float(b) - float(a)) for a, b, m in law.pieces]
    masses, base, width = zip(*comps)
    cdf = choice_cdf(list(masses))
    picks = ([bisect_right(cdf, u) for u in doubles(planted_words(seed, 0, n, comp))]
             if len(cdf) > 1 else [0] * n)
    return [width[i] * u + base[i]
            for i, u in zip(picks, doubles(planted_words(seed, n, n, pos)))]


def thirds_law():
    """Three components whose cdf 1/3, 2/3 is no multiple of 2**-53, and
    component words on, and one below, each of their cuts."""
    law = PValueLaw(atoms=[(F(1, 100), F(1, 3)), (F(3, 100), F(1, 3))],
                    pieces=[(0, F(1, 20), F(1, 3))])
    cuts = _components(law)[0]
    words = [cuts[0] - 1, cuts[0], cuts[1] - 1, cuts[1], 0, 2 ** 64 - 1]
    return law, dict(enumerate(words))


def counted_estimate(draws, s):
    """The estimate and SE that ``monte_carlo_distortion`` made of
    materialised draws: the sorted draws bisected at each cell edge, and
    the exact mean and sample variance of those counts."""
    n = len(draws)
    cells = []
    for lo, hi, lvl in s.pieces:
        lo, top = float(lo), min(float(hi), float(lvl))
        if top > lo:
            cells.append((lo, top, F(1.0 / float(lvl))))
    draws = sorted(draws)
    at_most = {x: bisect_right(draws, x) for x in {0.0, INF}.union(*(c[:2] for c in cells))}
    if at_most[INF] - at_most[0.0] != n:
        raise ValueError("the law's draws fell outside (0, inf]")
    total = squares = F(0)
    for lo, top, v in cells:
        count = at_most[top] - at_most[lo]
        total += count * v
        squares += count * v * v
    mean = total / n
    if n == 1:
        return float(mean), INF
    return float(mean), sqrt_fraction((squares - total * mean) / (n - 1) / n)


@st.composite
def laws_at_edges(draw):
    """(law, strategy) whose law puts its atoms and piece ends on the
    strategy's cuts and levels or one ulp either side of them; an atom may
    sit at inf, a piece may start at 0, and the law has 1-5 components,
    zero masses among them, with exact or float masses."""
    cuts = sorted(set(draw(st.lists(st.floats(0.01, 2), max_size=3))))
    bounds = [0.0] + cuts + [INF]
    levels = draw(st.lists(st.one_of(st.floats(0.005, 2), st.sampled_from(cuts or [0.5])),
                           min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    s = AlphaStrategy(zip(bounds, bounds[1:], levels))
    near = sorted({y for x in cuts + levels
                   for y in (math.nextafter(x, 0), x, math.nextafter(x, INF))})
    k = draw(st.integers(1, 5))
    locs = draw(st.lists(st.sampled_from(near + [INF]), max_size=k, unique=True))
    ends = draw(st.lists(st.sampled_from(near), max_size=2 * (k - len(locs)), unique=True))
    if draw(st.booleans()):
        ends.append(0.0)  # a piece from 0
    ends = sorted(ends)[:len(ends) // 2 * 2]
    spans = list(zip(ends[::2], ends[1::2]))
    if not locs and not spans:
        locs = [draw(st.sampled_from(near + [INF]))]
    k = len(locs) + len(spans)
    weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    exact = draw(st.booleans())
    ms = [F(w, sum(weights)) if exact else w / sum(weights) for w in weights]
    law = PValueLaw(atoms=list(zip(locs, ms)),
                    pieces=[(a, b, m) for (a, b), m in zip(spans, ms[len(locs):])])
    return law, s


seeds = st.integers(0, 2 ** 128 - 1)


class TestPackedKernel:
    @pytest.mark.parametrize("key", [0, 2 ** 64, 2 ** 128 - 1])
    @pytest.mark.parametrize("offset", range(9))
    def test_words_match_the_scalar_loop(self, key, offset):
        for count in (0, 1, 4, 7, CHUNK_WORDS - 1, CHUNK_WORDS + 1, 2 * CHUNK_WORDS + 5):
            assert philox_words(key, offset, count) == scalar_philox_words(key, offset, count)

    @settings(max_examples=100, deadline=None)
    @given(seeds, st.integers(0, 2 ** 70), st.integers(0, 3 * CHUNK_WORDS))
    def test_words_match_at_any_offset(self, key, offset, count):
        assert philox_words(key, offset, count) == scalar_philox_words(key, offset, count)

    @pytest.mark.parametrize("bit", [64, 128, 192])
    @pytest.mark.parametrize("before", [1, 2, 5, CHUNK_WORDS // 4 + 3])
    def test_words_match_across_a_carry_into_a_counter_word(self, bit, before):
        # the counters c .. c + k run past 2**bit, where a packed int ends
        offset = 4 * ((1 << bit) - before) - 5
        count = 4 * before + 2 * CHUNK_WORDS
        assert philox_words(7, offset, count) == scalar_philox_words(7, offset, count)

    def test_bad_key_raises_the_seed_check(self):
        with pytest.raises(ValueError, match="key must be positive"):
            philox_words(2 ** 128, 0, 4)

    def test_a_chunk_is_one_batch_of_lanes(self):
        # the stdlib path's chunks, and the counts above, fill the batches
        # the kernel runs at once
        assert CHUNK_WORDS == 4 * _LANES


class TestLastK:
    @settings(max_examples=300, deadline=None)
    @given(laws_at_edges())
    def test_the_draw_holds_at_k_and_fails_past_it(self, law_and_s):
        law, s = law_and_s
        _, base, width = _components(law)
        edges = {0.0, INF}.union(*((float(lo), min(float(hi), float(lvl)))
                                   for lo, hi, lvl in s.pieces))
        for b, w in zip(base, width):
            for x in edges:
                k = _last_k(b, w, x)
                assert -1 <= k < 2 ** 53
                if k >= 0:
                    assert w * (k * 2.0 ** -53) + b <= x
                if k < 2 ** 53 - 1:
                    assert not w * ((k + 1) * 2.0 ** -53) + b <= x

    def test_ends(self):
        assert _last_k(0.0, 1.0, 0.0) == 0  # u = 0 is the draw 0.0
        assert _last_k(0.0, 1.0, 1.0) == 2 ** 53 - 1
        assert _last_k(INF, 0.0, INF) == 2 ** 53 - 1  # an atom at inf
        assert _last_k(1.0, 0.0, 0.5) == -1
        assert _last_k(0.0, 1.0, 0.5) == 2 ** 52


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=2, max_size=9).filter(any))
def test_cuts_are_the_least_words_whose_doubles_reach_the_cdf(weights):
    law = PValueLaw(atoms=[(i + 1, F(w, sum(weights))) for i, w in enumerate(weights)])
    cuts = _components(law)[0]
    cdf = choice_cdf([float(F(w, sum(weights))) for w in weights])
    assert len(cuts) == len(weights) - 1
    for cut, c in zip(cuts, cdf):
        assert cut % 2 ** 11 == 0
        assert (cut >> 11) * 2.0 ** -53 >= c > ((cut >> 11) - 1) * 2.0 ** -53


class TestStdlibCounter:
    @settings(max_examples=150, deadline=None)
    @given(laws_at_edges(), st.sampled_from([1, 2, 3, CHUNK_WORDS + 1]), seeds)
    def test_counts_match_the_float_draws(self, law_and_s, n, seed):
        law, s = law_and_s
        with no_numpy():
            assert monte_carlo_distortion(law, s, n, seed) == \
                counted_estimate(float_draws(law, n, seed), s)

    @pytest.mark.parametrize("n", [2 ** 14, 2 ** 14 + 1,
                                   distortion.STDLIB_DRAWS, distortion.STDLIB_DRAWS + 1])
    def test_fixtures_match_the_float_draws(self, n):
        for law in (uniform_p_law(), valid_hacking_law()):
            for s in (decreasing_alpha_strategy(), conservative_strategy()):
                with no_numpy(), on_path(True):
                    assert monte_carlo_distortion(law, s, n, 2026) == \
                        counted_estimate(float_draws(law, n, 2026), s)

    def test_a_component_word_on_a_cut_picks_the_next_component(self):
        law, comp = thirds_law()
        s = decreasing_alpha_strategy()
        want = float_draws(law, 8, 5, comp=comp)
        with no_numpy(), planted(comp=comp):
            assert monte_carlo_distortion(law, s, 8, 5) == counted_estimate(want, s)

    @pytest.mark.parametrize("word", [0, 2 ** 11 - 1])
    @pytest.mark.parametrize("where", [0, CHUNK_WORDS + 2])
    def test_a_draw_of_zero_is_outside_the_half_line(self, word, where):
        # a position word below 2**11 makes u = 0.0 and the draw 0.0 on a
        # piece from 0: the only draw outside (0, inf] a valid law can make
        with no_numpy(), planted(pos={where: word}), \
                pytest.raises(ValueError, match="outside"):
            monte_carlo_distortion(uniform_p_law(), decreasing_alpha_strategy(),
                                   CHUNK_WORDS + 3, seed=2)


class TestWithoutNumpy:
    """Where numpy cannot be imported, any number of draws takes the stdlib
    words, which are numpy's, so the estimate is the same."""

    @pytest.mark.parametrize("law", [uniform_p_law(), valid_hacking_law()],
                             ids=["uniform", "valid_hacking"])
    def test_draws_past_the_cutoff_take_the_stdlib_words(self, law):
        n, s = distortion.STDLIB_DRAWS + 5, decreasing_alpha_strategy()
        with no_numpy(), taken_paths() as paths:
            got = monte_carlo_distortion(law, s, n, 2026)
        assert paths == [True]
        with on_path(True):
            assert monte_carlo_distortion(law, s, n, 2026) == got

    @pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                        reason="numpy is not installed")
    def test_draws_past_the_cutoff_match_numpys(self):
        law, s = valid_hacking_law(), decreasing_alpha_strategy()
        n = distortion.STDLIB_DRAWS + 5
        with no_numpy():
            got = monte_carlo_distortion(law, s, n, 2026)
        with taken_paths() as paths:
            assert monte_carlo_distortion(law, s, n, 2026) == got
        assert paths == [False]

    def test_the_cutoff_is_decided_without_importing_numpy(self):
        # loaded numpy takes its path whatever n; a blocked one never does;
        # one not loaded is looked up past the cutoff, not imported
        with mock.patch.dict(sys.modules, {"numpy": object()}):
            assert not distortion._stdlib_draws(1)
        with no_numpy():
            assert distortion._stdlib_draws(distortion.STDLIB_DRAWS + 1)
        with mock.patch.dict(sys.modules):
            sys.modules.pop("numpy", None)
            installed = importlib.util.find_spec("numpy") is not None
            assert distortion._stdlib_draws(distortion.STDLIB_DRAWS + 1) is not installed
            assert "numpy" not in sys.modules


@pytest.mark.parametrize("n, error, message", [
    (True, TypeError, "n must be an integer, got True"),
    (2.0, TypeError, "n must be an integer, got 2.0"),
    ("5", TypeError, "n must be an integer, got '5'"),
    (0, ValueError, "n must be at least 1"),
    (-1, ValueError, "n must be at least 1")])
@pytest.mark.parametrize("stdlib", [False, True], ids=["numpy", "stdlib"])
def test_bad_n_raises_before_any_draw(n, error, message, stdlib):
    def no_draws(*args):
        raise AssertionError("drew with a bad n")

    with no_numpy(), on_path(stdlib), \
            mock.patch.object(distortion, "_word_blocks", no_draws), \
            pytest.raises(error, match=message):
        monte_carlo_distortion(valid_hacking_law(), decreasing_alpha_strategy(), n, 1)
