import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posthoc import (
    INF,
    AlphaStrategy,
    PValueLaw,
    conditional_size,
    conservative_strategy,
    decreasing_alpha_strategy,
    distortion_report,
    expected_size_distortion,
    fragility_strategy,
    impossibility_audit,
    max_size_distortion,
    monte_carlo_distortion,
    uniform_p_law,
    valid_hacking_law,
)
from posthoc import distortion
from posthoc._philox import choice_cdf, pairwise_sum, philox_words
from posthoc.distortion import SAMPLE_BLOCK
from test_word_counts import (
    counted_estimate, doubles, float_draws, laws_at_edges, planted, taken_paths, thirds_law,
)


def on_path(stdlib):
    """Draw and count on the stdlib path (True) or the numpy path (False),
    whatever n and whether numpy is loaded, as it is in this module."""
    return mock.patch.object(distortion, "_stdlib_draws", lambda n: stdlib)


def philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def reference_law_sample(law, n, rng):
    """n draws of ``law`` by ``rng.choice`` of the components, then
    ``rng.random`` within them: the draws whose counts at the cell edges
    ``monte_carlo_distortion(law, s, n, seed)`` takes from
    ``rng = philox(seed)``, the reference for its word counter."""
    comps = [(float(m), ("atom", float(loc))) for loc, m in law.atoms]
    comps += [(float(m), ("piece", float(a), float(b))) for a, b, m in law.pieces]
    weights = np.array([w for w, _ in comps])
    weights = weights / weights.sum()
    idx = rng.choice(len(comps), size=n, p=weights)
    u = rng.random(n)
    out = np.empty(n)
    for i, (_, spec) in enumerate(comps):
        sel = idx == i
        if spec[0] == "atom":
            out[sel] = spec[1]
        else:
            a, b = spec[1], spec[2]
            out[sel] = a + (b - a) * u[sel]
    return out


class TestAlphaStrategy:
    def test_level_lookup(self):
        s = decreasing_alpha_strategy()
        assert s.level_of(F(1, 200)) == F(1, 100)
        assert s.level_of(F(3, 100)) == F(5, 100)
        assert s.levels() == [F(1, 100), F(5, 100)]

    def test_must_tile_positive_halfline(self):
        with pytest.raises(ValueError):
            AlphaStrategy([(0, 1, F(1, 2))])  # stops short of inf
        with pytest.raises(ValueError):
            AlphaStrategy([(0, 1, F(1, 2)), (2, INF, 1)])  # gap at (1, 2]
        with pytest.raises(ValueError):
            AlphaStrategy([(0, INF, 0)])  # level must be positive

    @pytest.mark.parametrize("bad", [math.nan, INF])
    def test_rejects_non_finite_level(self, bad):
        # a nan level passed the positivity test and then read as zero
        # expected and max distortion
        with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
            AlphaStrategy([(0, INF, bad)])
        with pytest.raises(ValueError, match="levels must be positive and finite"):
            AlphaStrategy([(0, F(1, 2), F(1, 20)), (F(1, 2), INF, bad)])

    def test_constant(self):
        s = AlphaStrategy.constant(F(1, 20))
        assert s.level_of(F(99, 100)) == F(1, 20)


class TestExactDistortion:
    def test_decreasing_alpha_conditional_sizes(self):
        law, s = uniform_p_law(), decreasing_alpha_strategy()
        assert conditional_size(law, s, F(1, 100)) == 1
        assert conditional_size(law, s, F(5, 100)) == F(4, 99)

    def test_decreasing_alpha_summary(self):
        law, s = uniform_p_law(), decreasing_alpha_strategy()
        assert expected_size_distortion(law, s) == F(9, 5)
        assert max_size_distortion(law, s) == 100

    def test_conservative(self):
        law, s = uniform_p_law(), conservative_strategy()
        assert expected_size_distortion(law, s) == F(1, 2)
        assert max_size_distortion(law, s) == 50

    def test_valid_hacking(self):
        law, s = valid_hacking_law(), decreasing_alpha_strategy()
        assert expected_size_distortion(law, s) == F(9, 10)
        assert max_size_distortion(law, s) == 100

    def test_constant_strategy_is_undistorted(self):
        law = uniform_p_law()
        s = AlphaStrategy.constant(F(1, 20))
        assert expected_size_distortion(law, s) == 1
        assert max_size_distortion(law, s) == 1

    def test_zero_mass_level_cannot_be_conditioned_on(self):
        law = PValueLaw(atoms=[(2, 1)])
        s = decreasing_alpha_strategy()
        with pytest.raises(ValueError):
            conditional_size(law, s, F(1, 100))

    def test_fragility_closed_form(self):
        law = uniform_p_law()
        five = F(5, 100)
        for c in (F(1, 100), F(3, 100), F(49, 1000)):
            s = fragility_strategy(c)
            assert expected_size_distortion(law, s) == 1 + (five - c) / five
            assert max_size_distortion(law, s) == 1 / c

    def test_fragility_is_discontinuous_at_the_level(self):
        law = uniform_p_law()
        assert max_size_distortion(law, fragility_strategy(F(5, 100))) == 1
        assert max_size_distortion(law, fragility_strategy(F(4999, 100000))) > 20

    def test_report_rows(self):
        rep = distortion_report(uniform_p_law(), decreasing_alpha_strategy())
        assert rep.expected_distortion == F(9, 5)
        assert rep.max_distortion == 100
        assert [r["level"] for r in rep.to_rows()] == ["1/100", "1/20"]


class TestMonteCarlo:
    def test_estimate_within_three_se(self):
        law, s = uniform_p_law(), decreasing_alpha_strategy()
        est, se = monte_carlo_distortion(law, s, 40_000, seed=11)
        assert abs(est - 1.8) <= 3 * se

    def test_deterministic_for_fixed_seed(self):
        law, s = valid_hacking_law(), decreasing_alpha_strategy()
        assert monte_carlo_distortion(law, s, 5000, seed=3) == \
            monte_carlo_distortion(law, s, 5000, seed=3)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            monte_carlo_distortion(uniform_p_law(), AlphaStrategy.constant(1), 0, seed=1)

    def test_rejects_a_callable_sampler(self):
        with pytest.raises(TypeError, match="expected a PValueLaw, got function"):
            monte_carlo_distortion(lambda n, rng: rng.random(n) + 0.5,
                                   decreasing_alpha_strategy(), 5, seed=2)

    # a position word below 2**11 makes u = 0.0, so the uniform law's piece
    # from 0 draws 0.0: the one draw outside (0, inf] a valid law can make
    @pytest.mark.parametrize("bad", [0.0])
    @pytest.mark.parametrize("where", [0, SAMPLE_BLOCK + 2])
    def test_rejects_draws_outside_the_half_line(self, bad, where):
        for stdlib in (False, True):
            with on_path(stdlib), planted(pos={where: 2 ** 11 - 1}), \
                    pytest.raises(ValueError, match="outside"):
                monte_carlo_distortion(uniform_p_law(), decreasing_alpha_strategy(),
                                       SAMPLE_BLOCK + 3, seed=2)
        assert float_draws(uniform_p_law(), SAMPLE_BLOCK + 3, 2,
                           pos={where: 2 ** 11 - 1})[where] == bad

    @pytest.mark.parametrize("stdlib", [False, True], ids=["numpy", "stdlib"])
    def test_a_component_word_on_a_cut_picks_the_next_component(self, stdlib):
        law, comp = thirds_law()
        s = decreasing_alpha_strategy()
        want = float_draws(law, 8, 5, comp=comp)
        with on_path(stdlib), planted(comp=comp):
            assert monte_carlo_distortion(law, s, 8, 5) == counted_estimate(want, s)

    @pytest.mark.parametrize("law, s", [
        (uniform_p_law(), AlphaStrategy.constant(10 ** 400)),
        (uniform_p_law(), AlphaStrategy([(0, F(1, 2), F(1, 2)),
                                         (F(1, 2), 10 ** 400, F(1, 10)),
                                         (10 ** 400, INF, 1)])),
        (PValueLaw(atoms=[(10 ** 400, F(1, 2))], pieces=[(0, 1, F(1, 2))]),
         decreasing_alpha_strategy()),
        (PValueLaw(pieces=[(0, 10 ** 400, 1)]), decreasing_alpha_strategy()),
    ], ids=["level", "edge", "atom", "piece"])
    def test_numbers_past_the_float_range_count_as_inf(self, law, s):
        # the exact layer takes them; the estimate once raised OverflowError
        exact = expected_size_distortion(law, s)
        with on_path(True):
            est, se = monte_carlo_distortion(law, s, 10_000, seed=7)
        with on_path(False):
            assert monte_carlo_distortion(law, s, 10_000, seed=7) == (est, se)
        if se == 0:  # every draw scores the same
            assert (est, se) == (float(exact), 0.0)
        else:
            assert abs(est - exact) <= 3 * se

    @pytest.mark.parametrize("level", [1e-300, 1e-310, F(1, 10 ** 310)],
                             ids=["normal", "float", "fraction"])
    @pytest.mark.parametrize("stdlib", [False, True], ids=["numpy", "stdlib"])
    def test_a_level_whose_reciprocal_overflows_scores_nothing_without_draws(
            self, level, stdlib):
        # 1.0 / level is inf below about 5.6e-309, and no draw of 1000
        # falls at or below the level: 0 * inf adds 0, as at 1e-300
        with on_path(stdlib):
            assert monte_carlo_distortion(uniform_p_law(), AlphaStrategy.constant(level),
                                          1000, seed=7) == (0.0, 0.0)

    @pytest.mark.parametrize("stdlib", [False, True], ids=["numpy", "stdlib"])
    def test_a_draw_at_a_level_whose_reciprocal_overflows_scores_inf(self, stdlib):
        law = PValueLaw(atoms=[(F(1, 10 ** 320), F(1, 2))], pieces=[(0, 1, F(1, 2))])
        with on_path(stdlib):
            assert monte_carlo_distortion(law, AlphaStrategy.constant(1e-310),
                                          1000, seed=7) == (INF, INF)

    def test_mc_paths_keys_keep_their_estimates(self):
        # the estimates of the default decreasing-alpha runs at 5 * 10^6
        # draws; their SEs are the correctly rounded roots
        s = decreasing_alpha_strategy()
        assert monte_carlo_distortion(uniform_p_law(), s, 5_000_000, 2029) == \
            (1.807332, 0.004759937262165936)
        assert monte_carlo_distortion(valid_hacking_law(), s, 5_000_000, 2030) == \
            (0.896824, 0.003371533718658724)

    def test_law_path_memory_is_one_block(self):
        law, s = valid_hacking_law(), decreasing_alpha_strategy()
        # the numpy path imports and caches
        monte_carlo_distortion(law, s, distortion.STDLIB_DRAWS + 1, seed=1)
        tracemalloc.start()
        try:
            monte_carlo_distortion(law, s, 10 ** 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20


# ---------------------------------------------------------------------------
# the blocked estimator against the one-shot numpy estimator it replaced


def oracle_distortion(law, s, n, seed):
    """Every draw's value in an n-length array, then numpy's mean and std."""
    draws = reference_law_sample(law, n, philox(seed))
    vals = np.zeros(n)
    lower = np.full(n, False)
    for lo, hi, lvl in s.pieces:
        sel = (draws > float(lo)) & (draws <= float(hi))
        vals[sel] = np.where(draws[sel] <= float(lvl), 1.0 / float(lvl), 0.0)
        lower |= sel
    if not lower.all():
        raise ValueError("draws fell outside (0, inf]")
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else INF
    return est, se, vals


def exact_se(vals):
    """sqrt(exact sample variance / n) of the float values, to 60 digits."""
    n = len(vals)
    counts = Counter(vals.tolist())
    mean = sum(c * F(v) for v, c in counts.items()) / n
    var = sum(c * (F(v) - mean) ** 2 for v, c in counts.items()) / (n - 1) / n
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(var.numerator) / Decimal(var.denominator)).sqrt()


B = SAMPLE_BLOCK
SIZES = [1, 2, 3, 4, 5, B - 1, B, B + 1, 2 * B + 3]


@st.composite
def p_laws(draw, min_atoms=0, max_atoms=4, floats=False):
    """Atoms (one may sit at inf), pieces, zero masses; the masses sum
    exactly to 1, or are the floats w / sum(w) with ``floats``."""
    locs = draw(st.lists(st.one_of(st.fractions(F(1, 64), 2, max_denominator=64),
                                   st.just(INF)),
                         min_size=min_atoms, max_size=max_atoms, unique=True))
    cuts = sorted(set(draw(st.lists(st.fractions(0, 2, max_denominator=32),
                                    max_size=6))))
    spans = list(zip(cuts[::2], cuts[1::2]))
    k = len(locs) + len(spans)
    if k == 0:
        locs, k = [F(1, 2)], 1
    weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
    ms = [w / sum(weights) if floats else F(w, sum(weights)) for w in weights]
    return PValueLaw(atoms=list(zip(locs, ms)),
                     pieces=[(a, b, m) for (a, b), m in zip(spans, ms[len(locs):])])


exact_levels = st.one_of(st.integers(1, 100).map(lambda k: F(1, k)),
                         st.fractions(F(1, 97), 2, max_denominator=97))
levels = st.one_of(exact_levels, st.floats(0.003, 2))


@st.composite
def strategies(draw, levels=levels):
    cuts = sorted(set(draw(st.lists(st.fractions(F(1, 50), 2, max_denominator=50),
                                    max_size=4))))
    edges = [0] + cuts + [INF]
    return AlphaStrategy([(lo, hi, draw(levels)) for lo, hi in zip(edges, edges[1:])])


@settings(max_examples=300, deadline=None)
@given(p_laws(), strategies(exact_levels))
def test_no_strategy_beats_the_mean_reciprocal(law, s):
    """1{p <= level}/level <= 1/p pointwise, so every data-dependent level
    has expected size distortion at most E[1/p]: the bound behind "reject
    at level p"."""
    assert expected_size_distortion(law, s) <= law.expect_recip()


def assert_matches_oracle(law, s, n, seed):
    est, se = monte_carlo_distortion(law, s, n, seed)
    want_est, want_se, vals = oracle_distortion(law, s, n, seed)
    if all((1.0 / float(lvl)).is_integer() for lvl in s.levels()):
        # integer values: numpy's float sum is exact too
        assert est == want_est
    else:
        assert est == pytest.approx(want_est, rel=1e-12, abs=0)
    if n == 1:
        assert se == want_se == INF
    else:
        assert abs(Decimal(se) - exact_se(vals)) <= 2 * Decimal(math.ulp(se))


seeds = st.integers(0, 2 ** 64)


class TestBlockedEstimator:
    @settings(max_examples=60, deadline=None)
    @given(st.booleans(), st.sampled_from(SIZES), seeds)
    def test_blocks_concatenate_to_sample(self, picks, n, seed):
        # numpy's blocks of at most SAMPLE_BLOCK words are words 0 .. n-1
        # (None without picks) and n .. 2n-1 of one straight read
        want = np.random.Philox(key=seed).random_raw(2 * n)
        blocks = list(distortion._word_blocks(n, seed, picks, False))
        assert all(1 <= len(pos) <= B for _, pos in blocks)
        assert np.array_equal(np.concatenate([pos for _, pos in blocks]), want[n:])
        if picks:
            assert np.array_equal(np.concatenate([comp for comp, _ in blocks]), want[:n])
        else:
            assert all(comp is None for comp, _ in blocks)

    @settings(max_examples=60, deadline=None)
    @given(p_laws(), strategies(), st.integers(1, 40), st.integers(1, 9), seeds)
    def test_small_blocks_concatenate_to_sample(self, law, s, n, size, seed):
        # blocks of at most `size` words on either path: the same words,
        # counted to the same estimate
        want = np.random.Philox(key=seed).random_raw(2 * n).tolist()
        estimate = monte_carlo_distortion(law, s, n, seed)
        for stdlib, name in ((False, "SAMPLE_BLOCK"), (True, "CHUNK_WORDS")):
            with mock.patch.object(distortion, name, size):
                blocks = list(distortion._word_blocks(n, seed, True, stdlib))
                with on_path(stdlib):
                    assert monte_carlo_distortion(law, s, n, seed) == estimate
            assert all(1 <= len(pos) <= size for _, pos in blocks)
            words = [comp for comp, _ in blocks] + [pos for _, pos in blocks]
            assert [int(w) for block in words for w in block] == want

    @settings(max_examples=80, deadline=None)
    @given(p_laws(), strategies(), st.sampled_from(SIZES), seeds)
    def test_law_estimate_matches_the_oracle(self, law, s, n, seed):
        assert_matches_oracle(law, s, n, seed)

    @pytest.mark.parametrize("n", [1, 2 ** 14, 2 ** 14 + 1, B - 1, B + 1, 3 * B + 5])
    @settings(max_examples=6, deadline=None)
    @given(laws_at_edges(), seeds)
    def test_counts_match_the_counted_draws(self, n, law_and_s, seed):
        # the word counter on both paths against the float draws of the
        # rng.choice formulation, counted at the cell edges
        law, s = law_and_s
        want = counted_estimate(reference_law_sample(law, n, philox(seed)).tolist(), s)
        for stdlib in (False, True):
            with on_path(stdlib):
                assert monte_carlo_distortion(law, s, n, seed) == want

    @pytest.mark.parametrize("n", SIZES)
    def test_fixtures_match_the_oracle(self, n):
        for law in (uniform_p_law(), valid_hacking_law()):
            for s in (decreasing_alpha_strategy(), conservative_strategy()):
                assert_matches_oracle(law, s, n, seed=2026)


# ---------------------------------------------------------------------------
# the stdlib Philox stream against numpy's


any_p_laws = st.one_of(p_laws(), p_laws(floats=True),
                       p_laws(min_atoms=9, max_atoms=16, floats=True))
keys = st.integers(0, 2 ** 128 - 1)


def numpy_words(key, offset, count):
    """Words offset .. offset + count - 1 of numpy's Philox stream, reached
    as ``distortion._word_blocks`` reaches the position words."""
    bits = np.random.Philox(key=key)
    bits.advance(offset // 4)
    bits.random_raw(offset % 4)
    return bits.random_raw(count).tolist()


class TestStdlibStream:
    @pytest.mark.parametrize("key", [0, 2 ** 64, 2 ** 128 - 1])
    @pytest.mark.parametrize("offset", range(9))
    def test_words_match_numpy(self, key, offset):
        for count in (0, 1, 4, 7):
            assert philox_words(key, offset, count) == numpy_words(key, offset, count)

    @settings(max_examples=100, deadline=None)
    @given(keys, st.integers(0, 2 ** 70), st.integers(0, 9))
    def test_words_match_numpy_at_any_offset(self, key, offset, count):
        assert philox_words(key, offset, count) == numpy_words(key, offset, count)

    @pytest.mark.parametrize("key", [0, 2 ** 64, 2 ** 128 - 1])
    def test_doubles_match_generator_random(self, key):
        # the uniform law's float draws are its position doubles, words
        # 9 .. 17: 1.0 * u + 0.0
        rng = np.random.Generator(np.random.Philox(key=key))
        assert doubles(philox_words(key, 9, 9)) == float_draws(uniform_p_law(), 9, key) == \
            rng.random(18)[9:].tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 1e6), max_size=300))
    def test_pairwise_sum_matches_numpy(self, xs):
        assert pairwise_sum(xs) == np.array(xs, dtype=float).sum()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 4), min_size=1, max_size=40).filter(any))
    def test_choice_cdf_matches_numpy(self, masses):
        p = np.array(masses) / np.array(masses).sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        assert choice_cdf(masses) == cdf.tolist()

    @settings(max_examples=150, deadline=None)
    @given(any_p_laws, st.integers(1, 200), keys)
    def test_stdlib_draws_match_rng_choice(self, law, n, seed):
        # the numpy-free oracle of the word counter makes the draws of the
        # rng.choice one
        assert float_draws(law, n, seed) == reference_law_sample(law, n, philox(seed)).tolist()

    @settings(max_examples=150, deadline=None)
    @given(any_p_laws, strategies(), st.integers(1, 200), keys)
    def test_estimate_is_the_same_on_both_sides_of_the_cutoff(self, law, s, n, seed):
        with on_path(False):
            above = monte_carlo_distortion(law, s, n, seed)
        with on_path(True):
            at = monte_carlo_distortion(law, s, n, seed)
        assert at == above

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    @pytest.mark.parametrize("stdlib", [False, True], ids=["numpy", "stdlib"])
    def test_out_of_range_seed_raises_on_both_paths(self, seed, stdlib):
        with on_path(stdlib), \
                pytest.raises(ValueError, match="key must be positive and less than 2"):
            monte_carlo_distortion(valid_hacking_law(), decreasing_alpha_strategy(),
                                   10, seed)

    @pytest.mark.parametrize("seed, error", [
        (2.5, TypeError), (True, TypeError), ("3", TypeError), (None, TypeError),
        (F(3), TypeError), (-1, ValueError), (2 ** 128, ValueError)])
    @pytest.mark.parametrize("stdlib", [False, True], ids=["numpy", "stdlib"])
    def test_bad_seed_raises_before_any_draw(self, seed, error, stdlib):
        # numpy's Philox and int() once took 2.5, True and '3' as keys 2, 1, 3
        def no_draws(*args):
            raise AssertionError("drew with a bad seed")

        with on_path(stdlib), \
                mock.patch.object(distortion, "_word_blocks", no_draws), \
                pytest.raises(error, match="seed must be an integer|key must be"):
            monte_carlo_distortion(valid_hacking_law(), decreasing_alpha_strategy(),
                                   10, seed)

    def test_the_cutoff_itself_draws_in_the_stdlib(self):
        n = distortion.STDLIB_DRAWS
        with mock.patch.dict("sys.modules"):
            del sys.modules["numpy"]  # as in a fresh process
            assert distortion._stdlib_draws(n) and not distortion._stdlib_draws(n + 1)
        law, s = valid_hacking_law(), decreasing_alpha_strategy()
        # a None entry blocks the import: numpy is not loaded
        with mock.patch.dict("sys.modules", {"numpy": None}), taken_paths() as paths:
            at = monte_carlo_distortion(law, s, n, 2026)
        assert paths == [True]
        with on_path(False):
            assert monte_carlo_distortion(law, s, n, 2026) == at

    def test_blocked_numpy_draws_small_samples_in_the_stdlib(self):
        law, s = valid_hacking_law(), decreasing_alpha_strategy()
        with on_path(False):
            want = monte_carlo_distortion(law, s, 10, 2026)
        with mock.patch.dict("sys.modules", {"numpy": None}), taken_paths() as paths:
            assert monte_carlo_distortion(law, s, 10, 2026) == want
        assert paths == [True]

    def test_loaded_numpy_draws_small_samples(self):
        # once numpy is loaded its path is the faster at any n, and both
        # paths give the same estimate
        law, s = valid_hacking_law(), decreasing_alpha_strategy()
        assert not distortion._stdlib_draws(1)
        with on_path(True):
            want = monte_carlo_distortion(law, s, 10, 2026)
        with taken_paths() as paths:
            assert monte_carlo_distortion(law, s, 10, 2026) == want
        assert paths == [False]


class TestImpossibility:
    def test_uniform_cannot_control_max_distortion(self):
        verdict = impossibility_audit(uniform_p_law())
        assert not verdict.controls
        assert verdict.ess_inf == 0
        assert verdict.witness_max_distortion == INF
        # the witness strategy realizes ever-growing distortion
        got = max_size_distortion(uniform_p_law(), verdict.witness_strategy)
        assert got > 100

    def test_atom_law_witness_is_exact(self):
        law = PValueLaw(atoms=[(F(1, 2), F(1, 2)), (2, F(1, 2))])
        verdict = impossibility_audit(law)
        assert not verdict.controls
        assert verdict.witness_max_distortion == 2
        assert max_size_distortion(law, verdict.witness_strategy) == 2

    @pytest.mark.parametrize("pieces", [
        [(F(1, 10 ** 400), 1, 1)],
        [(0, F(1, 10 ** 322), 1)],
        [(F(1, 10 ** 400), F(1, 10 ** 322), 1)],
    ], ids=["tiny-left-end", "start-underflows", "both-ends-tiny"])
    def test_a_piece_below_the_float_range_ends(self, pieces):
        # a subprocess with a timeout: the doubling from a left end whose
        # float is 0.0 never ended, and would hang the suite
        code = ("import sys\n"
                "from fractions import Fraction\n"
                "from posthoc import PValueLaw, impossibility_audit\n"
                f"v = impossibility_audit(PValueLaw(pieces={pieces!r}))\n"
                "print(v.controls, v.ess_inf == Fraction(sys.argv[1]),\n"
                "      v.witness_max_distortion)")
        env = dict(os.environ, PYTHONPATH=str(Path(distortion.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code, str(pieces[0][0])],
                             capture_output=True, text=True, check=True, env=env,
                             timeout=60).stdout
        want = "inf" if pieces[0][0] == 0 else str(F(pieces[0][0]) ** -1)
        assert out.split() == ["False", "True", want]

    def test_support_above_one_controls(self):
        law = PValueLaw(atoms=[(1, F(1, 2)), (3, F(1, 2))])
        verdict = impossibility_audit(law)
        assert verdict.controls and bool(verdict)
        assert verdict.witness_strategy is None
