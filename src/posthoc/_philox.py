"""numpy's Philox stream and ``Generator.choice`` cdf in plain Python.

Philox4x64-10 (Salmon et al. 2011, "Parallel random numbers: as easy as
1, 2, 3") maps a 256-bit counter and a 128-bit key to four 64-bit words by
ten rounds of two 64x64 -> 128-bit multiplies.  ``numpy.random.Philox``
starts its counter at 0 and bumps it before each block, so word w of its
stream is lane w % 4 of counter w // 4 + 1, and a double is the top 53
bits of one word.  :func:`philox_words` computes those words without
numpy, bit for bit, so a small sample need not import it; their one
reader, ``distortion.monte_carlo_distortion``, counts them against integer
cuts and never makes a double.
"""
from __future__ import annotations

from itertools import accumulate

from ._numbers import check_seed

_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # Weyl key bumps
_MASK = (1 << 64) - 1
# counters per packed int: 256 to 8192 run alike (10% apart), and a
# smaller int keeps memory down; a caller that counts words as they come
# takes them 4 * _LANES at a time (distortion.CHUNK_WORDS)
_LANES = 512
# a memoryview cast reads words in the host's byte order; on a big-endian
# host the low word of each 128-bit lane is the second and the lanes run
# backwards, so a step of -2 from the end reads them in order
_ORDER, _STEP = (("little", 2)
                 if memoryview((1).to_bytes(8, "little")).cast("Q")[0] == 1
                 else ("big", -2))


def philox_words(key: int, offset: int, count: int) -> list:
    """Words ``offset`` .. ``offset + count - 1`` of the raw stream of
    ``numpy.random.Philox(key=key)``; a key outside [0, 2**128) raises
    numpy's ``ValueError``.

    The ten rounds run on up to ``_LANES`` counters at once: each of the
    four state words is one packed int with a 128-bit lane per counter,
    so a 64x64-bit product stays in its lane, and the keys, masks and
    shifts apply lane by lane.  A packed int never spans a carry into a
    counter's second word, so only its first word differs across lanes.
    """
    key = int(key)  # as numpy converts a scalar key
    check_seed(key)
    lo, hi = key & _MASK, key >> 64
    keys = [((lo + i * _W0) & _MASK, (hi + i * _W1) & _MASK) for i in range(10)]
    first, stop = offset // 4 + 1, (offset + count + 3) // 4 + 1
    size = min(_LANES, stop - first)
    all_ones = int.from_bytes((b"\1" + bytes(15)) * size, "little")  # 1 per lane
    all_ramp = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(size)),
                              "little")  # lane i holds i
    words = []
    c = first
    while c < stop:
        m = min(size, stop - c, (c | _MASK) + 1 - c)
        ones, ramp = all_ones, all_ramp
        if m < size:
            ones, ramp = (x & ((1 << 128 * m) - 1) for x in (ones, ramp))
        lanes = _MASK * ones
        x0 = (c & _MASK) * ones + ramp
        x1, x2, x3 = ((c >> shift & _MASK) * ones for shift in (64, 128, 192))
        for k0, k1 in keys:
            p, q = _M0 * x0, _M1 * x2
            x0, x1, x2, x3 = ((q >> 64 & lanes) ^ x1 ^ k0 * ones, q & lanes,
                              (p >> 64 & lanes) ^ x3 ^ k1 * ones, p & lanes)
        block = [0] * (4 * m)
        for lane, x in enumerate((x0, x1, x2, x3)):
            lows = memoryview(x.to_bytes(16 * m, _ORDER)).cast("Q")[::_STEP]
            block[lane::4] = lows.tolist()
        words += block
        c += m
    skip = offset % 4
    return words[skip:skip + count]


def pairwise_sum(xs: list) -> float:
    """``numpy.sum`` of a float64 vector, in its order: a plain loop below
    8 terms, eight running sums up to 128, halves (cut at a multiple of 8)
    above."""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(xs[:half]) + pairwise_sum(xs[half:])
    r = xs[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r = [s + x for s, x in zip(r, xs[i:i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in xs[end:]:
        total += x
    return total


def choice_cdf(masses: list) -> list:
    """The cdf by which ``Generator.choice(k, p=masses / masses.sum())``
    picks: ``cdf = p.cumsum(); cdf /= cdf[-1]``.  A uniform u in [0, 1)
    picks ``bisect_right(cdf, u)``."""
    total = pairwise_sum(masses)
    cdf = list(accumulate(m / total for m in masses))
    return [c / cdf[-1] for c in cdf]
