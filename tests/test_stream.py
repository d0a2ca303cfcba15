"""References for the draws of the stream contract, over PCG64's words.

Every diffusim draw comes from one of three numpy calls on a PCG64
``Generator``. Two are checked here against a reference that reads the
generator's raw 64-bit words (``bit_generator.random_raw``), over the
shapes the package draws:

* ``Generator.random``: each double is the top 53 bits of one word,
  ``(w >> 11) * 2**-53``;
* ``Generator.integers(0, b)`` for ``b < 2**32``: Lemire's multiply-shift
  on the words' 32-bit halves, low half first. A half ``h`` is drawn again
  while the low 32 bits of ``h * b`` are below ``(2**32 - b) % b``, and
  the value is ``(h * b) >> 32``. A bound of 1 draws nothing, and the
  spare half of a word carries over to the next call.

The third, ``Generator.choice(n, k, replace=False)`` for the initial
informed set, matched no simple reference over the same words, so only
the golden digests pin it.
"""

from __future__ import annotations

import numpy as np
import pytest

from diffusim import ensemble
from diffusim.generators import make_rng

SEEDS = [0, 1, 12345, 2**64 - 1]


def words(seed, count):
    """The first ``count`` 64-bit words of ``seed``'s stream."""
    return make_rng(seed).bit_generator.random_raw(count).tolist()


def ref_random(seed, count):
    return [(w >> 11) * 2.0**-53 for w in words(seed, count)]


def ref_integers(seed, bounds):
    """One draw in [0, b) for each b of ``bounds`` from ``seed``'s stream."""
    halves = (h for w in words(seed, 2 * len(bounds) + 64)
              for h in (w & 0xFFFFFFFF, w >> 32))
    draws = []
    for b in bounds:
        m = 0
        if b > 1:
            m = next(halves) * b
            while m & 0xFFFFFFFF < (2**32 - b) % b:
                m = next(halves) * b
        draws.append(m >> 32)
    return draws


@pytest.mark.parametrize("seed", SEEDS)
def test_random_is_the_top_53_bits_of_each_word(seed):
    want = ref_random(seed, 1000)
    assert make_rng(seed).random(1000).tolist() == want
    # split calls into one buffer, as run's draw-ahead makes them
    rng, buf = make_rng(seed), np.empty(1000)
    for start, stop in [(0, 1), (1, 300), (300, 301), (301, 1000)]:
        rng.random(out=buf[start:stop])
    assert buf.tolist() == want


@pytest.mark.parametrize("seed", SEEDS)
def test_integers_over_the_scale_free_bounds(seed):
    bounds = 2 * np.arange(1, 5000 - 1)
    assert make_rng(seed).integers(0, bounds).tolist() == \
        ref_integers(seed, bounds.tolist())


@pytest.mark.parametrize("seed", SEEDS)
def test_integers_carry_the_spare_half_across_calls(seed):
    # a bound of 1 draws nothing; 2**31 + 1 rejects about half its draws
    bounds = [3, 1, 7, 2**31 + 1, 1, 1, 10, 2**32 - 1, 5] * 6
    want = ref_integers(seed, bounds)
    rng = make_rng(seed)
    assert [int(rng.integers(0, b)) for b in bounds] == want
    assert make_rng(seed).integers(0, np.array(bounds)).tolist() == want


@pytest.mark.parametrize("size", [49, 50])
def test_bootstrap_blocks_draw_the_reference(monkeypatch, size):
    # 30 resamples in (3, size) blocks; an odd block leaves a spare half
    monkeypatch.setattr(ensemble, "BOOTSTRAP_SAMPLES", 30)
    monkeypatch.setattr(ensemble, "BOOTSTRAP_CHUNK_CELLS", 3 * size)
    x = np.arange(size, dtype=np.float64) ** 2
    seed = ensemble.BOOTSTRAP_SEED
    idx = np.array(ref_integers(seed, [size] * (30 * size)))
    got = ensemble._resample_means(make_rng(seed), x)
    np.testing.assert_array_equal(got, x[idx.reshape(30, size)].mean(axis=1))
