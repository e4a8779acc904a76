"""The Philox4x32-10 normals of ``stochflow.noise``: known answers, the
scalar oracle, slicing, independence of the batch, and the moments and
distribution of a large sample."""

import math

import numpy as np
import pytest

from oracles import philox4x32, philox_normals, philox_words
from stochflow import noise
from stochflow.noise import normals

TOP = 2 ** 64 - 1

# Random123's known-answer vectors: (counter, key, output)
KNOWN_ANSWERS = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2,
     (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("counter,key,expected", KNOWN_ANSWERS)
def test_philox_known_answers(counter, key, expected):
    assert philox4x32(counter, key) == expected
    (w0, w2), (w1, w3) = noise._philox(counter, key)
    assert tuple(int(w) for w in (w0, w1, w2, w3)) == expected


# keys and counters whose high words are set or clear, and between
KEYS = [(0, 0), (1, 2), (2 ** 32, 2 ** 32 + 5), (TOP, TOP), (123456789, 2 ** 40 + 7)]


@pytest.mark.parametrize("seed,path", KEYS)
def test_words_equal_the_scalar_oracle(seed, path):
    # equal words give equal cell-centred uniforms (w + 0.5) * 2**-32,
    # which are exact in float64
    blocks = np.array([0, 1, 2, 1000, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3],
                      dtype=np.uint64)
    (w0, w2), (w1, w3) = noise._philox((blocks & 0xFFFFFFFF, blocks >> 32,
                                        path & 0xFFFFFFFF, path >> 32),
                                       (seed & 0xFFFFFFFF, seed >> 32))
    got = [tuple(int(w[i]) for w in (w0, w1, w2, w3)) for i in range(len(blocks))]
    assert got == [philox_words(seed, path, int(b)) for b in blocks]


@pytest.mark.parametrize("seed,path", KEYS)
def test_normals_equal_the_scalar_oracle_within_4_ulp(seed, path):
    # numpy's log, sin and cos may differ from math's in the last bits
    for first, count in ((0, 400), (3, 9), (2 ** 34 + 1, 6)):
        got = normals(seed, range(path, path + 1), first, count)[0]
        want = np.array(philox_normals(seed, path, first, count))
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_any_slice_equals_the_same_slice_of_the_whole_draw(monkeypatch):
    paths = range(3, 6)
    whole = normals(11, paths, 0, 103)
    assert whole.shape == (3, 103)
    # tiles of 2 blocks of each path, so slices cross tiles
    for tile in (noise._TILE, 6):
        monkeypatch.setattr(noise, "_TILE", tile)
        for first, count in ((0, 0), (0, 1), (1, 3), (3, 5), (4, 4), (7, 30),
                             (13, 90), (102, 1), (0, 103)):
            got = normals(11, paths, first, count)
            assert np.array_equal(got, whole[:, first:first + count])


def test_a_paths_normals_do_not_depend_on_the_paths_drawn_with_it(monkeypatch):
    alone = normals(5, range(4, 5), 2, 41)[0]
    for tile in (noise._TILE, 3):
        monkeypatch.setattr(noise, "_TILE", tile)
        for paths in (range(10), range(4, 6), range(0, 9, 2), range(8, 3, -1)):
            got = normals(5, paths, 2, 41)
            assert np.array_equal(got[paths.index(4)], alone)


def test_extreme_seeds_and_paths_give_distinct_streams():
    # each 64-bit word of the key and of the path index reaches the stream
    streams = {(seed, path): normals(seed, range(path, path + 1), 0, 8)[0]
               for seed in (0, 1, 2 ** 32, TOP) for path in (0, 1, 2 ** 32, TOP)}
    values = [tuple(z) for z in streams.values()]
    assert len(set(values)) == len(values)


def test_seed_and_path_outside_64_bits_are_rejected_before_drawing():
    for seed, paths in ((-1, range(1)), (2 ** 64, range(1)), (0, range(-1, 2)),
                        (0, range(TOP, TOP + 2)), (-1, range(0))):
        with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
            normals(seed, paths, 0, 0)
    assert normals(TOP, range(TOP, TOP + 1), 0, 0).shape == (1, 0)
    assert normals(0, range(0), 5, 7).shape == (0, 7)


def test_moments_and_distribution_of_a_million_normals():
    n = 10 ** 6
    z = normals(20240601, range(1), 0, n)[0]
    # five standard errors: se(mean) = 1/sqrt(n), se(variance) = sqrt(2/n)
    assert abs(z.mean()) < 5 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 5 * math.sqrt(2.0 / n)
    # Kolmogorov-Smirnov: sqrt(n) * D exceeds 1.95 with probability 0.001
    s = np.sort(z)
    cdf = 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(s / math.sqrt(2.0)).astype(float))
    below, above = cdf - np.arange(n) / n, np.arange(1, n + 1) / n - cdf
    assert math.sqrt(n) * max(below.max(), above.max()) < 1.95
    # the largest radius, at the word 0: sqrt(-2 * ln(2**-33))
    assert np.abs(z).max() < math.sqrt(66 * math.log(2.0)) < 6.77
