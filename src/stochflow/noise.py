"""Standard normals from the counter-based Philox4x32-10 generator.

Normal j of the stream of (seed, path) is a pure function of seed, path
and j: normals 4b .. 4b+3 come from block b, the Philox4x32-10 output
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011)
of the counter (b mod 2**32, b >> 32, path mod 2**32, path >> 32) under
the key (seed mod 2**32, seed >> 32). So any slice of any path's stream
is drawn without drawing what precedes it, and a path's numbers do not
depend on the paths drawn with it. Each word pair (wa, wb) of a block,
(w0, w1) then (w2, w3), gives r*cos(t) and r*sin(t) by Box-Muller on
cell-centred 32-bit uniforms, r = sqrt(-2*ln((wa + 0.5) * 2**-32)) and
t = 2*pi*(wb + 0.5) * 2**-32, as cuRAND does with its Philox output; so
|z| < 6.77.

The rounds run on uint64 arrays of 32-bit words, where a 32x32-bit
product fits whole. Only numpy's array arithmetic is used: drawing noise
loads no generator module, and so none that maps OpenSSL. The last bits
of a normal follow numpy's float64 ``log``, ``sin`` and ``cos`` (the
latter two of t reduced to [-pi/4, pi/4]).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["normals"]

_M = (0xD2511F53, 0xCD9E8D57)  # round multipliers
_W = (0x9E3779B9, 0xBB67AE85)  # key increments (Weyl sequence)
_MASK = 0xFFFFFFFF
_ROUNDS = 10

# pi/2 = _PIO2_HI + _PIO2_LO + 3.5e-27, _PIO2_HI of 33 bits: for k <= 4,
# k * _PIO2_HI is exact, and so is t - k * _PIO2_HI (Sterbenz's lemma)
_PIO2_HI = float.fromhex("0x1.921fb544p+0")
_PIO2_LO = float.fromhex("0x1.0b4611a626331p-34")
# for t = k*pi/2 + u, k = 0..4: cos(t) = a*cos(u) + b*sin(u) and
# sin(t) = a*sin(u) - b*cos(u), one of a and b being 0 and the other +-1
_A = np.array([1.0, 0.0, -1.0, 0.0, 1.0])
_B = np.array([0.0, -1.0, 0.0, 1.0, 0.0])

# Philox blocks computed at a time: the working arrays of a tile stay in
# the core's cache, and numpy's per-call overhead stays small beside the
# work of a call
_TILE = 1 << 14


def _philox(counter, key):
    """Philox4x32-10 of counter words (c0, c1, c2, c3) under key (k0, k1).

    The words are uint64 arrays (or ints) below 2**32 that broadcast
    against each other, the key words ints below 2**32. Returns the
    output words as two uint64 arrays of shape (2, *broadcast shape):
    (w0, w2) and (w1, w3), the radius and the angle words of Box-Muller.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    shape = np.broadcast_shapes(c0.shape, c1.shape, c2.shape, c3.shape)
    # a round on the pairs a = (c0, c2) and b = (c1, c3): a's products
    # give (hi0, hi1) and the new b, (lo1, lo0) reversed; b, xored with
    # (hi1, hi0) and the key, the new a
    a = np.stack([np.broadcast_to(c0, shape), np.broadcast_to(c2, shape)])
    b = np.stack([np.broadcast_to(c1, shape), np.broadcast_to(c3, shape)])
    column = (2,) + (1,) * len(shape)
    multipliers = np.array(_M, dtype=np.uint64).reshape(column)
    hi = np.empty_like(a)
    for r in range(_ROUNDS):
        a *= multipliers
        b ^= np.right_shift(a, 32, out=hi)[::-1]
        b ^= np.array([(k + r * w) & _MASK for k, w in zip(key, _W)],
                      dtype=np.uint64).reshape(column)
        a &= _MASK
        a, b = b, a[::-1]
    return a, b


def normals(seed: int, paths: range, first: int, count: int) -> np.ndarray:
    """Normals first .. first+count-1 of each path's stream under seed.

    Returns a float64 array of shape (len(paths), count) whose row n,
    contiguous, holds the stream of paths[n]. Raises ValueError unless
    seed and the path indices are in [0, 2**64).
    """
    # a range's extremes, or its start when empty: the seed is checked
    # whatever the number of paths
    for p in (paths[0], paths[-1]) if paths else (paths.start,):
        if not (0 <= seed < 2 ** 64 and 0 <= p < 2 ** 64):
            raise ValueError(f"seed and path index must be in [0, 2**64), "
                             f"got {seed} and {p}")
    lo, hi = first // 4, -(-(first + count) // 4)  # the blocks drawn
    # (paths, block, pair, cos|sin): normal 4b + 2*pair + (0 cos, 1 sin)
    out = np.empty((len(paths), hi - lo, 2, 2))
    if out.size:
        path = np.array(paths, dtype=np.uint64)[:, None]
        path = (path & _MASK, path >> 32)
        key = (seed & _MASK, seed >> 32)
        # blocks of each path per tile, in tiles of equal width
        tiles = -(-out.size // (4 * _TILE))
        width = -(-(hi - lo) // tiles)
        for b in range(lo, hi, width):
            blocks = np.arange(b, min(b + width, hi), dtype=np.uint64)
            radius, angle = _philox((blocks & _MASK, blocks >> 32, *path), key)
            _box_muller(radius, angle, out[:, b - lo:b - lo + len(blocks)])
    start = first - 4 * lo
    return out.reshape(len(paths), 4 * (hi - lo))[:, start:start + count]


def _box_muller(radius, angle, out) -> None:
    """Writes the normals of the (pair, paths, blocks) radius and angle
    words to out (paths, blocks, pair, cos|sin)."""
    r = radius + 0.5
    r *= 2.0 ** -32
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t = angle + 0.5
    t *= 2.0 * math.pi * 2.0 ** -32  # 2*pi*(wb + 0.5) * 2**-32: a power of 2
    # cos(t) and sin(t) from u = t - k*pi/2 in [-pi/4, pi/4], where
    # numpy's cos and sin take a third of the time: u is rounded once
    # (fdlibm's first reduction step), and is within 0.7 ulp of t's
    # remainder since |u| >= 7.3e-10, the least distance of a cell centre
    # from a multiple of pi/2. Products with 0 or +-1, and sums with 0, are
    # exact. The buffers are reused in place: k for r*a, r for r*b, t for
    # cos(u) and u for sin(u).
    k = np.rint(t * (2.0 / math.pi))
    u = np.subtract(t, k * _PIO2_HI)
    u -= np.multiply(k, _PIO2_LO, out=t)
    q = k.astype(np.intp)
    ra = np.multiply(r, _A[q], out=k)
    rb = np.multiply(r, _B[q], out=r)
    cos_u = np.cos(u, out=t)
    sin_u = np.sin(u, out=u)
    pairs = np.moveaxis(out, 2, 0)  # (pair, paths, blocks, cos|sin)
    cos_t, sin_t = pairs[..., 0], pairs[..., 1]
    np.multiply(ra, cos_u, out=cos_t)
    cos_t += rb * sin_u
    np.multiply(ra, sin_u, out=sin_t)
    sin_t -= rb * cos_u
