"""Vectorised per-trajectory Philox substreams.

The trajectory engines give shot ``t`` of a run seeded ``s`` its own
generator, ``Generator(Philox(SeedSequence(s).spawn(shots)[t]))``.
Building one NumPy generator per shot costs far more than the draws it
makes, so :func:`substream_uniforms` reproduces the same doubles for a
whole tile of shots in one pass of ``uint64`` array arithmetic:

* **Child keys.**  A child's :class:`~numpy.random.SeedSequence` pool is
  the root's entropy words hashed into the pool, then its spawn-key words.
  The root words are mixed once as Python integers; only the final
  spawn-key word (the child index) is mixed as an array.  An index at or
  above ``2**32`` is two words and mixes one more.
* **Philox4x64-10** runs on ``uint64`` lanes, the 64x64->128-bit product's
  high word built from 32-bit halves.  NumPy's generator increments its
  counter before each 4-word block, so block ``j`` uses counter ``j + 1``.
* **Doubles** are ``(x >> 11) * 2**-53``, as ``Generator.random`` makes them.

``tests/simulators/test_philox.py`` checks the result against NumPy's own
per-child generators, which the test suite's per-shot reference walker
uses.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _words(value) -> list:
    """Return ``value`` as NumPy's SeedSequence sees it: little-endian
    32-bit words of each integer, concatenated across sequences."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("seed entropy must be non-negative")
        words = [value & _MASK32]
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return words
    return [word for item in value for word in _words(item)]


def _hashmix(value, hash_const: int):
    """One SeedSequence ``hashmix``; returns ``(mixed, next hash_const)``.

    Works on Python ints and on ``uint64`` arrays holding 32-bit words.
    """
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _root_pool(root: np.random.SeedSequence):
    """Mix the entropy words every child shares; returns the pool and the
    hash constant the child-index words continue from."""
    entropy = _words(root.entropy)
    size = root.pool_size
    # A child always has a spawn key, so its run entropy is zero-padded.
    words = entropy + [0] * (size - len(entropy))
    hash_const = _INIT_A
    pool = []
    for word in words[:size]:
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for src in range(size):
        for dst in range(size):
            if src != dst:
                mixed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in words[size:]:
        for dst in range(size):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], mixed)
    return pool, hash_const


def child_keys(root: np.random.SeedSequence, indices) -> np.ndarray:
    """Return the ``(len(indices), 2)`` Philox keys of ``root``'s children.

    ``root`` is a fresh ``SeedSequence(seed)``.  Row ``i`` is the key
    ``Philox(SeedSequence(root.entropy, spawn_key=(indices[i],)))`` starts
    from.
    """
    scalar_pool, hash_const = _root_pool(root)
    indices = np.asarray(indices, dtype=np.uint64)
    pool = [np.full(indices.shape, word, dtype=np.uint64) for word in scalar_pool]
    low = indices & np.uint64(_MASK32)
    for dst in range(len(pool)):
        mixed, hash_const = _hashmix(low, hash_const)
        pool[dst] = _mix(pool[dst], mixed)
    wide = indices > _MASK32
    if wide.any():
        high = indices >> np.uint64(32)
        for dst in range(len(pool)):
            mixed, hash_const = _hashmix(high, hash_const)
            pool[dst] = np.where(wide, _mix(pool[dst], mixed), pool[dst])
    # generate_state(2, uint64): four output words, pool word i -> word i.
    hash_const = _INIT_B
    out = []
    for word in pool[:4]:
        word = word ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        word = (word * hash_const) & _MASK32
        out.append(word ^ (word >> _XSHIFT))
    shift = np.uint64(32)
    return np.stack([out[0] | (out[1] << shift), out[2] | (out[3] << shift)], axis=-1)


def _mulhilo(multiplier: int, value, high, low, scratch) -> None:
    """Write the ``high`` and ``low`` 64-bit words of ``multiplier * value``.

    ``high``, ``low`` and the four ``scratch`` arrays are preallocated
    ``uint64`` buffers of ``value``'s shape, distinct from ``value``.
    """
    mask = np.uint64(_MASK32)
    shift = np.uint64(32)
    m_lo = np.uint64(multiplier & _MASK32)
    m_hi = np.uint64(multiplier >> 32)
    lo_lo, lo_hi, hi_lo, part = scratch
    np.multiply(value, np.uint64(multiplier), out=low)
    np.bitwise_and(value, mask, out=lo_lo)
    np.right_shift(value, shift, out=lo_hi)
    np.multiply(lo_hi, m_hi, out=high)
    np.multiply(lo_hi, m_lo, out=lo_hi)
    np.multiply(lo_lo, m_hi, out=hi_lo)
    np.multiply(lo_lo, m_lo, out=lo_lo)
    # middle = (lo_lo >> 32) + (lo_hi & mask) + (hi_lo & mask), in lo_lo.
    np.right_shift(lo_lo, shift, out=lo_lo)
    lo_lo += np.bitwise_and(lo_hi, mask, out=part)
    lo_lo += np.bitwise_and(hi_lo, mask, out=part)
    # high = hi_hi + (lo_hi >> 32) + (hi_lo >> 32) + (middle >> 32).
    high += np.right_shift(lo_hi, shift, out=lo_hi)
    high += np.right_shift(hi_lo, shift, out=hi_lo)
    high += np.right_shift(lo_lo, shift, out=lo_lo)


def _philox4x64(counter: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the counter blocks ``(c, 0, 0, 0)``, under each key.

    ``counter`` is ``(blocks,)`` (the low counter word; the others are 0),
    ``keys`` is ``(count, 2)``.  Returns ``(blocks, 4, count)`` words.  The
    rounds reuse a fixed set of ``uint64`` buffers.
    """
    shape = (counter.shape[0], keys.shape[0])
    c0 = np.empty(shape, dtype=np.uint64)
    c0[...] = counter[:, np.newaxis]
    c1, c2, c3 = (np.zeros(shape, dtype=np.uint64) for _ in range(3))
    hi0, lo0, hi1, lo1, *scratch = (np.empty(shape, dtype=np.uint64) for _ in range(8))
    k0 = keys[:, 0].copy()
    k1 = keys[:, 1].copy()
    for round_index in range(_PHILOX_ROUNDS):
        if round_index:
            k0 += np.uint64(_PHILOX_W[0])
            k1 += np.uint64(_PHILOX_W[1])
        _mulhilo(_PHILOX_M[0], c0, hi0, lo0, scratch)
        _mulhilo(_PHILOX_M[1], c2, hi1, lo1, scratch)
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        np.bitwise_xor(hi1, c1, out=c0)
        c0 ^= k0
        np.bitwise_xor(hi0, c3, out=c2)
        c2 ^= k1
        c1, lo1 = lo1, c1
        c3, lo0 = lo0, c3
    return np.stack([c0, c1, c2, c3], axis=1)


def substream_uniforms(
    root: np.random.SeedSequence, start: int, count: int, draws: int
) -> np.ndarray:
    """Return the ``(count, draws)`` uniforms of children ``start..start+count``.

    Row ``i`` equals ``Generator(Philox(root.spawn(n)[start + i])).random(draws)``
    for a fresh ``root`` and any ``n > start + i``.  The result is the
    transpose of a C-contiguous draw-major array, so ``.T`` reads each
    draw of the tile contiguously.
    """
    if count == 0 or draws == 0:
        return np.empty((count, draws))
    indices = np.arange(start, start + count, dtype=np.uint64)
    blocks = -(-draws // 4)
    counter = np.arange(1, blocks + 1, dtype=np.uint64)
    words = _philox4x64(counter, child_keys(root, indices))
    words = words.reshape(4 * blocks, count)[:draws]
    return ((words >> np.uint64(11)) * (1.0 / 9007199254740992.0)).T
