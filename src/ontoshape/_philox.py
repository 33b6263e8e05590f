"""Seeded sampling without replacement, bit-identical to numpy 2.x.

``sample(seed, n, k)`` returns the same indices, in the same order, as
``numpy.random.Generator(numpy.random.Philox(seed)).choice(n, size=k,
replace=False)``. It was proven against numpy 2.4.6 (``tests/test_philox.py``
compares the two and pins a table of outputs), so the attribute subsets of
``bench`` stay fixed without numpy. The four stages follow numpy's code:

- ``SeedSequence(seed).generate_state(2, uint64)`` makes the 128-bit key;
- Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers:
  as easy as 1, 2, 3", SC'11) turns the incremented counter into four
  64-bit words, each drawn as its low then its high 32 bits;
- Lemire's multiply-and-reject method ("Fast random integer generation in
  an interval", ACM TOMACS 2019) bounds each draw;
- Floyd's selection and a shuffle, or for ``n > 10000`` and
  ``k > n // 50`` a partial tail shuffle, picks the sample.
"""

from __future__ import annotations

import itertools

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF

# SeedSequence hashing constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Philox4x64 multipliers and Weyl key increments
_PM0, _PM1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PW0, _PW1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def _key(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(2, uint64)``: a 4-word pool mixed
    from the seed's 32-bit words, then hashed out to two 64-bit words."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = (h * _MULT_A) & _M32
        value = (value * h) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    h = _INIT_B
    state = []
    for value in pool:
        value ^= h
        h = (h * _MULT_B) & _M32
        value = (value * h) & _M32
        state.append(value ^ (value >> 16))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _words32(key0: int, key1: int):
    """The 32-bit draws of Philox keyed with ``(key0, key1)``, counter
    starting at zero."""
    # The 256-bit counter is incremented before each block; its upper three
    # words stay zero for the first 2**64 blocks, which no run reaches.
    for counter in itertools.count(1):
        c0, c1, c2, c3 = counter, 0, 0, 0
        k0, k1 = key0, key1
        for r in range(10):
            if r:
                k0, k1 = (k0 + _PW0) & _M64, (k1 + _PW1) & _M64
            p0, p1 = _PM0 * c0, _PM1 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _M64, (p0 >> 64) ^ c3 ^ k1, p0 & _M64
        for word in (c0, c1, c2, c3):
            yield word & _M32
            yield word >> 32


def sample(seed: int, n: int, k: int) -> list[int]:
    """``k`` distinct indices below ``n``, as numpy's Philox ``choice`` draws them."""
    if k < 0 or k > n:
        raise ValueError(f"cannot take {k} of {n} without replacement")
    if n > _M32:
        raise ValueError("n must be below 2**32")
    words = _words32(*_key(seed))

    def bounded(rng: int) -> int:
        """Uniform in ``[0, rng]`` by Lemire's method; ``rng == 0`` draws nothing."""
        if rng == 0:
            return 0
        excl = rng + 1
        m = next(words) * excl
        if m & _M32 < excl:
            threshold = (1 << 32) % excl
            while m & _M32 < threshold:
                m = next(words) * excl
        return m >> 32

    if n > 10000 and k > n // 50:
        # numpy stops at max(n - k, 1); i == 0 draws nothing and swaps in place
        idx = list(range(n))
        for i in range(n - 1, n - k - 1, -1):
            j = bounded(i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[n - k:]
    # Floyd's selection: a repeated draw takes j, which no earlier step took
    idx, seen = [], set()
    for j in range(n - k, n):
        val = bounded(j)
        if val in seen:
            val = j
        seen.add(val)
        idx.append(val)
    for i in range(k - 1, 0, -1):  # numpy's _shuffle_int(k, 1)
        j = bounded(i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx
