"""Deterministic RNG derivation shared by the whole package.

Every random draw in the library comes from ``rng_for(...)`` with an explicit
key, so identical inputs give bit-identical outputs on any platform. String
parts are folded in via sha256 rather than ``hash()`` (which is salted per
process).

``normal_rows(*prefix, rows, dim)`` is defined by ``rng_for``: its row ``k``
is ``rng_for(*prefix, rows[k]).standard_normal(dim)``, bit for bit. It only
gets there faster: numpy's ``SeedSequence`` mixing and PCG64's seeding run for
all indices at once, and each row's state words are written in place into one
``PCG64``, whose layout is checked by reading the first row's state back.
"""

from __future__ import annotations

import ctypes
import hashlib

import numpy as np

_STRING_KEYS: dict[str, int] = {}


def _string_key(s: str) -> int:
    key = _STRING_KEYS.get(s)
    if key is None:
        key = int.from_bytes(hashlib.sha256(s.encode("utf-8")).digest()[:8], "big")
        _STRING_KEYS[s] = key
    return key


def _as_ints(parts) -> list[int]:
    out = []
    for p in parts:
        if isinstance(p, (int, np.integer)):
            out.append(int(p) & 0xFFFFFFFFFFFFFFFF)
        elif isinstance(p, str):
            out.append(_string_key(p))
        else:
            raise TypeError(f"rng key parts must be int or str, got {type(p)!r}")
    return out


def rng_for(*parts) -> np.random.Generator:
    """A PCG64 generator keyed by the given ints/strings."""
    return np.random.default_rng(np.random.SeedSequence(_as_ints(parts)))


# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx) and of
# PCG64's seeding (pcg_setseq_128_srandom_r in numpy/random/src/pcg64).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT_128 = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's split of a nonnegative int into little-endian 32-bit words."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix over arrays of uint32 words, one word per key.

    The multiplier constant evolves the same way for every key, so it stays a
    Python int; the words wrap mod 2**32 like the C code.
    """
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _pcg64_seeds(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for every key at once.

    ``entropy`` holds the keys' uint32 words column by column; the result is
    (keys, 4) uint64. The first loops are SeedSequence.mix_entropy, the last
    one generate_state.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))

    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * 4)]
    # little-endian pairs of 32-bit words make the 64-bit words
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(words[0::2], words[1::2])],
                    axis=1)


def _pcg64_state_words(seeds: np.ndarray) -> np.ndarray:
    """pcg_setseq_128_srandom_r for every row of ``_pcg64_seeds``: ``inc = seq
    << 1 | 1``, ``state = (inc + seed) * mult + inc`` mod 2**128, as (keys, 4)
    uint64 ``[state_lo, state_hi, inc_lo, inc_hi]``, 32-bit limbs for the carry."""
    s_hi, s_lo, i_hi, i_lo = seeds.T
    one, u32, mask = np.uint64(1), np.uint64(32), np.uint64(_MASK32)
    inc_lo, inc_hi = i_lo << one | one, i_hi << one | i_lo >> np.uint64(63)
    a_lo = inc_lo + s_lo
    a_hi = inc_hi + s_hi + (a_lo < inc_lo)
    m_lo, m_hi = np.uint64(_PCG_MULT_128 & 2**64 - 1), np.uint64(_PCG_MULT_128 >> 64)
    a0, a1, m0, m1 = a_lo & mask, a_lo >> u32, m_lo & mask, m_lo >> u32
    p01, p10 = a0 * m1, a1 * m0
    carry = ((a0 * m0 >> u32) + (p01 & mask) + (p10 & mask)) >> u32
    prod_hi = a1 * m1 + (p01 >> u32) + (p10 >> u32) + carry + a_lo * m_hi + a_hi * m_lo
    state_lo = a_lo * m_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < inc_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def normal_rows(*prefix, rows, dim: int) -> np.ndarray:
    """``np.stack([rng_for(*prefix, i).standard_normal(dim) for i in rows])``.

    Bit-identical to that stack, shape (len(rows), dim); ``rows`` is a 1-D
    integer array in any order, repeats allowed, and an empty one gives an
    empty (0, dim) array. Each index must be one 32-bit seed word, so every
    row lies in [0, 2**32).

    One ``PCG64`` draws every row after that row's seeded state words are
    written in place over its state. If ``PCG64.state`` does not read the
    first row's words back, the layout differs: ``RuntimeError``, not other bits.
    """
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0
                                         or rows.max() > _MASK32)):
        raise ValueError("rows must be a 1-D integer array with values in [0, 2**32)")
    count = len(rows)
    out = np.empty((count, dim), dtype=np.float64)
    fixed = [w for part in _as_ints(prefix) for w in _uint32_words(part)]
    if count == 0:
        return out
    entropy = [np.full(count, w, dtype=np.uint32) for w in fixed] + [rows.astype(np.uint32)]
    state_words = _pcg64_state_words(_pcg64_seeds(entropy))

    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    # the state address holds a pointer to the generator's pcg64_random_t
    pcg = ctypes.c_void_p.from_address(bit_gen.ctypes.state_address).value
    words = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(pcg))
    words[:] = state_words[0]
    s_lo, s_hi, i_lo, i_hi = state_words[0].tolist()
    if bit_gen.state["state"] != {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}:
        raise RuntimeError(f"PCG64's state layout differs in numpy {np.__version__}")
    for row, row_words in zip(out, state_words):
        words[:] = row_words
        gen.standard_normal(out=row)
    return out
