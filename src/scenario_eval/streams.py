"""Keyed random number substreams.

Every random draw in the package comes from a generator derived from the
experiment seed plus an integer key identifying what the draw is for.
Substreams derived from distinct keys are statistically independent, so
adding or removing one entity (a location, a model, a sampling pass) never
shifts the draws of any other entity.

``substream(seed, *key)`` draws bit-identically to
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))``. It
does ``SeedSequence``'s documented pool mixing itself, as a left fold over
the uint32 words of the seed and the key:

* the pool and hash constant after ``(seed, *key[:-1])`` are memoized
  (``_pool``, plain integer code);
* the PCG64 seeds of ``BLOCK`` consecutive final key words are mixed by the
  same fold, over columns of uint32 keys, and memoized (``_block``, at most
  ``BLOCK_CACHE`` blocks). Callers that walk the final word in order, as
  ``world_gen`` and ``approaches`` do, mix each block once.

The returned generator's ``bit_generator.seed_seq`` holds only its PCG64
seed, not a ``SeedSequence``, so ``Generator.spawn`` is not offered.
"""

from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Entity kinds used as the leading element of every stream key.
KIND_LOCATION = 1        # per-location truth draws (x*, R0, alpha)
KIND_MODEL = 2           # per-model draws (global bias, alpha center)
KIND_PAIR = 3            # per (model, location) draws (local bias, alpha)
KIND_ERROR_SAMPLING = 4  # predictive sampling of inferred error distributions
KIND_OBS_SAMPLING = 5    # predictive sampling of inferred observations

BLOCK = 256              # final key words mixed per pass; divides 2**32
BLOCK_CACHE = 2          # blocks kept

# numpy's SeedSequence constants, with its default pool of four words.
_POOL = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _constants(h: int, mult: int, n: int) -> list:
    """``h`` and the next ``n`` hash constants after it."""
    out = [h]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK)
    return out


# generate_state(4, uint64) reads the pool twice round, eight uint32 words.
_STATE_HASH = _constants(_INIT_B, _MULT_B, 2 * _POOL)
_STATE_XOR = np.array(_STATE_HASH[:-1], dtype=np.uint32)
_STATE_MUL = np.array(_STATE_HASH[1:], dtype=np.uint32)


def _hashmix(value, xor, mul):
    """SeedSequence's hashmix of uint32 ``value`` (ints or uint32 arrays)."""
    value = (value ^ xor) * mul & _MASK
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool word ``x`` with hashed word ``y``."""
    result = (_MIX_L * x - _MIX_R * y) & _MASK
    return result ^ result >> 16


def _word(n) -> int:
    """Seed or key word ``n`` as an int. As in ``SeedSequence``, ``bool`` and
    numpy integers are integers; any other type raises ``TypeError`` and a
    negative value ``ValueError``."""
    if type(n) is not int:
        if not isinstance(n, (int, np.integer)):
            raise TypeError(f"seed and key words must be integers, not {n!r}")
        n = int(n)
    if n < 0:
        raise ValueError(f"seed and key words must be non-negative, not {n}")
    return n


def _uint32s(n: int) -> list:
    """Non-negative ``n``'s little-endian uint32 words; ``[0]`` for 0."""
    words = [n & _MASK]
    while n > _MASK:
        n >>= 32
        words.append(n & _MASK)
    return words


def _fold(pool: list, h: int, words) -> tuple:
    """Mix each of ``words`` into every pool word, from hash constant ``h``."""
    for word in words:
        for dst in range(_POOL):
            xor, h = h, h * _MULT_A & _MASK
            pool[dst] = _mix(pool[dst], _hashmix(word, xor, h))
    return pool, h


@lru_cache(maxsize=16)
def _pool(seed: int, *prefix: int) -> tuple:
    """The pool (a tuple of four uint32 ints) and the hash constant after
    mixing ``seed`` and the key words ``prefix``."""
    if prefix:
        pool, h = _pool(seed, *prefix[:-1])
        pool, h = _fold(list(pool), h, _uint32s(prefix[-1]))
        return tuple(pool), h
    # A keyed seed is padded to the pool size, so no key word enters the pool
    # directly; with no key the padding changes nothing.
    entropy = _uint32s(seed)
    entropy += [0] * (_POOL - len(entropy))
    pool, h = [], _INIT_A
    for word in entropy[:_POOL]:
        xor, h = h, h * _MULT_A & _MASK
        pool.append(_hashmix(word, xor, h))
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                xor, h = h, h * _MULT_A & _MASK
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor, h))
    pool, h = _fold(pool, h, entropy[_POOL:])
    return tuple(pool), h


def _seeds(pool) -> np.ndarray:
    """``generate_state(4, uint64)`` of each row of the uint32 ``pool``."""
    state = _hashmix(np.concatenate((pool, pool), axis=1), _STATE_XOR, _STATE_MUL)
    state = state.astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32


@lru_cache(maxsize=BLOCK_CACHE)
def _block(seed: int, prefix: tuple, base: int) -> np.ndarray:
    """The PCG64 seeds of keys ``(*prefix, base + i)`` for i < ``BLOCK``,
    one row of four uint64 each; ``base`` is a multiple of ``BLOCK``."""
    pool, h = _pool(seed, *prefix)
    low, *high = _uint32s(base)
    # Each pool and key word is a column of BLOCK uint32 keys: a Python int
    # overflows numpy's uint32 in _mix, and a numpy uint32 scalar warns when
    # it wraps. All keys of a block share the words above the lowest, since
    # BLOCK divides 2**32.
    words = [np.arange(low, low + BLOCK, dtype=np.uint32),
             *(np.full(BLOCK, w, np.uint32) for w in high)]
    pool, _ = _fold([np.full(BLOCK, w, np.uint32) for w in pool], h, words)
    return _seeds(np.column_stack(pool))


class _Seeded(ISeedSequence):
    """One key's PCG64 seed, handed to ``PCG64`` as its seed sequence."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds a PCG64 seed only: generate_state(4, np.uint64)")
        return self.state


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for ``key`` under ``seed``.

    The seed and key words must be non-negative integers: ``TypeError`` for
    any other type, ``ValueError`` for a negative one. The same (seed, key)
    always yields the same stream, the one ``SeedSequence(seed,
    spawn_key=key)`` seeds.
    """
    seed, key = _word(seed), tuple(map(_word, key))
    if key:
        *prefix, last = key
        state = _block(seed, tuple(prefix), last - last % BLOCK)[last % BLOCK].copy()
    else:
        state = _seeds(np.array([_pool(seed)[0]], dtype=np.uint32))[0]
    return np.random.Generator(np.random.PCG64(_Seeded(state)))
