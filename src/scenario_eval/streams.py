"""Keyed random number substreams.

Every random draw in the package comes from a generator derived from the
experiment seed plus an integer key identifying what the draw is for.
Substreams derived from distinct keys are statistically independent, so
adding or removing one entity (a location, a model, a sampling pass) never
shifts the draws of any other entity.

``substream(seed, *key)`` draws bit-identically to
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))``:

* numpy mixes the seed and the key prefix ``key[:-1]`` into its pool
  (``SeedSequence(seed, spawn_key=prefix).pool``);
* the final key word is mixed into that pool by ``SeedSequence``'s
  documented fold, for ``BLOCK`` consecutive final words at once over
  columns of uint32 keys, and their PCG64 seeds are memoized (``_block``, at
  most ``BLOCK_CACHE`` blocks). Callers that walk the final word in order,
  as ``world_gen`` and ``approaches`` do, mix each block once.

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


def _constant(init: int, mult: int, k: int) -> int:
    """The hash constant after ``k`` steps from ``init``."""
    return init * pow(mult, k, 1 << 32) & _MASK


# generate_state(4, uint64) reads the pool twice round, eight uint32 words.
_STATE_HASH = [_constant(_INIT_B, _MULT_B, k) for k in range(2 * _POOL + 1)]
_STATE_XOR = np.array(_STATE_HASH[:-1], dtype=np.uint32)
_STATE_MUL = np.array(_STATE_HASH[1:], dtype=np.uint32)


def _hashmix(value, xor, mul):
    """SeedSequence's hashmix of the uint32 array ``value``."""
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


def _fold(pool: list, h: int, words) -> list:
    """Mix each of ``words`` into every pool word, from hash constant ``h``."""
    for word in words:
        for dst in range(_POOL):
            xor, h = h, h * _MULT_A & _MASK
            pool[dst] = _mix(pool[dst], _hashmix(word, xor, h))
    return pool


def _seeds(pool) -> np.ndarray:
    """``generate_state(4, uint64)`` of each row of the uint32 ``pool``."""
    state = _hashmix(np.concatenate((pool, pool), axis=1), _STATE_XOR, _STATE_MUL)
    state = state.astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32


@lru_cache(maxsize=BLOCK_CACHE)
def _block(seed: int, prefix: tuple, base: int) -> np.ndarray:
    """The PCG64 seeds of keys ``(*prefix, base + i)`` for i < ``BLOCK``,
    one row of four uint64 each; ``base`` is a multiple of ``BLOCK``."""
    pool = np.random.SeedSequence(seed, spawn_key=prefix).pool
    # numpy hashmixes each entropy word into every pool word, one hash
    # constant step each, after padding a keyed seed to the pool size.
    n_words = max(len(_uint32s(seed)), _POOL) + sum(len(_uint32s(k)) for k in prefix)
    h = _constant(_INIT_A, _MULT_A, _POOL * n_words)
    low, *high = _uint32s(base)
    # Each pool and key word is a column of BLOCK uint32 keys: a Python int
    # overflows numpy's uint32 in _mix, and a numpy uint32 scalar warns when
    # it wraps. All keys of a block share the words above the lowest, since
    # BLOCK divides 2**32.
    words = [np.arange(low, low + BLOCK, dtype=np.uint32),
             *(np.full(BLOCK, w, np.uint32) for w in high)]
    pool = _fold([np.full(BLOCK, w, np.uint32) for w in pool], h, words)
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
        state = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    return np.random.Generator(np.random.PCG64(_Seeded(state)))
