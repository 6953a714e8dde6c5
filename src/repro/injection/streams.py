"""Per-trial corruption streams, derived without a ``SeedSequence`` per trial.

Trial ``i`` of a campaign seeded with ``s`` corrupts with the generator
``default_rng(SeedSequence(entropy=s, spawn_key=(i,)))``.  Building that
object costs about 20 µs, most of it ``SeedSequence``'s word-by-word
hashing, which is pure ``uint32`` arithmetic.  This module recomputes the
same state words directly: the part that depends on the seed alone is
mixed once per seed, and the trial index's words are mixed in as Python
ints (one trial) or as ``uint64`` arrays (a chunk of trials at once).
``PCG64`` then seeds itself from those words exactly as it would from the
``SeedSequence``, so every stream is bit-identical to the reference.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, List, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# ``SeedSequence``'s hashing constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4


def _uint32_words(value: int) -> List[int]:
    """``value``'s little-endian 32-bit words (``[0]`` for zero), as
    ``SeedSequence`` splits an integer."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash(value, step: Tuple[int, int]):
    """``SeedSequence``'s ``hashmix`` of one 32-bit word at one step of
    its hash chain (see :func:`_hash_steps`)."""
    xor, mult = step
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    """``SeedSequence``'s ``mix`` of two 32-bit words (Python ints or
    ``uint64`` arrays holding 32-bit values; arrays wrap modulo 2**64,
    which keeps the low 32 bits exact)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


@functools.lru_cache(maxsize=None)
def _hash_steps(init: int, mult: int, start: int, count: int
                ) -> Tuple[Tuple[int, int], ...]:
    """The ``(xor, multiplier)`` pairs of hash calls ``start`` to
    ``start + count - 1`` of a ``SeedSequence`` hash chain: call ``k``
    xors with ``init * mult**k`` and multiplies by ``init * mult**(k+1)``
    (modulo 2**32); the chain advances the same way whatever it hashes."""
    const = init * pow(mult, start, 1 << 32) & _MASK32
    steps = []
    for _ in range(count):
        following = const * mult & _MASK32
        steps.append((const, following))
        const = following
    return tuple(steps)


def _mix_in(pool: list, words, start: int) -> None:
    """Mix ``words`` into every pool word, as ``SeedSequence`` mixes the
    entropy past its pool size, from hash call ``start`` on."""
    steps = iter(_hash_steps(_INIT_A, _MULT_A, start,
                             _POOL_SIZE * len(words)))
    for word in words:
        for dst, step in zip(range(_POOL_SIZE), steps):
            pool[dst] = _mix(pool[dst], _hash(word, step))


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> Tuple[Tuple[int, ...], int]:
    """The entropy pool of ``SeedSequence(entropy=seed, spawn_key=...)``
    before its spawn key is mixed in, and the hash calls made so far."""
    entropy = _uint32_words(seed)
    # With a spawn key, ``SeedSequence`` pads the run entropy to the pool.
    entropy += [0] * (_POOL_SIZE - len(entropy))
    mixing = _POOL_SIZE * (_POOL_SIZE - 1)
    steps = iter(_hash_steps(_INIT_A, _MULT_A, 0, _POOL_SIZE + mixing))
    pool = [_hash(word, step)
            for word, step in zip(entropy[:_POOL_SIZE], steps)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(steps)))
    calls = _POOL_SIZE + mixing
    _mix_in(pool, entropy[_POOL_SIZE:], calls)
    return tuple(pool), calls + _POOL_SIZE * (len(entropy) - _POOL_SIZE)


def _state_words(seed: int, key_words) -> list:
    """``generate_state(4, np.uint64)`` of the seed's ``SeedSequence``
    with the spawn key whose 32-bit words are ``key_words``: four 64-bit
    words (Python ints, or arrays over a chunk of keys)."""
    pool, calls = _seed_pool(seed)
    pool = list(pool)
    _mix_in(pool, key_words, calls)
    halves = [_hash(word, step) for word, step in zip(
        pool + pool, _hash_steps(_INIT_B, _MULT_B, 0, 2 * _POOL_SIZE))]
    return [halves[2 * k] | (halves[2 * k + 1] << 32) for k in range(4)]


class _StateWords(ISeedSequence):
    """A seed sequence that hands ``PCG64`` precomputed state words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed PCG64 state words only")
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


def _reference(seed, trial_index) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,)))


def _plain(value) -> bool:
    """Whether ``value`` is a non-negative integer (what the fast paths
    handle; anything else goes through ``SeedSequence`` itself)."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= 0)


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """The corruption RNG stream of one campaign trial.

    Stream ``i`` is the ``i``-th child of ``SeedSequence(seed)`` —
    identical to ``default_rng(SeedSequence(entropy=seed,
    spawn_key=(i,)))``, and so to ``SeedSequence(seed).spawn(n)[i]`` for
    any ``n > i``, but derived from the trial index alone, so a worker
    gets the streams of its shard without enumerating every earlier
    trial.  Deriving per-trial streams from the campaign seed (instead of
    consuming one shared generator trial-after-trial) is what makes
    campaign results independent of execution order, worker count and
    chunking.
    """
    if not (_plain(seed) and _plain(trial_index)):
        return _reference(seed, trial_index)
    words = _state_words(int(seed), _uint32_words(int(trial_index)))
    return _generator(np.array(words, dtype=np.uint64))


def trial_rngs(seed: int, trial_indices: Iterable[int]
               ) -> Iterator[np.random.Generator]:
    """:func:`trial_rng` of each index, in order, with the state words of
    the whole chunk computed at once (one-word indices, below 2**32; any
    other index takes :func:`trial_rng`)."""
    indices = list(trial_indices)
    chunk = ([k for k, index in enumerate(indices)
              if _plain(index) and index <= _MASK32]
             if _plain(seed) else [])
    rows = {}
    if chunk:
        keys = np.array([indices[k] for k in chunk], dtype=np.uint64)
        rows = dict(zip(chunk, np.stack(_state_words(int(seed), [keys]),
                                        axis=1)))
    for k, index in enumerate(indices):
        row = rows.get(k)
        yield trial_rng(seed, index) if row is None else _generator(row)
