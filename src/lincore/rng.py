"""Deterministic counter-based random streams.

All stochastic code in the library draws from Philox-4x64 generators keyed
through :class:`numpy.random.SeedSequence`.  The derivation rule is
normative: the stream for a given purpose is

    ``Generator(Philox(SeedSequence(seed, spawn_key=(domain, iteration, slot))))``

where ``domain`` is one of the constants below, and ``iteration``/``slot``
identify the draw site (both 0 where the purpose has no such structure).
Any counter-based generator exposing the same interface could be
substituted, but the ``(seed, domain, iteration, slot)`` keying is what
makes runs reproducible, so it must be preserved.

:func:`stream_rng` is the definition.  Loops that need one stream per
iteration take the same keys from :func:`stream_keys`, which runs
``SeedSequence``'s hash over a whole block of iterations at once, and
:func:`rekey` a single generator to each key in turn: it then draws exactly
what the :func:`stream_rng` stream draws.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError

# Stream domains.  Values are arbitrary but frozen: changing them changes
# every seeded artifact.
DOMAIN_HMM_DATA = 1
DOMAIN_IDN_DATA = 2
DOMAIN_TRAIN_INSTANCE = 3
DOMAIN_TRAIN_SAMPLE = 4
DOMAIN_NOISE_TRAIN = 5
DOMAIN_DIAGNOSTIC = 6

# numpy's SeedSequence: a pool of four uint32 words, hashed and mixed with
# these multipliers (O'Neill's seed_seq_fe).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

# Iterations whose keys are derived together by iteration_keys.
_KEY_BLOCK = 1024

_ZERO_WORDS = np.zeros(4, dtype=np.uint64)
# Any fixed seed: keyed_rng's generators are rekeyed before they draw.
_PLACEHOLDER_SEED = np.random.SeedSequence(0)


def stream_rng(seed: int, domain: int, iteration: int = 0, slot: int = 0) -> np.random.Generator:
    """Return the Philox generator for ``(seed, domain, iteration, slot)``."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(domain), int(iteration), int(slot)))
    return np.random.Generator(np.random.Philox(ss))


def _words(value: int) -> list[int]:
    """``value`` as little-endian uint32 words, at least one, as SeedSequence splits it."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _rows(words: list[int]) -> np.ndarray:
    """One ``(1,)`` uint32 row per word."""
    return np.array(words, dtype=np.uint32)[:, None]


def _hash_pairs(start: int, mult: int):
    """Successive ``(xor, multiplier)`` constants of SeedSequence's hash."""
    current = start
    while True:
        following = (current * mult) & _MASK32
        yield np.uint32(current), np.uint32(following)
        current = following


def _hashmix(value: np.ndarray, xor, mult) -> np.ndarray:
    """SeedSequence's hash step on uint32 arrays, which wrap mod 2**32 as its C code does."""
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _columns(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The ``(4, 1)`` xor and multiplier columns of the next four hash steps."""
    xor, mult = zip(*(next(pairs) for _ in range(_POOL_SIZE)))
    return np.array(xor)[:, None], np.array(mult)[:, None]


# generate_state's hash, one step per pool word.
_STATE_XOR, _STATE_MULT = _columns(_hash_pairs(_INIT_B, _MULT_B))


def _read_only(*arrays: np.ndarray) -> tuple:
    for array in arrays:
        array.setflags(write=False)
    return arrays


@lru_cache(maxsize=256)
def _prefix(seed: int, domain: int) -> tuple:
    """SeedSequence's ``(4, 1)`` pool after the seed and domain words, the
    ``(4, 1)`` hash constants of the next word and the hash pairs after them.

    The cached arrays are shared, so they are read-only.
    """
    seed_words = _words(seed)
    entropy = _rows(seed_words + [0] * (_POOL_SIZE - len(seed_words)) + _words(domain))
    pairs = _hash_pairs(_INIT_A, _MULT_A)
    pool = [_hashmix(word, *next(pairs)) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(pairs)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, *next(pairs)))
    columns = _read_only(np.stack(pool), *_columns(pairs))
    return (*columns, int(next(pairs)[0]))


@lru_cache(maxsize=256)
def _slot_columns(hash_const: int, slot: int) -> tuple:
    """The hashed words of ``slot``, one read-only ``(4, 1)`` column per word."""
    pairs = _hash_pairs(hash_const, _MULT_A)
    return _read_only(
        *(np.stack([_hashmix(word, *next(pairs)) for _ in range(_POOL_SIZE)]) for word in _rows(_words(slot)))
    )


def stream_keys(seed: int, domain: int, iterations, slot: int = 0) -> np.ndarray:
    """The ``(T, 2)`` Philox keys of :func:`stream_rng` for each iteration.

    Row ``i`` is the key ``Philox(SeedSequence(seed, spawn_key=(domain,
    iterations[i], slot)))`` holds, bit for bit.  The ``(seed, domain)``
    prefix is hashed once; the iteration word is hashed into a ``(4, T)``
    pool for all iterations together.  Iterations must lie in ``[0,
    2**32)``, where each is one entropy word.
    """
    seed, domain, slot = int(seed), int(domain), int(slot)
    if min(seed, domain, slot) < 0:
        raise DomainError("seed, domain and slot must be non-negative")
    t = np.asarray(iterations)
    if t.ndim != 1 or (t.size and t.dtype.kind not in "iu"):
        raise DomainError("iterations must be a 1-D integer array")
    if t.size and (t.min() < 0 or t.max() > _MASK32):
        raise DomainError("iterations must lie in [0, 2**32)")
    pool, xor, mult, hash_const = _prefix(seed, domain)
    pool = _mix(pool, _hashmix(t.astype(np.uint32), xor, mult))
    for hashed in _slot_columns(hash_const, slot):
        pool = _mix(pool, hashed)
    # SeedSequence.generate_state(2, uint64): four words, paired little-endian.
    state = _hashmix(pool, _STATE_XOR, _STATE_MULT)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def iteration_keys(seed: int, domain: int, first: int, stop: int, slots: int = 1):
    """Yield, for iterations ``first .. stop - 1`` in order, the key of each slot.

    Keys are derived in blocks of a fixed number of iterations, so memory
    does not grow with the iteration count.
    """
    for start in range(first, stop, _KEY_BLOCK):
        block = np.arange(start, min(start + _KEY_BLOCK, stop))
        yield from zip(*(stream_keys(seed, domain, block, slot) for slot in range(slots)))


def keyed_rng() -> np.random.Generator:
    """A Philox generator to :func:`rekey` before each use; one generator
    serves any number of streams drawn one after another."""
    return np.random.Generator(np.random.Philox(_PLACEHOLDER_SEED))


def rekey(generator: np.random.Generator, key) -> np.random.Generator:
    """Reset a :func:`keyed_rng` generator to counter zero under ``key``.

    The buffers are emptied too, so it draws exactly what a fresh Philox
    generator with that key draws: for a key from :func:`stream_keys`, the
    :func:`stream_rng` stream.
    """
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": key},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator
