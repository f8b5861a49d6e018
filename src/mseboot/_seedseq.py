"""numpy's ``SeedSequence`` hash, for many replicate indices at once.

``numpy.random.SeedSequence([seed, i])`` mixes the 32-bit words of
``seed`` and ``i`` into a pool of four words, and ``generate_state(4,
np.uint64)`` hashes the pool into the four 64-bit words a ``PCG64``
seeds itself from.  Both steps are fixed uint32 arithmetic: the hash
constants advance the same way whatever the words are, so the same
steps run on arrays hash every index in one pass.  Row ``k`` of
``generate_states(seed, indices)`` equals
``SeedSequence([seed, indices[k]]).generate_state(4, np.uint64)``;
the tests compare the two with ``==``.

The constants and the order of the steps are those of ``mix_entropy``
and ``generate_state`` in numpy's ``bit_generator.pyx`` (default pool
size 4, no spawn key).  Only ``numpy`` is imported, not ``numpy.random``.
"""

from __future__ import annotations

import numpy as np

MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = np.uint32(16)


def uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative integer, as
    ``SeedSequence`` splits it (0 is one word)."""
    if n < 0:
        raise ValueError(f"seed words need a non-negative integer, got {n}")
    words = []
    while True:
        words.append(n & MASK32)
        n >>= 32
        if not n:
            return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
    return result ^ (result >> XSHIFT)


def generate_states(seed: int, indices: np.ndarray) -> np.ndarray:
    """Row k is ``SeedSequence([seed, indices[k]]).generate_state(4,
    np.uint64)``; shape (len(indices), 4).

    ``seed`` may have any number of 32-bit words; each index must fit in
    one word, 0 <= index < 2**32.
    """
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() > MASK32):
        raise ValueError("replicate indices must lie in 0..2**32-1")
    index_words = indices.astype(np.uint32)
    entropy = [np.full(index_words.shape, w, np.uint32) for w in uint32_words(seed)]
    entropy.append(index_words)

    hash_const = INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_A & MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> XSHIFT)

    # mix_entropy: the first words fill the pool (zeros past the end of
    # short entropy), every pool word is mixed into every other, then each
    # remaining word is mixed into every pool word
    zeros = np.zeros(index_words.shape, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[POOL_SIZE:]:
        for i_dst in range(POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired little-endian into four uint64 words
    hash_const = INIT_B
    state = np.empty(index_words.shape + (8,), np.uint32)
    for i_dst in range(8):
        value = pool[i_dst % POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_B & MASK32
        value = value * np.uint32(hash_const)
        state[..., i_dst] = value ^ (value >> XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)
