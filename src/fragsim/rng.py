"""Reproducible random streams.

Every replica draws from its own generator derived from (seed, replica index)
through numpy's SeedSequence spawning, so a replica's draws do not depend on
which replicas ran before it.

Deriving a replica stream is on the hot path of every suite, and numpy's
SeedSequence spends most of that time in numpy calls on 4-word arrays. So
replica_rng computes the PCG64 seed words of SeedSequence(seed,
spawn_key=(index,)) with a port of its algorithm to Python ints. NumPy's
stream-compatibility policy (NEP 19) freezes that algorithm, and
tests/test_rng.py pins the port against numpy bit for bit. Inputs outside
the port's domain take numpy's own path.
"""

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

_MASK = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_LOW16_OF_HALVES = 0x0000FFFF0000FFFF


def _hash_constants(h, mult, n):
    """The (xor, multiply) constant pairs of n successive hashes from h on."""
    pairs = []
    for _ in range(n):
        nxt = (h * mult) & _MASK
        pairs.append((h, nxt))
        h = nxt
    return pairs


# generate_state's constants start from INIT_B for every sequence: the eight
# 32-bit output words of a 4-word uint64 state use these pairs in order.
_OUT_CONSTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _seed_prefix(seed):
    """SeedSequence's mixing of everything before the index word, which
    depends on the seed alone: the pool's words times MIX_MULT_L and the
    four hash constant pairs the index word will use."""
    words = []
    while True:
        words.append(seed & _MASK)
        seed >>= 32
        if not seed:
            break
    # a non-empty spawn key zero-pads short run entropy to the pool size
    words += [0] * (_POOL_SIZE - len(words))
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v ^= h
        h = (h * _MULT_A) & _MASK
        v = (v * h) & _MASK
        return v ^ (v >> 16)

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK
        return r ^ (r >> 16)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for s in range(_POOL_SIZE):
        for d in range(_POOL_SIZE):
            if d != s:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for w in words[_POOL_SIZE:]:
        for d in range(_POOL_SIZE):
            pool[d] = mix(pool[d], hashmix(w))
    consts = _hash_constants(h, _MULT_A, _POOL_SIZE)
    return (*(_MIX_MULT_L * p for p in pool), *(c for pair in consts for c in pair))


_prefix_cache = (None,)  # (seed, *_seed_prefix(seed))


def _replica_state(seed, index):
    """The 4-word uint64 state SeedSequence(seed, spawn_key=(index,)) gives
    PCG64, for an int seed >= 0 and 0 <= index < 2**32."""
    global _prefix_cache
    cache = _prefix_cache
    if cache[0] != seed:
        cache = (seed, *_seed_prefix(seed))
        _prefix_cache = cache
    _, l0, l1, l2, l3, x0, m0, x1, m1, x2, m2, x3, m3 = cache
    mask, mult_r = _MASK, _MIX_MULT_R
    # mix the index word into each pool word
    v = ((index ^ x0) * m0) & mask
    p0 = (l0 - mult_r * (v ^ (v >> 16))) & mask
    p0 ^= p0 >> 16
    v = ((index ^ x1) * m1) & mask
    p1 = (l1 - mult_r * (v ^ (v >> 16))) & mask
    p1 ^= p1 >> 16
    v = ((index ^ x2) * m2) & mask
    p2 = (l2 - mult_r * (v ^ (v >> 16))) & mask
    p2 ^= p2 >> 16
    v = ((index ^ x3) * m3) & mask
    p3 = (l3 - mult_r * (v ^ (v >> 16))) & mask
    p3 ^= p3 >> 16
    # hash the pool out twice over: 32-bit words 2k and 2k+1 form the low
    # and high halves of 64-bit word k, and both halves take their final
    # v ^= v >> 16 in one step
    (b0, c0), (b1, c1), (b2, c2), (b3, c3), \
        (b4, c4), (b5, c5), (b6, c6), (b7, c7) = _OUT_CONSTS
    k0 = ((p0 ^ b0) * c0) & mask | (((p1 ^ b1) * c1) & mask) << 32
    k1 = ((p2 ^ b2) * c2) & mask | (((p3 ^ b3) * c3) & mask) << 32
    k2 = ((p0 ^ b4) * c4) & mask | (((p1 ^ b5) * c5) & mask) << 32
    k3 = ((p2 ^ b6) * c6) & mask | (((p3 ^ b7) * c7) & mask) << 32
    low16 = _LOW16_OF_HALVES
    return np.array([k0 ^ (k0 >> 16) & low16, k1 ^ (k1 >> 16) & low16,
                     k2 ^ (k2 >> 16) & low16, k3 ^ (k3 >> 16) & low16],
                    dtype=np.uint64)


class _ReplicaSeed(ISpawnableSeedSequence):
    """SeedSequence(seed, spawn_key=(index,)) for an int seed >= 0 and
    0 <= index < 2**32: computes the state PCG64 asks for and defers every
    other request to numpy's SeedSequence, built on first use."""

    def __init__(self, seed, index):
        self.seed = seed
        self.index = index
        self._full = None

    def _sequence(self):
        if self._full is None:
            self._full = SeedSequence(self.seed, spawn_key=(self.index,))
        return self._full

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:  # PCG64's request
            return _replica_state(self.seed, self.index)
        return self._sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._sequence().spawn(n_children)


def master_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def replica_rng(seed, index):
    """Independent stream for one replica, determined by (seed, index) alone.

    The stream is numpy's default_rng(SeedSequence(seed, spawn_key=(index,))).
    """
    if (type(seed) is int and seed >= 0 and type(index) is int
            and 0 <= index <= _MASK):
        return Generator(PCG64(_ReplicaSeed(seed, index)))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
