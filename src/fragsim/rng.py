"""Reproducible random streams.

simulator.run draws a path from the Generator it is given. A replica's
Generator is derived from (seed, replica index) through numpy's
SeedSequence spawning, so its draws do not depend on which replicas ran
before it.

Deriving a replica stream is on the hot path of every suite, and numpy's
SeedSequence spends most of that time in numpy calls on 4-word arrays. So
replica_rng computes the PCG64 seed words of SeedSequence(seed,
spawn_key=(index,)) itself. numpy mixes the seed: SeedSequence(seed) holds
the pool that the index word meets, read once per seed. The port mixes only
the index word, by one numpy pass over a block of 256 consecutive indices,
which yields the states of the whole block; the read-only array for the
last (seed, block) is kept with the seed's part of the mix, and each
replica takes its row. NumPy's stream-compatibility policy (NEP 19)
freezes that algorithm, and tests/test_rng.py pins the port against numpy
bit for bit. Inputs outside the port's domain take numpy's own path.

An alpha = 0 event draws an exponential wait, a target rank uniform on
1..n and the uniform its law turns into fragments, and each of Generator's
scalar draws spends most of its time around the draw: argument handling,
the bit generator's lock and a release of the interpreter lock. So
exponential_rank_and_uniform(rng, n) returns (rng.standard_exponential(),
int(rng.integers(1, n + 1)), rng.random()) for 1 <= n < 2**32 from one
call, bit for bit, bit generator state included, under one hold of the bit
generator's lock, taken and released by the lock's bound acquire and
release. It reaches the bit generator's bitgen_t through
BitGenerator.capsule (numpy's documented random C-API) for the first
generator of each class. For numpy's five bit generator classes the
bitgen_t and its state are members of the object, so each later generator
of the same exact class finds them at the first one's offsets from its
address, id(), and shares that class's ctypes functions; any other class,
subclasses included, takes the capsule for every generator. The wait is
numpy's own ziggurat, random_standard_exponential(bitgen_t *), resolved at
import with ctypes from the library numpy.random._generator.__file__
names: the one numpy's random/_examples/cffi/extending.py dlopens, which
importing Generator has already loaded. The rank is numpy's step for that
range (buffered_bounded_lemire_uint32 in
numpy/random/src/distributions/distributions.c): m = next_uint32() * n,
redrawn while its low word is below (2**32 - n) % n, gives m >> 32; at
n = 1 it is 1 and draws nothing, as numpy's integers(1, 2) does. The
uniform is bitgen_t's next_double, the one call numpy's scalar random()
makes. All run with the interpreter lock held, so a buffered 32-bit half
(PCG64's has_uint32) is used as numpy would use it. NEP 19 freezes these
algorithms, and tests/test_rng.py pins exponential_rank_and_uniform against
the three numpy calls bit for bit, bit generator state included, and the
offset route against the capsule route, for PCG64, PCG64DXSM, MT19937,
Philox and SFC64. Any other n takes the three calls.
"""

import ctypes
import numbers

import numpy as np
from numpy.random import (
    MT19937,
    PCG64,
    PCG64DXSM,
    SFC64,
    Generator,
    Philox,
    SeedSequence,
    _generator,
)
from numpy.random.bit_generator import ISpawnableSeedSequence

from .errors import ConfigError

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
    four hash constant pairs the index word will use. SeedSequence(seed)
    holds that pool; the hash constant has advanced once per hash: 4 + 12
    to load and cross-mix the pool, plus 4 per seed word past the fourth."""
    words = (seed.bit_length() + 31) // 32
    hashes = 4 + 12 + _POOL_SIZE * max(0, words - _POOL_SIZE)
    h = (_INIT_A * pow(_MULT_A, hashes, _MASK + 1)) & _MASK
    consts = _hash_constants(h, _MULT_A, _POOL_SIZE)
    pool = SeedSequence(seed).pool.tolist()
    return (*(_MIX_MULT_L * p for p in pool), *(c for pair in consts for c in pair))


_BLOCK = 256  # replica indices whose states are derived in one numpy pass
_OUT_XOR = np.array([b for b, _ in _OUT_CONSTS], dtype=np.uint64)
_OUT_MULT = np.array([c for _, c in _OUT_CONSTS], dtype=np.uint64)
# (seed, block, the block's states, _seed_prefix(seed) as uint64)
_state_cache = (None, None, None, None)


def _replica_state(seed, index):
    """The 4-word uint64 state SeedSequence(seed, spawn_key=(index,)) gives
    PCG64, for an int seed >= 0 and 0 <= index < 2**32.

    The states of all _BLOCK indices in index's block are derived in one
    numpy pass and kept, read-only, for the calls that follow; row j is
    that of index block * _BLOCK + j. The seed's prefix is kept with them,
    so a new block of the same seed reuses it. Every operand is a 32-bit
    word held in uint64, so each product is exact and wrapping subtraction
    keeps the low 32 bits that & _MASK selects.
    """
    global _state_cache
    block = index // _BLOCK
    cache = _state_cache
    if cache[0] != seed or cache[1] != block:
        consts = (cache[3] if cache[0] == seed
                  else np.array(_seed_prefix(seed), dtype=np.uint64))
        mix_l, xor, mult = consts[:4], consts[4::2], consts[5::2]
        index_word = np.arange(block * _BLOCK, (block + 1) * _BLOCK,
                               dtype=np.uint64)[:, None]
        # mix the index word into each pool word: one column per pool word
        v = ((index_word ^ xor) * mult) & _MASK
        pool = (mix_l - _MIX_MULT_R * (v ^ v >> 16)) & _MASK
        pool ^= pool >> 16
        # hash the pool out twice over: 32-bit words 2k and 2k+1 form the
        # low and high halves of 64-bit word k, and both halves take their
        # final v ^= v >> 16 in one step
        words = ((np.tile(pool, 2) ^ _OUT_XOR) * _OUT_MULT) & _MASK
        states = words[:, 0::2] | words[:, 1::2] << 32
        states ^= states >> 16 & _LOW16_OF_HALVES
        states.flags.writeable = False
        cache = _state_cache = (seed, block, states, consts)
    return cache[2][index % _BLOCK]


class _ReplicaSeed(ISpawnableSeedSequence):
    """SeedSequence(seed, spawn_key=(index,)) for an int seed >= 0 and
    0 <= index < 2**32: computes the state PCG64 asks for and defers every
    other request to numpy's SeedSequence, built on first use."""

    __slots__ = ("seed", "index", "_full")

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


def replica_rng(seed, index):
    """Independent stream for one replica, determined by (seed, index) alone.

    The stream is numpy's default_rng(SeedSequence(seed, spawn_key=(index,))).
    A seed or index that is not an int >= 0 raises ConfigError, with
    numpy's message for a negative int.
    """
    if (type(seed) is int and seed >= 0 and type(index) is int
            and 0 <= index <= _MASK):
        return Generator(PCG64(_ReplicaSeed(seed, index)))
    for name, value in (("seed", seed), ("replica index", index)):
        # SeedSequence would take None (fresh entropy) or a list of ints
        if not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} {value!r} must be an int >= 0")
    try:
        sequence = np.random.SeedSequence(seed, spawn_key=(index,))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return np.random.default_rng(sequence)


class _BitGen(ctypes.Structure):
    """numpy's bitgen_t, from numpy/random/bitgen.h."""

    _fields_ = [("state", ctypes.c_void_p),
                ("next_uint64", ctypes.c_void_p),
                ("next_uint32", ctypes.c_void_p),
                ("next_double", ctypes.c_void_p),
                ("next_raw", ctypes.c_void_p)]


# A private prototype: ctypes.pythonapi.PyCapsule_GetPointer is shared by
# the whole process, so its argtypes and restype are left as they are.
# PYFUNCTYPE keeps the interpreter lock held, as numpy's scalar path does.
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                     ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
_NEXT_UINT32 = ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.PYFUNCTYPE(ctypes.c_double, ctypes.c_void_p)
# numpy's ziggurat, from the library that defines Generator
_standard_exponential = _NEXT_DOUBLE(
    ("random_standard_exponential", ctypes.CDLL(_generator.__file__)))
# numpy's bit generators whose bitgen_t and state are members of the
# object itself, set by the class's own C code
_NUMPY_BIT_GENERATORS = frozenset((PCG64, PCG64DXSM, MT19937, Philox, SFC64))
# exact class -> (bitgen_t offset from id(), state offset from id(), its
# next_uint32, its next_double), read from the class's first generator
_class_parts = {}
# (bit generator, its bitgen_t pointer, its next_uint32, its next_double,
# its state pointer, its lock's acquire, its lock's release); the entry
# holds the bit generator, so both pointers stay valid while cached
_draw_cache = (None,)


def _draw_entry(bit_generator):
    """The draw entry of bit_generator (see _draw_cache).

    The first generator of a class, and every generator of a class outside
    numpy's five, subclasses included, is read through the capsule. For
    numpy's five the class keeps the bitgen_t and state offsets from id()
    and the two ctypes functions, so its later generators build their
    entry from id() alone. The offsets are kept only when both lie inside
    the class's fixed-size object, where every instance has them. The
    entry holds no ziggurat: every generator shares _standard_exponential,
    resolved at import.
    """
    lock = bit_generator.lock
    base = id(bit_generator)
    cls = type(bit_generator)
    parts = _class_parts.get(cls)
    if parts is None:
        address = _capsule_pointer(bit_generator.capsule, b"BitGenerator")
        bitgen = _BitGen.from_address(address)
        parts = (address - base, bitgen.state - base,
                 _NEXT_UINT32(bitgen.next_uint32),
                 _NEXT_DOUBLE(bitgen.next_double))
        size = cls.__basicsize__
        if (cls in _NUMPY_BIT_GENERATORS
                and 0 <= parts[0] <= size - ctypes.sizeof(_BitGen)
                and 0 <= parts[1] < size):
            _class_parts[cls] = parts
    bitgen_offset, state_offset, draw, uniform = parts
    return (bit_generator, base + bitgen_offset, draw, uniform,
            base + state_offset, lock.acquire, lock.release)


def exponential_rank_and_uniform(rng, n):
    """An Exp(1) wait, a rank uniform on 1..n and a uniform on [0, 1):
    (rng.standard_exponential(), int(rng.integers(1, n + 1)), rng.random()).

    For 1 <= n < 2**32 all three are drawn, bit for bit, by numpy's own C
    steps on rng's bit generator under one hold of its lock, taken and
    released by its bound acquire and release (see the module docstring),
    and the bit generator is left in the state the three calls leave it
    in; at n = 1 the rank is 1 and draws nothing, as integers(1, 2) draws
    nothing. The last bit generator used is kept with its draw entry. Any
    other n makes the three calls.
    """
    global _draw_cache
    if not 1 <= n <= _MASK:
        return (rng.standard_exponential(), int(rng.integers(1, n + 1)),
                rng.random())
    bit_generator = rng.bit_generator
    entry = _draw_cache
    if entry[0] is not bit_generator:
        entry = _draw_cache = _draw_entry(bit_generator)
    _, bitgen, draw, uniform, state, acquire, release = entry
    acquire()
    try:
        wait = _standard_exponential(bitgen)
        if n == 1:
            rank = 1
        else:
            m = draw(state) * n
            if m & _MASK < n:  # n bounds the threshold, as in numpy
                threshold = (_MASK + 1 - n) % n
                while m & _MASK < threshold:
                    m = draw(state) * n
            rank = (m >> 32) + 1
        u = uniform(state)
    finally:
        release()
    return wait, rank, u
