"""Stream derivation: replicas depend on (seed, index) and nothing else,
and the merged wait, target and uniform draw is numpy's
standard_exponential, integers and random, bit for bit."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import MT19937, PCG64, PCG64DXSM, SFC64, Generator, Philox

from fragsim import replica_rng
from fragsim import rng as fragsim_rng
from fragsim.errors import ConfigError
from fragsim.rng import exponential_rank_and_uniform


def numpy_replica(seed, index):
    """The reference stream: numpy's own spawned SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def assert_same_stream(rng, ref):
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random(3).tolist() == ref.random(3).tolist()
    assert rng.integers(0, 2 ** 63, 3).tolist() == ref.integers(0, 2 ** 63, 3).tolist()


def test_replica_streams_are_stable_and_distinct():
    a = replica_rng(3, 0).random(4)
    assert a.tolist() == replica_rng(3, 0).random(4).tolist()
    b = replica_rng(3, 1).random(4)
    assert not np.array_equal(a, b)
    # replica 0 is not the root stream of its seed: spawning separates them
    assert a.tolist() != np.random.default_rng(3).random(4).tolist()


def test_replica_index_does_not_collide_with_seed_shift():
    x = replica_rng(3, 1).random()
    y = replica_rng(4, 0).random()
    assert x != y


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(0, 2 ** 200), st.integers(0, 2 ** 33))
def test_replica_streams_are_numpys(seed, index):
    assert_same_stream(replica_rng(seed, index), numpy_replica(seed, index))


def test_replica_streams_at_word_boundaries():
    # seeds of one, two, four and five 32-bit words; indices of one and two
    for seed in (0, 2 ** 32 - 1, 2 ** 32, 2 ** 128 - 1, 2 ** 128):
        for index in (0, 2 ** 32 - 1, 2 ** 32):
            assert_same_stream(replica_rng(seed, index),
                               numpy_replica(seed, index))


def test_interleaved_seeds_keep_their_own_streams():
    a, b = 11, 2 ** 140 + 7
    for seed, index in ((a, 0), (b, 0), (a, 1), (b, 1), (a, 1)):
        assert_same_stream(replica_rng(seed, index), numpy_replica(seed, index))


@pytest.mark.parametrize("seed", (0, 29, 2 ** 140 + 7))
def test_replica_streams_across_block_edges(seed):
    # states are derived 256 indices at a time; the last full block ends
    # at 2**32 - 1, and 2**32 takes numpy's own path
    top = 2 ** 32
    for index in (255, 256, 257, *range(top - 257, top), top):
        assert_same_stream(replica_rng(seed, index), numpy_replica(seed, index))


def test_descending_indices_and_alternating_seeds():
    a, b = 11, 2 ** 140 + 7
    for index in range(700, -1, -9):
        assert_same_stream(replica_rng(a, index), numpy_replica(a, index))
    for index in (0, 300, 255, 256, 511, 512, 0):
        for seed in (a, b):
            assert_same_stream(replica_rng(seed, index),
                               numpy_replica(seed, index))


def test_a_handed_out_state_cannot_change_its_block():
    state = replica_rng(7, 300).bit_generator.seed_seq.generate_state(
        4, np.uint64)
    try:
        state[0] ^= np.uint64(1)
    except ValueError:
        pass  # the block's states are read-only
    for index in (300, 301):
        assert_same_stream(replica_rng(7, index), numpy_replica(7, index))


def test_numpy_integers_give_the_int_stream():
    for seed in (np.int64(5), np.uint32(5)):
        assert_same_stream(replica_rng(seed, 3), numpy_replica(5, 3))
    assert_same_stream(replica_rng(5, np.int64(3)), numpy_replica(5, 3))


@pytest.mark.parametrize("seed, index", ((-1, 0), (0, -1), (-2 ** 40, 3)))
def test_negative_inputs_raise_numpys_error(seed, index):
    # numpy's message, as the package's ConfigError
    with pytest.raises(ValueError) as want:
        numpy_replica(seed, index)
    with pytest.raises(ConfigError) as got:
        replica_rng(seed, index)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed, index", ((1.5, 0), (None, 0), ("x", 0),
                                         ([1, 2], 0), (0, 1.5), (0, None)))
def test_seeds_and_indices_that_are_not_ints_raise_config_error(seed, index):
    # SeedSequence raises a bare TypeError for 1.5, and takes None (fresh
    # entropy) and a list of ints
    with pytest.raises(ConfigError, match="must be an int >= 0"):
        replica_rng(seed, index)


def test_seed_sequence_behaves_like_numpys():
    for seed, index in ((3, 4), (2 ** 130, 2 ** 32 - 1)):
        ours, ref = replica_rng(seed, index), numpy_replica(seed, index)
        for _ in range(2):  # a second spawn continues the child count
            for child, want in zip(ours.spawn(2), ref.spawn(2)):
                assert_same_stream(child, want)
        ours_seq, ref_seq = ours.bit_generator.seed_seq, ref.bit_generator.seed_seq
        for n_words, dtype in ((8, np.uint32), (4, np.uint64), (3, "u8")):
            assert np.array_equal(ours_seq.generate_state(n_words, dtype),
                                  ref_seq.generate_state(n_words, dtype))


def plain_state(state):
    """A bit generator's state with its arrays as lists, so == compares it."""
    if isinstance(state, dict):
        return {k: plain_state(v) for k, v in state.items()}
    if isinstance(state, np.ndarray):
        return state.tolist()
    return state


BIT_GENERATORS = (PCG64, PCG64DXSM, MT19937, Philox, SFC64)
# 2**k - 1, 2**k and 2**k + 1 up to 2**32 - 1, two n whose reject threshold
# (2**32 - n) % n is large (2**31 - 1 and 2**30 - 1), and n = 2**32, which
# takes numpy's two calls
EDGE_RANKS = sorted({2 ** k + d for k in range(1, 33) for d in (-1, 0, 1)
                     if 2 <= 2 ** k + d <= 2 ** 32}
                    | {2 ** 31 + 1, 3 * 2 ** 30 + 1})
DRAW = st.one_of(
    st.tuples(st.just("rank"), st.integers(2, 300)),
    st.tuples(st.just("rank"), st.sampled_from(EDGE_RANKS)),
    st.tuples(st.just("rank"), st.integers(2, 2 ** 32 - 1)),
    st.tuples(st.sampled_from(("random", "exponential")), st.none()),
)


def numpy_draws(twin, n):
    """What exponential_rank_and_uniform(rng, n) must equal: numpy's three
    calls."""
    return (twin.standard_exponential(), int(twin.integers(1, n + 1)),
            twin.random())


def assert_same_state(rng, twin):
    # has_uint32 and uinteger, the buffered 32-bit half, included
    assert (plain_state(rng.bit_generator.state)
            == plain_state(twin.bit_generator.state))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from(BIT_GENERATORS),
       st.integers(0, 2 ** 64), st.lists(DRAW, min_size=1, max_size=40))
def test_exponential_rank_and_uniform_is_numpys_draws(bit_generator, seed,
                                                      draws):
    rng, twin = Generator(bit_generator(seed)), Generator(bit_generator(seed))
    for kind, n in draws:
        if kind == "rank":
            assert exponential_rank_and_uniform(rng, n) == numpy_draws(twin, n)
        elif kind == "random":
            assert rng.random() == twin.random()
        else:
            assert rng.standard_exponential() == twin.standard_exponential()
        assert_same_state(rng, twin)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_uniform_rank_at_every_small_and_edge_rank(bit_generator):
    # exponential_rank_and_uniform's rank, the wait before it and the
    # uniform after it, at n = 2..300 and the edge ranks in turn, each draw
    # followed by a random(), so a 32-bit half buffered by one draw meets
    # the next; the ranks past 2**32 - 1 and n = 1 take numpy's three calls
    rng, twin = Generator(bit_generator(7)), Generator(bit_generator(7))
    for n in (*range(2, 301), *EDGE_RANKS, 2 ** 40 + 3, 1):
        for _ in range(3):
            wait, rank, u = exponential_rank_and_uniform(rng, n)
            assert (wait, rank, u) == numpy_draws(twin, n)
            assert type(wait) is float and type(rank) is int
            assert type(u) is float
            assert_same_state(rng, twin)
            assert rng.random() == twin.random()
            assert_same_state(rng, twin)


def test_alternating_generators_rebuild_the_draw_cache():
    # one thread, three generators of different bit generator types, drawn
    # in turn: each call finds another generator's entry in the one-entry
    # cache and rebuilds it. A PCG64 rank draw buffers the upper 32-bit half
    # of its 64-bit output, and PCG64's next rank draw must use that half
    rngs = [Generator(bg(11)) for bg in (PCG64, MT19937, SFC64)]
    twins = [Generator(bg(11)) for bg in (PCG64, MT19937, SFC64)]
    ns = [(2 + i % 300, 2 ** 31 + 1, 3 * 2 ** 30 + 1, 2 ** 32 - 1,
           2 + i * 2654435761 % (2 ** 32 - 2))[i % 5] for i in range(600)]
    got = [[] for _ in rngs]
    buffered_ranks = 0
    for i, n in enumerate(ns):
        k = i % len(rngs)
        rng = rngs[k]
        assert fragsim_rng._draw_cache[0] is not rng.bit_generator
        if k == 0:
            buffered_ranks += rng.bit_generator.state["has_uint32"]
        got[k].append(exponential_rank_and_uniform(rng, n))
        assert fragsim_rng._draw_cache[0] is rng.bit_generator
    assert buffered_ranks > 50
    for k, (rng, twin) in enumerate(zip(rngs, twins)):
        assert got[k] == [numpy_draws(twin, n) for n in ns[k::len(rngs)]]
        assert_same_state(rng, twin)


def test_exponential_rank_and_uniform_threads_keep_their_own_streams():
    # four threads share exponential_rank_and_uniform's one-entry cache, each
    # drawing from its own generator; a cache entry read across a switch
    # would draw from another thread's generator and break the twin's
    # sequence. sleep(0) hands the interpreter lock on after each draw, so
    # the entry is rebuilt at almost every draw, and the short switch
    # interval lets a switch fall inside one. Its limit: on a 2-core
    # machine the interpreter lock changes hands only a few times in a run,
    # so a switch inside one call is rare and a cache updated in two steps
    # can pass here; test_alternating_generators_rebuild_the_draw_cache
    # covers every rebuild in one thread without relying on a switch
    ns = [(2 + i % 300, 2 ** 31 + 1, 3 * 2 ** 30 + 1, 2 ** 32 - 1,
           2 + i * 2654435761 % (2 ** 32 - 2))[i % 5] for i in range(2000)]
    seeds = range(4)
    got = {}
    start = threading.Barrier(len(seeds))

    def draw(seed):
        rng = np.random.default_rng(seed)
        start.wait(timeout=60)
        out = got[seed] = []
        for n in ns:
            out.append(exponential_rank_and_uniform(rng, n))
            time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for seed in seeds:
        twin = np.random.default_rng(seed)
        assert got[seed] == [numpy_draws(twin, n) for n in ns]
