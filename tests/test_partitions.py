"""Finite exchangeable partitions and the paintbox sampler."""

import itertools
import math

import numpy as np
import pytest

from fragsim import (
    FiniteAtomic,
    FinitePartition,
    MassState,
    frequencies,
    make_step_kernel,
    paintbox,
    partition_step,
    trivial,
)
from fragsim import partitions
from fragsim.errors import (ConfigError, FragsimError, InvalidPartition,
                            NegativeMass)
from reference import by_label, canonical, mass_state, pull_back


# A fixed state with dust share 0.3: each label lands in dust often enough
# that a dust key colliding with a fragment index would merge blocks.
DUSTY = mass_state([0.35, 0.25, 0.1], dust=0.3)


def painted_reference(state, blocks, uniforms):
    """Blockwise paintbox through by_label: element e of block i keys
    (i, k) for the first fragment k whose cumulative share exceeds its
    uniform, and ("dust", e) past the last fragment."""
    cum = list(itertools.accumulate(m / state.nominal for m in state.parts))
    keys = {}
    for i, block in enumerate(blocks):
        for e, u in zip(block, uniforms.random(len(block))):
            k = next((k for k, c in enumerate(cum) if u < c), None)
            keys[e] = ("dust", e) if k is None else (i, k)
    ground = sorted(keys)
    return by_label(ground, [keys[e] for e in ground])


def dict_paint_over(state, elements, rng):
    """Reference paint layer: the per-label dict grouping that the numpy
    grouping in partitions._paint_over replaced, with the same single draw."""
    shares = np.asarray(state.parts, dtype=float) / state.nominal
    idx = np.searchsorted(np.cumsum(shares), rng.random(len(elements)),
                          side="right").tolist()
    dust = len(shares)
    groups = {}
    for pos, (e, k) in enumerate(zip(elements, idx)):
        groups.setdefault(k if k < dust else -(pos + 1), []).append(e)
    return tuple(tuple(b) for b in groups.values())


def paintbox_distribution(shares, n):
    """Exact law of the paintbox partition of {1..n}: enumerate every label
    assignment, dust elements becoming singletons."""
    dust = 1.0 - sum(shares)
    outcomes = [(k, p) for k, p in enumerate(shares)] + [(None, dust)]
    dist = {}
    for combo in itertools.product(outcomes, repeat=n):
        prob = math.prod(p for _, p in combo)
        keys = [k if k is not None else -(pos + 1)
                for pos, (k, _) in enumerate(combo)]
        part = by_label(tuple(range(1, n + 1)), keys)
        dist[part] = dist.get(part, 0.0) + prob
    return dist


def test_trivial_and_from_labels():
    for n in (1, 2, 3, 1000):
        assert trivial(n) == canonical([range(1, n + 1)])
    p = by_label((1, 2, 3, 4), ("a", "b", "a", "c"))
    assert p.blocks == ((1, 3), (2,), (4,))


def test_paintbox_degenerate_states():
    rng = np.random.default_rng(0)
    full = mass_state([1.0])
    for _ in range(10):
        assert paintbox(full, 5, rng) == trivial(5)
    empty = mass_state([], dust=1.0)
    for _ in range(10):
        p = paintbox(empty, 4, rng)
        assert p.blocks == ((1,), (2,), (3,), (4,))


def test_paintbox_single_block_probability():
    # P(one block) = 0.5^3 + 0.3^3 = 0.152 for shares (0.5, 0.3) on 3 labels
    rng = np.random.default_rng(1)
    state = mass_state([0.5, 0.3])
    n_rep = 20000
    hits = sum(paintbox(state, 3, rng) == trivial(3) for _ in range(n_rep))
    se = math.sqrt(0.152 * 0.848 / n_rep)
    assert abs(hits / n_rep - 0.152) < 3 * se


def test_paintbox_exact_law_is_exchangeable():
    # enumerate the full partition law and check invariance under every
    # relabeling of the ground set
    for shares, n in (((0.5, 0.3), 3), ((0.4, 0.25, 0.15), 4)):
        dist = paintbox_distribution(shares, n)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        for sigma in itertools.permutations(range(1, n + 1)):
            for part, prob in dist.items():
                assert dist[pull_back(part, sigma)] == pytest.approx(
                    prob, abs=1e-12)


def test_paintbox_matches_enumerated_law():
    rng = np.random.default_rng(2)
    state = mass_state([0.5, 0.3])
    dist = paintbox_distribution((0.5, 0.3), 3)
    n_rep = 30000
    counts = {}
    for _ in range(n_rep):
        p = paintbox(state, 3, rng)
        counts[p] = counts.get(p, 0) + 1
    assert set(counts) <= set(dist)
    for part, prob in dist.items():
        se = math.sqrt(prob * (1.0 - prob) / n_rep)
        assert abs(counts.get(part, 0) / n_rep - prob) < 4 * se + 1e-4


def test_frequencies():
    assert frequencies(trivial(4)).parts == (1.0,)
    assert frequencies(canonical([[1, 2], [3, 4]])).parts == (0.5, 0.5)
    p = canonical([[1, 2, 3], [4], [5]])
    assert frequencies(p).parts == (0.6, 0.2, 0.2)
    assert frequencies(p).dust == 0.0


def test_partition_step_zero_duration_and_identity_kernel():
    p = canonical([[1, 2], [3, 4, 5]])
    rng = np.random.default_rng(4)
    assert partition_step(p, 0.0, None, rng) is p

    def keep_whole(duration, rng):
        return mass_state([1.0])

    assert partition_step(p, 1.0, keep_whole, rng) == p


@pytest.mark.parametrize("duration", (math.nan, math.inf, -math.inf, -1.0))
def test_partition_step_rejects_a_bad_duration(duration):
    def unreachable(duration, rng):
        raise AssertionError("the kernel ran")

    p = canonical([[1, 2], [3]], (1, 2, 3))
    with pytest.raises(ConfigError, match="duration"):
        partition_step(p, duration, unreachable, np.random.default_rng(0))


@pytest.mark.parametrize("duration", ("1", None))
def test_partition_step_rejects_a_duration_that_is_not_a_number(duration):
    kernel = make_step_kernel(FiniteAtomic([(1.0, (0.6, 0.4))]))
    p = canonical([[1, 2], [3]], (1, 2, 3))
    with pytest.raises(ConfigError, match="duration"):
        partition_step(p, duration, kernel, np.random.default_rng(0))


def test_partition_step_refines():
    rng = np.random.default_rng(5)
    p = canonical([[1, 2, 3, 4], [5, 6]])

    def shatter(duration, rng):
        return mass_state([0.5, 0.5])

    q = partition_step(p, 1.0, shatter, rng)
    assert q.ground == p.ground
    for b in q.blocks:
        assert any(set(b) <= set(c) for c in p.blocks)


def test_partition_step_calls_the_kernel_once_per_block_in_order():
    # the first call keeps its block whole, the second dusts every label;
    # only canonical order leaves the block holding 1 whole
    calls = []
    outcomes = (mass_state([1.0]), mass_state([], dust=1.0))

    def recording(duration, rng):
        calls.append((duration, rng))
        return outcomes[len(calls) - 1]

    rng = np.random.default_rng(7)
    q = partition_step(canonical([[5, 3, 4], [2, 1]]), 1.5, recording, rng)
    assert calls == [(1.5, rng)] * 2
    assert q.blocks == ((1, 2), (3,), (4,), (5,))


def test_paintbox_frequencies_law_of_large_numbers():
    rng = np.random.default_rng(6)
    state = mass_state([0.5, 0.5])
    freq = frequencies(paintbox(state, 10 ** 4, rng))
    assert len(freq.parts) == 2
    for share in freq.parts:
        assert 0.47 < share < 0.53


def test_invalid_blocks_raise_a_typed_error():
    # the reference rejects what is not a partition, which the paint tests'
    # p == canonical(p.blocks, p.ground) relies on
    for blocks, ground in (([[1, 2], []], None), ([[1, 2], [2, 3]], None),
                           ([[1, 2]], (1, 2, 3)), ([[1, 1, 2]], None)):
        with pytest.raises(ValueError):
            canonical(blocks, ground)
    for n in (0, -3):
        with pytest.raises(InvalidPartition):
            trivial(n)
    assert issubclass(InvalidPartition, FragsimError)


@pytest.mark.parametrize("n", [2.5, 3.0, "4", None, -3])
def test_a_bad_label_count_raises_before_any_draw(n):
    trivial(3)  # a cached n = 3 must not answer for n = 3.0
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    with pytest.raises(InvalidPartition):
        paintbox(FEW, n, rng)
    assert rng.random() == twin.random()
    with pytest.raises(InvalidPartition):
        trivial(n)


def test_trivial_and_paintbox_share_one_ground_per_n():
    rng = np.random.default_rng(5)
    for n in (1, 1000, 7):
        ground = trivial(n).ground
        assert ground == tuple(range(1, n + 1))
        assert trivial(n).ground is ground
        p = paintbox(FEW, n, rng)
        assert p.ground is ground
        assert p == canonical(p.blocks, ground)
    assert paintbox(FEW, 0, rng).ground == ()
    assert trivial(np.int64(7)) == trivial(7)


@pytest.mark.parametrize("seed", range(5))
def test_painted_partitions_are_canonical_by_construction(seed):
    def fixed(duration, rng):
        return DUSTY

    for p in (trivial(12),
              canonical([[0, 3, 5, 9], [1, 2], [4, 6, 7, 8]]),
              canonical([[-2, 0, 1], [-5, 2, 3, 4], [6]])):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        q = partition_step(p, 1.0, fixed, rng)
        assert q == painted_reference(DUSTY, p.blocks, twin)
        assert q == canonical(q.blocks, q.ground)
        # a second step paints the first one's blocks in canonical order
        r = partition_step(q, 1.0, fixed, rng)
        assert r == painted_reference(DUSTY, q.blocks, twin)
        assert r == canonical(r.blocks, r.ground)

    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    q = paintbox(DUSTY, 30, rng)
    assert q == painted_reference(DUSTY, [tuple(range(1, 31))], twin)
    assert q == canonical(q.blocks, q.ground)


FEW = mass_state([0.5, 0.3, 0.15])
NEAR_WHOLE = mass_state([0.999, 0.001])
PAINT_STATES = {
    "few": FEW,
    "tiny": mass_state([0.0019] * 500),
    "dust70": mass_state([0.2, 0.1], dust=0.7),
    "all-dust": mass_state([], dust=1.0),
    "nominal-above": mass_state([0.3, 0.2], dust=0.1, nominal=2.0),
    # every label in the first fragment: the block stays whole
    "whole": mass_state([1.0]),
    "whole-nominal-above": mass_state([2.0], nominal=2.0),
    # whole at some seeds, split at others, at n = 1000
    "near-whole": NEAR_WHOLE,
    # a first share of exactly 1 with more parts within the budget slack
    "whole-and-more": mass_state([1.0, 1e-10]),
    "whole-and-more-nominal-above": mass_state([2.0, 1e-10, 1e-10],
                                                nominal=2.0),
}
# Ascending grounds: with 0, with negative labels, and with gaps, as the
# blocks of a partition are.
PAINT_GROUNDS = {
    "zero": (0, 1, 2, 5, 6, 9, 10, 11, 40),
    "negative": tuple(range(-300, 300, 7)),
    "gaps": tuple(range(3, 3000, 11)),
}


def assert_paints_like_the_dict(state, elements, seed):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    blocks = partitions._paint_over(state, elements, rng)
    assert blocks == dict_paint_over(state, elements, twin)
    assert rng.random() == twin.random()
    return blocks


@pytest.mark.parametrize("n", [0, 1, 2, 1000, 10 ** 4])
@pytest.mark.parametrize("state", sorted(PAINT_STATES))
def test_paint_over_matches_the_dict_grouping(state, n):
    for seed in range(3):
        assert_paints_like_the_dict(PAINT_STATES[state],
                                    tuple(range(1, n + 1)), seed)


def test_near_whole_state_takes_both_paint_branches():
    # 0.999 ** 1000 = 0.37: some seeds keep all 1000 labels whole
    ground = tuple(range(1, 1001))
    shapes = {len(assert_paints_like_the_dict(NEAR_WHOLE, ground, seed))
              for seed in range(6)}
    assert 1 in shapes and len(shapes) > 1


@pytest.mark.parametrize("ground", sorted(PAINT_GROUNDS))
def test_paint_over_matches_the_dict_grouping_on_any_labels(ground):
    for state in PAINT_STATES.values():
        for seed in range(3):
            assert_paints_like_the_dict(state, PAINT_GROUNDS[ground], seed)


def test_partition_steps_match_the_dict_grouping(monkeypatch):
    kernel = make_step_kernel(FiniteAtomic([(0.7, (0.6, 0.4)),
                                            (0.3, (0.5, 0.3, 0.1))]))
    starts = (trivial(200), paintbox(FEW, 200, np.random.default_rng(9)),
              canonical([PAINT_GROUNDS["negative"]]))
    refined = 0
    for seed in range(3):
        for p in starts:
            chains = []
            for paint in (partitions._paint_over, dict_paint_over):
                monkeypatch.setattr(partitions, "_paint_over", paint)
                rng = np.random.default_rng(seed)
                q = partition_step(p, 1.5, kernel, rng)
                chains.append((q, partition_step(q, 1.5, kernel, rng),
                               rng.random()))
            assert chains[0] == chains[1]
            refined += len(chains[0][1].blocks) > len(p.blocks)
    assert refined >= 6


def test_frequencies_match_the_validating_route():
    rng = np.random.default_rng(12)
    painted = [paintbox(state, n, rng) for state in PAINT_STATES.values()
               for n in (1, 7, 300)]
    for p in painted + [trivial(1), trivial(9), paintbox(FEW, 0, rng)]:
        assert frequencies(p) == mass_state([len(b) / len(p.ground) for b in p.blocks])


@pytest.mark.parametrize("n", [1, 2, 1000])
def test_paint_over_the_shared_ground_matches_the_dict_grouping(n):
    ground = trivial(n).ground
    for state in PAINT_STATES.values():
        for seed in range(3):
            # the cached column, an equal tuple that is not the ground, and
            # sub-blocks of the ground
            for elements in (ground, tuple(range(1, n + 1)), ground[::2],
                             ground[n // 3:]):
                assert_paints_like_the_dict(state, elements, seed)
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            p = paintbox(state, n, rng)
            assert p.ground is ground
            assert p.blocks == dict_paint_over(state, ground, twin)
            assert rng.random() == twin.random()


def test_paint_over_a_ground_the_cache_has_dropped():
    old = trivial(500).ground
    new = trivial(40).ground
    assert trivial(40).ground is new
    for state in (FEW, DUSTY, NEAR_WHOLE):
        for seed in range(3):
            for elements in (old, new, old[:40]):
                assert_paints_like_the_dict(state, elements, seed)
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    assert paintbox(FEW, 500, rng).blocks == dict_paint_over(FEW, old, twin)
    assert rng.random() == twin.random()


@pytest.mark.parametrize("nominal", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_a_bad_budget_raises_before_any_draw(nominal):
    rng, twin = np.random.default_rng(10), np.random.default_rng(10)
    with pytest.raises(NegativeMass):
        paintbox(MassState((0.5,), 0.0, nominal), 5, rng)

    def bad(duration, rng):
        return MassState((0.5, 0.2), 0.0, nominal)

    with pytest.raises(NegativeMass):
        partition_step(trivial(5), 1.0, bad, rng)
    assert rng.random() == twin.random()
