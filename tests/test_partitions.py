"""Finite exchangeable partitions and the paintbox sampler."""

import itertools
import math

import numpy as np
import pytest

from fragsim import (
    FinitePartition,
    apply_permutation,
    frequencies,
    from_blocks,
    from_labels,
    from_masses,
    paintbox,
    partition_step,
    trivial,
)
from fragsim.errors import FragsimError, InvalidPartition, NotAPermutation


# A fixed state with dust share 0.3: each label lands in dust often enough
# that a dust key colliding with a fragment index would merge blocks.
DUSTY = from_masses([0.35, 0.25, 0.1], dust=0.3)


def painted_reference(state, blocks, uniforms):
    """Blockwise paintbox through from_labels: element e of block i keys
    (i, k) for the first fragment k whose cumulative share exceeds its
    uniform, and ("dust", e) past the last fragment."""
    cum = list(itertools.accumulate(m / state.nominal for m in state.parts))
    keys = {}
    for i, block in enumerate(blocks):
        for e, u in zip(block, uniforms.random(len(block))):
            k = next((k for k, c in enumerate(cum) if u < c), None)
            keys[e] = ("dust", e) if k is None else (i, k)
    ground = sorted(keys)
    return from_labels(ground, [keys[e] for e in ground])


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
        part = from_labels(tuple(range(1, n + 1)), keys)
        dist[part] = dist.get(part, 0.0) + prob
    return dist


def test_from_blocks_canonical_form():
    p = from_blocks([[4, 5], [2, 1, 3]])
    assert p.ground == (1, 2, 3, 4, 5)
    assert p.blocks == ((1, 2, 3), (4, 5))
    assert p.n == 5
    assert p == from_blocks([(1, 3, 2), (5, 4)])


def test_from_blocks_validation():
    with pytest.raises(ValueError):
        from_blocks([[1, 2], []])
    with pytest.raises(ValueError):
        from_blocks([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        from_blocks([[1, 2]], ground=(1, 2, 3))


def test_trivial_and_from_labels():
    assert trivial(3) == from_blocks([[1, 2, 3]])
    p = from_labels((1, 2, 3, 4), ("a", "b", "a", "c"))
    assert p.blocks == ((1, 3), (2,), (4,))


def test_paintbox_degenerate_states():
    rng = np.random.default_rng(0)
    full = from_masses([1.0])
    for _ in range(10):
        assert paintbox(full, 5, rng) == trivial(5)
    empty = from_masses([], dust=1.0)
    for _ in range(10):
        p = paintbox(empty, 4, rng)
        assert p.blocks == ((1,), (2,), (3,), (4,))


def test_paintbox_single_block_probability():
    # P(one block) = 0.5^3 + 0.3^3 = 0.152 for shares (0.5, 0.3) on 3 labels
    rng = np.random.default_rng(1)
    state = from_masses([0.5, 0.3])
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
                assert dist[apply_permutation(part, sigma)] == pytest.approx(
                    prob, abs=1e-12)


def test_paintbox_matches_enumerated_law():
    rng = np.random.default_rng(2)
    state = from_masses([0.5, 0.3])
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
    assert frequencies(from_blocks([[1, 2], [3, 4]])).parts == (0.5, 0.5)
    p = from_blocks([[1, 2, 3], [4], [5]])
    assert frequencies(p).parts == (0.6, 0.2, 0.2)
    assert frequencies(p).dust == 0.0


def test_apply_permutation():
    p = from_blocks([[1, 2], [3]])
    assert apply_permutation(p, (1, 2, 3)) == p
    # swap 1 and 3: pairs related iff images related, so {1,2} pulls back
    # to {3,2} and {3} to {1}
    assert apply_permutation(p, (3, 2, 1)) == from_blocks([[1], [2, 3]])
    rng = np.random.default_rng(3)
    q = from_blocks([[1, 4], [2, 6], [3], [5]])
    sizes = sorted(len(b) for b in q.blocks)
    for _ in range(20):
        sigma = tuple(rng.permutation(q.ground))
        moved = apply_permutation(q, sigma)
        assert sorted(len(b) for b in moved.blocks) == sizes
    for bad in ((1, 1, 2), (1, 2), (1, 2, 5)):
        with pytest.raises(NotAPermutation):
            apply_permutation(p, bad)


def test_partition_step_zero_duration_and_identity_kernel():
    p = from_blocks([[1, 2], [3, 4, 5]])
    rng = np.random.default_rng(4)
    assert partition_step(p, 0.0, None, rng) is p

    def keep_whole(mass, duration, rng):
        return from_masses([mass], nominal=mass)

    assert partition_step(p, 1.0, keep_whole, rng) == p


def test_partition_step_refines():
    rng = np.random.default_rng(5)
    p = from_blocks([[1, 2, 3, 4], [5, 6]])

    def shatter(mass, duration, rng):
        return from_masses([mass / 2, mass / 2], nominal=mass)

    q = partition_step(p, 1.0, shatter, rng)
    assert q.ground == p.ground
    for b in q.blocks:
        assert any(set(b) <= set(c) for c in p.blocks)


def test_paintbox_frequencies_law_of_large_numbers():
    rng = np.random.default_rng(6)
    state = from_masses([0.5, 0.5])
    freq = frequencies(paintbox(state, 10 ** 4, rng))
    assert len(freq.parts) == 2
    for share in freq.parts:
        assert 0.47 < share < 0.53


def test_invalid_blocks_raise_a_typed_error():
    for blocks, ground in (([[1, 2], []], None), ([[1, 2], [2, 3]], None),
                           ([[1, 2]], (1, 2, 3))):
        with pytest.raises(InvalidPartition):
            from_blocks(blocks, ground)
    with pytest.raises(InvalidPartition):
        trivial(0)
    assert issubclass(InvalidPartition, FragsimError)


@pytest.mark.parametrize("seed", range(5))
def test_painted_partitions_are_canonical_by_construction(seed):
    def fixed(mass, duration, rng):
        return DUSTY

    for p in (trivial(12),
              from_blocks([[0, 3, 5, 9], [1, 2], [4, 6, 7, 8]]),
              from_blocks([[-2, 0, 1], [-5, 2, 3, 4], [6]])):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        q = partition_step(p, 1.0, fixed, rng)
        assert q == painted_reference(DUSTY, p.blocks, twin)
        assert q == from_blocks(q.blocks, q.ground)
        # a second step paints the first one's blocks in canonical order
        r = partition_step(q, 1.0, fixed, rng)
        assert r == painted_reference(DUSTY, q.blocks, twin)
        assert r == from_blocks(r.blocks, r.ground)

    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    q = paintbox(DUSTY, 30, rng)
    assert q == painted_reference(DUSTY, [tuple(range(1, 31))], twin)
    assert q == from_blocks(q.blocks, q.ground)
