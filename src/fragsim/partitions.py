"""Exchangeable partitions of a finite label set.

Partitions are stored canonically: each block ascending, blocks ordered by
least element, over an explicit ground set (a sorted tuple of integer
labels). The validating constructors from_blocks, from_labels and trivial
own that form: they are where outside input enters, and they reject empty,
overlapping or non-covering blocks. paintbox and partition_step trust
their canonical inputs and keep the form by construction, so each
partition they return is built once and never re-checked.

Sampling follows the paintbox rule: every label independently picks
fragment k with probability equal to that fragment's share of the nominal
budget, and falls into dust with the remaining probability; dust labels
are unique to their element, so each becomes a singleton.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPartition, NotAPermutation
from .ranked_state import from_masses


@dataclass(frozen=True)
class FinitePartition:
    ground: tuple  # sorted distinct integer labels
    blocks: tuple  # disjoint tuples covering ground, ordered by least element

    @property
    def n(self):
        return len(self.ground)


def from_blocks(blocks, ground=None):
    """Validating constructor; canonicalizes block and element order."""
    cleaned = [tuple(sorted(b)) for b in blocks]
    if any(not b for b in cleaned):
        raise InvalidPartition("empty block")
    cleaned.sort(key=lambda b: b[0])
    seen = set()
    for b in cleaned:
        if seen.intersection(b):
            raise InvalidPartition("blocks are not disjoint")
        seen.update(b)
    if ground is None:
        ground = tuple(sorted(seen))
    else:
        ground = tuple(sorted(ground))
        if set(ground) != seen:
            raise InvalidPartition("blocks do not cover the ground set")
    return FinitePartition(ground, tuple(cleaned))


def from_labels(elements, labels):
    """Partition grouping elements by equal labels."""
    groups = {}
    for e, lab in zip(elements, labels):
        groups.setdefault(lab, []).append(e)
    return from_blocks(groups.values(), elements)


def trivial(n):
    """The one-block partition of {1..n}."""
    return from_blocks([range(1, n + 1)])


def _paint_over(state, elements, rng):
    """Paintbox blocks of elements, driven by state, as a canonical tuple.

    One uniform per element picks the fragment whose cumulative share of
    the nominal budget first exceeds it, or dust past the last fragment.
    elements must be ascending: blocks then appear in order of their least
    element and each block is ascending, so no sort or check is needed.
    """
    shares = np.asarray(state.parts, dtype=float) / state.nominal
    idx = np.searchsorted(np.cumsum(shares), rng.random(len(elements)),
                          side="right").tolist()
    dust = len(shares)
    groups = {}
    for pos, (e, k) in enumerate(zip(elements, idx)):
        # Dust keys a singleton by its position, a negative key that no
        # fragment index takes; an element could be label 0.
        groups.setdefault(k if k < dust else -(pos + 1), []).append(e)
    return tuple(tuple(b) for b in groups.values())


def paintbox(s, n, rng):
    """Paintbox partition of {1..n} driven by the ranked state s."""
    ground = tuple(range(1, n + 1))
    return FinitePartition(ground, _paint_over(s, ground, rng))


def frequencies(p):
    """Ranked block frequencies |B|/n as a mass state (no dust at finite n)."""
    return from_masses([len(b) / p.n for b in p.blocks])


def apply_permutation(p, sigma):
    """Partition whose element pairs relate iff their sigma images relate in p.

    sigma is positional over the ground set: sigma[k] is the image of
    p.ground[k]. Blocks of the result are sigma-preimages of blocks of p.
    """
    sigma = tuple(sigma)
    if len(sigma) != p.n or set(sigma) != set(p.ground):
        raise NotAPermutation(f"{sigma} is not a bijection of {p.ground}")
    inverse = {image: source for source, image in zip(p.ground, sigma)}
    return from_blocks([[inverse[e] for e in b] for b in p.blocks], p.ground)


def partition_step(p, duration, kernel, rng):
    """One fragmentation transition applied blockwise to p.

    Each block's mass is estimated by its frequency |B|/n, evolved through
    the kernel for the duration, and the resulting relative masses drive a
    paintbox over the block's elements. Blocks consume the rng stream in
    canonical order, which makes the draw reproducible. p is trusted to be
    canonical, as from the validating constructors; the painted blocks then
    partition p.ground and need only one sort by least element.
    """
    if duration == 0.0:
        return p
    blocks = []
    for block in p.blocks:
        rel = kernel(len(block) / p.n, duration, rng)
        blocks.extend(_paint_over(rel, block, rng))
    blocks.sort(key=lambda b: b[0])
    return FinitePartition(p.ground, tuple(blocks))
