"""Exchangeable partitions of a finite label set.

Partitions are stored canonically: each block ascending, blocks ordered by
least element, over an explicit ground set (a sorted tuple of integer
labels). trivial and paintbox check only their n (an int, >= 1 for
trivial and >= 0 for paintbox); they, partition_step and frequencies
build their results in canonical form by construction, so each one is
built once and never re-checked. trivial and paintbox share one ground
tuple (1, ..., n), kept with its numpy object column for the last n asked
for, whatever its int type, so a repeated n does not build its labels
again.

Sampling follows the paintbox rule: every label independently picks
fragment k with probability equal to that fragment's share of the nominal
budget, and falls into dust with the remaining probability; dust labels
are unique to their element, so each becomes a singleton. _paint_over
groups the labels in numpy, by position, without a per-label loop, and
skips the grouping when every label picks the first fragment: the block
then stays whole, the common case over a short step. That test needs only
the first share, a Python float, and compares no uniform when the share is
1, as it is for a unit-mass kernel state that has not split. A split block
gathers its labels from an object column: the cached one when the block
is the shared ground tuple itself, a new one otherwise.

partition_step makes homogeneous (alpha = 0) steps only, the one case in
which the partition restricted to finitely many labels is Markov.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidPartition, NegativeMass, check_range
from .ranked_state import MassState


@dataclass(frozen=True)
class FinitePartition:
    ground: tuple  # sorted distinct integer labels
    blocks: tuple  # disjoint tuples covering ground, ordered by least element


# The last ground tuple handed out: (n, the tuple, its numpy object column).
_last_ground = (None, (), np.empty(0, dtype=object))


def _ground(n, least):
    """The ground tuple (1, ..., n) for an int n >= least.

    A bad n raises InvalidPartition before the cache is consulted. The
    cache keeps the last n only, so every call with an equal n, of any int
    type, gets the same tuple. The tuple's object column is built with it,
    for _paint_over to gather from.
    """
    global _last_ground
    if not (isinstance(n, numbers.Integral) and n >= least):
        raise InvalidPartition(f"a partition of {{1..n}} needs an int "
                               f"n >= {least}, got {n!r}")
    if _last_ground[0] != n:
        ground = tuple(range(1, n + 1))
        _last_ground = (n, ground, np.array(ground, dtype=object))
    return _last_ground[1]


def trivial(n):
    """The one-block partition of {1..n}, over the shared ground tuple."""
    ground = _ground(n, 1)
    return FinitePartition(ground, (ground,))


def _paint_over(state, elements, rng):
    """Paintbox blocks of elements, driven by state, as a canonical tuple.

    One uniform per element picks the fragment whose cumulative share of
    the nominal budget first exceeds it, or dust past the last fragment.
    A stable argsort of the fragment indices lists the positions fragment
    by fragment, each run ascending; the run is cut where the index
    changes and at every dust position, so each dust element is its own
    singleton. The labels are gathered by position from an object column,
    never converted to a numeric array, so blocks hold the caller's own
    labels; the column is the cached one when elements is the shared ground
    tuple itself. elements must be ascending: a block's first position then
    holds its least element, and ordering the blocks by it needs no sort of
    the labels or check.

    When every uniform falls below the first share, every element picks
    the first fragment and the block stays whole: the grouping would
    return (tuple(elements),), so that is returned at once, after the
    same single draw, which leaves the stream where the grouping would.
    A first share of 1 or more holds every uniform, so none is compared.

    A state with no nominal budget, as None, raises ConfigError, and a
    nominal budget that is not finite and > 0 NegativeMass, before the
    draw.
    """
    try:
        nominal = state.nominal
    except AttributeError:
        raise ConfigError(f"state {state!r} must be a MassState") from None
    if not 0.0 < nominal < math.inf:
        raise NegativeMass(f"nominal budget {nominal} must be finite and > 0")
    n = len(elements)
    uniforms = rng.random(n)
    parts = state.parts
    if n and parts:
        first = parts[0] / nominal
        if first >= 1.0 or uniforms.max() < first:
            return (tuple(elements),)
    shares = np.asarray(parts, dtype=float) / nominal
    dust = len(shares)
    # Narrowed to the smallest unsigned type that holds the dust index,
    # the indices take numpy's radix sort (used for up to 16 bits).
    idx = np.searchsorted(np.cumsum(shares), uniforms,
                          side="right").astype(np.min_scalar_type(dust))
    order = np.argsort(idx, kind="stable")
    run = idx[order]
    # cuts lists every block's start position in the sorted run, then n.
    edge = np.ones(n + 1, dtype=bool)
    np.logical_or(run[1:] != run[:-1], run[1:] == dust, out=edge[1:n])
    cuts = np.flatnonzero(edge)
    by_least = np.argsort(order[cuts[:-1]])
    _, ground, column = _last_ground
    if elements is not ground:
        column = np.fromiter(elements, dtype=object, count=n)
    labels = tuple(column[order].tolist())
    return tuple(labels[a:b] for a, b in zip(cuts[by_least].tolist(),
                                            cuts[by_least + 1].tolist()))


def paintbox(s, n, rng):
    """Paintbox partition of {1..n} driven by the ranked state s.

    n is an int >= 0; the ground tuple is the one trivial(n) shares.
    """
    ground = _ground(n, 0)
    return FinitePartition(ground, _paint_over(s, ground, rng))


def frequencies(p):
    """Ranked block frequencies |B|/n as a mass state (no dust at finite n).

    A p that is not a FinitePartition raises InvalidPartition.
    """
    if not isinstance(p, FinitePartition):
        raise InvalidPartition(f"{p!r} is not a FinitePartition")
    n = len(p.ground)
    return MassState(tuple(sorted((len(b) / n for b in p.blocks),
                                  reverse=True)), 0.0, 1.0)


def partition_step(p, duration, kernel, rng):
    """One homogeneous fragmentation transition applied blockwise to p.

    Each block draws kernel(duration, rng), the relative masses a unit
    fragment reaches in the duration, and those masses drive a paintbox
    over the block's elements. The step is homogeneous (alpha = 0) because
    only then is the restriction to finitely many labels Markov: at
    alpha != 0 a block's rate depends on its asymptotic frequency, which
    the finite block does not carry. Blocks consume the rng stream in
    canonical order, which makes the draw reproducible. p is trusted to be
    canonical, as trivial, paintbox and partition_step build it; the painted
    blocks then partition p.ground and need only one sort by least element.
    A duration that is not finite and >= 0 raises ConfigError. A step of
    duration 0 is p itself and calls no kernel; a longer one raises
    ConfigError for a kernel that is not callable.
    """
    check_range(duration, lambda d: 0.0 <= d < math.inf,
                "step duration {!r} must be finite and >= 0")
    if duration == 0.0:
        return p
    if not callable(kernel):
        raise ConfigError(f"step kernel {kernel!r} must be callable")
    blocks = []
    for block in p.blocks:
        blocks.extend(_paint_over(kernel(duration, rng), block, rng))
    blocks.sort(key=lambda b: b[0])
    return FinitePartition(p.ground, tuple(blocks))
