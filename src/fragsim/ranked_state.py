"""Ranked mass states and the operations that evolve them.

A state is a finite non-increasing tuple of strictly positive fragment
masses, a dust ledger for mass that left the resolved fragments, and the
nominal budget the state started from. All operations preserve the budget
inequality sum(parts) + dust <= nominal (within a small float tolerance)
and keep the parts ranked.
"""

import math
import operator
from bisect import bisect_right
from typing import NamedTuple

from .errors import InvalidFragmentVector, RankOutOfRange

# Absolute slack for budget checks; conservation itself is exact float
# arithmetic and stays far inside this.
BUDGET_TOL = 1e-9


class MassState(NamedTuple):
    parts: tuple   # non-increasing, strictly positive
    dust: float    # mass lost to unresolved fragments, erosion, and flooring
    nominal: float # initial total mass


def validate_fragments(fragments):
    """Check a dislocation vector: non-negative, non-increasing, sum <= 1.

    Returns the vector with zero entries stripped; being non-increasing,
    its zeros form a suffix. NaN ratios are rejected.
    """
    return _checked(fragments)[0]


def _checked(fragments):
    """(validate_fragments(fragments), total) from one pass. The total
    0.0 + x0 + x1 + ... is sum() of the stripped vector bit for bit on
    CPython 3.11, as the stripped zeros add nothing; a tuple with nothing
    to strip is returned itself."""
    prev = math.inf
    total = 0.0
    positive = 0
    for x in fragments:
        if not prev >= x >= 0.0:
            if not x >= 0.0:
                raise InvalidFragmentVector(f"fragment ratio {x} is not a "
                                            f"non-negative number")
            raise InvalidFragmentVector("fragment vector is not non-increasing")
        prev = x
        total += x
        positive += x > 0.0
    if total > 1.0 + BUDGET_TOL:
        raise InvalidFragmentVector(f"fragment ratios sum to {total} > 1")
    return tuple(fragments[:positive]), total


def dislocate(state, rank, fragments, mass_floor=0.0):
    """Replace the rank-th largest part (1-based) by its pieces and re-rank.

    The dislocated mass m becomes m*x for each ratio x in fragments; the
    deficit m*(1 - sum(fragments)) joins the dust, as does any piece below
    mass_floor. Ties in the re-ranking keep earlier-created fragments first.

    Every part ranked before the parent weighs at least as much as it, and
    no piece outweighs the parent or the piece before it, so each insert
    point is searched for from the last one on.
    """
    if not 1 <= rank <= len(state.parts):
        raise RankOutOfRange(f"rank {rank} not in 1..{len(state.parts)}")
    fragments, total = _checked(fragments)
    parts = list(state.parts)
    parent = parts.pop(rank - 1)
    dust = state.dust
    deficit = 1.0 - total
    if deficit > 0.0:
        dust += parent * deficit
    lo = rank - 1
    for x in fragments:
        piece = parent * x
        if piece < mass_floor or piece == 0.0:
            dust += piece
        else:
            # after every equal part: pre-existing fragments precede new ones
            lo = bisect_right(parts, -piece, lo, key=operator.neg)
            parts.insert(lo, piece)
    # tuple.__new__ builds the MassState that MassState(...) would, without
    # the generated __new__'s Python frame
    return tuple.__new__(MassState, (tuple(parts), dust, state.nominal))
