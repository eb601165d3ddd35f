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

from .errors import (
    InvalidFragmentVector,
    MassBudgetExceeded,
    NegativeMass,
    RankOutOfRange,
)

# Absolute slack for budget checks; conservation itself is exact float
# arithmetic and stays far inside this.
BUDGET_TOL = 1e-9


class MassState(NamedTuple):
    parts: tuple   # non-increasing, strictly positive
    dust: float    # mass lost to unresolved fragments, erosion, and flooring
    nominal: float # initial total mass


def from_masses(masses, dust=0.0, nominal=1.0):
    """Validating constructor. Zero masses are stripped, ties keep input order."""
    masses = [float(m) for m in masses]
    for m in masses:
        if m < 0.0:
            raise NegativeMass(f"fragment mass {m} is negative")
    if dust < 0.0:
        raise NegativeMass(f"dust {dust} is negative")
    if nominal <= 0.0:
        raise NegativeMass(f"nominal budget {nominal} must be positive")
    if sum(masses) + dust > nominal + BUDGET_TOL:
        raise MassBudgetExceeded(
            f"parts+dust = {sum(masses) + dust} exceeds nominal {nominal}")
    kept = [m for m in masses if m > 0.0]
    kept.sort(reverse=True)  # stable: equal masses keep input order
    return MassState(tuple(kept), float(dust), float(nominal))


def validate_fragments(fragments):
    """Check a dislocation vector: non-negative, non-increasing, sum <= 1.

    Returns the vector with zero entries stripped; being non-increasing,
    its zeros form a suffix. NaN ratios are rejected.
    """
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
    return tuple(fragments[:positive])


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
    fragments = validate_fragments(fragments)
    parts = list(state.parts)
    parent = parts.pop(rank - 1)
    dust = state.dust
    deficit = 1.0 - sum(fragments)
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


def prefix_mass(state, k):
    """Sum of the k largest parts (all parts when fewer than k exist)."""
    if k < 1:
        raise RankOutOfRange(f"prefix length {k} must be >= 1")
    return sum(state.parts[:k])
