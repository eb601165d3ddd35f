"""Ranked mass states and the operations that evolve them.

A state is a finite non-increasing tuple of strictly positive fragment
masses, a dust ledger for mass that left the resolved fragments, and the
nominal budget the state started from. All operations preserve the budget
inequality sum(parts) + dust <= nominal (within a small float tolerance)
and keep the parts ranked.

Inside the simulator's event loop a state of at most 64 parts holds a
tuple, as every public state does, and a larger one an array('d'), which
an event copies with one memcpy of doubles and whose rates next_event
sums with one np.add.accumulate: dislocate returns an array for an array
and a tuple for any other parts. The parts are all the loop carries from
one event to the next. Array-backed states reach no public caller: every
snapshot, trajectory and kernel state holds a tuple, and run drops the
loop's end state.
"""

import math
import numbers
import operator
from array import array
from bisect import bisect_right
from typing import NamedTuple

from .errors import ConfigError, InvalidFragmentVector, RankOutOfRange

# Absolute slack for budget checks; conservation itself is exact float
# arithmetic and stays far inside this.
BUDGET_TOL = 1e-9


class MassState(NamedTuple):
    parts: tuple   # non-increasing, strictly positive; an array('d') past 64 in the loop
    dust: float    # mass lost to unresolved fragments, erosion, and flooring
    nominal: float # initial total mass


def validate_fragments(fragments):
    """Check a dislocation vector: non-negative, non-increasing, sum <= 1.

    Returns the vector with zero entries stripped, as a tuple; being
    non-increasing, its zeros form a suffix. NaN ratios are rejected. The
    check is dislocate's: the pieces a unit fragment breaks into are the
    stripped ratios, bit for bit, as 1.0 * x == x.
    """
    return dislocate(_UNIT, 1, fragments).parts


def dislocate(state, rank, fragments, mass_floor=0.0):
    """Replace the rank-th largest part (1-based) by its pieces and re-rank.

    A rank that is not an int in 1..len(parts) raises RankOutOfRange.
    The dislocated mass m becomes m*x for each ratio x in fragments; the
    deficit m*(1 - sum(fragments)) joins the dust, as does any piece below
    mass_floor. Ties in the re-ranking keep earlier-created fragments first.

    fragments must be non-negative and non-increasing numbers, with sum <= 1
    (NaN is refused); any other vector, or one that is not iterable, raises
    InvalidFragmentVector, and a mass_floor that is not a number raises
    ConfigError. One pass over fragments checks each ratio and inserts its
    piece. Every part ranked before the parent weighs at least as much as
    it, and no piece outweighs the parent or the piece before it, so each
    insert point is searched for from the last one on, and a piece heavier
    than the part at that point goes there with no search. The dust takes
    the deficit's mass first, then the dusted pieces in vector order, after
    the whole vector is checked. The ratios' sum, checked against 1, is a
    left-to-right fold of float adds.

    The parts are copied, so state is left as it was, even when the vector
    is refused. An array('d'), as in the event loop past 64 parts, is
    copied by a slice, which is the new state's parts; any other parts are
    copied into a list, and give a tuple. A state with no parts attribute,
    as None, raises ConfigError; the check is the handler of the first
    read of state.parts, so a valid state pays nothing for it.
    """
    try:
        is_array = type(state.parts) is array
    except AttributeError:
        raise ConfigError(f"state {state!r} must be a MassState") from None
    parts = state.parts[:] if is_array else list(state.parts)
    try:
        if not 1 <= rank <= len(parts):
            raise RankOutOfRange(f"rank {rank} not in 1..{len(parts)}")
        parent = parts.pop(rank - 1)
    except TypeError:
        # a rank that does not compare with ints, or is no index, as 1.5
        raise RankOutOfRange(f"rank {rank!r} is not an int in "
                             f"1..{len(parts)}") from None
    lo = rank - 1
    prev = math.inf
    total = 0.0
    dusted = ()
    try:
        for x in fragments:
            if not prev >= x >= 0.0:
                if not x >= 0.0:
                    raise InvalidFragmentVector(f"fragment ratio {x} is not a "
                                                f"non-negative number")
                raise InvalidFragmentVector("fragment vector is not "
                                            "non-increasing")
            prev = x
            total += x
            piece = parent * x
            if piece < mass_floor or piece == 0.0:
                if x:  # a zero ratio makes no piece, so it dusts nothing
                    dusted += (piece,)
            else:
                if lo < len(parts) and parts[lo] >= piece:
                    # after every equal part: pre-existing fragments
                    # precede new ones
                    lo = bisect_right(parts, -piece, lo + 1, key=operator.neg)
                parts.insert(lo, piece)
    except TypeError:
        if not isinstance(mass_floor, numbers.Real):
            raise ConfigError(f"mass_floor {mass_floor!r} must be a "
                              f"number") from None
        raise InvalidFragmentVector(f"fragment vector {fragments!r} is not a "
                                    f"sequence of numbers") from None
    if total > 1.0 + BUDGET_TOL:
        raise InvalidFragmentVector(f"fragment ratios sum to {total} > 1")
    dust = state.dust
    deficit = 1.0 - total
    if deficit > 0.0:
        dust += parent * deficit
    for piece in dusted:
        dust += piece
    if not is_array:
        parts = tuple(parts)
    # tuple.__new__ builds the MassState that MassState(...) would, without
    # the generated __new__'s Python frame
    return tuple.__new__(MassState, (parts, dust, state.nominal))


# The unit fragment validate_fragments dislocates.
_UNIT = MassState((1.0,), 0.0, 1.0)
