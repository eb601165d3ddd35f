"""Ranked mass states: fragment validation and dislocation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsim import MassState, dislocate, validate_fragments
from fragsim.errors import InvalidFragmentVector, RankOutOfRange
from fragsim.ranked_state import BUDGET_TOL, _checked
from reference import mass_state


def test_validate_fragments():
    assert validate_fragments((0.6, 0.4)) == (0.6, 0.4)
    assert validate_fragments((0.5, 0.3, 0.0)) == (0.5, 0.3)
    assert validate_fragments(()) == ()
    # the zeros of a non-increasing vector are a suffix, and all of it goes
    assert validate_fragments((0.5, 0.0, 0.0)) == (0.5,)
    assert validate_fragments((0.0, 0.0)) == ()
    assert validate_fragments([0.5, 0.5, 0.0]) == (0.5, 0.5)
    with pytest.raises(InvalidFragmentVector):
        validate_fragments((0.4, 0.6))
    with pytest.raises(InvalidFragmentVector):
        validate_fragments((0.5, -0.1))
    with pytest.raises(InvalidFragmentVector):
        validate_fragments((0.8, 0.4))


def test_dislocate_basic():
    st = mass_state([1.0])
    st = dislocate(st, 1, (0.6, 0.4))
    assert st.parts == (0.6, 0.4)
    st = dislocate(st, 1, (0.6, 0.4))
    # 0.6 -> 0.36, 0.24; the untouched 0.4 slots between them
    assert st.parts == (0.4, 0.36, 0.24)
    assert st.dust == 0.0
    assert sum(st.parts) + st.dust == pytest.approx(1.0, abs=1e-15)


def test_dislocate_deficit_to_dust():
    st = mass_state([0.8, 0.2])
    st = dislocate(st, 1, (0.5,))
    assert st.parts == (0.4, 0.2)
    assert st.dust == pytest.approx(0.4, abs=1e-15)
    # empty fragment vector sends everything to dust
    st = dislocate(st, 2, ())
    assert st.parts == (0.4,)
    assert st.dust == pytest.approx(0.6, abs=1e-15)


def test_dislocate_mass_floor():
    st = mass_state([1.0])
    st = dislocate(st, 1, (0.9, 0.1), mass_floor=0.2)
    assert st.parts == (0.9,)
    assert st.dust == pytest.approx(0.1, abs=1e-15)
    # floored mass still counts toward the budget
    assert sum(st.parts) + st.dust == pytest.approx(1.0, abs=1e-15)


def test_dislocate_rank_bounds():
    st = mass_state([0.5, 0.5])
    for bad in (0, 3, -1):
        with pytest.raises(RankOutOfRange):
            dislocate(st, bad, (0.5, 0.5))


def test_dislocate_tie_order_is_stable():
    # splitting rank 2 of (0.5, 0.5) into equal quarters keeps the untouched
    # 0.5 first and the new pieces after any pre-existing equal mass
    st = mass_state([0.5, 0.5])
    st = dislocate(st, 2, (0.5, 0.5))
    assert st.parts == (0.5, 0.25, 0.25)


def test_validate_fragments_rejects_nan():
    for bad in ((math.nan,), (0.5, math.nan), (math.nan, 0.5), (0.5, 0.3, math.nan)):
        with pytest.raises(InvalidFragmentVector):
            validate_fragments(bad)


def _dislocate_by_sort(state, rank, fragments, mass_floor=0.0):
    """Reference dislocate: slice the target out, append the kept pieces
    and re-rank with a stable reverse sort."""
    fragments = validate_fragments(fragments)
    parent = state.parts[rank - 1]
    dust = state.dust
    deficit = 1.0 - sum(fragments)
    if deficit > 0.0:
        dust += parent * deficit
    survivors = list(state.parts[:rank - 1] + state.parts[rank:])
    for x in fragments:
        piece = parent * x
        if piece < mass_floor or piece == 0.0:
            dust += piece
        else:
            survivors.append(piece)
    survivors.sort(reverse=True)
    return MassState(tuple(survivors), dust, state.nominal)


def _bits(state):
    return ([x.hex() for x in state.parts], state.dust.hex(),
            state.nominal.hex())


def _random_fragments(rng):
    """Dyadic ratios, so pieces tie with parts and with each other exactly,
    or plain uniforms; sometimes empty, one piece, or with a zero suffix."""
    size = int(rng.integers(0, 5))
    if rng.random() < 0.5:
        ratios = sorted((0.5 ** int(rng.integers(1, 5)) for _ in range(size)),
                        reverse=True)
    else:
        ratios = sorted(rng.random(size).tolist(), reverse=True)
    kept, total = [], 0.0
    for x in ratios:
        if total + x > 1.0:
            break
        kept.append(x)
        total += x
    return tuple(kept) + (0.0,) * int(rng.integers(0, 2))


def test_dislocate_matches_the_sort_reference():
    rng = np.random.default_rng(7)
    for _ in range(3000):
        n = int(rng.integers(1, 40))
        # multiples of 1/256 repeat, and halving them hits other parts
        masses = sorted((int(k) / 256.0 for k in rng.integers(1, 7, size=n)),
                        reverse=True)
        state = MassState(tuple(masses), float(rng.integers(0, 4)) / 64.0, 1.0)
        floor = float(rng.choice([0.0, 0.0, 1.0 / 512.0, 1.0 / 256.0,
                                  rng.random() / 64.0]))
        fragments = _random_fragments(rng)
        for rank in {1, n, int(rng.integers(1, n + 1))}:
            got = dislocate(state, rank, fragments, floor)
            want = _dislocate_by_sort(state, rank, fragments, floor)
            assert _bits(got) == _bits(want), (state, rank, fragments, floor)


def _validate_by_loop(fragments):
    """Reference validate_fragments: the two-test loop it replaced."""
    prev = None
    total = 0.0
    positive = 0
    for x in fragments:
        if not x >= 0.0:
            raise InvalidFragmentVector(f"fragment ratio {x} is not a "
                                        f"non-negative number")
        if prev is not None and x > prev:
            raise InvalidFragmentVector("fragment vector is not non-increasing")
        prev = x
        total += x
        positive += x > 0.0
    if total > 1.0 + BUDGET_TOL:
        raise InvalidFragmentVector(f"fragment ratios sum to {total} > 1")
    return tuple(fragments[:positive])


def _outcome(check, fragments):
    try:
        return "ok", [(type(x), repr(x)) for x in check(fragments)]
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


_ODD = (math.nan, -0.0, 0.0, math.inf, -math.inf, -0.25, -1e-300, 1.0,
        0.5, 5e-324)


def _random_vector(rng):
    """A vector from one of: sorted uniforms with a zero suffix; odd values
    spliced in; an increasing pair; or sums at and just past 1 + BUDGET_TOL."""
    size = int(rng.integers(0, 6))
    xs = sorted((rng.random(size) / max(size, 1)).tolist(), reverse=True)
    xs += [0.0] * int(rng.integers(0, 3))
    kind = int(rng.integers(0, 4))
    if kind == 0 and xs:
        xs[int(rng.integers(0, len(xs)))] = _ODD[int(rng.integers(0, len(_ODD)))]
    elif kind == 1 and len(xs) > 1:
        i = int(rng.integers(0, len(xs) - 1))
        xs[i], xs[i + 1] = xs[i + 1], xs[i]
    elif kind == 2:
        top = 1.0 + BUDGET_TOL
        over = top + math.ulp(top) * int(rng.integers(1, 4))
        whole = [top, over, 1.0 + 2 * BUDGET_TOL][int(rng.integers(0, 3))]
        xs = [whole / 2, whole / 2] if rng.random() < 0.5 else [whole]
        xs += [0.0] * int(rng.integers(0, 2))
    return tuple(xs) if rng.random() < 0.5 else xs


def test_validate_fragments_matches_the_loop_reference():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(20000):
        fragments = _random_vector(rng)
        want = _outcome(_validate_by_loop, fragments)
        assert _outcome(validate_fragments, fragments) == want, fragments
        seen.add("ok" if want[0] == "ok" else
                 "sum" if " sum to " in want[1] else want[1][:15])
    # every path through the check is taken: kept vectors, bad ratios,
    # order breaks and budget overruns
    assert seen == {"ok", "fragment ratio ", "fragment vector", "sum"}, seen
    for edge in ((math.inf,), (math.inf, math.inf), (-0.0, 0.0), (0.5, -0.0),
                 (1.0 + BUDGET_TOL,), (math.nan,), (0.5, math.nan)):
        assert _outcome(validate_fragments, edge) == \
            _outcome(_validate_by_loop, edge)


def _sum_outcome(check, fragments):
    """_outcome with the sum: dislocate's deficit is 1.0 minus this float,
    compared by its bits. sum(()) is the int 0, which float() keeps."""
    out = _outcome(check, fragments)
    if out[0] == "ok":
        out += (float(sum(check(fragments))).hex(),)
    return out


def _checked_outcome(fragments):
    try:
        vector, total = _checked(fragments)
    except InvalidFragmentVector as exc:
        return InvalidFragmentVector, str(exc)
    return "ok", [(type(x), repr(x)) for x in vector], total.hex()


_TOP = 1.0 + BUDGET_TOL
# ratios in [0, 1], the odd values, and sums from just below the budget's
# top to just above it, split in two equal halves or kept whole
_RATIO = st.one_of(st.floats(0.0, 1.0), st.sampled_from(_ODD))
_NEAR_TOP = st.integers(-2, 4).map(lambda k: _TOP + k * math.ulp(_TOP))
_VECTOR = st.one_of(
    # non-increasing ratios that sum to at most 1, with a zero suffix
    st.tuples(st.lists(st.floats(0.0, 1.0), max_size=6), st.integers(0, 3))
    .map(lambda v: sorted((x / max(len(v[0]), 1) for x in v[0]), reverse=True)
         + [0.0] * v[1]),
    # any order, so increasing pairs, NaN, -0.0 and negatives anywhere
    st.lists(_RATIO, max_size=6),
    st.tuples(_NEAR_TOP, st.booleans(), st.integers(0, 2))
    .map(lambda v: ([v[0] / 2, v[0] / 2] if v[1] else [v[0]]) + [0.0] * v[2]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(_VECTOR, st.booleans())
def test_checked_is_validate_fragments_and_sum(fragments, as_tuple):
    # dislocate takes its vector and deficit from _checked's one pass; it
    # must keep validate_fragments' vector and errors and sum()'s float
    if as_tuple:
        fragments = tuple(fragments)
    want = _sum_outcome(_validate_by_loop, fragments)
    assert _checked_outcome(fragments) == want
    assert _sum_outcome(validate_fragments, fragments) == want
    if want[0] == "ok" and as_tuple and 0.0 not in fragments:
        assert _checked(fragments)[0] is fragments
