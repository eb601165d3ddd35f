"""Ranked mass states: fragment validation and dislocation."""

import math
import operator
from array import array
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsim import MassState, dislocate, validate_fragments
from fragsim.errors import ConfigError, InvalidFragmentVector, RankOutOfRange
from fragsim.ranked_state import BUDGET_TOL
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


@pytest.mark.parametrize("rank", ("x", 1.5, 1.0, None, math.nan, (1,)))
@pytest.mark.parametrize("kind", (tuple, list, lambda p: array("d", p)),
                         ids=("tuple", "list", "array"))
def test_dislocate_refuses_a_rank_that_is_not_an_int(rank, kind):
    # a str or None fails the comparison and 1.5 the pop, each with a bare
    # TypeError; NaN fails the range
    parts = kind((0.5, 0.3))
    state = MassState(parts, 0.0, 1.0)
    with pytest.raises(RankOutOfRange):
        dislocate(state, rank, (0.5,))
    assert state.parts is parts and parts == kind((0.5, 0.3))


def test_dislocate_tie_order_is_stable():
    # splitting rank 2 of (0.5, 0.5) into equal quarters keeps the untouched
    # 0.5 first and the new pieces after any pre-existing equal mass
    st = mass_state([0.5, 0.5])
    st = dislocate(st, 2, (0.5, 0.5))
    assert st.parts == (0.5, 0.25, 0.25)


@pytest.mark.parametrize("fragments", [("a",), (None,), (0.5, (0.2,)), 3,
                                       None],
                         ids=["str", "None", "nested", "int", "no-vector"])
def test_dislocate_refuses_a_vector_that_is_not_numbers(fragments):
    # the ratio comparison raised a bare TypeError
    state = mass_state([1.0])
    with pytest.raises(InvalidFragmentVector, match="sequence of numbers"):
        dislocate(state, 1, fragments)
    assert state == mass_state([1.0])


def test_dislocate_names_a_mass_floor_that_is_not_a_number():
    with pytest.raises(ConfigError, match="mass_floor 'x' must be a number"):
        dislocate(mass_state([1.0]), 1, (0.5, 0.25), mass_floor="x")


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


def test_dislocate_leaves_its_input_and_keeps_its_kind():
    # the bench counts events by reading the input's parts after the call,
    # and the event loop logs the parent from them, so they must not change
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        masses = sorted((int(k) / 256.0 for k in rng.integers(1, 7, size=n)),
                        reverse=True)
        floor = float(rng.choice([0.0, 1.0 / 512.0, 1.0 / 256.0]))
        fragments = _random_fragments(rng)
        rank = int(rng.integers(1, n + 1))
        want = dislocate(MassState(tuple(masses), 0.0, 1.0), rank, fragments,
                         floor)
        assert type(want.parts) is tuple
        # an array stays an array; any other parts come back as a tuple
        for kind, out in ((tuple, tuple), (list, tuple),
                          (lambda p: array("d", p), array)):
            parts = kind(masses)
            state = MassState(parts, 0.0, 1.0)
            got = dislocate(state, rank, fragments, floor)
            assert state.parts is parts and parts == kind(masses)
            assert type(got.parts) is out and got.parts is not parts
            assert _bits(got) == _bits(want)


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


def _dislocate_in_two_passes(state, rank, fragments, mass_floor=0.0):
    """Reference dislocate: check the vector with the loop reference, take
    the deficit from sum() of what it kept, then insert the pieces, each
    searched for from the last insert point on."""
    if not 1 <= rank <= len(state.parts):
        raise RankOutOfRange(f"rank {rank} not in 1..{len(state.parts)}")
    fragments = _validate_by_loop(fragments)
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
            lo = bisect_right(parts, -piece, lo, key=operator.neg)
            parts.insert(lo, piece)
    return MassState(tuple(parts), dust, state.nominal)


def _dislocate_outcome(dislocate_fn, state, rank, fragments, floor):
    try:
        out = dislocate_fn(state, rank, fragments, floor)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return ("ok", [(type(x), float(x).hex()) for x in out.parts],
            float(out.dust).hex())


def _fitting(ratios):
    """The non-increasing prefix of ratios that sums to at most 1."""
    kept, total = [], 0.0
    for x in sorted(ratios, reverse=True):
        if total + x > 1.0:
            break
        kept.append(x)
        total += x
    return kept


# dyadic ratios tie with dyadic parts and with each other exactly, and a
# zero suffix makes pieces the dust takes nothing from
_DYADIC = st.tuples(st.lists(st.integers(1, 9), max_size=5), st.integers(0, 2)) \
    .map(lambda v: _fitting([0.5 ** k for k in v[0]]) + [0.0] * v[1])


def _as_hex(outcome):
    """A dislocate outcome with the parts' types dropped: an array holds
    floats where a tuple keeps what the pieces were, such as np.float64."""
    if outcome[0] != "ok":
        return outcome
    return "ok", [h for _, h in outcome[1]], outcome[2]


@settings(derandomize=True, database=None, deadline=None, max_examples=1500)
@given(st.one_of(_VECTOR, _DYADIC),
       st.sampled_from((tuple, list, np.array)),
       st.sampled_from((tuple, list, lambda p: array("d", p))),
       st.lists(st.integers(1, 6), min_size=1, max_size=30),
       st.sampled_from((0.0, -0.0, 1.0 / 64.0)),
       st.sampled_from((0.0, 1.0 / 2048.0, 1.0 / 512.0, 0.003)),
       st.data())
def test_dislocate_is_validate_then_insert(fragments, kind, parts_kind, masses,
                                            dust, floor, data):
    # dislocate checks and inserts in one pass; it must keep the loop
    # reference's errors, sum()'s deficit and the two-pass insert, bit for
    # bit, on tuple, list and array parts, and leave its input as it was
    masses = tuple(sorted((k / 256.0 for k in masses), reverse=True))
    state = MassState(parts_kind(masses), dust, 1.0)
    rank = data.draw(st.integers(0, len(masses) + 1))
    vector = kind(fragments)
    want = _dislocate_outcome(_dislocate_in_two_passes,
                              MassState(masses, dust, 1.0), rank, vector, floor)
    got = _dislocate_outcome(dislocate, state, rank, vector, floor)
    assert _as_hex(got) == _as_hex(want)
    if parts_kind in (tuple, list):
        assert got == want
    assert tuple(state.parts) == masses
    if want[0] == "ok":
        assert _outcome(validate_fragments, vector) == \
            _outcome(_validate_by_loop, vector)
        if kind is tuple and 0.0 not in vector:
            assert validate_fragments(vector) == vector
