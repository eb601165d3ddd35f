"""Running rate sums: array-backed states past 64 parts and the carried sums.

Needs numpy alone, so CI runs it on the oldest numpy the package accepts:
next_event calls np.add.accumulate and searchsorted at every event of a
large state.
"""

import builtins
import math
import warnings
from array import array

import numpy as np
import pytest

from fragsim import FiniteAtomic, MassState, dislocate, next_event
from fragsim import simulator
from fragsim.errors import RateOverflow
from fragsim.simulator import RunningSums
from reference import (
    Scripted,
    StubRng,
    compensated_sum,
    dyadic_parts,
    onto,
    reference_target,
    twin_paths,
)

THREE_ATOMS = FiniteAtomic([(1.0, (0.6, 0.4)), (0.5, (0.5, 0.3, 0.2)),
                            (0.25, (0.9, 0.05))])
TRUNC = THREE_ATOMS.truncated_mass(0.0)


@pytest.mark.parametrize("seed", range(3))
def test_carried_sums_past_a_cap_trim_then_a_regrowth(monkeypatch, seed):
    # 301 parts and a cap of 100: the first event splits rank 301, so of
    # its 301 running sums the cap keeps 100; parts of 0.0015 split only
    # into dust, so the state shrinks below 65 parts, then the 0.5 part's
    # pieces grow it past 64 again, over ranks whose buffered sums are stale
    start = MassState((0.5,) + (0.0015,) * 300, 0.0, 0.95)
    shipped, carry_free, handed = twin_paths(
        monkeypatch, start, THREE_ATOMS, 0.1, 30.0, 0.001, 100,
        lambda: Scripted(seed, uniforms=(math.nextafter(1.0, 0.0),)))
    assert shipped == carry_free and shipped[0][0][1] == 301
    assert handed[:2] == [(0, 301), (100, 100)]
    sizes = [n for _, n in handed]
    dip = next(i for i, n in enumerate(sizes) if n <= 64)
    assert max(sizes[dip:]) > 64


@pytest.mark.parametrize("alpha, horizon", ((0.0, 0.3), (1.0, 40.0)))
def test_a_path_moves_to_an_array_past_64_parts(monkeypatch, alpha, horizon):
    # halves add one part an event: the state is a tuple up to 64 parts and
    # an array from 65 on, where alpha != 0 hands running sums on
    halves = FiniteAtomic([(1.0, (0.5, 0.5))])
    seen = []

    def watched(state, *args):
        seen.append(type(state.parts))
        return dislocate(state, *args)

    monkeypatch.setattr(simulator, "dislocate", watched)
    shipped, carry_free, handed = twin_paths(
        monkeypatch, MassState((1.0 / 64,) * 62, 0.0, 62 / 64), halves, alpha,
        horizon, 0.0, 10 ** 6, lambda: np.random.default_rng(7))
    assert shipped == carry_free
    n = len(seen) // 2  # each twin's events
    assert n > 10 and seen[:n] == seen[n:]
    assert seen[:n] == [tuple] * 3 + [array] * (n - 3)
    assert [size for _, size in handed[:4]] == [62, 63, 64, 65]
    assert [valid is None for valid, _ in handed] == \
        [True] * 3 + [alpha == 0.0] * (len(handed) - 3)


@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("n", (64, 65))
def test_64_and_65_parts_of_every_kind_give_the_loops_target(alpha, n):
    parts = dyadic_parts(n)
    rates = [m ** alpha for m in parts]
    total = sum(rates)
    cuts = [u for b in (0, 1, 31, 63, 64, n - 1)
            if (u := onto(sum(rates[:b]), total)) is not None]
    cuts += [float(u) for u in np.random.default_rng(n).random(20)] + [1.0]
    for kind in (tuple, list, lambda p: array("d", p)):
        state = MassState(kind(parts), 0.0, 1.0)
        for u in cuts:
            want = reference_target(parts, alpha, u)
            for sums in (None, RunningSums()):
                wait, target, v = next_event(state, alpha, 0.0, StubRng(u),
                                             TRUNC, sums)
                assert (target, v) == (want, u)
                assert wait == 1.0 / (total * TRUNC)
        assert state.parts == kind(parts)


@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
def test_large_states_draw_no_total_from_sum(monkeypatch, alpha):
    # a rate a quarter ulp of the first is lost by each left-to-right add
    # but kept by compensation, so the two totals differ; running sums are
    # np.add.accumulate's, so swapping sum() moves only the draws of a
    # state of at most 64 parts handed none
    tiny = (0.5 ** alpha * 2.0 ** -55) ** (1.0 / alpha)
    cases = []
    for n in (64, 65, 200):
        parts = (0.5,) + (tiny,) * (n - 1)
        rates = [m ** alpha for m in parts]
        assert compensated_sum(rates) != sum(rates)
        for kind in (tuple, lambda p: array("d", p)):
            for carry in (False, True):
                cases.append((MassState(kind(parts), 0.0, 1.0), carry,
                              n > 64 or carry))

    def triples():
        return [[next_event(state, alpha, 0.0, StubRng(u), TRUNC,
                            RunningSums() if carry else None)
                 for u in (0.3, 0.9)] for state, carry, _ in cases]

    want = triples()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    got = triples()
    assert [a == b for a, b in zip(got, want)] == [same for *_, same in cases]


@pytest.mark.parametrize("kind", (tuple, lambda p: array("d", p)),
                         ids=("tuple", "array"))
@pytest.mark.parametrize("carry", (False, True))
@pytest.mark.parametrize("alpha, mass", ((-1.0, 1e-307), (1.0, 1e307),
                                         (2.0, 1e154)))
def test_rates_that_sum_past_the_float_range_raise_rate_overflow(
        kind, carry, alpha, mass):
    # 100 finite rates of 1e307 or 1e308 sum past the float range in
    # np.add.accumulate, which would warn outside its errstate: small
    # masses at alpha < 0, or masses past 1 at alpha > 0
    state = MassState(kind((mass,) * 100), 0.0, 100 * mass)
    with warnings.catch_warnings(), pytest.raises(RateOverflow):
        warnings.simplefilter("error")
        next_event(state, alpha, 0.0, np.random.default_rng(0), TRUNC,
                   RunningSums() if carry else None)


def test_snapshots_of_an_array_backed_path_share_one_float_per_value():
    # an array holds bare doubles; _observe boxes each value once a path,
    # so its snapshots hold one float per value, fewer than their parts
    # (the atoms' products tie often)
    traj = simulator.run(simulator.SimConfig(
        THREE_ATOMS, 300.0, alpha=1.0, obs_times=tuple(range(10, 301, 10))),
        np.random.default_rng(3))
    big = [s.parts for s in traj.snapshots if len(s.parts) > 64]
    assert len(big) > 10 and all(type(parts) is tuple for parts in big)
    floats = [x for parts in big for x in parts]
    assert len({id(x) for x in floats}) == len(set(floats)) < len(floats) / 4
