"""Event-driven simulator: scheduling law, conservation, traces, CSV output."""

import builtins
import dataclasses
import io
import math
from array import array
from itertools import accumulate

import numpy as np
import pytest

from fragsim import (
    BinaryPowerLaw,
    BrennanDurrett,
    EventAtom,
    FiniteAtomic,
    MassState,
    SimConfig,
    Trajectory,
    chi_value,
    dislocate,
    make_step_kernel,
    next_event,
    record_value,
    run,
    write_event_csv,
    write_snapshot_csv,
)
from fragsim import simulator
from fragsim.errors import ConfigError, DeadState, EmptyTruncation, RateOverflow
from fragsim.measures import DislocationLaw
from fragsim.simulator import _evolve, _observe
from reference import (
    Scripted,
    StubRng,
    dyadic_parts,
    fold,
    onto,
    path_hex as _path_hex,
    reference_target,
    state_hex as _hex,
    twin_paths,
    watch_kinds,
)
from sum312.emulation import compensated_sum

SPLIT_64 = FiniteAtomic([(1.0, (0.6, 0.4))])
TRUNC_64 = SPLIT_64.truncated_mass(0.0)


def test_config_validation():
    ok = SimConfig(law=SPLIT_64, t_end=1.0, obs_times=[0.5, 1])
    assert ok.obs_times == (0.5, 1.0)
    bad = [
        dict(t_end=-1.0),
        dict(t_end=1.0, initial_mass=0.0),
        dict(t_end=1.0, initial_mass=1.2),
        dict(t_end=1.0, c=-0.5),
        dict(t_end=1.0, c=0.5, alpha=1.0),
        dict(t_end=1.0, eps=-0.1),
        dict(t_end=1.0, max_fragments=0),
        dict(t_end=1.0, mass_floor=-1e-9),
        dict(t_end=1.0, obs_times=(0.5, 0.2)),
        dict(t_end=1.0, obs_times=(1.5,)),
        dict(t_end=1.0, obs_times=(-0.5, 1.0)),
        # NaN fails both t < prev and t > t_end
        dict(t_end=2.0, obs_times=(0.5, math.nan, 1.0, 2.0)),
        dict(t_end=1.0, obs_times=(0.5, 1.0, math.nan)),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            SimConfig(law=SPLIT_64, **kwargs)
    with pytest.raises(ConfigError):
        SimConfig(law=BinaryPowerLaw(0.5), t_end=1.0, eps=0.0)


@pytest.mark.parametrize("t_end", (math.inf, math.nan))
def test_t_end_must_be_finite(t_end):
    with pytest.raises(ConfigError):
        SimConfig(law=FiniteAtomic([]), t_end=t_end)


@pytest.mark.parametrize("field, value, match", (
    ("c", math.nan, "erosion rate"),
    ("c", math.inf, "erosion rate"),
    ("alpha", math.nan, "alpha"),
    ("alpha", math.inf, "alpha"),
    ("alpha", -math.inf, "alpha"),
    ("mass_floor", math.nan, "mass_floor"),
    ("mass_floor", math.inf, "mass_floor"),
))
def test_config_rejects_fields_that_are_not_finite(field, value, match):
    with pytest.raises(ConfigError, match=match):
        run(SimConfig(SPLIT_64, 1.0, obs_times=(1.0,), **{field: value}),
            np.random.default_rng(0))


def test_rates_that_underflow_end_the_path():
    # 0.6 ** 2000 and 0.4 ** 2000 are 0.0: after the first split no rate is
    # left, so the path ends
    traj = run(SimConfig(SPLIT_64, 10.0, alpha=2000.0, obs_times=(10.0,)),
               np.random.default_rng(0))
    assert len(traj.events) == 1
    assert traj.snapshots[0] == MassState((0.6, 0.4), 0.0, 1.0)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(DeadState, match="underflow"):
        next_event(MassState((0.6, 0.4), 0.0, 1.0), 2000.0, 0.0, rng, TRUNC_64)
    assert rng.bit_generator.state == before  # raised before any draw


def test_next_event_waiting_time_and_target():
    rng = np.random.default_rng(0)
    state = MassState((1.0,), 0.0, 1.0)
    n = 20000
    waits = [next_event(state, 0.0, 0.0, rng, TRUNC_64)[0]
             for _ in range(n)]
    # unit rate: one fragment times unit truncated mass
    assert abs(np.mean(waits) - 1.0) < 3.0 / math.sqrt(n)

    state = MassState((0.6, 0.4), 0.0, 1.0)
    targets = [next_event(state, 0.0, 0.0, rng, TRUNC_64)[1]
               for _ in range(n)]
    # homogeneous case: the target is uniform, whatever the masses
    assert abs(np.mean([t == 1 for t in targets]) - 0.5) < 3 * 0.5 / math.sqrt(n)
    assert set(targets) == {1, 2}


def test_integers_over_one_value_draws_nothing():
    # next_event takes a lone fragment as the target without calling
    # rng.integers(1, 2); that keeps every stream only while numpy draws
    # nothing for a one-value range
    rng = np.random.default_rng(8)
    rng.random()
    before = rng.bit_generator.state
    assert rng.integers(1, 2) == 1
    assert rng.bit_generator.state == before


def test_lone_fragment_target_keeps_the_stream():
    state = MassState((0.7,), 0.3, 1.0)
    skip, draw = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(20):
        wait, target, v = next_event(state, 0.0, 0.0, skip, TRUNC_64)
        assert wait == draw.exponential(1.0 / TRUNC_64)
        assert target == draw.integers(1, 2) == 1
        assert v == draw.random()
    assert skip.bit_generator.state == draw.bit_generator.state


@pytest.mark.parametrize("bit_generator", (np.random.PCG64, np.random.PCG64DXSM))
def test_alpha_zero_events_draw_as_numpys_calls(bit_generator):
    # one event at n parts is numpy's standard_exponential, integers and
    # the law's uniform in that order; n = 1 draws no rank, and n >= 2 takes
    # the merged draw. The law's random() between events meets PCG64's
    # buffered 32-bit half, and the state is compared after every event
    law = BinaryPowerLaw(0.5)
    trunc = law.truncated_mass(0.01)
    rng = np.random.Generator(bit_generator(17))
    twin = np.random.Generator(bit_generator(17))
    for n in (1, 2, 1, 3, 33, 1, 2, 300) * 5:
        state = MassState((1.0 / n,) * n, 0.0, 1.0)
        wait, target, v = next_event(state, 0.0, 0.01, rng, trunc)
        assert wait == 1.0 / (n * trunc) * twin.standard_exponential()
        assert target == int(twin.integers(1, n + 1))
        assert v == twin.random()
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("scale", (1e-12, 1.0 / 3.0, 1.0, 2.5, 7e5))
def test_scaled_standard_exponential_is_numpy_exponential(scale):
    # next_event draws each wait as scale * standard_exponential()
    rng, twin = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(10 ** 4):
        assert scale * rng.standard_exponential() == twin.exponential(scale)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("alpha", (0.0, 1.0, 2.0))
def test_next_event_waits_are_numpy_exponentials(alpha):
    state = MassState((0.5, 0.3, 0.15), 0.05, 1.0)
    rates = [m ** alpha for m in state.parts]
    scale = 1.0 / (sum(rates) * TRUNC_64)
    rng, twin = np.random.default_rng(32), np.random.default_rng(32)
    for _ in range(500):
        wait, _, _ = next_event(state, alpha, 0.0, rng, TRUNC_64)
        assert wait == twin.exponential(scale)
        if alpha == 0.0:
            twin.integers(1, 4)
        else:
            twin.random()
        twin.random()  # the law's uniform
    assert rng.bit_generator.state == twin.bit_generator.state


def test_next_event_mass_biased_target():
    rng = np.random.default_rng(1)
    state = MassState((0.6, 0.4), 0.0, 1.0)
    n = 20000
    picks = [next_event(state, 1.0, 0.0, rng, TRUNC_64)[1]
             for _ in range(n)]
    # alpha = 1 weights each fragment by its mass
    assert abs(np.mean([t == 1 for t in picks]) - 0.6) < 3 * 0.5 / math.sqrt(n)
    waits = [next_event(state, 1.0, 0.0, rng, TRUNC_64)[0]
             for _ in range(n)]
    assert abs(np.mean(waits) - 1.0) < 3.0 / math.sqrt(n)


def test_next_event_degenerate_states():
    rng = np.random.default_rng(2)
    with pytest.raises(DeadState):
        next_event(MassState((), 1.0, 1.0), 0.0, 0.0, rng, TRUNC_64)
    with pytest.raises(EmptyTruncation):
        law = BinaryPowerLaw(0.5)
        next_event(MassState((1.0,), 0.0, 1.0), 0.0, 0.6, rng,
                   law.truncated_mass(0.6))
    with pytest.raises(EmptyTruncation):
        next_event(MassState((1.0,), 0.0, 1.0), 0.0, 0.0, rng,
                   FiniteAtomic([]).truncated_mass(0.0))


def test_rate_overflow_at_negative_alpha_is_typed():
    rng = np.random.default_rng(2)
    # one rate overflows a float, or every rate is finite and the sum is not
    for parts in ((0.5, 1e-310), (1e-308, 1e-308)):
        with pytest.raises(RateOverflow, match="mass_floor"):
            next_event(MassState(parts, 0.0, 1.0), -1.0, 0.0, rng, TRUNC_64)
    # tiny fragments split ever faster until their rates overflow
    with pytest.raises(RateOverflow, match="mass_floor"):
        run(SimConfig(SPLIT_64, 5.0, alpha=-1.0), np.random.default_rng(1))
    # a mass floor dusts them first, and the path ends with no fragment left
    traj = run(SimConfig(SPLIT_64, 5.0, alpha=-1.0, mass_floor=1e-3,
                         obs_times=(5.0,)), np.random.default_rng(1))
    assert traj.snapshots[0].parts == ()


# one law per family, each at a truncation level where it has events
HOISTED_LAWS = (
    (FiniteAtomic([(1.0, (0.6, 0.4)), (0.5, (0.5, 0.3, 0.2)),
                   (0.25, (0.9, 0.05))]), 0.0),
    (BinaryPowerLaw(0.5), 0.05),
    (BrennanDurrett(2.0, 3.0), 0.1),
)


def counting(law):
    """A copy of law whose class counts its truncated_mass calls, and its
    sample_dislocation calls as maps."""
    base = type(law)

    class Counting(base):
        calls = 0
        maps = 0

        def truncated_mass(self, eps):
            type(self).calls += 1
            return base.truncated_mass(self, eps)

        def sample_dislocation(self, eps, total, u):
            type(self).maps += 1
            return base.sample_dislocation(self, eps, total, u)

    twin = Counting.__new__(Counting)
    twin.__dict__.update(law.__dict__)
    return twin


@pytest.mark.parametrize("law, eps", HOISTED_LAWS)
@pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0))
def test_next_event_precomputed_rate_keeps_the_stream(law, eps, alpha):
    # next_event makes every draw of an event, the law's uniform last, and
    # returns that uniform: the event is numpy's calls in that order, at
    # the law's truncated rate
    state = MassState((0.5, 0.3, 0.15, 0.05), 0.0, 1.0)
    rng, twin = np.random.default_rng(31), np.random.default_rng(31)
    trunc = law.truncated_mass(eps)
    rates = [m ** alpha for m in state.parts]
    for _ in range(50):
        wait, target, v = next_event(state, alpha, eps, rng, trunc)
        assert wait == 1.0 / (sum(rates) * trunc) * twin.standard_exponential()
        if alpha == 0.0:
            assert target == int(twin.integers(1, 5))
        else:
            assert target == reference_target(state.parts, alpha, twin.random())
        assert v == twin.random()
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("law, eps", HOISTED_LAWS)
def test_run_computes_the_truncated_rate_once(law, eps):
    law = counting(law)
    for t_end in (0.5, 20.0):
        type(law).calls = 0
        traj = run(SimConfig(law=law, t_end=t_end, eps=eps, alpha=1.0,
                             max_fragments=200), np.random.default_rng(41))
        assert type(law).calls == 1
    assert len(traj.events) > 3
    # the kernel runs at SimConfig's default eps = 0, which an
    # infinite-activity law refuses before it computes any rate
    type(law).calls = 0
    if law.infinite_activity:
        with pytest.raises(ConfigError, match="requires eps > 0"):
            make_step_kernel(law)
        assert type(law).calls == 0
    else:
        kernel = make_step_kernel(law)
        rng = np.random.default_rng(43)
        assert len(kernel(3.0, rng).parts) > 3
        kernel(1.0, rng)
        assert type(law).calls == 1


@pytest.mark.parametrize("law, eps", HOISTED_LAWS)
@pytest.mark.parametrize("alpha", (0.0, 1.0))
def test_the_law_maps_a_uniform_only_for_a_logged_event(law, eps, alpha):
    # the draw past the horizon is never mapped: one map per logged event,
    # also for a path with none
    law = counting(law)
    events = []
    for t_end in (1e-9, 0.5, 3.0):
        cfg = SimConfig(law, t_end, alpha=alpha, eps=eps, max_fragments=200)
        for seed in range(5):
            type(law).maps = 0
            traj = run(cfg, np.random.default_rng(seed))
            assert type(law).maps == len(traj.events)
            events.append(len(traj.events))
    assert min(events) == 0 and max(events) > 3


@pytest.mark.parametrize("law", (SPLIT_64, HOISTED_LAWS[0][0],
                                 BrennanDurrett(2.0, 3.0)),
                         ids=("binary", "ternary", "beta"))
def test_the_step_kernel_maps_a_uniform_only_for_an_event(monkeypatch, law):
    # the kernel drops its log, so its events are counted at dislocate
    law = counting(law)
    calls = []
    monkeypatch.setattr(simulator, "dislocate",
                        lambda *args: calls.append(args) or dislocate(*args))
    kernel = make_step_kernel(law)
    events = []
    for duration in (0.0, 1e-9, 0.5, 3.0):
        for seed in range(5):
            type(law).maps, calls[:] = 0, []
            kernel(duration, np.random.default_rng(seed))
            assert type(law).maps == len(calls)
            events.append(len(calls))
    assert min(events) == 0 and max(events) > 3


class FailsOnMap(DislocationLaw):
    """Splits (0.6, 0.4) at rate 1 until its given map, which raises."""

    def __init__(self, error, fail_at):
        self.error, self.fail_at, self.maps = error, fail_at, 0

    def truncated_mass(self, eps):
        return 1.0

    def sample_dislocation(self, eps, total, u):
        self.maps += 1
        if self.maps == self.fail_at:
            raise self.error("no dislocation to map")
        return (0.6, 0.4)


@pytest.mark.parametrize("error", (EmptyTruncation, DeadState))
def test_a_law_that_raises_as_it_maps_ends_the_path(error):
    # the path takes its remaining snapshots of the state before the
    # failed event and ends, as when next_event raises
    obs = (50.0, 100.0, 100.0)
    for seed in range(5):
        law = FailsOnMap(error, 3)
        traj = run(SimConfig(law, 100.0, obs_times=obs),
                   np.random.default_rng(seed))
        assert len(traj.events) == 2 and law.maps == 3
        state = MassState((1.0,), 0.0, 1.0)
        for ev in traj.events:
            state = dislocate(state, ev.target_rank, ev.fragments)
        assert traj.snapshots == (state,) * 3
        kernel = make_step_kernel(FailsOnMap(error, 3))
        assert kernel(100.0, np.random.default_rng(seed)) == state


def test_run_stops_when_the_truncation_is_empty():
    # BinaryPowerLaw has zero rate above eps = 1/2
    law = BinaryPowerLaw(0.5)
    traj = run(SimConfig(law=law, t_end=1.0, eps=0.6, obs_times=(1.0,)),
               np.random.default_rng(0))
    assert traj.events == () and traj.snapshots[0].parts == (1.0,)
    # the kernel runs at eps = 0, so only a law with no mass empties it
    kernel = make_step_kernel(FiniteAtomic([]))
    assert kernel(5.0, np.random.default_rng(0)).parts == (1.0,)


@pytest.mark.parametrize("law, eps, match", (
    (BinaryPowerLaw(0.5), 0.0, "requires eps > 0"),
    (SPLIT_64, -0.1, ">= 0"),
    (SPLIT_64, math.nan, ">= 0"),  # a NaN eps keeps no atom, so no path splits
    (SPLIT_64, math.inf, "finite"),  # an infinite eps truncates every event
    (BinaryPowerLaw(0.5), math.inf, "finite"),
    (SPLIT_64, "0.1", "finite"),  # not a number
))
def test_step_kernel_follows_the_config_eps_rule(law, eps, match):
    with pytest.raises(ConfigError, match=match):
        SimConfig(law, 1.0, eps=eps)
    if eps == 0.0:
        # the kernel runs at SimConfig's default eps = 0
        with pytest.raises(ConfigError, match=match):
            make_step_kernel(law)


@pytest.mark.parametrize("field, value", (
    ("max_fragments", 0),
    ("max_fragments", -3),
    ("max_fragments", 2.5),  # slicing the parts needs an int
    ("max_fragments", "3"),
    ("mass_floor", math.inf),  # would dust the whole mass
    ("mass_floor", math.nan),  # would dust nothing
    ("mass_floor", -1e-9),
    ("mass_floor", "0.1"),
))
def test_step_kernel_follows_the_config_limits(field, value):
    # the kernel takes its limits from SimConfig's defaults, so this rule
    # is the kernel's too
    with pytest.raises(ConfigError, match=field):
        SimConfig(SPLIT_64, 1.0, **{field: value})


@pytest.mark.parametrize("kwargs, match", (
    (dict(t_end="1"), "t_end"),
    (dict(t_end=None), "t_end"),
    (dict(t_end=1.0, alpha="1"), "alpha"),
    (dict(t_end=1.0, c="0.1"), "erosion rate"),
    (dict(t_end=1.0, eps="0.1"), "eps"),
    (dict(t_end=1.0, initial_mass="1"), "initial_mass"),
    (dict(t_end=np.array([1.0, 2.0])), "t_end"),  # no single truth value
    (dict(t_end=1.0, obs_times=("x",)), "obs_times"),
    (dict(t_end=1.0, obs_times=(None,)), "obs_times"),
    (dict(t_end=1.0, obs_times=1.0), "obs_times"),  # not a sequence
))
def test_config_rejects_fields_that_are_not_numbers(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        SimConfig(SPLIT_64, **kwargs)


@pytest.mark.parametrize("law", [None, 0.5, True, "atomic", (SPLIT_64,)],
                         ids=["None", "float", "bool", "str", "tuple"])
def test_config_needs_a_dislocation_law(law):
    # run read law.truncated_mass and failed with a bare AttributeError
    with pytest.raises(ConfigError, match="must be a DislocationLaw"):
        SimConfig(law, 0.1)


def test_config_still_takes_what_compares_as_a_number():
    cfg = SimConfig(SPLIT_64, np.float64(1.0), alpha=0, c=np.float32(0.5),
                    eps=False, initial_mass=1, obs_times=("0.5", np.int64(1)))
    assert cfg.obs_times == (0.5, 1.0)
    assert run(cfg, np.random.default_rng(0)).snapshots[1].parts


@pytest.mark.parametrize("law, eps", HOISTED_LAWS)
def test_one_config_computes_its_truncated_rate_once(law, eps):
    # the suites run every replica of a leg on one config
    law = counting(law)
    cfg = SimConfig(law=law, t_end=2.0, eps=eps, alpha=1.0)
    events = 0
    for seed in range(50):
        events += len(run(cfg, np.random.default_rng(seed)).events)
    assert type(law).calls == 1 and events > 50
    assert cfg.truncated_rate == law.truncated_mass(eps)
    # the rate is no field: equality, hashing and repr see the fields alone
    twin = SimConfig(law=law, t_end=2.0, eps=eps, alpha=1.0)
    assert cfg == twin and hash(cfg) == hash(twin) and repr(cfg) == repr(twin)
    assert [f.name for f in dataclasses.fields(SimConfig)] == [
        "law", "t_end", "alpha", "c", "eps", "obs_times", "max_fragments",
        "mass_floor", "initial_mass"]


@pytest.mark.parametrize("duration", ("1", None, [1.0]))
def test_step_kernel_rejects_a_duration_that_is_not_a_number(duration):
    kernel = make_step_kernel(SPLIT_64)
    with pytest.raises(ConfigError, match="duration"):
        kernel(duration, np.random.default_rng(0))


@pytest.mark.parametrize("law, floor, events", (
    (SPLIT_64, 0.7, 1),          # both pieces dusted: no fragment left
    (FiniteAtomic([]), 0.0, 0),  # no dislocation to draw at all
), ids=("dead", "frozen"))
@pytest.mark.parametrize("horizon", (3.0, math.inf))
def test_evolve_ends_a_dead_or_frozen_path(law, floor, events, horizon):
    rng = np.random.default_rng(11)
    start = MassState((1.0,), 0.0, 1.0)
    traj, state = _evolve(start, SimConfig(law, 3.0, alpha=1.0, eps=0.0,
                                           obs_times=(1e-9, 2.0),
                                           mass_floor=floor, max_fragments=100),
                          horizon, rng)
    assert len(traj.events) == events and len(traj.snapshots) == 2
    assert state == (MassState((), 1.0, 1.0) if events else start)


@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
def test_mass_biased_target_matches_the_generic_scan(alpha):
    # dyadic masses: at alpha = 1 every cumulative sum (0.5, 0.75, ..., 1)
    # is exact, so u = 0.5 and 0.75 sit on a boundary and u = 1 exhausts
    # the scan and falls back to rank n
    parts = (0.5, 0.25, 0.125, 0.0625, 0.0625)
    state = MassState(parts, 0.0, 1.0)
    for u in (0.0, 0.2, 0.5, 0.6, 0.75, 0.9, 0.99, 1.0):
        wait, target, _ = next_event(state, alpha, 0.0, StubRng(u),
                                     TRUNC_64)
        assert target == reference_target(parts, alpha, u)
        assert wait == 1.0 / fold(m ** alpha for m in parts)
    if alpha == 1.0:
        assert [next_event(state, alpha, 0.0, StubRng(u), TRUNC_64)[1]
                for u in (0.5, 0.75, 1.0)] == [2, 3, 5]


@pytest.mark.parametrize("n", (1, 63, 64, 65, 128, 129, 3300))
@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
def test_block_scan_matches_the_element_loop(n, alpha):
    # next_event searches running sums at every size: a list from
    # accumulate for a tuple, and np.add.accumulate's float64 array for an
    # array('d'), as an array-backed path holds its parts
    parts = dyadic_parts(n)
    rates = [m ** alpha for m in parts]
    total = sum(rates)
    states = [MassState(parts, 0.0, 1.0), MassState(array("d", parts), 0.0, 1.0)]

    def target(u):
        got = {next_event(state, alpha, 0.0, StubRng(u), TRUNC_64)[1]
               for state in states}
        assert got == {reference_target(parts, alpha, u)}
        return got.pop()

    assert target(0.0) == 1
    assert target(1.0) == n  # the running sum never exceeds total
    # a running sum equal to u * total is not crossed (`<` is strict), so
    # u on the sum of the first b ranks picks rank b + 1; a few sums at n =
    # 3300 are no product u * total of floats and are skipped
    bounds = (*range(64, n, 64), *range(63, n, 64), *range(65, n, 64))
    hits = [(b, u) for b in bounds
            if (u := onto(sum(rates[:b]), total)) is not None]
    assert len(hits) >= 0.9 * len(bounds)
    for b, u in hits:
        assert target(u) == b + 1
        target(math.nextafter(u, 0.0))
        target(math.nextafter(u, 1.0))
    for u in np.random.default_rng(n).random(50):
        target(float(u))


def test_block_scan_on_int_and_simulated_parts():
    rng = np.random.default_rng(12)
    # initial_mass = 1 leaves the int 1 among the parts
    mixed = (1,) + tuple(sorted(rng.random(200) * 1e-3, reverse=True))
    dense = run(SimConfig(FiniteAtomic([(1.0, (0.6, 0.4)), (0.5, (0.5, 0.3, 0.2)),
                                        (0.25, (0.9, 0.05))]),
                          300.0, alpha=1.0, obs_times=(300.0,)),
                np.random.default_rng(3))
    parts = dense.snapshots[0].parts
    assert len(parts) > 600
    for state in (MassState(mixed, 0.0, 2.0), MassState(parts, 0.0, 1.0)):
        for alpha in (0.5, 1.0, 2.0):
            for u in (*rng.random(100), 1.0):
                got = next_event(state, alpha, 0.0, StubRng(float(u)),
                                 TRUNC_64)[1]
                assert got == reference_target(state.parts, alpha, float(u))


def test_erosion_and_the_cap_fold_their_totals(monkeypatch):
    # ten rates of a quarter ulp or less of the first: each left-to-right
    # add drops one, a compensated sum keeps them, so the live mass _observe
    # erodes and the spill _trim_to_cap dusts move with sum() unless they
    # are folds
    tiny = 2.0 ** -56
    eroded = MassState((0.5,) + (tiny,) * 10, 0.0, 1.0)
    trimmed = MassState((0.5, 0.25) + (tiny,) * 10, 0.0, 1.0)
    assert compensated_sum(eroded.parts) != fold(eroded.parts)
    assert compensated_sum(trimmed.parts[1:]) != fold(trimmed.parts[1:])

    def states():
        return [_hex(s) for s in (_observe(eroded, 0.5, 1.0),
                                  simulator._trim_to_cap(trimmed, 1))]

    want = states()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert states() == want


def test_sum_adds_left_to_right():
    # a float total in the package is a left-to-right fold, rounded after
    # every add; a compensated sum, as sum() is since CPython 3.12, would
    # move the pinned streams
    assert fold([1e16, 1.0, -1e16]) == 0.0
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    # next_event's running sums are accumulate's for a tuple and
    # np.add.accumulate's for an array('d'): each must be the fold, bit for
    # bit, and so must a fold continued from any prefix's (every cut of the
    # first two vectors)
    vectors = [[1e16, 1.0, -1e16],
               [float(r) for r in np.random.default_rng(4).random(300) ** 9]]
    vectors += [[float(r) for r in rng.random(int(rng.integers(1, 400))) ** 9]
                for rng in map(np.random.default_rng, range(200))]
    for i, x in enumerate(vectors):
        whole, acc, loop = fold(x), 0.0, []
        for r in x:
            acc += r
            loop.append(acc.hex())
        assert loop[-1] == whole.hex()
        assert [s.hex() for s in accumulate(x)] == loop
        assert [float(v).hex()
                for v in np.add.accumulate(array("d", x))] == loop
        for k in range(len(x) + 1) if i < 2 else (0, 1, len(x) // 3, len(x)):
            assert fold(x[k:], fold(x[:k])).hex() == whole.hex()


@pytest.mark.parametrize("alpha, horizon", ((1.0, 300.0), (0.5, 25.0),
                                            (2.0, 20000.0)))
@pytest.mark.parametrize("seed", range(3))
def test_carried_block_sums_keep_the_path(monkeypatch, alpha, horizon, seed):
    # the path sums its rates with np.add.accumulate once its parts are an
    # array, the twin with accumulate on a tuple at every size
    shipped, on_tuples, handed = twin_paths(
        monkeypatch, MassState((1.0,), 0.0, 1.0), THREE_ATOMS, alpha, horizon,
        0.0, 10 ** 6, lambda: np.random.default_rng(seed))
    assert shipped == on_tuples
    assert max(len(s[0]) for s in shipped[1]) > 3 * 64
    # the parts are an array from the first state past 64 parts on
    first = next(i for i, (_, n) in enumerate(handed) if n > 64)
    assert [is_array for is_array, _ in handed] == \
        [False] * first + [True] * (len(handed) - first)


def test_carried_block_sums_under_a_mass_floor(monkeypatch):
    # every piece of a part of 0.0075 falls below the floor, and the 0.25
    # part leaves pieces above it at the front; the state shrinks below 65
    # parts and stays array-backed, its rates summed under np.errstate at
    # alpha = -1
    start = MassState((0.25,) + (0.0075,) * 100, 0.0, 1.0)
    for seed in range(4):
        shipped, on_tuples, handed = twin_paths(
            monkeypatch, start, THREE_ATOMS, -1.0, 1.0, 1e-2, 10 ** 6,
            lambda: np.random.default_rng(seed))
        assert shipped == on_tuples
        assert float.fromhex(shipped[2][1]) > 0.0
        assert all(is_array for is_array, _ in handed)
        assert min(n for _, n in handed) <= 64


def test_carried_block_sums_past_a_cap_that_trims_them(monkeypatch):
    # the first event splits rank 300 of 300 equal parts and the cap trims
    # the array to 100 parts
    start = MassState((2.0 ** -9,) * 300, 0.0, 300 * 2.0 ** -9)
    shipped, on_tuples, handed = twin_paths(
        monkeypatch, start, THREE_ATOMS, 1.0, 80.0, 0.0, 100,
        lambda: Scripted(5, uniforms=(math.nextafter(1.0, 0.0),)))
    assert shipped == on_tuples
    assert handed[:2] == [(True, 300), (True, 100)]
    assert max(n for _, n in handed[1:]) == 100
    events = shipped[0]
    assert events[0][1] == 300 and events[0][4] and len(events) > 20


@pytest.mark.parametrize("alpha", (1.0, 2.0))
def test_carried_block_sums_on_a_block_boundary(monkeypatch, alpha):
    # each u * total is the running sum at rank b exactly, so the target is
    # rank b + 1, whether the running sums are np.add.accumulate's on the
    # array or accumulate's on the tuple twin
    halves = FiniteAtomic([(1.0, (0.5, 0.5))])
    state, uniforms = MassState(dyadic_parts(200), 0.0, 1.0), []
    for b in (192, 128, 128, 64, 0):
        rates = [m ** alpha for m in state.parts]
        u = onto(sum(rates[:b]), sum(rates))
        assert u is not None
        uniforms += [u, 0.5]
        state = dislocate(state, b + 1, (0.5, 0.5))
    shipped, on_tuples, handed = twin_paths(
        monkeypatch, MassState(dyadic_parts(200), 0.0, 1.0), halves, alpha,
        1.0, 0.0, 10 ** 6,
        lambda: Scripted(0, [1e-9] * 5 + [math.inf], uniforms))
    assert shipped == on_tuples
    assert handed == [(True, n) for n in range(200, 206)]
    assert [ev[1] for ev in shipped[0]] == [193, 129, 129, 65, 1]


@pytest.mark.parametrize("law", (SPLIT_64, FiniteAtomic([(1.0, (0.5, 1e-305))])),
                         ids=("sum", "pow"))
def test_carried_block_sums_never_meet_an_overflow(monkeypatch, law):
    # with the parts in an array and no floor at alpha = -1, the rates of
    # shrinking parts overflow in their running sum (0.6, 0.4) or, once a
    # piece of 1e-305 of a part is subnormal, in m ** alpha; both raise
    # RateOverflow with no RuntimeWarning, which the tests make an error
    start = MassState(dyadic_parts(200), 0.0, 1.0)
    handed = watch_kinds(monkeypatch)
    for seed in range(3):
        handed.clear()
        with pytest.raises(RateOverflow):
            _evolve(start, SimConfig(law, 50.0, alpha=-1.0, eps=0.0,
                                     mass_floor=0.0, max_fragments=10 ** 6),
                    50.0, np.random.default_rng(seed))
        assert handed[-1][0]
    with pytest.raises(RateOverflow):
        next_event(MassState(array("d", dyadic_parts(200) + (5e-324,)), 0.0,
                             1.0), -1.0, 0.0, np.random.default_rng(0),
                   law.truncated_mass(0.0))


def test_run_pure_erosion_is_exact():
    cfg = SimConfig(law=FiniteAtomic([]), t_end=1.0, c=1.0,
                    obs_times=(0.0, 0.5, 1.0))
    traj = run(cfg, np.random.default_rng(0))
    assert traj.events == ()
    for t, snap in zip(cfg.obs_times, traj.snapshots):
        assert len(snap.parts) == 1
        assert abs(snap.parts[0] - math.exp(-t)) < 1e-12
        assert abs(snap.parts[0] + snap.dust - 1.0) < 1e-12


def test_run_snapshot_at_zero_is_initial_state():
    cfg = SimConfig(law=SPLIT_64, t_end=1.0, obs_times=(0.0,))
    traj = run(cfg, np.random.default_rng(5))
    assert traj.snapshots[0].parts == (1.0,)
    assert traj.snapshots[0].dust == 0.0


def test_run_first_two_events_enumeration():
    # after the first split the state is (0.6, 0.4); the second split hits
    # either rank with probability 1/2 and the reachable states are exactly
    # (0.4, .36, .24) and (0.6, .24, .16)
    rank1_state = (0.4, 0.6 * 0.6, 0.6 * 0.4)
    rank2_state = (0.6, 0.4 * 0.6, 0.4 * 0.4)
    hits = {1: 0, 2: 0}
    n_paths = 2000
    for i in range(n_paths):
        traj = run(SimConfig(law=SPLIT_64, t_end=2.0),
                   np.random.default_rng(1000 + i))
        if len(traj.events) < 2:
            continue
        assert traj.events[0].target_rank == 1
        state = MassState((1.0,), 0.0, 1.0)
        for ev in traj.events[:2]:
            state = dislocate(state, ev.target_rank, ev.fragments)
        second = traj.events[1].target_rank
        hits[second] += 1
        assert state.parts == (rank1_state if second == 1 else rank2_state)
    m = hits[1] + hits[2]
    assert m > 1000
    assert abs(hits[1] / m - 0.5) < 3 * 0.5 / math.sqrt(m)


def test_run_conserves_mass_at_snapshots():
    # keep the truncated rate small: fragment counts grow like
    # exp(rate * t), so a deep cut would blow the loop up
    grids = (0.25, 0.5, 0.75, 1.0)
    for law, eps in ((SPLIT_64, 0.0), (BinaryPowerLaw(0.5), 0.1)):
        cfg = SimConfig(law=law, t_end=1.0, eps=eps, obs_times=grids)
        traj = run(cfg, np.random.default_rng(7))
        assert len(traj.snapshots) == len(grids)
        for snap in traj.snapshots:
            assert abs(sum(snap.parts) + snap.dust - 1.0) < 1e-9


def test_run_needs_a_generator():
    cfg = SimConfig(law=SPLIT_64, t_end=1.0)
    with pytest.raises(TypeError):
        run(cfg)
    with pytest.raises(TypeError):
        SimConfig(law=SPLIT_64, t_end=1.0, seed=3)


def test_run_is_deterministic_in_seed():
    cfg = SimConfig(law=SPLIT_64, t_end=2.0)
    a, b = run(cfg, np.random.default_rng(99)), run(cfg, np.random.default_rng(99))
    assert a.events == b.events
    other = run(cfg, np.random.default_rng(100))
    assert other.events[0].time != a.events[0].time


def test_run_survival_frequency():
    # chance of no event by t = 0.1 under a unit-rate law
    n = 2000
    alive = sum(
        not run(SimConfig(law=FiniteAtomic([(1.0, (0.9, 0.1))]), t_end=0.1),
                np.random.default_rng(3000 + i)).events
        for i in range(n))
    p = math.exp(-0.1)
    assert abs(alive / n - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_run_traces():
    # both values are read off the event log alone
    events = run(SimConfig(law=SPLIT_64, t_end=5.0),
                 np.random.default_rng(21)).events
    assert len(events) > 5
    traj = Trajectory(obs_times=(), snapshots=(), events=events)
    assert record_value(traj, traj.events[0].time / 2) == 0.0
    # every rank-1 split has second piece 0.4, so the record is 0.4 from
    # the first event on; chi multiplies 0.6 per rank-1/2 event strictly
    # before t, so it is 0.6^k
    k = 0
    for ev in traj.events:
        assert record_value(traj, ev.time) == 0.4
        assert chi_value(traj, ev.time) == pytest.approx(0.6 ** k, rel=1e-12)
        k += ev.target_rank <= 2
    assert chi_value(traj, math.inf) == pytest.approx(0.6 ** k, rel=1e-12)


def _event(time, rank, fragments, capped=False):
    return EventAtom(time, rank, fragments, 1.0, capped)


def test_record_and_chi_lookup():
    traj = Trajectory(obs_times=(), snapshots=(), events=(
        _event(1.0, 1, (0.8, 0.1, 0.1)),
        _event(1.5, 3, (0.5, 0.5)),        # rank 3: ignored by both
        _event(2.0, 1, (0.7, 0.3)),
        _event(2.5, 2, (0.5, 0.45, 0.05)),  # rank 2: chi only
        _event(3.0, 1, (0.9, 0.2)),        # below the record: a running max
    ))
    assert record_value(traj, 0.5) == 0.0
    assert record_value(traj, 1.0) == 0.1
    assert record_value(traj, 1.7) == 0.1
    assert record_value(traj, 2.0) == 0.3
    assert record_value(traj, 2.7) == 0.3
    assert record_value(traj, 9.0) == 0.3
    # chi is a left limit: the product strictly before t, in event order
    assert chi_value(traj, 1.0) == 1.0
    assert chi_value(traj, 1.1) == 0.8
    assert chi_value(traj, 2.0) == 0.8
    assert chi_value(traj, 2.5) == 0.8 * 0.7
    assert chi_value(traj, 3.0) == 0.8 * 0.7 * 0.5
    assert chi_value(traj, 9.0) == 0.8 * 0.7 * 0.5 * 0.9
    assert not traj.cap_hit
    # a one-piece event has second piece 0; its first piece still counts
    lone = Trajectory(obs_times=(), snapshots=(),
                      events=(_event(1.0, 1, (0.7,), capped=True),))
    assert record_value(lone, 2.0) == 0.0
    assert chi_value(lone, 2.0) == 0.7
    assert lone.cap_hit
    empty = Trajectory(obs_times=(), snapshots=(), events=())
    assert record_value(empty, 1.0) == 0.0
    assert chi_value(empty, 1.0) == 1.0


def test_event_atoms_are_immutable():
    ev = EventAtom(0.5, 1, (0.6, 0.4), 1.0)
    assert ev.capped is False
    assert (ev.time, ev.target_rank, ev.fragments, ev.parent_mass) == (
        0.5, 1, (0.6, 0.4), 1.0)
    for field in ("time", "capped"):
        with pytest.raises(AttributeError):
            setattr(ev, field, True)
    capped = EventAtom(0.7, 2, (0.5,), 0.4, True)
    assert not Trajectory((), (), (ev,)).cap_hit
    assert Trajectory((), (), (ev, capped)).cap_hit


def test_fragment_cap_trims_and_flags():
    law = FiniteAtomic([(1.0, (0.5, 0.3, 0.2))])
    cfg = SimConfig(law=law, t_end=5.0, max_fragments=2)
    traj = run(cfg, np.random.default_rng(13))
    assert traj.events
    assert traj.cap_hit
    assert any(ev.capped for ev in traj.events)
    # replay with the cap to confirm the budget survives trimming
    obs = SimConfig(law=law, t_end=5.0, max_fragments=2, obs_times=(5.0,))
    snap = run(obs, np.random.default_rng(13)).snapshots[0]
    assert len(snap.parts) <= 2
    assert abs(sum(snap.parts) + snap.dust - 1.0) < 1e-9


def test_erosion_factorizes_over_the_jump_part():
    plain = SimConfig(law=SPLIT_64, t_end=1.0, c=0.0, obs_times=(0.4, 1.0))
    eroded = SimConfig(law=SPLIT_64, t_end=1.0, c=0.8, obs_times=(0.4, 1.0))
    a = run(plain, np.random.default_rng(17))
    b = run(eroded, np.random.default_rng(17))
    assert a.events == b.events
    for t, sa, sb in zip(plain.obs_times, a.snapshots, b.snapshots):
        factor = math.exp(-0.8 * t)
        assert len(sa.parts) == len(sb.parts)
        for x, y in zip(sa.parts, sb.parts):
            assert abs(y - x * factor) < 1e-12


def test_event_csv_round_trip():
    traj = Trajectory(obs_times=(), snapshots=(),
                      events=(EventAtom(0.25, 1, (0.6, 0.4), 1.0),
                              EventAtom(0.7, 2, (0.5, 0.3, 0.2), 0.4)))
    buf = io.StringIO()
    write_event_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "time,target_rank,parent_mass,s1,s2,s3,s4,s5,s6,s7,s8"
    assert len(lines) == 3
    for line, ev in zip(lines[1:], traj.events):
        fields = line.split(",")
        assert len(fields) == 11
        assert float(fields[0]) == ev.time
        assert int(fields[1]) == ev.target_rank
        assert float(fields[2]) == ev.parent_mass
        padded = (ev.fragments + (0.0,) * 8)[:8]
        assert tuple(float(x) for x in fields[3:]) == padded


def test_snapshot_csv_round_trip():
    traj = Trajectory(obs_times=(0.5,), events=(),
                      snapshots=(MassState((2 / 3, 1 / 3), 1e-17, 1.0),))
    buf = io.StringIO()
    write_snapshot_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    cols = ",".join(f"lambda{i}" for i in range(1, 17))
    assert lines[0] == f"time,{cols},dust"
    fields = lines[1].split(",")
    assert len(fields) == 18
    assert float(fields[0]) == 0.5
    assert float(fields[1]) == 2 / 3
    assert float(fields[2]) == 1 / 3
    assert all(float(x) == 0.0 for x in fields[3:17])
    assert float(fields[17]) == 1e-17


def fmt_reference(x):
    return format(float(x), ".17g")


def event_csv_reference(traj, stream):
    """The per-field event writer the one-template writer replaced."""
    cols = ",".join(f"s{i + 1}" for i in range(8))
    stream.write(f"time,target_rank,parent_mass,{cols}\n")
    for ev in traj.events:
        padded = (ev.fragments + (0.0,) * 8)[:8]
        row = [fmt_reference(ev.time), str(ev.target_rank),
               fmt_reference(ev.parent_mass)]
        row += [fmt_reference(x) for x in padded]
        stream.write(",".join(row) + "\n")


def snapshot_csv_reference(traj, stream):
    """The per-field snapshot writer the one-template writer replaced."""
    cols = ",".join(f"lambda{i + 1}" for i in range(16))
    stream.write(f"time,{cols},dust\n")
    for t, snap in zip(traj.obs_times, traj.snapshots):
        padded = (snap.parts + (0.0,) * 16)[:16]
        row = ([fmt_reference(t)] + [fmt_reference(x) for x in padded]
               + [fmt_reference(snap.dust)])
        stream.write(",".join(row) + "\n")


def csv_pair(writer, reference, traj):
    new, old = io.StringIO(), io.StringIO()
    writer(traj, new)
    reference(traj, old)
    return new.getvalue(), old.getvalue()


def test_csv_writers_match_the_per_field_reference():
    odd = (math.inf, -0.0, 5e-324, 2 ** 60, 1, 0.1, 1 / 3, 1e300, 0.0)
    handmade = Trajectory(
        obs_times=(0.0, 0.5, 2 ** 60, 1),
        snapshots=(MassState((1,), 0.0, 1), MassState(odd[1:], 5e-324, 1.0),
                   MassState(tuple(2.0 ** -k for k in range(1, 20)), 1e-17, 1.0),
                   MassState((), 1.0, 1.0)),
        events=tuple(EventAtom(0.25 * k, k + 1, odd[:k], 1 / (k + 1))
                     for k in (0, 2, 3, 8, 9)))
    laws = (SPLIT_64, FiniteAtomic([(1.0, (0.5, 0.3, 0.2)),
                                    (0.5, tuple([0.1] * 10))]))
    paths = [handmade,
             run(SimConfig(FiniteAtomic([]), 1.0, obs_times=(0.0, 1.0)),
                 np.random.default_rng(0)),
             run(SimConfig(SPLIT_64, 3.0, initial_mass=1, obs_times=(0.0, 0.3, 3.0)),
                 np.random.default_rng(3))]
    paths += [run(SimConfig(law, 4.0, alpha=1.0, obs_times=(1.0, 4.0)),
                  np.random.default_rng(5))
              for law in laws]
    assert paths[1].events == () and paths[2].events[0].parent_mass == 1
    assert max(len(s.parts) for p in paths for s in p.snapshots) > 16
    for traj in paths:
        new, old = csv_pair(write_event_csv, event_csv_reference, traj)
        assert new == old
        new, old = csv_pair(write_snapshot_csv, snapshot_csv_reference, traj)
        assert new == old


def event_csv_padded(traj, stream):
    """The event writer that padded every vector with 0.0 and formatted it."""
    cols = ",".join(f"s{i + 1}" for i in range(8))
    stream.write(f"time,target_rank,parent_mass,{cols}\n")
    row = "%.17g,%d,%.17g" + ",%.17g" * 8 + "\n"
    for ev in traj.events:
        stream.write(row % ((ev.time, ev.target_rank, ev.parent_mass)
                            + (ev.fragments + (0.0,) * 8)[:8]))


def snapshot_csv_padded(traj, stream):
    """The snapshot writer that padded every state with 0.0 and formatted it."""
    cols = ",".join(f"lambda{i + 1}" for i in range(16))
    stream.write(f"time,{cols},dust\n")
    row = "%.17g" + ",%.17g" * 17 + "\n"
    for t, snap in zip(traj.obs_times, traj.snapshots):
        stream.write(row % ((t,) + (snap.parts + (0.0,) * 16)[:16]
                            + (snap.dust,)))


def test_csv_writers_match_the_padded_format():
    odd = (1, 0.5, -0.0, 5e-324, 0.0, 1 / 3, 2 ** 60, 1e-300, 0.25)
    sizes = (0, 16, 17)
    traj = Trajectory(
        obs_times=tuple(0.5 * k for k in sizes),
        snapshots=tuple(MassState(tuple(2.0 ** -j for j in range(1, k + 1)),
                                  5e-324 if k else -0.0, 1.0) for k in sizes),
        events=tuple(EventAtom(0.1 * k, k + 1, odd[:k], 1 / (k + 1))
                     for k in range(10)))
    assert [len(ev.fragments) for ev in traj.events] == list(range(10))
    for writer, padded in ((write_event_csv, event_csv_padded),
                           (write_snapshot_csv, snapshot_csv_padded)):
        new, old = csv_pair(writer, padded, traj)
        assert new == old


@pytest.mark.parametrize("law, duration", [
    (SPLIT_64, 3.0),
    (FiniteAtomic([(1.0, (0.5, 0.3, 0.2))]), 3.0),
    (BrennanDurrett(2.0, 3.0), 2.0),
], ids=("binary", "ternary", "beta"))
def test_step_kernel_is_run_to_the_duration(law, duration):
    kernel = make_step_kernel(law)
    cfg = SimConfig(law, duration, obs_times=(duration,))
    events = 0
    for seed in range(8):
        traj = run(cfg, np.random.default_rng(seed))
        assert kernel(duration, np.random.default_rng(seed)) == traj.snapshots[0]
        events += len(traj.events)
    assert events > 8


@pytest.mark.parametrize("duration", (math.nan, math.inf, -1.0, -0.5))
@pytest.mark.parametrize("law, floor", ((SPLIT_64, 0.0), (SPLIT_64, 0.1),
                                        (FiniteAtomic([]), 0.0)),
                         ids=("capped", "floored", "frozen"))
def test_step_kernel_rejects_a_bad_duration(duration, law, floor):
    kernel = make_step_kernel(law)
    with pytest.raises(ConfigError, match="duration"):
        kernel(duration, np.random.default_rng(0))
    # the kernel's duration rule is SimConfig's t_end rule, whatever its limits
    with pytest.raises(ConfigError, match="t_end"):
        SimConfig(law, duration, mass_floor=floor, max_fragments=1000)


def test_make_step_kernel():
    rng = np.random.default_rng(23)
    frozen = make_step_kernel(FiniteAtomic([]))
    out = frozen(5.0, rng)
    assert out.parts == (1.0,)

    kernel = make_step_kernel(SPLIT_64)
    out = kernel(2.0, rng)
    assert out.nominal == 1.0
    assert abs(sum(out.parts) + out.dust - 1.0) < 1e-9
    assert all(a >= b for a, b in zip(out.parts, out.parts[1:]))

    # zero duration: the unit fragment is returned whole
    assert kernel(0.0, rng).parts == (1.0,)


def _replay(traj, start, mass_floor, cap, c):
    """Rebuild a path's snapshots and end state from its event log alone.

    Each event goes through dislocate; a capped one then moves the parts
    beyond the cap to dust. Snapshots are cadlag: an event at an
    observation time is inside that snapshot.
    """
    state, k, snaps = start, 0, []
    events = traj.events
    for u in traj.obs_times + (math.inf,):
        while k < len(events) and events[k].time <= u:
            ev = events[k]
            assert ev.parent_mass == state.parts[ev.target_rank - 1]
            state = dislocate(state, ev.target_rank, ev.fragments, mass_floor)
            assert ev.capped == (len(state.parts) > cap)
            if ev.capped:
                state = MassState(state.parts[:cap],
                                  state.dust + sum(state.parts[cap:]),
                                  state.nominal)
            k += 1
        if u < math.inf:
            snaps.append(_observe(state, c, u))
    return snaps, state


THREE_ATOMS = HOISTED_LAWS[0][0]

# (law, eps, alpha, c, mass_floor, max_fragments, t_end, paths)
REPLAYS = [
    *[(THREE_ATOMS, 0.0, alpha, 0.0, 0.0, 10 ** 6, 2.0, 12)
      for alpha in (0.0, 0.5, 1.0)],
    *[(BinaryPowerLaw(0.5), 0.1, alpha, 0.0, 0.05, 10 ** 6, 1.5, 12)
      for alpha in (0.0, 0.5, 1.0)],
    (BrennanDurrett(2.0, 3.0), 0.1, 0.0, 0.0, 0.0, 10 ** 6, 2.0, 2),
    (BrennanDurrett(2.0, 3.0), 0.1, 1.0, 0.0, 0.05, 10 ** 6, 2.0, 2),
    (FiniteAtomic([(1.0, (0.5, 0.3, 0.2))]), 0.0, 0.5, 0.0, 0.0, 3, 6.0, 8),
    (SPLIT_64, 0.0, 0.0, 0.7, 0.0, 10 ** 6, 3.0, 8),
]


@pytest.mark.parametrize(
    "law, eps, alpha, c, floor, cap, t_end, paths", REPLAYS,
    ids=[f"{type(r[0]).__name__}-a{r[2]}-c{r[3]}-floor{r[4]}-cap{r[5]}"
         for r in REPLAYS])
def test_event_log_replays_to_the_snapshots(law, eps, alpha, c, floor, cap,
                                             t_end, paths):
    obs = (0.0, t_end / 4, t_end / 2, t_end)
    events = cap_hits = 0
    for seed in range(paths):
        start = MassState((0.75,), 0.0, 0.75) if seed % 2 else \
            MassState((1.0,), 0.0, 1.0)
        traj, end = _evolve(start, SimConfig(
            law, t_end, alpha=alpha, c=c, eps=eps, obs_times=obs,
            mass_floor=floor, max_fragments=cap), t_end,
            np.random.default_rng(seed))
        snaps, replayed = _replay(traj, start, floor, cap, c)
        assert [_hex(s) for s in snaps] == [_hex(s) for s in traj.snapshots]
        assert _hex(replayed) == _hex(end)
        events += len(traj.events)
        cap_hits += traj.cap_hit
    assert events >= paths
    assert (cap_hits > 0) == (cap == 3)


@pytest.mark.parametrize(
    "law, eps, alpha, c, floor, cap, t_end, paths", REPLAYS,
    ids=[f"{type(r[0]).__name__}-a{r[2]}-c{r[3]}-floor{r[4]}-cap{r[5]}"
         for r in REPLAYS])
def test_a_list_backed_start_keeps_the_path(law, eps, alpha, c, floor, cap,
                                            t_end, paths):
    # run and the step kernel start from a list; every snapshot holds a
    # tuple, and a tuple start and a list start give the same path
    obs = (0.0, t_end / 4, t_end / 2, t_end)
    for seed in range(paths):
        mass = 0.75 if seed % 2 else 1.0
        hexed = []
        for kind in (tuple, list):
            traj, end = _evolve(MassState(kind([mass]), 0.0, mass), SimConfig(
                law, t_end, alpha=alpha, c=c, eps=eps, obs_times=obs,
                mass_floor=floor, max_fragments=cap), t_end,
                np.random.default_rng(seed))
            assert [type(s.parts) for s in traj.snapshots] == [tuple] * 4
            hexed.append(_path_hex(traj, end))
        assert hexed[0] == hexed[1]


@pytest.mark.parametrize("alpha, c", ((0.0, 0.0), (0.0, 0.5), (1.0, 0.0)))
def test_run_and_the_step_kernel_hand_out_tuples(alpha, c):
    law = FiniteAtomic([(1.0, (0.5, 0.3, 0.2))])
    kernel = make_step_kernel(law)
    cap_hits = 0
    for cap in (3, 10 ** 6):
        cfg = SimConfig(law, 3.0, alpha=alpha, c=c, obs_times=(0.0, 1.0, 3.0),
                        max_fragments=cap)
        for seed in range(4):
            traj = run(cfg, np.random.default_rng(seed))
            assert [type(s.parts) for s in traj.snapshots] == [tuple] * 3
            cap_hits += traj.cap_hit
    for seed in range(4):
        for duration in (0.0, 1.0, 3.0):
            state = kernel(duration, np.random.default_rng(seed))
            assert type(state.parts) is tuple
    assert cap_hits > 0


@pytest.mark.parametrize("path", ("run", "kernel"))
def test_the_loop_holds_a_tuple_up_to_64_parts_and_an_array_past(
        monkeypatch, path):
    # halves add one part an event and dust nothing, so the state grows
    # through 64 parts to past 65 and never shrinks back
    halves = FiniteAtomic([(1.0, (0.5, 0.5))])
    seen = []

    def watched(state, *args):
        seen.append((len(state.parts), type(state.parts)))
        return dislocate(state, *args)

    monkeypatch.setattr(simulator, "dislocate", watched)
    rng = np.random.default_rng(3)
    if path == "run":
        run(SimConfig(halves, 6.0, obs_times=(3.0, 6.0)), rng)
    else:
        make_step_kernel(halves)(6.0, rng)
    assert [n for n, _ in seen] == list(range(1, len(seen) + 1))
    assert len(seen) > 70
    assert [kind for _, kind in seen] == \
        [tuple] * 64 + [array] * (len(seen) - 64)


class OneVector(DislocationLaw):
    """One dislocation of rate 1, returned as the object it was given."""

    def __init__(self, vector):
        self.vector = vector

    def truncated_mass(self, eps):
        return 1.0

    def sample_dislocation(self, eps, total, u):
        return self.vector


@pytest.mark.parametrize("vector", ([0.6, 0.4, 0.0], np.array([0.6, 0.4, 0.0])),
                         ids=("list", "ndarray"))
def test_csv_writers_take_a_law_vector_of_any_kind(vector):
    # the event log keeps the law's own vector; '%.17g' % 0.0 is '0', the
    # literal padding, so the trailing zero writes what padding would
    written = []
    for law in (OneVector((0.6, 0.4)), OneVector(vector)):
        traj = run(SimConfig(law, 2.0, obs_times=(1.0, 2.0)),
                   np.random.default_rng(1))
        stream = io.StringIO()
        write_event_csv(traj, stream)
        write_snapshot_csv(traj, stream)
        written.append((len(traj.events), stream.getvalue()))
    assert written[0] == written[1] and written[0][0] > 1


def test_records_are_immutable_named_tuples():
    state = MassState((0.6, 0.4), 0.0, 1.0)
    traj = Trajectory((1.0,), (state,), ())
    assert MassState._fields == ("parts", "dust", "nominal")
    assert Trajectory._fields == ("obs_times", "snapshots", "events")
    assert (state.parts, state.dust, state.nominal) == ((0.6, 0.4), 0.0, 1.0)
    assert (traj.obs_times, traj.snapshots, traj.events) == ((1.0,), (state,),
                                                             ())
    for record, field in ((state, "parts"), (state, "dust"),
                          (traj, "events"), (traj, "snapshots")):
        with pytest.raises(AttributeError):
            setattr(record, field, ())
    with pytest.raises(AttributeError):
        state.extra = 1.0
    assert not traj.cap_hit


def record_by_max(traj, t):
    """record_value as a max over a generator: the form it replaced."""
    return max((ev.fragments[1] if len(ev.fragments) > 1 else 0.0
                for ev in traj.events if ev.target_rank == 1 and ev.time <= t),
               default=0.0)


def test_record_value_keeps_max_semantics():
    hand = [
        (),                                          # no event at all
        (_event(1.0, 2, (0.5, 0.5)),),               # no rank-1 event
        (_event(1.0, 1, (0.7,)),),                   # one piece: 0.0
        (_event(1.0, 1, (0.7, -0.0)),),              # -0.0 is the max
        (_event(1.0, 1, (0.7, -0.0)), _event(1.5, 1, (0.8, 0.0))),
        (_event(1.0, 1, (0.8, 0.0)), _event(1.5, 1, (0.7, -0.0))),
        (_event(1.0, 1, (0.7,)), _event(1.5, 1, (0.6, -0.0))),
        (_event(1.0, 1, (0.9, -0.0)), _event(1.2, 1, (0.6,))),
        (_event(1.0, 1, (0.6, 1)), _event(1.5, 1, (0.6, 1.0))),  # tie: first
        (_event(1.0, 1, (0.6, 1.0)), _event(1.5, 1, (0.6, 1))),
        (_event(1.0, 1, (0.6, 0.3)), _event(2.0, 1, (0.5, 0.4)),
         _event(3.0, 1, (0.5, 0.45))),               # later events after t
        (_event(3.0, 1, (0.5, 0.45)), _event(1.0, 1, (0.6, 0.3))),  # unsorted
        (_event(1.0, 3, (0.5, 0.5)), _event(2.0, 1, (0.5, 0.2, 0.2)),
         _event(2.0, 2, (0.5, 0.45))),
    ]
    for events in hand:
        traj = Trajectory((), (), events)
        for t in (0.0, 1.0, 1.2, 1.7, 2.0, 2.5, 3.0, math.inf):
            got, want = record_value(traj, t), record_by_max(traj, t)
            assert (type(got), repr(got)) == (type(want), repr(want)), (
                events, t)
