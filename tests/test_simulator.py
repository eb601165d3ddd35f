"""Event-driven simulator: scheduling law, conservation, traces, CSV output."""

import io
import math

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
from fragsim.errors import ConfigError, DeadState, EmptyTruncation

SPLIT_64 = FiniteAtomic([(1.0, (0.6, 0.4))])


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
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            SimConfig(law=SPLIT_64, **kwargs)
    with pytest.raises(ConfigError):
        SimConfig(law=BinaryPowerLaw(0.5), t_end=1.0, eps=0.0)


def test_next_event_waiting_time_and_target():
    rng = np.random.default_rng(0)
    state = MassState((1.0,), 0.0, 1.0)
    n = 20000
    waits = [next_event(state, SPLIT_64, 0.0, 0.0, rng)[0] for _ in range(n)]
    # unit rate: one fragment times unit truncated mass
    assert abs(np.mean(waits) - 1.0) < 3.0 / math.sqrt(n)

    state = MassState((0.6, 0.4), 0.0, 1.0)
    targets = [next_event(state, SPLIT_64, 0.0, 0.0, rng)[1] for _ in range(n)]
    # homogeneous case: the target is uniform, whatever the masses
    assert abs(np.mean([t == 1 for t in targets]) - 0.5) < 3 * 0.5 / math.sqrt(n)
    assert set(targets) == {1, 2}


def test_next_event_mass_biased_target():
    rng = np.random.default_rng(1)
    state = MassState((0.6, 0.4), 0.0, 1.0)
    n = 20000
    picks = [next_event(state, SPLIT_64, 1.0, 0.0, rng)[1] for _ in range(n)]
    # alpha = 1 weights each fragment by its mass
    assert abs(np.mean([t == 1 for t in picks]) - 0.6) < 3 * 0.5 / math.sqrt(n)
    waits = [next_event(state, SPLIT_64, 1.0, 0.0, rng)[0] for _ in range(n)]
    assert abs(np.mean(waits) - 1.0) < 3.0 / math.sqrt(n)


def test_next_event_degenerate_states():
    rng = np.random.default_rng(2)
    with pytest.raises(DeadState):
        next_event(MassState((), 1.0, 1.0), SPLIT_64, 0.0, 0.0, rng)
    with pytest.raises(EmptyTruncation):
        next_event(MassState((1.0,), 0.0, 1.0), BinaryPowerLaw(0.5), 0.0, 0.6, rng)
    with pytest.raises(EmptyTruncation):
        next_event(MassState((1.0,), 0.0, 1.0), FiniteAtomic([]), 0.0, 0.0, rng)


# one law per family, each at a truncation level where it has events
HOISTED_LAWS = (
    (FiniteAtomic([(1.0, (0.6, 0.4)), (0.5, (0.5, 0.3, 0.2)),
                   (0.25, (0.9, 0.05))]), 0.0),
    (BinaryPowerLaw(0.5), 0.05),
    (BrennanDurrett(2.0, 3.0), 0.1),
)


def counting(law):
    """A copy of law whose class counts its truncated_mass calls."""
    base = type(law)

    class Counting(base):
        calls = 0

        def truncated_mass(self, eps):
            type(self).calls += 1
            return base.truncated_mass(self, eps)

    twin = Counting.__new__(Counting)
    twin.__dict__.update(law.__dict__)
    return twin


@pytest.mark.parametrize("law, eps", HOISTED_LAWS)
@pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0))
def test_next_event_precomputed_rate_keeps_the_stream(law, eps, alpha):
    state = MassState((0.5, 0.3, 0.15, 0.05), 0.0, 1.0)
    given, default = np.random.default_rng(31), np.random.default_rng(31)
    trunc = law.truncated_mass(eps)
    for _ in range(50):
        a = next_event(state, law, alpha, eps, given, trunc=trunc)
        b = next_event(state, law, alpha, eps, default)
        assert a == b


@pytest.mark.parametrize("law, eps", HOISTED_LAWS)
def test_run_computes_the_truncated_rate_once(law, eps):
    law = counting(law)
    for t_end in (0.5, 20.0):
        type(law).calls = 0
        traj = run(SimConfig(law=law, t_end=t_end, eps=eps, alpha=1.0,
                             max_fragments=200, seed=41))
        assert type(law).calls == 1
    assert len(traj.events) > 3
    type(law).calls = 0
    kernel = make_step_kernel(law, alpha=1.0, eps=eps, max_fragments=200)
    rng = np.random.default_rng(43)
    assert len(kernel(1.0, 20.0, rng).parts) > 3
    kernel(0.5, 1.0, rng)
    assert type(law).calls == 1


def test_run_stops_when_the_truncation_is_empty():
    # BinaryPowerLaw has zero rate above eps = 1/2 and raises at eps = 0
    law = BinaryPowerLaw(0.5)
    traj = run(SimConfig(law=law, t_end=1.0, eps=0.6, obs_times=(1.0,)))
    assert traj.events == () and traj.snapshots[0].parts == (1.0,)
    kernel = make_step_kernel(law, eps=0.0)
    assert kernel(1.0, 5.0, np.random.default_rng(0)).parts == (1.0,)


class StubRng:
    """Exponential waits equal their scale and uniforms are fixed at u."""

    def __init__(self, u):
        self.u = u

    def exponential(self, scale):
        return scale

    def random(self):
        return self.u


def reference_target(parts, alpha, u):
    """Rank whose cumulative m**alpha first exceeds u * total; else the last."""
    rates = [m ** alpha for m in parts]
    acc, cut = 0.0, u * sum(rates)
    for i, r in enumerate(rates):
        acc += r
        if cut < acc:
            return i + 1
    return len(parts)


@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
def test_mass_biased_target_matches_the_generic_scan(alpha):
    # dyadic masses: at alpha = 1 every cumulative sum (0.5, 0.75, ..., 1)
    # is exact, so u = 0.5 and 0.75 sit on a boundary and u = 1 exhausts
    # the scan and falls back to rank n
    parts = (0.5, 0.25, 0.125, 0.0625, 0.0625)
    state = MassState(parts, 0.0, 1.0)
    for u in (0.0, 0.2, 0.5, 0.6, 0.75, 0.9, 0.99, 1.0):
        wait, target, _ = next_event(state, SPLIT_64, alpha, 0.0, StubRng(u))
        assert target == reference_target(parts, alpha, u)
        assert wait == 1.0 / sum(m ** alpha for m in parts)
    if alpha == 1.0:
        assert [next_event(state, SPLIT_64, alpha, 0.0, StubRng(u))[1]
                for u in (0.5, 0.75, 1.0)] == [2, 3, 5]


def test_run_pure_erosion_is_exact():
    cfg = SimConfig(law=FiniteAtomic([]), t_end=1.0, c=1.0,
                    obs_times=(0.0, 0.5, 1.0))
    traj = run(cfg)
    assert traj.events == ()
    for t, snap in zip(cfg.obs_times, traj.snapshots):
        assert len(snap.parts) == 1
        assert abs(snap.parts[0] - math.exp(-t)) < 1e-12
        assert abs(snap.parts[0] + snap.dust - 1.0) < 1e-12


def test_run_snapshot_at_zero_is_initial_state():
    cfg = SimConfig(law=SPLIT_64, t_end=1.0, obs_times=(0.0,), seed=5)
    traj = run(cfg)
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
        traj = run(SimConfig(law=SPLIT_64, t_end=2.0, seed=1000 + i))
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
        cfg = SimConfig(law=law, t_end=1.0, eps=eps, obs_times=grids, seed=7)
        traj = run(cfg)
        assert len(traj.snapshots) == len(grids)
        for snap in traj.snapshots:
            assert abs(sum(snap.parts) + snap.dust - 1.0) < 1e-9


def test_run_is_deterministic_in_seed():
    cfg = SimConfig(law=SPLIT_64, t_end=2.0, seed=99)
    a, b = run(cfg), run(cfg)
    assert a.events == b.events
    other = run(SimConfig(law=SPLIT_64, t_end=2.0, seed=100))
    assert other.events[0].time != a.events[0].time


def test_run_survival_frequency():
    # chance of no event by t = 0.1 under a unit-rate law
    n = 2000
    alive = sum(
        not run(SimConfig(law=FiniteAtomic([(1.0, (0.9, 0.1))]), t_end=0.1,
                          seed=3000 + i)).events
        for i in range(n))
    p = math.exp(-0.1)
    assert abs(alive / n - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_run_traces():
    # both values are read off the event log alone
    events = run(SimConfig(law=SPLIT_64, t_end=5.0, seed=21)).events
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


def test_fragment_cap_trims_and_flags():
    law = FiniteAtomic([(1.0, (0.5, 0.3, 0.2))])
    cfg = SimConfig(law=law, t_end=5.0, max_fragments=2, seed=13)
    traj = run(cfg)
    assert traj.events
    assert traj.cap_hit
    assert any(ev.capped for ev in traj.events)
    # replay with the cap to confirm the budget survives trimming
    obs = SimConfig(law=law, t_end=5.0, max_fragments=2, seed=13,
                    obs_times=(5.0,))
    snap = run(obs).snapshots[0]
    assert len(snap.parts) <= 2
    assert abs(sum(snap.parts) + snap.dust - 1.0) < 1e-9


def test_erosion_factorizes_over_the_jump_part():
    plain = SimConfig(law=SPLIT_64, t_end=1.0, c=0.0, obs_times=(0.4, 1.0), seed=17)
    eroded = SimConfig(law=SPLIT_64, t_end=1.0, c=0.8, obs_times=(0.4, 1.0), seed=17)
    a, b = run(plain), run(eroded)
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


@pytest.mark.parametrize("law, alpha, eps, floor, cap, duration", [
    (SPLIT_64, 0.0, 0.0, 0.0, 10 ** 6, 3.0),
    (SPLIT_64, 1.0, 0.0, 0.0, 10 ** 6, 3.0),
    (BinaryPowerLaw(0.5), 0.0, 0.05, 1e-12, 10 ** 6, 1.0),
    (FiniteAtomic([(1.0, (0.5, 0.3, 0.2))]), 0.0, 0.0, 0.0, 2, 3.0),
])
def test_step_kernel_is_run_to_the_scaled_horizon(law, alpha, eps, floor, cap,
                                                  duration):
    mass = 0.5
    kernel = make_step_kernel(law, alpha, eps, floor, cap)
    h = duration * mass ** alpha
    cfg = SimConfig(law, h, alpha=alpha, eps=eps, obs_times=(h,),
                    mass_floor=floor, max_fragments=cap)
    events = cap_hits = 0
    for seed in range(8):
        traj = run(cfg, np.random.default_rng(seed))
        assert kernel(mass, duration, np.random.default_rng(seed)) == traj.snapshots[0]
        events += len(traj.events)
        cap_hits += traj.cap_hit
    assert events > 8
    assert (cap_hits > 0) == (cap == 2)


def test_make_step_kernel():
    rng = np.random.default_rng(23)
    frozen = make_step_kernel(FiniteAtomic([]))
    out = frozen(1.0, 5.0, rng)
    assert out.parts == (1.0,)

    kernel = make_step_kernel(SPLIT_64)
    out = kernel(0.5, 2.0, rng)
    assert out.nominal == 1.0
    assert abs(sum(out.parts) + out.dust - 1.0) < 1e-9
    assert all(a >= b for a, b in zip(out.parts, out.parts[1:]))

    # alpha scaling: zero horizon at zero duration, whatever the mass
    assert kernel(0.8, 0.0, rng).parts == (1.0,)
