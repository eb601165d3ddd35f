"""Event-driven simulation of ranked fragmentation paths.

The driver realizes the dislocation stream as a marked Poisson process on
the epsilon-truncated law: the truncation gives the law finite total mass,
so exponential clocks can be regenerated after every jump (next-event
scheduling) without approximation. Erosion never enters the event loop; it
is applied as an exact multiplicative factor when a snapshot is taken,
which is legitimate only because erosion is restricted to index zero,
where jump rates do not depend on fragment masses.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    ConfigError,
    DeadState,
    EmptyTruncation,
    RateOverflow,
    check_range,
)
from .ranked_state import MassState, dislocate
from .rng import exponential_rank_and_uniform

CSV_EVENT_COLS = 8
CSV_SNAPSHOT_COLS = 16
_SCAN_BLOCK = 64  # rates summed per step of next_event's target walk


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run.

    obs_times must be non-decreasing and lie in [0, t_end]. eps is the
    truncation level on {1 - s1 >= eps}; it must be positive when the law
    has infinite activity. Positive erosion demands alpha = 0 because the
    analytic erosion factor commutes with the jump dynamics only when jump
    rates are mass-independent.
    """

    law: object
    t_end: float
    alpha: float = 0.0
    c: float = 0.0
    eps: float = 0.0
    obs_times: tuple = ()
    max_fragments: int = 10 ** 6
    mass_floor: float = 0.0
    initial_mass: float = 1.0

    def __post_init__(self):
        try:
            obs_times = tuple(float(t) for t in self.obs_times)
        except (TypeError, ValueError):
            raise ConfigError(f"obs_times {self.obs_times!r} must be a "
                              f"sequence of numbers") from None
        object.__setattr__(self, "obs_times", obs_times)
        check_range(self.t_end, lambda t: 0.0 <= t < math.inf,
                    "t_end {!r} must be finite and >= 0")
        check_range(self.initial_mass, lambda m: 0.0 < m <= 1.0,
                    "initial_mass {!r} outside (0, 1]")
        check_range(self.c, lambda c: 0.0 <= c < math.inf,
                    "erosion rate {!r} must be finite and >= 0")
        check_range(self.alpha, lambda a: -math.inf < a < math.inf,
                    "alpha {!r} must be finite")
        if self.c > 0.0 and self.alpha != 0.0:
            raise ConfigError(
                "erosion with a nonzero self-similarity index is not supported; "
                "set alpha = 0 or c = 0")
        _check_eps(self.law, self.eps)
        _check_limits(self.mass_floor, self.max_fragments)
        prev = 0.0
        for t in self.obs_times:
            # NaN fails both bounds, so a NaN time is rejected here too
            if not prev <= t <= self.t_end:
                raise ConfigError(
                    f"observation time {t} outside [{prev}, {self.t_end}]: "
                    f"obs_times must be non-decreasing in [0, t_end]")
            prev = t


def _check_eps(law, eps):
    """Reject a truncation level no event loop can run at.

    An infinite eps would truncate every dislocation away, so a path
    would run with no event at all.
    """
    check_range(eps, lambda e: 0.0 <= e < math.inf,
                "eps {!r} must be finite and >= 0")
    if eps == 0.0 and getattr(law, "infinite_activity", False):
        raise ConfigError("an infinite-activity law requires eps > 0")


def _check_limits(mass_floor, max_fragments):
    """Reject a mass floor or fragment cap the event loop cannot honour.

    A cap below 1 or an infinite floor would dust the whole mass, a NaN
    floor would dust nothing, and a cap that is not an int cannot slice
    the parts.
    """
    if not (isinstance(max_fragments, numbers.Integral) and max_fragments >= 1):
        raise ConfigError(f"max_fragments {max_fragments!r} must be an int >= 1")
    if not (isinstance(mass_floor, numbers.Real) and 0.0 <= mass_floor < math.inf):
        raise ConfigError(f"mass_floor {mass_floor!r} must be finite and >= 0")


class EventAtom(NamedTuple):
    """One dislocation event: which rank split, into what, from what mass."""

    time: float
    target_rank: int
    fragments: tuple  # relative masses of the pieces, non-increasing
    parent_mass: float
    capped: bool = False  # set when the fragment cap trimmed this event's output


class Trajectory(NamedTuple):
    """One simulated path: snapshots and event log.

    snapshots[i] is the state at obs_times[i] with erosion applied. Every
    other view of the path (record_value, chi_value, cap_hit) is read off
    the event log.
    """

    obs_times: tuple
    snapshots: tuple
    events: tuple

    @property
    def cap_hit(self):
        """Whether the fragment cap trimmed the output of any event."""
        return any(ev.capped for ev in self.events)


def next_event(state, law, alpha, eps, rng, trunc):
    """Draw (waiting time, target rank, relative fragment vector).

    Each fragment carries an exponential clock of rate mass**alpha times
    the truncated total mass; the winner is the target. Draw order is
    fixed (wait, target, the law's one uniform) so that paths are
    reproducible. The wait is scale * standard_exponential(), the very
    product numpy's exponential(scale) returns for a scalar, without its
    check of scale. At alpha = 0 with n > 1 parts all three come from one
    call, exponential_rank_and_uniform(rng, n), bit for bit the draws of
    standard_exponential(), int(rng.integers(1, n + 1)) and random()
    (pinned in tests/test_rng.py); the law is given the uniform as u and
    draws none. A single fragment is the target without a draw; numpy
    draws nothing for a one-value range, so the stream is the same either
    way, and the law draws its own uniform.

    For alpha != 0 the target is the first rank whose running sum of
    rates exceeds u * total. The scan first walks blocks of _SCAN_BLOCK
    rates with sum(block, acc) and then steps through the one block that
    crosses u. This gives the element loop's target bit for bit: CPython
    3.11's sum with a float start adds left to right in one C double, so
    sum(block, acc) is the running sum at the block's end, and rates are
    non-negative, so running sums never decrease.

    trunc is law.truncated_mass(eps). It is fixed for a whole run, so the
    caller computes it once; it is forwarded to law.sample_dislocation as
    total.

    Raises RateOverflow when the mass-biased total rate is not finite, as
    when fragments shrink toward 0 at alpha < 0 with no mass floor, and
    DeadState, before any draw, when it underflows to 0, as every m**alpha
    does at a large alpha.
    """
    n = len(state.parts)
    if n == 0:
        raise DeadState("no fragments left to dislocate")
    if trunc <= 0.0:
        raise EmptyTruncation(f"truncated law has zero mass at eps={eps}")
    if alpha == 0.0:
        if n > 1:
            e, target, v = exponential_rank_and_uniform(rng, n)
        else:
            e, target, v = rng.standard_exponential(), 1, None
        wait = 1.0 / (n * trunc) * e
    else:
        # m ** 1.0 == m exactly, so alpha = 1 skips the per-fragment pow
        try:
            rates = state.parts if alpha == 1.0 else [m ** alpha for m in state.parts]
        except OverflowError:
            rates = (math.inf,)
        total = sum(rates)
        if not total < math.inf:
            raise RateOverflow(
                f"mass-biased rates overflow at alpha={alpha}: fragments are "
                f"too small; a positive mass_floor dusts them")
        rate = total * trunc
        if not rate > 0.0:
            raise DeadState(f"mass-biased rates underflow to 0 at alpha={alpha}")
        wait = 1.0 / rate * rng.standard_exponential()
        v = None
        u = rng.random() * total
        acc, lo = 0.0, 0
        while lo + _SCAN_BLOCK < n:
            end = sum(rates[lo:lo + _SCAN_BLOCK], acc)
            if u < end:
                break
            acc, lo = end, lo + _SCAN_BLOCK
        target = n
        for i, r in enumerate(rates[lo:lo + _SCAN_BLOCK], lo + 1):
            acc += r
            if u < acc:
                target = i
                break
    return wait, target, law.sample_dislocation(eps, rng, trunc, v)


def _observe(state, c, t):
    """State as seen at time t: erosion factor applied, eroded mass dusted."""
    if c == 0.0:
        return state
    factor = math.exp(-c * t)
    live = sum(state.parts)
    return MassState(tuple(m * factor for m in state.parts),
                     state.dust + live * (1.0 - factor), state.nominal)


def _trim_to_cap(state, cap):
    """Move the smallest parts to dust so that cap parts remain."""
    spill = sum(state.parts[cap:])
    return MassState(state.parts[:cap], state.dust + spill, state.nominal)


def _evolve(state, law, alpha, eps, trunc, horizon, mass_floor, max_fragments,
            rng, obs=(), c=0.0, log=True):
    """The event loop behind run and make_step_kernel.

    Evolves state from time 0 to horizon, taking a snapshot eroded at rate
    c at each time in obs. Returns (Trajectory, final state); the final
    state carries no erosion factor. A path with no fragments left, with
    an empty truncation, or with rates that underflow to 0 takes its
    remaining snapshots and ends, even when horizon is infinite. With log
    false no event is logged and the trajectory's event log is empty, for
    a caller that keeps only the final state.
    """
    snapshots, events = [], []
    n_obs = len(obs)
    obs_idx = 0
    t = 0.0
    while True:
        try:
            wait, target, frags = next_event(state, law, alpha, eps, rng, trunc)
            t_next = t + wait
        except (DeadState, EmptyTruncation):
            t_next = math.inf
        while obs_idx < n_obs and obs[obs_idx] < t_next:
            snapshots.append(_observe(state, c, obs[obs_idx]))
            obs_idx += 1
        if t_next > horizon or t_next == math.inf:
            break
        after = dislocate(state, target, frags, mass_floor)
        capped = len(after.parts) > max_fragments
        if capped:
            after = _trim_to_cap(after, max_fragments)
        if log:
            # tuple.__new__ builds the very record EventAtom(...) would,
            # without the generated __new__'s Python frame, as below
            events.append(tuple.__new__(EventAtom, (
                t_next, target, frags, state.parts[target - 1], capped)))
        state = after
        t = t_next
    return (tuple.__new__(Trajectory, (obs, tuple(snapshots), tuple(events))),
            state)


def run(config, rng):
    """Simulate one path, drawing every random number from the Generator rng.

    The path depends on config and rng's stream alone; the suites and
    `fragsim simulate` give replica i of a seed replica_rng(seed, i).
    Snapshots are emitted cadlag: an event at exactly an observation time
    lands inside that snapshot. When a dislocation would push the fragment
    count past max_fragments the smallest pieces are dusted and the event
    and trajectory are flagged instead of raising.
    """
    state = tuple.__new__(MassState, ((config.initial_mass,), 0.0,
                                      config.initial_mass))
    traj, _ = _evolve(state, config.law, config.alpha, config.eps,
                      config.law.truncated_mass(config.eps), config.t_end,
                      config.mass_floor, config.max_fragments, rng,
                      config.obs_times, config.c)
    return traj


def record_value(traj, t):
    """Largest second piece over rank-1 events with time <= t; 0 if none.

    Of equal candidates the first is kept, as max keeps it.
    """
    record = None
    for ev in traj.events:
        if ev.target_rank == 1 and ev.time <= t:
            frags = ev.fragments
            value = frags[1] if len(frags) > 1 else 0.0
            if record is None or value > record:
                record = value
    return 0.0 if record is None else record


def chi_value(traj, t):
    """Product of first pieces over rank-1/rank-2 events with time < t; 1 if none.

    The factors are multiplied in event order, so the float is reproducible.
    """
    chi = 1.0
    for ev in traj.events:
        if ev.time >= t:
            break
        if ev.target_rank <= 2:
            chi *= ev.fragments[0] if ev.fragments else 0.0
    return chi


def write_event_csv(traj, stream):
    """Event log: time,target_rank,parent_mass,s1..s8 (vector padded/truncated)."""
    cols = ",".join(f"s{i + 1}" for i in range(CSV_EVENT_COLS))
    stream.write(f"time,target_rank,parent_mass,{cols}\n")
    row = "%.17g,%d,%.17g" + ",%.17g" * CSV_EVENT_COLS + "\n"
    pad = (0.0,) * CSV_EVENT_COLS
    for ev in traj.events:
        stream.write(row % ((ev.time, ev.target_rank, ev.parent_mass)
                            + (ev.fragments + pad)[:CSV_EVENT_COLS]))


def write_snapshot_csv(traj, stream):
    """Snapshots: time,lambda1..lambda16,dust (parts padded/truncated)."""
    cols = ",".join(f"lambda{i + 1}" for i in range(CSV_SNAPSHOT_COLS))
    stream.write(f"time,{cols},dust\n")
    row = "%.17g" + ",%.17g" * (CSV_SNAPSHOT_COLS + 1) + "\n"
    pad = (0.0,) * CSV_SNAPSHOT_COLS
    for t, snap in zip(traj.obs_times, traj.snapshots):
        stream.write(row % ((t,) + (snap.parts + pad)[:CSV_SNAPSHOT_COLS]
                            + (snap.dust,)))


def make_step_kernel(law, eps=0.0, mass_floor=0.0, max_fragments=10 ** 6):
    """Kernel for homogeneous partition steps: evolve a unit mass for a duration.

    Returns kernel(duration, rng) -> MassState of relative masses, the end
    state of a unit-mass path run at alpha = 0 to time duration. A duration
    that is not finite and >= 0 raises ConfigError. eps follows SimConfig's
    rule: finite and >= 0, and > 0 for an infinite-activity law, and
    mass_floor and max_fragments follow its checks too.
    """
    _check_eps(law, eps)
    _check_limits(mass_floor, max_fragments)
    trunc = law.truncated_mass(eps)

    def kernel(duration, rng):
        check_range(duration, lambda d: 0.0 <= d < math.inf,
                    "step duration {!r} must be finite and >= 0")
        _, state = _evolve(MassState((1.0,), 0.0, 1.0), law, 0.0, eps, trunc,
                           duration, mass_floor, max_fragments, rng, log=False)
        return state

    return kernel
