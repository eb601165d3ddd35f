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
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import add
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DeadState,
    EmptyTruncation,
    RateOverflow,
    check_range,
)
from .measures import DislocationLaw, _query, check_law
from .ranked_state import MassState, dislocate
from .rng import exponential_rank_and_uniform

CSV_EVENT_COLS = 8
CSV_SNAPSHOT_COLS = 16
# The most parts an event-loop state holds in a tuple; only _evolve reads
# it. Past it _evolve moves the parts to an array('d'), which dislocate
# copies with one memcpy, and whose running rate sums next_event takes at
# alpha != 0 with one np.add.accumulate.
_LIST_MAX = 64


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run.

    law must be a DislocationLaw. obs_times must be non-decreasing and lie
    in [0, t_end]. eps is the truncation level on {1 - s1 >= eps}; it must
    be positive when the law has infinite activity. Positive erosion demands
    alpha = 0 because the analytic erosion factor commutes with the jump
    dynamics only when jump rates are mass-independent. truncated_rate,
    law.truncated_mass(eps), is computed once per config; it is no field, so
    ==, hash and repr skip it.
    """

    law: DislocationLaw
    t_end: float
    alpha: float = 0.0
    c: float = 0.0
    eps: float = 0.0
    obs_times: tuple = ()
    max_fragments: int = 10 ** 6
    mass_floor: float = 0.0
    initial_mass: float = 1.0

    def __post_init__(self):
        check_law(self.law)
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
        # an infinite eps would truncate every dislocation away, so a path
        # would run with no event at all
        check_range(self.eps, lambda e: 0.0 <= e < math.inf,
                    "eps {!r} must be finite and >= 0")
        if self.eps == 0.0 and self.law.infinite_activity:
            raise ConfigError("an infinite-activity law requires eps > 0")
        # a cap below 1 or an infinite floor would dust the whole mass, a NaN
        # floor would dust nothing, and a cap that is not an int cannot slice
        # the parts
        cap, floor = self.max_fragments, self.mass_floor
        if not (isinstance(cap, numbers.Integral) and cap >= 1):
            raise ConfigError(f"max_fragments {cap!r} must be an int >= 1")
        if not (isinstance(floor, numbers.Real) and 0.0 <= floor < math.inf):
            raise ConfigError(f"mass_floor {floor!r} must be finite and >= 0")
        prev = 0.0
        for t in self.obs_times:
            # NaN fails both bounds, so a NaN time is rejected here too
            if not prev <= t <= self.t_end:
                raise ConfigError(
                    f"observation time {t} outside [{prev}, {self.t_end}]: "
                    f"obs_times must be non-decreasing in [0, t_end]")
            prev = t

    @cached_property
    def truncated_rate(self):
        return self.law.truncated_mass(self.eps)


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


def next_event(state, alpha, eps, rng, trunc):
    """Draw (waiting time, target rank, the law's uniform v).

    Each fragment carries an exponential clock of rate mass**alpha times
    trunc, law.truncated_mass(eps), which SimConfig computes once per
    config; the winner is the target. This is the one place an event's
    numbers are drawn, in a fixed order so that paths are reproducible:
    the wait, the target, then the uniform v that
    law.sample_dislocation(eps, trunc, v) maps to the fragment vector.
    The law draws nothing, so the caller maps v only for an event it
    keeps, and the stream is the same whether it maps v or not.
    The wait is scale * standard_exponential(), the very product numpy's
    exponential(scale) returns for a scalar, without its check of scale.
    At alpha = 0 all three come from one call at every n below 2**32,
    exponential_rank_and_uniform(rng, n), bit for bit numpy's three calls
    (pinned in tests/test_rng.py) under one hold of the bit generator's
    lock. A lone fragment is the target without a rank draw, as numpy
    draws nothing for a one-value range.

    For alpha != 0 the target is the first rank whose running sum of
    rates exceeds u * total, for a uniform u drawn before v: one past the
    count of running sums at or below u, capped at n, as the running sums
    of non-negative rates never fall; bisect_right counts them. The
    running sums are taken afresh at every call, from the state's parts
    alone: a list from itertools.accumulate for parts in a tuple, or any
    sequence but an array, and np.add.accumulate's float64 array for
    parts in an array('d'), as the event loop holds them past 64 parts.
    Each sum is a left-to-right fold of float adds either way, so both
    give the same floats and the same target, and the total is the last
    running sum, a Python float.

    Raises RateOverflow when the mass-biased total rate is not finite, as
    when fragments shrink toward 0 at alpha < 0 with no mass floor, and
    DeadState, before any draw, when it underflows to 0, as every m**alpha
    does at a large alpha. Raises EmptyTruncation, before any draw, when
    trunc is not positive. A state with no parts, as None, raises
    ConfigError, and so does an rng with no draw methods, as None; each
    check is the handler of a read the call makes anyway, so a valid call
    pays nothing for it.
    """
    try:
        parts = state.parts
    except AttributeError:
        raise ConfigError(f"state {state!r} must be a MassState") from None
    n = len(parts)
    if n == 0:
        raise DeadState("no fragments left to dislocate")
    if trunc <= 0.0:
        raise EmptyTruncation(f"truncated law has zero mass at eps={eps}")
    try:
        if alpha == 0.0:
            e, target, v = exponential_rank_and_uniform(rng, n)
            return 1.0 / (n * trunc) * e, target, v
        exponential = rng.standard_exponential
    except AttributeError:
        raise ConfigError(f"rng {rng!r} must be a numpy Generator") from None
    try:
        # m ** 1.0 == m exactly, so alpha = 1 skips the per-fragment pow
        rates = parts if alpha == 1.0 else [m ** alpha for m in parts]
        if type(parts) is not array:
            running = list(accumulate(rates))
            total = running[-1]
        elif alpha < 0.0 or parts[0] > 1.0:
            # at alpha >= 0 parts of at most 1 have rates of at most 1, whose
            # sum stays finite; the rates of small masses at alpha < 0, or of
            # masses past 1, can sum past the float range
            with np.errstate(over="ignore"):
                running = np.add.accumulate(rates)
            total = running.item(n - 1)
        else:
            running = np.add.accumulate(rates)
            total = running.item(n - 1)
    except OverflowError:
        total = math.inf
    if not total < math.inf:
        raise RateOverflow(
            f"mass-biased rates overflow at alpha={alpha}: fragments are "
            f"too small; a positive mass_floor dusts them")
    rate = total * trunc
    if not rate > 0.0:
        raise DeadState(f"mass-biased rates underflow to 0 at alpha={alpha}")
    wait = 1.0 / rate * exponential()
    u = rng.random() * total
    v = rng.random()
    return wait, min(bisect_right(running, u) + 1, n), v


def _observe(state, c, t, boxes=None):
    """State as seen at time t: erosion factor applied, eroded mass dusted.

    The snapshot's parts are a tuple whichever kind state holds. An array
    holds bare doubles, so each snapshot of one would box every part anew;
    with boxes, a dict, each value is boxed once and every snapshot shares
    that float, as the snapshots of a tuple share its floats. Parts are
    positive, so equal values are equal bits. The eroded mass is the live
    mass, a left-to-right fold of the parts, times 1 - factor.
    """
    if c == 0.0:
        parts = state.parts
        parts = tuple(parts) if boxes is None else \
            tuple(map(boxes.setdefault, parts, parts))
        return tuple.__new__(MassState, (parts, state.dust, state.nominal))
    factor = math.exp(-c * t)
    live = reduce(add, state.parts, 0.0)
    return MassState(tuple(m * factor for m in state.parts),
                     state.dust + live * (1.0 - factor), state.nominal)


def _trim_to_cap(state, cap):
    """Move the smallest parts to dust so that cap parts remain.

    The kept parts are a slice, so a tuple stays a tuple and an array an
    array. The dropped parts join the dust as one left-to-right fold.
    """
    spill = reduce(add, state.parts[cap:], 0.0)
    return MassState(state.parts[:cap], state.dust + spill, state.nominal)


def _evolve(state, config, horizon, rng):
    """The event loop behind run and make_step_kernel.

    Evolves state from time 0 to horizon on config's knobs, bar t_end and
    initial_mass, taking a snapshot eroded at rate config.c at each of its
    obs_times. Returns (Trajectory, final state); the final state carries
    no erosion factor. The horizon is finite, as SimConfig's t_end and the
    kernel's duration are; an event happens at a time <= horizon. A path
    with no fragments left, with an empty truncation, or with rates that
    underflow to 0 takes its remaining snapshots and ends before any time
    is compared, so it ends even at an infinite horizon; so does a path
    whose law raises EmptyTruncation or DeadState as it maps a uniform.
    Every event is logged; make_step_kernel keeps only the final state
    and drops the log.

    The law maps an event's uniform only once the event is known to fall
    within the horizon, so a path makes one sample_dislocation call per
    logged event and none for the draw past its end. Each event calls
    dislocate once, with the state before it.

    state's parts may be any sequence dislocate takes; run and
    make_step_kernel start from a tuple, and dislocate hands back a tuple
    for any parts but an array. Once a state holds more than _LIST_MAX
    parts they move to an array('d'), made here and nowhere else, which
    stays one to the path's end and which every later event copies with
    one memcpy. An event carries nothing to the next but its state:
    next_event sums the rates afresh from the parts at every event. Every
    snapshot holds a tuple. The final state keeps the parts the loop ended
    with, a tuple or an array: run drops it, and make_step_kernel makes it
    a tuple through _observe.
    """
    alpha, eps, c = config.alpha, config.eps, config.c
    trunc, obs = config.truncated_rate, config.obs_times
    mass_floor, max_fragments = config.mass_floor, config.max_fragments
    sample = config.law.sample_dislocation
    snapshots, events = [], []
    # _observe's boxed floats, once the parts are an array
    boxes = None
    n_obs = len(obs)
    obs_idx = 0
    t = 0.0
    while True:
        if len(state.parts) > _LIST_MAX and boxes is None:
            state = tuple.__new__(MassState, (array("d", state.parts),
                                              state.dust, state.nominal))
            boxes = {}
        try:
            wait, target, v = next_event(state, alpha, eps, rng, trunc)
            t_next = t + wait
            happens = t_next <= horizon
            if happens:
                frags = sample(eps, trunc, v)
        except (DeadState, EmptyTruncation):
            t_next, happens = math.inf, False
        while obs_idx < n_obs and obs[obs_idx] < t_next:
            snapshots.append(_observe(state, c, obs[obs_idx], boxes))
            obs_idx += 1
        if not happens:
            break
        after = dislocate(state, target, frags, mass_floor)
        capped = len(after.parts) > max_fragments
        if capped:
            after = _trim_to_cap(after, max_fragments)
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

    The path starts from the tuple (initial_mass,) and runs on a tuple-
    or array-backed state, whose rates next_event sums afresh at every
    event; its snapshots hold tuples, and its end state is dropped. Every
    path run on one config shares its truncated_rate. A config with no
    initial_mass, as None, raises ConfigError, and so does an rng with no
    draw methods, through next_event; neither check costs a valid call
    anything.
    """
    try:
        mass = config.initial_mass
    except AttributeError:
        raise ConfigError(f"config {config!r} must be a SimConfig") from None
    state = tuple.__new__(MassState, ((mass,), 0.0, mass))
    traj, _ = _evolve(state, config, config.t_end, rng)
    return traj


def record_value(traj, t):
    """Largest second piece over rank-1 events with time <= t; 0 if none.

    Of equal candidates the first is kept, as max keeps it. A t that is
    not a number, or is NaN, raises ConfigError, as does a traj with no
    event log, as None.
    """
    t = _query(t, "record time t")
    record = None
    for ev in _field(traj, "events"):
        if ev.target_rank == 1 and ev.time <= t:
            frags = ev.fragments
            value = frags[1] if len(frags) > 1 else 0.0
            if record is None or value > record:
                record = value
    return 0.0 if record is None else record


def chi_value(traj, t):
    """Product of first pieces over rank-1/rank-2 events with time < t; 1 if none.

    The factors are multiplied in event order, so the float is reproducible.
    A t that is not a number, or is NaN, raises ConfigError, as does a traj
    with no event log, as None.
    """
    t = _query(t, "chi time t")
    chi = 1.0
    for ev in _field(traj, "events"):
        if ev.time >= t:
            break
        if ev.target_rank <= 2:
            chi *= ev.fragments[0] if ev.fragments else 0.0
    return chi


def write_event_csv(traj, stream):
    """Event log: time,target_rank,parent_mass,s1..s8 (vector padded/truncated).

    The log keeps each law's vector as the law returned it, so a list or
    an array is made a tuple here, not in the event loop. A stream with no
    write method raises ConfigError, as does write_snapshot_csv's, and so
    does a traj with no event log or observation times, as None, once the
    header is written.
    """
    write = _writer(stream)
    cols = ",".join(f"s{i + 1}" for i in range(CSV_EVENT_COLS))
    write(f"time,target_rank,parent_mass,{cols}\n")
    rows = _padded_rows("%.17g,%d,%.17g", CSV_EVENT_COLS, "\n")
    for ev in _field(traj, "events"):
        frags = tuple(ev.fragments[:CSV_EVENT_COLS])
        write(rows[len(frags)] % ((ev.time, ev.target_rank, ev.parent_mass)
                                  + frags))


def write_snapshot_csv(traj, stream):
    """Snapshots: time,lambda1..lambda16,dust (parts padded/truncated)."""
    write = _writer(stream)
    cols = ",".join(f"lambda{i + 1}" for i in range(CSV_SNAPSHOT_COLS))
    write(f"time,{cols},dust\n")
    rows = _padded_rows("%.17g", CSV_SNAPSHOT_COLS, ",%.17g\n")
    for t, snap in zip(_field(traj, "obs_times"), traj.snapshots):
        parts = snap.parts[:CSV_SNAPSHOT_COLS]
        write(rows[len(parts)] % ((t,) + parts + (snap.dust,)))


def _field(traj, name):
    """traj's field name; a traj without it, as None, raises ConfigError."""
    try:
        return getattr(traj, name)
    except AttributeError:
        raise ConfigError(f"trajectory {traj!r} must be a Trajectory") \
            from None


def _writer(stream):
    """stream's write method; a stream without one, as None, raises
    ConfigError."""
    try:
        return stream.write
    except AttributeError:
        raise ConfigError(f"CSV stream {stream!r} has no write method") \
            from None


def _padded_rows(head, cols, tail):
    """Row formats by value count k <= cols: k values, then cols - k zeros.

    The zeros are literal: '%.17g' % 0.0 is '0', so a padded row reads as
    it would with 0.0 formatted into it, without the formatting.
    """
    return [head + ",%.17g" * k + ",0" * (cols - k) + tail
            for k in range(cols + 1)]


def make_step_kernel(law):
    """Kernel for homogeneous partition steps: evolve a unit mass for a duration.

    Returns kernel(duration, rng) -> MassState of relative masses, the end
    state of a unit-mass path run at alpha = 0 to time duration. A duration
    that is not finite and >= 0 raises ConfigError. Every path runs on
    SimConfig(law, 0.0), built once here (no observation times, c = 0),
    to horizon duration, so an infinite-activity law raises ConfigError as
    SimConfig does. The path starts from the tuple (1.0,) and runs on a
    tuple- or array-backed state, and _observe makes the end state's parts
    a tuple, whatever their kind.
    """
    config = SimConfig(law, 0.0)

    def kernel(duration, rng):
        check_range(duration, lambda d: 0.0 <= d < math.inf,
                    "step duration {!r} must be finite and >= 0")
        start = tuple.__new__(MassState, ((1.0,), 0.0, 1.0))
        _, state = _evolve(start, config, duration, rng)
        return _observe(state, 0.0, duration)

    return kernel
