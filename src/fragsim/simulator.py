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
from dataclasses import dataclass

from .errors import ConfigError, DeadState, EmptyTruncation
from .ranked_state import MassState, dislocate
from .rng import master_rng

CSV_EVENT_COLS = 8
CSV_SNAPSHOT_COLS = 16


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
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "obs_times", tuple(float(t) for t in self.obs_times))
        if self.t_end < 0.0:
            raise ConfigError(f"t_end {self.t_end} is negative")
        if not 0.0 < self.initial_mass <= 1.0:
            raise ConfigError(f"initial_mass {self.initial_mass} outside (0, 1]")
        if self.c < 0.0:
            raise ConfigError(f"erosion rate {self.c} is negative")
        if self.c > 0.0 and self.alpha != 0.0:
            raise ConfigError(
                "erosion with a nonzero self-similarity index is not supported; "
                "set alpha = 0 or c = 0")
        if self.eps < 0.0:
            raise ConfigError(f"eps {self.eps} is negative")
        if self.eps == 0.0 and getattr(self.law, "infinite_activity", False):
            raise ConfigError("an infinite-activity law requires eps > 0")
        if self.max_fragments < 1:
            raise ConfigError(f"max_fragments {self.max_fragments} must be >= 1")
        if self.mass_floor < 0.0:
            raise ConfigError(f"mass_floor {self.mass_floor} is negative")
        prev = 0.0
        for t in self.obs_times:
            if t < prev:
                raise ConfigError("obs_times must be non-decreasing and >= 0")
            if t > self.t_end:
                raise ConfigError(f"observation time {t} exceeds t_end {self.t_end}")
            prev = t


@dataclass(frozen=True)
class EventAtom:
    """One dislocation event: which rank split, into what, from what mass."""

    time: float
    target_rank: int
    fragments: tuple  # relative masses of the pieces, non-increasing
    parent_mass: float
    capped: bool = False  # set when the fragment cap trimmed this event's output


@dataclass(frozen=True)
class Trajectory:
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


def next_event(state, law, alpha, eps, rng, trunc=None):
    """Draw (waiting time, target rank, relative fragment vector).

    Each fragment carries an exponential clock of rate mass**alpha times
    the truncated total mass; the winner is the target. Draw order is
    fixed (wait, target, fragments) so that paths are reproducible.

    trunc is law.truncated_mass(eps), computed here when not given. It is
    fixed for a whole run, so event loops compute it once (see
    _truncated_rate) and pass it in; it is forwarded to
    law.sample_dislocation as total. The draws do not depend on which
    way it arrives.
    """
    n = len(state.parts)
    if n == 0:
        raise DeadState("no fragments left to dislocate")
    if trunc is None:
        trunc = law.truncated_mass(eps)
    if trunc <= 0.0:
        raise EmptyTruncation(f"truncated law has zero mass at eps={eps}")
    if alpha == 0.0:
        wait = rng.exponential(1.0 / (n * trunc))
        target = int(rng.integers(1, n + 1))
    else:
        # m ** 1.0 == m exactly, so alpha = 1 skips the per-fragment pow
        rates = state.parts if alpha == 1.0 else [m ** alpha for m in state.parts]
        total = sum(rates)
        wait = rng.exponential(1.0 / (total * trunc))
        u = rng.random() * total
        acc = 0.0
        target = n
        for i, r in enumerate(rates):
            acc += r
            if u < acc:
                target = i + 1
                break
    return wait, target, law.sample_dislocation(eps, rng, total=trunc)


def _truncated_rate(law, eps):
    """The law's total rate on {1 - s1 >= eps}; 0 when that set is empty,
    so that next_event reports EmptyTruncation and the loop stops."""
    try:
        return law.truncated_mass(eps)
    except EmptyTruncation:
        return 0.0


def _observe(state, c, t):
    """State as seen at time t: erosion factor applied, eroded mass dusted."""
    if c == 0.0:
        return state
    factor = math.exp(-c * t)
    live = sum(state.parts)
    return MassState(tuple(m * factor for m in state.parts),
                     state.dust + live * (1.0 - factor), state.nominal)


def _trim_to_cap(state, cap):
    """Move the smallest parts to dust until at most cap parts remain."""
    if len(state.parts) <= cap:
        return state, False
    spill = sum(state.parts[cap:])
    return MassState(state.parts[:cap], state.dust + spill, state.nominal), True


def _evolve(state, law, alpha, eps, trunc, horizon, mass_floor, max_fragments,
            rng, obs=(), c=0.0):
    """The event loop behind run and make_step_kernel.

    Evolves state from time 0 to horizon, taking a snapshot eroded at rate
    c at each time in obs. Returns (Trajectory, final state); the final
    state carries no erosion factor.
    """
    snapshots, events = [], []
    obs_idx = 0
    t = 0.0
    while True:
        try:
            wait, target, frags = next_event(state, law, alpha, eps, rng, trunc)
            t_next = t + wait
        except (DeadState, EmptyTruncation):
            t_next = math.inf
        while obs_idx < len(obs) and obs[obs_idx] < t_next:
            snapshots.append(_observe(state, c, obs[obs_idx]))
            obs_idx += 1
        if t_next > horizon:
            break
        parent = state.parts[target - 1]
        state = dislocate(state, target, frags, mass_floor)
        state, capped = _trim_to_cap(state, max_fragments)
        events.append(EventAtom(t_next, target, frags, parent, capped))
        t = t_next
    return Trajectory(obs, tuple(snapshots), tuple(events)), state


def run(config, rng=None):
    """Simulate one path. Deterministic given config.seed (or the given rng).

    Snapshots are emitted cadlag: an event at exactly an observation time
    lands inside that snapshot. When a dislocation would push the fragment
    count past max_fragments the smallest pieces are dusted and the event
    and trajectory are flagged instead of raising.
    """
    if rng is None:
        rng = master_rng(config.seed)
    state = MassState((config.initial_mass,), 0.0, config.initial_mass)
    traj, _ = _evolve(state, config.law, config.alpha, config.eps,
                      _truncated_rate(config.law, config.eps), config.t_end,
                      config.mass_floor, config.max_fragments, rng,
                      config.obs_times, config.c)
    return traj


def record_value(traj, t):
    """Largest second piece over rank-1 events with time <= t; 0 if none."""
    return max((ev.fragments[1] if len(ev.fragments) > 1 else 0.0
                for ev in traj.events if ev.target_rank == 1 and ev.time <= t),
               default=0.0)


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


def _fmt(x):
    return format(float(x), ".17g")


def write_event_csv(traj, stream):
    """Event log: time,target_rank,parent_mass,s1..s8 (vector padded/truncated)."""
    cols = ",".join(f"s{i + 1}" for i in range(CSV_EVENT_COLS))
    stream.write(f"time,target_rank,parent_mass,{cols}\n")
    for ev in traj.events:
        padded = (ev.fragments + (0.0,) * CSV_EVENT_COLS)[:CSV_EVENT_COLS]
        row = [_fmt(ev.time), str(ev.target_rank), _fmt(ev.parent_mass)]
        row += [_fmt(x) for x in padded]
        stream.write(",".join(row) + "\n")


def write_snapshot_csv(traj, stream):
    """Snapshots: time,lambda1..lambda16,dust (parts padded/truncated)."""
    cols = ",".join(f"lambda{i + 1}" for i in range(CSV_SNAPSHOT_COLS))
    stream.write(f"time,{cols},dust\n")
    for t, snap in zip(traj.obs_times, traj.snapshots):
        padded = (snap.parts + (0.0,) * CSV_SNAPSHOT_COLS)[:CSV_SNAPSHOT_COLS]
        row = [_fmt(t)] + [_fmt(x) for x in padded] + [_fmt(snap.dust)]
        stream.write(",".join(row) + "\n")


def make_step_kernel(law, alpha=0.0, eps=0.0, mass_floor=0.0, max_fragments=10 ** 6):
    """Kernel for partition steps: evolve a fragment of given mass for a duration.

    Returns kernel(mass, duration, rng) -> MassState of relative masses.
    Self-similarity reduces the draw to a unit-mass path run to time
    duration * mass**alpha.
    """
    trunc = _truncated_rate(law, eps)

    def kernel(mass, duration, rng):
        _, state = _evolve(MassState((1.0,), 0.0, 1.0), law, alpha, eps, trunc,
                           duration * mass ** alpha, mass_floor, max_fragments,
                           rng)
        return state

    return kernel
