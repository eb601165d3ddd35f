"""Reference builders that tests check the package's partitions, states
and event loop against.

The package builds partitions only through trivial, paintbox,
partition_step and frequencies; these build them from plain blocks,
labels and masses, the slow and obvious way. The event-loop references
below need numpy alone: a target found by adding rates one by one, stub
generators, and twin paths with and without carried running sums.
"""

import math

import numpy as np

from fragsim import FinitePartition, MassState, SimConfig, next_event
from fragsim import simulator


def canonical(blocks, ground=None):
    """The canonical partition with these blocks over ground (default: the
    union of the blocks): each block ascending, blocks ordered by least
    element. Empty, overlapping or non-covering blocks raise ValueError, so
    p == canonical(p.blocks, p.ground) holds only when p is a canonical
    partition of its ground."""
    cleaned = [tuple(sorted(b)) for b in blocks]
    if not all(cleaned):
        raise ValueError("empty block")
    cleaned.sort(key=lambda b: b[0])
    seen = set()
    for b in cleaned:
        if len(seen.union(b)) != len(seen) + len(b):
            raise ValueError("blocks are not disjoint")
        seen.update(b)
    ground = tuple(sorted(seen if ground is None else ground))
    if set(ground) != seen:
        raise ValueError("blocks do not cover the ground set")
    return FinitePartition(ground, tuple(cleaned))


def by_label(elements, labels):
    """The partition of elements grouping those with equal labels."""
    groups = {}
    for e, label in zip(elements, labels):
        groups.setdefault(label, []).append(e)
    return canonical(groups.values(), elements)


def pull_back(p, sigma):
    """The partition whose elements relate iff their sigma images relate in
    p; sigma[k] is the image of p.ground[k]."""
    if sorted(sigma) != list(p.ground):
        raise ValueError(f"{sigma} is not a bijection of {p.ground}")
    inverse = dict(zip(sigma, p.ground))
    return canonical([[inverse[e] for e in b] for b in p.blocks], p.ground)


def mass_state(masses, dust=0.0, nominal=1.0):
    """A MassState holding masses largest first."""
    return MassState(tuple(sorted(map(float, masses), reverse=True)),
                     float(dust), float(nominal))


# --- event-loop references ---------------------------------------------------


class StubRng:
    """Exponential waits equal their scale and uniforms are fixed at u."""

    def __init__(self, u):
        self.u = u

    def standard_exponential(self):
        return 1.0

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


def dyadic_parts(n):
    # 2**-12 then 2**-14: every running sum of m**alpha is exact at alpha
    # in {0.5, 1, 2}, so a running sum can equal u * total exactly
    return (2.0 ** -12,) * (n // 3) + (2.0 ** -14,) * (n - n // 3)


def onto(cut, total):
    """A uniform u whose u * total rounds to cut exactly; None if none does."""
    guess = cut / total
    for u in (guess, math.nextafter(guess, 0.0), math.nextafter(guess, 2.0)):
        if u * total == cut:
            return u
    return None


class Scripted:
    """numpy's draws, after the given exponentials and uniforms are used up."""

    def __init__(self, seed, exponentials=(), uniforms=()):
        self.rng = np.random.default_rng(seed)
        self.exponentials, self.uniforms = list(exponentials), list(uniforms)

    def standard_exponential(self):
        if self.exponentials:
            return self.exponentials.pop(0)
        return self.rng.standard_exponential()

    def random(self):
        return self.uniforms.pop(0) if self.uniforms else self.rng.random()


def path_hex(traj, end):
    events = [(ev.time.hex(), ev.target_rank, [x.hex() for x in ev.fragments],
               ev.parent_mass.hex(), ev.capped) for ev in traj.events]
    return events, [state_hex(s) for s in traj.snapshots], state_hex(end)


def watch_carried(monkeypatch):
    """Make _evolve's next_event calls record, in the list returned, the
    running sums each was handed (None with none) and its state's parts."""
    handed = []

    def watched(*args):
        sums = args[-1]
        handed.append((None if sums is None else sums.valid,
                       len(args[0].parts)))
        return next_event(*args)

    monkeypatch.setattr(simulator, "next_event", watched)
    return handed


def twin_paths(monkeypatch, start, law, alpha, horizon, floor, cap, make_rng):
    """A path through _evolve as shipped and its twin whose next_event calls
    carry no running sums, both as float.hex, and what watch_carried saw
    the first path's calls handed."""
    def path():
        traj, end = simulator._evolve(start, SimConfig(
            law, horizon, alpha=alpha, eps=0.0,
            obs_times=(horizon / 3, horizon / 2, horizon), mass_floor=floor,
            max_fragments=cap), horizon, make_rng())
        return path_hex(traj, end)

    handed = watch_carried(monkeypatch)
    shipped = path()
    monkeypatch.setattr(simulator, "next_event",
                        lambda *args: next_event(*args[:-1]))
    return shipped, path(), handed


def most_carried(handed):
    return max(valid or 0 for valid, _ in handed)


def state_hex(state):
    return ([m.hex() for m in state.parts], state.dust.hex(),
            state.nominal.hex())


def compensated_sum(values, start=0):
    """sum() as CPython 3.12 adds floats: Neumaier's compensated sum."""
    total, comp = float(start), 0.0
    for x in values:
        x = float(x)
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp
