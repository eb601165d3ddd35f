"""Reference builders that tests check the package's partitions and states
against.

The package builds partitions only through trivial, paintbox,
partition_step and frequencies; these build them from plain blocks,
labels and masses, the slow and obvious way.
"""

from fragsim import FinitePartition, MassState


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
