"""Reproducible random streams.

Every replica draws from its own generator derived from (seed, replica index)
through numpy's SeedSequence spawning, so a replica's draws do not depend on
which replicas ran before it.
"""

import numpy as np


def master_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def replica_rng(seed, index):
    """Independent stream for one replica, determined by (seed, index) alone."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
