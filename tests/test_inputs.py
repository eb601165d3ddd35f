"""Inputs of the wrong kind or range raise a package error, never a bare one."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsim import (
    BinaryPowerLaw,
    BrennanDurrett,
    FiniteAtomic,
    MassState,
    SimConfig,
    dislocate,
    extreme_cdf,
    frechet_k_cdf,
    normalize_lambda2,
    poisson_pmf_test,
    record_cdf,
    replica_rng,
    run,
)
from fragsim.errors import FragsimError
from fragsim.stats import pool_cells, pooled_chi_square

_LAW = BinaryPowerLaw(0.5)
# a law with no dislocations, so a path runs at once whatever its horizon
_NO_EVENTS = FiniteAtomic([])
_UNIT = MassState((1.0,), 0.0, 1.0)
_PAIR = MassState((0.5, 0.3), 0.0, 1.0)

_VALUE = st.sampled_from([0, 1, -1, 1e308, 1e-320, math.nan, math.inf,
                          -math.inf, 3, True, None, "x", (0.5, 0.25),
                          _NO_EVENTS])
_ARG = st.one_of(_VALUE, st.lists(_VALUE, max_size=3).map(tuple))

# each takes two drawn arguments, and may ignore the second
_ENTRY_POINTS = {
    "run": lambda a, b: run(SimConfig(a, b), np.random.default_rng(0)),
    "dislocate": lambda a, b: dislocate(_UNIT, 1, a, b),
    "dislocate rank": lambda a, b: dislocate(_PAIR, a, (0.5,)),
    "FiniteAtomic": lambda a, b: FiniteAtomic([(1.0, a)]),
    "atom weight": lambda a, b: FiniteAtomic([(a, (0.5,))]),
    "BinaryPowerLaw": lambda a, b: BinaryPowerLaw(a),
    "BrennanDurrett": BrennanDurrett,
    "replica_rng": replica_rng,
    "pooled_chi_square": pooled_chi_square,
    "record_cdf": lambda a, b: record_cdf(_LAW, a, 0.1),
    "normalize_lambda2": lambda a, b: normalize_lambda2(_LAW, a, 0.5),
    "poisson_pmf_test": lambda a, b: poisson_pmf_test([300, 200, 100], a),
    "pool_cells": pool_cells,
    "extreme_cdf": extreme_cdf,
    "frechet_k_cdf": lambda a, b: frechet_k_cdf(2, a, b),
}
# the three law queries of each family, each on its first argument
_ENTRY_POINTS.update(
    (f"{type(law).__name__}.{query}", lambda a, b, f=getattr(law, query): f(a))
    for law in (FiniteAtomic([(1.0, (0.6, 0.4))]), _LAW,
                BrennanDurrett(2.0, 2.0))
    for query in ("truncated_mass", "tail_nu2", "gen_inverse_f"))


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(st.sampled_from(sorted(_ENTRY_POINTS)), _ARG, _ARG)
def test_entry_points_return_or_raise_a_package_error(name, a, b):
    try:
        _ENTRY_POINTS[name](a, b)
    except FragsimError:
        pass
