"""Inputs of the wrong kind or range raise a package error, never a bare one."""

import math

import numpy as np
import pytest
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
    run_suite,
)
from fragsim.errors import ConfigError, FragsimError
from fragsim.stats import pool_cells, pooled_chi_square

_LAW = BinaryPowerLaw(0.5)
# a law with no dislocations, so a path runs at once whatever its horizon
_NO_EVENTS = FiniteAtomic([])
_UNIT = MassState((1.0,), 0.0, 1.0)
_PAIR = MassState((0.5, 0.3), 0.0, 1.0)

_VALUE = st.sampled_from([0, 1, -1, 1e308, 1e-320, math.nan, math.inf,
                          -math.inf, 3, True, None, "x", (0.5, 0.25),
                          _NO_EVENTS])
# a value, a tuple of values, or a mapping as run_suite's overrides are
_ARG = st.one_of(_VALUE, st.lists(_VALUE, max_size=3).map(tuple),
                 st.dictionaries(st.sampled_from(("t", "law")), _VALUE,
                                 max_size=1))

# each takes two drawn arguments, and may ignore the second
_ENTRY_POINTS = {
    "run": lambda a, b: run(SimConfig(a, b), np.random.default_rng(0)),
    "dislocate": lambda a, b: dislocate(_UNIT, 1, a, b),
    "dislocate rank": lambda a, b: dislocate(_PAIR, a, (0.5,)),
    "FiniteAtomic": lambda a, b: FiniteAtomic([(1.0, a)]),
    "FiniteAtomic atoms": lambda a, b: FiniteAtomic(a),
    "atom weight": lambda a, b: FiniteAtomic([(a, (0.5,))]),
    "BinaryPowerLaw": lambda a, b: BinaryPowerLaw(a),
    "BrennanDurrett": BrennanDurrett,
    "replica_rng": replica_rng,
    "pooled_chi_square": pooled_chi_square,
    "record_cdf": lambda a, b: record_cdf(_LAW, a, 0.1),
    "record_cdf law": lambda a, b: record_cdf(a, 1.0, b),
    "normalize_lambda2": lambda a, b: normalize_lambda2(_LAW, a, 0.5),
    "normalize_lambda2 law": lambda a, b: normalize_lambda2(a, 1.0, 0.5),
    # replicas=0 fails once the overrides pass, so no suite runs
    "run_suite overrides": lambda a, b: run_suite("erosion", a, replicas=0),
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


# every caller of measures._points, each on its one point argument
_ATOMIC = FiniteAtomic([(1.0, (0.6, 0.4))])
_POINT_QUERIES = {
    "FiniteAtomic.tail_nu2": (_ATOMIC.tail_nu2, "tail point"),
    "FiniteAtomic.tail_nu2_strict": (_ATOMIC.tail_nu2_strict, "tail point"),
    "BinaryPowerLaw.tail_nu2": (_LAW.tail_nu2, "tail point"),
    "BrennanDurrett.tail_nu2": (BrennanDurrett(2.0, 3.0).tail_nu2,
                                "tail point"),
    "record_cdf": (lambda x: record_cdf(_LAW, 1.0, x), "record level x"),
    "frechet_k_cdf": (lambda x: frechet_k_cdf(2, 0.5, x), "Frechet point x"),
}
_FLOATS = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=2)
# a point sequence with a None in it: flat, nested, or an object array
_WITH_NONE = st.tuples(_FLOATS, _FLOATS).flatmap(lambda ends: st.sampled_from((
    (*ends[0], None, *ends[1]),
    [[*ends[0], None, *ends[1]]],
    np.array([*ends[0], None, *ends[1]], dtype=object))))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from(sorted(_POINT_QUERIES)), _WITH_NONE)
def test_a_point_sequence_holding_none_raises_config_error(name, points):
    # numpy reads a None as NaN, so each query mapped it silently
    query, what = _POINT_QUERIES[name]
    with pytest.raises(ConfigError,
                       match=f"(?s)^{what} .* must be a number"):
        query(points)


@pytest.mark.parametrize("name", sorted(_POINT_QUERIES))
def test_a_nan_point_maps_as_numpy_maps_it(name):
    query, _ = _POINT_QUERIES[name]
    np.testing.assert_array_equal(query((math.nan, 0.1)),
                                  query(np.array([math.nan, 0.1])))
    np.testing.assert_array_equal(query([math.nan]), [query(math.nan)])


@pytest.mark.parametrize("law", (None, "binary_power", 0.5),
                         ids=("None", "str", "float"))
def test_record_cdf_and_normalize_lambda2_refuse_a_law_as_simconfig_does(law):
    # each raised a bare AttributeError
    with pytest.raises(ConfigError) as expected:
        SimConfig(law, 1.0)
    for query in (lambda: record_cdf(law, 1.0, 0.1),
                  lambda: normalize_lambda2(law, 1.0, 0.5)):
        with pytest.raises(ConfigError) as raised:
            query()
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("overrides", ([("t", 1.0)], "x"),
                         ids=("pairs", "str"))
def test_suite_overrides_that_are_not_a_mapping_raise_config_error(overrides):
    # each raised a bare AttributeError on .items()
    with pytest.raises(ConfigError, match="overrides .* must be a mapping"):
        run_suite("erosion", overrides)


@pytest.mark.parametrize("atoms", (None, [(1.0,)], 5, [(1.0, (0.5,), 2)]),
                         ids=("None", "short-pair", "int", "long-pair"))
def test_atoms_that_are_not_pairs_raise_config_error(atoms):
    # None and 5 raised a bare TypeError, the pairs a bare ValueError
    with pytest.raises(ConfigError,
                       match=r"must be a sequence of \(weight, fragments\)"):
        FiniteAtomic(atoms)
