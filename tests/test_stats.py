"""KS and chi-square instruments used by the verification suites."""

import math

import numpy as np
import pytest
from scipy import stats as sps

import fragsim.stats
from fragsim import (
    ks_stat,
    ks_two_sample,
    poisson_pmf_test,
    pooled_chi_square,
)
from fragsim.errors import ConfigError, EmptySample, InsufficientData
from fragsim.stats import pool_cells


def test_ks_stat_against_own_ecdf_vanishes():
    def ecdf(samples):  # right-continuous reference
        xs = np.sort(np.asarray(samples, dtype=float))
        return lambda x: np.searchsorted(xs, x, side="right") / xs.size

    rng = np.random.default_rng(0)
    xs = rng.normal(size=200)
    assert ks_stat(xs, ecdf(xs)) == pytest.approx(0.0, abs=1e-12)
    tied = [1.0, 1.0, 2.0, 2.0, 2.0, 5.0]
    assert ks_stat(tied, ecdf(tied)) == pytest.approx(0.0, abs=1e-12)


def test_ks_stat_calibration():
    rng = np.random.default_rng(1)
    n = 10 ** 4
    xs = rng.random(n)
    stat = ks_stat(xs, lambda x: np.clip(x, 0.0, 1.0))
    # the asymptotic KS quantile at alpha = 0.01
    assert stat < math.sqrt(-0.5 * math.log(0.005)) / math.sqrt(n)
    # against the wrong law the statistic saturates
    assert ks_stat(xs, lambda x: np.clip(x / 10.0, 0.0, 1.0)) > 0.5


def test_ks_stat_degenerate_samples():
    zeros = np.zeros(100)
    assert ks_stat(zeros, lambda x: np.where(x >= 0.0, 1.0, 0.0)) == 0.0
    assert ks_stat(zeros, lambda x: np.zeros_like(np.asarray(x))) == 1.0
    with pytest.raises(EmptySample):
        ks_stat([], lambda x: x)


def test_ks_stat_restricted():
    rng = np.random.default_rng(2)
    n = 5000
    xs = rng.random(n)
    # censor everything below 0.3 to a wrong place; the restricted statistic
    # must ignore that region apart from the mass balance at the cut
    xs[xs < 0.3] *= 0.1
    uniform = lambda x: np.clip(x, 0.0, 1.0)
    assert ks_stat(xs, uniform) > 0.2
    assert ks_stat(xs, uniform, x_min=0.3) < 0.03
    # when the sample is censored *through* the cut the at-cut term fires
    ys = rng.random(n) * 0.5
    assert ks_stat(ys, uniform, x_min=0.6) == pytest.approx(0.4, abs=0.03)


def test_ks_two_sample():
    a = [1.0, 2.0, 3.0]
    assert ks_two_sample(a, a) == 0.0
    assert ks_two_sample([0.0, 1.0], [5.0, 6.0]) == 1.0
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=2000), rng.normal(size=2000)
    crit = 1.358 * math.sqrt(2.0 / 2000.0)
    assert ks_two_sample(x, y) < crit
    assert ks_two_sample(x, y + 3.0) > 0.8
    with pytest.raises(EmptySample):
        ks_two_sample([], a)


def test_pooled_chi_square_null_calibration():
    rng = np.random.default_rng(4)
    expected = [200.0, 300.0, 500.0]
    observed = rng.multinomial(1000, [0.2, 0.3, 0.5])
    assert pooled_chi_square(observed, expected) > 0.001
    # pooling: tiny expected cells merge until each reaches five
    observed = [996, 1, 0, 1, 2]
    expected = [990.0, 4.0, 3.0, 2.0, 1.0]
    p = pooled_chi_square(observed, expected)
    assert 0.0 < p <= 1.0
    with pytest.raises(InsufficientData):
        pooled_chi_square([3, 1], [3.0, 1.0])


@pytest.mark.parametrize("observed, expected", [
    ([1000, 1000], [math.inf, 5.0]),
    ([1000, 1000], [math.nan, 1000.0]),
    ([math.nan, 1000], [1000.0, 1000.0]),
    ([math.inf, 1000], [1000.0, 1000.0]),
    ([1000, 1000, 3], [1000.0, 1000.0, -math.inf]),
])
def test_chi_square_cells_must_be_finite(observed, expected):
    # an infinite expected count gave inf / inf and a warning, a NaN count
    # a silent NaN p-value
    with pytest.raises(ConfigError, match="finite"):
        pool_cells(observed, expected)
    with pytest.raises(ConfigError, match="finite"):
        pooled_chi_square(observed, expected)


def test_chi_square_takes_a_cell_rounded_below_0():
    # S6's last expected cell is replicas minus a float sum
    observed = [500, 497, 2, 1]
    expected = [500.0, 495.0, 5.0, -1e-13]
    assert pool_cells(observed, expected) == ([500.0, 497.0, 3.0],
                                              [500.0, 495.0, 5.0 - 1e-13])
    assert 0.0 < pooled_chi_square(observed, expected) <= 1.0


def test_pooled_chi_square_detects_wrong_law():
    observed = [900, 100]
    expected = [500.0, 500.0]
    assert pooled_chi_square(observed, expected) < 1e-10


def test_poisson_pmf_test():
    rng = np.random.default_rng(5)
    n = 10 ** 4
    draws = rng.poisson(0.5, size=n)
    counts = np.bincount(draws, minlength=6)
    assert poisson_pmf_test(counts.tolist(), 0.5) > 0.001
    # everything at zero against rate 10 is impossible
    flat = [n] + [0] * 29
    assert poisson_pmf_test(flat, 10.0) < 1e-10
    with pytest.raises(InsufficientData):
        poisson_pmf_test([600], 0.5)
    with pytest.raises(InsufficientData):
        poisson_pmf_test([100, 100], 0.5)


@pytest.mark.parametrize("rate", [math.inf, math.nan, -1.0, -math.inf])
def test_poisson_pmf_test_rejects_a_bad_rate(rate):
    with pytest.raises(ConfigError):
        poisson_pmf_test([300, 200, 100], rate)


def test_poisson_pmf_test_at_rate_zero_has_one_cell():
    # rate 0 puts every expected count in the first cell
    with pytest.raises(InsufficientData):
        poisson_pmf_test([300, 200, 100], 0.0)


POISSON_RATES = (0.01, 0.05, 0.3 * math.pi, 0.5, 1.0, 3.7, 12.0, 40.0)


def test_special_function_forms_equal_scipy_stats(monkeypatch):
    """The instruments evaluate what scipy.stats evaluates, bit for bit."""
    from scipy.special import chdtrc

    xs = np.linspace(0.001, 200.0, 4001)
    for df in range(1, 40):
        assert np.array_equal(chdtrc(df, xs), sps.chi2.sf(xs, df))
    # pooled_chi_square's p-value, on unpooled cells of 5 + j
    rng = np.random.default_rng(6)
    for df in range(1, 40):
        expected = 5.0 + np.arange(df + 1)
        for _ in range(20):
            observed = rng.poisson(expected).astype(float)
            chi2 = float(np.sum((observed - expected) ** 2 / expected))
            assert pooled_chi_square(observed, expected) == sps.chi2.sf(chi2, df)
    # poisson_pmf_test's expected counts: the pmf, with the tail folded
    # into the last cell; scaling by 1024 is exact
    seen = []
    monkeypatch.setattr(fragsim.stats, "pooled_chi_square",
                        lambda counts, expected: seen.append(expected))
    for rate in POISSON_RATES:
        for size in range(1, 80):
            poisson_pmf_test([1024] + [0] * (size - 1), rate)
            expected = seen.pop() / 1024.0
            support = np.arange(size)
            pmf = sps.poisson.pmf(support, rate)
            assert np.array_equal(expected[:-1], pmf[:-1])
            assert expected[-1] == pmf[-1] + sps.poisson.sf(size - 1, rate)


def test_chi_square_cell_lists_must_have_one_length():
    # zip dropped the extra cell, so this read p = 1.0
    with pytest.raises(ConfigError, match="equal-length"):
        pooled_chi_square([500, 500, 10000], [500.0, 500.0])
    with pytest.raises(ConfigError, match="equal-length"):
        pool_cells([500.0, 500.0], [500.0, 500.0, 10000.0])


@pytest.mark.parametrize("rate", ["x", None, (1.0, 2.0)])
def test_a_poisson_rate_that_is_not_a_number_raises_config_error(rate):
    with pytest.raises(ConfigError, match="Poisson rate must be finite"):
        poisson_pmf_test([300, 200, 100], rate)


@pytest.mark.parametrize("observed", [["x", 500.0], [None, (1.0, 2.0)], 500.0],
                         ids=["str", "nested", "scalar"])
def test_chi_square_cells_must_be_a_list_of_numbers(observed):
    with pytest.raises(ConfigError, match="chi-square"):
        pool_cells(observed, [500.0, 500.0])
