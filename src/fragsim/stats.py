"""Statistical instruments for the verification suites.

Kolmogorov-Smirnov machinery works on the order statistics directly, so
it is exact for atomic reference laws (no binning). The chi-square path
pools cells left to right until every expected count reaches five, the
usual validity rule for the asymptotic chi-square distribution.

The chi-square p-value is scipy.special.chdtrc and the Poisson tail is
scipy.special.pdtrc, the functions scipy.stats.chi2.sf and poisson.sf
evaluate; the Poisson pmf is scipy.stats' own log-space form. scipy.special
is imported on first use, so importing this module loads no scipy.
"""

import math

import numpy as np

from .errors import ConfigError, EmptySample, InsufficientData, check_range

_MIN_CHI_TOTAL = 500
_MIN_EXPECTED = 5.0


def _eval_cdf(cdf, xs):
    """Evaluate a CDF on an array, tolerating scalar-only callables."""
    try:
        out = np.asarray(cdf(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(cdf(x)) for x in xs])


def ks_stat(samples, cdf, x_min=None):
    """One-sample KS statistic, optionally restricted to x >= x_min.

    Ties are collapsed to distinct points carrying their full jump, and the
    below-the-jump comparison evaluates the reference one ulp to the left,
    so a sample sitting exactly on a matching reference atom scores zero.
    For distinct samples against a continuous reference this agrees with
    the classical order-statistic formula.

    The restricted form compares the full-sample ECDF to the reference on
    [x_min, inf) only; it is the instrument for laws that are exact above
    a truncation level and deliberately wrong below it.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise EmptySample("ks_stat of an empty sample")
    vals, counts = np.unique(xs, return_counts=True)
    cum = np.cumsum(counts)
    upper = cum / n
    lower = (cum - counts) / n
    F_at = _eval_cdf(cdf, vals)
    F_before = _eval_cdf(cdf, np.nextafter(vals, -np.inf))
    dev = np.maximum(np.abs(upper - F_at), np.abs(lower - F_before))
    if x_min is None:
        return float(dev.max())
    mask = vals >= x_min
    # The flat ECDF stretch entering x_min contributes at the cut point.
    at_cut = abs(np.count_nonzero(xs <= x_min) / n
                 - float(_eval_cdf(cdf, np.array([float(x_min)]))[0]))
    return float(max(dev[mask].max(), at_cut)) if mask.any() else float(at_cut)


def ks_two_sample(a, b):
    """Two-sample KS statistic evaluated over the pooled sample points."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptySample("two-sample KS with an empty side")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def pool_cells(observed, expected):
    """Pool adjacent cells left to right until each expected count is >= 5,
    folding a trailing remainder into the last closed cell, and return the
    pooled observed and expected lists. Two lists of differing lengths, or
    a count that is not a finite number, raise ConfigError, and fewer than
    two cells raise InsufficientData; which cells form depends on expected
    alone."""
    try:
        observed = np.asarray(observed, dtype=float)
        expected = np.asarray(expected, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("chi-square cell counts must be numbers") from None
    if observed.ndim != 1 or observed.shape != expected.shape:
        raise ConfigError(f"chi-square needs two equal-length lists of cell "
                          f"counts, got shapes {observed.shape} and "
                          f"{expected.shape}")
    if not (np.isfinite(observed).all() and np.isfinite(expected).all()):
        raise ConfigError("chi-square cell counts must be finite")
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    # Python floats: a sum past the float range is inf, with no warning
    for o, e in zip(observed.tolist(), expected.tolist()):
        acc_o += o
        acc_e += e
        if acc_e >= _MIN_EXPECTED:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if (acc_e > 0.0 or acc_o > 0.0) and pooled_exp:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    if len(pooled_exp) < 2:
        raise InsufficientData("fewer than two cells after pooling")
    return pooled_obs, pooled_exp


def pooled_chi_square(observed, expected):
    """Chi-square p-value on pool_cells' cells, with cells - 1 degrees of freedom."""
    pooled_obs, pooled_exp = pool_cells(observed, expected)
    chi2 = float(np.sum((np.array(pooled_obs) - np.array(pooled_exp)) ** 2
                        / np.array(pooled_exp)))
    from scipy.special import chdtrc

    return float(chdtrc(len(pooled_exp) - 1, chi2))


def poisson_pmf_test(counts, rate):
    """Chi-square p-value of an integer histogram against a Poisson pmf.

    counts[m] is the number of observations equal to m; the tail mass
    beyond the histogram folds into the last cell. The rate must be finite
    and non-negative.
    """
    check_range(rate, lambda r: 0.0 <= r < math.inf,
                "Poisson rate must be finite and >= 0, got {}")
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total < _MIN_CHI_TOTAL:
        raise InsufficientData(
            f"Poisson test needs >= {_MIN_CHI_TOTAL} observations, got {total}")
    from scipy.special import gammaln, pdtrc, xlogy

    support = np.arange(counts.size)
    expected = total * np.exp(xlogy(support, rate) - gammaln(support + 1) - rate)
    expected[-1] += total * pdtrc(counts.size - 1, rate)
    return pooled_chi_square(counts, expected)
