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
from .measures import _points, _query

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

    samples is a number or an array of numbers, read flat; anything else,
    an x_min that is not a number or is NaN, or a cdf that is not callable
    raises ConfigError.
    """
    xs = np.sort(_points(samples, "KS sample"), axis=None)
    if not callable(cdf):
        raise ConfigError(f"KS reference cdf {cdf!r} must be callable")
    if x_min is not None:
        x_min = _query(x_min, "KS cut x_min")
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
    """Two-sample KS statistic evaluated over the pooled sample points.

    Each sample is read as ks_stat reads its sample."""
    a = np.sort(_points(a, "KS sample"), axis=None)
    b = np.sort(_points(b, "KS sample"), axis=None)
    if a.size == 0 or b.size == 0:
        raise EmptySample("two-sample KS with an empty side")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


def pool_cells(observed, expected):
    """Pool adjacent cells left to right until each expected count is >= 5,
    folding a trailing remainder into the last closed cell, and return the
    pooled observed and expected lists. Two lists of differing lengths, a
    count that is not a finite number, or a negative observed count raise
    ConfigError, and fewer than two cells raise InsufficientData; which
    cells form depends on expected alone. An expected count may be a hair
    below 0, as a remainder cell total - sum(expected) can round."""
    observed = _points(observed, "chi-square observed counts")
    expected = _points(expected, "chi-square expected counts")
    if observed.ndim != 1 or observed.shape != expected.shape:
        raise ConfigError(f"chi-square needs two equal-length lists of cell "
                          f"counts, got shapes {observed.shape} and "
                          f"{expected.shape}")
    if not (np.isfinite(observed).all() and np.isfinite(expected).all()):
        raise ConfigError("chi-square cell counts must be finite")
    if (observed < 0.0).any():
        raise ConfigError("chi-square observed counts must be >= 0")
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
    """Chi-square p-value on pool_cells' cells, with cells - 1 degrees of freedom.

    A cell whose squared deviation passes the float range scores chi2 =
    inf, with no warning, and so p = 0.0.
    """
    pooled_obs, pooled_exp = pool_cells(observed, expected)
    with np.errstate(over="ignore"):
        chi2 = float(np.sum((np.array(pooled_obs) - np.array(pooled_exp)) ** 2
                            / np.array(pooled_exp)))
    from scipy.special import chdtrc

    return float(chdtrc(len(pooled_exp) - 1, chi2))


def poisson_pmf_test(counts, rate):
    """Chi-square p-value of an integer histogram against a Poisson pmf.

    counts[m] is the number of observations equal to m; the tail mass
    beyond the histogram folds into the last cell. The rate must be finite
    and non-negative. counts are read as pool_cells reads observed counts;
    fewer than 500 observations raise InsufficientData.
    """
    check_range(rate, lambda r: 0.0 <= r < math.inf,
                "Poisson rate must be finite and >= 0, got {}")
    counts = _points(counts, "Poisson histogram counts")
    total = counts.sum()
    if total < _MIN_CHI_TOTAL:
        raise InsufficientData(
            f"Poisson test needs >= {_MIN_CHI_TOTAL} observations, got {total}")
    from scipy.special import gammaln, pdtrc, xlogy

    support = np.arange(counts.size)
    expected = total * np.exp(xlogy(support, rate) - gammaln(support + 1) - rate)
    expected[-1] += total * pdtrc(counts.size - 1, rate)
    return pooled_chi_square(counts, expected)
