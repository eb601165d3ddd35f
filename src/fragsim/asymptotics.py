"""Small-time limit laws and their reference objects.

The size of the largest fragment, while it stays above half the total, is
exp(-xi) for a killed subordinator xi. For a one-atom law every jump of xi
has the one size -log s1, so xi is that size times a killed Poisson
count; run_subordinator samples the count from three draws (the killing
time, the jump count, the jump times) and none per jump. The
second-largest fragment is squeezed between the running record of
detached piece sizes and that record damped by the accumulated lead
factors. Rescaled by the generalized inverse of the tail, small-time
fragment sizes follow heavy-tail extreme laws.
"""

import math

import numpy as np

from .errors import ConfigError, DegenerateNormalizer, check_range
from .measures import _maybe_scalar, _points, _query, check_law


def check_subordinator(killing_rate, jump_rate, t):
    """Raise ConfigError unless the horizon and rates are finite and >= 0
    and the mean jump count is at most 1e7 (80 MB of jump times)."""
    for name, value in (("horizon t", t), ("killing_rate", killing_rate),
                        ("jump_rate", jump_rate)):
        check_range(value, lambda v: 0.0 <= v < math.inf,
                    f"subordinator {name} {{!r}} must be finite and >= 0")
    if jump_rate * t > 1e7:
        raise ConfigError(f"subordinator mean jump count {jump_rate * t!r} "
                          f"exceeds 1e7; lower jump_rate or t")


def run_subordinator(killing_rate, jump_rate, t, rng):
    """Jump count by time t, as an int, and whether the path is alive at t.

    A killed Poisson process: a killed subordinator whose jumps all have
    one size is that size times this count. It draws the killing time,
    the jump count on [0, t] and the jump times, in that order, and
    nothing per jump. A killed path counts the jumps at or before the
    killing time. Inputs check_subordinator rejects raise ConfigError
    before any draw.
    """
    check_subordinator(killing_rate, jump_rate, t)
    if killing_rate > 0.0:
        kill = rng.exponential(1.0 / killing_rate)
    else:
        kill = math.inf
    count = rng.poisson(jump_rate * t) if jump_rate > 0.0 else 0
    jumps = np.count_nonzero(rng.random(count) * t <= min(t, kill))
    return int(jumps), kill > t


def record_cdf(law, t, x):
    """P(running record of second pieces up to t is <= x).

    The record stays <= x exactly when no dislocation with second piece in
    (x, inf) arrives by t, so this is exp(-t * strict tail). Exact for the
    eps-truncated stream whenever x >= eps. A law that is not a
    DislocationLaw, or a horizon t that is not finite and >= 0, raises
    ConfigError.
    """
    check_law(law)
    check_range(t, lambda t: 0.0 <= t < math.inf,
                "record horizon t {!r} must be finite and >= 0")
    x = _points(x, "record level x")
    if t == 0.0:
        # nothing arrives by time 0, even where the tail is infinite
        out = np.ones_like(x)
    else:
        # a t times tail past the float range makes the cdf 0
        with np.errstate(over="ignore"):
            out = np.exp(-t * np.asarray(law.tail_nu2_strict(x), dtype=float))
    return _maybe_scalar(np.where(x < 0.0, 0.0, out))


def extreme_cdf(x, a):
    """Heavy-tail extreme law exp(-x^(-a)) on x > 0: frechet_k_cdf at k = 1,
    which checks a."""
    return frechet_k_cdf(1, a, x)


def frechet_k_cdf(k, a, x):
    """Law of the k-th largest point of the limiting extremal point process.

    P(at most k-1 points above x) = sum over i < k of exp(-m) m^i / i! with
    m = x^(-a). A k that is not an int >= 1, an a that is not a finite
    number > 0, or an x that is not a number or an array of numbers raises
    ConfigError.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ConfigError(f"record rank k {k!r} must be an int >= 1")
    check_range(a, lambda a: 0.0 < a < math.inf,
                "Frechet exponent a {!r} must be finite and > 0")
    x = _points(x, "Frechet point x")
    # x <= 0, or an x whose power overflows, makes m infinite and the cdf
    # 0; the terms are NaN there, and the where below masks them, as it
    # does a NaN x. np.maximum makes a 0-d x a float64, whose pow is the
    # scalar one
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = np.maximum(x, 0.0) ** -a
        total = np.zeros_like(m)
        term = np.exp(-m)
        for i in range(k):
            total = total + term
            term = term * m / (i + 1)
    return _maybe_scalar(np.where(m < np.inf, total, 0.0))


def normalize_lambda2(law, t, value):
    """Rescale a fragment size by the tail's generalized inverse at 1/t,
    for a DislocationLaw law, a finite t > 0 and a value that is a number
    and not NaN."""
    check_law(law)
    check_range(t, lambda t: 0.0 < t < math.inf,
                "normalizing horizon t {!r} must be finite and > 0")
    value = _query(value, "fragment size")
    denom = law.gen_inverse_f(1.0 / t)
    if denom <= 0.0:
        raise DegenerateNormalizer(
            f"gen_inverse_f(1/{t}) = 0; no nondegenerate rescaling exists")
    return value / denom
