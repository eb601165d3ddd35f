"""Small-time limit laws and their reference objects.

The size of the largest fragment, while it stays above half the total, is
exp(-xi) for a killed subordinator xi. For a one-atom law every jump of xi
has the one size -log s1; run_subordinator samples that case from three
draws (the killing time, the jump count, the jump times) and none per
jump. The second-largest fragment is squeezed between the running record
of detached piece sizes and that record damped by the accumulated lead
factors. Rescaled by the generalized inverse of the tail, small-time
fragment sizes follow heavy-tail extreme laws.
"""

import math

import numpy as np

from .errors import ConfigError, DegenerateNormalizer, check_range


def run_subordinator(killing_rate, jump_rate, jump, t, rng):
    """Value at time t and whether the path is still alive at t.

    A killed compound Poisson process whose jumps all have size jump. It
    draws the killing time, the jump count on [0, t] and the sorted jump
    times, in that order, and nothing per jump. A killed path reports its
    value at the killing time: the jumps at or before it, added one at a
    time in time order. A horizon, rate or jump that is not finite and
    >= 0, or a mean jump count jump_rate * t above 1e7 (80 MB of jump
    times), raises ConfigError before any draw.
    """
    for name, value in (("horizon t", t), ("killing_rate", killing_rate),
                        ("jump_rate", jump_rate), ("jump", jump)):
        check_range(value, lambda v: 0.0 <= v < math.inf,
                    f"subordinator {name} {{!r}} must be finite and >= 0")
    if jump_rate * t > 1e7:
        raise ConfigError(f"subordinator mean jump count {jump_rate * t!r} "
                          f"exceeds 1e7; lower jump_rate or t")
    if killing_rate > 0.0:
        kill = rng.exponential(1.0 / killing_rate)
    else:
        kill = math.inf
    count = rng.poisson(jump_rate * t) if jump_rate > 0.0 else 0
    times = np.sort(rng.random(count)) * t
    cut = min(t, kill)
    value = 0.0
    for when in times.tolist():
        if when <= cut:
            value += jump
    return value, kill > t


def record_cdf(law, t, x):
    """P(running record of second pieces up to t is <= x).

    The record stays <= x exactly when no dislocation with second piece in
    (x, inf) arrives by t, so this is exp(-t * strict tail). Exact for the
    eps-truncated stream whenever x >= eps.
    """
    x = np.asarray(x, dtype=float)
    if t == 0.0:
        # nothing arrives by time 0, even where the tail is infinite
        out = np.ones_like(x)
    else:
        out = np.exp(-t * np.asarray(law.tail_nu2_strict(x), dtype=float))
    out = np.where(x < 0.0, 0.0, out)
    return float(out) if out.ndim == 0 else out


def extreme_cdf(x, a):
    """Heavy-tail extreme law exp(-x^(-a)) on x > 0."""
    x = np.asarray(x, dtype=float)
    safe = np.maximum(x, 1e-300)
    out = np.where(x > 0.0, np.exp(-safe ** (-a)), 0.0)
    return float(out) if out.ndim == 0 else out


def frechet_k_cdf(k, a, x):
    """Law of the k-th largest point of the limiting extremal point process.

    P(at most k-1 points above x) = sum over i < k of exp(-m) m^i / i! with
    m = x^(-a).
    """
    x = np.asarray(x, dtype=float)
    safe = np.maximum(x, 1e-300)
    m = safe ** (-a)
    total = np.zeros_like(m)
    term = np.exp(-m)
    for i in range(k):
        total = total + term
        term = term * m / (i + 1)
    out = np.where(x > 0.0, total, 0.0)
    return float(out) if out.ndim == 0 else out


def normalize_lambda2(law, t, value):
    """Rescale a fragment size by the tail's generalized inverse at 1/t,
    for a finite t > 0."""
    if not 0.0 < t < math.inf:
        raise ConfigError(f"normalizing horizon t {t!r} must be finite and > 0")
    denom = law.gen_inverse_f(1.0 / t)
    if denom <= 0.0:
        raise DegenerateNormalizer(
            f"gen_inverse_f(1/{t}) = 0; no nondegenerate rescaling exists")
    return value / denom
