"""Small-time limit laws and their reference objects.

The size of the largest fragment, while it stays above half the total, is
exp(-xi) for a killed subordinator xi. The second-largest fragment is
squeezed between the running record of detached piece sizes and that record
damped by the accumulated lead factors. Rescaled by the generalized inverse
of the tail, small-time fragment sizes follow heavy-tail extreme laws.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateNormalizer


@dataclass(frozen=True)
class SubordinatorSpec:
    """Killed compound-Poisson subordinator with drift.

    Jumps arrive at jump_rate; jump_sampler(rng) draws one jump size. The
    path is sent to a graveyard at killing_rate. The drift must be finite,
    both rates finite and >= 0, and a sampler is required when jump_rate > 0.
    """

    drift: float
    killing_rate: float
    jump_rate: float
    jump_sampler: object = None

    def __post_init__(self):
        if not -math.inf < self.drift < math.inf:
            raise ConfigError(f"drift {self.drift} must be finite")
        for name in ("killing_rate", "jump_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{name} {value} must be finite and >= 0")
        if self.jump_rate > 0.0 and self.jump_sampler is None:
            raise ConfigError("a positive jump_rate needs a jump_sampler")


def run_subordinator(spec, t, rng):
    """Value at time t and whether the path is still alive at t.

    Draws the killing time, the jump count on [0, t], the sorted jump
    times and then one jump_sampler call per jump, in that order, so the
    kill time, jump count and jump times do not depend on how sizes are
    drawn. A killed path reports its value at the killing time: the drift
    up to min(t, kill) plus the jumps at or before it, added in time order.
    A horizon t that is not finite and >= 0 raises ConfigError before any
    draw.
    """
    if not 0.0 <= t < math.inf:
        raise ConfigError(f"subordinator horizon t {t!r} must be finite and >= 0")
    if spec.killing_rate > 0.0:
        kill = rng.exponential(1.0 / spec.killing_rate)
    else:
        kill = math.inf
    count = rng.poisson(spec.jump_rate * t) if spec.jump_rate > 0.0 else 0
    times = np.sort(rng.random(count)) * t
    sizes = [spec.jump_sampler(rng) for _ in range(count)]
    cut = min(t, kill)
    value = spec.drift * cut
    for when, size in zip(times.tolist(), sizes):
        if when <= cut:
            value += size
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
