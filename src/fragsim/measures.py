"""Dislocation measures on ranked relative-mass vectors.

A dislocation law assigns event rates to fragment vectors s = (s1 >= s2 >= ...)
with sum <= 1. Three families are provided:

  FiniteAtomic     weighted atoms, finite total rate
  BinaryPowerLaw   density a * x^(-a-1) on small piece x in (0, 1/2], pieces
                   (1-x, x); infinite activity near x = 0, 0 < a < 1
  BrennanDurrett   small piece min(V, 1-V) for a Beta(p, q) draw V, total rate 1

Every family satisfies the finite lost-mass condition: the integral of
(1 - s1) against the law is finite. tail_nu2 gives the rate of events whose
second piece is at least x; truncation keeps events with 1 - s1 >= eps,
whose total rate is finite by the Markov bound x * tail_nu2(x) <= dust
integral.
"""

from bisect import bisect_right

import numpy as np

from .errors import (
    ConfigError,
    DivergentMeasure,
    EmptyTruncation,
    InvalidFragmentVector,
    NegativeMass,
)
from .ranked_state import validate_fragments

_BISECT_LO = 1e-12
_BISECT_TOL = 1e-10


def _maybe_scalar(out):
    return float(out) if np.ndim(out) == 0 else out


class DislocationLaw:
    """Shared behavior; concrete families override the analytic pieces."""

    infinite_activity = False

    def tail_nu2(self, x):
        """Rate of dislocations whose second piece is >= x."""
        raise NotImplementedError

    def tail_nu2_strict(self, x):
        """Rate of dislocations whose second piece is > x.

        Differs from tail_nu2 only at atoms; this right-continuous version is
        what void probabilities of open intervals need.
        """
        return self.tail_nu2(x)

    def dust_integral(self):
        """Integral of (1 - s1) against the law."""
        raise NotImplementedError

    def truncated_mass(self, eps):
        """Total rate of dislocations with 1 - s1 >= eps."""
        raise NotImplementedError

    def sample_dislocation(self, eps, rng, total=None, u=None):
        """One fragment vector from the law conditioned on 1 - s1 >= eps.

        A law draws exactly one uniform, rng.random(), and draws none when
        given u: u stands in for that uniform, so a caller that drew it
        with other draws gets the very vector the law's own draw would give.
        total, when given, must be truncated_mass(eps); callers that draw
        many times at one eps compute it once and pass it in, which skips
        recomputing it per draw and leaves the draws unchanged.
        """
        raise NotImplementedError

    def gen_inverse_f(self, y):
        """inf over x > 0 with tail_nu2(x) <= y.

        Generic bisection on [1e-12, 1/2]; the returned point is kept inside
        the sublevel set so tail_nu2(result) <= y survives step tails.
        """
        lo, hi = _BISECT_LO, 0.5
        if self.tail_nu2(lo) <= y:
            return lo
        if self.tail_nu2(hi) > y:
            return hi
        while hi - lo > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if self.tail_nu2(mid) <= y:
                hi = mid
            else:
                lo = mid
        return hi


class FiniteAtomic(DislocationLaw):
    """Finitely many weighted fragment vectors. May be empty (no events)."""

    def __init__(self, atoms):
        cleaned = []
        for weight, fragments in atoms:
            weight = float(weight)
            if not weight > 0.0:
                raise NegativeMass(f"atom weight {weight} must be positive")
            fragments = validate_fragments(fragments)
            if fragments == (1.0,):
                raise InvalidFragmentVector(
                    "atom equal to the whole mass vector is a no-op and is forbidden")
            cleaned.append((weight, fragments))
        self.atoms = tuple(cleaned)
        self._w = np.array([w for w, _ in cleaned], dtype=float)
        self._s1 = np.array([f[0] if f else 0.0 for _, f in cleaned], dtype=float)
        self._s2 = np.array([f[1] if len(f) > 1 else 0.0 for _, f in cleaned], dtype=float)
        self._trunc_cache = None

    def __repr__(self):
        return f"FiniteAtomic({list(self.atoms)!r})"

    def tail_nu2(self, x):
        x = np.asarray(x, dtype=float)
        out = np.sum(self._w * (self._s2 >= x[..., None]), axis=-1)
        return _maybe_scalar(out)

    def tail_nu2_strict(self, x):
        x = np.asarray(x, dtype=float)
        out = np.sum(self._w * (self._s2 > x[..., None]), axis=-1)
        return _maybe_scalar(out)

    def dust_integral(self):
        return float(np.sum(self._w * (1.0 - self._s1)))

    def truncated_mass(self, eps):
        return self._truncation(eps)[3]

    def _truncation(self, eps):
        """The cache entry for eps, read once: (eps, the kept atoms'
        cumulative weights as a list, their fragment vectors, their total
        weight)."""
        cache = self._trunc_cache
        if cache is None or cache[0] != eps:
            keep = np.flatnonzero((1.0 - self._s1) >= eps)
            w = self._w[keep]
            cache = (eps, np.cumsum(w).tolist(),
                     tuple(self.atoms[i][1] for i in keep), float(np.sum(w)))
            self._trunc_cache = cache
        return cache

    def sample_dislocation(self, eps, rng, total=None, u=None):
        # draws against the cached cumulative weights; total is not needed.
        # bisect_right returns the index np.searchsorted(side="right") would.
        _, cum, fragments, _ = self._truncation(eps)
        if not fragments:
            raise EmptyTruncation(f"no atoms with 1 - s1 >= {eps}")
        if u is None:
            u = rng.random()
        i = bisect_right(cum, u * cum[-1])
        return fragments[min(i, len(fragments) - 1)]


class BinaryPowerLaw(DislocationLaw):
    """Conservative binary splits (1 - x, x), small piece density a*x^(-a-1).

    Requires 0 < a < 1; at a >= 1 the lost-mass integral diverges and the
    law admits no fragmentation process.
    """

    infinite_activity = True

    def __init__(self, a):
        a = float(a)
        if not 0.0 < a < 1.0:
            raise DivergentMeasure(
                f"exponent a={a}: lost-mass integral is finite only for 0 < a < 1")
        self.a = a
        self._two_a = 2.0 ** a
        self._neg_inv_a = -1.0 / a
        self._mass_cache = None  # (eps, truncated_mass(eps))

    def __repr__(self):
        return f"BinaryPowerLaw(a={self.a})"

    def tail_nu2(self, x):
        # closed form x^(-a) - 2^a on (0, 1/2]; zero beyond, divergent at 0
        x = np.asarray(x, dtype=float)
        safe = np.maximum(x, 1e-300)
        out = np.where(x > 0.5, 0.0, safe ** (-self.a) - self._two_a)
        out = np.where(x <= 0.0, np.inf, out)
        return _maybe_scalar(out)

    def dust_integral(self):
        return self.a / (1.0 - self.a) * 0.5 ** (1.0 - self.a)

    def truncated_mass(self, eps):
        cache = self._mass_cache
        if cache is None or cache[0] != eps:
            if eps <= 0.0:
                raise EmptyTruncation(
                    "binary power law needs a positive truncation")
            cache = (eps, max(self.tail_nu2(eps), 0.0))
            self._mass_cache = cache
        return cache[1]

    def sample_dislocation(self, eps, rng, total=None, u=None):
        if total is None:
            total = self.truncated_mass(eps)
        if total <= 0.0:
            raise EmptyTruncation(f"no dislocations with second piece >= {eps}")
        if u is None:
            u = rng.random()
        s2 = (u * total + self._two_a) ** self._neg_inv_a
        return (1.0 - s2, s2)

    def gen_inverse_f(self, y):
        # below 0 no x has tail_nu2(x) <= y; 1/2 is the bisection's answer
        if y < 0.0:
            return 0.5
        return (y + self._two_a) ** self._neg_inv_a


class BrennanDurrett(DislocationLaw):
    """Unit-rate binary splits (max(V, 1-V), min(V, 1-V)) with V ~ Beta(p, q).

    The only law that needs scipy.stats and scipy.integrate; it imports them
    itself, so the other laws run without loading them. It draws through
    scipy.special's betaincinv, which gives the frozen scipy.stats.beta's
    ppf bit for bit and skips its argument handling.
    """

    def __init__(self, p, q):
        p, q = float(p), float(q)
        if p <= 0.0 or q <= 0.0:
            raise DivergentMeasure(f"Beta parameters must be positive, got ({p}, {q})")
        from scipy import special, stats

        self.p = p
        self.q = q
        self._beta = stats.beta(p, q)
        self._betainc = special.betainc
        self._betaincinv = special.betaincinv
        self._cdf_cache = None  # (eps, Beta(p, q) cdf at eps)

    def __repr__(self):
        return f"BrennanDurrett(p={self.p}, q={self.q})"

    def tail_nu2(self, x):
        # P(x <= V <= 1-x), the chance the smaller piece reaches x
        x = np.asarray(x, dtype=float)
        inside = np.clip(x, 0.0, 0.5)
        out = self._beta.cdf(1.0 - inside) - self._beta.cdf(inside)
        out = np.where(x > 0.5, 0.0, out)
        out = np.where(x <= 0.0, 1.0, out)
        return _maybe_scalar(out)

    def dust_integral(self):
        from scipy import integrate

        val, _ = integrate.quad(
            lambda v: min(v, 1.0 - v) * self._beta.pdf(v), 0.0, 1.0, points=[0.5])
        return val

    def truncated_mass(self, eps):
        return self.tail_nu2(eps)

    def sample_dislocation(self, eps, rng, total=None, u=None):
        # total = cdf(1 - eps) - cdf(eps), the width of the kept V-interval
        if total is None:
            total = self.truncated_mass(eps)
        if total <= 0.0:
            raise EmptyTruncation(f"no splits with smaller piece >= {eps}")
        cache = self._cdf_cache
        if cache is None or cache[0] != eps:
            # the cdf is 0 below the support, where betainc is NaN
            cache = (eps, self._betainc(self.p, self.q, max(eps, 0.0)))
            self._cdf_cache = cache
        if u is None:
            u = rng.random()
        v = float(self._betaincinv(self.p, self.q, cache[1] + u * total))
        return (max(v, 1.0 - v), min(v, 1.0 - v))


# --- measure specification grammar -----------------------------------------
#
#   measure = atomic; atoms = w:s1,s2,...;w:s1,s2,...
#   measure = binary_power; a = <real>
#   measure = brennan_durrett; p = <real>; q = <real>

_MEASURE_KEYS = {
    "atomic": {"atoms"},
    "binary_power": {"a"},
    "brennan_durrett": {"p", "q"},
}


def _split_fields(text):
    """Split 'k = v; k = v' into a dict; ';' chunks without '=' extend the
    previous value (atom lists use ';' internally)."""
    fields = {}
    last = None
    for chunk in text.split(";"):
        if "=" in chunk:
            key, value = chunk.split("=", 1)
            key = key.strip()
            if key in fields:
                raise ConfigError(f"duplicate key {key!r} in measure spec")
            fields[key] = value.strip()
            last = key
        else:
            if last is None or not chunk.strip():
                raise ConfigError(f"dangling fragment {chunk!r} in measure spec")
            fields[last] += ";" + chunk.strip()
    return fields


def _parse_atoms(text):
    atoms = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        try:
            weight, frag = piece.split(":", 1)
            atoms.append((float(weight), tuple(float(v) for v in frag.split(","))))
        except ValueError as exc:
            raise ConfigError(f"bad atom {piece!r}: expected w:s1,s2,...") from exc
    return atoms


def parse_measure(text):
    """Build a DislocationLaw from a grammar string."""
    fields = _split_fields(text)
    kind = fields.pop("measure", None)
    if kind is None:
        raise ConfigError("measure spec must start with 'measure = <family>'")
    if kind not in _MEASURE_KEYS:
        raise ConfigError(f"unknown measure family {kind!r}")
    extra = set(fields) - _MEASURE_KEYS[kind]
    if extra:
        raise ConfigError(f"keys {sorted(extra)} not valid for measure {kind!r}")
    missing = _MEASURE_KEYS[kind] - set(fields)
    if missing:
        raise ConfigError(f"measure {kind!r} needs keys {sorted(missing)}")
    try:
        if kind == "atomic":
            return FiniteAtomic(_parse_atoms(fields["atoms"]))
        if kind == "binary_power":
            return BinaryPowerLaw(float(fields["a"]))
        return BrennanDurrett(float(fields["p"]), float(fields["q"]))
    except (ValueError, NegativeMass, InvalidFragmentVector, DivergentMeasure) as exc:
        raise ConfigError(f"bad measure spec: {exc}") from exc
