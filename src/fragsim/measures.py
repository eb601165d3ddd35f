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

import numbers
from bisect import bisect_right
from functools import reduce
from operator import add

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


def _number(value, what):
    """float(value); a value float() refuses raises ConfigError naming what."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} {value!r} must be a number") from None


def _query(value, what):
    """A law query's scalar argument as a float; a value that is not a real
    number, or is NaN, raises ConfigError naming what. A float is taken
    without the isinstance check, which costs an ABC lookup."""
    if (type(value) is float or isinstance(value, numbers.Real)) \
            and value == value:
        return float(value)
    raise ConfigError(f"{what} {value!r} must be a number")


def _points(x, what="tail point"):
    """np.asarray(x, dtype=float) for a query at points x. An x numpy
    cannot read as floats, such as a str, and None, alone or anywhere in a
    sequence, which numpy would read as NaN, raise ConfigError naming
    what; a NaN float maps as numpy maps it."""
    try:
        # a numeric array holds no None, so only other inputs are boxed
        if (getattr(x, "dtype", object) != object
                or None not in np.asarray(x, dtype=object).flat):
            return np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{what} {x!r} must be a number or an array of "
                      f"numbers")


def check_law(law):
    """Raise ConfigError unless law is a DislocationLaw."""
    if not isinstance(law, DislocationLaw):
        raise ConfigError(f"law {law!r} must be a DislocationLaw")


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

    def sample_dislocation(self, eps, total, u):
        """Map u, uniform on [0, 1), to a fragment vector of the law
        conditioned on 1 - s1 >= eps; total must be truncated_mass(eps).
        The law draws nothing (next_event draws u with the event's other
        numbers), and a zero total raises EmptyTruncation."""
        raise NotImplementedError

    def gen_inverse_f(self, y):
        """inf over x > 0 with tail_nu2(x) <= y.

        Generic bisection on [1e-12, 1/2]; the returned point is kept inside
        the sublevel set so tail_nu2(result) <= y survives step tails. A y
        that is not a number, or is NaN, raises ConfigError.
        """
        y = _query(y, "tail level y")
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
    """Finitely many weighted fragment vectors. May be empty (no events).

    atoms is an iterable of (weight, fragments) pairs; anything else
    raises ConfigError.
    """

    def __init__(self, atoms):
        try:
            atoms = [(weight, fragments) for weight, fragments in atoms]
        except (TypeError, ValueError):
            raise ConfigError(f"atoms {atoms!r} must be a sequence of "
                              f"(weight, fragments) pairs") from None
        cleaned = []
        for weight, fragments in atoms:
            weight = _number(weight, "atom weight")
            if not weight > 0.0:
                raise NegativeMass(f"atom weight {weight} must be positive")
            fragments = validate_fragments(fragments)
            if fragments == (1.0,):
                raise InvalidFragmentVector(
                    "atom equal to the whole mass vector is a no-op and is forbidden")
            cleaned.append((weight, fragments))
        if not reduce(add, (w for w, _ in cleaned), 0.0) < np.inf:
            # an infinite rate would make every wait 0
            raise DivergentMeasure("atom weights must have a finite sum")
        self.atoms = tuple(cleaned)
        self._w = np.array([w for w, _ in cleaned], dtype=float)
        self._s1 = np.array([f[0] if f else 0.0 for _, f in cleaned], dtype=float)
        self._s2 = np.array([f[1] if len(f) > 1 else 0.0 for _, f in cleaned], dtype=float)
        self._trunc_cache = None

    def __repr__(self):
        return f"FiniteAtomic({list(self.atoms)!r})"

    def tail_nu2(self, x):
        x = _points(x)
        out = np.sum(self._w * (self._s2 >= x[..., None]), axis=-1)
        return _maybe_scalar(out)

    def tail_nu2_strict(self, x):
        x = _points(x)
        out = np.sum(self._w * (self._s2 > x[..., None]), axis=-1)
        return _maybe_scalar(out)

    def dust_integral(self):
        return float(np.sum(self._w * (1.0 - self._s1)))

    def truncated_mass(self, eps):
        return self._truncation(_query(eps, "truncation eps"))[3]

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

    def sample_dislocation(self, eps, total, u):
        # maps u against the cached cumulative weights; total is not needed.
        # bisect_right returns the index np.searchsorted(side="right") would.
        _, cum, fragments, _ = self._truncation(eps)
        if not fragments:
            raise EmptyTruncation(f"no atoms with 1 - s1 >= {eps}")
        i = bisect_right(cum, u * cum[-1])
        return fragments[min(i, len(fragments) - 1)]


class BinaryPowerLaw(DislocationLaw):
    """Conservative binary splits (1 - x, x), small piece density a*x^(-a-1).

    Requires 0 < a < 1; at a >= 1 the lost-mass integral diverges and the
    law admits no fragmentation process. truncated_mass keeps no memo, as
    SimConfig computes it once per config.
    """

    infinite_activity = True

    def __init__(self, a):
        a = _number(a, "exponent a")
        if not 0.0 < a < 1.0:
            raise DivergentMeasure(
                f"exponent a={a}: lost-mass integral is finite only for 0 < a < 1")
        self.a = a
        self._two_a = 2.0 ** a
        self._neg_inv_a = -1.0 / a

    def __repr__(self):
        return f"BinaryPowerLaw(a={self.a})"

    def tail_nu2(self, x):
        # closed form x^(-a) - 2^a on (0, 1/2]; zero beyond, divergent at 0.
        # np.maximum makes a 0-d x a float64, whose pow is the scalar one
        x = _points(x)
        with np.errstate(divide="ignore"):  # x <= 0 is masked to inf below
            out = np.where(x > 0.5, 0.0, np.maximum(x, 0.0) ** -self.a
                           - self._two_a)
        out = np.where(x <= 0.0, np.inf, out)
        return _maybe_scalar(out)

    def dust_integral(self):
        return self.a / (1.0 - self.a) * 0.5 ** (1.0 - self.a)

    def truncated_mass(self, eps):
        eps = _query(eps, "truncation eps")
        if eps <= 0.0:
            raise EmptyTruncation(
                "binary power law needs a positive truncation")
        return max(self.tail_nu2(eps), 0.0)

    def sample_dislocation(self, eps, total, u):
        if total <= 0.0:
            raise EmptyTruncation(f"no dislocations with second piece >= {eps}")
        s2 = (u * total + self._two_a) ** self._neg_inv_a
        if s2 > 0.5:
            # u * total below half an ulp of 2**a rounds the sum to 2**a,
            # whose power can round above 1/2; the small piece is 1/2 there
            s2 = 0.5
        return (1.0 - s2, s2)

    def gen_inverse_f(self, y):
        # below 0 no x has tail_nu2(x) <= y; 1/2 is the bisection's answer
        y = _query(y, "tail level y")
        if y < 0.0:
            return 0.5
        return (y + self._two_a) ** self._neg_inv_a


class BrennanDurrett(DislocationLaw):
    """Unit-rate binary splits (max(V, 1-V), min(V, 1-V)) with V ~ Beta(p, q).

    The only law that needs scipy; it imports scipy.special itself, so the
    other laws run without loading it. Its tail is betainc, its draws are
    betaincinv (the frozen scipy.stats.beta's cdf and ppf, bit for bit,
    without their argument handling), and its dust integral is closed form.
    """

    def __init__(self, p, q):
        p, q = _number(p, "Beta parameter p"), _number(q, "Beta parameter q")
        if not (0.0 < p < np.inf and 0.0 < q < np.inf):
            raise DivergentMeasure(f"Beta parameters ({p}, {q}) must be finite and > 0")
        from scipy import special

        self.p = p
        self.q = q
        self._betainc = special.betainc
        self._betaincinv = special.betaincinv
        self._cdf_cache = None  # (eps, Beta(p, q) cdf at eps)

    def __repr__(self):
        return f"BrennanDurrett(p={self.p}, q={self.q})"

    def tail_nu2(self, x):
        # P(x <= V <= 1-x), the chance the smaller piece reaches x
        x = _points(x)
        inside = np.clip(x, 0.0, 0.5)
        cdf = self._betainc
        out = cdf(self.p, self.q, 1.0 - inside) - cdf(self.p, self.q, inside)
        out = np.where(x > 0.5, 0.0, out)
        out = np.where(x <= 0.0, 1.0, out)
        return _maybe_scalar(out)

    def dust_integral(self):
        # E[min(V, 1-V)] = E[V; V < 1/2] + E[1-V; V >= 1/2], and v times the
        # Beta(p, q) density is p/(p+q) times the Beta(p+1, q) density
        p, q = self.p, self.q
        low = self._betainc(p + 1.0, q, 0.5)
        high = 1.0 - self._betainc(p, q + 1.0, 0.5)
        return float(p / (p + q) * low + q / (p + q) * high)

    def truncated_mass(self, eps):
        return self.tail_nu2(_query(eps, "truncation eps"))

    def sample_dislocation(self, eps, total, u):
        # total = cdf(1 - eps) - cdf(eps), the width of the kept V-interval
        if total <= 0.0:
            raise EmptyTruncation(f"no splits with smaller piece >= {eps}")
        cache = self._cdf_cache
        if cache is None or cache[0] != eps:
            # the cdf is 0 below the support, where betainc is NaN
            cache = (eps, self._betainc(self.p, self.q, max(eps, 0.0)))
            self._cdf_cache = cache
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
    previous value (atom lists use ';' internally). A text that is not a
    str, as None, raises ConfigError."""
    try:
        chunks = text.split(";")
    except AttributeError:
        raise ConfigError(f"measure spec {text!r} must be a str") from None
    fields = {}
    last = None
    for chunk in chunks:
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
