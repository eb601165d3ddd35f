"""Verification suites binding simulated paths to analytic oracles.

Each suite runs replicas of a pinned scenario and returns its check
results; run_suite wraps them, with the suite's claim from its _SUITES row
and the echoed parameters, into the one SuiteReport. Reports are
byte-stable: identical seed and config give identical text.

Replicas draw their streams from (seed, replica_index) and aggregation
is a fold in replica-index order. _leg runs every leg that draws one
ranked path per replica; run_suite refuses a _KS_SUITES run below
_MIN_KS_SAMPLES replicas. Suites testing a shrinking-horizon limit run
a second leg at a 10x larger horizon and assert the fit degrades, so
convergence is evidenced directionally rather than assumed.
"""

import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .asymptotics import (
    check_subordinator,
    extreme_cdf,
    frechet_k_cdf,
    normalize_lambda2,
    record_cdf,
    run_subordinator,
)
from .errors import ConfigError, RateOverflow, UnknownSuite
from .measures import BinaryPowerLaw, DislocationLaw, FiniteAtomic
from .partitions import frequencies, paintbox, partition_step, trivial
from .ranked_state import dislocate, MassState
from .rng import replica_rng
from .simulator import SimConfig, chi_value, make_step_kernel, record_value, run
from .stats import (
    ks_two_sample,
    ks_stat,
    pool_cells,
    poisson_pmf_test,
    pooled_chi_square,
)

PASS_EXIT = 0
FAIL_EXIT = 1
CONFIG_EXIT = 2

_SLACK = 1e-12
_MIN_KS_SAMPLES = 50


@dataclass(frozen=True)
class CheckResult:
    name: str
    statistic: float
    threshold: float
    relation: str  # how statistic must compare to threshold to pass
    passed: bool
    sample_size: int


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    claim: str
    config: tuple  # sorted (key, rendered value) pairs
    seed: int
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_text(self):
        """Canonical report text."""
        lines = [f"suite: {self.suite}",
                 f"claim: {self.claim}",
                 f"seed: {self.seed}",
                 "config: " + " ".join(f"{k}={v}" for k, v in self.config)]
        for c in self.checks:
            lines.append(
                f"check: {c.name} statistic={c.statistic:.10g} "
                f"{c.relation} threshold={c.threshold:.10g} "
                f"n={c.sample_size} {'pass' if c.passed else 'FAIL'}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def run_replicas(worker, n, seed):
    """Evaluate worker(index, rng) for n replicas; results in index order.

    Every replica owns the stream derived from (seed, index). An n that
    is not an int >= 0 raises ConfigError, and so does a seed replica_rng
    refuses, once n > 0.
    """
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise ConfigError(f"replica count n {n!r} must be an int >= 0")
    return [worker(i, replica_rng(seed, i)) for i in range(n)]


def _leg(cfg, read, replicas, seed):
    """read(run(cfg, rng), rng) per replica; read draws on rng after run."""
    return run_replicas(lambda _i, rng: read(run(cfg, rng), rng),
                        replicas, seed)


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt}


def _check(name, statistic, threshold, relation, n):
    statistic = float(statistic)
    ok = _RELATIONS[relation](statistic, threshold)
    return CheckResult(name, statistic, float(threshold), relation, ok, n)


def _z(observed, expected, se):
    """|observed - expected| / se; a zero SE scores 0 or inf."""
    gap = abs(observed - expected)
    return gap / se if se > 0.0 else (0.0 if gap == 0.0 else math.inf)


def _echo(params, **extra):
    merged = {**params, **extra}
    return tuple(sorted((k, repr(v)) for k, v in merged.items()))


def _part(state, k):
    return state.parts[k - 1] if len(state.parts) >= k else 0.0


def _require_count(name, key, value, least):
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ConfigError(f"suite {name!r} needs an int {key} >= {least}, "
                          f"got {value!r}")


# ---------------------------------------------------------------- suites
# Each suite takes its parameters as keywords and returns (checks, derived):
# derived holds computed values that the report echoes beside the params.


def _suite_erosion(law, c, t, replicas, seed):
    grid = tuple((i + 1) * t / 10.0 for i in range(10))

    # Pure erosion: a single fragment must follow the exponential exactly.
    traj = run(SimConfig(FiniteAtomic([]), t, c=c, obs_times=grid),
               np.random.default_rng(seed))
    err = max(abs(_part(s, 1) - math.exp(-c * u))
              for s, u in zip(traj.snapshots, grid))
    stray = sum(len(s.parts) != 1 for s in traj.snapshots)
    checks = [_check("pure_erosion_error", err, 1e-12, "<", 10),
              _check("stray_fragments", stray, 0, "<=", 10)]

    # With dislocations: the eroded path must equal the unEroded path of
    # the same seed rescaled by exp(-c t), part by part.
    eroded_cfg = SimConfig(law, t, c=c, obs_times=grid)
    plain_cfg = SimConfig(law, t, c=0.0, obs_times=grid)

    def worker(i, rng):
        eroded = run(eroded_cfg, rng)
        plain = run(plain_cfg, replica_rng(seed, i))
        worst = 0.0
        for se, sp, u in zip(eroded.snapshots, plain.snapshots, grid):
            if len(se.parts) != len(sp.parts):
                return math.inf
            factor = math.exp(-c * u)
            for a, b in zip(se.parts, sp.parts):
                worst = max(worst, abs(a - b * factor))
        return worst

    devs = run_replicas(worker, replicas, seed)
    checks.append(_check("factorization_error", max(devs), 1e-12, "<",
                         replicas))
    return checks, {}


def _prefix_masses(state):
    """[sum(state.parts[:k]) for k in 1..10], from one running sum.

    accumulate adds left to right in C doubles, as sum does on CPython
    3.11, so each entry equals that sum's float bit for bit.
    """
    sums = list(accumulate(state.parts[:10]))
    return sums + [sums[-1] if sums else 0.0] * (10 - len(sums))


def _suite_conservation(law, t, replicas, seed):
    def replay(traj, _rng):
        state = MassState((1.0,), 0.0, 1.0)
        before = _prefix_masses(state)
        worst = 0.0
        violations = 0
        for ev in traj.events:
            state = dislocate(state, ev.target_rank, ev.fragments)
            worst = max(worst, abs(sum(state.parts) + state.dust - 1.0))
            after = _prefix_masses(state)
            for now, was in zip(after, before):
                if now > was + _SLACK:
                    violations += 1
            before = after
        return worst, violations

    results = _leg(SimConfig(law, t), replay, replicas, seed)
    return [
        _check("mass_balance_error", max(r[0] for r in results), 1e-9, "<",
               replicas),
        _check("prefix_increase_count", sum(r[1] for r in results), 0, "<=",
               replicas),
    ], {}


def _suite_poisson_counts(law, t, eps, replicas, seed):
    cfg = SimConfig(law, t, eps=eps)
    rate = cfg.truncated_rate * t

    def rank_one_events(traj, _rng):
        return sum(ev.target_rank == 1 for ev in traj.events)

    counts = np.array(_leg(cfg, rank_one_events, replicas, seed))
    p = poisson_pmf_test(np.bincount(counts), rate)
    checks = [_check("count_chi_square_p", p, 0.01, ">", replicas)]

    # Same content read through the pmf: frequency of n events vs the
    # Poisson mass, worst z-score over n = 0..3.
    worst_z = 0.0
    for m in range(4):
        pm = math.exp(-rate) * rate ** m / math.factorial(m)
        freq = float(np.mean(counts == m))
        se = math.sqrt(pm * (1.0 - pm) / replicas)
        worst_z = max(worst_z, _z(freq, pm, se))
    checks.append(_check("pmf_worst_z", worst_z, 3.0, "<", replicas))
    return checks, dict(rate=rate)


def _suite_records(law, t, eps, replicas, seed):
    values = _leg(SimConfig(law, t, eps=eps),
                  lambda traj, _rng: record_value(traj, t), replicas, seed)
    stat = ks_stat(values, lambda x: record_cdf(law, t, x), x_min=eps)
    return [_check("record_ks", stat, 0.02, "<", replicas)], {}


def _suite_sandwich(law, t, eps, replicas, seed):
    def read(traj, _rng):
        snap = traj.snapshots[0]
        return (_part(snap, 1), _part(snap, 2),
                record_value(traj, t), chi_value(traj, t))

    rows = _leg(SimConfig(law, t, eps=eps, obs_times=(t,)), read, replicas,
                seed)
    conditioned = [r for r in rows if r[0] >= 0.5]
    violations = sum(1 for _l1, l2, rec, chi in conditioned
                     if chi * rec > l2 + _SLACK or l2 > rec + _SLACK)
    return [
        _check("conditioning_fraction", len(conditioned) / replicas, 0.99, ">",
               replicas),
        _check("sandwich_violations", violations, 0, "<=", len(conditioned)),
    ], {}


def _suite_subordinator(law, t, m_max, replicas, seed):
    """S6: -log of the top fragment of a one-atom law against its killed
    Poisson jump counts. check_subordinator is the one check of the
    horizon and rates, made as soon as the rates are read, so a bad t
    fails before any count is built or any path runs."""
    _require_count("subordinator", "m_max", m_max, 0)
    if not (isinstance(law, FiniteAtomic) and len(law.atoms) == 1
            and law.atoms[0][1]):
        raise ConfigError("the subordinator suite needs a one-atom atomic "
                          "law with a positive piece, so every jump has the "
                          "one finite size -log s1")
    weight, atom = law.atoms[0]
    jump_rate = weight * atom[0]
    kill = law.dust_integral()
    # inputs no path runs fail before any count or path
    check_subordinator(kill, jump_rate, t)
    surv = math.exp(-kill * t)
    try:
        expected = np.array(
            [replicas * surv * math.exp(-jump_rate * t)
             * (jump_rate * t) ** m / math.factorial(m)
             for m in range(m_max + 1)])
    except OverflowError:
        raise ConfigError(f"the subordinator suite's Poisson counts overflow "
                          f"a float at m_max={m_max}, t={t!r}; lower m_max "
                          f"or t") from None
    expected = np.append(expected, replicas - expected.sum())
    # a test with too few cells fails before any path; which cells form
    # depends on expected alone
    pool_cells(np.zeros_like(expected), expected)

    def worker(_i, rng):
        return run_subordinator(kill, jump_rate, t, rng)

    rows = run_replicas(worker, replicas, seed)
    observed = np.zeros(m_max + 2)
    alive_count = 0
    for jumps, alive in rows:
        alive_count += alive
        observed[jumps if alive and jumps <= m_max else m_max + 1] += 1
    p = pooled_chi_square(observed, expected)
    checks = [_check("value_chi_square_p", p, 0.01, ">", replicas)]

    se = math.sqrt(surv * (1.0 - surv) / replicas)
    z = _z(alive_count / replicas, surv, se)
    checks.append(_check("survival_z", z, 3.0, "<", replicas))
    return checks, dict(jump_size=-math.log(atom[0]), jump_rate=jump_rate,
                        killing_rate=kill)


def _eps_for_budget(law, t, budget):
    """Truncation level making the expected rank-1 event count = budget."""
    if not (t > 0.0 and 0.0 < budget < math.inf):
        raise ConfigError(f"an event budget needs t > 0 and a finite "
                          f"event_budget > 0, got t={t!r}, "
                          f"event_budget={budget!r}")
    return law.gen_inverse_f(budget / t)


def _require_binary_power(name, law):
    if not isinstance(law, BinaryPowerLaw):
        raise ConfigError(f"suite {name!r} needs a binary_power law; "
                          f"its oracle depends on the tail exponent")
    return law.a


def _normalized_parts(law, t, eps, floor, ranks, n_rep, seed):
    """Sample the given part ranks at time t, divided by the normalizer.

    The mass floor dusts debris far below the statistic scale; fragments
    that small can never re-enter the observed ranks, so the law of the
    observed ranks is unchanged while the fragment population stays
    linear in the event budget instead of exponential.
    """
    def read(traj, _rng):
        snap = traj.snapshots[0]
        return tuple(normalize_lambda2(law, t, _part(snap, k)) for k in ranks)

    cfg = SimConfig(law, t, eps=eps, obs_times=(t,), mass_floor=floor)
    return _leg(cfg, read, n_rep, seed)


def _suite_extreme(law, t, event_budget, mass_floor, replicas, seed):
    a = _require_binary_power("extreme", law)
    t_coarse = 10.0 * t
    eps_fine = _eps_for_budget(law, t, event_budget)
    eps_coarse = _eps_for_budget(law, t_coarse, event_budget)

    # Both legs reuse the same replica streams, which couples them and
    # stabilizes the directional comparison.
    fine = [r[0] for r in _normalized_parts(law, t, eps_fine, mass_floor,
                                            (2,), replicas, seed)]
    coarse = [r[0] for r in _normalized_parts(law, t_coarse, eps_coarse,
                                              mass_floor, (2,), replicas,
                                              seed)]
    ks_fine = ks_stat(fine, lambda x: extreme_cdf(x, a))
    ks_coarse = ks_stat(coarse, lambda x: extreme_cdf(x, a))
    return [
        _check("extreme_ks", ks_fine, 0.05, "<", replicas),
        _check("directionality", ks_fine - ks_coarse, 0.0, "<", replicas),
    ], dict(eps_fine=eps_fine, eps_coarse=eps_coarse, t_coarse=t_coarse,
            ks_coarse=round(ks_coarse, 10))


def _suite_frechet_k(law, t, event_budget, mass_floor, replicas, seed):
    a = _require_binary_power("frechet-k", law)
    eps = _eps_for_budget(law, t, event_budget)

    # The k-th extreme law governs the k-th largest logged second piece,
    # which at small horizons is the (k+1)-th ranked fragment. The k-th
    # law keeps mass P(Poisson(budget) <= k-1) below the truncation cut,
    # so the budget must grow with the deepest k tested.
    rows = _normalized_parts(law, t, eps, mass_floor, (3, 4), replicas, seed)
    checks = []
    for col, k in ((0, 2), (1, 3)):
        sample = [r[col] for r in rows]
        stat = ks_stat(sample, lambda x, k=k: frechet_k_cdf(k, a, x))
        checks.append(_check(f"frechet_k{k}_ks", stat, 0.07, "<", replicas))
    return checks, dict(eps=eps)


def _suite_correspondence(law, t, n, replicas, seed):
    _require_count("correspondence", "n", n, 1)
    kernel = make_step_kernel(law)

    # Ranked side, observed through the same finite-n paintbox channel the
    # partition side is forced through; raw top mass kept for the mean
    # cross-check, where the channel noise cancels in expectation.
    def paint(traj, rng):
        snap = traj.snapshots[0]
        top = frequencies(paintbox(snap, n, rng)).parts[0]
        return _part(snap, 1), top

    def partition_worker(_i, rng):
        p = partition_step(trivial(n), t, kernel, rng)
        return frequencies(p).parts[0]

    def chain_worker(_i, rng):
        p = partition_step(trivial(n), t / 2.0, kernel, rng)
        p = partition_step(p, t / 2.0, kernel, rng)
        return frequencies(p).parts[0]

    ranked = _leg(SimConfig(law, t, obs_times=(t,)), paint, replicas, seed)
    one_step = run_replicas(partition_worker, replicas, seed + 1)
    chain = run_replicas(chain_worker, replicas, seed + 2)

    lam1 = np.array([r[0] for r in ranked])
    channel = np.array([r[1] for r in ranked])
    tops = np.array(one_step)
    se = math.sqrt(lam1.var(ddof=1) / replicas + tops.var(ddof=1) / replicas)
    mean_z = _z(lam1.mean(), tops.mean(), se)
    return [
        _check("channel_ks", ks_two_sample(channel, tops), 0.05, "<",
               replicas),
        _check("mean_z", mean_z, 3.0, "<", replicas),
        _check("semigroup_ks", ks_two_sample(tops, np.array(chain)), 0.05,
               "<", replicas),
    ], {}


def _suite_scaling(law, alpha, r, t, replicas, seed):
    def top(traj, _rng):
        return _part(traj.snapshots[0], 1)

    small_cfg = SimConfig(law, t, alpha=alpha, initial_mass=r, obs_times=(t,))
    small = _leg(small_cfg, top, replicas, seed)
    # Built after the small leg, so rates that overflow raise there first.
    try:
        u = r ** alpha * t
    except OverflowError:
        raise RateOverflow("r ** alpha overflows a float") from None
    unit_cfg = SimConfig(law, u, alpha=alpha, obs_times=(u,))
    # Unpaired streams for the unit leg, as a two-sample test needs.
    unit = [r * x for x in _leg(unit_cfg, top, replicas, seed + replicas)]
    stat = ks_two_sample(small, unit)
    return [_check("scaling_ks", stat, 0.03, "<", replicas)], {}


# One row per suite: its function, its default law, the claim its report
# states, and its other pinned defaults. A law's caches are keyed by eps and
# hold pure values, so one law object serves every run.
_SUITES = {
    "erosion": (
        _suite_erosion, FiniteAtomic([(1.0, (0.6, 0.4))]),
        "pure erosion shrinks the single fragment exactly exponentially, "
        "and a positive erosion rate factors out of any dislocation path",
        dict(c=1.0, t=1.0, replicas=50, seed=11)),
    "conservation": (
        _suite_conservation, FiniteAtomic([(1.0, (0.6, 0.4))]),
        "total mass is conserved at every jump and the mass of the k "
        "largest fragments never increases",
        dict(t=3.0, replicas=200, seed=13)),
    "poisson-counts": (
        _suite_poisson_counts, FiniteAtomic([(1.0, (0.9, 0.1))]),
        "rank-1 dislocations on a window form a Poisson count with the "
        "truncated-law rate",
        dict(t=0.5, eps=0.0, replicas=10 ** 4, seed=17)),
    "records": (
        _suite_records, BinaryPowerLaw(0.5),
        "the running max of the rank-1 second piece follows the "
        "void-probability law above the truncation level",
        dict(t=0.01, eps=1e-4, replicas=10 ** 4, seed=19)),
    "sandwich": (
        _suite_sandwich, BinaryPowerLaw(0.5),
        "on paths keeping the main fragment above one half, chi times the "
        "record bounds the second fragment below and the record bounds it "
        "above",
        dict(t=0.01, eps=1e-4, replicas=10 ** 4, seed=23)),
    "subordinator": (
        _suite_subordinator, FiniteAtomic([(1.0, (0.9, 0.1))]),
        "minus log of the top fragment evolves as a killed compound "
        "Poisson process whose jump law is reweighted by the first piece",
        dict(t=1.0, m_max=4, replicas=10 ** 4, seed=29)),
    "extreme": (
        _suite_extreme, BinaryPowerLaw(0.5),
        "the normalized second fragment approaches the extreme law "
        "exp(-x^-a) as the horizon shrinks, and the fit degrades at a "
        "10x coarser horizon",
        dict(t=1e-3, event_budget=5.0, mass_floor=1e-12,
             replicas=10 ** 4, seed=31)),
    "frechet-k": (
        _suite_frechet_k, BinaryPowerLaw(0.5),
        "lower-ranked fragments, normalized the same way as the second, "
        "follow the k-record extreme laws",
        dict(t=1e-3, event_budget=7.0, mass_floor=1e-12,
             replicas=10 ** 4, seed=37)),
    "correspondence": (
        _suite_correspondence, FiniteAtomic([(1.0, (0.6, 0.4))]),
        "ranked dynamics observed through a finite paintbox agree in law "
        "with blockwise partition dynamics, and partition steps compose "
        "over split horizons",
        dict(t=0.3, n=1000, replicas=2000, seed=41)),
    "scaling": (
        _suite_scaling, FiniteAtomic([(1.0, (0.6, 0.4))]),
        "a path started from reduced mass r matches, in law, the unit "
        "path run to r^alpha t and rescaled by r",
        dict(alpha=1.0, r=0.5, t=0.4, replicas=5000, seed=43)),
}

# Suites with a *_ks check; they need _MIN_KS_SAMPLES replicas.
_KS_SUITES = {"records", "extreme", "frechet-k", "correspondence", "scaling"}

_TRANSLATE = {"t_end": "t"}


def suite_names():
    return tuple(sorted(_SUITES))


def run_suite(name, overrides=None, *, seed=None, replicas=None):
    """Run one verification suite; returns its SuiteReport."""
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; "
                           f"choose from {', '.join(suite_names())}")
    suite, law, claim, defaults = _SUITES[name]
    params = dict(defaults, law=law)
    if not isinstance(overrides, (Mapping, type(None))):
        raise ConfigError(f"suite overrides {overrides!r} must be a mapping")
    for key, value in (overrides or {}).items():
        key = _TRANSLATE.get(key, key)
        if key not in params:
            raise ConfigError(f"suite {name!r} does not take {key!r}")
        kind = (DislocationLaw if key == "law" else
                numbers.Real if isinstance(params[key], float) else object)
        if not isinstance(value, kind):
            raise ConfigError(f"suite {name!r} needs a {kind.__name__} "
                              f"{key}, got {value!r}")
        params[key] = value
    if seed is not None:
        params["seed"] = seed
    if replicas is not None:
        params["replicas"] = replicas
    replicas = params["replicas"]
    if not (isinstance(replicas, numbers.Integral) and replicas >= 1):
        raise ConfigError(f"replica count {replicas!r} must be an int >= 1")
    if name in _KS_SUITES and replicas < _MIN_KS_SAMPLES:
        raise ConfigError(f"suite {name!r} needs >= {_MIN_KS_SAMPLES} "
                          f"replicas for its KS checks, got {replicas}")
    _require_count(name, "seed", params["seed"], 0)
    params["replicas"] = int(params["replicas"])
    params["seed"] = int(params["seed"])
    checks, derived = suite(**params)
    return SuiteReport(name, claim, _echo(params, **derived), params["seed"],
                       tuple(checks))
