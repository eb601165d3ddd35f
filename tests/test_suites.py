"""Verification suite plumbing: determinism, replica order, overrides."""

import builtins
import hashlib
import math

import numpy as np
import pytest

from fragsim import (
    BinaryPowerLaw,
    CONFIG_EXIT,
    FAIL_EXIT,
    FiniteAtomic,
    MassState,
    PASS_EXIT,
    replica_rng,
    run,
    run_replicas,
    run_suite,
    suite_names,
)
from fragsim import suites
from fragsim.cli import main
from fragsim.errors import (
    ConfigError,
    InsufficientData,
    RateOverflow,
    UnknownSuite,
)
from reference import fold
from sum312.emulation import compensated_sum


def test_exit_codes():
    assert (PASS_EXIT, FAIL_EXIT, CONFIG_EXIT) == (0, 1, 2)


def test_suite_names():
    assert set(suite_names()) == {
        "erosion", "conservation", "poisson-counts", "records", "sandwich",
        "subordinator", "extreme", "frechet-k", "correspondence", "scaling"}


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nonsense")


def test_unknown_override_rejected():
    with pytest.raises(ConfigError):
        run_suite("erosion", {"event_budget": 2.0})


def test_law_must_fit_the_suite():
    flat = FiniteAtomic([(1.0, (0.6, 0.4))])
    with pytest.raises(ConfigError):
        run_suite("extreme", {"law": flat})
    with pytest.raises(ConfigError):
        run_suite("subordinator",
                  {"law": FiniteAtomic([(1.0, (0.9, 0.1)),
                                        (1.0, (0.6, 0.4))])})


def test_seed_and_replica_overrides_are_reflected():
    report = run_suite("erosion", seed=101, replicas=7)
    assert report.seed == 101
    assert report.passed
    assert any(c.sample_size == 7 for c in report.checks)
    assert ("replicas", "7") in report.config
    # t_end is accepted as an alias for the suite horizon
    other = run_suite("erosion", {"t_end": 0.5}, replicas=5)
    assert ("t", "0.5") in other.config
    # any real number is taken where the pinned default is a float
    for t in (1, np.int64(1), np.float64(1.0)):
        other = run_suite("erosion", {"t": t}, replicas=5)
        assert ("t", repr(t)) in other.config


@pytest.mark.parametrize("name", suite_names())
def test_report_text_is_byte_stable(name):
    # the second run meets the row's law with its eps caches warm
    replicas = 600 if name in _CHI_SQUARE_SUITES else 50
    a = run_suite(name, replicas=replicas).to_text()
    b = run_suite(name, replicas=replicas).to_text()
    assert a == b
    if name not in _KS_SUITES:
        assert "overall: PASS" in a
    assert "wall" not in a


@pytest.mark.parametrize("name", ["erosion", "conservation"])
@pytest.mark.parametrize("replicas", [0, -3])
def test_replica_count_must_be_positive(name, replicas):
    with pytest.raises(ConfigError):
        run_suite(name, replicas=replicas)
    with pytest.raises(ConfigError):
        run_suite(name, {"replicas": replicas})


@pytest.mark.parametrize("replicas", [2.5, "7", 3.0, None])
def test_replica_count_must_be_an_int(replicas, monkeypatch):
    # refused before any replica runs, on the keyword and overrides paths
    def no_replicas(*args):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(suites, "run_replicas", no_replicas)
    if replicas is not None:
        with pytest.raises(ConfigError, match="replica count"):
            run_suite("erosion", replicas=replicas)
    with pytest.raises(ConfigError, match="replica count"):
        run_suite("erosion", {"replicas": replicas})


def test_replica_count_echoes_a_plain_int():
    report = run_suite("erosion", replicas=np.int64(3))
    assert ("replicas", "3") in report.config
    assert report.to_text() == run_suite("erosion", replicas=3).to_text()


def test_prefix_masses_match_prefix_mass():
    # the conservation replay's running sums are the prefix sums, bit for bit
    rng = np.random.default_rng(3)
    for n in [0, 1, 9, 10, 11] + [int(k) for k in rng.integers(0, 30, 200)]:
        state = MassState(tuple(sorted(rng.random(n).tolist(), reverse=True)),
                          0.0, 1.0)
        want = [fold(state.parts[:k]).hex() for k in range(1, 11)]
        assert [x.hex() for x in suites._prefix_masses(state)] == want


def test_the_conservation_report_does_not_move_with_sum(monkeypatch):
    # its replay's mass balance is a fold of the parts: a compensated
    # sum(), as on CPython 3.12, moved the report's text
    want = run_suite("conservation").to_text()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert run_suite("conservation").to_text() == want


def test_correspondence_needs_two_replicas(capsys):
    # its mean check estimates a variance with ddof=1
    with pytest.raises(ConfigError):
        run_suite("correspondence", replicas=1)
    assert main(["verify", "correspondence", "--replicas", "1"]) == CONFIG_EXIT
    assert capsys.readouterr().err.startswith("error: ")


class _ReachedReplicas(Exception):
    pass


_KS_SUITES = {"records", "extreme", "frechet-k", "correspondence", "scaling"}
_CHI_SQUARE_SUITES = {"poisson-counts", "subordinator"}


@pytest.mark.parametrize("name", suite_names())
@pytest.mark.parametrize("replicas", [1, 49])
def test_ks_suites_need_fifty_replicas(name, replicas, monkeypatch):
    # the asymptotic KS law's sample floor, refused before any replica
    # runs in exactly the suites with a *_ks check; the rest get through,
    # but for S6 at one replica, whose expected counts pool to one cell
    def no_replicas(*args):
        raise _ReachedReplicas

    monkeypatch.setattr(suites, "run_replicas", no_replicas)
    expected = (ConfigError if name in _KS_SUITES else
                InsufficientData if (name, replicas) == ("subordinator", 1)
                else _ReachedReplicas)
    with pytest.raises(expected):
        run_suite(name, replicas=replicas)


def test_verify_rejects_a_ks_sample_below_fifty(capsys):
    assert main(["verify", "scaling", "--replicas", "1"]) == CONFIG_EXIT
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n", [0, -4])
def test_correspondence_needs_a_label(n):
    with pytest.raises(ConfigError):
        run_suite("correspondence", {"n": n}, replicas=50)


@pytest.mark.parametrize("name, overrides", [
    ("extreme", {"t": 0.0}),
    ("extreme", {"t": -1e-3}),
    ("extreme", {"event_budget": 0.0}),
    ("frechet-k", {"t": 0.0}),
    ("frechet-k", {"event_budget": 0}),
    ("frechet-k", {"event_budget": -7.0}),
    ("extreme", {"event_budget": math.inf}),
    ("frechet-k", {"event_budget": math.inf}),
])
def test_event_budget_suites_need_positive_t_and_budget(name, overrides,
                                                        monkeypatch):
    def no_replicas(*args):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(suites, "run_replicas", no_replicas)
    # the message names the budget, whatever eps it would have given
    with pytest.raises(ConfigError, match="event_budget"):
        run_suite(name, overrides, replicas=50)


@pytest.mark.parametrize("seed", [-1, -2 ** 40, 2.5, "7"])
def test_seed_must_be_a_non_negative_int(seed):
    # raised before any stream is derived, not numpy's bare ValueError
    with pytest.raises(ConfigError, match="seed"):
        run_suite("erosion", seed=seed, replicas=5)
    with pytest.raises(ConfigError, match="seed"):
        run_suite("erosion", {"seed": seed}, replicas=5)


_NAN = float("nan")


# Each leg builds its SimConfig once, before its replicas run, and the
# scaling suite derives its unit horizon only after the small leg: a bad
# override must raise the same typed error a per-replica build raised.
_BAD_OVERRIDES = [
    ("scaling", {"r": 1e-200, "alpha": -2.0}, RateOverflow),
    ("scaling", {"r": _NAN}, ConfigError),
    ("scaling", {"alpha": _NAN}, ConfigError),
    ("erosion", {"c": _NAN}, ConfigError),
    ("extreme", {"mass_floor": _NAN}, ConfigError),
    *[(name, {"t": _NAN}, ConfigError) for name in suite_names()],
    *[(name, {"eps": eps}, ConfigError)
      for name in ("poisson-counts", "records", "sandwich")
      for eps in (_NAN, math.inf)],
    ("subordinator", {"t": -1.0}, ConfigError),
    ("subordinator", {"t": math.inf}, ConfigError),
    ("subordinator", {"m_max": -3}, ConfigError),
    ("subordinator", {"m_max": 2.5}, ConfigError),
    ("correspondence", {"n": 10.5}, ConfigError),
    ("subordinator", {"law": BinaryPowerLaw(0.5)}, ConfigError),
    # a one-atom law that is all dust has no jump size -log s1
    ("subordinator", {"law": FiniteAtomic([(1.0, ())])}, ConfigError),
    # no event on the small leg, so only r ** alpha can overflow
    ("scaling", {"law": FiniteAtomic([]), "alpha": -1100.0}, RateOverflow),
]


@pytest.mark.parametrize("name, overrides, error", _BAD_OVERRIDES,
                         ids=[f"{n}-{o}" for n, o, _ in _BAD_OVERRIDES])
def test_bad_overrides_raise_a_typed_error(name, overrides, error):
    with pytest.raises(error):
        run_suite(name, overrides, replicas=50)


# m_max! and (rate * t) ** m_max can each leave the float range; the power
# case keeps the mean jump count, 0.9 * t, within check_subordinator's 1e7
@pytest.mark.parametrize("overrides",
                         [{"m_max": 200}, {"t": 1e7, "m_max": 50}],
                         ids=["factorial", "power"])
def test_subordinator_counts_that_overflow_raise_config_error(overrides):
    with pytest.raises(ConfigError, match=r"m_max=\d+, t="):
        run_suite("subordinator", overrides, replicas=200)


@pytest.mark.parametrize("t", (-1.0, math.inf, _NAN))
def test_subordinator_refuses_a_bad_horizon_before_any_path(monkeypatch, t):
    # check_subordinator is S6's one horizon check, and it runs before the
    # Poisson counts are built: m_max = 200 would overflow them first
    calls = []
    monkeypatch.setattr(suites, "run_subordinator",
                        lambda *args: calls.append(args))
    with pytest.raises(ConfigError,
                       match=r"^subordinator horizon t .* must be finite"):
        run_suite("subordinator", {"t": t, "m_max": 200}, replicas=200)
    assert calls == []


def test_subordinator_pools_its_cells_before_any_replica_runs(monkeypatch):
    # at t = 1e6 every path is killed, so all expected counts fall in one
    # cell and the chi-square test cannot be computed: no path is run
    calls = []
    real = suites.run_subordinator
    monkeypatch.setattr(suites, "run_subordinator",
                        lambda *args: calls.append(args) or real(*args))
    with pytest.raises(InsufficientData, match="fewer than two cells"):
        run_suite("subordinator", {"t": 1e6}, replicas=20)
    assert calls == []


# A value of the wrong kind for its pinned default fails in run_suite's
# override loop, before it reaches the suite and fails bare there.
_WRONG_KINDS = [
    *[(name, {"t": "x"}) for name in ("subordinator", "extreme", "erosion")],
    ("poisson-counts", {"eps": None}),
    ("frechet-k", {"event_budget": "x"}),
    *[(name, {"law": "x"}) for name in ("records", "conservation",
                                        "correspondence", "erosion", "scaling",
                                        "poisson-counts", "sandwich")],
]


@pytest.mark.parametrize("name, overrides", _WRONG_KINDS,
                         ids=[f"{n}-{o}" for n, o in _WRONG_KINDS])
def test_overrides_of_the_wrong_kind_raise_config_error(name, overrides):
    [key] = overrides
    with pytest.raises(ConfigError, match=f"needs a \\w+ {key}, got"):
        run_suite(name, overrides, replicas=50)


def test_correspondence_with_constant_sides():
    # at t = 0 both sides are the whole mass on every replica: equal means
    report = run_suite("correspondence", {"t": 0.0}, replicas=50)
    assert report.passed
    assert [c.statistic for c in report.checks] == [0.0, 0.0, 0.0]
    # a law that dusts everything within two events: the ranked top is 0
    # and the painted top 1/2 on every replica, so the means differ exactly
    dusting = FiniteAtomic([(1e4, (1e-200,))])
    report = run_suite("correspondence", {"law": dusting, "n": 2},
                       replicas=50)
    mean_z = {c.name: c for c in report.checks}["mean_z"]
    assert mean_z.statistic == math.inf and not mean_z.passed


def test_poisson_counts_with_underflowed_masses():
    # at rate 800 the masses of 0..3 events are 0.0 and so are their SEs;
    # frequencies that match them exactly score z = 0, not a bare error
    law = FiniteAtomic([(800.0, (0.9,))])
    report = run_suite("poisson-counts", {"law": law, "t": 1.0},
                       replicas=500)
    worst_z = {c.name: c for c in report.checks}["pmf_worst_z"]
    assert worst_z.statistic == 0.0
    assert report.passed


def test_subordinator_with_survival_rounded_to_1():
    # a killing rate of 1.1e-16 rounds exp(-kill * t) to 1.0 and its SE to
    # 0; every replica survives, so survival_z is 0, not a ZeroDivisionError
    law = FiniteAtomic([(1.0, (0.9999999999999999,))])
    report = run_suite("subordinator", {"law": law, "t": 0.5}, replicas=2000)
    survival_z = {c.name: c for c in report.checks}["survival_z"]
    assert survival_z.statistic == 0.0
    assert report.passed


def test_records_at_time_zero():
    # no replica has an event, and the record law is the step at 0
    report = run_suite("records", {"t": 0.0}, replicas=50)
    assert report.passed
    assert [c.statistic for c in report.checks] == [0.0]


def test_run_replicas_is_index_ordered():
    def worker(i, rng):
        return i, rng.random()

    serial = run_replicas(worker, 20, seed=5)
    pooled = run_replicas(worker, 20, seed=5)
    assert [i for i, _ in pooled] == list(range(20))
    assert serial == pooled


def test_erosion_derives_one_stream_per_leg(monkeypatch):
    # run_replicas hands each replica its stream, which the eroded leg
    # runs on; only the plain leg derives a fresh copy of it
    calls = []

    def counted(seed, index):
        calls.append(index)
        return replica_rng(seed, index)

    monkeypatch.setattr(suites, "replica_rng", counted)
    run_suite("erosion", replicas=50)
    assert len(calls) == 100


@pytest.mark.parametrize("name", sorted(set(suite_names()) - {"erosion"}))
def test_each_replica_derives_one_stream(name, monkeypatch):
    streams, replicas = [], []

    def counted_rng(seed, index):
        streams.append(index)
        return replica_rng(seed, index)

    def counted_replicas(worker, n, seed):
        replicas.append(n)
        return run_replicas(worker, n, seed)

    monkeypatch.setattr(suites, "replica_rng", counted_rng)
    monkeypatch.setattr(suites, "run_replicas", counted_replicas)
    # the Poisson count test needs 500 observations
    run_suite(name, replicas=600 if name == "poisson-counts" else 50)
    assert len(streams) == sum(replicas) >= 50


# Paths each suite runs through suites.run, the name the benchmark's
# tracer wraps, as a function of the replica count R.
_PATHS = {"subordinator": lambda R: 0, "erosion": lambda R: 1 + 2 * R,
          "scaling": lambda R: 2 * R, "extreme": lambda R: 2 * R}


@pytest.mark.parametrize("name", suite_names())
def test_paths_per_suite(name, monkeypatch):
    calls = []

    def counted(cfg, rng):
        calls.append(cfg)
        return run(cfg, rng)

    monkeypatch.setattr(suites, "run", counted)
    # the chi-square suites need 500 observations, the KS suites 50
    R = 500 if name in ("poisson-counts", "subordinator") else 50
    run_suite(name, replicas=R)
    assert len(calls) == _PATHS.get(name, lambda R: R)(R)


def test_report_echoes_the_scenario():
    report = run_suite("erosion", replicas=5)
    keys = {k for k, _ in report.config}
    assert {"c", "t", "replicas", "seed"} <= keys
    text = report.to_text()
    assert text.startswith("suite: erosion\n")
    assert "claim: " in text
    assert text.endswith("overall: PASS\n")


def test_failing_suite_reports_fail():
    # 60 replicas drown the record-law fit in sampling noise far above the
    # pinned 0.02 threshold, a deterministic failure
    report = run_suite("records", replicas=60)
    assert not report.passed
    assert "FAIL" in report.to_text()


def _checks(report):
    return {c.name: c for c in report.checks}


def test_erosion_flags_paths_whose_fragment_counts_differ(monkeypatch):
    # a defect that loses the smallest fragment of an eroded snapshot
    # leaves the eroded and unEroded paths with different fragment counts
    real = suites.run

    def lossy(cfg, rng):
        traj = real(cfg, rng)
        if cfg.c == 0.0:
            return traj
        return traj._replace(snapshots=tuple(
            s._replace(parts=s.parts[:-1]) if len(s.parts) > 1 else s
            for s in traj.snapshots))

    monkeypatch.setattr(suites, "run", lossy)
    checks = _checks(run_suite("erosion"))
    assert checks["factorization_error"].statistic == math.inf
    assert not checks["factorization_error"].passed
    assert checks["pure_erosion_error"].passed
    assert checks["stray_fragments"].passed


def test_conservation_flags_a_prefix_increase(monkeypatch):
    # a defect that hands the dust back to the largest fragment keeps the
    # total mass, but the top fragment grows when a smaller one splits
    real = suites.dislocate

    def leaky(state, rank, fragments):
        out = real(state, rank, fragments)
        return MassState((out.parts[0] + out.dust,) + out.parts[1:], 0.0,
                         out.nominal)

    monkeypatch.setattr(suites, "dislocate", leaky)
    law = FiniteAtomic([(1.0, (0.5, 0.3))])
    checks = _checks(run_suite("conservation", {"law": law}, replicas=50))
    assert checks["mass_balance_error"].passed
    assert checks["prefix_increase_count"].statistic > 0
    assert not checks["prefix_increase_count"].passed


# sha256 of run_suite(name, replicas=R).to_text() at each suite's pinned
# seed. Reports must stay byte-identical for a given seed and config, so a
# refactor must leave every digest as it is; regenerate a pin only for a
# change that alters the random stream on purpose, and say so. Several of
# these reports FAIL at these reduced replica counts; that is expected,
# since the verdict lines are part of the pinned text.
_REPORT_DIGESTS = {
    "poisson-counts": (600, "bc01c53d7476c8bd20a762ce3bda8356d1bed397d0ed2bd79b11e059f6a54296"),
    "records": (600, "f67db0ff421c0f6a81f685afc2ae3740227b62a9221979ec0175f778dc419d27"),
    "sandwich": (600, "de63f9b38ca4d44ecadb8bf31d49bed2a254ba4346d493e949e211047e713250"),
    "subordinator": (600, "a3036af012aab049ab49eb22d20641c0f0a24ec9795f8b4cd358e982c7cc848a"),
    "extreme": (100, "8a07514517bfcebce44d72a79cee4b3d7819ff2a29aa8dc02434b7b0307dad8d"),
    "frechet-k": (100, "80e99eef29f5474b9dbdcb177bf27f747d80eeb49ebb2ddb23a733664736acb8"),
    "correspondence": (50, "f975e988e3dfdb0747a9fac5c148504eb5a031a3cf498b6b8d693b6439637096"),
    "scaling": (300, "52f4dd940624fce8cd6d9bf1d9cd5e1eb5407b91534d49d54ae61a46f279994a"),
    "erosion": (None, "6ec6c5756b8bc3d6bab7b3747f74529a18cf0c58c1a336c8c31c9e3f7f653102"),
    "conservation": (None, "5226799089930e902e5d4f9dcb8f8d97a35ed6d7dda84b45bedb686795491c15"),
}


def test_reports_match_their_pinned_digests():
    assert set(_REPORT_DIGESTS) == set(suite_names())
    got = {name: hashlib.sha256(
               run_suite(name, replicas=r).to_text().encode()).hexdigest()
           for name, (r, _) in _REPORT_DIGESTS.items()}
    assert got == {name: d for name, (_, d) in _REPORT_DIGESTS.items()}
