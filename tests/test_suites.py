"""Verification suite plumbing: determinism, replica order, overrides."""

import hashlib

import pytest

from fragsim import (
    CONFIG_EXIT,
    FAIL_EXIT,
    FiniteAtomic,
    PASS_EXIT,
    run_replicas,
    run_suite,
    suite_names,
)
from fragsim.cli import main
from fragsim.errors import ConfigError, UnknownSuite


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


def test_report_text_is_byte_stable():
    a = run_suite("erosion", replicas=10).to_text()
    b = run_suite("erosion", replicas=10).to_text()
    assert a == b
    assert "overall: PASS" in a
    assert "wall" not in a


@pytest.mark.parametrize("name", ["erosion", "conservation"])
@pytest.mark.parametrize("replicas", [0, -3])
def test_replica_count_must_be_positive(name, replicas):
    with pytest.raises(ConfigError):
        run_suite(name, replicas=replicas)
    with pytest.raises(ConfigError):
        run_suite(name, {"replicas": replicas})


def test_correspondence_needs_two_replicas(capsys):
    # its mean check estimates a variance with ddof=1
    with pytest.raises(ConfigError):
        run_suite("correspondence", replicas=1)
    assert main(["verify", "correspondence", "--replicas", "1"]) == CONFIG_EXIT
    assert capsys.readouterr().err.startswith("error: ")


def test_run_replicas_is_index_ordered():
    def worker(i, rng):
        return i, rng.random()

    serial = run_replicas(worker, 20, seed=5)
    pooled = run_replicas(worker, 20, seed=5)
    assert [i for i, _ in pooled] == list(range(20))
    assert serial == pooled


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
