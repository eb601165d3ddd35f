"""Verification suite plumbing: determinism, replica order, overrides."""

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
