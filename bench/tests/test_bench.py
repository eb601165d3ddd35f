"""Tests of the benchmark itself: exact counts, trace neutrality, self time.

    python3 -m pytest -q bench/tests
"""

import os
import shutil
import sys
import tempfile
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from run import SCRATCH, _import_checkout, check_wiring, drop_scratch  # noqa: E402

_import_checkout()

import tracing  # noqa: E402
import workloads  # noqa: E402

SHORT = ("tail-extremes", "partition-channel", "dense-alpha")
EXACT = ("events", "parts_sum", "parts_hwm", "labels", "replicas")


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    os.makedirs(SCRATCH, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=SCRATCH)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    drop_scratch()


def _traced(workload, seed, workdir):
    """Untraced then traced pass of the shortened workload."""
    plan = workloads.Plan(workload, seed, workdir, small=True)
    with plan.capturing():
        plain = plan.run_pass()[2]
    tracer = tracing.Tracer()
    with tracing.installed(tracer), plan.capturing():
        traced = plan.run_pass()[2]
    return plan, plain, traced, tracer


def _exact(tracer):
    counts = tracer.counts()
    calls = {name: c for name, (c, _s) in tracer.layers().items()}
    return {k: counts.get(k, 0) for k in EXACT}, calls


@pytest.mark.parametrize("workload", SHORT)
def test_exact_counts_repeat_and_follow_the_seed(workload, workdir):
    first = _exact(_traced(workload, 3, workdir)[3])
    again = _exact(_traced(workload, 3, workdir)[3])
    other = _exact(_traced(workload, 4, workdir)[3])
    assert first == again
    assert first[0]["events"] > 0
    assert first[0] != other[0]


@pytest.mark.parametrize("workload", SHORT)
def test_tracing_leaves_outputs_identical_and_wires_every_span(workload,
                                                               workdir):
    plan, plain, traced, tracer = _traced(workload, 1, workdir)
    assert [r[:2] for r in plain] == [r[:2] for r in traced]
    if workload == "dense-alpha":
        assert all(passed for *_, passed in plain)  # mass budget held
    attempted, failed = plan.tally(traced, {r[0]: r[1] for r in plain})
    assert attempted > 0 and failed == 0
    check_wiring(workload, tracer.layers(), tracer.counts())


def test_a_fail_verdict_counts_where_it_is_not_allowed(workdir):
    pin = {"outputs": {"extreme": "d", "replica-0000": "d"}, "counts": {}}
    reference = pin["outputs"]
    suite = ("extreme", "d", 3, 1, False)
    path = ("replica-0000", "d", 1, 1, False)

    def tally(workload, offset, row):
        plan = workloads.Plan(workload, offset, workdir, pin=pin)
        return plan.tally([row], reference)

    assert tally("tail-extremes", 0, suite) == (3, 3)
    assert tally("tail-extremes", 1, suite) == (3, 0)
    assert tally("tail-extremes", 1, ("extreme", "e") + suite[2:]) == (3, 3)
    assert tally("dense-alpha", 1, path) == (1, 1)


def test_wrappers_are_removed_after_the_pass():
    from fragsim import measures, simulator, suites

    before = (suites.run, simulator.dislocate,
              measures.BinaryPowerLaw.truncated_mass)
    with tracing.installed(tracing.Tracer()):
        assert suites.run is not before[0]
    assert (suites.run, simulator.dislocate,
            measures.BinaryPowerLaw.truncated_mass) == before


def test_a_missing_name_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "simulator.gone",
                        [("fragsim.simulator", "no_such_function")])
    from fragsim import suites

    before = suites.run
    with pytest.raises(tracing.WiringError):
        with tracing.installed(tracing.Tracer()):
            pass
    assert suites.run is before


def test_idle_expected_span_fails_loudly():
    with pytest.raises(tracing.WiringError, match="partitions.paintbox"):
        check_wiring("partition-channel", {}, {"events": 1})


def test_self_time_excludes_children_on_the_same_thread():
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.1))

    def body():
        time.sleep(0.01)
        inner()

    outer = tracer.span("outer", body)
    outer()
    worker = threading.Thread(target=inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    layers = tracer.layers()
    assert layers["outer"][0] == 1 and layers["inner"][0] == 2
    # Without the child subtracted, outer's self time would exceed 0.11 s.
    assert 0.009 < layers["outer"][1] < 0.06
    assert 0.199 < layers["inner"][1] < 0.4
