"""Subordinator sampling and the small-time limit distributions."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from fragsim import (
    BinaryPowerLaw,
    FiniteAtomic,
    SubordinatorPath,
    SubordinatorSpec,
    extreme_cdf,
    frechet_k_cdf,
    normalize_lambda2,
    pooled_chi_square,
    record_cdf,
    run_subordinator,
    sample_subordinator_path,
    sub_levy_transform,
)
from fragsim.errors import ConfigError

TAGGED_91 = sub_levy_transform(FiniteAtomic([(1.0, (0.9, 0.1))]), 0.0, 0.0)


def test_drift_only_path_is_linear():
    spec = SubordinatorSpec(drift=0.3, killing_rate=0.0, jump_rate=0.0)
    rng = np.random.default_rng(0)
    for t in (0.0, 1.0, 7.5):
        value, alive = run_subordinator(spec, t, rng)
        assert value == pytest.approx(0.3 * t, abs=1e-15)
        assert alive


@pytest.mark.parametrize("fields", [
    (0.0, 0.0, 1.0),
    (0.0, math.nan, 0.0),
    (0.0, -1.0, 0.0),
    (0.0, math.inf, 0.0),
    (0.0, 0.0, math.nan),
    (0.0, 0.0, -1.0),
    (0.0, 0.0, math.inf),
    (math.nan, 0.0, 0.0),
    (math.inf, 0.0, 0.0),
    (-math.inf, 0.0, 0.0),
], ids=["no-sampler", "nan-kill", "negative-kill", "inf-kill", "nan-jump",
        "negative-jump", "inf-jump", "nan-drift", "inf-drift", "-inf-drift"])
def test_subordinator_spec_rejects_bad_fields(fields):
    with pytest.raises(ConfigError):
        SubordinatorSpec(*fields)


def test_subordinator_spec_accepts_jump_free_and_sampled_specs():
    SubordinatorSpec(drift=-0.5, killing_rate=0.0, jump_rate=0.0)
    SubordinatorSpec(0.0, 0.1, 2.0, jump_sampler=lambda rng: 1.0)


def test_zero_horizon():
    rng = np.random.default_rng(1)
    value, alive = run_subordinator(TAGGED_91, 0.0, rng)
    assert value == 0.0
    assert alive


def test_survival_probability():
    # killing rate 0.1: alive at t = 1 with probability exp(-0.1)
    rng = np.random.default_rng(2)
    n = 20000
    alive = sum(run_subordinator(TAGGED_91, 1.0, rng)[1] for _ in range(n))
    p = math.exp(-0.1)
    assert abs(alive / n - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_path_is_nondecreasing_and_stops_at_kill():
    rng = np.random.default_rng(3)
    for _ in range(50):
        path = sample_subordinator_path(TAGGED_91, 5.0, rng)
        grid = np.linspace(0.0, 5.0, 41)
        values = [path.value_at(t) for t in grid]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        assert path.value_at(path.kill_time + 100.0) == path.value_at(path.kill_time)


def test_value_at_counts_jumps_once():
    path = SubordinatorPath(drift=2.0, jump_times=(0.5, 1.5),
                            jump_sizes=(10.0, 100.0), kill_time=1.0)
    assert path.value_at(0.25) == pytest.approx(0.5)
    assert path.value_at(0.5) == pytest.approx(1.0 + 10.0)
    # killed at 1.0: later jumps and drift no longer accrue
    assert path.value_at(3.0) == pytest.approx(2.0 + 10.0)
    assert path.alive_at(0.9)
    assert not path.alive_at(1.0)


def test_jump_count_is_poisson():
    rng = np.random.default_rng(4)
    n = 10 ** 4
    t = 1.0
    counts = np.zeros(8, dtype=int)
    for _ in range(n):
        path = sample_subordinator_path(TAGGED_91, t, rng)
        counts[min(len(path.jump_times), 7)] += 1
    rate = TAGGED_91.jump_rate * t
    expected = [n * sps.poisson(rate).pmf(m) for m in range(7)]
    expected.append(n * sps.poisson(rate).sf(6))
    assert pooled_chi_square(counts.tolist(), expected) > 0.01


def test_record_cdf_values():
    law = BinaryPowerLaw(0.5)
    # tail above x = 0.25: sqrt(1/0.25) - sqrt(2); survival of a unit-time
    # void event
    want = math.exp(-0.01 * (2.0 - math.sqrt(2.0)))
    assert record_cdf(law, 0.01, 0.25) == pytest.approx(want, abs=1e-12)
    assert record_cdf(law, 0.01, 0.25) == pytest.approx(0.9941593, abs=1e-6)
    assert record_cdf(law, 0.0, 0.3) == 1.0
    # at t = 0 the law is the step at 0, also where the tail is infinite
    assert record_cdf(law, 0.0, [-0.1, 0.0, 0.3]).tolist() == [0.0, 1.0, 1.0]
    assert record_cdf(law, 5.0, 0.7) == 1.0
    assert record_cdf(law, 5.0, -0.1) == 0.0
    # atoms: the strict tail drives the record law
    atom = FiniteAtomic([(2.0, (0.6, 0.4))])
    assert record_cdf(atom, 1.0, 0.4) == 1.0
    assert record_cdf(atom, 1.0, 0.39) == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_extreme_cdf():
    assert extreme_cdf(1.0, 0.5) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert extreme_cdf(4.0, 0.5) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert extreme_cdf(0.6065307, 0.5) != 0.0
    assert extreme_cdf(0.0, 0.5) == 0.0
    assert extreme_cdf(-3.0, 0.5) == 0.0
    assert extreme_cdf(1e-8, 0.5) < 1e-6
    assert extreme_cdf(1e8, 0.5) > 1.0 - 1e-3
    xs = np.geomspace(1e-3, 1e3, 50)
    assert np.allclose(extreme_cdf(xs, 0.5), frechet_k_cdf(1, 0.5, xs), atol=1e-15)


def test_frechet_k_cdf():
    # k = 2 at the point where m = x^(-a) equals 1: e^-1 * (1 + 1)
    assert frechet_k_cdf(2, 0.5, 1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
    assert frechet_k_cdf(2, 0.5, 1.0) == pytest.approx(0.7357589, abs=1e-6)
    xs = np.geomspace(1e-4, 1e4, 1000)
    for k in (1, 2, 3):
        vals = frechet_k_cdf(k, 0.5, xs)
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(np.diff(vals) > 0.0)
        # one more allowed point above x only widens the event
        assert np.all(frechet_k_cdf(k + 1, 0.5, xs) >= vals)


def test_frechet_k_matches_poisson_tally():
    # the k-th largest exceeds x iff a Poisson(x^(-a)) count reaches k
    for k in (1, 2, 3):
        for x in (0.3, 1.0, 2.5):
            m = x ** -0.5
            want = sps.poisson(m).cdf(k - 1)
            assert frechet_k_cdf(k, 0.5, x) == pytest.approx(want, abs=1e-12)


def test_normalize_lambda2():
    law = BinaryPowerLaw(0.5)
    t = 0.01
    scale = law.gen_inverse_f(1.0 / t)
    assert normalize_lambda2(law, t, scale) == pytest.approx(1.0, abs=1e-12)
    assert normalize_lambda2(law, t, 0.0) == 0.0
    assert normalize_lambda2(law, 0.01, 2.0 * scale) == pytest.approx(2.0, abs=1e-12)
    # the 1/t tail level at t = 0.01: f(100) ~ 9.7230e-5
    assert normalize_lambda2(law, 0.01, 1.9446e-4) == pytest.approx(2.0, abs=1e-3)
