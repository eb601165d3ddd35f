"""Subordinator sampling and the small-time limit distributions."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from fragsim import (
    BinaryPowerLaw,
    FiniteAtomic,
    extreme_cdf,
    frechet_k_cdf,
    normalize_lambda2,
    pooled_chi_square,
    record_cdf,
    run_subordinator,
    run_suite,
)
from fragsim.errors import ConfigError, DegenerateNormalizer

# the subordinator of the one-atom law (0.9, 0.1): killed at rate 0.1,
# jumps of size -log 0.9 at rate 0.9
TAGGED_91 = (0.1, 0.9, -math.log(0.9))


def test_draws_are_the_kill_the_count_and_the_times():
    # nothing is drawn per jump: the stream after a path is where a twin
    # that drew only these three is
    for seed in range(20):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        run_subordinator(*TAGGED_91, 2.0, rng)
        twin.exponential(1.0 / 0.1)
        twin.random(twin.poisson(0.9 * 2.0))
        assert rng.random() == twin.random()


@pytest.mark.parametrize("args", [
    (math.nan, 0.0, 1.0),
    (-1.0, 0.0, 1.0),
    (math.inf, 0.0, 1.0),
    (0.0, math.nan, 1.0),
    (0.0, -1.0, 1.0),
    (0.0, math.inf, 1.0),
    (0.0, 0.9, math.nan),
    (0.0, 0.9, -1.0),
    (0.0, 0.9, math.inf),
], ids=["nan-kill", "negative-kill", "inf-kill", "nan-jump", "negative-jump",
        "inf-jump", "nan-size", "negative-size", "inf-size"])
def test_run_subordinator_rejects_bad_inputs(args):
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(ConfigError, match="must be finite and >= 0"):
        run_subordinator(*args, 1.0, rng)
    assert rng.random() == twin.random()


def test_run_subordinator_accepts_zero_rates_and_jump():
    rng = np.random.default_rng(0)
    assert run_subordinator(0.0, 0.0, 1.0, 7.5, rng) == (0.0, True)
    assert run_subordinator(0.0, 2.0, 0.0, 7.5, rng) == (0.0, True)


def test_zero_horizon():
    rng = np.random.default_rng(1)
    value, alive = run_subordinator(*TAGGED_91, 0.0, rng)
    assert value == 0.0
    assert alive


@pytest.mark.parametrize("t", (-1.0, math.nan, math.inf))
@pytest.mark.parametrize("jump_rate", (0.0, 0.9))
def test_run_subordinator_needs_a_finite_horizon(t, jump_rate):
    rng, twin = np.random.default_rng(6), np.random.default_rng(6)
    with pytest.raises(ConfigError, match="horizon"):
        run_subordinator(0.1, jump_rate, -math.log(0.9), t, rng)
    assert rng.random() == twin.random()


def test_run_subordinator_bounds_the_mean_jump_count():
    # jump_rate * t above 1e7 raises before any draw: at t = 1e19 numpy
    # cannot allocate the jump times, and at 1e9 they take gigabytes
    for t in (1e19, 1e9, 1.2e7):
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        with pytest.raises(ConfigError, match="mean jump count"):
            run_subordinator(*TAGGED_91, t, rng)
        assert rng.random() == twin.random()
    # S6 at that horizon fails with the same typed error
    with pytest.raises(ConfigError, match="mean jump count"):
        run_suite("subordinator", {"t": 1e19, "m_max": 0}, replicas=50)


def test_survival_probability():
    # killing rate 0.1: alive at t = 1 with probability exp(-0.1)
    rng = np.random.default_rng(2)
    n = 20000
    alive = sum(run_subordinator(*TAGGED_91, 1.0, rng)[1] for _ in range(n))
    p = math.exp(-0.1)
    assert abs(alive / n - p) < 3 * math.sqrt(p * (1 - p) / n)


def test_value_stops_at_kill():
    # the kill time is the path's first draw, the count its second and the
    # jump times its third; the value counts the jumps up to min(t, kill)
    for seed in range(200):
        t = 0.25 * (seed % 8)
        twin = np.random.default_rng(seed)
        kill = twin.exponential(1.0)
        times = twin.random(twin.poisson(3.0 * t)) * t
        value, alive = run_subordinator(1.0, 3.0, 0.5, t,
                                        np.random.default_rng(seed))
        assert value == 0.5 * int(np.sum(times <= min(t, kill)))
        assert alive == (kill > t)


class _StubRng:
    """Kill time, jump count and jump-time uniforms fixed in advance."""

    def __init__(self, kill, uniforms):
        self.kill, self.uniforms = kill, uniforms

    def exponential(self, scale):
        return self.kill * scale

    def poisson(self, lam):
        return len(self.uniforms)

    def random(self, n):
        return np.array(self.uniforms[:n])


def test_jumps_count_once_up_to_the_kill():
    # jumps at 1.5 and 0.5 (drawn unsorted); the kill at 1.5 keeps both,
    # the jump exactly at the cut included
    value, alive = run_subordinator(1.0, 1.0, 10.0, 3.0,
                                    _StubRng(1.5, [0.5, 1 / 6]))
    assert (value, alive) == (20.0, False)
    # a kill at 1.0 drops the later jump
    value, alive = run_subordinator(1.0, 1.0, 10.0, 3.0,
                                    _StubRng(1.0, [0.5, 1 / 6]))
    assert (value, alive) == (10.0, False)


def test_jump_count_is_poisson():
    # kill and jumps are independent, so on alive paths the value counts
    # jumps of size -log 0.9 arriving at rate 0.9
    rng = np.random.default_rng(4)
    t = 2.0
    jump = -math.log(0.9)
    counts = np.zeros(8, dtype=int)
    for _ in range(10 ** 4):
        value, alive = run_subordinator(*TAGGED_91, t, rng)
        if alive:
            m = round(value / jump)
            assert value == pytest.approx(m * jump, abs=1e-12)
            counts[min(m, 7)] += 1
    n = counts.sum()
    assert n > 8000
    rate = 0.9 * t
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


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_normalize_lambda2_needs_a_positive_finite_horizon(t):
    with pytest.raises(ConfigError, match="horizon"):
        normalize_lambda2(BinaryPowerLaw(0.5), t, 0.1)


def test_normalize_lambda2_rejects_an_underflowed_inverse():
    law = BinaryPowerLaw(0.5)
    assert law.gen_inverse_f(1e200) == 0.0
    with pytest.raises(DegenerateNormalizer):
        normalize_lambda2(law, 1e-200, 0.1)
