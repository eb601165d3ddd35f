"""Dislocation law analytics against independent quadrature and bisection oracles."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from fragsim import (
    BinaryPowerLaw,
    BrennanDurrett,
    FiniteAtomic,
    ks_stat,
    parse_measure,
    pooled_chi_square,
    sub_levy_transform,
)
from fragsim.errors import (
    ConfigError,
    DivergentMeasure,
    EmptyTruncation,
    InvalidFragmentVector,
    NegativeMass,
)


def tail_oracle_binary(a, x):
    # integrate the small-piece density a*u^(-a-1) over [x, 1/2]; the error
    # estimate is absolute, so scale it off the value for near-singular x
    if x > 0.5:
        return 0.0
    val, err = integrate.quad(lambda u: a * u ** (-a - 1.0), x, 0.5, limit=200)
    assert err < 1e-8 * max(1.0, abs(val))
    return val


def dust_oracle_binary(a):
    val, err = integrate.quad(lambda u: u * a * u ** (-a - 1.0), 0.0, 0.5)
    assert err < 1e-10
    return val


def inverse_oracle(law, y):
    # bisect the tail on [1e-12, 1/2], keeping the upper end inside the
    # sublevel set {tail <= y}
    lo, hi = 1e-12, 0.5
    if law.tail_nu2(lo) <= y:
        return lo
    if law.tail_nu2(hi) > y:
        return hi
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if law.tail_nu2(mid) <= y:
            hi = mid
        else:
            lo = mid
    return hi


def test_binary_tail_closed_form_vs_quadrature():
    law = BinaryPowerLaw(0.5)
    assert abs(law.tail_nu2(0.25) - 0.5857864) < 1e-6
    for x in (1e-6, 1e-3, 0.01, 0.1, 0.25, 0.4, 0.5):
        want = tail_oracle_binary(0.5, x)
        assert abs(law.tail_nu2(x) - want) < 1e-8 * max(1.0, want)
    assert law.tail_nu2(0.6) == 0.0
    for a in (0.2, 0.8):
        law = BinaryPowerLaw(a)
        for x in (0.01, 0.3):
            want = tail_oracle_binary(a, x)
            assert abs(law.tail_nu2(x) - want) < 1e-8 * max(1.0, want)


def test_binary_dust_closed_form_vs_quadrature():
    for a in (0.2, 0.5, 0.8):
        law = BinaryPowerLaw(a)
        assert abs(law.dust_integral() - dust_oracle_binary(a)) < 1e-8
    assert abs(BinaryPowerLaw(0.5).dust_integral() - 0.7071068) < 1e-6


def test_binary_truncated_mass_and_divergence():
    law = BinaryPowerLaw(0.5)
    assert abs(law.truncated_mass(0.01) - 8.5857864) < 1e-6
    assert law.truncated_mass(1.5) == 0.0
    assert law.infinite_activity
    with pytest.raises(EmptyTruncation):
        law.truncated_mass(0.0)
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(DivergentMeasure):
            BinaryPowerLaw(bad)


def test_gen_inverse_binary():
    law = BinaryPowerLaw(0.5)
    assert abs(law.gen_inverse_f(100.0) - 9.7230e-5) < 1e-8
    assert law.gen_inverse_f(0.0) == pytest.approx(0.5, abs=1e-12)
    for y in (0.0, 0.5, 3.0, 40.0, 1e4):
        assert abs(law.gen_inverse_f(y) - inverse_oracle(law, y)) < 1e-9


def test_galois_inequalities_all_families():
    laws = (BinaryPowerLaw(0.5),
            FiniteAtomic([(1.0, (0.6, 0.4)), (0.5, (0.7, 0.3))]),
            BrennanDurrett(2.0, 2.0))
    xs = np.geomspace(1e-6, 0.499, 100)
    for law in laws:
        ys = np.concatenate([law.tail_nu2(xs), np.linspace(0.0, 5.0, 100)])
        for y in ys:
            assert law.tail_nu2(law.gen_inverse_f(float(y))) <= y + 1e-9
        for x in xs:
            assert law.gen_inverse_f(law.tail_nu2(float(x))) <= x + 1e-9


def test_tail_monotone_and_markov_bound():
    laws = (BinaryPowerLaw(0.5),
            FiniteAtomic([(1.0, (0.6, 0.4)), (2.0, (0.55, 0.45))]),
            BrennanDurrett(1.0, 1.0))
    xs = np.linspace(1e-4, 0.7, 100)
    for law in laws:
        tails = [law.tail_nu2(float(x)) for x in xs]
        dust = law.dust_integral()
        for x, t, t_next in zip(xs, tails, tails[1:] + [0.0]):
            assert t >= t_next - 1e-12
            assert x * t <= dust + 1e-9
        assert law.tail_nu2(0.51) == 0.0


def test_finite_atomic_examples():
    law = FiniteAtomic([(1.0, (0.9, 0.1))])
    assert law.dust_integral() == pytest.approx(0.1, abs=1e-12)
    assert law.truncated_mass(0.05) == 1.0
    assert law.truncated_mass(0.2) == 0.0
    assert FiniteAtomic([(2.0, (0.5, 0.5))]).dust_integral() == pytest.approx(1.0)
    two = FiniteAtomic([(1.0, (0.6, 0.4))])
    assert two.tail_nu2(0.3) == 1.0
    assert two.tail_nu2(0.5) == 0.0
    assert two.tail_nu2_strict(0.4) == 0.0
    assert two.tail_nu2(0.4) == 1.0
    assert not two.infinite_activity


def test_finite_atomic_construction_errors():
    with pytest.raises(NegativeMass):
        FiniteAtomic([(0.0, (0.6, 0.4))])
    with pytest.raises(InvalidFragmentVector):
        FiniteAtomic([(1.0, (1.0,))])
    with pytest.raises(InvalidFragmentVector):
        FiniteAtomic([(1.0, (0.4, 0.6))])
    with pytest.raises(InvalidFragmentVector):
        FiniteAtomic([(1.0, (0.8, 0.4))])


def test_sample_dislocation_atomic():
    rng = np.random.default_rng(1)
    law = FiniteAtomic([(1.0, (0.6, 0.4))])
    for _ in range(20):
        assert law.sample_dislocation(0.0, rng) == (0.6, 0.4)
    with pytest.raises(EmptyTruncation):
        law.sample_dislocation(0.9, rng)
    # weighted choice: second atom drawn with frequency w2/(w1+w2)
    law = FiniteAtomic([(1.0, (0.6, 0.4)), (3.0, (0.7, 0.3))])
    hits = sum(law.sample_dislocation(0.0, rng) == (0.7, 0.3)
               for _ in range(20000))
    assert abs(hits / 20000 - 0.75) < 3 * math.sqrt(0.75 * 0.25 / 20000)


class _FixedUniform:
    """Stub generator whose random() returns a preset value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("eps", (0.0, 0.1))
def test_atomic_sampler_on_cumulative_boundaries(eps):
    # dyadic weights, so u * total lands exactly on each cumulative weight;
    # the reference is np.searchsorted(side="right"), clamped to the last atom
    atoms = [(1.0, (0.6, 0.4)), (0.5, (0.95, 0.05)), (1.0, (0.7, 0.3)),
             (2.0, (0.5, 0.5))]
    law = FiniteAtomic(atoms)
    keep = [i for i, (_, f) in enumerate(atoms) if 1.0 - f[0] >= eps]
    cum = np.cumsum([atoms[i][0] for i in keep])
    total = cum[-1]
    grid = [0.0, 1.0] + [c / total for c in cum]
    grid += [np.nextafter(r, side) for r in grid[2:] for side in (0.0, 1.0)]
    for r in grid:
        i = min(int(np.searchsorted(cum, r * total, side="right")),
                len(keep) - 1)
        assert law.sample_dislocation(eps, _FixedUniform(r)) == atoms[keep[i]][1]


def test_truncated_mass_cache_follows_eps():
    atoms = [(1.0, (0.6, 0.4)), (3.0, (0.7, 0.3)), (0.5, (0.95, 0.05))]
    law = FiniteAtomic(atoms)
    w = np.array([a[0] for a in atoms])
    s1 = np.array([a[1][0] for a in atoms])
    rng = np.random.default_rng(3)
    for eps in (0.0, 0.2, 0.0, 0.45, 0.1, 0.1):
        assert law.truncated_mass(eps) == float(np.sum(w[(1.0 - s1) >= eps]))
        if eps < 0.45:
            assert 1.0 - law.sample_dislocation(eps, rng)[0] >= eps
        else:
            with pytest.raises(EmptyTruncation):
                law.sample_dislocation(eps, rng)
    binary = BinaryPowerLaw(0.5)
    for eps in (0.01, 0.1, 0.01, 0.6, 0.25):
        assert binary.truncated_mass(eps) == max(binary.tail_nu2(eps), 0.0)
    for eps in (0.0, -0.1):
        with pytest.raises(EmptyTruncation):
            binary.truncated_mass(eps)


def test_nan_is_rejected_with_a_typed_error():
    with pytest.raises(NegativeMass):
        FiniteAtomic([(math.nan, (0.6, 0.4))])
    with pytest.raises(InvalidFragmentVector):
        FiniteAtomic([(1.0, (math.nan, 0.5))])
    for spec in ("measure = atomic; atoms = nan:0.5,0.5",
                 "measure = atomic; atoms = 1.0:nan,0.5",
                 "measure = atomic; atoms = 1.0:0.6,0.4;1.0:0.5,nan"):
        with pytest.raises(ConfigError):
            parse_measure(spec)


def test_sample_dislocation_binary_inverse_cdf():
    law = BinaryPowerLaw(0.5)
    rng = np.random.default_rng(2)
    eps = 0.01
    n = 10 ** 5
    draws = [law.sample_dislocation(eps, rng) for _ in range(n)]
    for s1, s2 in draws[:1000]:
        assert s1 + s2 == 1.0
        assert eps <= s2 <= 0.5
        assert s1 >= s2
    total = law.tail_nu2(eps)
    cdf = lambda x: 1.0 - law.tail_nu2(x) / total if x >= eps else 0.0
    stat = ks_stat([s2 for _, s2 in draws], cdf)
    assert stat < 1.36 / math.sqrt(n) + 0.005
    assert stat < 0.01


def test_brennan_durrett_uniform_and_beta_oracles():
    flat = BrennanDurrett(1.0, 1.0)
    assert abs(flat.tail_nu2(0.25) - 0.5) < 1e-9
    assert abs(flat.dust_integral() - 0.25) < 1e-8
    bump = BrennanDurrett(2.0, 2.0)
    assert abs(bump.tail_nu2(0.25) - 0.6875) < 1e-9
    assert abs(bump.dust_integral() - 0.3125) < 1e-8
    # quadrature oracle for the tail at an arbitrary point
    dens = sps.beta(2.0, 2.0).pdf
    val, err = integrate.quad(dens, 0.1, 0.9)
    assert abs(bump.tail_nu2(0.1) - val) < 1e-8
    for bad in ((0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(DivergentMeasure):
            BrennanDurrett(*bad)


def test_brennan_durrett_sampling():
    law = BrennanDurrett(2.0, 2.0)
    rng = np.random.default_rng(3)
    for _ in range(500):
        s1, s2 = law.sample_dislocation(0.05, rng)
        assert s1 >= s2 >= 0.05
        assert abs(s1 + s2 - 1.0) < 1e-12
    with pytest.raises(EmptyTruncation):
        law.sample_dislocation(0.5, rng)


def test_brennan_durrett_draws_as_the_frozen_beta_did():
    # sample_dislocation inverts through scipy.special.betaincinv from a
    # cached betainc(p, q, eps); the frozen scipy.stats.beta's ppf and cdf
    # gave the same floats, so the stream is unchanged
    uniforms = np.random.default_rng(0).random(2000)
    for p in (0.5, 1.0, 2.0, 3.0, 7.5):
        for q in (0.5, 1.0, 3.0, 4.0):
            law, frozen = BrennanDurrett(p, q), sps.beta(p, q)
            for eps in (0.0, 1e-3, 0.1):
                total = law.truncated_mass(eps)
                lo = float(frozen.cdf(eps))
                want = frozen.ppf(lo + uniforms * total).tolist()
                rng = np.random.default_rng(0)
                got = [law.sample_dislocation(eps, rng, total=total)
                       for _ in uniforms]
                assert got == [(max(v, 1.0 - v), min(v, 1.0 - v))
                               for v in want]


def test_parse_measure_grammar():
    law = parse_measure("measure = binary_power; a = 0.5")
    assert isinstance(law, BinaryPowerLaw) and law.a == 0.5
    law = parse_measure("measure = brennan_durrett; p = 2; q = 3")
    assert isinstance(law, BrennanDurrett)
    law = parse_measure("measure = atomic; atoms = 1.0:0.6,0.4;0.5:0.9,0.1")
    assert isinstance(law, FiniteAtomic)
    assert law.atoms == ((1.0, (0.6, 0.4)), (0.5, (0.9, 0.1)))
    for bad in ("measure = binary_power",
                "measure = binary_power; a = 0.5; q = 1",
                "measure = binary_power; a = 2.0",
                "measure = nonsense; a = 1",
                "a = 0.5",
                "measure = atomic; atoms = 1.0:0.6,0.4; atoms = 1.0:0.5,0.5"):
        with pytest.raises(ConfigError):
            parse_measure(bad)


def test_sub_levy_transform_atomic():
    law = FiniteAtomic([(1.0, (0.9, 0.1))])
    spec = sub_levy_transform(law, 0.7, 0.0)
    assert spec.drift == 0.7
    assert abs(spec.killing_rate - 0.1) < 1e-12
    assert spec.jump_rate == 0.9
    rng = np.random.default_rng(3)
    assert all(spec.jump_sampler(rng) == -math.log(0.9) for _ in range(200))
    assert sub_levy_transform(law, 0.0, 0.0).drift == 0.0


def test_sub_levy_sampler_follows_the_kept_atoms():
    # the 0.95 atom has 1 - s1 < eps and is cut; a kept atom jumps by
    # -log s1 with probability proportional to w * s1 = (0.6, 2.1)
    law = FiniteAtomic([(1.0, (0.6, 0.4)), (3.0, (0.7, 0.3)), (0.5, (0.95, 0.05))])
    spec = sub_levy_transform(law, 0.0, 0.1)
    assert spec.jump_rate == pytest.approx(2.7, abs=1e-12)
    rng = np.random.default_rng(8)
    n = 20000
    sizes = [spec.jump_sampler(rng) for _ in range(n)]
    assert -math.log(0.95) not in sizes
    counts = [sizes.count(-math.log(0.6)), sizes.count(-math.log(0.7))]
    assert sum(counts) == n
    assert pooled_chi_square(counts, [n * 0.6 / 2.7, n * 2.1 / 2.7]) > 0.01


def test_sub_levy_transform_binary_sampler():
    law = BinaryPowerLaw(0.5)
    spec = sub_levy_transform(law, 0.0, 0.01)
    rng = np.random.default_rng(4)
    xs = [spec.jump_sampler(rng) for _ in range(2000)]
    # jumps are -log s1 for s1 in [1/2, 1 - eps]
    assert all(0.0 < x <= math.log(2.0) + 1e-12 for x in xs)
    assert spec.jump_rate < law.truncated_mass(0.01)


@pytest.mark.parametrize("law, eps", (
    (FiniteAtomic([(1.0, (0.6, 0.4)), (3.0, (0.7, 0.3)), (0.5, (0.95, 0.05))]), 0.1),
    (BinaryPowerLaw(0.3), 0.01),
    (BrennanDurrett(2.0, 3.0), 0.0),
    (BrennanDurrett(0.7, 1.5), 0.2),
))
def test_sample_dislocation_with_precomputed_total(law, eps):
    given, default = np.random.default_rng(5), np.random.default_rng(5)
    total = law.truncated_mass(eps)
    for _ in range(200):
        assert (law.sample_dislocation(eps, given, total=total)
                == law.sample_dislocation(eps, default))
    # every law above is empty at eps = 0.6, where its total is 0
    with pytest.raises(EmptyTruncation):
        law.sample_dislocation(0.6, given, total=law.truncated_mass(0.6))


def test_sub_levy_sampler_reuses_the_truncated_mass():
    calls = []

    class Counting(BinaryPowerLaw):
        def truncated_mass(self, eps):
            calls.append(eps)
            return super().truncated_mass(eps)

    spec = sub_levy_transform(Counting(0.5), 0.0, 0.01)
    plain = sub_levy_transform(BinaryPowerLaw(0.5), 0.0, 0.01)
    built = len(calls)
    a, b = np.random.default_rng(6), np.random.default_rng(6)
    assert ([spec.jump_sampler(a) for _ in range(300)]
            == [plain.jump_sampler(b) for _ in range(300)])
    assert len(calls) == built


def test_finite_atomic_truncation_cache_is_read_once():
    # another thread refilling the cache at a different eps between the
    # reads of one entry must not mix levels: every field a caller uses
    # comes from the single entry _truncation read. The refill is injected
    # at each read of the entry, the eps check included.
    law = FiniteAtomic([(1.0, (0.6, 0.4)), (2.0, (0.7, 0.3)), (4.0, (0.95, 0.05))])
    entry = law._truncation(0.0)
    refill = law._truncation(0.2)
    fresh = FiniteAtomic(law.atoms)

    class Entry(tuple):
        def __getitem__(self, i):
            law._trunc_cache = refill
            return tuple.__getitem__(self, i)

        def __iter__(self):
            law._trunc_cache = refill
            return tuple.__iter__(self)

    class TopRng:
        # u = 0.99 * 7.0 picks the last atom, which eps = 0.2 cuts
        def random(self):
            return 0.99

    reads = (
        (lambda: law._truncation(0.0)[1].tolist(), [0, 1, 2]),
        (lambda: law._truncation(0.0)[2], [1.0, 3.0, 7.0]),
        (lambda: law.truncated_mass(0.0), 7.0),
        (lambda: law.jump_rate_truncated(0.0), fresh.jump_rate_truncated(0.0)),
        (lambda: law.sample_dislocation(0.0, TopRng()), (0.95, 0.05)),
    )
    for read, want in reads:
        law._trunc_cache = Entry(entry)
        assert read() == want
