"""Dislocation law analytics against independent quadrature and bisection oracles."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from fragsim import (
    BinaryPowerLaw,
    BrennanDurrett,
    DislocationLaw,
    FiniteAtomic,
    ks_stat,
    parse_measure,
    validate_fragments,
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


def test_binary_tail_keeps_its_closed_form_below_1e_300():
    # the pow is taken at x itself, not at x clamped to 1e-300
    law = BinaryPowerLaw(0.5)
    assert law.tail_nu2(1e-310) == 1e-310 ** -0.5 - 2 ** 0.5
    assert law.tail_nu2(5e-324) == 5e-324 ** -0.5 - 2 ** 0.5
    xs = np.array([1e-310, 0.0, -1.0, -math.inf, math.nan])
    assert np.array_equal(law.tail_nu2(xs),
                          [1e-310 ** -0.5 - 2 ** 0.5, math.inf, math.inf,
                           math.inf, math.nan], equal_nan=True)


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


def test_gen_inverse_binary_matches_the_bisection_below_zero():
    # no x has tail_nu2(x) <= y < 0; the closed form divided by zero at
    # y = -2^a, went complex below it and passed 1/2 above it
    for a in (0.3, 0.5, 0.8):
        law = BinaryPowerLaw(a)
        for y in (-1e6, -2.0, -2.0 ** a, -0.5, -1e-12, 0.0, 0.5, 3.0, 40.0):
            got = law.gen_inverse_f(y)
            assert isinstance(got, float)
            assert abs(got - DislocationLaw.gen_inverse_f(law, y)) < 1e-9


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
    # an infinite rate would make every wait 0; RuntimeWarning is an error
    # here, so a sum that overflows must raise without numpy's warning
    for atoms in ([(math.inf, (0.6, 0.4))],
                  [(1.0, (0.6, 0.4)), (math.inf, (0.7, 0.3))],
                  [(1e308, (0.6, 0.4)), (1e308, (0.7, 0.3))]):
        with pytest.raises(DivergentMeasure):
            FiniteAtomic(atoms)


@pytest.mark.parametrize("fragments", [(None,), ("0.5",), 0.5],
                         ids=["None", "str", "no-vector"])
def test_atom_ratios_that_are_not_numbers_raise_a_typed_error(fragments):
    with pytest.raises(InvalidFragmentVector, match="sequence of numbers"):
        FiniteAtomic([(1.0, fragments)])


def test_sample_dislocation_atomic():
    rng = np.random.default_rng(1)
    law = FiniteAtomic([(1.0, (0.6, 0.4))])
    for _ in range(20):
        assert law.sample_dislocation(0.0, 1.0, rng.random()) == (0.6, 0.4)
    with pytest.raises(EmptyTruncation):
        law.sample_dislocation(0.9, law.truncated_mass(0.9), rng.random())
    # weighted choice: second atom drawn with frequency w2/(w1+w2)
    law = FiniteAtomic([(1.0, (0.6, 0.4)), (3.0, (0.7, 0.3))])
    hits = sum(law.sample_dislocation(0.0, 4.0, u) == (0.7, 0.3)
               for u in rng.random(20000).tolist())
    assert abs(hits / 20000 - 0.75) < 3 * math.sqrt(0.75 * 0.25 / 20000)


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
        assert law.sample_dislocation(eps, total, r) == atoms[keep[i]][1]


def test_truncated_mass_cache_follows_eps():
    atoms = [(1.0, (0.6, 0.4)), (3.0, (0.7, 0.3)), (0.5, (0.95, 0.05))]
    law = FiniteAtomic(atoms)
    w = np.array([a[0] for a in atoms])
    s1 = np.array([a[1][0] for a in atoms])
    rng = np.random.default_rng(3)
    for eps in (0.0, 0.2, 0.0, 0.45, 0.1, 0.1):
        total = law.truncated_mass(eps)
        assert total == float(np.sum(w[(1.0 - s1) >= eps]))
        if eps < 0.45:
            assert 1.0 - law.sample_dislocation(eps, total, rng.random())[0] >= eps
        else:
            with pytest.raises(EmptyTruncation):
                law.sample_dislocation(eps, total, rng.random())
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


@pytest.mark.parametrize("make, name", (
    (lambda: BinaryPowerLaw("x"), "exponent a"),
    (lambda: BinaryPowerLaw(None), "exponent a"),
    (lambda: BinaryPowerLaw([0.5, 0.6]), "exponent a"),
    (lambda: BrennanDurrett(None, 2.0), "Beta parameter p"),
    (lambda: BrennanDurrett(2.0, "q"), "Beta parameter q"),
    (lambda: FiniteAtomic([("x", (0.5,))]), "atom weight"),
    (lambda: FiniteAtomic([(None, (0.5,))]), "atom weight"),
), ids=("a-str", "a-none", "a-list", "p-none", "q-str", "weight-str",
        "weight-none"))
def test_law_parameters_that_are_not_numbers_raise_config_error(make, name):
    # float() raised a bare ValueError or TypeError for each
    with pytest.raises(ConfigError, match=f"^{name} .* must be a number$"):
        make()
    # parse_measure converts its values first and keeps its own message
    with pytest.raises(ConfigError, match="^bad measure spec: "):
        parse_measure("measure = binary_power; a = x")


def test_sample_dislocation_binary_inverse_cdf():
    law = BinaryPowerLaw(0.5)
    rng = np.random.default_rng(2)
    eps = 0.01
    n = 10 ** 5
    draws = [law.sample_dislocation(eps, law.truncated_mass(eps), u)
             for u in rng.random(n).tolist()]
    for s1, s2 in draws[:1000]:
        assert s1 + s2 == 1.0
        assert eps <= s2 <= 0.5
        assert s1 >= s2
    total = law.tail_nu2(eps)
    cdf = lambda x: 1.0 - law.tail_nu2(x) / total if x >= eps else 0.0
    stat = ks_stat([s2 for _, s2 in draws], cdf)
    assert stat < 1.36 / math.sqrt(n) + 0.005
    assert stat < 0.01


def test_binary_sampler_never_returns_an_increasing_vector():
    # at u = 0 the sum u * total + 2**a is 2**a, whose power -1/a rounds
    # above 1/2 for some a; the small piece is clamped to 1/2 there, and
    # every s2 at or below 1/2 is the formula's float
    rng = np.random.default_rng(3)
    clamped = 0
    for k in range(1, 1000):
        law = BinaryPowerLaw(k / 1000)
        total = law.truncated_mass(0.01)
        for u in (0.0, *rng.random(3).tolist()):
            raw = (u * total + 2.0 ** law.a) ** (-1.0 / law.a)
            s1, s2 = law.sample_dislocation(0.01, total, u)
            assert s2 == min(raw, 0.5) and s1 == 1.0 - s2
            assert validate_fragments((s1, s2)) == (s1, s2)
            clamped += raw > 0.5
    assert clamped > 100
    assert BinaryPowerLaw(0.007).sample_dislocation(0.01, 1.0, 0.0) == (0.5, 0.5)


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
    for bad in ((0.0, 1.0), (1.0, -2.0), (math.nan, 2.0), (2.0, math.nan),
                (math.inf, 2.0), (2.0, math.inf)):
        with pytest.raises(DivergentMeasure):
            BrennanDurrett(*bad)


def test_brennan_durrett_sampling():
    law = BrennanDurrett(2.0, 2.0)
    rng = np.random.default_rng(3)
    for u in rng.random(500).tolist():
        s1, s2 = law.sample_dislocation(0.05, law.truncated_mass(0.05), u)
        assert s1 >= s2 >= 0.05
        assert abs(s1 + s2 - 1.0) < 1e-12
    with pytest.raises(EmptyTruncation):
        law.sample_dislocation(0.5, law.truncated_mass(0.5), rng.random())


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
                got = [law.sample_dislocation(eps, total, u)
                       for u in uniforms.tolist()]
                assert got == [(max(v, 1.0 - v), min(v, 1.0 - v))
                               for v in want]


def test_brennan_durrett_tail_is_the_frozen_beta_cdf():
    # tail_nu2 calls scipy.special.betainc, which gives the frozen
    # scipy.stats.beta's cdf bit for bit, so truncated rates do not move
    x = np.concatenate([np.linspace(-0.1, 0.6, 701), np.geomspace(1e-300, 0.5, 60),
                        [0.0, 0.5, np.nextafter(0.5, 0.0)]])
    inside = np.clip(x, 0.0, 0.5)
    for p, q in ((0.05, 0.9), (5.0, 1.2), (0.5, 0.5), (10.0, 0.3)):
        frozen = sps.beta(p, q)
        want = frozen.cdf(1.0 - inside) - frozen.cdf(inside)
        want = np.where(x > 0.5, 0.0, np.where(x <= 0.0, 1.0, want))
        assert BrennanDurrett(p, q).tail_nu2(x).tolist() == want.tolist()


@pytest.mark.parametrize("p, q", ((0.05, 0.9), (5.0, 1.2), (0.5, 0.5), (0.2, 7.0)))
def test_brennan_durrett_dust_integral_against_mpmath(p, q):
    # E[min(V, 1-V)] for V ~ Beta(p, q) at 40 digits; the quadrature the
    # closed form replaced was off by 1.5e-9 (relative) at (0.05, 0.9)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, b = mpmath.mpf(p), mpmath.mpf(q)
        half = mpmath.mpf(1) / 2
        want = mpmath.quad(
            lambda v: min(v, 1 - v) * v ** (a - 1) * (1 - v) ** (b - 1),
            [0, half, 1]) / mpmath.beta(a, b)
        got = BrennanDurrett(p, q).dust_integral()
        assert abs(got - want) <= 1e-12 * want


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
                "measure = atomic; atoms = 1.0:0.6,0.4; atoms = 1.0:0.5,0.5",
                "measure = atomic; atoms = inf:0.6,0.4",
                "measure = atomic; atoms = 1e308:0.6,0.4;1e308:0.7,0.3",
                "measure = brennan_durrett; p = nan; q = 2",
                "measure = brennan_durrett; p = 2; q = inf"):
        with pytest.raises(ConfigError):
            parse_measure(bad)


def test_parse_measure_grammar_edges():
    # a trailing ';' leaves an empty fragment with no key
    with pytest.raises(ConfigError, match="dangling fragment"):
        parse_measure("measure = binary_power; a = 0.5;")
    # an empty atom list is the law with no dislocations
    law = parse_measure("measure = atomic; atoms =")
    assert isinstance(law, FiniteAtomic) and law.atoms == ()
    # an atom with no ':' has no fragment vector
    with pytest.raises(ConfigError, match="bad atom '1.0'"):
        parse_measure("measure = atomic; atoms = 1.0")


# one or two laws per family, each at a truncation level where it has events
SAMPLED_LAWS = (
    (FiniteAtomic([(1.0, (0.6, 0.4)), (3.0, (0.7, 0.3)), (0.5, (0.95, 0.05))]), 0.1),
    (BinaryPowerLaw(0.3), 0.01),
    (BrennanDurrett(2.0, 3.0), 0.0),
    (BrennanDurrett(0.7, 1.5), 0.2),
)


U_GRID = (0.0, 2.0 ** -53, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.9, math.nextafter(1.0, 0.0))
# SAMPLED_LAWS' vectors at U_GRID, s1 and s2 as float.hex, recorded when
# each law computed its own total and drew u from its generator's random()
RECORDED = (
    (
        "0x1.3333333333333p-1 0x1.999999999999ap-2",
        "0x1.3333333333333p-1 0x1.999999999999ap-2",
        "0x1.3333333333333p-1 0x1.999999999999ap-2",
        "0x1.6666666666666p-1 0x1.3333333333333p-2",
        "0x1.6666666666666p-1 0x1.3333333333333p-2",
        "0x1.6666666666666p-1 0x1.3333333333333p-2",
        "0x1.6666666666666p-1 0x1.3333333333333p-2",
        "0x1.6666666666666p-1 0x1.3333333333333p-2",
    ),
    (
        "0x1.0000000000000p-1 0x1.fffffffffffffp-2",
        "0x1.0000000000003p-1 0x1.ffffffffffffap-2",
        "0x1.7d441ed607d59p-1 0x1.0577c253f054ep-2",
        "0x1.c5a8e1bfe1bdcp-1 0x1.d2b8f200f2120p-4",
        "0x1.d7f27cca57436p-1 0x1.406c19ad45e53p-4",
        "0x1.eafaee703e388p-1 0x1.505118fc1c77dp-5",
        "0x1.f98019232d33ep-1 0x1.9ff9b734b309ep-7",
        "0x1.fae147ae147aep-1 0x1.47ae147ae147dp-7",
    ),
    (
        "0x1.0000000000000p+0 0x0.0p+0",
        "0x1.ffffffdb0cb17p-1 0x1.279a74673c156p-28",
        "0x1.b7027719fb0a2p-1 0x1.23f6239813d77p-3",
        "0x1.83929c041faebp-1 0x1.f1b58fef81455p-3",
        "0x1.6ac0f08f4fd7ep-1 0x1.2a7e1ee160504p-2",
        "0x1.3a81ea8b695b6p-1 0x1.8afc2ae92d494p-2",
        "0x1.5bec972283f3fp-1 0x1.4826d1baf8182p-2",
        "0x1.ffff9a680060ep-1 0x1.965ffe7c80000p-19",
    ),
    (
        "0x1.9999999999999p-1 0x1.999999999999cp-3",
        "0x1.9999999999998p-1 0x1.99999999999a2p-3",
        "0x1.85cec7a93a294p-1 0x1.e8c4e15b175b0p-3",
        "0x1.651ce2d5663b2p-1 0x1.35c63a553389dp-2",
        "0x1.51402765b2e45p-1 0x1.5d7fb1349a376p-2",
        "0x1.25531b4871a70p-1 0x1.b559c96f1cb21p-2",
        "0x1.66e5f233ecb2ap-1 0x1.32341b98269acp-2",
        "0x1.9999999999993p-1 0x1.99999999999b4p-3",
    ),
)


@pytest.mark.parametrize(
    "law, eps, recorded",
    [(*case, rows) for case, rows in zip(SAMPLED_LAWS, RECORDED)],
    ids=[f"law{i}-{eps}" for i, (_, eps) in enumerate(SAMPLED_LAWS)])
def test_sample_dislocation_with_precomputed_total(law, eps, recorded):
    # a law maps the uniform it is given, at the total its caller computed,
    # to the very vector it gave when it drew that uniform itself
    total = law.truncated_mass(eps)
    for u, want in zip(U_GRID, recorded):
        assert " ".join(x.hex() for x in law.sample_dislocation(eps, total, u)) == want
    # every law above is empty at eps = 0.6, where its total is 0
    with pytest.raises(EmptyTruncation):
        law.sample_dislocation(0.6, law.truncated_mass(0.6), 0.5)


def test_finite_atomic_truncation_cache_is_read_once():
    # another thread refilling the cache at a different eps between the
    # reads of one entry must not mix levels: every field a caller uses
    # comes from the single entry _truncation read. The refill is injected
    # at each read of the entry, the eps check included.
    law = FiniteAtomic([(1.0, (0.6, 0.4)), (2.0, (0.7, 0.3)), (4.0, (0.95, 0.05))])
    entry = law._truncation(0.0)
    refill = law._truncation(0.2)

    class Entry(tuple):
        def __getitem__(self, i):
            law._trunc_cache = refill
            return tuple.__getitem__(self, i)

        def __iter__(self):
            law._trunc_cache = refill
            return tuple.__iter__(self)

    reads = (
        (lambda: law._truncation(0.0)[1], [1.0, 3.0, 7.0]),
        (lambda: law.truncated_mass(0.0), 7.0),
        # u = 0.99 picks the last atom, which eps = 0.2 cuts
        (lambda: law.sample_dislocation(0.0, 7.0, 0.99), (0.95, 0.05)),
    )
    for read, want in reads:
        law._trunc_cache = Entry(entry)
        assert read() == want
