"""Angles, component densities, exact Fourier coefficients, and samplers."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circmix import (DomainError, MixtureParams, Sample, Tabulated, VonMises,
                     WrappedCauchy, WrappedNormal, mixture_density,
                     mixture_fourier, normalize, parse_density,
                     sample_component, sample_mixture)

from _oracles import TWO_PI, quad_fourier, quad_integral

NAMED = [VonMises(1.0), VonMises(5.0), WrappedCauchy(0.8), WrappedNormal(0.8)]


def test_normalize_values():
    assert normalize(0.0) == 0.0
    assert normalize(TWO_PI) == 0.0
    assert_allclose(normalize(-np.pi / 2), 3 * np.pi / 2, atol=1e-12)


def test_normalize_idempotent_and_periodic():
    rng = np.random.default_rng(1)
    x = rng.uniform(-50, 50, 500)
    once = normalize(x)
    assert np.all((once >= 0) & (once < TWO_PI))
    assert_allclose(normalize(once), once, atol=0)
    k = rng.integers(-5, 6, 500)
    assert_allclose(normalize(x + TWO_PI * k), once, atol=1e-9)


def normalize_by_mod(x):
    out = np.mod(np.asarray(x, dtype=float), TWO_PI)
    return np.where(out >= TWO_PI, 0.0, out)


def test_normalize_is_the_mod_bit_for_bit():
    below_two_pi = np.nextafter(TWO_PI, 0.0)
    inside = np.array([0.0, -0.0, 5e-324, 1.0, np.pi, below_two_pi])
    rng = np.random.default_rng(2)
    cases = [inside, rng.uniform(0.0, TWO_PI, 1000), np.array([-0.0]),
             np.array([-1e-300, -1.0, 0.5]), np.array([TWO_PI, 7.0, 1.0]),
             np.append(inside, -np.pi), np.append(inside, 1e6)]
    for x in cases:
        out = normalize(x)
        assert out.tobytes() == normalize_by_mod(x).tobytes()
        assert not np.shares_memory(out, x)
    for x in (0.0, -0.0, below_two_pi, -1e-300, TWO_PI, 3.0):
        assert np.float64(normalize(x)).tobytes() == normalize_by_mod(x).tobytes()


def test_normalize_rejects_nonfinite():
    with pytest.raises(DomainError):
        normalize(float("inf"))
    with pytest.raises(DomainError):
        normalize(np.array([0.0, np.nan]))


def test_uniform_limits():
    x = np.linspace(0, TWO_PI, 7)
    assert_allclose(VonMises(0.0).pdf(x), 1 / TWO_PI)
    assert_allclose(WrappedCauchy(0.0).pdf(x), 1 / TWO_PI)
    assert_allclose(WrappedNormal(0.0).pdf(x), 1 / TWO_PI)


def test_vonmises_value_at_mode():
    # oracle for I_0(1): integral representation on a fine grid
    t = np.linspace(0.0, np.pi, 200001)
    i0 = np.trapezoid(np.exp(np.cos(t)), t) / np.pi
    assert_allclose(VonMises(1.0).pdf(0.0), math.e / (TWO_PI * i0), rtol=1e-10)


def test_densities_normalized():
    x = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    for d in NAMED + [VonMises(5.0, mu=1.3), Tabulated(np.abs(np.sin(x[:512])) + 0.1)]:
        assert abs(quad_integral(d.pdf(x)) - 1.0) < 1e-8


def test_exact_fourier_l0():
    for d in NAMED:
        assert_allclose(d.fourier_coeff(0), 1 / TWO_PI, rtol=0, atol=1e-15)


def test_wrapped_cauchy_coefficient_value():
    got = WrappedCauchy(0.8).fourier_coeff(2)
    assert_allclose(got, 0.64 / TWO_PI, rtol=1e-14)
    assert abs(got - quad_fourier(WrappedCauchy(0.8).pdf, 2)) < 1e-10


def test_exact_fourier_matches_quadrature():
    # real, nonzero, and within 1e-10 of a 2048-point quadrature for l = 1..4
    for d in NAMED:
        for l in range(1, 5):
            exact = d.fourier_coeff(l)
            assert exact.imag == 0.0
            assert exact.real > 0.0
            assert abs(exact - quad_fourier(d.pdf, l)) < 1e-10
            assert d.fourier_coeff(-l) == np.conj(exact)


def test_exact_fourier_with_location():
    d = VonMises(2.0, mu=0.9)
    for l in range(-4, 5):
        assert abs(d.fourier_coeff(l) - quad_fourier(d.pdf, l)) < 1e-10


def test_vonmises_matches_mpmath_bessel_ratio():
    # f_l = I_l(kappa) / (2 pi I_0(kappa)) up to kappa = 1000, where I_0 itself
    # overflows a double; the density at and near the mode likewise
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            VonMises(bad)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    kappas = np.concatenate([[0.0], np.linspace(0.01, 14.99, 12),
                             np.linspace(15.0, 120.0, 12), [350.0, 700.0, 1000.0]])
    for kappa in kappas:
        d = VonMises(float(kappa))
        i0 = mp.besseli(0, mp.mpf(float(kappa)))
        for l in range(9):
            ref = float(mp.besseli(l, mp.mpf(float(kappa))) / (2 * mp.pi * i0))
            assert_allclose(d.fourier_coeff(l), ref, rtol=1e-12, atol=0)
        for x in (0.0, 0.1):
            ref = float(mp.exp(kappa * mp.cos(x)) / (2 * mp.pi * i0))
            assert_allclose(d.pdf(x), ref, rtol=1e-12, atol=0)


def test_parseval_partial_sums():
    for d in NAMED:
        x = np.linspace(0.0, TWO_PI, 8192, endpoint=False)
        total = quad_integral(d.pdf(x) ** 2) / TWO_PI
        partial = 0.0
        previous = -1.0
        for L in range(0, 61):
            partial = sum(abs(d.fourier_coeff(l)) ** 2 for l in range(-L, L + 1))
            assert partial >= previous
            assert partial <= total + 1e-12
            previous = partial
        assert_allclose(partial, total, rtol=1e-8)


def test_tabulated_roundtrip(tmp_path):
    grid = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    values = np.exp(0.7 * np.cos(grid))
    path = tmp_path / "density.txt"
    np.savetxt(path, np.column_stack([grid, values]))
    d = Tabulated.from_text(path)
    ref = VonMises(0.7)
    assert_allclose(d.pdf(grid), ref.pdf(grid), rtol=5e-4)
    for l in range(0, 4):
        assert abs(d.fourier_coeff(l) - ref.fourier_coeff(l)) < 1e-4


def test_tabulated_rejects_bad_values():
    with pytest.raises(DomainError):
        Tabulated(np.concatenate([[-0.1], np.ones(31)]))
    with pytest.raises(DomainError):
        Tabulated(np.zeros(32))


def test_sampling_deterministic():
    for d in NAMED:
        a = d.sample(100, np.random.default_rng(42))
        b = d.sample(100, np.random.default_rng(42))
        assert np.array_equal(a, b)


def test_uniform_sampler_first_coefficient():
    n = 100000
    x = VonMises(0.0).sample(n, np.random.default_rng(3))
    emp = np.mean(np.exp(-1j * x)) / TWO_PI
    assert abs(emp) < 3.0 / math.sqrt(4 * math.pi ** 2 * n)
    assert abs(emp) < 0.02


def test_wrapped_normal_mean_direction():
    x = WrappedNormal(0.8).sample(100000, np.random.default_rng(4))
    mean_dir = np.angle(np.mean(np.exp(1j * x)))
    # sd of the mean direction ~ sqrt((1-rho^4)/(2n))/rho; assert within 3 sd
    sd = math.sqrt((1 - 0.8 ** 4) / (2 * 100000)) / 0.8
    assert abs(mean_dir) < 3 * sd


def test_samplers_match_exact_coefficients():
    # empirical (1/2pi n) sum e^{-ilX} vs exact, CLT-scale bound
    n = 100000
    bound = 4.0 / math.sqrt(4 * math.pi ** 2 * n)
    for i, d in enumerate(NAMED):
        x = d.sample(n, np.random.default_rng(100 + i))
        for l in range(1, 5):
            emp = np.mean(np.exp(-1j * l * x)) / TWO_PI
            assert abs(emp - d.fourier_coeff(l)) < bound


def test_tabulated_sampler():
    grid = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    d = Tabulated(np.exp(1.5 * np.cos(grid)))
    x = d.sample(100000, np.random.default_rng(9))
    ref = VonMises(1.5)
    for l in range(1, 4):
        emp = np.mean(np.exp(-1j * l * x)) / TWO_PI
        assert abs(emp - ref.fourier_coeff(l)) < 3e-3


def test_sample_component_meta():
    s = sample_component(VonMises(2.0), 50, np.random.default_rng(0))
    assert isinstance(s, Sample)
    assert s.n == 50
    assert "vonmises" in s.meta["density"]


def test_mixture_params_validation():
    with pytest.raises(DomainError):
        MixtureParams(1.2, 0.0, 1.0)
    with pytest.raises(DomainError):
        MixtureParams(0.2, np.nan, 1.0)
    theta = MixtureParams(0.25, 0.3, 1.0)
    assert theta.switched() == MixtureParams(0.75, 1.0, 0.3)


def test_sample_mixture_p_zero_shifts_by_beta():
    d = VonMises(5.0)
    theta = MixtureParams(0.0, 0.7, 2.1)
    s = sample_mixture(theta, d, 64, np.random.default_rng(11))
    y = d.sample(64, np.random.default_rng(11))
    assert_allclose(s.angles, normalize(y + 2.1), atol=1e-12)


def test_sample_mixture_collapsed_equals_single_shift():
    d = VonMises(5.0)
    theta = MixtureParams(0.3, 1.1, 1.1)
    s = sample_mixture(theta, d, 64, np.random.default_rng(12))
    y = d.sample(64, np.random.default_rng(12))
    assert_allclose(s.angles, normalize(y + 1.1), atol=1e-12)


def test_sample_mixture_first_coefficient():
    theta = MixtureParams(0.25, np.pi / 8, 2 * np.pi / 3)
    d = VonMises(5.0)
    n = 100000
    s = sample_mixture(theta, d, n, np.random.default_rng(13))
    emp = np.mean(np.exp(-1j * s.angles)) / TWO_PI
    exact = mixture_fourier(theta, d, 1)
    assert abs(emp - exact) < 4.0 / math.sqrt(4 * math.pi ** 2 * n)


def test_mixture_density_values():
    d = VonMises(5.0)
    x = np.linspace(0, TWO_PI, 513)
    half = MixtureParams(0.5, 0.0, 0.0)
    assert_allclose(mixture_density(half, d, x), d.pdf(x), rtol=1e-14)
    uniform = VonMises(0.0)
    theta = MixtureParams(0.25, np.pi / 8, 2 * np.pi / 3)
    assert_allclose(mixture_density(theta, uniform, x), 1 / TWO_PI)
    grid = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    assert abs(quad_integral(mixture_density(theta, d, grid)) - 1.0) < 1e-8


def test_parse_density_forms():
    assert isinstance(parse_density("vonmises kappa=5 mu=0"), VonMises)
    assert isinstance(parse_density("vonmises:kappa=5"), VonMises)
    assert isinstance(parse_density("wc gamma=0.8"), WrappedCauchy)
    assert isinstance(parse_density("wrappednormal rho=0.5"), WrappedNormal)
    assert parse_density("uniform").kappa == 0.0
    with pytest.raises(DomainError):
        parse_density("vonmises")
    with pytest.raises(DomainError):
        parse_density("pareto alpha=2")
    with pytest.raises(DomainError):
        parse_density("vonmises kappa=5 junk=1")
