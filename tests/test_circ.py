"""Angles, component densities, exact Fourier coefficients, and samplers."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circmix import (DomainError, MixtureParams, Tabulated, VonMises,
                     WrappedCauchy, WrappedNormal, angular_distance, mixture_density,
                     mixture_fourier, normalize, parse_density,
                     sample_mixture)

from _oracles import TWO_PI, quad_fourier, quad_integral, squared_norm_mp

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
    # the rotation by mu has one home, so each family shows it; 2^17 points
    # keep the aliasing of the tabulated interpolant's 1/l^2 tail below 1e-10
    for d in (VonMises(2.0, mu=0.9), WrappedCauchy(0.8, mu=2.2), WrappedNormal(0.8, mu=-0.4),
              Tabulated(np.random.default_rng(3).uniform(0.5, 1.5, 64), mu=1.1)):
        for l in range(-4, 5):
            assert abs(d.fourier_coeff(l) - quad_fourier(d.pdf, l, num=2 ** 17)) < 1e-10, (d, l)


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


@pytest.mark.parametrize("density", [
    VonMises(0.0), VonMises(300.0), WrappedCauchy(0.0), WrappedCauchy(0.9999),
    WrappedNormal(0.0), WrappedNormal(0.1), WrappedNormal(0.3), WrappedNormal(0.8, 2.2),
    WrappedNormal(0.9999), Tabulated(np.random.default_rng(3).uniform(0.5, 1.5, 64), mu=1.1),
], ids=["vm0", "vm300", "wc0", "wc0.9999", "wn0", "wn0.1", "wn0.3", "wn0.8", "wn0.9999", "tab"])
def test_squared_norm_matches_mpmath(density):
    # the wrapped normal's norm is its rho^2 series at the mode: below rho ~ 0.48
    # that is the Fourier series, above it the image sum
    assert_allclose(density.squared_norm(), float(squared_norm_mp(density)),
                    rtol=8 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("rho", [0.1, 0.22, 0.24])
def test_wrapped_normal_pdf_matches_mpmath_theta(rho):
    # f(x) = theta_3(x/2, rho) / 2pi; the pdf sums the Fourier series below
    # rho ~ 0.23 and the images above it
    mp = pytest.importorskip("mpmath")
    x = np.linspace(-7.0, 7.0, 57)
    got = WrappedNormal(rho).pdf(x)
    with mp.workdps(40):
        ref = [float(mp.jtheta(3, mp.mpf(float(v)) / 2, mp.mpf(rho)) / (2 * mp.pi)) for v in x]
    assert_allclose(got, ref, rtol=4 * np.finfo(float).eps, atol=0)


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


@pytest.mark.parametrize("values, mu", [
    (1.0 + np.cos(np.linspace(0.0, TWO_PI, 64, endpoint=False)), 0.0),
    (1.0 + np.cos(np.linspace(0.0, TWO_PI, 64, endpoint=False)), 0.7),
    (np.random.default_rng(3).uniform(0.5, 1.5, 64), 1.1),
])
def test_tabulated_coefficients_are_the_interpolants(values, mu):
    # a trapezoid sum on 2^17 points aliases c_l only with c_{l +- 2^17},
    # which the interpolant's 1/l^2 decay makes negligible
    d = Tabulated(values, mu=mu)
    for l in (0, 1, 2, 5, -3, 63, 64, 65, 128, 129, 1000):
        assert abs(d.fourier_coeff(l) - quad_fourier(d.pdf, l, num=2 ** 17)) < 1e-9
    assert d.fourier_coeff(64) == pytest.approx(0.0, abs=1e-30)


def test_tabulated_rejects_bad_values():
    with pytest.raises(DomainError):
        Tabulated(np.concatenate([[-0.1], np.ones(31)]))
    with pytest.raises(DomainError):
        Tabulated(np.zeros(32))


def test_tabulated_pdf_just_below_two_pi():
    # x / step can round up to the grid size there; the interpolant is periodic
    x = np.nextafter(TWO_PI, 0.0)
    for size in range(16, 3000):
        d = Tabulated(1.0 + np.cos(np.linspace(0.0, TWO_PI, size, endpoint=False)))
        assert d.pdf(x) == pytest.approx(d.values[0], rel=1e-12)


def test_sampling_deterministic():
    for d in NAMED:
        a = d.sample(100, np.random.default_rng(42))
        b = d.sample(100, np.random.default_rng(42))
        assert np.array_equal(a, b)


LOCATED = [VonMises(5.0, mu=1.3), WrappedCauchy(0.8, mu=2.2), WrappedNormal(0.7, mu=-0.4),
           Tabulated(np.exp(1.5 * np.cos(np.linspace(0.0, TWO_PI, 64, endpoint=False))), mu=1.1),
           Tabulated(np.exp(np.sin(np.linspace(0.0, TWO_PI, 2048, endpoint=False))), mu=4.0)]


@pytest.mark.parametrize("density", LOCATED, ids=["vm", "wc", "wn", "tab64", "tab2048"])
def test_sampler_mean_direction_with_location(density):
    # the mean direction of the draws is arg E[e^{iX}] = arg conj(2 pi c_1), within
    # 4 sd of the delta method: Var = (1 - Re(m_2 e^{-2i mean})) / (2 n |m_1|^2)
    n = 100000
    x = density.sample(n, np.random.default_rng(21))
    m1, m2 = (TWO_PI * np.conj(density.fourier_coeff(l)) for l in (1, 2))
    mean = np.angle(m1)
    sd = math.sqrt((1.0 - (m2 * np.exp(-2j * mean)).real) / (2 * n)) / abs(m1)
    got = np.angle(np.mean(np.exp(1j * x)))
    assert abs(math.remainder(got - mean, TWO_PI)) < 4 * sd


@pytest.mark.parametrize("density", [VonMises(5.0), VonMises(0.0), WrappedCauchy(0.8),
                                     WrappedCauchy(0.0), WrappedNormal(0.7), WrappedNormal(0.0),
                                     Tabulated(np.linspace(1.0, 2.0, 64))],
                         ids=["vm", "vm0", "wc", "wc0", "wn", "wn0", "tab"])
def test_sample_at_mu_is_the_centred_sample_rotated(density):
    # from the same generator, the degenerate uniform draws included
    centred = density.sample(1000, np.random.default_rng(22))
    for mu in (0.7, -2.5):
        located = (dataclasses.replace(density, mu=mu) if dataclasses.is_dataclass(density)
                   else Tabulated(density.values, mu=mu))
        rotated = located.sample(1000, np.random.default_rng(22))
        assert np.all((rotated >= 0.0) & (rotated < TWO_PI))
        assert angular_distance(rotated, centred + mu).max() < 1e-12


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


@pytest.mark.parametrize("kappa, seed", [(300.0, 104), (1e7, 105)])
def test_vonmises_sampler_matches_exact_coefficients_at_large_kappa(kappa, seed):
    # numpy's rejection loop at kappa = 300 and its wrapped-normal path above
    # kappa = 1e6; e^{-ilX} has variance 1 - |2 pi c_l|^2, so the CLT-scale
    # bound shrinks with the spread
    n = 100000
    d = VonMises(kappa)
    x = d.sample(n, np.random.default_rng(seed))
    for l in range(1, 5):
        exact = d.fourier_coeff(l)
        emp = np.mean(np.exp(-1j * l * x)) / TWO_PI
        assert abs(emp - exact) < 4.0 * math.sqrt((1.0 - abs(TWO_PI * exact) ** 2) / n) / TWO_PI


def test_tabulated_sampler():
    grid = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    d = Tabulated(np.exp(1.5 * np.cos(grid)))
    x = d.sample(100000, np.random.default_rng(9))
    ref = VonMises(1.5)
    for l in range(1, 4):
        emp = np.mean(np.exp(-1j * l * x)) / TWO_PI
        assert abs(emp - ref.fourier_coeff(l)) < 3e-3


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
    assert_allclose(s, normalize(y + 2.1), atol=1e-12)


def test_sample_mixture_collapsed_equals_single_shift():
    d = VonMises(5.0)
    theta = MixtureParams(0.3, 1.1, 1.1)
    s = sample_mixture(theta, d, 64, np.random.default_rng(12))
    y = d.sample(64, np.random.default_rng(12))
    assert_allclose(s, normalize(y + 1.1), atol=1e-12)


def test_sample_mixture_first_coefficient():
    theta = MixtureParams(0.25, np.pi / 8, 2 * np.pi / 3)
    d = VonMises(5.0)
    n = 100000
    s = sample_mixture(theta, d, n, np.random.default_rng(13))
    emp = np.mean(np.exp(-1j * s)) / TWO_PI
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
    for spec, key in [("vonmises kappa=5 kappa=50", "kappa"), ("wc:gamma=0.8 GAMMA=0.5", "gamma"),
                      ("wn rho=0.5 mu=1 mu=2", "mu"), ("uniform mu=0 mu=0", "mu"),
                      ("tabulated path=a.txt path=b.txt", "path")]:
        with pytest.raises(DomainError, match=f"^repeated density parameter '{key}'$"):
            parse_density(spec)


def _tabulated(mu):
    return Tabulated(1.0 + np.cos(np.linspace(0.0, TWO_PI, 64, endpoint=False)), mu=mu)


@pytest.mark.parametrize("family, value, message", [
    (VonMises, -1.0, "kappa must lie in [0, inf), got -1.0"),
    (VonMises, math.inf, "kappa must lie in [0, inf), got inf"),
    (VonMises, math.nan, "kappa must lie in [0, inf), got nan"),
    (WrappedCauchy, -0.1, "gamma must lie in [0, 1), got -0.1"),
    (WrappedCauchy, 1.0, "gamma must lie in [0, 1), got 1.0"),
    (WrappedCauchy, math.nan, "gamma must lie in [0, 1), got nan"),
    (WrappedNormal, -0.1, "rho must lie in [0, 1), got -0.1"),
    (WrappedNormal, 1.0, "rho must lie in [0, 1), got 1.0"),
    (WrappedNormal, math.nan, "rho must lie in [0, 1), got nan"),
])
def test_shape_parameter_outside_its_bounds_is_refused(family, value, message):
    # the family's declared bounds [low, high) are checked when it is built,
    # directly or from its spec; the low edge itself is accepted
    for build in (lambda: family(value), lambda: parse_density(f"{family.kind} "
                                                               f"{family.param}={value}")):
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == message
    assert getattr(family(family.bounds[0]), family.param) == family.bounds[0]


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda mu: VonMises(5.0, mu=mu), lambda mu: WrappedCauchy(0.8, mu=mu),
    lambda mu: WrappedNormal(0.8, mu=mu), _tabulated,
], ids=["vm", "wc", "wn", "tab"])
def test_non_finite_mu_is_refused(build, mu):
    with pytest.raises(DomainError) as err:
        build(mu)
    assert str(err.value) == f"mu must be finite, got {mu}"


@pytest.mark.parametrize("spec", ["vonmises kappa=5 mu={}", "wc gamma=0.8 mu={}",
                                  "wn rho=0.8 mu={}", "uniform mu={}",
                                  "tabulated path={path} mu={}"])
@pytest.mark.parametrize("mu", ["nan", "inf", "-inf"])
def test_non_finite_mu_in_a_spec_is_refused(tmp_path, spec, mu):
    path = tmp_path / "grid.txt"
    grid = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    np.savetxt(path, np.column_stack([grid, 1.0 + np.cos(grid)]))
    with pytest.raises(DomainError, match=f"^mu must be finite, got {mu}$"):
        parse_density(spec.format(mu, path=path))


def test_labels(tmp_path):
    # a label is mse.csv's density column, so its text is fixed
    path = tmp_path / "grid.txt"
    grid = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    np.savetxt(path, np.column_stack([grid, 1.0 + np.cos(grid)]))
    assert [parse_density(spec).label for spec in (
        "vonmises kappa=5", "vm:kappa=1e7 mu=1.3", "uniform mu=-2",
        "wrappedcauchy gamma=0.8 mu=2.2", "wn rho=0.25", f"tabulated path={path} mu=0.25",
    )] == ["vonmises kappa=5 mu=0", "vonmises kappa=1e+07 mu=1.3", "vonmises kappa=0 mu=-2",
           "wrappedcauchy gamma=0.8 mu=2.2", "wrappednormal rho=0.25 mu=0",
           "tabulated n=64 mu=0.25"]
    assert repr(WrappedNormal(0.5, mu=0.125)) == "wrappednormal rho=0.5 mu=0.125"
    assert _tabulated(1.5).label == "tabulated n=64 mu=1.5"


def test_declarations_are_not_fields():
    # kind, param and bounds are class attributes: no constructor parameter
    for family in (VonMises, WrappedCauchy, WrappedNormal):
        assert [f.name for f in dataclasses.fields(family)] == [family.param, "mu"]
    with pytest.raises(TypeError):
        VonMises(5.0, kind="wrappedcauchy")
