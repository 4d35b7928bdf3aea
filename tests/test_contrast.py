"""Contrast S_n, its derivatives, the estimator, and the sandwich covariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import differential_evolution, minimize_scalar

from circmix import (ContrastMoments, DomainError, EstimationError, FitOptions,
                     InferenceError, MixtureParams, VonMises, WrappedCauchy,
                     asymptotic_cov, canonicalize, contrast, contrast_value,
                     degeneracy_gap, estimate_theta, mixture_fourier,
                     mixture_weight, mixture_weight_grad, mixture_weight_hess,
                     population_contrast, power_sums, sample_mixture,
                     squared_error)
from circmix.contrast import GRID_SIZE, POWER_SUM_CHUNK

from _oracles import (brute_contrast, fd_gradient, fd_jacobian, p_quadratic_by_cell, z_grads,
                      z_hessians, z_values)

THETA0 = MixtureParams(0.25, np.pi / 8, 2 * np.pi / 3)
TWO_PI = 2.0 * np.pi


def random_theta(rng):
    return np.array([rng.uniform(0.01, 0.49), rng.uniform(0, np.pi), rng.uniform(0, np.pi)])


def test_weight_trivials():
    for theta in (THETA0, MixtureParams(0.4, 1.0, 2.0)):
        assert mixture_weight(theta, 0) == 1.0 + 0.0j
        for l in range(1, 5):
            m = mixture_weight(theta, l)
            assert mixture_weight(theta, -l) == m.conjugate()
            modulus_sq = (theta.p ** 2 + (1 - theta.p) ** 2
                          + 2 * theta.p * (1 - theta.p) * math.cos(l * (theta.beta - theta.alpha)))
            assert_allclose(abs(m) ** 2, modulus_sq, rtol=1e-12)
            assert abs(m) ** 2 >= (1 - 2 * theta.p) ** 2 - 1e-15


def test_weight_modulus_paper_value():
    theta = MixtureParams(0.25, 0.0, 2 * np.pi / 3)
    assert_allclose(abs(mixture_weight(theta, 1)) ** 2, 0.4375, rtol=1e-12)


def test_weight_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(5):
        theta = random_theta(rng)
        for l in range(-4, 5):
            for part in (np.real, np.imag):
                grad = part(mixture_weight_grad(theta, l))
                fd = fd_gradient(lambda t: part(mixture_weight(t, l)), theta)
                assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)
                hess = part(mixture_weight_hess(theta, l))
                fdh = fd_jacobian(lambda t: part(mixture_weight_grad(t, l)), theta)
                assert_allclose(hess, fdh, rtol=1e-6, atol=1e-8)


def test_z_properties():
    rng = np.random.default_rng(8)
    x = rng.uniform(0, TWO_PI, 50)
    theta = random_theta(rng)
    assert_allclose(z_values(x, 0, theta), 0.0, atol=1e-15)
    for l in range(-4, 5):
        z = z_values(x, l, theta)
        assert np.all(np.abs(z) <= 1 / TWO_PI + 1e-15)
        assert_allclose(z_values(x, -l, theta), -z, atol=1e-15)


def test_bound_suite():
    # |Z| <= 1/2pi, ||dZ|| <= (2+|l|)/(sqrt2 pi), ||d2Z||_F <= (|l|+l^2)/pi
    rng = np.random.default_rng(9)
    violations = 0
    for _ in range(100):
        theta = np.array([rng.uniform(0.001, 0.999), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)])
        x = rng.uniform(0, TWO_PI, 100)
        for l in range(-4, 5):
            z = z_values(x, l, theta)
            g = z_grads(x, l, theta)
            h = z_hessians(x, l, theta)
            if np.any(np.abs(z) > 1 / TWO_PI + 1e-12):
                violations += 1
            if np.any(np.linalg.norm(g, axis=1) > (2 + abs(l)) / (math.sqrt(2) * math.pi) + 1e-12):
                violations += 1
            if np.any(np.linalg.norm(h, axis=(1, 2)) > (abs(l) + l * l) / math.pi + 1e-12):
                violations += 1
    assert violations == 0


@pytest.mark.parametrize("n", [1, POWER_SUM_CHUNK - 1, POWER_SUM_CHUNK,
                               POWER_SUM_CHUNK + 1, 3 * POWER_SUM_CHUNK + 5])
def test_power_sums_match_direct_sums(n):
    # the recurrence loses about one rounding per power, so m <= 100 stays
    # within 1e-13 per angle
    x = np.random.default_rng(n).uniform(0, TWO_PI, n)
    direct = np.array([np.exp(1j * m * x).sum() for m in range(101)])
    sums = power_sums(x, 100)
    assert sums[0] == n
    assert np.max(np.abs(sums - direct)) <= 1e-13 * n


@pytest.mark.parametrize("n", [1, 2, 3, 1000, POWER_SUM_CHUNK])
def test_power_sums_one_chunk_is_the_unchunked_recurrence(n):
    x = np.random.default_rng(n).uniform(0, TWO_PI, n)
    base = np.exp(1j * x)
    power = base.copy()
    unchunked = []
    for _ in range(8):
        unchunked.append(complex(power.sum()))
        power = power * base
    assert power_sums(x, 8)[1:].tolist() == unchunked
    if n >= 2:
        # the moments hold P_m at index m, and P_m does not depend on m_max
        assert ContrastMoments(x).power_sums[1:].tolist() == unchunked
        for m_max in (0, 8, 9, 50):
            assert (ContrastMoments(x, m_max).power_sums.tolist()
                    == power_sums(x, max(m_max, 8)).tolist())


def sandwich_by_triple_sum(angles, theta):
    """A^-1 V A^-1 with V = (4/n^3) sum_k w_k w_k^T, w_k = sum_{|l|<=4} Z_k^l D^l
    and D^l = sum_j dZ_j^l, from the per-observation Z and dZ."""
    n = len(angles)
    w = np.zeros((n, 3))
    for l in range(-4, 5):
        w += z_values(angles, l, theta)[:, None] * z_grads(angles, l, theta).sum(axis=0)
    a_inv = np.linalg.inv(ContrastMoments(angles).value_grad_hess(theta)[2])
    return a_inv @ (4.0 * (w.T @ w) / n ** 3) @ a_inv


@pytest.mark.parametrize("density, n", [(VonMises(5.0), 300), (WrappedCauchy(0.8), 2000),
                                        (VonMises(2.0), POWER_SUM_CHUNK + 3)])
def test_asymptotic_cov_matches_triple_sum(density, n):
    rng = np.random.default_rng(np.random.SeedSequence([23, n]))
    angles = sample_mixture(THETA0, density, n, rng).angles
    for theta in (THETA0.as_array(), random_theta(rng)):
        sigma, _ = asymptotic_cov(angles, theta)
        assert_allclose(sigma, sandwich_by_triple_sum(angles, theta), rtol=1e-10)


def test_contrast_requires_two_points():
    with pytest.raises(DomainError):
        ContrastMoments(np.array([1.0]))


def test_contrast_two_equal_points():
    x = np.array([1.3, 1.3])
    theta = np.array([0.3, 0.4, 2.2])
    value = contrast_value(x, theta)
    expected = sum(float(np.imag(np.exp(1j * l * 1.3) * mixture_weight(theta, l))) ** 2
                   for l in range(-4, 5)) / (4 * math.pi ** 2)
    assert value >= 0.0
    assert_allclose(value, expected, rtol=1e-13)
    assert_allclose(value, brute_contrast(x, theta), rtol=1e-13)


def test_contrast_matches_brute_force():
    rng = np.random.default_rng(10)
    sample = sample_mixture(THETA0, VonMises(5.0), 120, rng)
    for _ in range(5):
        theta = random_theta(rng)
        fast = contrast_value(sample.angles, theta)
        slow = brute_contrast(sample.angles, theta)
        assert abs(fast - slow) <= 1e-13 * max(1.0, abs(slow))


def test_contrast_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    moments = ContrastMoments(sample_mixture(THETA0, VonMises(5.0), 200, rng).angles)
    for _ in range(10):
        theta = random_theta(rng)
        value, grad, hess = moments.value_grad_hess(theta)
        assert_allclose(hess, hess.T, atol=1e-12)
        fd_g = fd_gradient(moments.value, theta)
        assert np.linalg.norm(grad - fd_g) <= 1e-5 * max(np.linalg.norm(grad), 1e-12)
        fd_h = fd_jacobian(lambda t: moments.value_grad(t)[1], theta)
        assert np.linalg.norm(hess - fd_h) <= 1e-5 * np.linalg.norm(hess)


SAMPLES = st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=2, max_size=200)
THETAS = st.tuples(st.floats(0.01, 0.49), st.floats(0.0, math.pi, exclude_max=True),
                   st.floats(0.0, math.pi, exclude_max=True))


@settings(max_examples=150, deadline=None)
@given(angles=SAMPLES, theta=THETAS)
def test_contrast_kernel_properties(angles, theta):
    moments = ContrastMoments(np.array(angles))
    theta = np.array(theta)
    value, grad = moments.value_grad(theta)
    value_h, grad_h, hess = moments.value_grad_hess(theta)
    # the value kernel (quadratic in p) and the derivative loop agree
    assert value == pytest.approx(moments.value(theta), rel=1e-12, abs=1e-15)
    # one loop serves both, so the gradients and values are the same bits
    assert value_h == value and np.array_equal(grad_h, grad)
    assert np.array_equal(hess, hess.T)
    p, alpha, beta = theta
    # M^l is unchanged by the label switch and multiplied by (-1)^l by the joint pi shift
    for image in ((1.0 - p, beta, alpha), (p, alpha + math.pi, beta + math.pi)):
        assert moments.value(image) == pytest.approx(value, rel=1e-12, abs=1e-15)
        assert moments.value_grad(image)[0] == pytest.approx(value, rel=1e-12, abs=1e-15)
    # the profiling quadratic, read at p by a one-point interval, gives S_n too
    p_one, value_q = moments.profile_p(alpha, beta, p, p)
    assert p_one == p
    assert value_q == pytest.approx(value, rel=1e-12, abs=1e-15)


def test_contrast_unbiased():
    # mean of S_n over replications matches S(theta) within 4 sd of the mean
    rng = np.random.default_rng(12)
    d = VonMises(5.0)
    f_coeffs = [d.fourier_coeff(l).real for l in range(1, 5)]
    theta = MixtureParams(0.32, 1.0, 2.4)
    target = population_contrast(theta, THETA0, f_coeffs)
    values = []
    for _ in range(2000):
        s = sample_mixture(THETA0, d, 50, rng)
        values.append(contrast_value(s.angles, theta))
    values = np.array(values)
    margin = 4 * values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - target) < margin


def test_contrast_variance_decay():
    rng = np.random.default_rng(13)
    d = VonMises(5.0)
    f_coeffs = [d.fourier_coeff(l).real for l in range(1, 5)]
    theta = MixtureParams(0.32, 1.0, 2.4)
    target = population_contrast(theta, THETA0, f_coeffs)
    mse_by_n = {}
    for n in (50, 200, 800):
        errs = [(contrast_value(sample_mixture(THETA0, d, n, rng).angles, theta) - target) ** 2
                for _ in range(300)]
        mse_by_n[n] = np.mean(errs)
    assert mse_by_n[50] > mse_by_n[200] > mse_by_n[800]
    scaled = [n * v for n, v in mse_by_n.items()]
    assert max(scaled) <= 5 * min(scaled)


def test_population_contrast_zeros_and_positivity():
    d = VonMises(5.0)
    f_coeffs = [d.fourier_coeff(l).real for l in range(1, 5)]
    assert population_contrast(THETA0, THETA0, f_coeffs) <= 1e-12
    shifted = MixtureParams(THETA0.p, THETA0.alpha + np.pi, THETA0.beta + np.pi)
    assert population_contrast(shifted, THETA0, f_coeffs) <= 1e-12
    rng = np.random.default_rng(14)
    for _ in range(100):
        theta = MixtureParams(*random_theta(rng))
        dist = math.sqrt(squared_error(theta, THETA0).sum())
        if dist <= 0.2 or degeneracy_gap(theta) < 0.05:
            continue
        assert population_contrast(theta, THETA0, f_coeffs) > 1e-4


def test_estimate_theta_recovers_parameters():
    rng = np.random.default_rng(15)
    s = sample_mixture(THETA0, VonMises(5.0), 1000, rng)
    fit = estimate_theta(s, FitOptions())
    err = np.abs(fit.theta_hat.as_array() - THETA0.as_array())
    assert np.all(err < 0.15)
    # minimizer never beats every visited point, in particular theta0
    assert fit.contrast_at_min <= contrast_value(s.angles, THETA0) + 1e-15
    assert fit.converged_starts >= 1
    assert not fit.near_degenerate
    assert fit.std_errors is not None and np.all(fit.std_errors > 0)


def test_estimate_theta_deterministic():
    rng = np.random.default_rng(16)
    s = sample_mixture(THETA0, WrappedCauchy(0.8), 400, rng)
    a = estimate_theta(s, FitOptions())
    b = estimate_theta(s, FitOptions())
    assert a.theta_hat == b.theta_hat
    assert a.contrast_at_min == b.contrast_at_min


def test_estimate_theta_single_component_collapses():
    # data from one component only: the fitted angles coincide
    d = VonMises(5.0)
    rng = np.random.default_rng(17)
    beta0 = 2.1
    s = sample_mixture(MixtureParams(0.0, 0.3, beta0), d, 2000, rng)
    fit = estimate_theta(s, FitOptions(compute_covariance=False))
    gap = abs(math.remainder(fit.theta_hat.alpha - fit.theta_hat.beta, math.pi))
    assert gap < 0.1
    assert abs(math.remainder(fit.theta_hat.beta - beta0, math.pi)) < 0.1


def test_profiled_p_matches_scalar_minimization():
    # S_n is quadratic in p at fixed angles: the closed-form minimizer over
    # [p_min, p_max] agrees with a bounded search on the literal double sum
    rng = np.random.default_rng(21)
    angles = sample_mixture(THETA0, VonMises(5.0), 30, rng).angles
    moments = ContrastMoments(angles)
    for _ in range(20):
        alpha, beta = rng.uniform(0, np.pi, 2)
        p, value = moments.profile_p(alpha, beta, 0.01, 0.49)
        ref = minimize_scalar(lambda q: brute_contrast(angles, (q, alpha, beta)),
                              bounds=(0.01, 0.49), method="bounded",
                              options={"xatol": 1e-10})
        assert abs(p - ref.x) <= 1e-6
        assert_allclose(value, brute_contrast(angles, (p, alpha, beta)), rtol=1e-12, atol=1e-15)
        assert value <= ref.fun + 1e-13 * max(1.0, abs(ref.fun))


def profile_by_cell(moments, alpha, beta, p_min, p_max):
    """profile_p's clipped vertex applied to the per-cell quadratic."""
    c2, c1, c0 = p_quadratic_by_cell(moments.power_sums, moments.n, alpha, beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.clip(-0.5 * c1 / c2, p_min, p_max)
    end = np.where(c2 * (p_min + p_max) + c1 < 0.0, p_max, p_min)
    p = np.where(c2 > 0.0, vertex, end)
    return p, 2.0 * ((c2 * p + c1) * p + c0) / (moments.n * (moments.n - 1))


GRID_SAMPLES = {
    "vonmises": (VonMises(5.0), THETA0),
    "wrappedcauchy": (WrappedCauchy(0.8), THETA0),
    "uniform": (VonMises(0.0), THETA0),
    "collapsed": (VonMises(5.0), MixtureParams(0.0, 0.3, 2.1)),
}


@pytest.mark.parametrize("n", [2, 30, 1000, 200_000])
@pytest.mark.parametrize("kind", sorted(GRID_SAMPLES))
def test_profile_p_grid_matches_the_per_cell_quadratic(kind, n):
    density, theta0 = GRID_SAMPLES[kind]
    rng = np.random.default_rng(np.random.SeedSequence([24, n]))
    moments = ContrastMoments(sample_mixture(theta0, density, n, rng).angles)
    opts = FitOptions()
    box = opts.box()
    alphas = np.linspace(box[1, 0], box[1, 1], GRID_SIZE)[:, None]
    betas = np.linspace(box[2, 0], box[2, 1], GRID_SIZE)[None, :]
    p, value = moments.profile_p(alphas, betas, opts.p_min, opts.p_max)
    p_ref, value_ref = profile_by_cell(moments, alphas, betas, opts.p_min, opts.p_max)
    # both round terms of the grid's scale, so the value is compared on that scale
    assert np.max(np.abs(value - value_ref)) <= 1e-12 * np.max(np.abs(value_ref))
    assert np.max(np.abs(p - p_ref)) <= 1e-9
    # at alpha == beta S_n does not depend on p: no rounding may pick a vertex there
    c2, c1, _ = moments._p_quadratic(alphas.ravel(), betas.ravel())
    diagonal = np.arange(GRID_SIZE)
    assert np.all(c2[diagonal, diagonal] == 0.0) and np.all(c1[diagonal, diagonal] == 0.0)
    assert np.all(p[diagonal, diagonal] == opts.p_min)


def test_profile_p_shapes():
    rng = np.random.default_rng(25)
    moments = ContrastMoments(sample_mixture(THETA0, VonMises(5.0), 100, rng).angles)
    p, value = moments.profile_p(0.3, 1.2, 0.01, 0.49)
    assert np.shape(p) == np.shape(value) == ()
    alphas, betas = rng.uniform(0, np.pi, (5, 1)), rng.uniform(0, np.pi, (1, 7))
    p, value = moments.profile_p(alphas, betas, 0.01, 0.49)
    assert p.shape == value.shape == (5, 7)
    assert value[2, 3] == pytest.approx(moments.profile_p(alphas[2, 0], betas[0, 3], 0.01, 0.49)[1],
                                        rel=1e-12)
    p_ref, value_ref = profile_by_cell(moments, alphas, betas, 0.01, 0.49)
    assert_allclose(p, p_ref, rtol=0, atol=1e-9)
    assert_allclose(value, value_ref, rtol=1e-12)
    for bad in ((np.zeros(3), np.zeros(3)), (betas, alphas), (alphas, 0.5)):
        with pytest.raises(DomainError):
            moments.profile_p(*bad, 0.01, 0.49)


FITTER_SAMPLES = [
    (VonMises(5.0), THETA0, 100), (VonMises(5.0), THETA0, 1000),
    (WrappedCauchy(0.8), THETA0, 100), (WrappedCauchy(0.8), THETA0, 1000),
    (VonMises(0.0), THETA0, 100), (VonMises(0.0), THETA0, 1000),
    (VonMises(5.0), MixtureParams(0.0, 0.3, 2.1), 100),
    (VonMises(5.0), MixtureParams(0.0, 0.3, 2.1), 2000),
    (VonMises(5.0), MixtureParams(0.35, 0.5, 0.5 + 2 * np.pi / 3), 300),
    (VonMises(5.0), MixtureParams(0.35, 0.5, 0.5 + 2 * np.pi / 3), 800),
    (WrappedCauchy(0.8), MixtureParams(0.0, 0.3, 2.1), 500),
    (WrappedCauchy(0.8), MixtureParams(0.3, 1.0, 1.0 + 2 * np.pi / 3 + 0.02), 500),
]


@pytest.mark.parametrize("case", range(len(FITTER_SAMPLES)))
def test_fit_not_above_differential_evolution(case):
    # the grid scan plus polish finds a minimum at least as low as a global
    # stochastic search over the same box
    density, theta0, n = FITTER_SAMPLES[case]
    rng = np.random.default_rng(np.random.SeedSequence([22, case]))
    moments = ContrastMoments(sample_mixture(theta0, density, n, rng).angles)
    opts = FitOptions(compute_covariance=False)
    fit = estimate_theta(moments, opts)
    ref = differential_evolution(moments.value, opts.box(), seed=case, tol=1e-10)
    assert fit.contrast_at_min <= ref.fun + 1e-12 * max(1.0, abs(ref.fun))


def test_canonicalize_label_switch():
    switched = canonicalize(MixtureParams(0.7, 1.0, 2.0))
    assert switched.p == pytest.approx(0.3)
    assert (switched.alpha, switched.beta) == (2.0, 1.0)
    kept = MixtureParams(0.3, 2.0, 1.0)
    assert canonicalize(kept) == kept


def test_estimate_theta_canonicalizes_wide_box():
    rng = np.random.default_rng(18)
    s = sample_mixture(THETA0, VonMises(5.0), 600, rng)
    opts = FitOptions(p_min=0.01, p_max=0.99, compute_covariance=False)
    fit = estimate_theta(s, opts)
    assert fit.theta_hat.p < 0.5


def test_degeneracy_warning_radius():
    assert degeneracy_gap(MixtureParams(0.3, 0.2, 0.2 + 2 * np.pi / 3)) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(19)
    s = sample_mixture(MixtureParams(0.35, 0.5, 0.5 + 2 * np.pi / 3), VonMises(5.0), 800, rng)
    fit = estimate_theta(s, FitOptions(compute_covariance=False))
    assert fit.near_degenerate


def test_asymptotic_cov_properties():
    rng = np.random.default_rng(20)
    s = sample_mixture(THETA0, VonMises(5.0), 800, rng)
    fit = estimate_theta(s, FitOptions(compute_covariance=False))
    sigma, se = asymptotic_cov(s.angles, fit.theta_hat)
    assert_allclose(sigma, sigma.T, atol=1e-15)
    eigvals = np.linalg.eigvalsh(sigma)
    assert np.all(eigvals >= -1e-12)
    assert np.all(se > 0)
    assert_allclose(se, np.sqrt(np.diag(sigma) / s.n))


def test_asymptotic_cov_singular_raises():
    # all observations equal with p = 1/2 and collapsed angles: the p-row of
    # the curvature matrix vanishes identically
    x = np.zeros(50)
    with pytest.raises(InferenceError):
        asymptotic_cov(x, MixtureParams(0.5, 0.0, 0.0))


def test_estimation_failure_propagates():
    with pytest.raises((EstimationError, DomainError)):
        estimate_theta(np.array([1.0]), FitOptions())


def test_squared_error_angular_metric():
    a = MixtureParams(0.25, 0.01, np.pi - 0.01)
    b = MixtureParams(0.30, np.pi - 0.01, 0.01)
    errs = squared_error(a, b)
    assert_allclose(errs[0], 0.05 ** 2)
    assert_allclose(errs[1], 0.02 ** 2, rtol=1e-9)
    assert_allclose(errs[2], 0.02 ** 2, rtol=1e-9)


def test_mse_risk_decay():
    # E||theta_hat - theta0||^2 decreases with n and n * MSE stays bounded
    d = VonMises(5.0)
    risks = {}
    for n in (100, 400, 1600):
        errs = []
        for r in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([77, n, r]))
            s = sample_mixture(THETA0, d, n, rng)
            fit = estimate_theta(s, FitOptions(compute_covariance=False))
            errs.append(squared_error(fit.theta_hat, THETA0).sum())
        risks[n] = float(np.mean(errs))
    assert risks[100] > risks[400] > risks[1600]
    scaled = [n * v for n, v in risks.items()]
    assert max(scaled) <= 6 * min(scaled)
