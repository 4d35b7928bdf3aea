"""Contrast S_n, its derivatives, the estimator, and the sandwich covariance."""

import dataclasses
import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import differential_evolution, minimize_scalar

from circmix import (ContrastMoments, DomainError, EstimationError, FitOptions,
                     InferenceError, MixtureParams, VonMises, WrappedCauchy, WrappedNormal,
                     asymptotic_cov, canonicalize,
                     default_l_max, degeneracy_gap, empirical_coeffs, estimate_density,
                     estimate_theta, mixture_fourier,
                     mixture_weight, mixture_weight_grad,
                     population_contrast, power_sums, sample_mixture,
                     squared_error)
from circmix import bench, cli
from circmix.contrast import (DEGENERACY_WARN_RADIUS, EIG_FLOOR, GRID_SIZE, N_POLISH,
                              POWER_SUM_CHUNK, _binned_plan, _lowest_local_minima,
                              _newton_step, _vertex)

from _oracles import (brute_contrast, fd_gradient, fd_jacobian, local_minima_by_cell,
                      mixture_weight_hess, newton_step_by_linalg, p_quadratic_by_cell,
                      power_sums_mp, recurrence_power_sums, z_grads, z_hessians, z_values)

# the module, by name: estimate_theta looks _polish up there at each call
contrast = importlib.import_module("circmix.contrast")

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


# above the cost rule's crossover: the binned method runs at this size
BINNED_N, BINNED_M = 2000, 58


def binned_samples(n, bins):
    """Seeded samples for the binned sums: uniform; von Mises kappa = 50, its
    mass in a few bins; angles on bin edges c_j +- pi/B; and angles at 0,
    -0.0 and just below 2 pi among uniform ones."""
    rng = np.random.default_rng(np.random.SeedSequence([28, n, bins]))
    ends = rng.uniform(0, TWO_PI, n)
    ends[:n // 4] = 0.0
    ends[n // 4:n // 2] = -0.0
    ends[n // 2:3 * n // 4] = np.nextafter(TWO_PI, 0.0)
    return {
        "uniform": rng.uniform(0, TWO_PI, n),
        "von Mises 50": rng.vonmises(1.0, 50.0, n),
        "bin edges": (rng.integers(0, bins, n) + rng.choice([-0.5, 0.5], n)) * (TWO_PI / bins),
        "0, -0.0 and below 2 pi": ends,
    }


@pytest.mark.parametrize("sample", ["uniform", "von Mises 50", "bin edges",
                                    "0, -0.0 and below 2 pi"])
def test_binned_power_sums_within_bound_of_mpmath(sample):
    n, m_max = BINNED_N, BINNED_M
    bins, order = _binned_plan(n, m_max)
    x = binned_samples(n, bins)[sample]
    exact = power_sums_mp(x, m_max)
    error = np.abs(power_sums(x, m_max) - exact)
    # the docstring's truncation bound at each m, plus a rounding term of
    # 2^-53 n per FFT stage and per Horner step
    ms = np.arange(m_max + 1)
    truncation = n * (ms * math.pi / bins) ** (order + 1) / math.factorial(order + 1)
    rounding = (math.log2(bins) + order + 1) * n * 2.0 ** -53
    assert np.all(error <= truncation + rounding)
    # the recurrence is exact at m = 1 up to the sum's rounding and loses
    # about an ulp per power, so the errors are compared over all m <= m_max
    recurrence = recurrence_power_sums(x, m_max, POWER_SUM_CHUNK)
    assert error.max() <= 4 * np.abs(recurrence - exact).max()


def test_binned_power_sums_reduce_huge_angles():
    # unreduced, the bin index of 1e300 or of the largest double would be
    # out of range or inf
    n, m_max = BINNED_N, BINNED_M
    assert _binned_plan(n, m_max) is not None
    rng = np.random.default_rng(29)
    x = rng.uniform(0, TWO_PI, n)
    top = np.finfo(float).max
    x[rng.choice(n, 6, replace=False)] = [1e15, -1e15, 1e300, -1e300, top, -top]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        binned = power_sums(x, m_max)
    exact = power_sums_mp(x, m_max)
    recurrence = recurrence_power_sums(x, m_max, POWER_SUM_CHUNK)
    own_error = np.abs(recurrence - exact).max()
    assert np.isfinite(binned).all()
    assert np.abs(binned - exact).max() <= own_error
    assert np.abs(binned - recurrence).max() <= 2 * own_error


def test_contrast_moments_keep_the_recurrence_at_large_n():
    x = sample_mixture(THETA0, WrappedCauchy(0.8), 200_000, np.random.default_rng(30))
    assert (ContrastMoments(x).power_sums.tolist()
            == recurrence_power_sums(x, 8, POWER_SUM_CHUNK).tolist())


def test_density_one_pass_fit_agrees_with_the_separate_fit(monkeypatch):
    # circmix density fits from the binned P_0..P_l_max: theta_hat moves at
    # rounding level against estimate_theta, and no chosen level moves
    n, options = 200_000, FitOptions(compute_covariance=False)
    l_max = default_l_max(n)
    for seed in range(20):
        density = (WrappedCauchy(0.8), VonMises(5.0))[seed % 2]
        rng = np.random.default_rng(np.random.SeedSequence([31, seed]))
        x = sample_mixture(THETA0, density, n, rng)
        moments = ContrastMoments(x, l_max)
        fit = estimate_theta(moments, options)
        separate = estimate_theta(x, options)
        assert np.max(np.abs(fit.theta_hat.as_array() - separate.theta_hat.as_array())) <= 1e-9
        with monkeypatch.context() as patch:
            patch.setattr(contrast, "power_sums",
                          lambda a, m: recurrence_power_sums(a, m, POWER_SUM_CHUNK))
            by_recurrence = ContrastMoments(x, l_max)
        assert (estimate_density(moments, fit, l_max=l_max).level
                == estimate_density(by_recurrence, separate, l_max=l_max).level)


def test_binned_power_sums_memory_does_not_grow_with_n():
    peaks = []
    for n in (200_000, 400_000):
        x = np.random.default_rng(n).uniform(0, TWO_PI, n)
        power_sums(x, 58)  # numpy.fft's first use is not the sums' memory
        tracemalloc.start()
        try:
            power_sums(x, 58)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024


BAD_ANGLES = {
    "nan": np.array([0.1, math.nan, 0.3, 1.0]),
    "inf": np.array([0.1, math.inf, 0.3, 1.0]),
    "2x2": np.array([[0.1, 0.2], [0.3, 1.0]]),
    "empty": np.array([]),
    "scalar": np.float64(0.3),
}
ANGLE_ENTRY_POINTS = {
    "power_sums": lambda x: power_sums(x, 8),
    "estimate_theta": estimate_theta,
    "empirical_coeffs": lambda x: empirical_coeffs(x, THETA0, 10),
    "estimate_density": lambda x: estimate_density(
        x, estimate_theta(np.array([0.1, 0.2, 0.3, 1.0]), FitOptions(compute_covariance=False))),
}


@pytest.mark.parametrize("angles", sorted(BAD_ANGLES))
@pytest.mark.parametrize("entry", sorted(ANGLE_ENTRY_POINTS))
def test_stages_reject_bad_angles(entry, angles):
    # the check is made in power_sums, before any arithmetic could warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            ANGLE_ENTRY_POINTS[entry](BAD_ANGLES[angles])


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
    angles = sample_mixture(THETA0, density, n, rng)
    for theta in (THETA0.as_array(), random_theta(rng)):
        sigma, _ = asymptotic_cov(angles, theta)
        assert_allclose(sigma, sandwich_by_triple_sum(angles, theta), rtol=1e-10)


@pytest.mark.parametrize("bounds", [
    dict(p_max=math.inf), dict(p_max=2.0), dict(p_min=math.nan),
    dict(angle_max=math.inf), dict(angle_min=-math.inf), dict(angle_max=math.nan),
])
def test_fit_options_reject_non_finite_or_p_above_one(bounds):
    with pytest.raises(DomainError, match="fit box"):
        FitOptions(**bounds)


def test_fit_options_accept_p_max_one():
    assert FitOptions(p_max=1.0).box()[0, 1] == 1.0


def test_contrast_requires_two_points():
    with pytest.raises(DomainError):
        ContrastMoments(np.array([1.0]))


def test_contrast_two_equal_points():
    x = np.array([1.3, 1.3])
    theta = np.array([0.3, 0.4, 2.2])
    value = ContrastMoments(x).value(theta)
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
        fast = ContrastMoments(sample).value(theta)
        slow = brute_contrast(sample, theta)
        assert abs(fast - slow) <= 1e-13 * max(1.0, abs(slow))


def test_contrast_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    moments = ContrastMoments(sample_mixture(THETA0, VonMises(5.0), 200, rng))
    for _ in range(10):
        theta = random_theta(rng)
        value, grad, hess = moments.value_grad_hess(theta)
        assert_allclose(hess, hess.T, atol=1e-12)
        fd_g = fd_gradient(moments.value, theta)
        assert np.linalg.norm(grad - fd_g) <= 1e-5 * max(np.linalg.norm(grad), 1e-12)
        fd_h = fd_jacobian(lambda t: moments.value_grad(t)[1], theta)
        assert np.linalg.norm(hess - fd_h) <= 1e-5 * np.linalg.norm(hess)


@pytest.mark.parametrize("n", [3, 50, 400])
def test_contrast_derivatives_match_the_pair_sums(n):
    # the literal sums over k != j from the per-observation Z, dZ and d2Z:
    # d/dtheta sum_{k != j} Z_k Z_j = 2 (sum dZ sum Z - sum_k dZ_k Z_k), and
    # the Hessian likewise
    rng = np.random.default_rng(np.random.SeedSequence([26, n]))
    angles = sample_mixture(THETA0, WrappedCauchy(0.8), n, rng)
    moments = ContrastMoments(angles)
    scale = 2.0 / (n * (n - 1))
    for theta in (THETA0.as_array(), random_theta(rng), random_theta(rng)):
        grad, hess = np.zeros(3), np.zeros((3, 3))
        for l in range(1, 5):
            z = z_values(angles, l, theta)
            dz = z_grads(angles, l, theta)
            d2z = z_hessians(angles, l, theta)
            grad += 2.0 * (dz.sum(axis=0) * z.sum() - dz.T @ z)
            hess += 2.0 * (d2z.sum(axis=0) * z.sum() + np.outer(dz.sum(axis=0), dz.sum(axis=0))
                           - np.einsum("kij,k->ij", d2z, z) - dz.T @ dz)
        _, g, h = moments.value_grad_hess(theta)
        assert np.max(np.abs(g - scale * grad)) <= 1e-12 * np.max(np.abs(scale * grad))
        assert np.max(np.abs(h - scale * hess)) <= 1e-12 * np.max(np.abs(scale * hess))


PRECISION_SAMPLES = [(VonMises(5.0), THETA0), (WrappedCauchy(0.8), THETA0),
                     (VonMises(5.0), MixtureParams(0.0, 0.3, 2.1))]


@pytest.mark.parametrize("case", range(len(PRECISION_SAMPLES)))
def test_contrast_keeps_its_precision_at_the_truth(case):
    # at theta0 Im(P_l M^l) is O(sqrt n) while |P_l|^2 and P_l^2 are O(n^2):
    # S_n must not inherit their rounding, which at n = 2e5 reaches 2e-11
    density, theta0 = PRECISION_SAMPLES[case]
    rng = np.random.default_rng(np.random.SeedSequence([27, case]))
    moments = ContrastMoments(sample_mixture(theta0, density, 200_000, rng))
    n, sums, ls = moments.n, moments.power_sums, np.arange(1, 5)
    m = mixture_weight(theta0, ls)
    ref = np.sum((sums[ls] * m).imag ** 2 / (4 * np.pi ** 2)
                 - (n * np.abs(m) ** 2 - (sums[2 * ls] * m * m).real) / (8 * np.pi ** 2))
    ref *= 2.0 / (n * (n - 1))
    assert abs(moments.value(theta0) - ref) <= 1e-12 * abs(ref)
    assert abs(moments.value_grad(theta0)[0] - ref) <= 1e-12 * abs(ref)


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
    p_one, value_q = moments.profile_p([alpha], [beta], p, p)
    assert p_one[0, 0] == p
    assert value_q[0, 0] == pytest.approx(value, rel=1e-12, abs=1e-15)


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
        values.append(ContrastMoments(s).value(theta))
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
        errs = [(ContrastMoments(sample_mixture(THETA0, d, n, rng)).value(theta) - target) ** 2
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
    assert fit.contrast_at_min <= ContrastMoments(s).value(THETA0) + 1e-15
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
    # data from one component only: the heavy component lands on it, while
    # the light one may sit anywhere that lowers S_n below the collapsed
    # truth; the fit is no higher than it, nor than a dense profiled grid
    d = VonMises(5.0)
    rng = np.random.default_rng(17)
    beta0 = 2.1
    s = sample_mixture(MixtureParams(0.0, 0.3, beta0), d, 2000, rng)
    options = FitOptions(compute_covariance=False)
    fit = estimate_theta(s, options)
    assert abs(math.remainder(fit.theta_hat.beta - beta0, math.pi)) < 0.1
    moments = ContrastMoments(s)
    assert fit.contrast_at_min <= moments.value((options.p_min, beta0, beta0))
    grid = np.linspace(options.angle_min, options.angle_max, 600)
    _, values = moments.profile_p(grid, grid, options.p_min, options.p_max)
    assert fit.contrast_at_min <= values.min() + 1e-12


def test_profiled_p_matches_scalar_minimization():
    # S_n is quadratic in p at fixed angles: the closed-form minimizer over
    # [p_min, p_max] agrees with a bounded search on the literal double sum
    rng = np.random.default_rng(21)
    angles = sample_mixture(THETA0, VonMises(5.0), 30, rng)
    moments = ContrastMoments(angles)
    for _ in range(20):
        alpha, beta = rng.uniform(0, np.pi, 2)
        p, value = (v[0, 0] for v in moments.profile_p([alpha], [beta], 0.01, 0.49))
        ref = minimize_scalar(lambda q: brute_contrast(angles, (q, alpha, beta)),
                              bounds=(0.01, 0.49), method="bounded",
                              options={"xatol": 1e-10})
        assert abs(p - ref.x) <= 1e-6
        assert_allclose(value, brute_contrast(angles, (p, alpha, beta)), rtol=1e-12, atol=1e-15)
        assert value <= ref.fun + 1e-13 * max(1.0, abs(ref.fun))


def profile_quadratic(c2, c1, c0, n, p_min, p_max):
    """(p, S_n) of profile_p from the quadratic's coefficients, out of place."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.clip(-0.5 * c1 / c2, p_min, p_max)
    end = np.where(c2 * (p_min + p_max) + c1 < 0.0, p_max, p_min)
    p = np.where(c2 > 0.0, vertex, end)
    return p, 2.0 * ((c2 * p + c1) * p + c0) / (n * (n - 1))


def profile_by_cell(moments, alpha, beta, p_min, p_max):
    """profile_p's clipped vertex applied to the per-cell quadratic."""
    return profile_quadratic(*p_quadratic_by_cell(moments.power_sums, moments.n, alpha, beta),
                             moments.n, p_min, p_max)


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
    moments = ContrastMoments(sample_mixture(theta0, density, n, rng))
    opts = FitOptions()
    box = opts.box()
    alphas = np.linspace(box[1, 0], box[1, 1], GRID_SIZE)
    betas = np.linspace(box[2, 0], box[2, 1], GRID_SIZE)
    p, value = moments.profile_p(alphas, betas, opts.p_min, opts.p_max)
    p_ref, value_ref = profile_by_cell(moments, alphas[:, None], betas[None, :], opts.p_min,
                                       opts.p_max)
    # both round terms of the grid's scale, so the value is compared on that scale
    assert np.max(np.abs(value - value_ref)) <= 1e-12 * np.max(np.abs(value_ref))
    assert np.max(np.abs(p - p_ref)) <= 1e-9
    # at alpha == beta S_n does not depend on p: no rounding may pick a vertex there
    c2, c1, _ = moments._p_quadratic(alphas, betas)
    diagonal = np.arange(GRID_SIZE)
    assert np.all(c2[diagonal, diagonal] == 0.0) and np.all(c1[diagonal, diagonal] == 0.0)
    assert np.all(p[diagonal, diagonal] == opts.p_min)


@pytest.mark.parametrize("kind", sorted(GRID_SAMPLES))
def test_profile_p_keeps_the_bits_of_the_out_of_place_formula(kind):
    # profile_p works in place, in the operation order of the plain formula
    density, theta0 = GRID_SAMPLES[kind]
    box = FitOptions().box()
    alphas = np.linspace(box[1, 0], box[1, 1], GRID_SIZE)
    betas = np.random.default_rng(26).uniform(0, np.pi, 40)
    for seed, n in ((27, 50), (28, 1000), (29, 20000)):
        moments = ContrastMoments(sample_mixture(theta0, density, n, np.random.default_rng(seed)))
        for p_min, p_max in ((0.01, 0.49), (0.01, 0.99), (0.3, 0.3)):
            for a, b in ((alphas, alphas), (alphas, betas)):
                p, value = moments.profile_p(a, b, p_min, p_max)
                p_ref, value_ref = profile_quadratic(*moments._p_quadratic(a, b), n, p_min, p_max)
                assert np.array_equal(p, p_ref) and np.array_equal(value, value_ref)


def test_profile_p_shapes():
    rng = np.random.default_rng(25)
    moments = ContrastMoments(sample_mixture(THETA0, VonMises(5.0), 100, rng))
    alphas, betas = rng.uniform(0, np.pi, 5), rng.uniform(0, np.pi, 7)
    p, value = moments.profile_p(alphas, betas, 0.01, 0.49)
    assert p.shape == value.shape == (5, 7)
    _, cell = moments.profile_p([alphas[2]], [betas[3]], 0.01, 0.49)
    assert value[2, 3] == pytest.approx(cell[0, 0], rel=1e-12)
    p_ref, value_ref = profile_by_cell(moments, alphas[:, None], betas[None, :], 0.01, 0.49)
    assert_allclose(p, p_ref, rtol=0, atol=1e-9)
    assert_allclose(value, value_ref, rtol=1e-12)


@pytest.mark.parametrize("kind", sorted(GRID_SAMPLES))
def test_vertex_is_the_p_of_profile_p(kind):
    # the polish profiles p from one scan's g_p and H_pp at any p: the same
    # p* and S_n as profile_p's quadratic, on and off the alpha == beta diagonal
    density, theta0 = GRID_SAMPLES[kind]
    rng = np.random.default_rng(np.random.SeedSequence([31, len(kind)]))
    for n in (30, 1000, 200_000):
        moments = ContrastMoments(sample_mixture(theta0, density, n, rng))
        angles = np.append(rng.uniform(0, np.pi, 12), [0.7, 0.7])
        for p_min, p_max in ((0.01, 0.49), (0.01, 0.99), (0.3, 0.3)):
            for alpha, beta in zip(angles[::2], angles[1::2]):
                p_ref, value_ref = (v[0, 0] for v in moments.profile_p([alpha], [beta],
                                                                       p_min, p_max))
                # profile_p rounds on the scale of the quadratic's terms
                terms = sum(abs(c).flat[0] for c in moments._p_quadratic([alpha], [beta]))
                for p in (p_min, 0.5 * (p_min + p_max), rng.uniform(p_min, p_max)):
                    value, (g_p, _, _), (h_pp,) = moments._scan(p, alpha, beta)
                    vertex = _vertex(p, g_p, h_pp, p_min, p_max)
                    d = vertex - p
                    profiled = value + d * (g_p + 0.5 * h_pp * d)
                    assert abs(vertex - p_ref) <= 1e-9
                    assert abs(profiled * 2.0 / (n * (n - 1)) - value_ref) <= (
                        1e-12 * terms * 2.0 / (n * (n - 1)))


def newton_cases():
    """Seeded symmetric 2 x 2 curvatures and gradients of each kind, and
    their free sets."""
    rng = np.random.default_rng(32)
    cases = []
    for kind in ("definite", "indefinite", "negative", "singular", "zero"):
        for _ in range(40):
            if kind == "singular":
                # +-u u^T with u of quarter-integers: exact, so det = 0 exactly
                u = rng.integers(-8, 9, size=2) / 4.0
                hess = rng.choice([-1.0, 1.0]) * np.outer(u, u)
            else:
                top, ratio = rng.uniform(0.1, 10.0), rng.uniform(1e-3, 1.0)
                eig = {"definite": [top, top * ratio], "indefinite": [top, -top * ratio],
                       "negative": [-top, -top * ratio], "zero": [0.0, 0.0]}[kind]
                vec = np.linalg.qr(rng.normal(size=(2, 2)))[0]
                hess = vec @ np.diag(eig) @ vec.T
                hess = 0.5 * (hess + hess.T)
            grad = rng.normal(size=2) * (rng.random() < 0.9)
            for free in ((True, True), (True, False), (False, True), (False, False)):
                cases.append((kind, grad, hess, free))
    return cases


def test_newton_step_matches_linalg():
    # the closed-form 2 x 2 step, decrement and convexity test agree with a
    # Cholesky test, a solve and a floored eigendecomposition by numpy.linalg
    kinds = set()
    for kind, grad, hess, free in newton_cases():
        step_a, step_b, decrement, convex = _newton_step(*grad, hess[0, 0], hess[0, 1],
                                                         hess[1, 1], *free)
        ref_step, ref_decrement, ref_convex = newton_step_by_linalg(grad, hess, free, EIG_FLOOR)
        assert convex == ref_convex, (kind, hess, free)
        assert_allclose([step_a, step_b], ref_step, rtol=1e-12,
                        atol=1e-12 * np.max(np.abs(ref_step)), err_msg=f"{kind} {free}")
        if math.isinf(ref_decrement):
            assert decrement == ref_decrement
        else:
            assert_allclose(decrement, ref_decrement, rtol=1e-12, atol=0, err_msg=f"{kind} {free}")
        kinds.add((kind, sum(free), convex))
    assert {("definite", 2, True), ("indefinite", 2, False), ("negative", 1, False),
            ("singular", 2, False), ("zero", 2, False), ("definite", 1, True),
            ("zero", 0, True)} <= kinds


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 2), (96, 96)])
@pytest.mark.parametrize("fill", ["ties", "nan", "inf"])
def test_lowest_local_minima_is_the_eight_neighbour_definition(shape, fill):
    # seeded grids rounded to a few distinct values, so ties are common, with
    # NaN and +-inf cells: the separable window minimum picks the same cells,
    # in the same order, as the cell-by-cell comparison with each neighbour
    rng = np.random.default_rng(np.random.SeedSequence([33, *shape, len(fill)]))
    for _ in range(5 if shape == (96, 96) else 40):
        values = np.round(rng.uniform(0, 4, shape))
        special = rng.random(shape) < 0.1
        if fill == "nan":
            values[special] = np.nan
        elif fill == "inf":
            values[special] = rng.choice([-np.inf, np.inf], size=special.sum())
        for count in (1, N_POLISH, values.size):
            assert _lowest_local_minima(values, count) == local_minima_by_cell(values, count)


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
    moments = ContrastMoments(sample_mixture(theta0, density, n, rng))
    opts = FitOptions(compute_covariance=False)
    fit = estimate_theta(moments, opts)
    ref = differential_evolution(moments.value, opts.box(), seed=case, tol=1e-10)
    assert fit.contrast_at_min <= ref.fun + 1e-12 * max(1.0, abs(ref.fun))


def test_fit_makes_no_linalg_call_without_the_covariance(monkeypatch):
    # the polish's 2 x 2 algebra is closed-form: with every numpy.linalg
    # routine it could reach made to raise, each sample still fits, and only
    # the covariance reaches numpy.linalg
    class Called(Exception):
        pass

    def raises(*args, **kwargs):
        raise Called

    for name in ("cholesky", "solve", "eigh", "svd", "inv"):
        monkeypatch.setattr(np.linalg, name, raises)
    for case, (density, theta0, n) in enumerate(FITTER_SAMPLES):
        rng = np.random.default_rng(np.random.SeedSequence([22, case]))
        moments = ContrastMoments(sample_mixture(theta0, density, n, rng))
        fit = estimate_theta(moments, FitOptions(compute_covariance=False))
        assert fit.converged_starts >= 1
    with pytest.raises(Called):
        estimate_theta(moments, FitOptions())


def polish_every_start(moments, opts):
    """Lowest n S_n over an L-BFGS-B polish of each of the N_POLISH lowest
    grid local minima, with the grid and the polish of estimate_theta."""
    from scipy.optimize import Bounds, minimize
    box, n = opts.box(), moments.n
    alphas = np.linspace(box[1, 0], box[1, 1], GRID_SIZE)
    betas = np.linspace(box[2, 0], box[2, 1], GRID_SIZE)
    ps, values = moments.profile_p(alphas, betas, opts.p_min, opts.p_max)

    def n_contrast(theta):
        value, grad = moments.value_grad(theta)
        return n * value, n * grad

    return min(minimize(n_contrast, np.array([ps[i, j], alphas[i], betas[j]]), jac=True,
                        method="L-BFGS-B", bounds=Bounds(box[:, 0], box[:, 1]),
                        options={"ftol": 1e-13, "gtol": 1e-9, "maxiter": 500}).fun
               for i, j in _lowest_local_minima(values, N_POLISH))


SCREEN_DENSITIES = [
    (VonMises(5.0), THETA0), (WrappedCauchy(0.8), THETA0), (WrappedNormal(0.7), THETA0),
    (VonMises(5.0), MixtureParams(0.0, 0.3, 2.1)),
    (VonMises(5.0), MixtureParams(0.35, 0.5, 0.5 + 2 * np.pi / 3)),
]


def test_screen_keeps_the_minimum_of_every_polish():
    # 40 samples: the screened fit is never above the lowest of all N_POLISH
    # polishes, and the screen skips a polish on some of them
    opts = FitOptions(compute_covariance=False)
    screened = 0
    for k, (density, theta0) in enumerate(SCREEN_DENSITIES):
        for n in (300, 1000, 4000, 20000):
            for rep in range(2):
                rng = np.random.default_rng(np.random.SeedSequence([23, k, n, rep]))
                moments = ContrastMoments(sample_mixture(theta0, density, n, rng))
                fit = estimate_theta(moments, opts)
                assert fit.contrast_at_min * n <= polish_every_start(moments, opts) + 1e-12
                screened += fit.n_starts < N_POLISH
    assert screened > 0


#: Samples, as (density, theta0, n, seed key), on which an L-BFGS-B polish
#: with ftol 1e-13 and gtol 1e-9 stopped "ABNORMAL" at the sample's minimum.
POLISH_SAMPLE_THETA = MixtureParams(0.25, 0.3927, 2.0944)
ABNORMAL_AT_MINIMUM = [
    (VonMises(5.0), POLISH_SAMPLE_THETA, 300, [101, 0, 300, 12]),
    (WrappedCauchy(0.8), POLISH_SAMPLE_THETA, 1000, [101, 1, 1000, 35]),
    (WrappedCauchy(0.8), POLISH_SAMPLE_THETA, 200_000, [101, 1, 200_000, 11]),
    (WrappedCauchy(0.8), POLISH_SAMPLE_THETA, 200_000, [101, 1, 200_000, 41]),
    (VonMises(5.0), MixtureParams(0.0, 0.3, 2.1), 20_000, [101, 3, 20_000, 14]),
    (VonMises(5.0), MixtureParams(0.0, 0.3, 2.1), 200_000, [101, 3, 200_000, 23]),
    (VonMises(5.0), MixtureParams(0.45, 0.3927, 2.0944), 200_000, [101, 5, 200_000, 15]),
]


def test_every_polish_that_reaches_the_minimum_converges(monkeypatch):
    # the Newton decrement judges a polish by the point where it ends: every
    # polish within 1e-12 of its sample's lowest n S_n reports converged, also
    # where L-BFGS-B stopped "ABNORMAL" there, at n = 2e5 and on collapsed
    # data, where H_FF is often indefinite
    polish, runs = contrast._polish, []

    def recorded(*args):
        runs.append(polish(*args))
        return runs[-1]

    monkeypatch.setattr(contrast, "_polish", recorded)
    samples = ABNORMAL_AT_MINIMUM + [
        (density, theta0, n, [30, k, n, rep])
        for k, (density, theta0) in enumerate(SCREEN_DENSITIES)
        for n in (1000, 200_000) for rep in range(2)]
    opts = FitOptions(compute_covariance=False)
    for density, theta0, n, key in samples:
        rng = np.random.default_rng(np.random.SeedSequence(key))
        runs.clear()
        fit = estimate_theta(sample_mixture(theta0, density, n, rng), opts)
        best = min(r.fun for r in runs)
        assert fit.contrast_at_min == best / n
        for r in runs:
            assert r.converged or r.fun > best + 1e-12, (key, r.failure)
            assert r.converged == (r.decrement <= contrast.DECREMENT_TOL)
        assert fit.converged_starts == sum(r.converged for r in runs)


def test_unconverged_first_polish_screens_nothing(monkeypatch):
    # only a converged polish may rule out a later start, so a first polish
    # that reports failure leaves the next start to be polished
    angles = sample_mixture(THETA0, VonMises(5.0), 1000, np.random.default_rng(0))
    opts = FitOptions(compute_covariance=False)
    assert estimate_theta(angles, opts).n_starts == 1
    polish, calls = contrast._polish, []

    def first_unconverged(*args):
        result = polish(*args)
        if not calls:
            result = dataclasses.replace(result, failure="line search stalled")
        calls.append(result)
        return result

    monkeypatch.setattr(contrast, "_polish", first_unconverged)
    fit = estimate_theta(angles, opts)
    assert fit.n_starts >= 2
    assert fit.converged_starts == fit.n_starts - 1


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
    fit = estimate_theta(s)
    # beta_hat - alpha_hat is within CLT scale of the 2*pi/3 spacing, whose
    # sandwich sd at n = 800 is about the flag's radius, so the flag is set
    # exactly when the fit falls inside that radius
    sigma = fit.sigma_hat
    sd = math.sqrt((sigma[1, 1] + sigma[2, 2] - 2 * sigma[1, 2]) / fit.n)
    assert abs(fit.theta_hat.beta - fit.theta_hat.alpha - 2 * np.pi / 3) <= 4 * sd
    assert fit.near_degenerate == (degeneracy_gap(fit.theta_hat) < DEGENERACY_WARN_RADIUS)


def test_asymptotic_cov_properties():
    rng = np.random.default_rng(20)
    s = sample_mixture(THETA0, VonMises(5.0), 800, rng)
    fit = estimate_theta(s, FitOptions(compute_covariance=False))
    sigma, se = asymptotic_cov(s, fit.theta_hat)
    assert_allclose(sigma, sigma.T, atol=1e-15)
    eigvals = np.linalg.eigvalsh(sigma)
    assert np.all(eigvals >= -1e-12)
    assert np.all(se > 0)
    assert_allclose(se, np.sqrt(np.diag(sigma) / len(s)))


def test_asymptotic_cov_singular_raises():
    # all observations equal with p = 1/2 and collapsed angles: the p-row of
    # the curvature matrix vanishes identically
    x = np.zeros(50)
    with pytest.raises(InferenceError):
        asymptotic_cov(x, MixtureParams(0.5, 0.0, 0.0))


def test_fit_result_is_built_once_with_its_inference():
    # the covariance, or the reason it is unavailable, is part of the frozen record
    s = sample_mixture(THETA0, VonMises(5.0), 800, np.random.default_rng(20))
    fit = estimate_theta(s)
    assert fit.inference_warning is None
    assert_allclose(fit.std_errors, asymptotic_cov(s, fit.theta_hat)[1], rtol=0, atol=0)
    unavailable = estimate_theta(np.zeros(50))
    assert (unavailable.sigma_hat, unavailable.std_errors) == (None, None)
    assert unavailable.inference_warning.startswith("curvature matrix is numerically singular")
    skipped = estimate_theta(s, FitOptions(compute_covariance=False))
    assert (skipped.sigma_hat, skipped.std_errors, skipped.inference_warning) == (None, None, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fit.std_errors = None


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


def test_no_converged_polish_is_an_estimation_error(tmp_path, monkeypatch, capsys):
    # every polish reports failure: the fit, a bench replication and `circmix fit` fail
    polish, runs = contrast._polish, []

    def unconverged(*args):
        result = polish(*args)
        result = dataclasses.replace(
            result, failure=f"line search stalled at lambda^2 = {result.decrement:.3g}")
        runs.append(result)
        return result

    monkeypatch.setattr(contrast, "_polish", unconverged)
    angles = sample_mixture(THETA0, VonMises(5.0), 300, np.random.default_rng(4))
    with pytest.raises(EstimationError) as info:
        estimate_theta(angles, FitOptions(compute_covariance=False))
    best = min(r.fun for r in runs) / len(angles)
    assert str(info.value) == (f"no polish converged (best contrast {best!r}: "
                               f"line search stalled at lambda^2 = {runs[0].decrement:.3g})")
    config = bench.ExperimentConfig.from_dict(dict(
        density="vonmises kappa=5", theta0="0.25,0.4,2.1", n="200", reps="1", seed="3"))
    assert bench._fit_rep((config, "mse", 200, 0)) is None
    path = tmp_path / "s.txt"
    path.write_text("\n".join(map(repr, angles.tolist())))
    assert cli.main(["fit", "--in", str(path)]) == 4
    assert capsys.readouterr().err.startswith("estimation error: no polish converged ")


@pytest.mark.parametrize("limit, value, reason", [
    ("MAX_HALVINGS", 0, "line search stalled at lambda^2 = "),
    ("MAX_ITER", 1, "1 iterations ended at lambda^2 = "),
])
def test_unconverged_polish_exits_of_the_real_polish(tmp_path, monkeypatch, capsys,
                                                     limit, value, reason):
    # no halving lets any line search end, and one iteration ends no polish
    # converged on these samples: each exit of _polish itself, not of a mock,
    # fails the fit, a bench replication and `circmix fit`
    polish, runs = contrast._polish, []

    def recorded(*args):
        runs.append(polish(*args))
        return runs[-1]

    monkeypatch.setattr(contrast, limit, value)
    monkeypatch.setattr(contrast, "_polish", recorded)
    angles = sample_mixture(THETA0, VonMises(5.0), 300, np.random.default_rng(4))
    with pytest.raises(EstimationError) as info:
        estimate_theta(angles, FitOptions(compute_covariance=False))
    assert runs and all(r.failure.startswith(reason) for r in runs)
    best = min(r.fun for r in runs) / len(angles)
    assert str(info.value) == (f"no polish converged (best contrast {best!r}: "
                               f"{reason}{runs[0].decrement:.3g})")
    config = bench.ExperimentConfig.from_dict(dict(
        density="vonmises kappa=5", theta0="0.25,0.4,2.1", n="200", reps="1", seed="3"))
    assert bench._fit_rep((config, "mse", 200, 0)) is None
    path = tmp_path / "s.txt"
    path.write_text("\n".join(map(repr, angles.tolist())))
    assert cli.main(["fit", "--in", str(path)]) == 4
    assert capsys.readouterr().err.startswith("estimation error: no polish converged ")
