"""Plug-in coefficients, penalized level selection, slope calibration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from circmix import (CalibrationError, ContrastMoments, DegeneracyError, DensityEstimate, DomainError,
                     EmpiricalCoeffs, FitOptions, MixtureParams, Tabulated, VonMises,
                     WrappedCauchy, WrappedNormal, empirical_coeffs, estimate_density,
                     estimate_theta, l2_error, mixture_density, mixture_weight, oracle_risk,
                     penalty_floor, sample_mixture, select_level, slope_lambda)

from circmix.npdens import EVALUATE_CHUNK

from _oracles import (TWO_PI, null_increments, quad_fourier, quad_integral,
                      risk_profile_mp, slope_rule_levels, tail_mp)

EPS = np.finfo(float).eps

THETA0 = MixtureParams(0.25, np.pi / 8, 2 * np.pi / 3)


def make_coeffs(f_moduli_sq, n=1000):
    """Synthetic EmpiricalCoeffs with prescribed |f_hat_l|^2 for l >= 1."""
    l_max = len(f_moduli_sq)
    f_pos = np.concatenate([[1 / TWO_PI], np.sqrt(np.asarray(f_moduli_sq, dtype=float))])
    f_hat = np.concatenate([np.conj(f_pos[:0:-1]), f_pos])
    return EmpiricalCoeffs(g_hat=f_hat.copy(), f_hat=f_hat, n=n,
                           theta_used=THETA0, l_max=l_max, p_cap=0.49)


def test_empirical_coeffs_basics():
    rng = np.random.default_rng(0)
    s = sample_mixture(THETA0, VonMises(5.0), 500, rng)
    coeffs = empirical_coeffs(s, THETA0, 12)
    assert coeffs.g(0) == 1.0 / TWO_PI
    assert coeffs.f(0) == 1.0 / TWO_PI
    for l in range(1, 13):
        assert coeffs.g(-l) == np.conj(coeffs.g(l))
        assert coeffs.f(-l) == np.conj(coeffs.f(l))
        assert_allclose(coeffs.f(l), coeffs.g(l) / mixture_weight(THETA0, l), rtol=1e-12)


def test_empirical_coeffs_consistency():
    # with theta = theta0 and large n, plug-in coefficients approach the truth
    n = 100000
    d = VonMises(5.0)
    rng = np.random.default_rng(1)
    s = sample_mixture(THETA0, d, n, rng)
    coeffs = empirical_coeffs(s, THETA0, 8)
    bound = 4.0 * (1 - 2 * 0.49) ** -1 / math.sqrt(4 * math.pi ** 2 * n)
    for l in range(1, 9):
        assert abs(coeffs.f(l) - d.fourier_coeff(l)) < bound


def test_empirical_coeffs_uniform_noise_level():
    n = 100000
    rng = np.random.default_rng(2)
    s = sample_mixture(THETA0, VonMises(0.0), n, rng)
    coeffs = empirical_coeffs(s, THETA0, 6)
    for l in range(1, 7):
        assert abs(coeffs.f(l)) < 4.0 / (abs(mixture_weight(THETA0, l)) * 2 * math.pi * math.sqrt(n))


def test_empirical_coeffs_reads_the_moments():
    # moments holding P_0..P_l_max give the coefficients of the angles, bit
    # for bit; moments holding fewer sums are refused
    x = sample_mixture(THETA0, VonMises(5.0), 300, np.random.default_rng(3))
    with pytest.raises(DomainError):
        empirical_coeffs(ContrastMoments(x), THETA0, 9)
    for moments, l_max in ((ContrastMoments(x), 8), (ContrastMoments(x, 9), 9)):
        from_moments = empirical_coeffs(moments, THETA0, l_max)
        from_angles = empirical_coeffs(x, THETA0, l_max)
        assert from_moments.n == from_angles.n == 300
        assert np.array_equal(from_moments.g_hat, from_angles.g_hat)
        assert np.array_equal(from_moments.f_hat, from_angles.f_hat)


@settings(max_examples=60, deadline=None)
@given(angles=st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=300),
       l_max=st.integers(0, 40), data=st.data())
def test_empirical_coeffs_symmetric_and_order_free(angles, l_max, data):
    x = np.array(angles)
    coeffs = empirical_coeffs(x, THETA0, l_max)
    assert np.array_equal(coeffs.g_hat[::-1], np.conj(coeffs.g_hat))
    assert np.array_equal(coeffs.f_hat[::-1], np.conj(coeffs.f_hat))
    order = data.draw(st.permutations(range(len(x))))
    permuted = empirical_coeffs(x[order], THETA0, l_max)
    assert np.max(np.abs(permuted.g_hat - coeffs.g_hat)) <= 1e-12


def test_empirical_coeffs_memory_is_bounded():
    # at the large-sample CLI size an n x (l_max+1) complex matrix alone
    # would take 189 MB; the chunked power sums need a few chunk buffers
    angles = np.random.default_rng(4).uniform(0, TWO_PI, 200_000)
    tracemalloc.start()
    try:
        empirical_coeffs(angles, THETA0, 58)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.fixture(scope="module")
def large_n_estimate():
    # the large-sample CLI case: n = 2e5 wrapped Cauchy angles; L_hat = 34 here
    s = sample_mixture(THETA0, WrappedCauchy(0.8), 200_000, np.random.default_rng(5))
    return estimate_density(s, estimate_theta(s, FitOptions(compute_covariance=False)))


def test_grid_memory_is_bounded(large_n_estimate):
    # one num x (2L+1) complex matrix took a 222 MB peak here
    tracemalloc.start()
    try:
        large_n_estimate.grid(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


@pytest.mark.parametrize("num", [1, EVALUATE_CHUNK - 1, EVALUATE_CHUNK, EVALUATE_CHUNK + 1,
                                 3 * EVALUATE_CHUNK + 5])
def test_evaluate_blocks_are_the_unblocked_sum(large_n_estimate, num):
    est = large_n_estimate
    x = np.random.default_rng(num).uniform(0, TWO_PI, num)
    ls = np.arange(-est.level, est.level + 1)
    sel = est.coeffs.f_hat[est.coeffs.l_max - est.level:est.coeffs.l_max + est.level + 1]
    unblocked = (np.exp(1j * np.outer(x, ls)) * sel).sum(axis=-1).real
    assert np.array_equal(est.pdf(x), unblocked)
    assert est.pdf(x[0]) == unblocked[0]


def test_empirical_coeffs_degeneracy_guard():
    rng = np.random.default_rng(3)
    s = sample_mixture(THETA0, VonMises(5.0), 100, rng)
    bad = MixtureParams(0.499, 0.0, 0.0 + np.pi / 6)  # |M^6| = 0.002 < 0.02
    with pytest.raises(DegeneracyError) as err:
        empirical_coeffs(s, bad, 8, p_cap=0.49)
    assert err.value.level == 6


def test_plugin_variance_bound():
    # with theta fixed at theta0, E|f_hat_l - f_l|^2 <= (4 pi^2 n)^-1 (1-2P)^-2
    n, reps = 200, 500
    d = VonMises(5.0)
    acc = np.zeros(8)
    for r in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([41, r]))
        s = sample_mixture(THETA0, d, n, rng)
        coeffs = empirical_coeffs(s, THETA0, 8)
        for l in range(1, 9):
            acc[l - 1] += abs(coeffs.f(l) - d.fourier_coeff(l)) ** 2
    acc /= reps
    bound = (1 - 2 * 0.49) ** -2 / (4 * math.pi ** 2 * n)
    assert np.all(acc <= bound)


def test_cumulative_mass_is_the_level_sums():
    rng = np.random.default_rng(3)
    coeffs = make_coeffs(rng.uniform(0, 1e-3, 12))
    direct = [sum(abs(coeffs.f(l)) ** 2 for l in range(-L, L + 1)) for L in range(13)]
    assert_allclose(coeffs.cumulative_mass(), direct, rtol=1e-13)
    coeffs.f_hat = 2.0 * coeffs.f_hat  # read on each call, never cached
    assert_allclose(coeffs.cumulative_mass(), 4.0 * np.array(direct), rtol=1e-13)


def test_select_level_limits():
    coeffs = make_coeffs([0.01, 0.008, 0.002, 0.001, 5e-4, 2e-4, 1e-4, 5e-5])
    level, _ = select_level(coeffs, penalty=1e9)
    assert level == 0
    level, _ = select_level(coeffs, penalty=1e-12)
    assert level == coeffs.l_max


def test_select_level_matches_exhaustive_scan():
    rng = np.random.default_rng(4)
    for _ in range(100):
        l_max = int(rng.integers(3, 20))
        coeffs = make_coeffs(rng.uniform(0, 1e-3, l_max), n=int(rng.integers(50, 5000)))
        penalty = float(rng.uniform(1e-4, 1.0))
        level, path = select_level(coeffs, penalty)
        # independent reimplementation of the criterion
        crits = []
        for L in range(0, l_max + 1):
            mass = sum(abs(coeffs.f(l)) ** 2 for l in range(-L, L + 1))
            crits.append(-mass + penalty * (2 * L + 1) / coeffs.n)
        best = min(range(len(crits)), key=lambda i: (crits[i], i))
        assert level == best
        assert_allclose([c for _, c in path], crits, rtol=1e-12)


def test_select_level_tie_breaks_small():
    coeffs = make_coeffs([0.0, 0.0, 0.0, 0.0])
    level, _ = select_level(coeffs, penalty=1e-30)
    assert level == 0  # all criteria equal up to the vanishing penalty


def test_slope_lambda_exact_linear():
    # constant |f_hat_l|^2 = c gives couples exactly on y = (c n) x + const;
    # with c = 3/n the fitted slope is 3 and lambda_hat = 6
    n = 1000
    c = 3.0 / n
    coeffs = make_coeffs([c] * 16, n=n)
    fit = slope_lambda(coeffs)
    assert_allclose(fit.slope, 3.0, rtol=1e-10)
    assert_allclose(fit.lambda_hat, 6.0, rtol=1e-10)
    assert fit.window[0] == 8 and fit.window[-1] == 16
    assert len(fit.couples) == 17


def test_slope_lambda_requires_enough_levels():
    coeffs = make_coeffs([1e-3] * 5)
    with pytest.raises(CalibrationError):
        slope_lambda(coeffs)


def test_slope_lambda_positive_on_real_data():
    rng = np.random.default_rng(5)
    s = sample_mixture(THETA0, WrappedCauchy(0.8), 1000, rng)
    fit = estimate_theta(s, FitOptions(compute_covariance=False))
    coeffs = empirical_coeffs(s, fit.theta_hat, 50)
    slope_fit = slope_lambda(coeffs)
    assert slope_fit.lambda_hat > 0
    ys = [y for _, _, y in slope_fit.couples]
    assert all(b >= a - 1e-15 for a, b in zip(ys, ys[1:]))


def test_slope_lambda_window_robustness():
    # half-window vs third-window calibrations agree within 20% in the median,
    # and the closed-form half-window line is np.polyfit's
    ratios = []
    for r in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([51, r]))
        s = sample_mixture(THETA0, VonMises(5.0), 1000, rng)
        fit = estimate_theta(s, FitOptions(compute_covariance=False))
        coeffs = empirical_coeffs(s, fit.theta_hat, 30)
        slope_fit = slope_lambda(coeffs)
        half = slope_fit.lambda_hat
        levels = np.arange(0, 31)
        xs = (2 * levels + 1) / coeffs.n
        ys = coeffs.cumulative_mass()
        in_half = levels >= 15
        assert_allclose([slope_fit.slope, slope_fit.intercept],
                        np.polyfit(xs[in_half], ys[in_half], 1), rtol=1e-10)
        keep = levels >= math.ceil(30 * 2 / 3)
        a_third = np.polyfit(xs[keep], ys[keep], 1)[0]
        ratios.append(half / (2 * a_third))
    med = float(np.median(ratios))
    assert 0.8 <= med <= 1.25


@pytest.mark.parametrize("l_max", [10, 15])
def test_slope_rule_oracle_matches_program(l_max):
    # the null reference model behind criterion 8 describes the rule the code
    # runs: on the oracle's own Exp(1) draws both choose the same L_hat
    n = 1000
    draws = null_increments(l_max, 200, np.random.SeedSequence([61, l_max]))
    expected = slope_rule_levels(draws)
    got = []
    for increments in draws:
        coeffs = make_coeffs(increments / (4 * math.pi ** 2 * n), n=n)
        got.append(select_level(coeffs, slope_lambda(coeffs).lambda_hat)[0])
    assert len(set(got)) >= 3  # the draws exercise nonzero choices too
    assert got == expected.tolist()


def test_penalty_floor_diagnostic():
    assert penalty_floor(0.25) == pytest.approx(3.0 / math.pi ** 2 * 2.0 * 4.0)
    assert penalty_floor(0.49) > penalty_floor(0.25)


def test_density_stage_reads_the_cap_from_the_fit():
    s = sample_mixture(THETA0, VonMises(5.0), 500, np.random.default_rng(6))
    options = FitOptions(p_max=0.3, compute_covariance=False)
    fit = estimate_theta(s, options)
    assert fit.options is options
    est = estimate_density(s, fit)
    assert est.coeffs.p_cap == 0.3
    assert est.slope_fit.theoretical_floor == penalty_floor(0.3)
    assert est.coeffs.theta_used == fit.theta_hat


@pytest.mark.parametrize("p_cap", [0.5, 0.6, 0.0, -0.1, math.nan])
def test_density_stage_needs_p_cap_below_half(p_cap):
    # the weight floor 1 - 2*p_cap must be positive
    with pytest.raises(DomainError):
        penalty_floor(p_cap)
    with pytest.raises(DomainError):
        empirical_coeffs(np.array([0.1, 0.2, 0.3]), THETA0, 4, p_cap=p_cap)


@pytest.mark.parametrize("penalty", [0.0, -1.0, math.nan, math.inf])
def test_select_level_needs_a_finite_positive_penalty(penalty):
    with pytest.raises(DomainError):
        select_level(make_coeffs([1e-3] * 4), penalty)


def test_estimate_density_uniform_selects_zero():
    # this seed sits in the ~69% null event in which lambda_hat = 2 * slope
    # picks L = 0 (see criterion 8); a change to theta_hat may flip it, which
    # calls for a diagnosis, not a new seed
    rng = np.random.default_rng(1)
    s = sample_mixture(THETA0, VonMises(0.0), 1000, rng)
    fit = estimate_theta(s, FitOptions(compute_covariance=False))
    est = estimate_density(s, fit)
    assert est.level == 0
    x, y = est.grid(64)
    assert_allclose(y, 1.0 / TWO_PI, atol=1e-12)


def test_estimate_density_reconstruction_quality():
    rng = np.random.default_rng(7)
    d = VonMises(5.0)
    s = sample_mixture(THETA0, d, 1000, rng)
    fit = estimate_theta(s, FitOptions(compute_covariance=False))
    est = estimate_density(s, fit)
    assert 3 <= est.level <= 10
    risk = l2_error(est, d)
    assert risk < 0.05
    # reconstruction is real and integrates to one
    x, y = est.grid(512)
    assert abs(quad_integral(y) - 1.0) < 1e-10
    g = mixture_density(fit.theta_hat, est, x)
    assert abs(quad_integral(g) - 1.0) < 1e-6


def test_estimate_density_explicit_penalty():
    rng = np.random.default_rng(8)
    s = sample_mixture(THETA0, VonMises(5.0), 500, rng)
    fit = estimate_theta(s, FitOptions(compute_covariance=False))
    est = estimate_density(s, fit, penalty=1e9)
    assert est.level == 0
    assert est.slope_fit is None


def test_l2_error_exact_coefficients():
    d = VonMises(2.0)
    l_max = 12
    f_pos = np.array([d.fourier_coeff(l) for l in range(0, l_max + 1)])
    f_hat = np.concatenate([np.conj(f_pos[:0:-1]), f_pos])
    coeffs = EmpiricalCoeffs(g_hat=f_hat.copy(), f_hat=f_hat, n=1000,
                             theta_used=THETA0, l_max=l_max, p_cap=0.49)
    est = DensityEstimate(coeffs=coeffs, level=l_max, penalty=1.0, contrast_path=[])
    assert l2_error(est, d) < 1e-10


def test_l2_error_uniform_estimate():
    # the uniform estimate of a VonMises(1) has error 2 sum_{l>=1} f_l^2
    d = VonMises(1.0)
    coeffs = make_coeffs([0.0] * 4)
    coeffs.f_hat = np.zeros_like(coeffs.f_hat)
    coeffs.f_hat[coeffs.l_max] = 1 / TWO_PI
    est = DensityEstimate(coeffs=coeffs, level=0, penalty=1.0, contrast_path=[])
    expected = 2.0 * sum(abs(quad_fourier(d.pdf, l)) ** 2 for l in range(1, 40))
    assert_allclose(l2_error(est, d), expected, rtol=1e-9)


def test_l2_error_matches_grid_quadrature():
    rng = np.random.default_rng(9)
    d = VonMises(5.0)
    s = sample_mixture(THETA0, d, 1000, rng)
    fit = estimate_theta(s, FitOptions(compute_covariance=False))
    est = estimate_density(s, fit)
    x = np.linspace(0.0, TWO_PI, 8192, endpoint=False)
    quad = quad_integral((est.pdf(x) - d.pdf(x)) ** 2) / TWO_PI
    assert_allclose(l2_error(est, d), quad, atol=1e-8)


def _exact_tail(density, start):
    """l2_error of the estimate whose coefficients up to level start - 1 are
    the density's own: the tail sum_{|l| >= start} |f_l|^2 alone."""
    l_max = start - 1
    f_pos = density.fourier_coeffs(np.arange(0, l_max + 1))
    f_hat = np.concatenate([np.conj(f_pos[:0:-1]), f_pos])
    coeffs = EmpiricalCoeffs(g_hat=f_hat.copy(), f_hat=f_hat, n=1000,
                             theta_used=THETA0, l_max=l_max, p_cap=0.49)
    return l2_error(DensityEstimate(coeffs=coeffs, level=l_max, penalty=1.0,
                                    contrast_path=[]), density)


@pytest.mark.parametrize("density", [VonMises(5.0), VonMises(300.0, 1.0), VonMises(0.0),
                                     WrappedCauchy(0.8), WrappedCauchy(0.999, 0.4),
                                     WrappedNormal(0.8, 2.2)],
                         ids=["vm5", "vm300", "uniform", "wc0.8", "wc0.999", "wn0.8"])
@pytest.mark.parametrize("start", [1, 11, 51])
def test_tail_mass_is_the_per_level_sum(density, start):
    # the tail is ||f||^2 less the head: one subtraction, so it is off the
    # mpmath norm less its head sum by the rounding of a few eps ||f||^2
    tail = _exact_tail(density, start)
    assert abs(tail - float(tail_mp(density, start))) <= 8 * EPS * density.squared_norm()


def test_tail_mass_past_100000_levels():
    # gamma^(2l) stays above 1e-16 past l = 1e5 here, so the tail has no cut;
    # the head is a running sum of 1e5 terms, whose rounding, about
    # sqrt(1e5) eps ||f||^2, sets the tolerance
    density = WrappedCauchy(0.9999, 0.4)
    for start in (99970, 100001):
        tail = _exact_tail(density, start)
        assert tail > 5e-7
        assert abs(tail - float(tail_mp(density, start))) <= 320 * EPS * density.squared_norm()


def test_tabulated_tail_mass_is_the_parseval_remainder():
    # the interpolant's coefficients vanish at multiples of the grid size; its
    # tail is still the norm, from mpmath quadrature, less the head
    grid = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    for density in (Tabulated(1.0 + np.cos(grid)),
                    Tabulated(np.random.default_rng(3).uniform(0.5, 1.5, 64), mu=1.1)):
        for start in (1, 11, 64, 65):
            tail = _exact_tail(density, start)
            assert abs(tail - float(tail_mp(density, start))) <= 8 * EPS * density.squared_norm()


def test_l2_error_of_a_concentrated_wrapped_cauchy():
    # gamma^(2l) stays above 1e-16 up to l ~ 1.8e5, and the terms past
    # l = 1e5 add 5.2e-7 (2e-9 relative) to the risk
    d = WrappedCauchy(0.9999, 0.4)
    s = sample_mixture(THETA0, d, 1000, np.random.default_rng(11))
    coeffs = empirical_coeffs(s, THETA0, 30)
    ref = [float(r) for r in risk_profile_mp(coeffs.f_hat[coeffs.l_max:], d)]
    for level in (0, 7, 30):
        est = DensityEstimate(coeffs=coeffs, level=level, penalty=1.0, contrast_path=[])
        assert_allclose(l2_error(est, d), ref[level], rtol=1e-11)
    best, risk = oracle_risk(coeffs, d)
    assert best == int(np.argmin(ref))
    assert_allclose(risk, ref[best], rtol=1e-11)


def test_oracle_risk_is_lower_bound():
    rng = np.random.default_rng(10)
    d = VonMises(5.0)
    s = sample_mixture(THETA0, d, 1000, rng)
    fit = estimate_theta(s, FitOptions(compute_covariance=False))
    est = estimate_density(s, fit)
    best_level, best_risk = oracle_risk(est.coeffs, d)
    assert 0 <= best_level <= est.coeffs.l_max
    assert best_risk <= l2_error(est, d)  # both read one risk profile


def test_oracle_risk_is_the_best_l2_error():
    rng = np.random.default_rng(12)
    d = WrappedCauchy(0.8)
    s = sample_mixture(THETA0, d, 1000, rng)
    coeffs = empirical_coeffs(s, THETA0, 30)
    risks = [l2_error(DensityEstimate(coeffs=coeffs, level=L, penalty=1.0, contrast_path=[]), d)
             for L in range(coeffs.l_max + 1)]
    best = int(np.argmin(risks))
    assert oracle_risk(coeffs, d) == (best, risks[best])
    # Parseval, level by level, from the coefficient differences
    for L in (0, best, coeffs.l_max):
        head = sum(abs(coeffs.f(l) - d.fourier_coeff(l)) ** 2 for l in range(-L, L + 1))
        tail = 2.0 * sum(abs(d.fourier_coeff(l)) ** 2 for l in range(L + 1, 400))
        assert_allclose(risks[L], head + tail, rtol=1e-12)


