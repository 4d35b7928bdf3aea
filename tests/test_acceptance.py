"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All Monte Carlo batches use frozen seeds.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom

from circmix import (FitOptions, MixtureParams, VonMises, WrappedCauchy,
                     alias_bipolar, alias_case4, alias_pi_shift,
                     degeneracy_gap, det_sin_identity, empirical_coeffs,
                     estimate_density, estimate_theta, l2_error, mixture_residual,
                     oracle_risk, population_contrast, sample_mixture,
                     slope_lambda, squared_error)
from circmix.bench import ExperimentConfig, run_mse, run_normality
from circmix.npdens import EmpiricalCoeffs, default_l_max

from _oracles import (brute_contrast, fd_gradient, fd_jacobian, slope_rule_null_rate,
                      z_grads, z_hessians, z_values)

THETA0 = MixtureParams(0.25, np.pi / 8, 2 * np.pi / 3)
THETA0_STR = f"{THETA0.p},{THETA0.alpha},{THETA0.beta}"
TWO_PI = 2.0 * math.pi

PAPER_VM_N1000 = np.array([1.4632e-4, 0.0017, 4.4861e-4])


def report(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


def bench_config(tmp_path, **overrides):
    base = dict(density="vonmises kappa=5", theta0=THETA0_STR, n="1000",
                reps="50", seed="7", experiment="mse")
    base.update({k: str(v) for k, v in overrides.items()})
    cfg = ExperimentConfig.from_dict(base)
    return replace(cfg, outdir=str(tmp_path))


def fit_for(sample, covariance=False):
    return estimate_theta(sample, FitOptions(compute_covariance=covariance))


def test_criterion_01_table1_vonmises(tmp_path):
    start = time.time()
    cfg = bench_config(tmp_path, n="100,1000", reps=50, seed=7)
    rows = {row.n: np.array([row.mse_p, row.mse_alpha, row.mse_beta])
            for row in run_mse(cfg)}
    elapsed = time.time() - start
    ratios_vs_paper = rows[1000] / PAPER_VM_N1000
    decay = rows[100] / rows[1000]
    ok = (np.all(rows[1000] <= 3.0 * PAPER_VM_N1000)
          and np.all(decay > 3.0) and elapsed < 120.0)
    report(1, ok,
           f"mse(n=1000)={np.array2string(rows[1000], precision=3)} "
           f"paper-ratio={np.array2string(ratios_vs_paper, precision=2)} (need <= 3), "
           f"n100/n1000={np.array2string(decay, precision=1)} (need > 3), "
           f"elapsed {elapsed:.0f}s (< 120s)")


def test_criterion_02_table1_wrapped_cauchy(tmp_path):
    cfg = bench_config(tmp_path, density="wrappedcauchy gamma=0.8", n="1000",
                       reps=50, seed=11)
    row = run_mse(cfg)[0]
    mse = np.array([row.mse_p, row.mse_alpha, row.mse_beta])
    bounds = np.array([1e-3, 5e-3, 1e-3])
    report(2, bool(np.all(mse <= bounds)),
           f"mse={np.array2string(mse, precision=3)} vs bounds {bounds}")


def test_criterion_03_population_contrast():
    d = VonMises(5.0)
    f_coeffs = [d.fourier_coeff(l).real for l in range(1, 5)]
    at_theta0 = population_contrast(THETA0, THETA0, f_coeffs)
    shifted = MixtureParams(THETA0.p, THETA0.alpha + np.pi, THETA0.beta + np.pi)
    at_shift = population_contrast(shifted, THETA0, f_coeffs)
    rng = np.random.default_rng(99)
    minimum = math.inf
    count = 0
    while count < 100:
        theta = MixtureParams(rng.uniform(0.01, 0.49), rng.uniform(0, np.pi),
                              rng.uniform(0, np.pi))
        if (math.sqrt(squared_error(theta, THETA0).sum()) <= 0.2
                or degeneracy_gap(theta) < 0.05):
            continue
        count += 1
        minimum = min(minimum, population_contrast(theta, THETA0, f_coeffs))
    ok = at_theta0 <= 1e-12 and at_shift <= 1e-12 and minimum > 1e-4
    report(3, ok, f"S(theta0)={at_theta0:.2e}, S(theta0+pi)={at_shift:.2e} "
                  f"(<= 1e-12); min over 100 separated draws {minimum:.2e} (> 1e-4)")


def test_criterion_04_derivatives():
    from circmix import ContrastMoments
    rng = np.random.default_rng(44)
    worst_grad = worst_hess = 0.0
    for _ in range(50):
        n = int(rng.integers(50, 400))
        sample = sample_mixture(THETA0, VonMises(5.0), n, rng)
        moments = ContrastMoments(sample)
        theta = np.array([rng.uniform(0.01, 0.49), rng.uniform(0, np.pi),
                          rng.uniform(0, np.pi)])
        _, grad, hess = moments.value_grad_hess(theta)
        gfd = fd_gradient(moments.value, theta)
        hfd = fd_jacobian(lambda t: moments.value_grad(t)[1], theta)
        worst_grad = max(worst_grad, np.linalg.norm(grad - gfd) / np.linalg.norm(grad))
        worst_hess = max(worst_hess, np.linalg.norm(hess - hfd) / np.linalg.norm(hess))
    worst_forms = 0.0
    for _ in range(10):
        sample = sample_mixture(THETA0, WrappedCauchy(0.8), 150, rng)
        theta = np.array([rng.uniform(0.01, 0.49), rng.uniform(0, np.pi),
                          rng.uniform(0, np.pi)])
        fast = ContrastMoments(sample).value(theta)
        slow = brute_contrast(sample, theta)
        worst_forms = max(worst_forms, abs(fast - slow) / max(abs(slow), 1e-300))
    ok = worst_grad <= 1e-5 and worst_hess <= 1e-5 and worst_forms <= 1e-13
    report(4, ok, f"grad-vs-FD worst rel {worst_grad:.2e}, hess {worst_hess:.2e} "
                  f"(<= 1e-5); O(n) vs O(n^2) worst rel {worst_forms:.2e} (<= 1e-13)")


def test_criterion_05_bound_suite():
    rng = np.random.default_rng(55)
    violations = 0
    draws = 0
    while draws < 10000:
        theta = np.array([rng.uniform(0.001, 0.999), rng.uniform(0, TWO_PI),
                          rng.uniform(0, TWO_PI)])
        x = rng.uniform(0, TWO_PI, 25)
        for l in range(-4, 5):
            draws += len(x)
            z = z_values(x, l, theta)
            g = np.linalg.norm(z_grads(x, l, theta), axis=1)
            h = np.linalg.norm(z_hessians(x, l, theta), axis=(1, 2))
            violations += int(np.sum(np.abs(z) > 1 / TWO_PI + 1e-12))
            violations += int(np.sum(g > (2 + abs(l)) / (math.sqrt(2) * math.pi) + 1e-12))
            violations += int(np.sum(h > (abs(l) + l * l) / math.pi + 1e-12))
    report(5, violations == 0, f"{violations} violations over {draws} draws (need 0)")


def test_criterion_06_identifiability():
    densities = [VonMises(1.0), VonMises(5.0), WrappedCauchy(0.8)]
    worst = 0.0
    theta_pi = MixtureParams(0.3, 0.4, 0.4 + np.pi)
    theta_third = MixtureParams(0.4, 0.3, 0.3 + TWO_PI / 3)
    theta_any = MixtureParams(0.25, np.pi / 8, 2 * np.pi / 3)
    for d in densities:
        worst = max(worst, mixture_residual(theta_any, d, alias_pi_shift(theta_any)))
        worst = max(worst, mixture_residual(theta_pi, d, alias_bipolar(theta_pi, q=0.8)))
        worst = max(worst, mixture_residual(theta_third, d, alias_case4(theta_third)))
    fig1_pos = alias_case4(MixtureParams(0.4, 0.0, TWO_PI / 3), density=VonMises(1.0))
    fig1_neg = alias_case4(MixtureParams(0.3, 0.0, TWO_PI / 3), density=VonMises(1.0))
    rng = np.random.default_rng(66)
    worst_det = 0.0
    for _ in range(1000):
        lhs, rhs = det_sin_identity(rng.uniform(-np.pi, np.pi, 4))
        worst_det = max(worst_det, abs(lhs - rhs) / (1.0 + abs(rhs)))
    ok = (worst <= 1e-10 and fig1_pos.f_prime_nonneg is True
          and fig1_neg.f_prime_nonneg is False and worst_det <= 1e-8)
    report(6, ok, f"alias residual worst {worst:.2e} (<= 1e-10); "
                  f"f'(p=0.4) nonneg {fig1_pos.f_prime_nonneg}, "
                  f"f'(p=0.3) min {fig1_neg.f_prime_min:.3f} < 0; "
                  f"det identity worst rel {worst_det:.2e} (<= 1e-8)")


def test_criterion_07_normality_and_coverage(tmp_path):
    cfg = bench_config(tmp_path, experiment="normality", n="1000", reps=200, seed=13)
    _, raw = run_normality(cfg)
    _, zs = raw[1000]
    first = zs[:100]
    means = first.mean(axis=0)
    variances = first.var(axis=0, ddof=1)
    coverage = np.mean(np.abs(zs[:200]) <= 1.96, axis=0)
    ok = (np.all(np.abs(means) < 0.4) and np.all((variances > 0.6) & (variances < 1.5))
          and np.all((coverage >= 0.90) & (coverage <= 0.99)))
    report(7, ok,
           f"z-mean={np.array2string(means, precision=2)} (in (-0.4,0.4)), "
           f"z-var={np.array2string(variances, precision=2)} (in (0.6,1.5)), "
           f"95% coverage={np.array2string(coverage, precision=3)} (in [0.90,0.99])")


def _density_batch(density, n, reps, seed_tag):
    """Adaptive-risk replications; returns realized and oracle risks and levels."""
    risks, oracles, levels = [], [], []
    for r in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([seed_tag, n, r]))
        sample = sample_mixture(THETA0, density, n, rng)
        fit = fit_for(sample)
        estimate = estimate_density(sample, fit)
        risks.append(l2_error(estimate, density))
        oracles.append(oracle_risk(estimate.coeffs, density)[1])
        levels.append(estimate.level)
    return np.array(risks), np.array(oracles), np.array(levels)


def test_criterion_08_adaptive_density():
    d = VonMises(5.0)
    risks1000, oracles1000, _ = _density_batch(d, 1000, 100, 21)
    frac = float(np.mean(risks1000 <= 2.5 * oracles1000 + 10.0 / 1000))
    medians = {1000: float(np.median(risks1000))}
    for n in (250, 4000):
        risks, _, _ = _density_batch(d, n, 100, 21)
        medians[n] = float(np.median(risks))
    decay_ok = medians[250] > medians[1000] > medians[4000]
    # on signal-free data lambda_hat = 2 * slope picks L = 0 only at the rate
    # r_ref of its null reference model (about 0.69 at l_max = 10), not with
    # probability near 1; the count must reach the lower 1% binomial quantile
    _, _, levels_uniform = _density_batch(VonMises(0.0), 1000, 100, 23)
    l_max = default_l_max(1000)
    r_ref, _ = slope_rule_null_rate(l_max)
    zero_min = int(binom.ppf(0.01, len(levels_uniform), r_ref))
    zero_count = int(np.sum(levels_uniform == 0))
    histogram = np.bincount(levels_uniform, minlength=l_max + 1)
    ok = frac >= 0.90 and decay_ok and zero_count >= zero_min
    report(8, ok,
           f"oracle-inequality rate {frac:.2f} (>= 0.90); "
           f"median risks n=250/1000/4000 = {medians[250]:.2e}/{medians[1000]:.2e}/"
           f"{medians[4000]:.2e} (strictly decreasing: {decay_ok}); "
           f"uniform L_hat=0 count {zero_count}/{len(levels_uniform)} "
           f"(>= {zero_min}, 1% quantile of Binomial({len(levels_uniform)}, "
           f"r_ref={r_ref:.3f})); uniform L_hat histogram {histogram.tolist()}")


def test_criterion_09_slope_heuristic():
    # exact-linear synthetic couples recover lambda_hat = 2a
    n, slope_target = 1000, 3.0
    c = slope_target / n
    f_pos = np.concatenate([[1 / TWO_PI], np.full(16, math.sqrt(c))])
    f_hat = np.concatenate([np.conj(f_pos[:0:-1]), f_pos])
    coeffs = EmpiricalCoeffs(g_hat=f_hat.copy(), f_hat=f_hat, n=n,
                             theta_used=THETA0, l_max=16, p_cap=0.49)
    recovered = slope_lambda(coeffs).lambda_hat
    exact_ok = abs(recovered - 2 * slope_target) <= 1e-10
    # WC pipeline at the figure setting
    d = WrappedCauchy(0.8)
    rng = np.random.default_rng(np.random.SeedSequence([31, 1000, 1]))
    sample = sample_mixture(THETA0, d, 1000, rng)
    fit = fit_for(sample)
    estimate = estimate_density(sample, fit, l_max=50)
    risk = l2_error(estimate, d)
    ok = exact_ok and risk <= 0.05
    report(9, ok, f"synthetic lambda_hat {recovered:.12f} vs 6 (err "
                  f"{abs(recovered - 6):.1e} <= 1e-10); WC pipeline risk {risk:.4f} "
                  f"(<= 0.05, L_hat={estimate.level}, lambda={estimate.penalty:.3g})")


def test_criterion_10_determinism(tmp_path):
    outputs = {}
    for name, overrides in {
        "mse": dict(experiment="mse", n="200", reps=6),
        "slope": dict(experiment="slope", n="400", reps=1, l_max=30),
        "density": dict(experiment="density", n="400", reps=1),
        "normality": dict(experiment="normality", n="200", reps=50),
    }.items():
        blobs = []
        for run_dir, jobs in ((tmp_path / f"{name}1", 1), (tmp_path / f"{name}2", 1),
                              (tmp_path / f"{name}p", 2)):
            run_dir.mkdir()
            cfg = bench_config(run_dir, seed=5, **overrides)
            cfg = replace(cfg, jobs=jobs)
            from circmix.bench import run_experiments
            run_experiments(cfg)
            blobs.append(b"".join(sorted(p.read_bytes() for p in run_dir.iterdir())))
        outputs[name] = blobs[0] == blobs[1] == blobs[2]
    ok = all(outputs.values())
    report(10, ok, "byte-identical repeat and parallel runs: "
                   + ", ".join(f"{k}={v}" for k, v in outputs.items()))
