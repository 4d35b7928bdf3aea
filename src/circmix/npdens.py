"""Nonparametric estimation of the component density by Fourier projection.

Pipeline: plug-in coefficients f_hat_l = g_hat_l / M^l(theta_hat), a
projection estimator at resolution L, penalized selection of L, and
slope-heuristic calibration of the penalty constant.  A sample is an array
of angles or its ``contrast.ContrastMoments``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circ import ComponentDensity, MixtureParams, TWO_PI, mixture_weight
from .contrast import ContrastMoments, FitOptions, FitResult, power_sums
from .errors import CalibrationError, DegeneracyError, DomainError


def _weight_floor(p_cap: float) -> float:
    """1 - 2*p_cap, the lower bound on |M^l| for mixing weights up to p_cap.

    Raises
    ------
    DomainError
        Unless 0 < p_cap < 1/2: the bound must be positive.
    """
    if not 0.0 < p_cap < 0.5:
        raise DomainError(f"the density stage needs p_cap in (0, 1/2), got {p_cap}")
    return 1.0 - 2.0 * p_cap


# The largest resolution level accepted: at n = 1000 and a million levels
# `circmix density` takes 3.4-4.4 s, `slope` 4.6-5.7 s and `density
# --coeffs-out` 5.2-5.9 s at 123 MB peak RSS, and `density --lambda 1e-300`
# (L_hat = l_max) 4.7-5.5 s at 115 MB (os.wait4, 2 cores), linear in l_max.
# The power sums run the recurrence there: the binned method's bins would
# outgrow its chunk buffers.
L_MAX_LIMIT = 10 ** 6

# The largest sample size that `circmix simulate` draws and a bench config
# accepts: at 10^7 angles each peaks at ~200 MB RSS (2 cores), linear in n.
N_LIMIT = 10 ** 7

# The most points `circmix density --grid` writes: at 10^6 points it peaks at
# ~101 MB RSS, with or without --true (2 cores), growing linearly in the points.
GRID_LIMIT = 10 ** 6


def _check_settings(l_max: int | None = None, penalty: float | None = None,
                    n: int | None = None) -> None:
    """Raise DomainError unless 0 <= l_max <= L_MAX_LIMIT, the penalty is
    finite and positive, and the sample size n is at most N_LIMIT."""
    if l_max is not None and not 0 <= l_max <= L_MAX_LIMIT:
        raise DomainError(f"l_max must be in 0..{L_MAX_LIMIT}, got {l_max}")
    if n is not None and n > N_LIMIT:
        raise DomainError(f"sample sizes must be at most {N_LIMIT}, got {n}")
    if penalty is not None and not (math.isfinite(penalty) and penalty > 0):
        raise DomainError(f"penalty must be finite and positive, got {penalty}")


def _level_sums(terms: np.ndarray) -> np.ndarray:
    """sum_{|l| <= L} t_l for L = 0..l_max, one prefix sum, from the terms
    t_0..t_l_max of a sequence with t_{-l} = t_l."""
    return terms[0] + 2.0 * np.append(0.0, np.cumsum(terms[1:]))


def default_l_max(n: int) -> int:
    """Default largest resolution level, max(10, floor(n^(1/3)))."""
    return max(10, int(math.floor(n ** (1.0 / 3.0))))


@dataclass
class EmpiricalCoeffs:
    """Empirical mixture and plug-in component coefficients for |l| <= l_max.

    ``g_hat`` and ``f_hat`` hold l = 0..l_max, indexed by l; the coefficient of
    -l is the conjugate of that of l.  ``g_hat[0]`` equals 1/(2 pi).
    """

    g_hat: np.ndarray
    f_hat: np.ndarray
    n: int
    theta_used: MixtureParams
    l_max: int
    p_cap: float  # the weight cap: |M^l| >= 1 - 2*p_cap

    def cumulative_mass(self) -> np.ndarray:
        """sum_{|l| <= L} |f_hat_l|^2 for L = 0..l_max."""
        return _level_sums(np.abs(self.f_hat) ** 2)


def empirical_coeffs(sample, theta: MixtureParams, l_max: int,
                     p_cap: float = FitOptions.p_max) -> EmpiricalCoeffs:
    """Compute g_hat_l = (1/2pi n) sum_k e^{-i l X_k} and f_hat_l = g_hat_l / M^l(theta).

    g_hat_l is conj(P_l) / (2 pi n) with P_l from the chunked kernel
    ``contrast.power_sums``, so memory stays O(l_max) beyond the sample.
    ``sample`` is an array of angles, or a ContrastMoments holding
    P_0..P_l_max, whose sums are then read instead of passing over the
    angles again.

    Raises
    ------
    DomainError
        If l_max lies outside 0..L_MAX_LIMIT or beyond the moments' sums, or
        p_cap lies outside (0, 1/2).
    DegeneracyError
        If some |M^l(theta)| falls below the floor 1 - 2*p_cap.
    """
    _check_settings(l_max=l_max)
    floor = _weight_floor(p_cap)
    if isinstance(sample, ContrastMoments):
        if len(sample.power_sums) <= l_max:
            raise DomainError(f"the moments hold P_0..P_{len(sample.power_sums) - 1}, "
                              f"not up to l_max = {l_max}")
        sums = sample.power_sums[:l_max + 1]
    else:
        sums = power_sums(sample, l_max)
    n = int(sums[0].real)
    ls = np.arange(0, l_max + 1)
    g_hat = np.conj(sums) / (TWO_PI * n)
    g_hat[0] = 1.0 / TWO_PI
    weights = mixture_weight(theta, ls)
    mods = np.abs(weights)
    bad = np.nonzero(mods < floor - 1e-12)[0]
    if len(bad):
        l_bad = int(ls[bad[0]])
        raise DegeneracyError(
            f"|M^l(theta)| = {mods[bad[0]]:.3e} below floor {floor:.3e} at l = {l_bad}",
            level=l_bad)
    f_hat = g_hat / weights
    theta_used = theta if isinstance(theta, MixtureParams) else MixtureParams(*np.asarray(theta, float))
    return EmpiricalCoeffs(g_hat, f_hat, n, theta_used, l_max, p_cap)


def select_level(coeffs: EmpiricalCoeffs, penalty: float):
    """Penalized choice of the resolution level.

    Minimizes -sum_{|l|<=L} |f_hat_l|^2 + penalty*(2L+1)/n over L = 0..l_max;
    ties go to the smallest L.  Returns (L_hat, criterion), the criterion an
    array over L = 0..l_max.
    """
    _check_settings(penalty=penalty)
    ls = np.arange(0, coeffs.l_max + 1)
    crit = -coeffs.cumulative_mass() + penalty * (2 * ls + 1) / coeffs.n
    best = int(np.argmin(crit))  # first occurrence, i.e. smallest L on ties
    return best, crit


@dataclass
class SlopeFit:
    """Slope-heuristic calibration output: lambda_hat = 2 * slope of the line
    through the couples (shapes[L], masses[L]) of L = window_start..l_max."""

    lambda_hat: float
    slope: float
    intercept: float
    shapes: np.ndarray        # (2L+1)/n for L = 0..l_max
    masses: np.ndarray        # sum_{|l|<=L} |f_hat_l|^2 for L = 0..l_max
    window_start: int         # ceil(l_max / 2)
    theoretical_floor: float  # diagnostic lower bound on the penalty constant


def penalty_floor(p_cap: float) -> float:
    """Theoretical penalty-constant lower bound (3/pi^2)(1+1/eps)(1-2P)^-2
    at eps = 1, that is (6/pi^2)(1-2P)^-2.

    Reported as a diagnostic only; the data-driven calibration is the
    operational choice.  ``p_cap`` must lie in (0, 1/2).
    """
    return 3.0 / math.pi ** 2 * 2.0 * _weight_floor(p_cap) ** -2


def slope_lambda(coeffs: EmpiricalCoeffs) -> SlopeFit:
    """Calibrate the penalty constant from the contrast-versus-dimension plot.

    Fits a least-squares line to the couples ((2L+1)/n, sum_{|l|<=L}|f_hat_l|^2)
    over the last half of the levels 0..l_max (where the plot is linear), in
    closed form on the centred couples: slope = sum dx dy / sum dx^2, intercept
    = mean(y) - slope mean(x).  Returns lambda_hat = 2 slope, twice the minimal penalty.

    This is a Mallows-type penalty aimed at near-oracle risk, not at
    recovering the true level: on signal-free (uniform) data at l_max = 10
    the level choice returns L = 0 about 69% of the time, and 80% if the
    slope were known exactly rather than fitted.

    ``coeffs.p_cap`` enters only the diagnostic ``theoretical_floor``.

    Raises
    ------
    CalibrationError
        If fewer than 8 levels are available or the tail is flat.
    """
    if coeffs.l_max < 7:
        raise CalibrationError(f"slope calibration needs >= 8 levels, got {coeffs.l_max + 1}")
    xs = (2 * np.arange(0, coeffs.l_max + 1) + 1) / coeffs.n
    ys = coeffs.cumulative_mass()
    start = math.ceil(coeffs.l_max / 2)  # l_max >= 7 leaves >= 4 levels
    x, y = xs[start:], ys[start:]
    dx = x - x.mean()
    slope = float(dx @ (y - y.mean()) / (dx @ dx))
    intercept = float(y.mean() - slope * x.mean())
    if slope <= 0:
        raise CalibrationError("contrast tail is flat; cannot calibrate the penalty")
    return SlopeFit(lambda_hat=2.0 * slope, slope=slope, intercept=intercept, shapes=xs,
                    masses=ys, window_start=start, theoretical_floor=penalty_floor(coeffs.p_cap))


def _fold(half: np.ndarray, num: int) -> np.ndarray:
    """sum_{|l| <= L} c_l e^{i l x_j} at x_j = 2 pi j / num from the half-spectrum
    c_0..c_L, c_{-l} = conj(c_l): e^{i l x_j} depends on l mod num only, so
    w_0 = c_0 and w_l = 2 c_l are summed by residue, then one inverse FFT."""
    w = 2.0 * half
    w[0] = half[0]
    k = np.arange(len(half)) % num
    a = np.bincount(k, w.real, num) + 1j * np.bincount(k, w.imag, num)
    return np.fft.ifft(a).real * num


@dataclass
class DensityEstimate:
    """Adaptive projection estimate of the component density."""

    coeffs: EmpiricalCoeffs
    level: int
    penalty: float
    slope_fit: SlopeFit | None = None

    def grid(self, num: int = 512):
        """(x, f_hat(x)) on the uniform grid x_j = 2 pi j / num over [0, 2 pi);
        DomainError if num < 1."""
        if num < 1:
            raise DomainError(f"the grid needs at least one point, got {num}")
        x = np.linspace(0.0, TWO_PI, num, endpoint=False)
        return x, _fold(self.coeffs.f_hat[:self.level + 1], num)


def estimate_density(sample, fit: FitResult, l_max: int | None = None,
                     penalty: float | None = None) -> DensityEstimate:
    """Full adaptive pipeline: plug-in coefficients, penalty calibration,
    penalized level choice.

    ``sample`` is an array of angles or its ContrastMoments, as in
    ``empirical_coeffs``; theta_hat and the weight cap p_cap (the ``p_max``
    of the box searched) come from ``fit``.  ``penalty=None`` triggers the
    slope heuristic; an explicit positive value bypasses it.  For a known
    theta, call ``empirical_coeffs``, ``slope_lambda`` and ``select_level``.
    """
    if l_max is None:
        l_max = default_l_max(sample.n if isinstance(sample, ContrastMoments)
                              else np.size(sample))
    coeffs = empirical_coeffs(sample, fit.theta_hat, l_max, p_cap=fit.options.p_max)
    slope_fit = None
    if penalty is None:
        slope_fit = slope_lambda(coeffs)
        penalty = slope_fit.lambda_hat
    level, _ = select_level(coeffs, penalty)
    return DensityEstimate(coeffs=coeffs, level=level, penalty=penalty, slope_fit=slope_fit)


def _risk_profile(coeffs: EmpiricalCoeffs, density: ComponentDensity) -> np.ndarray:
    """||f_hat_L - f||_2^2 for L = 0..l_max, by Parseval.

    Each entry is sum_{|l| <= L} |f_hat_l - f_l|^2 plus the tail
    sum_{|l| > L} |f_l|^2, the density's exact squared norm less
    sum_{|l| <= L} |f_l|^2 (floored at 0): two prefix sums and no truncated series.
    """
    f_true = density.fourier_coeffs(np.arange(0, coeffs.l_max + 1))
    head = _level_sums(np.abs(coeffs.f_hat - f_true) ** 2)
    tail = np.maximum(density.squared_norm() - _level_sums(np.abs(f_true) ** 2), 0.0)
    return head + tail


def l2_error(estimate: DensityEstimate, density: ComponentDensity) -> float:
    """Squared L2 distance (norm (1/2pi) integral phi^2) between the
    estimate and an exact density: the risk profile at the estimate's level,
    exact up to rounding whatever the density's concentration."""
    return float(_risk_profile(estimate.coeffs, density)[estimate.level])


def oracle_risk(coeffs: EmpiricalCoeffs, density: ComponentDensity) -> tuple[int, float]:
    """Best-in-hindsight level in 0..l_max and its realized squared L2 risk;
    used to benchmark the adaptive choice."""
    risks = _risk_profile(coeffs, density)
    best = int(np.argmin(risks))
    return best, float(risks[best])
