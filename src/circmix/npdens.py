"""Nonparametric estimation of the component density by Fourier projection.

Pipeline: plug-in coefficients f_hat_l = g_hat_l / M^l(theta_hat), a
projection estimator at resolution L, penalized selection of L, and
slope-heuristic calibration of the penalty constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circ import ComponentDensity, MixtureParams, Sample, TWO_PI
from .contrast import ContrastMoments, mixture_weight, power_sums
from .errors import CalibrationError, DegeneracyError, DomainError

#: Default cap on the mixing weight; |M^l| is bounded below by 1 - 2*p_cap.
DEFAULT_P_CAP = 0.49


def default_l_max(n: int) -> int:
    """Default largest resolution level, max(10, floor(n^(1/3)))."""
    return max(10, int(math.floor(n ** (1.0 / 3.0))))


@dataclass
class EmpiricalCoeffs:
    """Empirical mixture and plug-in component coefficients for |l| <= l_max.

    Arrays are indexed by l + l_max and satisfy conjugate symmetry exactly;
    ``g_hat[0]`` (index l_max) equals 1/(2 pi).
    """

    g_hat: np.ndarray
    f_hat: np.ndarray
    n: int
    theta_used: MixtureParams
    l_max: int

    def g(self, l: int) -> complex:
        return complex(self.g_hat[l + self.l_max])

    def f(self, l: int) -> complex:
        return complex(self.f_hat[l + self.l_max])

    def coeff_mass(self, L: int) -> float:
        """sum_{|l| <= L} |f_hat_l|^2."""
        sel = slice(self.l_max - L, self.l_max + L + 1)
        return float(np.sum(np.abs(self.f_hat[sel]) ** 2))


def empirical_coeffs(sample, theta: MixtureParams, l_max: int,
                     p_cap: float = DEFAULT_P_CAP) -> EmpiricalCoeffs:
    """Compute g_hat_l = (1/2pi n) sum_k e^{-i l X_k} and f_hat_l = g_hat_l / M^l(theta).

    g_hat_l is conj(P_l) / (2 pi n) with P_l from the chunked kernel
    ``contrast.power_sums``, so memory stays O(l_max) beyond the sample.
    ``sample`` may also be a ContrastMoments holding P_1..P_l_max, whose
    sums are then read instead of passing over the angles again.

    Raises
    ------
    DegeneracyError
        If some |M^l(theta)| falls below the floor 1 - 2*p_cap.
    """
    if l_max < 0:
        raise DomainError("l_max must be nonnegative")
    if isinstance(sample, ContrastMoments):
        if len(sample.power_sums) < l_max:
            raise DomainError(f"the moments hold P_1..P_{len(sample.power_sums)}, "
                              f"not up to l_max = {l_max}")
        n = sample.n
        sums = np.concatenate(([n], sample.power_sums[:l_max]))
    else:
        angles = sample.angles if isinstance(sample, Sample) else np.asarray(sample, dtype=float)
        n = len(angles)
        sums = power_sums(angles, l_max)
    ls = np.arange(0, l_max + 1)
    g_pos = np.conj(sums) / (TWO_PI * n)
    g_pos[0] = 1.0 / TWO_PI
    g_hat = np.concatenate([np.conj(g_pos[:0:-1]), g_pos])
    floor = 1.0 - 2.0 * p_cap
    m_pos = mixture_weight(theta, ls)
    mods = np.abs(m_pos)
    bad = np.nonzero(mods < floor - 1e-12)[0]
    if len(bad):
        l_bad = int(ls[bad[0]])
        raise DegeneracyError(
            f"|M^l(theta)| = {mods[bad[0]]:.3e} below floor {floor:.3e} at l = {l_bad}",
            level=l_bad)
    f_pos = g_pos / m_pos
    f_hat = np.concatenate([np.conj(f_pos[:0:-1]), f_pos])
    theta_used = theta if isinstance(theta, MixtureParams) else MixtureParams(*np.asarray(theta, float))
    return EmpiricalCoeffs(g_hat=g_hat, f_hat=f_hat, n=n, theta_used=theta_used, l_max=l_max)


def select_level(coeffs: EmpiricalCoeffs, penalty: float, levels=None):
    """Penalized choice of the resolution level.

    Minimizes -sum_{|l|<=L} |f_hat_l|^2 + penalty*(2L+1)/n over ``levels``
    (default 0..l_max); ties go to the smallest L.  Returns (L_hat, path)
    where path lists (L, criterion value).
    """
    if penalty <= 0:
        raise DomainError("penalty must be positive")
    levels = _levels(coeffs, levels)
    crit = np.array([-coeffs.coeff_mass(L) + penalty * (2 * L + 1) / coeffs.n
                     for L in levels])
    best = int(np.argmin(crit))  # first occurrence, i.e. smallest L on ties
    path = list(zip(levels.tolist(), crit.tolist()))
    return int(levels[best]), path


def _levels(coeffs, levels):
    if levels is None:
        levels = np.arange(0, coeffs.l_max + 1)
    else:
        levels = np.asarray(sorted(set(int(L) for L in levels)))
    if len(levels) == 0:
        raise DomainError("the set of resolution levels is empty")
    if levels[0] < 0 or levels[-1] > coeffs.l_max:
        raise DomainError("levels must lie within [0, l_max]")
    return levels


@dataclass
class SlopeFit:
    """Slope-heuristic calibration output: lambda_hat = 2 * slope."""

    lambda_hat: float
    slope: float
    intercept: float
    couples: list            # (L, (2L+1)/n, sum_{|l|<=L} |f_hat_l|^2)
    window: list             # levels used in the regression
    theoretical_floor: float  # diagnostic lower bound on the penalty constant


def penalty_floor(p_cap: float = DEFAULT_P_CAP, eps: float = 1.0) -> float:
    """Theoretical penalty-constant lower bound (3/pi^2)(1+1/eps)(1-2P)^-2.

    Reported as a diagnostic only; the data-driven calibration is the
    operational choice.
    """
    return 3.0 / math.pi ** 2 * (1.0 + 1.0 / eps) * (1.0 - 2.0 * p_cap) ** -2


def slope_lambda(coeffs: EmpiricalCoeffs, levels=None,
                 p_cap: float = DEFAULT_P_CAP) -> SlopeFit:
    """Calibrate the penalty constant from the contrast-versus-dimension plot.

    Fits a least-squares line to the couples ((2L+1)/n, sum_{|l|<=L}|f_hat_l|^2)
    over the last half of the level range (where the plot is linear) and
    returns lambda_hat = 2 * slope, twice the minimal penalty.

    This is a Mallows-type penalty aimed at near-oracle risk, not at
    recovering the true level: on signal-free (uniform) data at l_max = 10
    the level choice returns L = 0 about 69% of the time, and 80% if the
    slope were known exactly rather than fitted.

    ``p_cap`` enters only the diagnostic ``theoretical_floor``.

    Raises
    ------
    CalibrationError
        If fewer than 8 levels are available, fewer than 4 fall in the
        regression window, or the tail is flat.
    """
    levels = _levels(coeffs, levels)
    if len(levels) < 8:
        raise CalibrationError(f"slope calibration needs >= 8 levels, got {len(levels)}")
    l_top = int(levels[-1])
    window = [int(L) for L in levels if L >= math.ceil(l_top / 2)]
    if len(window) < 4:
        raise CalibrationError(f"regression window has {len(window)} < 4 points")
    xs = np.array([(2 * L + 1) / coeffs.n for L in levels])
    ys = np.array([coeffs.coeff_mass(L) for L in levels])
    in_window = np.isin(levels, window)
    slope, intercept = np.polyfit(xs[in_window], ys[in_window], 1)
    if slope <= 0:
        raise CalibrationError("contrast tail is flat; cannot calibrate the penalty")
    couples = list(zip(levels.tolist(), xs.tolist(), ys.tolist()))
    return SlopeFit(lambda_hat=2.0 * float(slope), slope=float(slope),
                    intercept=float(intercept), couples=couples, window=window,
                    theoretical_floor=penalty_floor(p_cap))


#: Points per block of DensityEstimate.evaluate: its working memory is a
#: block x (2L+1) complex array, whatever the number of points.
EVALUATE_CHUNK = 4096


@dataclass
class DensityEstimate:
    """Adaptive projection estimate of the component density."""

    coeffs: EmpiricalCoeffs
    level: int
    penalty: float
    contrast_path: list
    slope_fit: SlopeFit | None = None
    meta: dict = field(default_factory=dict)

    def evaluate(self, x):
        """f_hat(x) = sum_{|l| <= L_hat} f_hat_l e^{i l x}; real by conjugate symmetry."""
        x = np.asarray(x, dtype=float)
        ls = np.arange(-self.level, self.level + 1)
        sel = self.coeffs.f_hat[self.coeffs.l_max - self.level:
                                self.coeffs.l_max + self.level + 1]
        flat = x.ravel()
        out = np.empty(flat.size)
        for start in range(0, flat.size, EVALUATE_CHUNK):
            block = flat[start:start + EVALUATE_CHUNK]
            # an elementwise sum, not a BLAS product: the BLAS call starts threads
            # that keep spinning and slow whatever runs next on a small host
            terms = np.exp(1j * np.outer(block, ls)) * sel
            out[start:start + EVALUATE_CHUNK] = terms.sum(axis=-1).real
        out = out.reshape(x.shape)
        return out if out.ndim else float(out)

    def grid(self, num: int = 512):
        """(x, f_hat(x)) on a uniform grid over [0, 2*pi)."""
        x = np.linspace(0.0, TWO_PI, num, endpoint=False)
        return x, self.evaluate(x)

    def mixture_pdf(self, x):
        """Reconstructed mixture p_hat f_hat(x-alpha_hat) + (1-p_hat) f_hat(x-beta_hat)."""
        th = self.coeffs.theta_used
        x = np.asarray(x, dtype=float)
        return th.p * self.evaluate(x - th.alpha) + (1.0 - th.p) * self.evaluate(x - th.beta)

    def clipped_renormalized(self, num: int = 512):
        """Optional post-hoc nonnegative version on a grid (off the main path:
        the theory concerns the raw projection)."""
        x, y = self.grid(num)
        y = np.clip(y, 0.0, None)
        mass = np.mean(y) * TWO_PI
        if mass <= 0:
            raise DomainError("clipped estimate has no mass")
        return x, y / mass


def estimate_density(sample, fit_or_theta, l_max: int | None = None,
                     penalty: float | None = None, levels=None,
                     p_cap: float = DEFAULT_P_CAP) -> DensityEstimate:
    """Full adaptive pipeline: plug-in coefficients, penalty calibration,
    penalized level choice.

    ``penalty=None`` triggers the slope heuristic; an explicit positive
    value bypasses it.
    """
    theta = getattr(fit_or_theta, "theta_hat", fit_or_theta)
    if l_max is None:
        l_max = default_l_max(sample.n if isinstance(sample, (Sample, ContrastMoments))
                              else len(sample))
    coeffs = empirical_coeffs(sample, theta, l_max, p_cap=p_cap)
    slope_fit = None
    if penalty is None:
        slope_fit = slope_lambda(coeffs, levels, p_cap=p_cap)
        penalty = slope_fit.lambda_hat
    level, path = select_level(coeffs, penalty, levels)
    return DensityEstimate(coeffs=coeffs, level=level, penalty=penalty,
                           contrast_path=path, slope_fit=slope_fit)


#: Last level of the exact coefficient tail sums.
TAIL_CAP = 100000


def l2_error(estimate: DensityEstimate, density: ComponentDensity,
             tail_tol: float = 1e-16, tail_cap: int = TAIL_CAP) -> float:
    """Squared L2 distance (norm (1/2pi) integral phi^2) between the
    estimate and an exact density, via Parseval.

    Equals sum_{|l| <= L} |f_hat_l - f_l|^2 + sum_{|l| > L} |f_l|^2 with the
    tail truncated once terms drop below ``tail_tol``.
    """
    level = estimate.level
    total = 0.0
    for l in range(-level, level + 1):
        total += abs(estimate.coeffs.f(l) - density.fourier_coeff(l)) ** 2
    return total + _tail_mass(density, level + 1, tail_tol, tail_cap)


def _tail_mass(density: ComponentDensity, start: int, tail_tol: float,
               tail_cap: int = TAIL_CAP) -> float:
    """sum_{|l| >= start} |f_l|^2, stopped after the first term below
    ``tail_tol`` or at l = ``tail_cap``."""
    total = 0.0
    for l in range(start, tail_cap + 1):
        term = 2.0 * abs(density.fourier_coeff(l)) ** 2
        total += term
        if term < tail_tol:
            break
    return total


def oracle_risk(coeffs: EmpiricalCoeffs, density: ComponentDensity, levels=None,
                tail_tol: float = 1e-16) -> tuple[int, float]:
    """Best-in-hindsight level and its realized squared L2 risk.

    Scans ``levels`` computing ||f_hat_L - f||_2^2 with the true density's
    coefficients; used to benchmark the adaptive choice.
    """
    levels = _levels(coeffs, levels)
    top = int(levels[-1])
    f_true = np.array([density.fourier_coeff(int(l))
                       for l in range(-top, top + 1)])
    f_hat = coeffs.f_hat[coeffs.l_max - top: coeffs.l_max + top + 1]
    sq_err = np.abs(f_hat - f_true) ** 2
    # cumulative head error for each L plus the exact tail beyond L
    tail = _tail_mass(density, top + 1, tail_tol)
    best_level, best_risk = None, math.inf
    for L in levels:
        head = float(np.sum(sq_err[top - L: top + L + 1]))
        tail_l = tail + float(np.sum(
            2.0 * np.abs(f_true[top + L + 1: 2 * top + 1]) ** 2))
        risk = head + tail_l
        if risk < best_risk:
            best_level, best_risk = int(L), risk
    return best_level, best_risk
