"""Nonparametric estimation of the component density by Fourier projection.

Pipeline: plug-in coefficients f_hat_l = g_hat_l / M^l(theta_hat), a
projection estimator at resolution L, penalized selection of L, and
slope-heuristic calibration of the penalty constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circ import ComponentDensity, MixtureParams, Sample, TWO_PI
from .contrast import ContrastMoments, mixture_weight, power_sums
from .errors import CalibrationError, DegeneracyError, DomainError

#: Default cap on the mixing weight; |M^l| is bounded below by 1 - 2*p_cap.
DEFAULT_P_CAP = 0.49


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


def _check_settings(l_max: int | None = None, penalty: float | None = None) -> None:
    """Raise DomainError unless l_max >= 0 and the penalty is finite and positive."""
    if l_max is not None and l_max < 0:
        raise DomainError(f"l_max must be nonnegative, got {l_max}")
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

    def cumulative_mass(self) -> np.ndarray:
        """sum_{|l| <= L} |f_hat_l|^2 for L = 0..l_max."""
        return _level_sums(np.abs(self.f_hat[self.l_max:]) ** 2)


def empirical_coeffs(sample, theta: MixtureParams, l_max: int,
                     p_cap: float = DEFAULT_P_CAP) -> EmpiricalCoeffs:
    """Compute g_hat_l = (1/2pi n) sum_k e^{-i l X_k} and f_hat_l = g_hat_l / M^l(theta).

    g_hat_l is conj(P_l) / (2 pi n) with P_l from the chunked kernel
    ``contrast.power_sums``, so memory stays O(l_max) beyond the sample.
    ``sample`` may also be a ContrastMoments holding P_0..P_l_max, whose
    sums are then read instead of passing over the angles again.

    Raises
    ------
    DomainError
        If l_max < 0 or beyond the moments' sums, or p_cap lies outside (0, 1/2).
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
        sums = power_sums(sample.angles if isinstance(sample, Sample) else sample, l_max)
    n = int(sums[0].real)
    ls = np.arange(0, l_max + 1)
    g_pos = np.conj(sums) / (TWO_PI * n)
    g_pos[0] = 1.0 / TWO_PI
    g_hat = np.concatenate([np.conj(g_pos[:0:-1]), g_pos])
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


def select_level(coeffs: EmpiricalCoeffs, penalty: float):
    """Penalized choice of the resolution level.

    Minimizes -sum_{|l|<=L} |f_hat_l|^2 + penalty*(2L+1)/n over L = 0..l_max;
    ties go to the smallest L.  Returns (L_hat, path) where path lists
    (L, criterion value).
    """
    _check_settings(penalty=penalty)
    ls = np.arange(0, coeffs.l_max + 1)
    crit = -coeffs.cumulative_mass() + penalty * (2 * ls + 1) / coeffs.n
    best = int(np.argmin(crit))  # first occurrence, i.e. smallest L on ties
    return best, list(enumerate(crit.tolist()))


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
    operational choice.  ``p_cap`` must lie in (0, 1/2).
    """
    return 3.0 / math.pi ** 2 * (1.0 + 1.0 / eps) * _weight_floor(p_cap) ** -2


def slope_lambda(coeffs: EmpiricalCoeffs, p_cap: float = DEFAULT_P_CAP) -> SlopeFit:
    """Calibrate the penalty constant from the contrast-versus-dimension plot.

    Fits a least-squares line to the couples ((2L+1)/n, sum_{|l|<=L}|f_hat_l|^2)
    over the last half of the levels 0..l_max (where the plot is linear) and
    returns lambda_hat = 2 * slope, twice the minimal penalty.

    This is a Mallows-type penalty aimed at near-oracle risk, not at
    recovering the true level: on signal-free (uniform) data at l_max = 10
    the level choice returns L = 0 about 69% of the time, and 80% if the
    slope were known exactly rather than fitted.

    ``p_cap`` enters only the diagnostic ``theoretical_floor``.

    Raises
    ------
    CalibrationError
        If fewer than 8 levels are available or the tail is flat.
    """
    if coeffs.l_max < 7:
        raise CalibrationError(f"slope calibration needs >= 8 levels, got {coeffs.l_max + 1}")
    ls = np.arange(0, coeffs.l_max + 1)
    xs = (2 * ls + 1) / coeffs.n
    ys = coeffs.cumulative_mass()
    in_window = ls >= math.ceil(coeffs.l_max / 2)  # l_max >= 7 leaves >= 4 levels
    slope, intercept = np.polyfit(xs[in_window], ys[in_window], 1)
    if slope <= 0:
        raise CalibrationError("contrast tail is flat; cannot calibrate the penalty")
    return SlopeFit(lambda_hat=2.0 * float(slope), slope=float(slope),
                    intercept=float(intercept),
                    couples=list(zip(ls.tolist(), xs.tolist(), ys.tolist())),
                    window=ls[in_window].tolist(), theoretical_floor=penalty_floor(p_cap))


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
                     penalty: float | None = None,
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
        slope_fit = slope_lambda(coeffs, p_cap=p_cap)
        penalty = slope_fit.lambda_hat
    level, path = select_level(coeffs, penalty)
    return DensityEstimate(coeffs=coeffs, level=level, penalty=penalty,
                           contrast_path=path, slope_fit=slope_fit)


#: Last term and last level of the exact coefficient tail sums.
TAIL_TOL = 1e-16
TAIL_CAP = 100000


def _tail_mass(density: ComponentDensity, start: int) -> float:
    """sum_{|l| >= start} |f_l|^2, stopped after the first term below
    TAIL_TOL or at l = TAIL_CAP.

    The terms come from the density's array coefficients in blocks of
    doubling length, 64 levels first, and are added in level order."""
    total = 0.0
    first, size = start, 64
    while first <= TAIL_CAP:
        coeffs = density.fourier_coeffs(np.arange(first, min(first + size, TAIL_CAP + 1)))
        terms = 2.0 * (coeffs.real ** 2 + coeffs.imag ** 2)
        small = np.flatnonzero(terms < TAIL_TOL)
        if len(small):
            terms = terms[:small[0] + 1]
        # accumulate adds one term after another, as a loop over the levels does
        total = np.add.accumulate(np.append(total, terms))[-1]
        if len(small):
            break
        first, size = first + size, 2 * size
    return float(total)


def _risk_profile(coeffs: EmpiricalCoeffs, density: ComponentDensity) -> np.ndarray:
    """||f_hat_L - f||_2^2 for L = 0..l_max, via Parseval.

    Each entry is sum_{|l| <= L} |f_hat_l - f_l|^2 (a prefix sum) plus
    sum_{L < |l| <= l_max} |f_l|^2 (a suffix sum) plus the exact tail beyond
    l_max.
    """
    f_true = density.fourier_coeffs(np.arange(0, coeffs.l_max + 1))
    head = _level_sums(np.abs(coeffs.f_hat[coeffs.l_max:] - f_true) ** 2)
    beyond = 2.0 * np.append(np.cumsum(np.abs(f_true[:0:-1]) ** 2)[::-1], 0.0)
    return head + (beyond + _tail_mass(density, coeffs.l_max + 1))


def l2_error(estimate: DensityEstimate, density: ComponentDensity) -> float:
    """Squared L2 distance (norm (1/2pi) integral phi^2) between the
    estimate and an exact density."""
    return float(_risk_profile(estimate.coeffs, density)[estimate.level])


def oracle_risk(coeffs: EmpiricalCoeffs, density: ComponentDensity) -> tuple[int, float]:
    """Best-in-hindsight level in 0..l_max and its realized squared L2 risk;
    used to benchmark the adaptive choice."""
    risks = _risk_profile(coeffs, density)
    best = int(np.argmin(risks))
    return best, float(risks[best])
