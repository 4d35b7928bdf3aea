"""Minimum-contrast estimation of the mixture parameters (p, alpha, beta).

The empirical contrast is the diagonal-removed U-statistic

    S_n(theta) = 1/(n(n-1)) * sum_{l=-4..4} sum_{k != j} Z_k^l Z_j^l,
    Z_k^l(theta) = Im(e^{i l X_k} M^l(theta)) / (2 pi),
    M^l(theta)   = p e^{-i l alpha} + (1-p) e^{-i l beta}.

Expanding the off-diagonal double sum as (sum_k Z)^2 - sum_k Z^2 and using
that Z, its gradient and Hessian are all linear in e^{i l X_k}, every
quantity needed by the optimizer reduces to the power sums
P_m = sum_k e^{i m X_k} for m <= 8.  Those are computed once per sample
(O(n)); each contrast evaluation afterwards costs O(1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, minimize

from .circ import MixtureParams, Sample, angular_distance
from .errors import DomainError, EstimationError, InferenceError

TWO_PI = 2.0 * math.pi
FOUR_PI2 = 4.0 * math.pi ** 2
L_MAX_CONTRAST = 4

#: Reciprocal-condition floor below which the curvature matrix is treated
#: as singular.
RCOND_MIN = 1e-10

#: Estimates closer than this (radians) to a multiple of 2*pi/3 in
#: beta - alpha are flagged as near-non-identifiable.
DEGENERACY_WARN_RADIUS = 0.05


def _theta_array(theta) -> np.ndarray:
    if isinstance(theta, MixtureParams):
        return theta.as_array()
    arr = np.asarray(theta, dtype=float)
    if arr.shape != (3,):
        raise DomainError("theta must have three components (p, alpha, beta)")
    return arr


def mixture_weight(theta, l):
    """M^l(theta) = p e^{-i l alpha} + (1-p) e^{-i l beta}, elementwise over an array of levels."""
    p, alpha, beta = _theta_array(theta)
    l = np.asarray(l)
    return p * np.exp(-1j * l * alpha) + (1.0 - p) * np.exp(-1j * l * beta)


def _weight_grad(p, ea, eb, l: int):
    """dM^l/d(p, alpha, beta) as three complex scalars, from e_a = e^{-i l alpha}
    and e_b = e^{-i l beta}."""
    il = 1j * l
    return ea - eb, -il * p * ea, -il * (1.0 - p) * eb


def mixture_weight_grad(theta, l: int) -> np.ndarray:
    """Gradient of M^l with respect to (p, alpha, beta), complex 3-vector."""
    p, alpha, beta = _theta_array(theta)
    return np.array(_weight_grad(p, cmath.exp(-1j * l * alpha), cmath.exp(-1j * l * beta), l))


def mixture_weight_hess(theta, l: int) -> np.ndarray:
    """Hessian of M^l with respect to (p, alpha, beta), complex 3x3."""
    p, alpha, beta = _theta_array(theta)
    ea = cmath.exp(-1j * l * alpha)
    eb = cmath.exp(-1j * l * beta)
    il = 1j * l
    l2 = float(l * l)
    return np.array([
        [0.0, -il * ea, il * eb],
        [-il * ea, -l2 * p * ea, 0.0],
        [il * eb, 0.0, -l2 * (1.0 - p) * eb],
    ])


#: Angles per block of the power-sum recurrence: its working memory is a
#: few arrays of this length, whatever n and m_max are.
POWER_SUM_CHUNK = 16384


def power_sums(angles, m_max: int) -> np.ndarray:
    """P_m = sum_k e^{i m X_k} for m = 0..m_max, a complex array of length m_max + 1.

    Each block of POWER_SUM_CHUNK angles runs the recurrence w <- w e^{iX},
    so the cost is n (m_max + 1) complex products and no n x m_max array
    is built.  At n <= POWER_SUM_CHUNK the sums are those of one unchunked
    recurrence, bit for bit.
    """
    angles = np.asarray(angles, dtype=float)
    sums = np.zeros(m_max + 1, dtype=complex)
    sums[0] = len(angles)
    for start in range(0, len(angles), POWER_SUM_CHUNK):
        base = np.exp(1j * angles[start:start + POWER_SUM_CHUNK])
        power = base.copy()
        for m in range(1, m_max + 1):
            sums[m] += power.sum()
            power = power * base  # in place rounds differently at some lengths
    return sums


class ContrastMoments:
    """Power sums of a sample, from which S_n and its derivatives follow in O(1).

    ``power_sums[m]`` holds P_m = sum_k e^{i m X_k} for m = 0..max(m_max, 8);
    a larger m_max serves ``empirical_coeffs`` from the same pass.
    """

    def __init__(self, angles, m_max: int = 2 * L_MAX_CONTRAST):
        angles = np.asarray(angles, dtype=float)
        if angles.ndim != 1:
            raise DomainError("angles must be one-dimensional")
        if len(angles) < 2:
            raise DomainError("the contrast needs at least two observations")
        self.n = len(angles)
        self.power_sums = power_sums(angles, max(m_max, 2 * L_MAX_CONTRAST))
        # P_0..P_8 as Python complex: _scan's scalar arithmetic is slow on numpy scalars
        self._sums = self.power_sums[:2 * L_MAX_CONTRAST + 1].tolist()

    def _p_quadratic(self, alpha, beta):
        """(c2, c1, c0) with S_n = 2/(n(n-1)) (c2 p^2 + c1 p + c0) at (alpha, beta).

        M^l = p (e_a - e_b) + e_b is affine in p, so S_n is an exact
        quadratic in p for fixed angles; broadcasts over arrays of angles.
        """
        n = self.n
        c2 = c1 = c0 = 0.0
        for l in range(1, L_MAX_CONTRAST + 1):
            pl, p2l = self.power_sums[l], self.power_sums[2 * l]
            eb = np.exp(-1j * l * beta)
            d = np.exp(-1j * l * alpha) - eb
            u = (d * pl).imag / TWO_PI
            v = (eb * pl).imag / TWO_PI
            c2 = c2 + u * u - (n * (d * d.conjugate()).real - (d * d * p2l).real) / (2.0 * FOUR_PI2)
            c1 = c1 + 2.0 * (u * v - (n * (d * eb.conjugate()).real
                                      - (d * eb * p2l).real) / (2.0 * FOUR_PI2))
            c0 = c0 + v * v - (n - (eb * eb * p2l).real) / (2.0 * FOUR_PI2)
        return c2, c1, c0

    def profile_p(self, alpha, beta, p_min: float, p_max: float):
        """(p, S_n) with p minimizing S_n over [p_min, p_max] at fixed angles.

        The quadratic's minimum on the interval is its clipped vertex when
        c2 > 0, and otherwise the end point with the lower value; the two
        end values differ by (p_max - p_min) (c2 (p_min + p_max) + c1).
        """
        c2, c1, c0 = self._p_quadratic(alpha, beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.clip(-0.5 * c1 / c2, p_min, p_max)
        end = np.where(c2 * (p_min + p_max) + c1 < 0.0, p_max, p_min)
        p = np.where(c2 > 0.0, vertex, end)
        return p, 2.0 * ((c2 * p + c1) * p + c0) / (self.n * (self.n - 1))

    def value(self, theta) -> float:
        """S_n(theta)."""
        p, alpha, beta = _theta_array(theta)
        c2, c1, c0 = self._p_quadratic(alpha, beta)
        return float(2.0 * ((c2 * p + c1) * p + c0) / (self.n * (self.n - 1)))

    def _scan(self, theta):
        """One pass of Python-scalar arithmetic over l = 1..4.

        Returns S_n and its gradient without the factor 2/(n(n-1)), and per
        level the terms the Hessian reuses: (l, sum_k Z_k, T, dM^l, sum_k dZ_k).
        """
        p, alpha, beta = _theta_array(theta).tolist()
        n = self.n
        ea_step = cmath.exp(-1j * alpha)
        eb_step = cmath.exp(-1j * beta)
        ea = eb = 1.0 + 0.0j
        value = g_p = g_a = g_b = 0.0
        levels = []
        for l in range(1, L_MAX_CONTRAST + 1):
            ea *= ea_step
            eb *= eb_step
            pl, p2l = self._sums[l], self._sums[2 * l]
            m = p * ea + (1.0 - p) * eb
            dm = dm_p, dm_a, dm_b = _weight_grad(p, ea, eb, l)
            a = (m * pl).imag / TWO_PI
            value += a * a - (n * abs(m) ** 2 - (m * m * p2l).real) / (2.0 * FOUR_PI2)
            # T = sum_k e^{ilX_k} Z_k^l = (M P_2l - n conj(M)) / (4 pi i)
            t = (m * p2l - n * m.conjugate()) / (4j * math.pi)
            # sum_k dZ_k, and the gradient terms 2 (sum_k dZ_k a - sum_k dZ_k Z_k)
            d = d_p, d_a, d_b = ((dm_p * pl).imag / TWO_PI, (dm_a * pl).imag / TWO_PI,
                                 (dm_b * pl).imag / TWO_PI)
            g_p += 2.0 * (d_p * a - (dm_p * t).imag / TWO_PI)
            g_a += 2.0 * (d_a * a - (dm_a * t).imag / TWO_PI)
            g_b += 2.0 * (d_b * a - (dm_b * t).imag / TWO_PI)
            levels.append((l, a, t, dm, d))
        return value, (g_p, g_a, g_b), levels

    def value_grad(self, theta):
        """(S_n, gradient)."""
        value, grad, _ = self._scan(theta)
        scale = 2.0 / (self.n * (self.n - 1))
        return value * scale, np.array(grad) * scale

    def value_grad_hess(self, theta):
        """(S_n, gradient, Hessian); the Hessian is exactly symmetric."""
        theta_arr = _theta_array(theta)
        value, grad, levels = self._scan(theta_arr)
        n = self.n
        hess = np.zeros((3, 3))
        for l, a, t, dm, d in levels:
            pl, p2l = self._sums[l], self._sums[2 * l]
            d2m = mixture_weight_hess(theta_arr, l)
            dm = np.array(dm)
            h_sum = np.imag(d2m * pl) / TWO_PI     # sum_k d2Z_k
            h_cross = np.imag(d2m * t) / TWO_PI    # sum_k d2Z_k Z_k
            gg_cross = (n * np.real(np.outer(dm, dm.conjugate()))
                        - np.real(np.outer(dm, dm) * p2l)) / (2.0 * FOUR_PI2)  # sum_k dZ_k dZ_k^T
            hess += h_sum * a - h_cross + np.outer(d, d) - gg_cross
        scale = 2.0 / (n * (n - 1))
        # numpy's complex products may fuse multiply-adds, so the two halves
        # can differ in the last bit
        return value * scale, np.array(grad) * scale, (hess + hess.T) * scale


def contrast(sample, theta):
    """Evaluate S_n with gradient and Hessian at theta.

    Returns (value, gradient, hessian); the Hessian is exactly symmetric.
    """
    moments = _as_moments(sample)
    return moments.value_grad_hess(theta)


def contrast_value(sample, theta) -> float:
    """S_n(theta) alone."""
    return _as_moments(sample).value(theta)


def _as_moments(sample) -> ContrastMoments:
    if isinstance(sample, ContrastMoments):
        return sample
    return ContrastMoments(sample.angles if isinstance(sample, Sample) else sample)


def population_contrast(theta, theta0, f_coeffs) -> float:
    """Population contrast S(theta) = sum_l Im(g_l conj(M^l(theta)))^2.

    ``f_coeffs`` are the component coefficients f_1..f_4 (real, nonzero);
    the mixture coefficients are g_l = M^l(theta0) f_l.  By conjugate
    antisymmetry the sum over l = -4..4 equals twice the sum over l = 1..4.
    """
    f_coeffs = np.asarray(f_coeffs, dtype=float)
    if f_coeffs.shape != (4,):
        raise DomainError("f_coeffs must hold the four coefficients f_1..f_4")
    total = 0.0
    for l in range(1, L_MAX_CONTRAST + 1):
        g = mixture_weight(theta0, l) * f_coeffs[l - 1]
        total += (g * mixture_weight(theta, l).conjugate()).imag ** 2
    return 2.0 * total


#: Points per angle axis of the profiled-contrast grid scan.
GRID_SIZE = 96

#: Lowest grid local minima polished by L-BFGS-B.
N_POLISH = 3


@dataclass(frozen=True)
class FitOptions:
    """Search box of the minimization of S_n, and whether to estimate the covariance."""

    p_min: float = 0.01
    p_max: float = 0.49
    angle_min: float = 0.0
    angle_max: float = math.pi - 1e-9
    compute_covariance: bool = True

    def __post_init__(self):
        if not 0.0 < self.p_min <= self.p_max:
            raise DomainError("fit box requires 0 < p_min <= p_max")
        if not self.angle_min < self.angle_max:
            raise DomainError("fit box requires angle_min < angle_max")

    def box(self) -> np.ndarray:
        return np.array([
            [self.p_min, self.p_max],
            [self.angle_min, self.angle_max],
            [self.angle_min, self.angle_max],
        ])


@dataclass
class FitResult:
    """Outcome of estimate_theta.

    ``n_starts`` counts the grid minima polished and ``converged_starts``
    those whose polish converged.

    ``sigma_hat`` is the asymptotic covariance of sqrt(n) (theta_hat - theta0)
    and ``std_errors`` the standard errors of theta_hat; both are None when
    inference failed.
    """

    theta_hat: MixtureParams
    contrast_at_min: float
    n_starts: int
    n: int
    converged_starts: int
    near_degenerate: bool
    sigma_hat: np.ndarray | None = None
    std_errors: np.ndarray | None = None
    inference_warning: str | None = None

    def to_kv_record(self) -> str:
        lines = [
            f"n = {self.n}",
            f"p_hat = {self.theta_hat.p:.12g}",
            f"alpha_hat = {self.theta_hat.alpha:.12g}",
            f"beta_hat = {self.theta_hat.beta:.12g}",
            f"contrast_at_min = {self.contrast_at_min:.12g}",
            f"n_starts = {self.n_starts}",
            f"converged_starts = {self.converged_starts}",
            f"near_degenerate = {int(self.near_degenerate)}",
        ]
        if self.std_errors is not None:
            lines += [
                f"se_p = {self.std_errors[0]:.12g}",
                f"se_alpha = {self.std_errors[1]:.12g}",
                f"se_beta = {self.std_errors[2]:.12g}",
            ]
        if self.inference_warning:
            lines.append(f"inference_warning = {self.inference_warning}")
        return "\n".join(lines)

    CSV_HEADER = "n,p_hat,alpha_hat,beta_hat,contrast_at_min,converged_starts,near_degenerate,se_p,se_alpha,se_beta"

    def to_csv_row(self) -> str:
        se = ["", "", ""]
        if self.std_errors is not None:
            se = [f"{v:.5e}" for v in self.std_errors]
        fields = [
            str(self.n),
            f"{self.theta_hat.p:.5e}",
            f"{self.theta_hat.alpha:.5e}",
            f"{self.theta_hat.beta:.5e}",
            f"{self.contrast_at_min:.5e}",
            str(self.converged_starts),
            str(int(self.near_degenerate)),
            *se,
        ]
        return ",".join(fields)


def canonicalize(theta: MixtureParams) -> MixtureParams:
    """Resolve label switching by enforcing p < 1/2."""
    if theta.p > 0.5:
        return theta.switched()
    return theta


def degeneracy_gap(theta) -> float:
    """Distance of beta - alpha to the nearest multiple of 2*pi/3."""
    _, alpha, beta = _theta_array(theta)
    return angular_distance(beta, alpha, TWO_PI / 3.0)


def estimate_theta(sample, options: FitOptions | None = None) -> FitResult:
    """Minimize S_n over the box: profiled grid scan, then L-BFGS-B polish.

    For each point of a GRID_SIZE x GRID_SIZE (alpha, beta) grid, p is
    profiled out in closed form (S_n is quadratic in p).  The N_POLISH
    lowest local minima of that grid, against their 8 neighbours, start one
    L-BFGS-B run each; the lowest result wins, and EstimationError is raised
    if no run converged.  Label switching is resolved by p < 1/2; fits with
    beta - alpha within DEGENERACY_WARN_RADIUS of a multiple of 2*pi/3 are
    flagged.
    """
    opts = options or FitOptions()
    moments = _as_moments(sample)
    box = opts.box()
    alphas = np.linspace(box[1, 0], box[1, 1], GRID_SIZE)
    betas = np.linspace(box[2, 0], box[2, 1], GRID_SIZE)
    ps, values = moments.profile_p(alphas[:, None], betas[None, :], opts.p_min, opts.p_max)
    bounds = Bounds(box[:, 0], box[:, 1])
    n = moments.n

    def n_contrast(theta):
        # S_n is O(1/n) near its minimum while the L-BFGS-B stopping tests
        # are absolute below |f| = 1, so the polish works on n S_n
        value, grad = moments.value_grad(theta)
        return n * value, n * grad

    runs = []
    for i, j in _lowest_local_minima(values, N_POLISH):
        runs.append(minimize(n_contrast, [ps[i, j], alphas[i], betas[j]], jac=True,
                             method="L-BFGS-B", bounds=bounds,
                             options={"ftol": 1e-13, "gtol": 1e-9, "maxiter": 500}))
    converged = sum(bool(r.success) for r in runs)
    if not converged:
        raise EstimationError(
            f"no polish converged (best contrast {min(r.fun for r in runs) / n!r}: "
            f"{runs[0].message})")
    # a line search that stalls at the precision floor ends "abnormally" at a
    # minimum, so every finite polish competes; each is no higher than its start
    best = min((r for r in runs if np.isfinite(r.fun)), key=lambda r: r.fun)
    theta_hat = canonicalize(MixtureParams(*best.x))
    result = FitResult(
        theta_hat=theta_hat,
        contrast_at_min=float(best.fun) / n,
        n_starts=len(runs),
        n=n,
        converged_starts=converged,
        near_degenerate=degeneracy_gap(theta_hat) < DEGENERACY_WARN_RADIUS,
    )
    if opts.compute_covariance:
        try:
            result.sigma_hat, result.std_errors = asymptotic_cov(moments, theta_hat)
        except InferenceError as exc:
            result.inference_warning = str(exc)
    return result


def _lowest_local_minima(values: np.ndarray, count: int) -> list:
    """Indices of the ``count`` lowest cells no higher than any of their 8
    neighbours, lowest first; ties keep row-major order."""
    rows, cols = values.shape
    padded = np.pad(values, 1, constant_values=np.inf)
    is_min = np.ones(values.shape, dtype=bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            if (di, dj) != (1, 1):
                is_min &= values <= padded[di:di + rows, dj:dj + cols]
    cells = np.flatnonzero(is_min)
    cells = cells[np.argsort(values.ravel()[cells], kind="stable")[:count]]
    return [divmod(int(c), cols) for c in cells]


def asymptotic_cov(sample, theta) -> tuple[np.ndarray, np.ndarray]:
    """Sandwich estimate of the asymptotic covariance of sqrt(n)(theta_hat - theta0).

    A_hat is the Hessian of S_n at theta_hat; V_hat is the triple sum
    (4/n^3) sum_{k,j,j'} sum_{l,l'} Z_k^l Z_k^l' dZ_j^l (dZ_j'^l')^T over
    |l|, |l'| <= 4.  As Z^{-l} = -Z^l it equals (16/n^3) D^T G D over
    l, l' = 1..4, with D^l = sum_j dZ_j^l = Im(dM^l P_l) / 2pi and the Gram
    matrix G_ll' = sum_k Z_k^l Z_k^l'
    = Re(M^l conj(M^l') P_{l-l'} - M^l M^l' P_{l+l'}) / (8 pi^2),
    so it reads only the power sums P_0..P_8.  Returns (Sigma_hat,
    per-coordinate standard errors sqrt(diag(Sigma_hat)/n)).

    Raises
    ------
    InferenceError
        If A_hat has reciprocal condition number below RCOND_MIN.
    """
    moments = _as_moments(sample)
    theta_arr = _theta_array(theta)
    n = moments.n
    _, _, a_hat = moments.value_grad_hess(theta_arr)
    svals = np.linalg.svd(a_hat, compute_uv=False)
    rcond = svals[-1] / svals[0] if svals[0] > 0 else 0.0
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise InferenceError(
            f"curvature matrix is numerically singular (rcond {rcond:.2e} < {RCOND_MIN:.0e})")
    ls = np.arange(1, L_MAX_CONTRAST + 1)
    sums = moments.power_sums
    m = mixture_weight(theta_arr, ls)
    dm = np.array([mixture_weight_grad(theta_arr, l) for l in ls])
    d = np.imag(dm * sums[ls, None]) / TWO_PI
    lag = ls[:, None] - ls[None, :]
    p_lag = np.where(lag >= 0, sums[np.abs(lag)], np.conj(sums[np.abs(lag)]))
    gram = np.real(m[:, None] * np.conj(m)[None, :] * p_lag
                   - m[:, None] * m[None, :] * sums[ls[:, None] + ls[None, :]]) / (2.0 * FOUR_PI2)
    v_hat = 16.0 * (d.T @ gram @ d) / n ** 3
    v_hat = 0.5 * (v_hat + v_hat.T)
    a_inv = np.linalg.inv(a_hat)
    sigma = a_inv @ v_hat @ a_inv
    sigma = 0.5 * (sigma + sigma.T)
    diag = np.clip(np.diag(sigma), 0.0, None)
    return sigma, np.sqrt(diag / n)


def squared_error(theta_hat: MixtureParams, theta0: MixtureParams) -> np.ndarray:
    """Per-coordinate squared errors, angles measured modulo pi.

    The estimation domain identifies alpha and beta modulo pi, so angular
    errors take the shortest representative; otherwise estimates near the
    0/pi boundary would be spuriously penalized.
    """
    dp = theta_hat.p - theta0.p
    da = angular_distance(theta_hat.alpha, theta0.alpha, math.pi)
    db = angular_distance(theta_hat.beta, theta0.beta, math.pi)
    return np.array([dp * dp, da * da, db * db])
