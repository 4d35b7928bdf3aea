"""Minimum-contrast estimation of the mixture parameters (p, alpha, beta).

The empirical contrast is the diagonal-removed U-statistic

    S_n(theta) = 1/(n(n-1)) * sum_{l=-4..4} sum_{k != j} Z_k^l Z_j^l,
    Z_k^l(theta) = Im(e^{i l X_k} M^l(theta)) / (2 pi),
    M^l(theta)   = p e^{-i l alpha} + (1-p) e^{-i l beta}.

The sample enters only through the off-diagonal pair sums
sum_{k != j} e^{il(X_k - X_j)} = |P_l|^2 - n and
sum_{k != j} e^{il(X_k + X_j)} = P_l^2 - P_2l of the power sums
P_m = sum_k e^{i m X_k}.  With K = 8 pi^2, per level l = 1..4

    R_l = (|P_l|^2 - n) / K   (real),    T_l = (P_l^2 - P_2l) / K,
    S_n = 2/(n(n-1)) * sum_l [R_l |M^l|^2 - Re(T_l (M^l)^2)].

The power sums P_1..P_8 are computed once per sample (O(n)); S_n, its
gradient and its Hessian afterwards cost O(1) per evaluation.  The stages
take a sample as an array of angles or as its ContrastMoments.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circ import TWO_PI, MixtureParams, _theta_array, angular_distance, mixture_weight
from .errors import DomainError, EstimationError, InferenceError

L_MAX_CONTRAST = 4

#: K = 8 pi^2, the divisor of the pair sums R_l and T_l.
K_PAIR = 8.0 * math.pi ** 2

#: The (i, j) entries, i <= j, of a symmetric 3 x 3 matrix.
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

#: Reciprocal-condition floor below which the curvature matrix is treated
#: as singular.
RCOND_MIN = 1e-10

#: Estimates closer than this (radians) to a multiple of 2*pi/3 in
#: beta - alpha are flagged as near-non-identifiable.
DEGENERACY_WARN_RADIUS = 0.05


def mixture_weight_grad(theta, l: int) -> np.ndarray:
    """Gradient of M^l with respect to (p, alpha, beta), complex 3-vector."""
    p, alpha, beta = _theta_array(theta)
    ea = cmath.exp(-1j * l * alpha)
    eb = cmath.exp(-1j * l * beta)
    il = 1j * l
    return np.array([ea - eb, -il * p * ea, -il * (1.0 - p) * eb])


#: Angles per block of the power-sum recurrence: its working memory is a
#: few arrays of this length, whatever n and m_max are.
POWER_SUM_CHUNK = 16384


def power_sums(angles, m_max: int) -> np.ndarray:
    """P_m = sum_k e^{i m X_k} for m = 0..m_max, a complex array of length m_max + 1.

    Each block of POWER_SUM_CHUNK angles runs the recurrence w <- w e^{iX},
    so the cost is n (m_max + 1) complex products and no n x m_max array
    is built.  At n <= POWER_SUM_CHUNK the sums are those of one unchunked
    recurrence, bit for bit.  Other angles than a nonempty one-dimensional
    array of finite values raise DomainError.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1 or not len(angles) or not np.isfinite(angles).all():
        raise DomainError("angles must be a nonempty one-dimensional array of finite values")
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
    a larger m_max serves ``empirical_coeffs`` from the same pass.  The
    contrast reads the pair sums (R_l, T_l) of l = 1..4, and P_l and P_2l
    where R_l and T_l would cancel.
    """

    def __init__(self, angles, m_max: int = 2 * L_MAX_CONTRAST):
        self.power_sums = power_sums(angles, max(m_max, 2 * L_MAX_CONTRAST))
        self.n = n = int(self.power_sums[0].real)
        if n < 2:
            raise DomainError("the contrast needs at least two observations")
        # Python scalars: _scan's scalar arithmetic is slow on numpy scalars
        self._sums = sums = self.power_sums[:2 * L_MAX_CONTRAST + 1].tolist()
        self._pairs = [((sums[l].real ** 2 + sums[l].imag ** 2 - n) / K_PAIR,
                        (sums[l] * sums[l] - sums[2 * l]) / K_PAIR)
                       for l in range(1, L_MAX_CONTRAST + 1)]

    def _p_quadratic(self, alphas, betas):
        """(c2, c1, c0) with S_n = 2/(n(n-1)) (c2 p^2 + c1 p + c0) at every
        (alphas[i], betas[j]): c2 and c1 are len(alphas) x len(betas)
        arrays and c0, which depends on beta alone, has len(betas) entries.

        M^l = p (A_l - B_l) + B_l with A_l = e^{-il alpha}, B_l = e^{-il beta}
        is affine in p, so S_n is an exact quadratic in p for fixed angles.
        With s(t) = sum_l R_l - Re(T_l e^{-2ilt}), summed over l = 1..4:

            c0 = s(beta)
            c1 = -2 c0 - X
            c2 = s(alpha) + c0 + X

        The only alpha-beta coupling is X = sum_l Re(A_l G_l) with
        G_l = 2 (T_l B_l - R_l conj(B_l)), a real product of rank 8: the A_l
        and the conj(G_l), viewed as (re, im) pairs.  At alpha == beta S_n
        does not depend on p, so c2 and c1 are set to exactly 0 there.
        """
        r, t = (np.array(v) for v in zip(*self._pairs))
        ls = np.arange(1, L_MAX_CONTRAST + 1)
        e = np.exp(-1j * np.outer(np.concatenate([alphas, betas]), ls))
        s = (r - (t * e * e).real).sum(axis=1)
        rows = len(alphas)
        eb = e[rows:]
        g = 2.0 * (t * eb - r * np.conj(eb))
        x = e[:rows].view(float) @ np.conj(g).view(float).T
        c0 = s[rows:]
        c2 = np.add(s[:rows, None], c0)
        c2 += x
        c1 = np.subtract(-2.0 * c0, x, out=x)
        same = np.equal.outer(alphas, betas)
        c2[same] = 0.0
        c1[same] = 0.0
        return c2, c1, c0

    def profile_p(self, alphas, betas, p_min: float, p_max: float):
        """(p, S_n), two len(alphas) x len(betas) arrays, with p minimizing
        S_n over [p_min, p_max] at every (alphas[i], betas[j]).

        The quadratic's minimum on the interval is its clipped vertex when
        c2 > 0, and otherwise the end point with the lower value; the two end
        values differ by (p_max - p_min) (c2 (p_min + p_max) + c1).
        """
        c2, c1, c0 = self._p_quadratic(alphas, betas)
        # in place, in the operation order of -0.5 c1 / c2 and
        # 2 ((c2 p + c1) p + c0) / (n (n - 1)), so the results keep their bits
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.multiply(c1, -0.5)
            p /= c2
        np.clip(p, p_min, p_max, out=p)
        # the end points where there is no vertex (c2 <= 0 or NaN): few cells,
        # so they are picked by index rather than computed everywhere
        bent = np.flatnonzero(~(c2 > 0.0))
        c2_flat, c1_flat, p_flat = c2.ravel(), c1.ravel(), p.ravel()
        p_flat[bent] = np.where(c2_flat[bent] * (p_min + p_max) + c1_flat[bent] < 0.0,
                                p_max, p_min)
        value = np.multiply(c2, p, out=c2)
        value += c1
        value *= p
        value += c0
        value *= 2.0
        value /= self.n * (self.n - 1)
        return p, value

    def _scan(self, theta, hessian: bool = False):
        """S_n, its gradient and, if asked, its Hessian (else None), all
        without the factor 2/(n(n-1)), from one pass of Python-scalar
        arithmetic over l = 1..4.

        With W_l = R_l conj(M^l) - T_l M^l, each level adds Re(M W) to the
        value, 2 Re(d_i M W) to the gradient and
        2 [Re(d_ij M W) + R_l Re(d_i M conj(d_j M)) - Re(T_l d_i M d_j M)]
        to the Hessian, whose upper triangle is mirrored.

        Near the minimum Im(P_l M) is O(sqrt n) while R_l and T_l are
        O(n^2), so W is evaluated in the equal form
        (P_2l M - n conj(M) - 2i Im(P_l M) P_l) / K: the value's rounding
        then stays O(n^1.5), where R_l and T_l would leave O(n^2).
        """
        p, alpha, beta = _theta_array(theta).tolist()
        q = 1.0 - p
        n = self.n
        ea_step = cmath.exp(-1j * alpha)
        eb_step = cmath.exp(-1j * beta)
        ea = eb = 1.0 + 0.0j
        value = g_p = g_a = g_b = 0.0
        upper = [0.0] * 6
        for l, (r, t) in enumerate(self._pairs, 1):
            ea *= ea_step
            eb *= eb_step
            m = p * ea + q * eb
            pl, p2l = self._sums[l], self._sums[2 * l]
            w = (p2l * m - n * m.conjugate() - 2j * (pl * m).imag * pl) / K_PAIR
            il = 1j * l
            dm = (ea - eb, -il * p * ea, -il * q * eb)
            value += (m * w).real
            g_p += 2.0 * (dm[0] * w).real
            g_a += 2.0 * (dm[1] * w).real
            g_b += 2.0 * (dm[2] * w).real
            if hessian:
                # d_ij M in the order of _UPPER; d_pp M = d_ab M = 0
                d2m = (0.0, -il * ea, il * eb, -l * l * p * ea, 0.0, -l * l * q * eb)
                for k, (i, j) in enumerate(_UPPER):
                    upper[k] += 2.0 * ((d2m[k] * w).real + r * (dm[i] * dm[j].conjugate()).real
                                       - (t * dm[i] * dm[j]).real)
        hess = None
        if hessian:
            hpp, hpa, hpb, haa, hab, hbb = upper
            hess = [[hpp, hpa, hpb], [hpa, haa, hab], [hpb, hab, hbb]]
        return value, (g_p, g_a, g_b), hess

    def value(self, theta) -> float:
        """S_n(theta)."""
        return self._scan(theta)[0] * (2.0 / (self.n * (self.n - 1)))

    def value_grad(self, theta):
        """(S_n, gradient)."""
        value, grad, _ = self._scan(theta)
        scale = 2.0 / (self.n * (self.n - 1))
        return value * scale, np.array(grad) * scale

    def value_grad_hess(self, theta):
        """(S_n, gradient, Hessian); the Hessian is exactly symmetric."""
        value, grad, hess = self._scan(theta, hessian=True)
        scale = 2.0 / (self.n * (self.n - 1))
        return value * scale, np.array(grad) * scale, np.array(hess) * scale


def _as_moments(sample) -> ContrastMoments:
    """The moments of ``sample``, an array of angles or a ContrastMoments."""
    return sample if isinstance(sample, ContrastMoments) else ContrastMoments(sample)


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

#: Lowest grid local minima that may start a projected-Newton polish (see
#: _polish).  The lowest is always polished; each later one is polished unless
#: the screen of estimate_theta rules it out.
N_POLISH = 3

#: A start is skipped when its basin's predicted floor of n S_n lies more than
#: this above the lowest converged polish.
SCREEN_MARGIN = 0.1

#: A polish has converged when the Newton decrement lambda^2 of n S_n is at
#: most this; lambda^2 / 2 estimates the decrease of n S_n still available.
#: Polishes told to reach lambda^2 = 0 stalled, at the rounding of n S_n, at
#: lambda^2 <= 3e-17 on seeded samples of up to n = 2e5.
DECREMENT_TOL = 1e-14

#: Where H_FF is not positive definite, the Newton step uses the absolute
#: values of its eigenvalues, none below this fraction of the largest.
EIG_FLOOR = 1e-8

#: Sufficient-decrease fraction of the line search, its halvings and the
#: iterations of one polish.
ARMIJO = 1e-4
MAX_HALVINGS = 30
MAX_ITER = 200


@dataclass(frozen=True)
class FitOptions:
    """Search box of the minimization of S_n, and whether to estimate the covariance.

    Raises
    ------
    DomainError
        Unless every bound is finite, 0 < p_min <= p_max <= 1 and
        angle_min < angle_max.
    """

    p_min: float = 0.01
    p_max: float = 0.49
    angle_min: float = 0.0
    angle_max: float = math.pi - 1e-9
    compute_covariance: bool = True

    def __post_init__(self):
        bounds = (self.p_min, self.p_max, self.angle_min, self.angle_max)
        if not all(math.isfinite(b) for b in bounds):
            raise DomainError(f"fit box bounds must be finite, got {bounds}")
        if not 0.0 < self.p_min <= self.p_max <= 1.0:
            raise DomainError("fit box requires 0 < p_min <= p_max <= 1")
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

    ``n_starts`` counts the polishes run, at most N_POLISH since the screen
    skips the starts it rules out, and ``converged_starts`` those of them that
    converged: that ended where the Newton decrement of n S_n over the free
    coordinates is at most DECREMENT_TOL.  ``theta_hat`` is the lowest polish's
    end, converged or not.  ``options`` holds the box searched.

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
    options: FitOptions
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
    """Minimize S_n over the box: profiled grid scan, then projected-Newton polish.

    For each point of a GRID_SIZE x GRID_SIZE (alpha, beta) grid, p is
    profiled out in closed form (S_n is quadratic in p).  The N_POLISH
    lowest local minima of that grid, against their 8 neighbours, are the
    starts, lowest first.  The first start is always polished (see _polish).
    Once a polish has converged, a later start is skipped when the Newton
    model of n S_n there (see _newton_model), which is also its polish's
    first step, is convex and predicts a basin floor more than SCREEN_MARGIN
    above the lowest converged n S_n.  The model is not a lower bound, so the
    screen is a heuristic.  The lowest polish wins, and EstimationError is
    raised, with the first polish's reason, if no polish converged.  Label
    switching is resolved by p < 1/2; fits with beta - alpha within
    DEGENERACY_WARN_RADIUS of a multiple of 2*pi/3 are flagged.  ``sample``
    is an array of angles or its ContrastMoments.
    """
    opts = options or FitOptions()
    moments = _as_moments(sample)
    box = opts.box()
    alphas = np.linspace(box[1, 0], box[1, 1], GRID_SIZE)
    betas = np.linspace(box[2, 0], box[2, 1], GRID_SIZE)
    ps, values = moments.profile_p(alphas, betas, opts.p_min, opts.p_max)
    n = moments.n

    runs = []
    incumbent = math.inf  # the lowest n S_n of a converged polish
    for i, j in _lowest_local_minima(values, N_POLISH):
        model = _newton_model(moments, np.array([ps[i, j], alphas[i], betas[j]]), box)
        # only a converged incumbent screens: an unconverged one may sit above
        # the minimum that a skipped start would have reached
        if model.floor > incumbent + SCREEN_MARGIN:
            continue
        run = _polish(moments, model, box)
        runs.append(run)
        if run.converged:
            incumbent = min(incumbent, run.fun)
    converged = sum(r.converged for r in runs)
    if not converged:
        raise EstimationError(
            f"no polish converged (best contrast {min(r.fun for r in runs) / n!r}: "
            f"{runs[0].failure})")
    # an unconverged polish competes too: it ends no higher than its start
    best = min(runs, key=lambda r: r.fun)
    theta_hat = canonicalize(MixtureParams(*best.x))
    result = FitResult(
        theta_hat=theta_hat,
        contrast_at_min=best.fun / n,
        n_starts=len(runs),
        n=n,
        converged_starts=converged,
        near_degenerate=degeneracy_gap(theta_hat) < DEGENERACY_WARN_RADIUS,
        options=opts,
    )
    if opts.compute_covariance:
        try:
            result.sigma_hat, result.std_errors = asymptotic_cov(moments, theta_hat)
        except InferenceError as exc:
            result.inference_warning = str(exc)
    return result


@dataclass(frozen=True)
class _Model:
    """Second-order model of n S_n at ``theta``: its value and gradient, the
    Newton step ``step`` (zero on the held coordinates), the Newton decrement
    lambda^2 = g . step, and whether H_FF is positive definite."""

    theta: np.ndarray
    value: float
    grad: np.ndarray
    step: np.ndarray
    decrement: float
    convex: bool

    @property
    def floor(self) -> float:
        """The model's minimum over the free coordinates, value - lambda^2 / 2,
        or -inf unless H_FF is positive definite."""
        return self.value - 0.5 * self.decrement if self.convex else -math.inf


def _newton_model(moments: ContrastMoments, theta: np.ndarray, box: np.ndarray) -> _Model:
    """The Newton model of n S_n at ``theta``, from one value_grad_hess call.

    A coordinate is held when it sits on its lower bound with g > 0 or on its
    upper bound with g < 0; F is the set of the others.  A Cholesky
    factorization tests that H_FF is positive definite, and the step then
    solves H_FF s = g_F.  Otherwise H_FF is replaced by V |Lambda| V^T from its
    eigendecomposition, with each |eigenvalue| raised to at least EIG_FLOOR
    times the largest: the step is then still a descent direction, scaled by
    the curvature.
    """
    value, grad, hess = (moments.n * v for v in moments.value_grad_hess(theta))
    free = ~(((theta <= box[:, 0]) & (grad > 0.0)) | ((theta >= box[:, 1]) & (grad < 0.0)))
    g, h = grad[free], hess[free][:, free]
    step = np.zeros(3)
    convex = True
    try:
        np.linalg.cholesky(h)  # raises unless H_FF is positive definite
        step[free] = np.linalg.solve(h, g)
        decrement = float(g @ step[free])
    except np.linalg.LinAlgError:
        convex = False
        eig, vec = np.linalg.eigh(h)
        scale = np.abs(eig)
        scale = np.maximum(scale, EIG_FLOOR * scale.max())
        if not scale.all():  # H_FF = 0: stationary, and converged, only where g_F = 0
            return _Model(theta, value, grad, step, math.inf if g.any() else 0.0, False)
        coords = (vec.T @ g) / scale
        step[free] = vec @ coords
        decrement = float(coords @ (scale * coords))
    return _Model(theta, value, grad, step, decrement, convex)


@dataclass(frozen=True)
class _Polish:
    """End of one polish: the point ``x``, its n S_n and Newton decrement, and
    why the polish stopped unconverged (None when it converged)."""

    x: np.ndarray
    fun: float
    decrement: float
    failure: str | None = None

    @property
    def converged(self) -> bool:
        return self.failure is None


def _polish(moments: ContrastMoments, model: _Model, box: np.ndarray) -> _Polish:
    """Projected Newton (Bertsekas 1982) on n S_n from ``model``'s point.

    Each iteration stops, converged, when the Newton decrement lambda^2 of
    _newton_model is at most DECREMENT_TOL: lambda^2 / 2 estimates the
    decrease of n S_n still available, a test that does not depend on n or on
    the scale of the coordinates.  Otherwise it backtracks along the
    projection arc x(t) = clip(x - t step), t = 1, 1/2, ..., to the first
    point with n S_n(x(t)) <= n S_n(x) + ARMIJO g . (x(t) - x), and computes
    the next model there.  Trial points cost one value call, accepted points
    one value_grad_hess call.  The polish stops unconverged when MAX_HALVINGS
    halvings find no such point or MAX_ITER iterations pass.
    """
    n = moments.n
    for _ in range(MAX_ITER):
        if model.decrement <= DECREMENT_TOL:
            break
        x = model.theta
        for halving in range(MAX_HALVINGS):
            trial = np.minimum(np.maximum(x - 0.5 ** halving * model.step, box[:, 0]), box[:, 1])
            move = trial - x
            if (n * moments.value(trial) <= model.value + ARMIJO * float(model.grad @ move)
                    and move.any()):
                break
        else:
            return _Polish(x, model.value, model.decrement,
                           f"line search stalled at lambda^2 = {model.decrement:.3g}")
        model = _newton_model(moments, trial, box)
    failure = None
    if not model.decrement <= DECREMENT_TOL:
        failure = f"{MAX_ITER} iterations ended at lambda^2 = {model.decrement:.3g}"
    return _Polish(model.theta, model.value, model.decrement, failure)


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
    so it reads only the power sums P_0..P_8.  ``sample`` is an array of
    angles or its ContrastMoments.  Returns (Sigma_hat, per-coordinate
    standard errors sqrt(diag(Sigma_hat)/n)).

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
                   - m[:, None] * m[None, :] * sums[ls[:, None] + ls[None, :]]) / K_PAIR
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
