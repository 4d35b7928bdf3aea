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
from typing import NamedTuple

import numpy as np

from .circ import TWO_PI, MixtureParams, _theta_array, angular_distance, mixture_weight
from .errors import DomainError, EstimationError, InferenceError

L_MAX_CONTRAST = 4

#: K = 8 pi^2, the divisor of the pair sums R_l and T_l.
K_PAIR = 8.0 * math.pi ** 2

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


#: Angles per block of the power sums: their working memory is a few arrays
#: of this length, whatever n is.
POWER_SUM_CHUNK = 16384

# 2 pi / B = (_TWO_PI_HI + _TWO_PI_LO) / B, where _TWO_PI_HI has 24 bits, so
# that j _TWO_PI_HI / B is exact for every bin j (Cody & Waite)
_TWO_PI_HI = float(np.float32(TWO_PI))
_TWO_PI_LO = (TWO_PI - _TWO_PI_HI) + 2.4492935982947064e-16  # 2 pi - TWO_PI


def _binned_plan(n: int, m_max: int):
    """(B, R) of the cheapest binned power sums, or None where the recurrence
    runs: at m_max <= 8, where it costs less, or where the bin sums and their
    transforms, 2 (R+1) B floats, would outgrow its chunk buffers and output,
    6 min(n, chunk) + 2 (m_max+1) floats."""
    if m_max <= 2 * L_MAX_CONTRAST:
        return None
    chunks = -(-n // POWER_SUM_CHUNK)
    best, plan = n * (33 + 1.1 * m_max) + 1400 * chunks * m_max, None
    bins = 1 << (2 * m_max - 1).bit_length()
    while True:
        x = m_max * math.pi / bins
        order, term = 0, x
        while term > 2.0 ** -53:
            order += 1
            term *= x / (order + 1)
        if (order + 1) * bins > 3 * min(n, POWER_SUM_CHUNK) + m_max + 1:
            return plan
        cost = (order + 1) * (1.9 * n + (1.5 * chunks + 0.4 * math.log2(bins)) * bins
                              + 3500 * chunks)
        if cost < best:
            best, plan = cost, (bins, order)
        bins *= 2


def power_sums(angles, m_max: int) -> np.ndarray:
    """P_m = sum_k e^{i m X_k} for m = 0..m_max, a complex array of length m_max + 1.

    Two methods, each over blocks of POWER_SUM_CHUNK angles, so that no
    n x m_max array is built.  The recurrence w <- w e^{iX} costs
    n (m_max + 1) complex products; at n <= POWER_SUM_CHUNK its sums are
    those of one unchunked recurrence, bit for bit.  The binned Taylor sums
    (Dutt & Rokhlin 1993; Anderson & Dahleh 1996) round each angle to the
    nearest of B bin centres 2 pi j / B, with offset |d| <= pi / B, sum
    mu_r[j] = sum d^r over bin j for r = 0..R, and read

        P_m = sum_r (i m)^r / r! * conj(FFT_B(mu_r))[m],

    at a cost of O(n R + R B log B).  B is a power of two with B/2 >= m_max,
    and R the least order with (m_max pi / B)^(R+1) / (R+1)! <= 2^-53: the
    truncation error of every P_m is at most n times that, and rounding adds
    about an ulp of n per FFT stage and Horner step.  The offsets are taken
    against 2 pi in two parts, and angles beyond +-2 pi are first reduced
    through e^{iX}, so that huge finite angles keep the bin index in range.

    Rule (``_binned_plan``; a cost model in ns fitted to timings at n = 1e3,
    1e4 and 2e5 on 2 cores, c = ceil(n / POWER_SUM_CHUNK)): the binned method
    runs iff m_max > 8 and some B with (R+1) B <= 3 min(n, POWER_SUM_CHUNK)
    + m_max + 1 has (R+1) (1.9 n + (1.5 c + 0.4 log2 B) B + 3500 c) below
    the recurrence's n (33 + 1.1 m_max) + 1400 c m_max; the cheapest B runs.

    Other angles than a nonempty one-dimensional array of finite values
    raise DomainError.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1 or not len(angles) or not np.isfinite(angles).all():
        raise DomainError("angles must be a nonempty one-dimensional array of finite values")
    n = len(angles)
    plan = _binned_plan(n, m_max)
    if plan is None:
        sums = np.zeros(m_max + 1, dtype=complex)
        sums[0] = n
        for start in range(0, n, POWER_SUM_CHUNK):
            base = np.exp(1j * angles[start:start + POWER_SUM_CHUNK])
            power = base.copy()
            for m in range(1, m_max + 1):
                sums[m] += power.sum()
                power = power * base  # in place rounds differently at some lengths
        return sums
    bins, order = plan
    mu = np.zeros((order + 1, bins))
    for start in range(0, n, POWER_SUM_CHUNK):
        x = angles[start:start + POWER_SUM_CHUNK]
        if x.min() < -TWO_PI or x.max() > TWO_PI:
            x = np.where(abs(x) > TWO_PI, np.angle(np.exp(1j * x)), x)
        j = np.rint(x * (bins / TWO_PI))
        offset = x - j * (_TWO_PI_HI / bins)
        offset -= j * (_TWO_PI_LO / bins)
        j = j.astype(np.intp) & (bins - 1)
        mu[0] += np.bincount(j, minlength=bins)
        for r in range(1, order + 1):
            power = offset if r == 1 else power * offset
            mu[r] += np.bincount(j, power, minlength=bins)
    # np.fft is looked up here, not imported: numpy loads it lazily
    terms = np.fft.rfft(mu)[:, :m_max + 1]
    step = -1j * np.arange(m_max + 1)
    acc = terms[order]
    for r in range(order - 1, -1, -1):  # Horner in r
        acc = terms[r] + step / (r + 1) * acc
    return np.conj(acc)


class ContrastMoments:
    """Power sums of a sample, from which S_n and its derivatives follow in O(1).

    ``power_sums[m]`` holds P_m = sum_k e^{i m X_k} for m = 0..max(m_max, 8);
    a larger m_max serves ``empirical_coeffs`` from the same pass, and its
    P_1..P_8 may then come from the binned method and differ from those of
    the default m_max at rounding level.  The contrast reads the pair sums
    (R_l, T_l) of l = 1..4, and P_l and P_2l where R_l and T_l would cancel.
    """

    def __init__(self, angles, m_max: int = 2 * L_MAX_CONTRAST):
        self.power_sums = power_sums(angles, max(m_max, 2 * L_MAX_CONTRAST))
        self.n = n = int(self.power_sums[0].real)
        if n < 2:
            raise DomainError("the contrast needs at least two observations")
        # Python scalars: _scan's scalar arithmetic is slow on numpy scalars
        sums = self.power_sums[:2 * L_MAX_CONTRAST + 1].tolist()
        self._pairs = [((sums[l].real ** 2 + sums[l].imag ** 2 - n) / K_PAIR,
                        (sums[l] * sums[l] - sums[2 * l]) / K_PAIR)
                       for l in range(1, L_MAX_CONTRAST + 1)]
        # what _scan reads per level: l, R_l, T_l, P_l and P_2l
        self._levels = [(l, r, t, sums[l], sums[2 * l])
                        for l, (r, t) in enumerate(self._pairs, 1)]

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

    def _scan(self, p, alpha, beta, hessian: bool = False):
        """S_n, its gradient and its curvature at (p, alpha, beta), all
        without the factor 2/(n(n-1)), from one pass of Python-scalar
        arithmetic over l = 1..4: (value, (g_p, g_a, g_b), curvature).

        The curvature is (H_pp,) alone, or with ``hessian`` the upper triangle
        (H_pp, H_pa, H_pb, H_aa, H_ab, H_bb).  S_n is an exact quadratic in
        p, so the value, g_p and H_pp give S_n at every p of the same angles.

        With W_l = R_l conj(M^l) - T_l M^l, each level adds Re(M W) to the
        value, 2 Re(d_i M W) to the gradient and
        2 [Re(d_ij M W) + R_l Re(d_i M conj(d_j M)) - Re(T_l d_i M d_j M)]
        to the Hessian, where d_pp M = d_ab M = 0.

        Near the minimum Im(P_l M) is O(sqrt n) while R_l and T_l are
        O(n^2), so W is evaluated in the equal form
        (P_2l M - n conj(M) - 2i Im(P_l M) P_l) / K: the value's rounding
        then stays O(n^1.5), where R_l and T_l would leave O(n^2).
        """
        q = 1.0 - p
        n = self.n
        ea_step = cmath.exp(-1j * alpha)
        eb_step = cmath.exp(-1j * beta)
        ea = eb = 1.0 + 0.0j
        value = g_p = g_a = g_b = 0.0
        h_pp = h_pa = h_pb = h_aa = h_ab = h_bb = 0.0
        for l, r, t, pl, p2l in self._levels:
            ea *= ea_step
            eb *= eb_step
            m = p * ea + q * eb
            w = (p2l * m - n * m.conjugate() - 2j * (pl * m).imag * pl) / K_PAIR
            il = 1j * l
            d_p, d_a, d_b = ea - eb, -il * p * ea, -il * q * eb
            value += (m * w).real
            g_p += 2.0 * (d_p * w).real
            g_a += 2.0 * (d_a * w).real
            g_b += 2.0 * (d_b * w).real
            td_p = t * d_p
            h_pp += 2.0 * (r * (d_p * d_p.conjugate()).real - (td_p * d_p).real)
            if hessian:
                td_a = t * d_a
                h_pa += 2.0 * ((-il * ea * w).real + r * (d_p * d_a.conjugate()).real
                               - (td_p * d_a).real)
                h_pb += 2.0 * ((il * eb * w).real + r * (d_p * d_b.conjugate()).real
                               - (td_p * d_b).real)
                h_aa += 2.0 * ((-l * l * p * ea * w).real + r * (d_a * d_a.conjugate()).real
                               - (td_a * d_a).real)
                h_ab += 2.0 * (r * (d_a * d_b.conjugate()).real - (td_a * d_b).real)
                h_bb += 2.0 * ((-l * l * q * eb * w).real + r * (d_b * d_b.conjugate()).real
                               - (t * d_b * d_b).real)
        if hessian:
            return value, (g_p, g_a, g_b), (h_pp, h_pa, h_pb, h_aa, h_ab, h_bb)
        return value, (g_p, g_a, g_b), (h_pp,)

    def value(self, theta) -> float:
        """S_n(theta)."""
        return self._scan(*_theta_array(theta).tolist())[0] * (2.0 / (self.n * (self.n - 1)))

    def value_grad(self, theta):
        """(S_n, gradient)."""
        value, grad, _ = self._scan(*_theta_array(theta).tolist())
        scale = 2.0 / (self.n * (self.n - 1))
        return value * scale, np.array(grad) * scale

    def value_grad_hess(self, theta):
        """(S_n, gradient, Hessian); the Hessian is exactly symmetric."""
        value, grad, upper = self._scan(*_theta_array(theta).tolist(), hessian=True)
        hpp, hpa, hpb, haa, hab, hbb = upper
        hess = [[hpp, hpa, hpb], [hpa, haa, hab], [hpb, hab, hbb]]
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

#: A start is skipped when its basin's predicted floor of n Phi lies more than
#: this above the lowest converged polish.
SCREEN_MARGIN = 0.1

#: A polish has converged when the Newton decrement lambda^2 of n Phi, n S_n
#: with p profiled out, is at most this; lambda^2 / 2 estimates the decrease
#: of n S_n still available.
#: Polishes told to reach lambda^2 = 0 ended, at the rounding of n S_n, at
#: lambda^2 <= 2e-16 on seeded samples of up to n = 2e5.
DECREMENT_TOL = 1e-14

#: Where the curvature of Phi over the free angles is not positive definite,
#: the Newton step uses the absolute values of its eigenvalues, none below
#: this fraction of the largest.
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


@dataclass(frozen=True)
class FitResult:
    """Outcome of estimate_theta.

    ``n_starts`` counts the polishes run, at most N_POLISH since the screen
    skips the starts it rules out, and ``converged_starts`` those of them that
    converged: that ended where the Newton decrement of n Phi, n S_n with p
    profiled out, over the free angles is at most DECREMENT_TOL.  ``theta_hat`` is the lowest polish's
    end, converged or not.  ``options`` holds the box searched.

    ``sigma_hat`` is the asymptotic covariance of sqrt(n) (theta_hat - theta0)
    and ``std_errors`` the standard errors of theta_hat; both are None when
    they were not asked for or inference failed, as ``inference_warning`` says.
    """

    theta_hat: MixtureParams
    contrast_at_min: float
    n_starts: int
    n: int
    converged_starts: int
    near_degenerate: bool
    options: FitOptions
    sigma_hat: np.ndarray | None
    std_errors: np.ndarray | None
    inference_warning: str | None

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
    starts, lowest first.  The first start is always polished (see _polish),
    on n Phi(alpha, beta), the contrast with p profiled out.  Once a polish
    has converged, a later start is skipped when the Newton model of n Phi
    there (see _newton_model), which is also its polish's first step, is
    convex and predicts a basin floor, n Phi - lambda^2 / 2, more than
    SCREEN_MARGIN above the lowest converged n S_n.  The model is not a lower
    bound, so the screen is a heuristic.  The lowest polish wins, and
    EstimationError is raised, with the first polish's reason, if no polish
    converged.  Label switching is resolved by p < 1/2; fits with
    beta - alpha within DEGENERACY_WARN_RADIUS of a multiple of 2*pi/3 are
    flagged.  ``sample`` is an array of angles or its ContrastMoments.  No
    numpy.linalg call is made unless the covariance is computed.
    """
    opts = options or FitOptions()
    moments = _as_moments(sample)
    box = opts.box().tolist()
    alphas = np.linspace(*box[1], GRID_SIZE)
    betas = np.linspace(*box[2], GRID_SIZE)
    ps, values = moments.profile_p(alphas, betas, opts.p_min, opts.p_max)
    n = moments.n

    runs = []
    incumbent = math.inf  # the lowest n S_n of a converged polish
    for i, j in _lowest_local_minima(values, N_POLISH):
        model = _newton_model(moments, (float(ps[i, j]), float(alphas[i]), float(betas[j])), box)
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
    sigma_hat = std_errors = inference_warning = None
    if opts.compute_covariance:
        try:
            sigma_hat, std_errors = asymptotic_cov(moments, theta_hat)
        except InferenceError as exc:
            inference_warning = str(exc)
    return FitResult(theta_hat=theta_hat, contrast_at_min=best.fun / n, n_starts=len(runs),
                     n=n, converged_starts=converged,
                     near_degenerate=degeneracy_gap(theta_hat) < DEGENERACY_WARN_RADIUS,
                     options=opts, sigma_hat=sigma_hat, std_errors=std_errors,
                     inference_warning=inference_warning)


class _Model(NamedTuple):
    """Second-order model of n Phi, the contrast with p profiled out, at the
    point ``x`` = (p*, alpha, beta): n Phi there, its gradient and Newton
    step over (alpha, beta) (the step is zero on a held angle), the Newton
    decrement lambda^2 = g . step, and whether the curvature over the free
    angles is positive definite."""

    x: tuple
    value: float
    grad: tuple
    step: tuple
    decrement: float
    convex: bool

    @property
    def floor(self) -> float:
        """The model's minimum over the free angles, value - lambda^2 / 2,
        or -inf unless its curvature is positive definite."""
        return self.value - 0.5 * self.decrement if self.convex else -math.inf


def _vertex(p: float, g_p: float, h_pp: float, p_min: float, p_max: float) -> float:
    """The p* in [p_min, p_max] minimizing the quadratic in p whose slope and
    curvature at p are g_p and h_pp: its clipped vertex when h_pp > 0, else
    the end point with the lower value.  This is profile_p's rule, with
    c2 = h_pp / 2 and c1 = g_p - h_pp p."""
    if h_pp > 0.0:
        return min(max(p - g_p / h_pp, p_min), p_max)
    return p_max if g_p + 0.5 * h_pp * (p_min + p_max - 2.0 * p) < 0.0 else p_min


def _newton_step(g_a: float, g_b: float, h_aa: float, h_ab: float, h_bb: float,
                 free_a: bool, free_b: bool) -> tuple:
    """(step_a, step_b, lambda^2, convex): the Newton step of the gradient
    (g_a, g_b) on the symmetric curvature H = [[h_aa, h_ab], [h_ab, h_bb]]
    over the free coordinates, in closed form; a held coordinate gets no step.

    When H over the free coordinates is positive definite (the pivots of its
    Cholesky factorization are positive), the step solves H s = g and
    lambda^2 = g . s.  Otherwise H is replaced by V |Lambda| V^T, with each
    |eigenvalue| raised to at least EIG_FLOOR times the largest: the step is
    then still a descent direction, scaled by the curvature.  The eigenvalues
    of the 2 x 2 H are (h_aa + h_bb) / 2 +- hypot((h_aa - h_bb) / 2, h_ab),
    the larger with the eigenvector at angle atan2(2 h_ab, h_aa - h_bb) / 2.
    A zero H gives no step; lambda^2 is then 0 where the free gradient is 0
    and inf elsewhere.
    """
    if not (free_a and free_b):
        if not (free_a or free_b):
            return 0.0, 0.0, 0.0, True
        g, h = (g_a, h_aa) if free_a else (g_b, h_bb)
        convex, h = h > 0.0, abs(h)
        if h == 0.0:
            return 0.0, 0.0, (math.inf if g else 0.0), False
        s = g / h
        return (s, 0.0, g * s, convex) if free_a else (0.0, s, g * s, convex)
    if h_aa > 0.0:
        pivot = h_bb - h_ab * h_ab / h_aa
        if pivot > 0.0:
            s_b = (g_b - h_ab * g_a / h_aa) / pivot
            s_a = (g_a - h_ab * s_b) / h_aa
            return s_a, s_b, g_a * s_a + g_b * s_b, True
    mean, radius = 0.5 * (h_aa + h_bb), math.hypot(0.5 * (h_aa - h_bb), h_ab)
    top = abs(mean) + radius  # the largest |eigenvalue|
    if top == 0.0:
        return 0.0, 0.0, (math.inf if g_a or g_b else 0.0), False
    e_hi = max(abs(mean + radius), EIG_FLOOR * top)
    e_lo = max(abs(mean - radius), EIG_FLOOR * top)
    angle = 0.5 * math.atan2(2.0 * h_ab, h_aa - h_bb)
    c, s = math.cos(angle), math.sin(angle)  # (c, s) for mean + radius, (-s, c) for mean - radius
    u_hi = (c * g_a + s * g_b) / e_hi
    u_lo = (c * g_b - s * g_a) / e_lo
    return (c * u_hi - s * u_lo, s * u_hi + c * u_lo,
            u_hi * u_hi * e_hi + u_lo * u_lo * e_lo, False)


def _newton_model(moments: ContrastMoments, x: tuple, box) -> _Model:
    """The Newton model of n Phi at x = (p*, alpha, beta), from one Hessian scan.

    Phi(alpha, beta) is the minimum of S_n over p in [p_min, p_max], and p*
    its minimizer.  At an interior p* the gradient of Phi is the (alpha, beta)
    part of the gradient of S_n (envelope theorem) and its Hessian is the
    Schur complement H_ab,ab - H_ab,p H_p,ab / H_pp; at a clipped p* both are
    those of S_n over (alpha, beta).  An angle is held when it sits on its
    lower bound with g > 0 or on its upper bound with g < 0, and
    _newton_step gives the step over the others.  ``box`` holds the
    (lower, upper) bounds of p, alpha and beta.
    """
    p, alpha, beta = x
    value, (_, g_a, g_b), (h_pp, h_pa, h_pb, h_aa, h_ab, h_bb) = moments._scan(
        p, alpha, beta, hessian=True)
    (p_min, p_max), (a_min, a_max), (b_min, b_max) = box
    if p_min < p < p_max and h_pp > 0.0:
        h_aa -= h_pa * h_pa / h_pp
        h_ab -= h_pa * h_pb / h_pp
        h_bb -= h_pb * h_pb / h_pp
    free_a = not ((alpha <= a_min and g_a > 0.0) or (alpha >= a_max and g_a < 0.0))
    free_b = not ((beta <= b_min and g_b > 0.0) or (beta >= b_max and g_b < 0.0))
    s_a, s_b, decrement, convex = _newton_step(g_a, g_b, h_aa, h_ab, h_bb, free_a, free_b)
    # the step does not depend on the scale; the rest is given as n S_n
    scale = 2.0 / (moments.n - 1)
    return _Model(x, value * scale, (g_a * scale, g_b * scale), (s_a, s_b),
                  decrement * scale, convex)


@dataclass(frozen=True)
class _Polish:
    """End of one polish: the point ``x`` = (p*, alpha, beta), its n S_n and
    Newton decrement, and why the polish stopped unconverged (None when it
    converged)."""

    x: tuple
    fun: float
    decrement: float
    failure: str | None = None

    @property
    def converged(self) -> bool:
        return self.failure is None


def _polish(moments: ContrastMoments, model: _Model, box) -> _Polish:
    """Projected Newton (Bertsekas 1982) on n Phi(alpha, beta) from
    ``model``'s point, where Phi is S_n with p profiled out (variable
    projection, Golub & Pereyra 1973).

    Each iteration stops, converged, when the Newton decrement lambda^2 of
    _newton_model is at most DECREMENT_TOL: lambda^2 / 2 estimates the
    decrease of n S_n still available, a test that does not depend on n or on
    the scale of the coordinates.  Otherwise it backtracks along the
    projection arc (alpha, beta)(t) = clip((alpha, beta) - t step),
    t = 1, 1/2, ..., to the first angles with
    n Phi(t) <= n Phi + ARMIJO g . ((alpha, beta)(t) - (alpha, beta)), and
    computes the next model there.  A trial costs one _scan at the current p:
    S_n is quadratic in p, so its value, g_p and H_pp give p* (_vertex) and
    Phi, all in _scan's W-form.  An accepted point costs one Hessian scan.
    The polish stops unconverged when MAX_HALVINGS halvings find no such
    angles or MAX_ITER iterations pass.
    """
    scale = 2.0 / (moments.n - 1)
    (p_min, p_max), (a_min, a_max), (b_min, b_max) = box
    for _ in range(MAX_ITER):
        if model.decrement <= DECREMENT_TOL:
            break
        p, alpha, beta = model.x
        (g_a, g_b), (s_a, s_b) = model.grad, model.step
        for halving in range(MAX_HALVINGS):
            t = 0.5 ** halving
            trial_a = min(max(alpha - t * s_a, a_min), a_max)
            trial_b = min(max(beta - t * s_b, b_min), b_max)
            move_a, move_b = trial_a - alpha, trial_b - beta
            if not (move_a or move_b):
                continue
            value, (g_p, _, _), (h_pp,) = moments._scan(p, trial_a, trial_b)
            trial_p = _vertex(p, g_p, h_pp, p_min, p_max)
            d = trial_p - p
            if ((value + d * (g_p + 0.5 * h_pp * d)) * scale
                    <= model.value + ARMIJO * (g_a * move_a + g_b * move_b)):
                break
        else:
            return _Polish(model.x, model.value, model.decrement,
                           f"line search stalled at lambda^2 = {model.decrement:.3g}")
        model = _newton_model(moments, (trial_p, trial_a, trial_b), box)
    failure = None
    if not model.decrement <= DECREMENT_TOL:
        failure = f"{MAX_ITER} iterations ended at lambda^2 = {model.decrement:.3g}"
    return _Polish(model.x, model.value, model.decrement, failure)


def _lowest_local_minima(values: np.ndarray, count: int) -> list:
    """Indices of the ``count`` lowest cells no higher than any of their 8
    neighbours, lowest first; ties keep row-major order.

    The 3 x 3 window minimum is separable: a minimum over each row's shifted
    slices of an inf-padded copy, then over the columns' of that.  The window
    holds the cell itself, so a cell is kept where it is <= its window's
    minimum; a NaN anywhere in the window propagates and keeps no cell.
    """
    cols = values.shape[1]
    padded = np.pad(values, 1, constant_values=np.inf)
    across = np.minimum(padded[:, :-2], padded[:, 1:-1])
    np.minimum(across, padded[:, 2:], out=across)
    window = np.minimum(across[:-2], across[1:-1])
    np.minimum(window, across[2:], out=window)
    cells = np.flatnonzero(values <= window)
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
