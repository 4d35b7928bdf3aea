"""Independent oracles shared by the test modules.

These deliberately avoid the production code paths: Fourier coefficients
come from grid quadrature, the contrast from the literal O(n^2) double sum,
and derivatives from central finite differences.  The per-observation terms
Z_k^l and their derivatives, which the program never forms, are built here
from the library's M^l and its gradient, and from the Hessian of M^l below.
"""

import cmath

import numpy as np

from circmix import mixture_weight, mixture_weight_grad
from circmix.circ import _theta_array

TWO_PI = 2.0 * np.pi


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


def quad_fourier(pdf, l, num=2048):
    """(1/2pi) integral f(x) e^{-ilx} dx by the trapezoid rule on a periodic
    grid (spectrally accurate for smooth densities)."""
    x = np.linspace(0.0, TWO_PI, num, endpoint=False)
    return np.mean(pdf(x) * np.exp(-1j * l * x))


def quad_integral(values_on_grid):
    """integral over [0, 2pi) of a function tabulated on a uniform grid."""
    return float(np.mean(values_on_grid) * TWO_PI)


def brute_contrast(angles, theta):
    """S_n by the definitional double sum over k != j, l = -4..4."""
    p, alpha, beta = theta
    angles = np.asarray(angles, dtype=float)
    n = len(angles)
    total = 0.0
    for l in range(-4, 5):
        m = p * np.exp(-1j * l * alpha) + (1.0 - p) * np.exp(-1j * l * beta)
        z = np.imag(np.exp(1j * l * angles) * m) / TWO_PI
        for k in range(n):
            for j in range(n):
                if k != j:
                    total += z[k] * z[j]
    return total / (n * (n - 1))


def z_values(angles, l, theta):
    """Z_k^l(theta) = Im(e^{i l X_k} M^l(theta)) / (2 pi) for each angle."""
    m = mixture_weight(theta, l)
    return np.imag(np.exp(1j * l * np.asarray(angles, dtype=float)) * m) / TWO_PI


def z_grads(angles, l, theta):
    """Gradients of Z_k^l, shape (n, 3)."""
    dm = mixture_weight_grad(theta, l)
    phases = np.exp(1j * l * np.asarray(angles, dtype=float))
    return np.imag(phases[:, None] * dm[None, :]) / TWO_PI


def z_hessians(angles, l, theta):
    """Hessians of Z_k^l, shape (n, 3, 3)."""
    d2m = mixture_weight_hess(theta, l)
    phases = np.exp(1j * l * np.asarray(angles, dtype=float))
    return np.imag(phases[:, None, None] * d2m[None, :, :]) / TWO_PI


def fd_gradient(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in range(len(x)):
        step = np.zeros_like(x)
        step[j] = h
        out[j] = (fun(x + step) - fun(x - step)) / (2.0 * h)
    return out


def fd_jacobian(vector_fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(len(x)):
        step = np.zeros_like(x)
        step[j] = h
        cols.append((vector_fun(x + step) - vector_fun(x - step)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def null_increments(l_max, walks, seed):
    """i.i.d. Exp(1) per-level increments for ``walks`` signal-free walks."""
    return np.random.default_rng(seed).exponential(size=(walks, l_max))


def slope_rule_levels(increments):
    """L_hat of the ``lambda = 2 * slope`` rule for each row of increments.

    The rule as the ``slope_lambda`` and ``select_level`` docstrings state it,
    restated here rather than imported: the coefficient mass at level L is
    the cumulative sum of the increments, a least-squares line is fitted to
    mass against penalty shape (2L+1)/n over the levels L >= ceil(l_max/2),
    lambda is twice its slope, and L_hat minimizes
    -mass_L + lambda (2L+1)/n with ties going to the smallest L.  Mass and
    penalty are both linear in the scale of the increments and in 1/n, so
    L_hat depends on neither.
    """
    increments = np.asarray(increments, dtype=float)
    walks, l_max = increments.shape
    mass = np.concatenate([np.zeros((walks, 1)), np.cumsum(increments, axis=1)], axis=1)
    shape = 2.0 * np.arange(l_max + 1) + 1.0
    window = np.arange(l_max + 1) >= np.ceil(l_max / 2)
    xw = shape[window] - shape[window].mean()
    slope = (mass[:, window] @ xw) / (xw @ xw)
    crit = -mass + 2.0 * slope[:, None] * shape
    return np.argmin(crit, axis=1)  # first occurrence: smallest L on ties


def slope_rule_null_rate(l_max, seed=20210312):
    """Monte Carlo null behaviour of the ``lambda = 2 * slope`` level choice.

    Model: for uniform f, each level l >= 1 adds 2|f_hat_l|^2 ~ 2 E_l /
    (4 pi^2 n) to the coefficient mass with E_l i.i.d. Exp(1).  This holds
    for large n (the normalized power sums are then independent complex
    Gaussians) and when |M^l(theta_hat)| = 1, so that f_hat_l = g_hat_l.
    5 x 50 000 walks keep the standard error of the rate at most 0.001.

    Returns (r_ref, dist): the rate of L_hat = 0 and the distribution of
    L_hat over 0..l_max.
    """
    counts = np.zeros(l_max + 1, dtype=np.int64)
    for child in np.random.SeedSequence(seed).spawn(5):
        levels = slope_rule_levels(null_increments(l_max, 50_000, child))
        counts += np.bincount(levels, minlength=l_max + 1)
    dist = counts / counts.sum()
    return float(dist[0]), dist


def p_quadratic_by_cell(power_sums, n, alpha, beta):
    """(c2, c1, c0) with S_n = 2/(n(n-1)) (c2 p^2 + c1 p + c0), expanded per
    level from M^l = p d + e_b with d = e_a - e_b; broadcasts over arrays
    of angles.  ``power_sums`` holds P_0..P_8."""
    k = 8.0 * np.pi ** 2
    c2 = c1 = c0 = 0.0
    for l in range(1, 5):
        pl, p2l = power_sums[l], power_sums[2 * l]
        eb = np.exp(-1j * l * beta)
        d = np.exp(-1j * l * alpha) - eb
        u = (d * pl).imag / TWO_PI
        v = (eb * pl).imag / TWO_PI
        c2 = c2 + u * u - (n * (d * d.conjugate()).real - (d * d * p2l).real) / k
        c1 = c1 + 2.0 * (u * v - (n * (d * eb.conjugate()).real - (d * eb * p2l).real) / k)
        c0 = c0 + v * v - (n - (eb * eb * p2l).real) / k
    return c2, c1, c0


def tail_mass_by_level(density, start, tol, cap):
    """sum_{|l| >= start} |f_l|^2 by one scalar coefficient per level, added
    in level order and stopped after the first term below ``tol`` or at
    l = ``cap``."""
    total = 0.0
    for l in range(start, cap + 1):
        coeff = density.fourier_coeff(l)
        term = 2.0 * (coeff.real ** 2 + coeff.imag ** 2)
        total += term
        if term < tol:
            break
    return total
