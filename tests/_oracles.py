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


#: Decimal digits of the mpmath references.
MP_DPS = 40


def coeff_modulus_mp(density, l):
    """|c_l| of a von Mises, wrapped Cauchy or wrapped normal density in
    mpmath, from its closed form at the density's own double parameters."""
    from mpmath import besseli, mpf, pi, workdps
    c = density.__class__.__name__
    with workdps(MP_DPS):
        if c == "VonMises":
            kappa = mpf(density.kappa)
            return besseli(abs(l), kappa) / besseli(0, kappa) / (2 * pi)
        if c == "WrappedCauchy":
            return mpf(density.gamma) ** abs(l) / (2 * pi)
        return mpf(density.rho) ** (l * l) / (2 * pi)


def coeff_mp(density, l):
    """c_l = |c_l| e^{-i l mu} in mpmath."""
    from mpmath import expj, mpf, workdps
    with workdps(MP_DPS):
        return coeff_modulus_mp(density, l) * expj(-l * mpf(density.mu))


def squared_norm_mp(density):
    """(1/2pi) integral f^2 in mpmath: I_0(2 kappa)/I_0(kappa)^2,
    (1 + gamma^2)/(1 - gamma^2) and sum_l rho^(2 l^2), each over (2pi)^2, or
    the quadrature of a tabulated interpolant's square, segment by segment."""
    from mpmath import besseli, jtheta, mpf, pi, quad, workdps
    c = density.__class__.__name__
    with workdps(MP_DPS):
        if c == "VonMises":
            kappa = mpf(density.kappa)
            return besseli(0, 2 * kappa) / besseli(0, kappa) ** 2 / (2 * pi) ** 2
        if c == "WrappedCauchy":
            g = mpf(density.gamma)
            return (1 + g * g) / (1 - g * g) / (2 * pi) ** 2
        if c == "WrappedNormal":
            r = mpf(density.rho)
            return jtheta(3, 0, r * r) / (2 * pi) ** 2
        values = [mpf(v) for v in density.values]
        size = len(values)
        total = 0
        for j in range(size):
            a, b = values[j], values[(j + 1) % size]
            total += quad(lambda t: (a + (b - a) * t) ** 2, [0, 1])
        return total / size


def tail_mp(density, start):
    """sum_{|l| >= start} |f_l|^2 in mpmath: the closed-form norm less the
    head sum, with the moduli of ``coeff_modulus_mp`` or, for a tabulated
    density, of its own ``fourier_coeffs``."""
    from mpmath import fsum, mpc, workdps
    with workdps(MP_DPS):
        if density.__class__.__name__ == "Tabulated":
            head = [abs(mpc(complex(c))) for c in density.fourier_coeffs(range(start))]
        else:
            head = [coeff_modulus_mp(density, l) for l in range(start)]
        return squared_norm_mp(density) - head[0] ** 2 - 2 * fsum(c * c for c in head[1:])


def risk_profile_mp(f_hat_pos, density):
    """||f_hat_L - f||^2 for L = 0..len(f_hat_pos)-1 in mpmath, from the
    estimate's coefficients f_hat_0..f_hat_l_max: the head sum of
    |f_hat_l - f_l|^2 plus the closed-form norm less the head sum of |f_l|^2."""
    from mpmath import mpc, workdps
    with workdps(MP_DPS):
        norm = squared_norm_mp(density)
        out, err, mass = [], 0, 0
        for l, f_hat in enumerate(f_hat_pos):
            f = coeff_mp(density, l)
            weight = 1 if l == 0 else 2
            err += weight * abs(mpc(complex(f_hat)) - f) ** 2
            mass += weight * abs(f) ** 2
            out.append(err + norm - mass)
        return out


def newton_step_by_linalg(grad, hess, free, eig_floor):
    """(step, lambda^2, convex) of the gradient ``grad`` on the symmetric
    ``hess`` over the coordinates where ``free`` is True, by numpy.linalg:
    a Cholesky test of positive definiteness and a solve, else the
    eigendecomposition with each |eigenvalue| raised to at least
    ``eig_floor`` times the largest.  A zero curvature gives no step and
    lambda^2 = 0 where the free gradient is 0, inf elsewhere."""
    grad, hess, free = np.asarray(grad, float), np.asarray(hess, float), np.asarray(free)
    g, h = grad[free], hess[free][:, free]
    step = np.zeros(len(grad))
    try:
        np.linalg.cholesky(h)
        step[free] = np.linalg.solve(h, g)
        return step, float(g @ step[free]), True
    except np.linalg.LinAlgError:
        eig, vec = np.linalg.eigh(h)
        scale = np.abs(eig)
        scale = np.maximum(scale, eig_floor * scale.max())
        if not scale.all():
            return step, (np.inf if g.any() else 0.0), False
        coords = (vec.T @ g) / scale
        step[free] = vec @ coords
        return step, float(coords @ (scale * coords)), False


def local_minima_by_cell(values, count):
    """The ``count`` lowest cells of a 2-d array no higher than any of their
    (up to 8) neighbours inside the array, lowest first, ties in row-major
    order; a NaN cell, or one next to a NaN, is no minimum."""
    rows, cols = values.shape
    cells = []
    for i in range(rows):
        for j in range(cols):
            neighbours = [values[a, b]
                          for a in range(max(i - 1, 0), min(i + 2, rows))
                          for b in range(max(j - 1, 0), min(j + 2, cols)) if (a, b) != (i, j)]
            if all(values[i, j] <= v for v in neighbours) and not np.isnan(values[i, j]):
                cells.append((i, j))
    return sorted(cells, key=lambda c: values[c])[:count]


def recurrence_power_sums(angles, m_max, chunk):
    """P_0..P_m_max by the recurrence w <- w e^{iX} over blocks of ``chunk``
    angles, in the operation order of the recurrence in contrast.power_sums."""
    sums = np.zeros(m_max + 1, dtype=complex)
    sums[0] = len(angles)
    for start in range(0, len(angles), chunk):
        base = np.exp(1j * angles[start:start + chunk])
        power = base.copy()
        for m in range(1, m_max + 1):
            sums[m] += power.sum()
            power = power * base
    return sums


def power_sums_mp(angles, m_max):
    """P_0..P_m_max in mpmath at 30 digits, from each angle's double value
    (mpmath reduces even a huge angle exactly), rounded to complex."""
    from mpmath import expj, mpc, mpf, workdps
    with workdps(30):
        sums = [mpc(0)] * (m_max + 1)
        for x in angles.tolist():
            step, power = expj(mpf(x)), mpc(1)
            for m in range(m_max + 1):
                sums[m] += power
                power *= step
        return np.array([complex(s) for s in sums])
