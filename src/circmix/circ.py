"""Circular arithmetic, component densities, exact Fourier coefficients,
and sampling for two-component rotation mixtures.

Angles live on [0, 2*pi), and a sample is a plain float array of them, as
``sample_mixture`` returns it.  Fourier coefficients follow the convention
``c_l = (1/2pi) * integral f(x) exp(-i l x) dx``, so every density has
``c_0 = 1/(2pi)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * math.pi


def normalize(x):
    """Map an angle (or array of angles) to its representative in [0, 2*pi).

    Raises
    ------
    DomainError
        If any input is not finite.
    """
    arr = np.asarray(x, dtype=float)
    out = normalize_into(arr, np.empty_like(arr))
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def normalize_into(arr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``normalize(arr)`` for a float array to ``out`` and return it.

    ``out`` may be ``arr`` itself, which normalizes the angles in place
    without the copy ``normalize`` makes.

    Raises
    ------
    DomainError
        If any input is not finite; ``out`` is then left unwritten.
    """
    if np.all((arr >= 0.0) & (arr < TWO_PI)):
        np.add(arr, 0.0, out=out)  # what mod returns on [0, 2*pi), -0.0 made +0.0 too
    else:
        if not np.all(np.isfinite(arr)):
            raise DomainError("angles must be finite")
        np.mod(arr, TWO_PI, out=out)
        out[out >= TWO_PI] = 0.0  # mod can round up to exactly 2*pi for tiny negative inputs
    return out


def angular_distance(a, b, period=TWO_PI):
    """Shortest distance between two angles modulo ``period``."""
    d = np.mod(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), period)
    d = np.minimum(d, period - d)
    if np.isscalar(a) and np.isscalar(b):
        return float(d)
    return d


@dataclass(frozen=True)
class MixtureParams:
    """Mixture parameter triple (p, alpha, beta).

    ``p`` is the weight of the component rotated by ``alpha``; the other
    component is rotated by ``beta``.  Estimation restricts p to (0, 1/2)
    and the angles to [0, pi), but the container itself only requires
    finite values with p in [0, 1] so that boundary cases (p = 0, collapsed
    angles) remain expressible for simulation and identifiability work.
    """

    p: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError("mixture parameters must be finite")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"mixing weight must lie in [0, 1], got {self.p}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p, self.alpha, self.beta], dtype=float)

    def switched(self) -> "MixtureParams":
        """Label-switched representation (1-p, beta, alpha) of the same mixture."""
        return MixtureParams(1.0 - self.p, self.beta, self.alpha)


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


class ComponentDensity:
    """Base class for circular component densities f(. - mu).

    A family is written centred at 0 and supplies three methods: ``_pdf(d)``
    at offsets d = x - mu, ``_coeffs(ls)``, the coefficients of the centred
    density, and ``_draw(n, rng)``, n centred angles in a new float array.
    It also supplies ``squared_norm``, which rotation leaves unchanged.  This
    class applies the location mu, once, in ``pdf``, ``fourier_coeffs`` and
    ``sample``; all are pure given an explicit ``numpy.random.Generator``.

    A parametric family, a frozen dataclass of its one shape parameter and
    mu, declares its spec ``kind``, the ``param`` name of that parameter and
    the parameter's half-open ``bounds`` [low, high).  From them this class
    checks the parameter and mu when a density is built and renders ``label``,
    and ``parse_density`` builds the family.
    """

    mu: float = 0.0

    def __post_init__(self):
        low, high = self.bounds
        value = getattr(self, self.param)
        if not low <= value < high:  # nan fails, as does inf against a high of inf
            raise DomainError(f"{self.param} must lie in [{low:g}, {high:g}), got {value}")
        _check_mu(self.mu)

    @property
    def label(self):
        return f"{self.kind} {self.param}={getattr(self, self.param):g} mu={self.mu:g}"

    def pdf(self, x):
        """The centred ``_pdf`` at x - mu: an array for an array, a float for a scalar."""
        out = self._pdf(np.asarray(x, dtype=float) - self.mu)
        return out if out.ndim else float(out)

    def fourier_coeff(self, l: int) -> complex:
        """Exact Fourier coefficient c_l = (1/2pi) E[exp(-i l X)]."""
        return complex(self.fourier_coeffs([l])[0])

    def fourier_coeffs(self, ls) -> np.ndarray:
        """c_l = (centred c_l) e^{-i l mu} for each level of ``ls``, a complex array."""
        ls = np.atleast_1d(ls)
        return self._coeffs(ls) * np.exp(-1j * ls * self.mu)

    def squared_norm(self) -> float:
        """(1/2pi) integral f^2 = sum_l |c_l|^2, exactly (Parseval)."""
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n angles drawn from f, rotated by mu and normalized in place."""
        if n < 1:
            raise DomainError("sample size must be >= 1")
        angles = self._draw(n, rng)
        angles += self.mu
        return normalize_into(angles, angles)

    def __repr__(self):
        return self.label


def _check_mu(mu) -> float:
    if not math.isfinite(mu):
        raise DomainError(f"mu must be finite, got {mu}")
    return float(mu)


@dataclass(frozen=True, repr=False)
class VonMises(ComponentDensity):
    """Von Mises density exp(kappa*cos(x-mu)) / (2*pi*I_0(kappa)).

    Evaluated with the scaled Bessel function ive(l, kappa) = I_l(kappa)
    e^{-kappa}, so neither the density nor the coefficients overflow at
    large kappa.  Samples come from numpy's ``Generator.vonmises``, the
    Best-Fisher (1979) rejection sampler with a wrapped-normal path above
    kappa = 1e6, except that kappa < 1e-12 draws uniform angles.
    """

    kind, param, bounds = "vonmises", "kappa", (0.0, math.inf)
    kappa: float
    mu: float = 0.0

    def _pdf(self, d):
        return np.exp(self.kappa * (np.cos(d) - 1.0)) / (TWO_PI * _ive(0, self.kappa))

    def _coeffs(self, ls):
        return _ive(np.abs(ls), self.kappa) / (TWO_PI * _ive(0, self.kappa))

    def squared_norm(self) -> float:
        """I_0(2 kappa) / (2 pi I_0(kappa))^2, from sum_l I_l(kappa)^2 = I_0(2 kappa);
        the scalings e^{-2 kappa} of ive cancel."""
        return float(_ive(0, 2.0 * self.kappa) / _ive(0, self.kappa) ** 2 / TWO_PI ** 2)

    def _draw(self, n, rng):
        if self.kappa < 1e-12:
            return rng.uniform(0.0, TWO_PI, size=n)
        return rng.vonmises(0.0, self.kappa, size=n)


def _ive(order, kappa):
    # scipy.special loads at the first von Mises pdf or coefficient, not with
    # the package: its import is most of the start-up of commands that never
    # evaluate one (simulate, ident, --help)
    from scipy.special import ive
    return ive(order, kappa)


@dataclass(frozen=True, repr=False)
class WrappedCauchy(ComponentDensity):
    """Wrapped Cauchy density with concentration gamma in [0, 1)."""

    kind, param, bounds = "wrappedcauchy", "gamma", (0.0, 1.0)
    gamma: float
    mu: float = 0.0

    def _pdf(self, d):
        g = self.gamma
        return (1.0 - g * g) / (TWO_PI * (1.0 + g * g - 2.0 * g * np.cos(d)))

    def _coeffs(self, ls):
        return self.gamma ** np.abs(ls) / TWO_PI

    def squared_norm(self) -> float:
        """(1 + gamma^2) / ((1 - gamma^2) (2 pi)^2), the geometric series of
        gamma^(2|l|); 1 - gamma^2 is taken as (1 - gamma)(1 + gamma), which
        keeps its digits near gamma = 1."""
        g = self.gamma
        return (1.0 + g * g) / ((1.0 - g) * (1.0 + g)) / TWO_PI ** 2

    def _draw(self, n, rng):
        if self.gamma == 0.0:
            return rng.uniform(0.0, TWO_PI, size=n)
        return -math.log(self.gamma) * rng.standard_cauchy(n)


@dataclass(frozen=True, repr=False)
class WrappedNormal(ComponentDensity):
    """Wrapped normal density, parameterized by rho in [0, 1) with
    sigma^2 = -2*log(rho)."""

    kind, param, bounds = "wrappednormal", "rho", (0.0, 1.0)
    rho: float
    mu: float = 0.0

    def _sigma(self):
        return math.sqrt(-2.0 * math.log(self.rho)) if self.rho > 0.0 else math.inf

    def _pdf(self, d):
        return _wrapped_normal(d, self.rho, self._sigma())

    def _coeffs(self, ls):
        return self.rho ** (ls * ls) / TWO_PI

    def squared_norm(self) -> float:
        """sum_l rho^(2 l^2) / (2 pi)^2: the series of the rho^2 density, whose
        sigma is sqrt(2) sigma, at its mode, divided by 2 pi."""
        return float(_wrapped_normal(0.0, self.rho * self.rho,
                                     math.sqrt(2.0) * self._sigma())) / TWO_PI

    def _draw(self, n, rng):
        if self.rho == 0.0:
            return rng.uniform(0.0, TWO_PI, size=n)
        return rng.normal(0.0, self._sigma(), size=n)


def _wrapped_normal(d, rho, sigma):
    """Wrapped normal density at offsets d from its mean, with rho = e^{-sigma^2/2}
    passed both ways, as neither rounds well from the other near rho = 1.

    It is the Fourier series (1/2pi)(1 + 2 sum_l rho^(l^2) cos(l d)) or the
    image sum (1/(sigma sqrt(2pi))) sum_k exp(-(d + 2pi k)^2/(2 sigma^2)),
    whichever needs fewer terms.  Each is cut where its terms fall below
    1e-16 of its first: past level ~8.6/sigma or image ~1.4 sigma.
    """
    levels, images = 0, 0
    if rho > 0.0:
        levels = int(math.ceil(math.sqrt(math.log(1e-16) / math.log(rho))))
        # |d + 2pi k| >= pi(2|k| - 1) once d is taken into [-pi, pi]
        images = int((sigma * math.sqrt(-2.0 * math.log(1e-16)) / math.pi + 1.0) / 2.0)
    if 2 * images + 1 < levels:
        d = d - TWO_PI * np.round(d / TWO_PI)
        acc = sum(np.exp(-0.5 * ((d + TWO_PI * k) / sigma) ** 2)
                  for k in range(-images, images + 1))
        return acc / (sigma * math.sqrt(TWO_PI))
    acc = np.ones_like(d)
    for l in range(1, levels + 1):
        acc = acc + 2.0 * rho ** (l * l) * np.cos(l * d)
    return acc / TWO_PI


class Tabulated(ComponentDensity):
    """Density given by nonnegative values on a uniform grid over [0, 2*pi).

    The values are renormalized by trapezoidal quadrature; evaluation uses
    periodic linear interpolation and sampling inverts the interpolated CDF
    on a grid refined to at least 2048 points.  The Fourier coefficients
    and the squared norm are those of the interpolant, exactly.
    """

    def __init__(self, values, mu: float = 0.0):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or len(values) < 16:
            raise DomainError("tabulated density needs a 1-d grid of >= 16 values")
        if not np.all(np.isfinite(values)):
            raise DomainError("tabulated density values must be finite")
        if np.any(values < 0):
            raise DomainError("tabulated density values must be nonnegative")
        grid = np.linspace(0.0, TWO_PI, len(values), endpoint=False)
        mass = _periodic_trapezoid(values)
        if mass <= 0.0:
            raise DomainError("tabulated density is not normalizable")
        self.grid = grid
        self.values = values / mass
        self.mu = _check_mu(mu)

    @property
    def label(self):
        return f"tabulated n={len(self.values)} mu={self.mu:g}"

    @classmethod
    def from_text(cls, path, mu: float = 0.0) -> "Tabulated":
        """Load a two-column (angle, value) text file whose N sorted angles are
        the grid 2*pi*j/N, j = 0..N-1, on which the values are placed."""
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise DomainError("expected a two-column (angle, value) file")
        order = np.argsort(data[:, 0])
        angles, values = data[order, 0], data[order, 1]
        if len(angles) < 16:
            raise DomainError("tabulated grid must have >= 16 points")
        grid = np.linspace(0.0, TWO_PI, len(angles), endpoint=False)
        if not np.allclose(angles, grid, rtol=1e-6, atol=1e-9):
            raise DomainError(f"tabulated grid of {len(angles)} points must be the angles "
                              f"2*pi*j/{len(angles)}: from 0 in steps of {grid[1]:.12g}")
        return cls(values, mu=mu)

    def _pdf(self, d):
        x = normalize(d)
        size = len(self.values)
        pos = x / (TWO_PI / size)
        # x just below 2*pi can round to pos = size: clamped, it interpolates to values[0]
        idx = np.minimum(np.floor(pos).astype(int), size - 1)
        frac = pos - idx
        nxt = (idx + 1) % size
        return (1.0 - frac) * self.values[idx] + frac * self.values[nxt]

    def _coeffs(self, ls):
        """c_l of the interpolant: with N values v_j, the hat function of each
        grid point has the transform sinc^2(pi l / N), so the centred
        c_l = (1/N) sum_j v_j e^{-2 pi i j l / N} sinc^2(pi l / N)."""
        size = len(self.values)
        dft = np.fft.fft(self.values)[ls % size] / size
        return dft * np.sinc(ls / size) ** 2

    def squared_norm(self) -> float:
        """(1/2pi) integral f^2 = sum_l |c_l|^2 of the interpolant, exactly:
        (1/N) sum_j (v_j^2 + v_j v_{j+1} + v_{j+1}^2) / 3."""
        v, nxt = self.values, np.roll(self.values, -1)
        return float(np.mean(v * v + v * nxt + nxt * nxt) / 3.0)

    @cached_property
    def _inverse_cdf(self):
        """(cdf, knots) of the centred interpolant, built once per density."""
        grid, values = self.grid, self.values
        if len(values) < 2048:
            grid = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
            values = self._pdf(grid)  # centred: sample applies mu to the draws
        step = TWO_PI / len(grid)
        cdf = np.concatenate([[0.0], np.cumsum((values[:-1] + values[1:]) * 0.5 * step)])
        cdf = np.append(cdf, cdf[-1] + (values[-1] + values[0]) * 0.5 * step)
        cdf /= cdf[-1]
        return cdf, np.append(grid, TWO_PI)

    def _draw(self, n, rng):
        cdf, knots = self._inverse_cdf
        return np.interp(rng.random(n), cdf, knots)


def _periodic_trapezoid(values):
    # Trapezoid rule over one period of a uniform periodic grid reduces to
    # the mean value times the period.
    return float(np.mean(values) * TWO_PI)


def sample_mixture(theta: MixtureParams, density: ComponentDensity, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw n angles from p*f(.-alpha) + (1-p)*f(.-beta), normalized to [0, 2*pi).

    Equivalent to X = Y + eps (mod 2*pi) with Y ~ f and eps the Bernoulli
    angle taking value alpha with probability p.
    """
    angles = density.sample(n, rng)  # a new array, so it is shifted and normalized in place
    angles += np.where(rng.random(n) < theta.p, theta.alpha, theta.beta)
    return normalize_into(angles, angles)


def mixture_density(theta: MixtureParams, density: ComponentDensity, x):
    """Evaluate g(x) = p*f(x-alpha) + (1-p)*f(x-beta)."""
    x = np.asarray(x, dtype=float)
    return theta.p * density.pdf(x - theta.alpha) + (1.0 - theta.p) * density.pdf(x - theta.beta)


def mixture_fourier(theta: MixtureParams, density: ComponentDensity, l: int) -> complex:
    """Exact Fourier coefficient of the mixture: M^l(theta) * f_l."""
    return complex(mixture_weight(theta, l) * density.fourier_coeff(l))


_FAMILIES = {family.kind: family for family in (VonMises, WrappedCauchy, WrappedNormal)}
_DENSITY_ALIASES = {"vm": "vonmises", "wc": "wrappedcauchy", "wn": "wrappednormal"}


def parse_density(spec: str) -> ComponentDensity:
    """Build a density from a config string.

    Accepted forms: ``<kind> <param>=<value> mu=<value>`` for each family of
    ``_FAMILIES`` or its alias (``vonmises kappa=5 mu=0``, ``wc gamma=0.8``),
    ``uniform`` (von Mises, kappa = 0) and ``tabulated path=values.txt``.  A
    colon may stand for a space, mu defaults to 0, and a key may appear once.
    """
    tokens = spec.replace(":", " ").split()
    if not tokens:
        raise DomainError("empty density specification")
    kind = _DENSITY_ALIASES.get(tokens[0].lower(), tokens[0].lower())
    if kind not in _FAMILIES and kind not in ("uniform", "tabulated"):
        raise DomainError(f"unknown density kind {tokens[0]!r}")
    kwargs = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise DomainError(f"malformed density parameter {tok!r}, expected key=value")
        key, _, value = tok.partition("=")
        key = key.strip().lower()
        if key in kwargs:
            raise DomainError(f"repeated density parameter {key!r}")
        kwargs[key] = value.strip()

    def _num(key, default=None):
        if key not in kwargs:
            if default is None:
                raise DomainError(f"density {kind!r} requires parameter {key!r}")
            return default
        try:
            return float(kwargs.pop(key))
        except ValueError as exc:
            raise DomainError(f"invalid numeric value for {key!r}") from exc

    mu = _num("mu", 0.0)
    if kind == "uniform":
        density = VonMises(kappa=0.0, mu=mu)
    elif kind == "tabulated":
        path = kwargs.pop("path", None)
        if path is None:
            raise DomainError("tabulated density requires path=<file>")
        density = Tabulated.from_text(path, mu=mu)
    else:
        family = _FAMILIES[kind]
        density = family(_num(family.param), mu=mu)
    if kwargs:
        raise DomainError(f"unknown density parameters: {sorted(kwargs)}")
    return density
