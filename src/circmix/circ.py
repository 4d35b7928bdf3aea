"""Circular arithmetic, component densities, exact Fourier coefficients,
and sampling for two-component rotation mixtures.

Angles live on [0, 2*pi).  Fourier coefficients follow the convention
``c_l = (1/2pi) * integral f(x) exp(-i l x) dx``, so every density has
``c_0 = 1/(2pi)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ive

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
    if np.all((arr >= 0.0) & (arr < TWO_PI)):
        # what mod returns on [0, 2*pi), -0.0 made +0.0 too, as a new array
        out = arr + 0.0
    else:
        if not np.all(np.isfinite(arr)):
            raise DomainError("angles must be finite")
        out = np.mod(arr, TWO_PI)
        # mod can round up to exactly 2*pi for tiny negative inputs
        out = np.where(out >= TWO_PI, 0.0, out)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
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


class ComponentDensity:
    """Base class for circular component densities.

    Subclasses implement ``pdf``, ``fourier_coeffs`` and ``sample``; all are
    pure given an explicit ``numpy.random.Generator``.
    """

    mu: float = 0.0
    label: str = "density"

    def pdf(self, x):
        raise NotImplementedError

    def fourier_coeff(self, l: int) -> complex:
        """Exact Fourier coefficient c_l = (1/2pi) E[exp(-i l X)]."""
        return complex(self.fourier_coeffs([l])[0])

    def fourier_coeffs(self, ls) -> np.ndarray:
        """c_l for each level of ``ls``, a complex array."""
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self):
        return self.label


@dataclass(frozen=True, repr=False)
class VonMises(ComponentDensity):
    """Von Mises density exp(kappa*cos(x-mu)) / (2*pi*I_0(kappa)).

    Evaluated with the scaled Bessel function ive(l, kappa) = I_l(kappa)
    e^{-kappa}, so neither the density nor the coefficients overflow at
    large kappa.
    """

    kappa: float
    mu: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.kappa) or self.kappa < 0:
            raise DomainError("kappa must be finite and >= 0")

    @property
    def label(self):
        return f"vonmises kappa={self.kappa:g} mu={self.mu:g}"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.exp(self.kappa * (np.cos(x - self.mu) - 1.0)) / (TWO_PI * ive(0, self.kappa))
        return out if out.ndim else float(out)

    def fourier_coeffs(self, ls) -> np.ndarray:
        ls = np.atleast_1d(ls)
        mag = ive(np.abs(ls), self.kappa) / (TWO_PI * ive(0, self.kappa))
        return mag * np.exp(-1j * ls * self.mu)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise DomainError("sample size must be >= 1")
        if self.kappa < 1e-12:
            return rng.uniform(0.0, TWO_PI, size=n)
        return _vonmises_best_fisher(self.kappa, self.mu, n, rng)


def _vonmises_best_fisher(kappa, mu, n, rng):
    # Best-Fisher wrapped-Cauchy envelope rejection sampler.
    tau = 1.0 + math.sqrt(1.0 + 4.0 * kappa * kappa)
    rho = (tau - math.sqrt(2.0 * tau)) / (2.0 * kappa)
    r = (1.0 + rho * rho) / (2.0 * rho)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = max(n - filled, 16)
        u1 = rng.random(m)
        u2 = rng.random(m)
        u3 = rng.random(m)
        z = np.cos(math.pi * u1)
        f = (1.0 + r * z) / (r + z)
        c = kappa * (r - f)
        accept = (c * (2.0 - c) - u2 > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            accept |= (np.log(c / u2) + 1.0 - c >= 0.0)
        f_acc = f[accept]
        signs = np.where(u3[accept] < 0.5, -1.0, 1.0)
        take = min(len(f_acc), n - filled)
        out[filled:filled + take] = mu + signs[:take] * np.arccos(np.clip(f_acc[:take], -1.0, 1.0))
        filled += take
    return normalize(out)


@dataclass(frozen=True, repr=False)
class WrappedCauchy(ComponentDensity):
    """Wrapped Cauchy density with concentration gamma in [0, 1)."""

    gamma: float
    mu: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.gamma) or not 0.0 <= self.gamma < 1.0:
            raise DomainError("gamma must lie in [0, 1)")

    @property
    def label(self):
        return f"wrappedcauchy gamma={self.gamma:g} mu={self.mu:g}"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        g = self.gamma
        out = (1.0 - g * g) / (TWO_PI * (1.0 + g * g - 2.0 * g * np.cos(x - self.mu)))
        return out if out.ndim else float(out)

    def fourier_coeffs(self, ls) -> np.ndarray:
        ls = np.atleast_1d(ls)
        return self.gamma ** np.abs(ls) / TWO_PI * np.exp(-1j * ls * self.mu)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise DomainError("sample size must be >= 1")
        if self.gamma == 0.0:
            return rng.uniform(0.0, TWO_PI, size=n)
        scale = -math.log(self.gamma)
        return normalize(self.mu + scale * rng.standard_cauchy(n))


@dataclass(frozen=True, repr=False)
class WrappedNormal(ComponentDensity):
    """Wrapped normal density, parameterized by rho in [0, 1) with
    sigma^2 = -2*log(rho)."""

    rho: float
    mu: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.rho) or not 0.0 <= self.rho < 1.0:
            raise DomainError("rho must lie in [0, 1)")

    @property
    def label(self):
        return f"wrappednormal rho={self.rho:g} mu={self.mu:g}"

    def _n_terms(self):
        if self.rho == 0.0:
            return 0
        # rho^(l^2) < 1e-16 beyond this index
        return int(math.ceil(math.sqrt(math.log(1e-16) / math.log(self.rho))))

    def pdf(self, x):
        # Fourier series (1/2pi)(1 + 2 sum_l rho^(l^2) cos(l(x-mu))); the
        # rho^(l^2) decay makes this cheaper and more accurate than the
        # wrapped Gaussian sum.
        x = np.asarray(x, dtype=float)
        acc = np.ones_like(x)
        for l in range(1, self._n_terms() + 1):
            acc = acc + 2.0 * self.rho ** (l * l) * np.cos(l * (x - self.mu))
        out = acc / TWO_PI
        return out if out.ndim else float(out)

    def fourier_coeffs(self, ls) -> np.ndarray:
        ls = np.atleast_1d(ls)
        return self.rho ** (ls * ls) / TWO_PI * np.exp(-1j * ls * self.mu)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise DomainError("sample size must be >= 1")
        if self.rho == 0.0:
            return rng.uniform(0.0, TWO_PI, size=n)
        sigma = math.sqrt(-2.0 * math.log(self.rho))
        return normalize(rng.normal(self.mu, sigma, size=n))


class Tabulated(ComponentDensity):
    """Density given by nonnegative values on a uniform grid over [0, 2*pi).

    The values are renormalized by trapezoidal quadrature; evaluation uses
    periodic linear interpolation and sampling inverts the interpolated CDF.
    Internal quadratures refine the grid to at least 512 points.
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
        self.mu = float(mu)
        self.label = f"tabulated n={len(values)} mu={mu:g}"

    @classmethod
    def from_text(cls, path, mu: float = 0.0) -> "Tabulated":
        """Load a two-column (angle, value) text file on a uniform grid."""
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise DomainError("expected a two-column (angle, value) file")
        order = np.argsort(data[:, 0])
        angles, values = data[order, 0], data[order, 1]
        step = np.diff(angles)
        if len(angles) < 16 or not np.allclose(step, step[0], rtol=1e-6, atol=1e-9):
            raise DomainError("tabulated grid must be uniform with >= 16 points")
        return cls(values, mu=mu)

    def _fine(self, n=512):
        if len(self.values) >= n:
            return self.grid, self.values
        fine = np.linspace(0.0, TWO_PI, n, endpoint=False)
        return fine, self.pdf(fine)

    def pdf(self, x):
        x = normalize(np.asarray(x, dtype=float) - self.mu)
        step = TWO_PI / len(self.values)
        idx = np.floor(x / step).astype(int)
        frac = x / step - idx
        nxt = (idx + 1) % len(self.values)
        out = (1.0 - frac) * self.values[idx] + frac * self.values[nxt]
        return out if out.ndim else float(out)

    def fourier_coeff(self, l: int) -> complex:
        grid, values = self._fine()
        step = TWO_PI / len(grid)
        coeff = np.sum(values * np.exp(-1j * l * grid)) * step / TWO_PI
        return complex(coeff * np.exp(-1j * l * self.mu))

    def fourier_coeffs(self, ls) -> np.ndarray:
        return np.array([self.fourier_coeff(int(l)) for l in np.atleast_1d(ls)])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise DomainError("sample size must be >= 1")
        grid, values = self._fine(2048)
        step = TWO_PI / len(grid)
        cdf = np.concatenate([[0.0], np.cumsum((values[:-1] + values[1:]) * 0.5 * step)])
        cdf = np.append(cdf, cdf[-1] + (values[-1] + values[0]) * 0.5 * step)
        cdf /= cdf[-1]
        knots = np.append(grid, TWO_PI)
        u = rng.random(n)
        return normalize(np.interp(u, cdf, knots) + self.mu)


def _periodic_trapezoid(values):
    # Trapezoid rule over one period of a uniform periodic grid reduces to
    # the mean value times the period.
    return float(np.mean(values) * TWO_PI)


@dataclass
class Sample:
    """Ordered collection of angles with optional provenance."""

    angles: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.angles = normalize(np.asarray(self.angles, dtype=float))

    @property
    def n(self) -> int:
        return len(self.angles)


def sample_component(density: ComponentDensity, n: int, rng: np.random.Generator) -> Sample:
    """Draw n i.i.d. angles from a single component density."""
    return Sample(density.sample(n, rng), meta={"density": density.label})


def sample_mixture(theta: MixtureParams, density: ComponentDensity, n: int,
                   rng: np.random.Generator) -> Sample:
    """Draw n angles from p*f(.-alpha) + (1-p)*f(.-beta).

    Equivalent to X = Y + eps (mod 2*pi) with Y ~ f and eps the Bernoulli
    angle taking value alpha with probability p.
    """
    y = density.sample(n, rng)
    shifts = np.where(rng.random(n) < theta.p, theta.alpha, theta.beta)
    return Sample(normalize(y + shifts), meta={"density": density.label, "theta": theta})


def mixture_density(theta: MixtureParams, density: ComponentDensity, x):
    """Evaluate g(x) = p*f(x-alpha) + (1-p)*f(x-beta)."""
    x = np.asarray(x, dtype=float)
    out = theta.p * density.pdf(x - theta.alpha) + (1.0 - theta.p) * density.pdf(x - theta.beta)
    return out if np.ndim(out) else float(out)


def mixture_fourier(theta: MixtureParams, density: ComponentDensity, l: int) -> complex:
    """Exact Fourier coefficient of the mixture: M^l(theta) * f_l."""
    m = theta.p * np.exp(-1j * l * theta.alpha) + (1.0 - theta.p) * np.exp(-1j * l * theta.beta)
    return complex(m * density.fourier_coeff(l))


_DENSITY_ALIASES = {
    "vonmises": "vonmises", "vm": "vonmises",
    "wrappedcauchy": "wrappedcauchy", "wc": "wrappedcauchy",
    "wrappednormal": "wrappednormal", "wn": "wrappednormal",
    "uniform": "uniform",
    "tabulated": "tabulated",
}


def parse_density(spec: str) -> ComponentDensity:
    """Build a density from a config string.

    Accepted forms: ``vonmises kappa=5 mu=0``, ``vonmises:kappa=5``,
    ``wrappedcauchy gamma=0.8``, ``wrappednormal rho=0.8``, ``uniform``,
    ``tabulated path=values.txt``.
    """
    tokens = [t for t in spec.replace(":", " ").split() if t]
    if not tokens:
        raise DomainError("empty density specification")
    kind = _DENSITY_ALIASES.get(tokens[0].lower())
    if kind is None:
        raise DomainError(f"unknown density kind {tokens[0]!r}")
    kwargs = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise DomainError(f"malformed density parameter {tok!r}, expected key=value")
        key, _, value = tok.partition("=")
        kwargs[key.strip().lower()] = value.strip()

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
    if kind == "vonmises":
        density = VonMises(kappa=_num("kappa"), mu=mu)
    elif kind == "wrappedcauchy":
        density = WrappedCauchy(gamma=_num("gamma"), mu=mu)
    elif kind == "wrappednormal":
        density = WrappedNormal(rho=_num("rho"), mu=mu)
    elif kind == "uniform":
        density = VonMises(kappa=0.0, mu=mu)
    else:
        path = kwargs.pop("path", None)
        if path is None:
            raise DomainError("tabulated density requires path=<file>")
        density = Tabulated.from_text(path, mu=mu)
    if kwargs:
        raise DomainError(f"unknown density parameters: {sorted(kwargs)}")
    return density
