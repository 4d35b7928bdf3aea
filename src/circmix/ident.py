"""Executable identifiability algebra for the rotation mixture.

Classifies parameter configurations by their aliasing behavior, builds the
explicit alias recipes (joint pi-shift, bipolar blends, the 2*pi/3
construction), and exposes the sine-matrix determinant identity that
underlies the case analysis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .circ import (ComponentDensity, MixtureParams, TWO_PI, angular_distance,
                   mixture_density, normalize)
from .errors import DomainError

GRID_POINTS = 2048


class IdentTag(enum.Enum):
    IDENTIFIABLE = "Identifiable"
    LABEL_SWITCH_ONLY = "LabelSwitchOnly"
    PI_SHIFT = "PiShift"
    BIPOLAR = "Bipolar"
    TWO_PI_OVER_THREE = "TwoPiOverThree"
    COLLAPSED = "Collapsed"
    BOUNDARY_P = "BoundaryP"


@dataclass
class AliasRecipe:
    """An alternative (theta', f') reproducing the same mixture.

    ``f_weights`` lists (shift, weight) pairs defining
    f'(x) = sum_j w_j f(x - shift_j); weights sum to one.
    ``alternate_thetas`` records further angle pairs valid for the same
    case (their own density transforms differ from ``f_weights``).
    """

    kind: IdentTag
    theta_prime: MixtureParams
    f_weights: tuple
    alternate_thetas: tuple = ()
    f_prime_min: float | None = None
    f_prime_nonneg: bool | None = None

    def f_prime_pdf(self, density: ComponentDensity, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for shift, weight in self.f_weights:
            out = out + weight * density.pdf(x - shift)
        return out

    def mixture_pdf(self, density: ComponentDensity, x):
        """p' f'(x - alpha') + (1 - p') f'(x - beta')."""
        tp = self.theta_prime
        x = np.asarray(x, dtype=float)
        return (tp.p * self.f_prime_pdf(density, x - tp.alpha)
                + (1.0 - tp.p) * self.f_prime_pdf(density, x - tp.beta))

    def weight_sum(self) -> float:
        return float(sum(w for _, w in self.f_weights))


@dataclass
class IdentClass:
    tag: IdentTag
    witnesses: list = field(default_factory=list)


def _check_tol(tol: float) -> None:
    """Raise DomainError unless the tolerance is finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tolerance must be finite and >= 0, got {tol}")


def mixture_residual(theta: MixtureParams, density: ComponentDensity,
                     recipe: AliasRecipe) -> float:
    """Max absolute gap between the original and the alias mixture on GRID_POINTS points."""
    x = np.linspace(0.0, TWO_PI, GRID_POINTS, endpoint=False)
    return float(np.max(np.abs(mixture_density(theta, density, x)
                               - recipe.mixture_pdf(density, x))))


def alias_label_switch(theta: MixtureParams) -> AliasRecipe:
    """The trivial witness (1-p, beta, alpha) with f' = f."""
    return AliasRecipe(kind=IdentTag.LABEL_SWITCH_ONLY,
                       theta_prime=theta.switched(),
                       f_weights=((0.0, 1.0),))


def alias_pi_shift(theta: MixtureParams) -> AliasRecipe:
    """Joint pi-shift witness: (p, alpha+pi, beta+pi) with f' = f(. - pi)."""
    return AliasRecipe(
        kind=IdentTag.PI_SHIFT,
        theta_prime=MixtureParams(theta.p, normalize(theta.alpha + math.pi),
                                  normalize(theta.beta + math.pi)),
        f_weights=((math.pi, 1.0),))


def alias_bipolar(theta: MixtureParams, q: float, tol: float = 1e-9) -> AliasRecipe:
    """Bipolar alias: with beta - alpha = pi, the blend f' = q f + (1-q) f_pi
    and the induced weight p' = (p + q - 1)/(2q - 1) reproduce the mixture.

    Requires q in (1-p, 1] so that p' lies in (0, p].  The label-switched
    angle pair (beta, alpha) with weight 1 - p' is recorded as an alternate.
    tol must be finite and >= 0.
    """
    _check_tol(tol)
    if angular_distance(theta.beta - theta.alpha, math.pi) > tol:
        raise DomainError("bipolar alias requires beta - alpha = pi (mod 2*pi)")
    if not 0.0 < q <= 1.0:
        raise DomainError("q must lie in (0, 1]")
    if q <= 1.0 - theta.p:
        raise DomainError(
            f"q must exceed 1 - p = {1.0 - theta.p:g} for a weight in (0, p]")
    p_prime = (theta.p + q - 1.0) / (2.0 * q - 1.0)
    return AliasRecipe(
        kind=IdentTag.BIPOLAR,
        theta_prime=MixtureParams(p_prime, theta.alpha, theta.beta),
        f_weights=((0.0, q), (math.pi, 1.0 - q)),
        alternate_thetas=(MixtureParams(1.0 - p_prime, theta.beta, theta.alpha),))


def alias_case4(theta: MixtureParams, density: ComponentDensity | None = None,
                tol: float = 1e-9) -> AliasRecipe:
    """The 2*pi/3 alias: p' = (1-2p)/(2-3p) and
    f' = (1-p) f(.-pi/3) + (1-p) f(.+pi/3) + (2p-1) f(.-pi).

    For beta - alpha = +2*pi/3 the alias angles are (alpha+pi, beta-pi/3);
    for -2*pi/3 they are (alpha+pi, beta+pi/3).  The second valid pair
    ((alpha, beta -+ 2*pi/3)) is recorded as an alternate; it needs a
    different blend of f shifted by multiples of 2*pi/3.

    When a density is supplied, f' is checked for nonnegativity on a grid
    of GRID_POINTS points (the blend has a negative weight 2p - 1 for
    p < 1/2, so positivity depends on p and on f).  tol must be finite and >= 0.
    """
    _check_tol(tol)
    delta = theta.beta - theta.alpha
    third = TWO_PI / 3.0
    plus = angular_distance(delta, third) <= tol
    minus = angular_distance(delta, -third) <= tol
    if not (plus or minus):
        raise DomainError("case-4 alias requires beta - alpha = +-2*pi/3 (mod 2*pi)")
    p = theta.p
    if abs(2.0 - 3.0 * p) < 1e-12:
        raise DomainError("p = 2/3 makes the alias weight singular")
    p_prime = (1.0 - 2.0 * p) / (2.0 - 3.0 * p)
    sign = 1.0 if plus else -1.0
    theta_prime = MixtureParams(p_prime,
                                normalize(theta.alpha + math.pi),
                                normalize(theta.beta - sign * math.pi / 3.0))
    alternate = MixtureParams(p_prime, theta.alpha,
                              normalize(theta.beta + sign * third))
    weights = ((math.pi / 3.0, 1.0 - p), (-math.pi / 3.0, 1.0 - p), (math.pi, 2.0 * p - 1.0))
    recipe = AliasRecipe(kind=IdentTag.TWO_PI_OVER_THREE, theta_prime=theta_prime,
                         f_weights=weights, alternate_thetas=(alternate,))
    if density is not None:
        x = np.linspace(0.0, TWO_PI, GRID_POINTS, endpoint=False)
        fp = recipe.f_prime_pdf(density, x)
        recipe.f_prime_min = float(fp.min())
        recipe.f_prime_nonneg = bool(recipe.f_prime_min >= -1e-12)
    return recipe


def classify(theta: MixtureParams, tol: float = 1e-9,
             density: ComponentDensity | None = None) -> IdentClass:
    """Classify a parameter triple by its identifiability regime.

    Every configuration carries the label-switch and pi-shift witnesses;
    degenerate spacings add their specific alias recipes.  Classification
    is invariant under label switching and under the joint pi-shift.

    Raises
    ------
    DomainError
        Unless 0 < p < 1 and tol is finite and >= 0.
    """
    if not 0.0 < theta.p < 1.0:
        raise DomainError("classification requires p in (0, 1)")
    _check_tol(tol)
    delta = theta.beta - theta.alpha
    witnesses = [alias_label_switch(theta), alias_pi_shift(theta)]
    if theta.p <= tol or theta.p >= 1.0 - tol or abs(theta.p - 0.5) <= tol:
        return IdentClass(IdentTag.BOUNDARY_P, witnesses)
    if angular_distance(delta, 0.0) <= tol:
        return IdentClass(IdentTag.COLLAPSED, witnesses)
    if angular_distance(delta, math.pi) <= tol:
        p_low = min(theta.p, 1.0 - theta.p)
        canonical = theta if theta.p < 0.5 else theta.switched()
        q = (1.0 - 1.5 * p_low) / (1.0 - p_low)  # representative p' = p/2 blend
        witnesses.append(alias_bipolar(canonical, q, tol=tol))
        return IdentClass(IdentTag.BIPOLAR, witnesses)
    if angular_distance(delta, 0.0, TWO_PI / 3.0) <= tol:
        canonical = theta if theta.p < 0.5 else theta.switched()
        witnesses.append(alias_case4(canonical, density=density, tol=tol))
        return IdentClass(IdentTag.TWO_PI_OVER_THREE, witnesses)
    return IdentClass(IdentTag.IDENTIFIABLE, witnesses)


def det_sin_identity(gammas) -> tuple[float, float]:
    """Both sides of det (sin(i*gamma_j))_{i,j=1..4}
    = 64 prod_k sin(gamma_k) * prod_{i<j} (cos(gamma_i) - cos(gamma_j)).

    Returns (numerical determinant, closed-form product) for comparison.
    """
    g = np.asarray(gammas, dtype=float)
    if g.shape != (4,):
        raise DomainError("need exactly four angles")
    rows = np.arange(1, 5)
    lhs = float(np.linalg.det(np.sin(rows[:, None] * g[None, :])))
    rhs = 64.0 * float(np.prod(np.sin(g)))
    cosines = np.cos(g)
    for i in range(4):
        for j in range(i + 1, 4):
            rhs *= cosines[i] - cosines[j]
    return lhs, float(rhs)
