"""Identifiability classification, alias recipes, determinant identity."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circmix import (AliasRecipe, DomainError, IdentTag, MixtureParams, VonMises,
                     WrappedCauchy, alias_bipolar, alias_case4, alias_label_switch,
                     alias_pi_shift, classify, det_sin_identity, mixture_residual,
                     normalize)

TWO_PI = 2.0 * math.pi
THIRD = TWO_PI / 3.0


def test_classify_spec_cases():
    assert classify(MixtureParams(0.25, np.pi / 8, THIRD)).tag is IdentTag.IDENTIFIABLE
    assert classify(MixtureParams(0.3, 0.0, np.pi)).tag is IdentTag.BIPOLAR
    assert classify(MixtureParams(0.4, 0.0, THIRD)).tag is IdentTag.TWO_PI_OVER_THREE
    assert classify(MixtureParams(0.4, 1.3, 1.3)).tag is IdentTag.COLLAPSED
    assert classify(MixtureParams(0.5, 0.2, 1.0)).tag is IdentTag.BOUNDARY_P
    assert classify(MixtureParams(1e-12, 0.2, 1.0)).tag is IdentTag.BOUNDARY_P


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_classify_rejects_bad_tolerance(tol):
    with pytest.raises(DomainError):
        classify(MixtureParams(0.3, 0.0, 0.0), tol=tol)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("build", [
    lambda tol: alias_bipolar(MixtureParams(0.3, 0.0, np.pi), 0.9, tol=tol),
    lambda tol: alias_bipolar(MixtureParams(0.3, 0.0, 1.0), 0.9, tol=tol),
    lambda tol: alias_case4(MixtureParams(0.4, 0.0, THIRD), tol=tol),
], ids=["bipolar", "bipolar_not_pi", "case4"])
def test_alias_builders_reject_bad_tolerance(build, tol):
    with pytest.raises(DomainError, match="tolerance"):
        build(tol)


def test_classify_always_carries_trivial_witnesses():
    result = classify(MixtureParams(0.25, np.pi / 8, THIRD))
    kinds = [w.kind for w in result.witnesses]
    assert IdentTag.LABEL_SWITCH_ONLY in kinds
    assert IdentTag.PI_SHIFT in kinds


def test_classify_invariances():
    rng = np.random.default_rng(0)
    for _ in range(50):
        theta = MixtureParams(rng.uniform(0.05, 0.45),
                              rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        tag = classify(theta).tag
        assert classify(theta.switched()).tag is tag
        shifted = MixtureParams(theta.p, normalize(theta.alpha + np.pi),
                                normalize(theta.beta + np.pi))
        assert classify(shifted).tag is tag


def test_aliases_reproduce_mixture():
    densities = [VonMises(1.0), VonMises(5.0), WrappedCauchy(0.8)]
    theta = MixtureParams(0.25, np.pi / 8, THIRD)
    for d in densities:
        assert mixture_residual(theta, d, alias_label_switch(theta)) <= 1e-12
        assert mixture_residual(theta, d, alias_pi_shift(theta)) <= 1e-12


def test_pi_shift_details():
    theta = MixtureParams(0.25, np.pi / 8, THIRD)
    recipe = alias_pi_shift(theta)
    # shifted density has coefficients (-1)^l f_l
    d = VonMises(5.0)
    for l in range(1, 5):
        x = np.linspace(0, TWO_PI, 2048, endpoint=False)
        shifted = recipe.f_prime_pdf(d, x)
        coeff = np.mean(shifted * np.exp(-1j * l * x))
        assert_allclose(coeff, (-1) ** l * d.fourier_coeff(l), atol=1e-12)
    # applying the shift twice returns theta
    twice = alias_pi_shift(recipe.theta_prime).theta_prime
    assert_allclose((twice.p, twice.alpha, twice.beta),
                    (theta.p, theta.alpha, theta.beta), atol=1e-12)


def test_bipolar_alias():
    theta = MixtureParams(0.3, 0.0, np.pi)
    d = VonMises(2.0)
    identity = alias_bipolar(theta, q=1.0)
    assert identity.theta_prime.p == pytest.approx(theta.p)
    assert mixture_residual(theta, d, identity) <= 1e-12
    recipe = alias_bipolar(theta, q=0.8)
    assert recipe.theta_prime.p == pytest.approx((0.3 + 0.8 - 1.0) / 0.6)
    assert recipe.theta_prime.p <= theta.p
    assert recipe.weight_sum() == pytest.approx(1.0)
    assert mixture_residual(theta, d, recipe) <= 1e-10
    # swapped witness (alpha', beta') = (beta, alpha) with weight 1 - p'
    swapped = AliasRecipe(kind=recipe.kind, theta_prime=recipe.alternate_thetas[0],
                          f_weights=recipe.f_weights)
    assert mixture_residual(theta, d, swapped) <= 1e-10


def test_bipolar_alias_validation():
    with pytest.raises(DomainError):
        alias_bipolar(MixtureParams(0.3, 0.0, 1.0), q=0.9)
    with pytest.raises(DomainError):
        alias_bipolar(MixtureParams(0.3, 0.0, np.pi), q=0.5)  # q <= 1 - p
    with pytest.raises(DomainError):
        alias_bipolar(MixtureParams(0.3, 0.0, np.pi), q=1.2)


def test_case4_weight_value():
    recipe = alias_case4(MixtureParams(0.4, 0.0, THIRD))
    assert recipe.theta_prime.p == pytest.approx(0.25)
    assert recipe.weight_sum() == pytest.approx(1.0)


def test_case4_reproduces_mixture_all_densities():
    densities = [VonMises(1.0), VonMises(5.0), WrappedCauchy(0.8)]
    rng = np.random.default_rng(1)
    for d in densities:
        for _ in range(3):
            alpha = rng.uniform(0, np.pi)
            p = rng.uniform(0.05, 0.45)
            for sign in (+1, -1):
                theta = MixtureParams(p, alpha, normalize(alpha + sign * THIRD))
                recipe = alias_case4(theta)
                assert mixture_residual(theta, d, recipe) <= 1e-10


def test_case4_angle_pairs():
    theta = MixtureParams(0.4, 0.3, 0.3 + THIRD)
    recipe = alias_case4(theta)
    assert_allclose(recipe.theta_prime.alpha, normalize(0.3 + np.pi), atol=1e-12)
    assert_allclose(recipe.theta_prime.beta, normalize(0.3 + THIRD - np.pi / 3), atol=1e-12)
    (alt,) = recipe.alternate_thetas
    assert_allclose(alt.alpha, 0.3, atol=1e-12)
    assert_allclose(alt.beta, normalize(0.3 + THIRD + THIRD), atol=1e-12)


def test_case4_positivity_figure():
    d = VonMises(1.0)
    pos = alias_case4(MixtureParams(0.4, 0.0, THIRD), density=d)
    assert pos.f_prime_nonneg is True
    neg = alias_case4(MixtureParams(0.3, 0.0, THIRD), density=d)
    assert neg.f_prime_nonneg is False
    assert neg.f_prime_min < 0


def test_case4_weight_map_preserves_interval():
    ps = np.linspace(0.01, 0.49, 97)
    p_prime = (1 - 2 * ps) / (2 - 3 * ps)
    assert np.all((p_prime > 0) & (p_prime < 0.5))


def test_case4_precondition():
    with pytest.raises(DomainError):
        alias_case4(MixtureParams(0.4, 0.0, 1.0))


def test_det_sin_identity_zeros():
    lhs, rhs = det_sin_identity([0.0, 0.5, 1.0, 2.0])
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == 0.0
    lhs, rhs = det_sin_identity([0.7, 0.7, 1.0, 2.0])
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_det_sin_identity_random():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        g = rng.uniform(-np.pi, np.pi, 4)
        lhs, rhs = det_sin_identity(g)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))
