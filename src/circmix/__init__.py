"""circmix: semiparametric estimation for two-component rotation mixtures
of circular data.

A mixture g = p f(. - alpha) + (1-p) f(. - beta) on the circle is fitted in
two stages: (p, alpha, beta) by minimum contrast on low-order Fourier
coefficients, then f by adaptive penalized Fourier projection.  An
identifiability toolkit and a Monte Carlo benchmark harness round out the
package.
"""

from .circ import (ComponentDensity, MixtureParams, Tabulated, VonMises, WrappedCauchy,
                   WrappedNormal, angular_distance, mixture_density, mixture_fourier,
                   mixture_weight, normalize, parse_density, sample_mixture)
from .contrast import (ContrastMoments, FitOptions, FitResult, asymptotic_cov,
                       canonicalize, degeneracy_gap, estimate_theta, mixture_weight_grad,
                       population_contrast, power_sums, squared_error)
from .errors import (CalibrationError, CircmixError, DegeneracyError, DomainError,
                     EstimationError, ExperimentError, InferenceError)
from .ident import (AliasRecipe, IdentClass, IdentTag, alias_bipolar, alias_case4,
                    alias_label_switch, alias_pi_shift, classify, det_sin_identity,
                    mixture_residual)
from .npdens import (DensityEstimate, EmpiricalCoeffs, SlopeFit, default_l_max,
                     empirical_coeffs, estimate_density, l2_error, oracle_risk,
                     penalty_floor, select_level, slope_lambda)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
